// The MUSIC kernels evaluate the pseudospectrum denominator in
// signal-subspace projector form,
//   a^H E_n E_n^H a = |a|^2 - sum_{s<d} |e_s^H a|^2,
// instead of summing over the m - d noise eigenvectors. These tests
// pin the algebra: the projector spectrum must match a naive
// noise-eigenvector reference within 1e-9 (see max_deviation for the
// exact metric) across randomized covariances, signal counts,
// smoothing settings and forward-backward averaging.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "aoa/covariance.h"
#include "aoa/music.h"
#include "array/geometry.h"
#include "array/placed_array.h"
#include "linalg/eigen.h"

namespace arraytrack::aoa {
namespace {

using array::ArrayGeometry;
using array::PlacedArray;

constexpr double kLambda = 0.1226;

std::vector<std::size_t> first_n(std::size_t n) {
  std::vector<std::size_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

// Random full-rank Hermitian PSD covariance: a strong rank-3 block of
// random (non-steering) signal directions over a weak full-rank
// Wishart noise floor two orders of magnitude down. The gap keeps
// automatic d estimation (eig_threshold) on a multi-dimensional noise
// subspace; a gapless spectrum would push d to ms - 1, and a
// one-dimensional noise subspace hits eps-deep nulls where ANY
// evaluation order disagrees at 1/eps scale. The projector identity
// under test is subspace algebra, so a well-conditioned spectrum is
// the meaningful comparison.
linalg::CMatrix random_covariance(std::size_t m, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> g(0.0, 1.0);
  linalg::CMatrix s(m, 3);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t k = 0; k < 3; ++k) s(i, k) = cplx{g(rng), g(rng)};
  linalg::CMatrix x(m, 2 * m);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t k = 0; k < 2 * m; ++k) x(i, k) = cplx{g(rng), g(rng)};
  linalg::CMatrix n = x * x.hermitian();
  n *= cplx{0.01 / double(2 * m), 0.0};
  linalg::CMatrix r = s * s.hermitian() + n;
  for (std::size_t i = 0; i < m; ++i) r(i, i) += 0.001;
  return r;
}

// Reference evaluation: explicit sum over the noise eigenvectors, the
// form the seed implementation used.
double naive_denominator(const linalg::CVector& a,
                         const linalg::EigenResult& eig,
                         std::size_t num_signals) {
  const std::size_t m = a.size();
  double denom = 0.0;
  for (std::size_t n = 0; n + num_signals < m; ++n)
    denom += std::norm(eig.eigenvectors.col(n).dot(a));
  return denom;
}

// Both kernels evaluate p = 1 / max(denom, 1e-12) with a normalized
// steering vector, so denom = 1/p recovers the quadratic form. The
// two evaluation orders agree to the orthonormality defect of the
// Jacobi eigenbasis -- an ABSOLUTE ~m*eps error in the form. At an
// eps-deep null (one noise eigenvector nearly orthogonal to the
// steering vector) that defect is unavoidably huge in relative terms
// for ANY evaluation order, so the identity is pinned two ways:
// absolutely on the form at its natural scale |a|^2 = 1 everywhere,
// and relatively on the spectrum wherever the form is
// well-conditioned (denom >= 1e-6).
double max_deviation(const AoaSpectrum& got, const AoaSpectrum& want) {
  EXPECT_EQ(got.bins(), want.bins());
  double worst = 0.0;
  for (std::size_t i = 0; i < got.bins(); ++i) {
    const double denom_got = 1.0 / std::max(got[i], 1e-300);
    const double denom_want = 1.0 / std::max(want[i], 1e-300);
    double dev = std::abs(denom_got - denom_want);
    if (denom_want >= 1e-6)
      dev = std::max(dev, std::abs(got[i] - want[i]) / std::abs(want[i]));
    worst = std::max(worst, dev);
  }
  return worst;
}

struct LinearCase {
  std::size_t smoothing_groups;
  bool forward_backward;
  std::size_t fixed_d;  // 0 = automatic
};

class LinearProjectorSweep : public ::testing::TestWithParam<LinearCase> {};

TEST_P(LinearProjectorSweep, MatchesNaiveNoiseSum) {
  const auto c = GetParam();
  const PlacedArray pa(ArrayGeometry::uniform_linear(8, kLambda / 2.0),
                       {0, 0}, 0.0);
  MusicOptions opt;
  opt.smoothing_groups = c.smoothing_groups;
  opt.forward_backward = c.forward_backward;
  opt.fixed_num_signals = c.fixed_d;
  MusicEstimator music(&pa, first_n(8), kLambda, opt);

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto r = random_covariance(pa.size(), 1000 * seed);
    const auto got = music.spectrum_from_covariance(r);

    // Naive reference: replicate the smoothing front end, then sum
    // over the noise eigenvectors per swept bin.
    linalg::CMatrix rs = spatial_smooth(r, opt.smoothing_groups);
    if (opt.forward_backward) rs = forward_backward(rs);
    const auto eig = linalg::eig_hermitian(rs);
    const std::size_t d = music.estimate_num_signals(eig.eigenvalues);
    const std::size_t ms = rs.rows();
    const auto sub = first_n(ms);

    AoaSpectrum want(opt.bins);
    const std::size_t half = opt.bins / 2;
    for (std::size_t i = 0; i <= half; ++i) {
      const double theta = kTwoPi * double(i) / double(opt.bins);
      const auto a = pa.steering_subset(theta, kLambda, sub).normalized();
      const double p = 1.0 / std::max(naive_denominator(a, eig, d), 1e-12);
      want[i] = p;
      want[(opt.bins - i) % opt.bins] = p;
    }
    EXPECT_LT(max_deviation(got, want), 1e-9)
        << "seed " << seed << " groups " << c.smoothing_groups << " fb "
        << c.forward_backward << " d " << c.fixed_d;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LinearProjectorSweep,
    ::testing::Values(LinearCase{2, false, 0}, LinearCase{4, false, 0},
                      LinearCase{2, true, 0}, LinearCase{4, true, 0},
                      LinearCase{2, false, 1}, LinearCase{2, false, 2},
                      LinearCase{4, false, 3}, LinearCase{4, true, 2}),
    // Named from the fields: gtest would otherwise print the struct's
    // raw bytes, uninitialised padding included, into the test name.
    [](const ::testing::TestParamInfo<LinearCase>& info) {
      const LinearCase& c = info.param;
      return "g" + std::to_string(c.smoothing_groups) + "_fb" +
             std::to_string(int(c.forward_backward)) + "_d" +
             std::to_string(c.fixed_d);
    });

TEST(GeneralProjectorTest, MatchesNaiveNoiseSum) {
  const double radius = kLambda / 2.0 / (2.0 * std::sin(kPi / 8.0));
  const PlacedArray pa(ArrayGeometry::circular(8, radius), {0, 0}, 0.0);
  for (std::size_t fixed_d : {std::size_t(0), std::size_t(1), std::size_t(3)}) {
    GeneralMusicOptions opt;
    opt.fixed_num_signals = fixed_d;
    GeneralMusic music(&pa, first_n(8), kLambda, opt);

    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const auto r = random_covariance(pa.size(), 77 * seed);
      const auto got = music.spectrum_from_covariance(r);

      const auto eig = linalg::eig_hermitian(r);
      std::size_t d = fixed_d;
      if (d == 0) {
        for (double v : eig.eigenvalues)
          if (v >= opt.eig_threshold * eig.eigenvalues.back()) ++d;
      }
      d = std::min(std::max<std::size_t>(d, 1), pa.size() - 1);

      AoaSpectrum want(opt.bins);
      for (std::size_t i = 0; i < opt.bins; ++i) {
        const double theta = kTwoPi * double(i) / double(opt.bins);
        const auto a =
            pa.steering_subset(theta, kLambda, first_n(8)).normalized();
        want[i] = 1.0 / std::max(naive_denominator(a, eig, d), 1e-12);
      }
      EXPECT_LT(max_deviation(got, want), 1e-9)
          << "seed " << seed << " d " << fixed_d;
    }
  }
}

// The precomputed-table Bartlett overload must agree exactly with the
// rebuild-every-call entry point.
TEST(BartlettTableTest, TableOverloadMatches) {
  const double radius = kLambda / 2.0 / (2.0 * std::sin(kPi / 8.0));
  const PlacedArray pa(ArrayGeometry::circular(8, radius), {0, 0}, 0.0);
  const auto table = bartlett_steering_table(pa, first_n(8), kLambda, 360);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto r = random_covariance(pa.size(), 31 * seed);
    const auto direct = bartlett_spectrum(pa, first_n(8), kLambda, r, 360);
    const auto cached = bartlett_spectrum(table, r);
    ASSERT_EQ(direct.bins(), cached.bins());
    for (std::size_t i = 0; i < direct.bins(); ++i)
      EXPECT_DOUBLE_EQ(direct[i], cached[i]);
  }
}

}  // namespace
}  // namespace arraytrack::aoa
