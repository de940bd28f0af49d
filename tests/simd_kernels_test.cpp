// The SIMD kernel layer must be a pure performance refactor: every
// dispatch level (scalar, SSE2, AVX2+FMA) computes the same numbers to
// 1e-9 relative, a fixed level is bitwise deterministic under any
// caller chunking, and the dispatch override machinery (environment
// variables, force(), ForcedLevel) behaves as documented. Sizes are
// deliberately awkward — odd antenna counts, bin counts that are not a
// multiple of any vector width — so remainder lanes are exercised.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <random>
#include <vector>

#include "core/arraytrack.h"
#include "core/simd.h"
#include "linalg/kernels.h"
#include "testbed/office.h"

namespace arraytrack {
namespace {

using core::simd::ForcedLevel;
using core::simd::Level;
using linalg::SplitPlanes;

// Levels this machine can actually run (always includes kScalar).
std::vector<Level> runnable_levels() {
  std::vector<Level> out{Level::kScalar};
  for (Level l : {Level::kSse2, Level::kAvx2})
    if (core::simd::clamp_to_hardware(l) == l) out.push_back(l);
  return out;
}

void fill_planes(SplitPlanes& p, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (std::size_t k = 0; k < p.m; ++k)
    for (std::size_t i = 0; i < p.rows; ++i)
      p.set(k, i, cplx{u(rng), u(rng)});
}

void expect_close(const std::vector<double>& got,
                  const std::vector<double>& want, double tol,
                  const char* what, Level lvl) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double scale =
        std::max({std::abs(got[i]), std::abs(want[i]), 1e-12});
    EXPECT_LE(std::abs(got[i] - want[i]) / scale, tol)
        << what << " at level " << core::simd::name(lvl) << " index " << i
        << ": got " << got[i] << " want " << want[i];
  }
}

// --- cross-level equivalence ------------------------------------------

TEST(SimdKernelsTest, ProjectorMatchesScalarAtEveryLevel) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (std::size_t m : {std::size_t(3), std::size_t(5), std::size_t(7)}) {
    for (std::size_t rows :
         {std::size_t(6), std::size_t(357), std::size_t(361),
          std::size_t(720)}) {
      SplitPlanes t(rows, m);
      fill_planes(t, rng);
      const std::size_t nvec = 1 + (m + rows) % 3;
      std::vector<double> ev_re(nvec * m), ev_im(nvec * m);
      for (auto& v : ev_re) v = u(rng);
      for (auto& v : ev_im) v = u(rng);

      std::vector<double> want(rows);
      {
        ForcedLevel g(Level::kScalar);
        linalg::kernels::projector_power(t, ev_re.data(), ev_im.data(), nvec,
                                         want.data());
      }
      for (Level lvl : runnable_levels()) {
        ForcedLevel g(lvl);
        std::vector<double> got(rows, -1.0);
        linalg::kernels::projector_power(t, ev_re.data(), ev_im.data(), nvec,
                                         got.data());
        expect_close(got, want, 1e-9, "projector", lvl);
      }
    }
  }
}

TEST(SimdKernelsTest, BartlettMatchesScalarAtEveryLevel) {
  std::mt19937_64 rng(12);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (std::size_t m : {std::size_t(3), std::size_t(5), std::size_t(7)}) {
    SplitPlanes t(357, m);
    fill_planes(t, rng);
    std::vector<cplx> r(m * m);
    for (std::size_t i = 0; i < m; ++i) {
      r[i * m + i] = cplx{2.0 + u(rng), 0.0};
      for (std::size_t j = i + 1; j < m; ++j) {
        r[i * m + j] = cplx{u(rng), u(rng)};
        r[j * m + i] = std::conj(r[i * m + j]);
      }
    }
    std::vector<double> want(t.rows);
    {
      ForcedLevel g(Level::kScalar);
      linalg::kernels::bartlett_power(t, r.data(), want.data());
    }
    for (Level lvl : runnable_levels()) {
      ForcedLevel g(lvl);
      std::vector<double> got(t.rows, -1.0);
      linalg::kernels::bartlett_power(t, r.data(), got.data());
      expect_close(got, want, 1e-9, "bartlett", lvl);
    }
  }
}

TEST(SimdKernelsTest, CovarianceMatchesScalarAtEveryLevel) {
  std::mt19937_64 rng(13);
  for (std::size_t m :
       {std::size_t(3), std::size_t(5), std::size_t(7), std::size_t(16)}) {
    for (std::size_t n :
         {std::size_t(3), std::size_t(7), std::size_t(10), std::size_t(33)}) {
      SplitPlanes x(n, m);
      fill_planes(x, rng);
      std::vector<cplx> want(m * m);
      {
        ForcedLevel g(Level::kScalar);
        linalg::kernels::covariance(x, want.data());
      }
      for (Level lvl : runnable_levels()) {
        ForcedLevel g(lvl);
        std::vector<cplx> got(m * m, cplx{-1.0, -1.0});
        linalg::kernels::covariance(x, got.data());
        for (std::size_t t = 0; t < m * m; ++t) {
          const double scale = std::max(std::abs(want[t]), 1e-12);
          EXPECT_LE(std::abs(got[t] - want[t]) / scale, 1e-9)
              << "covariance m=" << m << " n=" << n << " at level "
              << core::simd::name(lvl) << " flat index " << t;
        }
        // The diagonal must be exactly real at every level (Hermitian
        // eigensolvers downstream rely on it).
        for (std::size_t i = 0; i < m; ++i)
          EXPECT_EQ(got[i * m + i].imag(), 0.0);
      }
    }
  }
}

TEST(SimdKernelsTest, ForwardBackwardMatchesScalarAtEveryLevel) {
  std::mt19937_64 rng(14);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (std::size_t m :
       {std::size_t(3), std::size_t(4), std::size_t(7), std::size_t(8)}) {
    std::vector<cplx> r(m * m);
    for (auto& v : r) v = cplx{u(rng), u(rng)};
    std::vector<cplx> want(m * m);
    {
      ForcedLevel g(Level::kScalar);
      linalg::kernels::forward_backward(r.data(), m, want.data());
    }
    for (Level lvl : runnable_levels()) {
      ForcedLevel g(lvl);
      std::vector<cplx> got(m * m, cplx{-1.0, -1.0});
      linalg::kernels::forward_backward(r.data(), m, got.data());
      // Pure additions with a 0.5 scale: every level is exact.
      for (std::size_t t = 0; t < m * m; ++t)
        EXPECT_EQ(got[t], want[t])
            << "forward_backward m=" << m << " at level "
            << core::simd::name(lvl) << " flat index " << t;
    }
  }
}

TEST(SimdKernelsTest, GatherLerpProductMatchesScalarAtEveryLevel) {
  std::mt19937_64 rng(15);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  constexpr std::size_t kBins = 720;
  constexpr std::size_t kCount = 1003;  // odd: forces remainder lanes
  std::vector<double> power(kBins);
  // Half the power values sit below the floor so clamping is active.
  for (auto& v : power) v = 0.1 * u(rng);
  std::vector<std::int32_t> bin0(kCount), bin1(kCount);
  std::vector<double> frac(kCount);
  std::uniform_int_distribution<std::int32_t> bins(0, kBins - 1);
  for (std::size_t c = 0; c < kCount; ++c) {
    bin0[c] = bins(rng);
    bin1[c] = (bin0[c] + 1) % std::int32_t(kBins);
    frac[c] = u(rng);
  }
  const double floor = 0.05;

  std::vector<double> want(kCount, 1.0);
  {
    ForcedLevel g(Level::kScalar);
    linalg::kernels::gather_lerp_product(power.data(), bin0.data(),
                                         bin1.data(), frac.data(), kCount,
                                         floor, want.data());
  }
  for (Level lvl : runnable_levels()) {
    ForcedLevel g(lvl);
    std::vector<double> got(kCount, 1.0);
    linalg::kernels::gather_lerp_product(power.data(), bin0.data(),
                                         bin1.data(), frac.data(), kCount,
                                         floor, got.data());
    expect_close(got, want, 1e-9, "gather_lerp_product", lvl);
  }
}

// --- chunk invariance --------------------------------------------------

// A fixed level must produce bitwise-identical cells no matter how the
// caller splits the range — this is what makes the pooled heatmap
// deterministic at any thread count. Split at awkward offsets so chunk
// boundaries land mid-vector.
TEST(SimdKernelsTest, GatherLerpProductIsChunkInvariant) {
  std::mt19937_64 rng(16);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  constexpr std::size_t kBins = 720;
  constexpr std::size_t kCount = 997;
  std::vector<double> power(kBins);
  for (auto& v : power) v = 0.05 + u(rng);
  std::vector<std::int32_t> bin0(kCount), bin1(kCount);
  std::vector<double> frac(kCount);
  std::uniform_int_distribution<std::int32_t> bins(0, kBins - 1);
  for (std::size_t c = 0; c < kCount; ++c) {
    bin0[c] = bins(rng);
    bin1[c] = (bin0[c] + 1) % std::int32_t(kBins);
    frac[c] = u(rng);
  }

  for (Level lvl : runnable_levels()) {
    ForcedLevel g(lvl);
    std::vector<double> whole(kCount, 1.0);
    linalg::kernels::gather_lerp_product(power.data(), bin0.data(),
                                         bin1.data(), frac.data(), kCount,
                                         0.0, whole.data());
    for (std::size_t split : {std::size_t(1), std::size_t(37),
                              std::size_t(501), std::size_t(995)}) {
      std::vector<double> parts(kCount, 1.0);
      linalg::kernels::gather_lerp_product(power.data(), bin0.data(),
                                           bin1.data(), frac.data(), split,
                                           0.0, parts.data());
      linalg::kernels::gather_lerp_product(
          power.data(), bin0.data() + split, bin1.data() + split,
          frac.data() + split, kCount - split, 0.0, parts.data() + split);
      for (std::size_t c = 0; c < kCount; ++c)
        ASSERT_EQ(whole[c], parts[c])
            << "level " << core::simd::name(lvl) << " split " << split
            << " cell " << c;
    }
  }
}

// The bearing-blur FIR never fuses, so every level must reproduce the
// portable loop bit for bit. Output counts that are not multiples of 4
// or 16: the vector levels block across outputs, and 247 = 15*16 + 4 + 3
// (AVX2) = 30*8 + 3*2 + 1 (SSE2) leaves every block size and the
// scalar tail non-empty.
TEST(SimdKernelsTest, FirBitwiseMatchesPortableLoop) {
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const std::size_t ntaps = 33;
  std::vector<double> taps(ntaps);
  for (auto& v : taps) v = u(rng);
  for (Level lvl : runnable_levels()) {
    ForcedLevel g(lvl);
    for (std::size_t nout : {7u, 240u, 241u, 247u, 720u}) {
      std::vector<double> in(nout + ntaps - 1);
      for (auto& v : in) v = u(rng);
      std::vector<double> out(nout);
      linalg::kernels::fir(in.data(), nout, taps.data(), ntaps, out.data());
      for (std::size_t i = 0; i < nout; ++i) {
        // Plain multiply-add, strictly tap-ascending.
        double acc = 0.0;
        for (std::size_t j = 0; j < ntaps; ++j) acc += taps[j] * in[i + j];
        ASSERT_EQ(0, std::memcmp(&acc, &out[i], 8))
            << "level " << core::simd::name(lvl) << " nout " << nout
            << " sample " << i;
      }
    }
  }
}

// --- dispatch machinery -------------------------------------------------

TEST(SimdDispatchTest, ForcedLevelRestoresPreviousLevel) {
  const Level before = core::simd::active();
  {
    ForcedLevel g(Level::kScalar);
    EXPECT_EQ(core::simd::active(), Level::kScalar);
    {
      ForcedLevel inner(Level::kAvx2);  // clamped to hardware
      EXPECT_EQ(core::simd::active(),
                core::simd::clamp_to_hardware(Level::kAvx2));
    }
    EXPECT_EQ(core::simd::active(), Level::kScalar);
  }
  EXPECT_EQ(core::simd::active(), before);
}

TEST(SimdDispatchTest, EnvironmentForceScalarHonoredOnReset) {
  const Level before = core::simd::active();
  ASSERT_EQ(unsetenv("ARRAYTRACK_SIMD"), 0);
  ASSERT_EQ(setenv("ARRAYTRACK_FORCE_SCALAR", "1", 1), 0);
  core::simd::reset();
  EXPECT_EQ(core::simd::active(), Level::kScalar);
  // "0" and empty mean "not forced".
  ASSERT_EQ(setenv("ARRAYTRACK_FORCE_SCALAR", "0", 1), 0);
  core::simd::reset();
  EXPECT_EQ(core::simd::active(), core::simd::detect());
  EXPECT_NE(core::simd::detect(), Level::kScalar);  // on any SSE2+ machine
  ASSERT_EQ(unsetenv("ARRAYTRACK_FORCE_SCALAR"), 0);
  core::simd::reset();
  EXPECT_EQ(core::simd::active(), core::simd::hardware_level());
  core::simd::force(before);
}

TEST(SimdDispatchTest, EnvironmentLevelRequestIsClamped) {
  const Level before = core::simd::active();
  // ARRAYTRACK_FORCE_SCALAR outranks ARRAYTRACK_SIMD in detect();
  // clear it so this test behaves the same under tools/check.sh's
  // forced-scalar pass (each gtest case runs in its own process).
  ASSERT_EQ(unsetenv("ARRAYTRACK_FORCE_SCALAR"), 0);
  ASSERT_EQ(setenv("ARRAYTRACK_SIMD", "sse2", 1), 0);
  core::simd::reset();
  EXPECT_EQ(core::simd::active(),
            core::simd::clamp_to_hardware(Level::kSse2));
  ASSERT_EQ(setenv("ARRAYTRACK_SIMD", "bogus", 1), 0);
  core::simd::reset();
  EXPECT_EQ(core::simd::active(), core::simd::hardware_level());
  ASSERT_EQ(unsetenv("ARRAYTRACK_SIMD"), 0);
  core::simd::reset();
  core::simd::force(before);
}

// --- end-to-end dispatch override ---------------------------------------

// Forcing each level and re-running the full 6-AP office localization
// must land on (numerically) the same fix: the kernels only reorder
// floating-point sums, they never change what is computed.
TEST(SimdDispatchTest, LocateEndToEndAgreesAcrossLevels) {
  const auto tb = testbed::OfficeTestbed::standard();
  core::SystemConfig cfg;
  core::System sys(&tb.plan, cfg);
  for (const auto& site : tb.ap_sites)
    sys.add_ap(site.position, site.orientation_rad);
  for (std::size_t f = 0; f < 3; ++f)
    sys.transmit(0, tb.clients[12], double(f) * 0.03);

  std::optional<core::LocationEstimate> reference;
  {
    ForcedLevel g(Level::kScalar);
    reference = sys.locate(0, 0.1);
  }
  ASSERT_TRUE(reference.has_value());

  for (Level lvl : runnable_levels()) {
    ForcedLevel g(lvl);
    const auto fix = sys.locate(0, 0.1);
    ASSERT_TRUE(fix.has_value()) << core::simd::name(lvl);
    // The grid argmax is identical in practice; hill climbing from the
    // same cell converges to the same point. Allow a micrometre of
    // numeric slack and ~1e-6 relative on the likelihood product.
    EXPECT_NEAR(fix->position.x, reference->position.x, 1e-6)
        << core::simd::name(lvl);
    EXPECT_NEAR(fix->position.y, reference->position.y, 1e-6)
        << core::simd::name(lvl);
    const double rel =
        std::abs(fix->likelihood - reference->likelihood) /
        std::max(std::abs(reference->likelihood), 1e-300);
    EXPECT_LE(rel, 1e-6) << core::simd::name(lvl);
  }
}

}  // namespace
}  // namespace arraytrack
