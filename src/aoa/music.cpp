#include "aoa/music.h"

#include <cmath>
#include <stdexcept>

#include "aoa/covariance.h"
#include "linalg/kernels.h"
#include "linalg/subspace.h"

namespace arraytrack::aoa {
namespace {

// Conjugated, normalized steering vectors stored split-complex
// (antenna-major planes), plus each row's exact squared norm. The
// projector-form sweep evaluates a^H e as (conj-row) . e, so storing
// conj(a) makes the inner loop a plain multiply-accumulate; the SoA
// layout lets kernels::projector_power run it as contiguous FMA
// streams over adjacent bins.
struct SteeringTable {
  linalg::SplitPlanes conj_planes;
  std::vector<double> norm2;
};

SteeringTable build_table(const array::PlacedArray& array,
                          const std::vector<std::size_t>& elements,
                          double lambda_m, std::size_t rows,
                          std::size_t total_bins) {
  SteeringTable t;
  t.conj_planes.resize(rows, elements.size());
  t.norm2.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const double theta = kTwoPi * double(i) / double(total_bins);
    const auto a = array.steering_subset(theta, lambda_m, elements).normalized();
    double n2 = 0.0;
    for (std::size_t m = 0; m < a.size(); ++m) {
      t.conj_planes.set(m, i, std::conj(a[m]));
      n2 += std::norm(a[m]);
    }
    t.norm2.push_back(n2);
  }
  return t;
}

// Signal-subspace power of every swept bin against the d dominant
// eigenvectors, via the dispatched SIMD kernel:
//   signal[i] = sum_{s} |e_s^H a_i|^2,
// so the MUSIC denominator is |a_i|^2 - signal[i] — d dot products per
// bin instead of the naive m - d over the noise subspace (d << m - d
// in practice).
std::vector<double> projector_signal_power(const linalg::SplitPlanes& table,
                                           const linalg::CMatrix& eigenvectors,
                                           std::size_t num_signals) {
  const std::size_t m = table.m;
  // Pack the signal eigenvectors (largest-eigenvalue columns) into
  // vector-major split-complex arrays for the kernel broadcast loop.
  std::vector<double> ev_re(num_signals * m), ev_im(num_signals * m);
  for (std::size_t s = 0; s < num_signals; ++s) {
    const std::size_t col = m - 1 - s;
    for (std::size_t k = 0; k < m; ++k) {
      const cplx e = eigenvectors(k, col);
      ev_re[s * m + k] = e.real();
      ev_im[s * m + k] = e.imag();
    }
  }
  std::vector<double> signal(table.rows);
  linalg::kernels::projector_power(table, ev_re.data(), ev_im.data(),
                                   num_signals, signal.data());
  return signal;
}

}  // namespace

MusicEstimator::MusicEstimator(const array::PlacedArray* array,
                               std::vector<std::size_t> linear_elements,
                               double lambda_m, MusicOptions opt)
    : array_(array),
      elements_(std::move(linear_elements)),
      lambda_(lambda_m),
      opt_(opt) {
  if (elements_.size() < 2)
    throw std::invalid_argument("MusicEstimator: need at least two elements");
  if (opt_.smoothing_groups == 0 || opt_.smoothing_groups >= elements_.size())
    throw std::invalid_argument("MusicEstimator: invalid smoothing_groups");

  const std::size_t ms = subarray_size();
  const std::vector<std::size_t> sub(elements_.begin(),
                                     elements_.begin() + std::ptrdiff_t(ms));
  auto table = build_table(*array_, sub, lambda_, opt_.bins / 2 + 1, opt_.bins);
  steering_conj_ = std::move(table.conj_planes);
  steering_norm2_ = std::move(table.norm2);
}

std::size_t MusicEstimator::estimate_num_signals(
    const std::vector<double>& eig) const {
  return linalg::signal_count(eig, opt_.eig_threshold, opt_.fixed_num_signals);
}

AoaSpectrum MusicEstimator::spectrum(const linalg::CMatrix& snapshots) const {
  if (snapshots.rows() != elements_.size())
    throw std::invalid_argument("MusicEstimator: snapshot row mismatch");
  return spectrum_from_covariance(sample_covariance(snapshots));
}

AoaSpectrum MusicEstimator::spectrum_from_covariance(
    const linalg::CMatrix& r, linalg::SubspaceTracker* tracker) const {
  if (r.rows() != elements_.size() || r.cols() != elements_.size())
    throw std::invalid_argument("MusicEstimator: covariance size mismatch");

  linalg::CMatrix rs = spatial_smooth(r, opt_.smoothing_groups);
  if (opt_.forward_backward) rs = forward_backward(rs);

  std::vector<double> signal;
  if (tracker != nullptr) {
    // The tracker's basis already sits in the vector-major split layout
    // the kernel wants; its leading num_signals planes span the signal
    // subspace (exactly on seed/reseed updates, Ritz-tracked otherwise,
    // and the projector sweep only depends on the span). On the exact
    // path the basis is the same eigenvector bits the branch below
    // would produce, so spectra match byte-for-byte.
    const linalg::SubspaceBasis& basis = tracker->update(rs);
    signal.resize(steering_conj_.rows);
    linalg::kernels::projector_power(steering_conj_, basis.re.data(),
                                     basis.im.data(), basis.num_signals,
                                     signal.data());
  } else {
    const auto eig = linalg::eig_hermitian(rs);
    const std::size_t d = estimate_num_signals(eig.eigenvalues);
    signal = projector_signal_power(steering_conj_, eig.eigenvectors, d);
  }

  AoaSpectrum spec(opt_.bins);
  const std::size_t half = opt_.bins / 2;
  for (std::size_t i = 0; i <= half; ++i) {
    const double denom = steering_norm2_[i] - signal[i];
    const double p = 1.0 / std::max(denom, 1e-12);
    spec[i] = p;
    // Linear-array mirror: bearing -theta is indistinguishable.
    spec[(opt_.bins - i) % opt_.bins] = p;
  }
  return spec;
}

GeneralMusic::GeneralMusic(const array::PlacedArray* array,
                           std::vector<std::size_t> elements, double lambda_m,
                           GeneralMusicOptions opt)
    : array_(array),
      elements_(std::move(elements)),
      lambda_(lambda_m),
      opt_(opt) {
  if (elements_.size() < 2)
    throw std::invalid_argument("GeneralMusic: need at least two elements");
  auto table = build_table(*array_, elements_, lambda_, opt_.bins, opt_.bins);
  steering_conj_ = std::move(table.conj_planes);
  steering_norm2_ = std::move(table.norm2);
}

AoaSpectrum GeneralMusic::spectrum(const linalg::CMatrix& snapshots) const {
  if (snapshots.rows() != elements_.size())
    throw std::invalid_argument("GeneralMusic: snapshot row mismatch");
  return spectrum_from_covariance(sample_covariance(snapshots));
}

AoaSpectrum GeneralMusic::spectrum_from_covariance(
    const linalg::CMatrix& r) const {
  if (r.rows() != elements_.size())
    throw std::invalid_argument("GeneralMusic: covariance size mismatch");
  const auto eig = linalg::eig_hermitian(r);
  const std::size_t d = linalg::signal_count(eig.eigenvalues, opt_.eig_threshold,
                                             opt_.fixed_num_signals);
  const auto signal = projector_signal_power(steering_conj_, eig.eigenvectors, d);
  AoaSpectrum spec(opt_.bins);
  for (std::size_t i = 0; i < opt_.bins; ++i) {
    const double denom = steering_norm2_[i] - signal[i];
    spec[i] = 1.0 / std::max(denom, 1e-12);
  }
  return spec;
}

linalg::CMatrix bartlett_steering_table(
    const array::PlacedArray& array, const std::vector<std::size_t>& elements,
    double lambda_m, std::size_t bins) {
  linalg::CMatrix rows(bins, elements.size());
  for (std::size_t i = 0; i < bins; ++i) {
    const double theta = kTwoPi * double(i) / double(bins);
    const auto a = array.steering_subset(theta, lambda_m, elements).normalized();
    for (std::size_t m = 0; m < a.size(); ++m) rows(i, m) = a[m];
  }
  return rows;
}

linalg::SplitPlanes bartlett_split_table(
    const array::PlacedArray& array, const std::vector<std::size_t>& elements,
    double lambda_m, std::size_t bins) {
  linalg::SplitPlanes planes(bins, elements.size());
  for (std::size_t i = 0; i < bins; ++i) {
    const double theta = kTwoPi * double(i) / double(bins);
    const auto a = array.steering_subset(theta, lambda_m, elements).normalized();
    for (std::size_t m = 0; m < a.size(); ++m) planes.set(m, i, a[m]);
  }
  return planes;
}

AoaSpectrum bartlett_spectrum(const linalg::SplitPlanes& steering,
                              const linalg::CMatrix& r) {
  if (r.rows() != steering.m)
    throw std::invalid_argument("bartlett_spectrum: covariance size mismatch");
  AoaSpectrum spec(steering.rows);
  linalg::kernels::bartlett_power(steering, r.data(), &spec[0]);
  return spec;
}

AoaSpectrum bartlett_spectrum(const linalg::CMatrix& steering_rows,
                              const linalg::CMatrix& r) {
  if (r.rows() != steering_rows.cols())
    throw std::invalid_argument("bartlett_spectrum: covariance size mismatch");
  // Re-lay the rows split-complex; the copy is O(bins * m) against the
  // O(bins * m^2) sweep it feeds.
  linalg::SplitPlanes planes(steering_rows.rows(), steering_rows.cols());
  for (std::size_t i = 0; i < steering_rows.rows(); ++i)
    for (std::size_t m = 0; m < steering_rows.cols(); ++m)
      planes.set(m, i, steering_rows(i, m));
  return bartlett_spectrum(planes, r);
}

AoaSpectrum bartlett_spectrum(const array::PlacedArray& array,
                              const std::vector<std::size_t>& elements,
                              double lambda_m, const linalg::CMatrix& r,
                              std::size_t bins) {
  if (r.rows() != elements.size())
    throw std::invalid_argument("bartlett_spectrum: covariance size mismatch");
  return bartlett_spectrum(bartlett_split_table(array, elements, lambda_m, bins),
                           r);
}

}  // namespace arraytrack::aoa
