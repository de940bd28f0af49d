// MUSIC pseudospectrum estimation (paper 2.3.1 - 2.3.2).
#pragma once

#include <cstddef>
#include <vector>

#include "aoa/spectrum.h"
#include "array/placed_array.h"
#include "linalg/eigen.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "linalg/subspace.h"

namespace arraytrack::aoa {

struct MusicOptions {
  /// Spatial smoothing group count NG; 2 is the paper's compromise
  /// between direct-path retention and decorrelation (2.3.2, Fig. 7).
  std::size_t smoothing_groups = 2;
  /// An eigenvalue counts as "signal" when above this fraction of the
  /// largest eigenvalue (the D-selection rule of 2.3.1). Too high and a
  /// weak direct path lands in the "noise" subspace, which actively
  /// nulls its bearing in the pseudospectrum.
  double eig_threshold = 0.06;
  /// Spectrum resolution over the full circle (720 = 0.5 degrees).
  std::size_t bins = 720;
  /// Forward-backward covariance averaging (ablation; off in the paper).
  bool forward_backward = false;
  /// Fixed signal count override; 0 = automatic via eig_threshold.
  std::size_t fixed_num_signals = 0;
};

/// Computes mirrored 360-degree MUSIC spectra for a uniform linear
/// subset of a placed array.
class MusicEstimator {
 public:
  /// `linear_elements` are geometry indices forming a uniform linear
  /// array, in row order; snapshot-matrix rows must match this order.
  MusicEstimator(const array::PlacedArray* array,
                 std::vector<std::size_t> linear_elements, double lambda_m,
                 MusicOptions opt = {});

  const MusicOptions& options() const { return opt_; }
  MusicOptions& options() { return opt_; }

  /// Spectrum from an M x N snapshot matrix.
  AoaSpectrum spectrum(const linalg::CMatrix& snapshots) const;

  /// Spectrum from a precomputed M x M covariance. With a non-null
  /// `tracker` the projector sweep consumes the tracker's basis for the
  /// smoothed covariance instead of running a fresh eigendecomposition
  /// — exact on seed/reseed updates, Rayleigh-Ritz-tracked otherwise.
  /// The tracker must be fed this estimator's covariance stream in
  /// frame order and belongs to exactly one stream (one client x AP).
  AoaSpectrum spectrum_from_covariance(
      const linalg::CMatrix& r, linalg::SubspaceTracker* tracker = nullptr) const;

  /// Steering-table footprint in bytes.
  std::size_t steering_table_bytes() const {
    return (steering_conj_.re.size() + steering_conj_.im.size()) *
               sizeof(double) +
           steering_norm2_.size() * sizeof(double);
  }

  /// Signal count chosen for a sorted-ascending eigenvalue list
  /// (delegates to linalg::signal_count with this estimator's options).
  std::size_t estimate_num_signals(const std::vector<double>& eig) const;

  /// Tracker options mirroring this estimator's D-selection thresholds,
  /// so a tracked basis picks the same signal count the exact path
  /// would.
  linalg::SubspaceOptions subspace_options() const {
    linalg::SubspaceOptions s;
    s.eig_threshold = opt_.eig_threshold;
    s.fixed_num_signals = opt_.fixed_num_signals;
    return s;
  }

  std::size_t array_size() const { return elements_.size(); }
  std::size_t subarray_size() const {
    return elements_.size() - opt_.smoothing_groups + 1;
  }

 private:
  const array::PlacedArray* array_;
  std::vector<std::size_t> elements_;
  double lambda_;
  MusicOptions opt_;
  /// Precomputed steering table: plane k holds the *conjugated*
  /// normalized subarray steering component for antenna k across all
  /// swept bins over [0, pi], split-complex (separate re/im planes) so
  /// the projector sweep runs as contiguous FMA streams over adjacent
  /// bins (kernels::projector_power). The values depend only on
  /// (geometry, lambda, bins).
  linalg::SplitPlanes steering_conj_;
  /// |a_i|^2 per table row (== 1 up to rounding); using the exact
  /// value keeps the projector identity tight.
  std::vector<double> steering_norm2_;
};

/// MUSIC for an arbitrary (non-linear) element set — circular arrays,
/// the section-6 discussion alternative. No spatial smoothing is
/// possible (the geometry is not shift-invariant), so coherent
/// multipath hurts more than on the smoothed linear row; the upside is
/// an unambiguous 360-degree spectrum with no mirror.
struct GeneralMusicOptions {
  double eig_threshold = 0.06;
  std::size_t bins = 720;
  std::size_t fixed_num_signals = 0;
};

class GeneralMusic {
 public:
  GeneralMusic(const array::PlacedArray* array,
               std::vector<std::size_t> elements, double lambda_m,
               GeneralMusicOptions opt = {});

  AoaSpectrum spectrum(const linalg::CMatrix& snapshots) const;
  AoaSpectrum spectrum_from_covariance(const linalg::CMatrix& r) const;

  std::size_t steering_table_bytes() const {
    return (steering_conj_.re.size() + steering_conj_.im.size()) *
               sizeof(double) +
           steering_norm2_.size() * sizeof(double);
  }

 private:
  const array::PlacedArray* array_;
  std::vector<std::size_t> elements_;
  double lambda_;
  GeneralMusicOptions opt_;
  /// Conjugated normalized full-circle steering table (split-complex,
  /// bins rows x m planes), cached at construction — it depends only
  /// on (elements, lambda, bins), all fixed here, and rebuilding it
  /// per spectrum call used to dominate the sweep.
  linalg::SplitPlanes steering_conj_;
  std::vector<double> steering_norm2_;
};

/// Bartlett (conventional beamformer) spectrum over the full circle:
/// P(theta) = a(theta)^H R a(theta). Far coarser than MUSIC (beamwidth
/// limited) but robust; provided for estimator comparisons.
AoaSpectrum bartlett_spectrum(const array::PlacedArray& array,
                              const std::vector<std::size_t>& elements,
                              double lambda_m, const linalg::CMatrix& r,
                              std::size_t bins = 720);

/// Normalized full-circle steering table (bins x m, row i = a(theta_i))
/// for the precomputed-table bartlett_spectrum overload below. Build it
/// once per (array, elements, lambda, bins) when sweeping many
/// covariances through the beamformer.
linalg::CMatrix bartlett_steering_table(const array::PlacedArray& array,
                                        const std::vector<std::size_t>& elements,
                                        double lambda_m,
                                        std::size_t bins = 720);

/// Split-complex variant of bartlett_steering_table: plane k holds
/// antenna k across all bins, feeding the vectorized sweep directly
/// with no per-call relayout.
linalg::SplitPlanes bartlett_split_table(
    const array::PlacedArray& array, const std::vector<std::size_t>& elements,
    double lambda_m, std::size_t bins = 720);

/// Bartlett spectrum from a precomputed steering table; one row of
/// `steering_rows` per output bin.
AoaSpectrum bartlett_spectrum(const linalg::CMatrix& steering_rows,
                              const linalg::CMatrix& r);

/// Bartlett spectrum from a precomputed split-complex steering table.
AoaSpectrum bartlett_spectrum(const linalg::SplitPlanes& steering,
                              const linalg::CMatrix& r);

}  // namespace arraytrack::aoa
