// Angle-of-arrival spectrum: estimated incoming power versus bearing
// (paper Fig. 3). Bearings are in the array-local frame, binned over
// the full circle [0, 2*pi); a linear array produces a mirrored
// spectrum (P(theta) == P(-theta)) until symmetry removal picks a side.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "linalg/types.h"

namespace arraytrack::aoa {

struct Peak {
  double bearing_rad = 0.0;
  double power = 0.0;
  std::size_t bin = 0;
};

class AoaSpectrum {
 public:
  AoaSpectrum() = default;
  explicit AoaSpectrum(std::size_t bins) : power_(bins, 0.0) {}
  explicit AoaSpectrum(std::vector<double> power) : power_(std::move(power)) {}

  std::size_t bins() const { return power_.size(); }
  bool empty() const { return power_.empty(); }

  double& operator[](std::size_t i) { return power_[i]; }
  double operator[](std::size_t i) const { return power_[i]; }
  const std::vector<double>& values() const { return power_; }

  double bin_width_rad() const { return kTwoPi / double(power_.size()); }
  double bin_bearing(std::size_t i) const { return double(i) * bin_width_rad(); }
  std::size_t bearing_bin(double rad) const;

  /// Linearly interpolated power at an arbitrary local bearing.
  double value_at(double rad) const;

  double max_value() const;
  /// Bearing of the single strongest bin.
  double dominant_bearing() const;

  /// Scales so the maximum is 1 (no-op on an all-zero spectrum).
  void normalize();

  /// Local maxima (circular neighborhood) at least `min_fraction` of
  /// the global maximum, strongest first.
  std::vector<Peak> find_peaks(double min_fraction = 0.08) const;

  /// Zeroes the lobe containing `bearing_rad`: walks downhill from the
  /// enclosing peak to the surrounding local minima and clears the
  /// range. Used by multipath suppression and collision SIC.
  void remove_lobe(double bearing_rad) { scale_lobe(bearing_rad, 0.0); }

  /// Like remove_lobe but multiplies the lobe by `factor` instead of
  /// erasing it (symmetry removal keeps a residual so that a rare
  /// wrong-side call is recoverable by multi-AP fusion).
  void scale_lobe(double bearing_rad, double factor);

  /// Applies the paper's linear-array confidence window W (eq. 7):
  /// weight 1 away from endfire, sin(theta) within 15 degrees of the
  /// array axis. With `soft_floor` == 0 this is the paper's plain
  /// multiplication. A positive soft_floor blends the down-weighted
  /// bins toward soft_floor * max instead of zero — "this bearing range
  /// is unreliable" rather than "the signal is not here" — which keeps
  /// an endfire true bearing recoverable by multi-AP fusion:
  ///   P'(theta) = W * P + (1 - W) * soft_floor * max(P).
  void apply_geometry_weighting(double soft_floor = 0.0);

  /// Scales all bins on one half-plane. `front` selects the half with
  /// sin(theta) > 0. Used by symmetry removal.
  void scale_side(bool front, double factor);

  /// Total power on a half-plane (front = sin(theta) > 0).
  double side_power(bool front) const;

  /// Circular convolution with a Gaussian kernel of the given angular
  /// standard deviation. Models residual bearing uncertainty (array
  /// imperfections, calibration residue, near-field curvature) when a
  /// sharp pseudospectrum is used as a fusion likelihood.
  void convolve_gaussian(double sigma_rad);

  /// Circular convolution with odd-length `taps` centred on each bin
  /// (gaussian_taps()'s layout, so taps.size() / 2 <= bins()); empty
  /// taps leave the spectrum as is.
  /// convolve_gaussian(s) is convolve(gaussian_taps(s, bins())).
  void convolve(const std::vector<double>& taps);

  /// Elementwise sum/used by averaging; sizes must match.
  AoaSpectrum& operator+=(const AoaSpectrum& other);
  AoaSpectrum& operator*=(double s);

  /// Compact ASCII rendering for logs and benches (power vs bearing).
  std::string to_ascii(std::size_t width = 72, std::size_t height = 8) const;

 private:
  std::vector<double> power_;
};

/// Smallest absolute angular difference between two bearings, radians.
double bearing_distance(double a_rad, double b_rad);

/// The normalized Gaussian tap weights AoaSpectrum::convolve_gaussian
/// applies for `sigma_rad` over a `bins`-bin spectrum (2*half+1 taps,
/// half = min(bins/2, ceil(4*sigma/bin_width))). Exposed so a
/// processor can build its blur taps once and pass them to convolve().
/// Empty when the blur would be a no-op (bins < 3 or sigma_rad <= 0).
std::vector<double> gaussian_taps(double sigma_rad, std::size_t bins);

}  // namespace arraytrack::aoa
