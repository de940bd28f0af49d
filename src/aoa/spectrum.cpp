#include "aoa/spectrum.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "linalg/kernels.h"

namespace arraytrack::aoa {

std::size_t AoaSpectrum::bearing_bin(double rad) const {
  const double w = wrap_2pi(rad);
  return std::size_t(w / bin_width_rad()) % power_.size();
}

double AoaSpectrum::value_at(double rad) const {
  if (power_.empty()) return 0.0;
  const double w = wrap_2pi(rad) / bin_width_rad();
  const std::size_t i0 = std::size_t(w) % power_.size();
  const std::size_t i1 = (i0 + 1) % power_.size();
  const double f = w - std::floor(w);
  return (1.0 - f) * power_[i0] + f * power_[i1];
}

double AoaSpectrum::max_value() const {
  return power_.empty() ? 0.0
                        : *std::max_element(power_.begin(), power_.end());
}

double AoaSpectrum::dominant_bearing() const {
  if (power_.empty()) return 0.0;
  const auto it = std::max_element(power_.begin(), power_.end());
  return bin_bearing(std::size_t(it - power_.begin()));
}

void AoaSpectrum::normalize() {
  const double m = max_value();
  if (m <= 0.0) return;
  for (auto& v : power_) v /= m;
}

std::vector<Peak> AoaSpectrum::find_peaks(double min_fraction) const {
  std::vector<Peak> peaks;
  const std::size_t n = power_.size();
  if (n < 3) return peaks;
  const double floor_level = min_fraction * max_value();
  const double* p = power_.data();
  // Circular neighborhood; the two ends wrap explicitly so the interior
  // scan needs no modulo. Bins are visited in ascending order.
  const auto consider = [&](std::size_t i, double prev, double next) {
    if (p[i] > prev && p[i] >= next && p[i] >= floor_level && p[i] > 0.0)
      peaks.push_back({bin_bearing(i), p[i], i});
  };
  consider(0, p[n - 1], p[1]);
  for (std::size_t i = 1; i + 1 < n; ++i) consider(i, p[i - 1], p[i + 1]);
  consider(n - 1, p[n - 2], p[0]);
  std::sort(peaks.begin(), peaks.end(),
            [](const Peak& a, const Peak& b) { return a.power > b.power; });
  return peaks;
}

void AoaSpectrum::scale_lobe(double bearing_rad, double factor) {
  const std::size_t n = power_.size();
  if (n < 3) return;
  // Climb to the local maximum of the lobe containing the bearing.
  std::size_t top = bearing_bin(bearing_rad);
  for (std::size_t guard = 0; guard < n; ++guard) {
    const std::size_t up = (top + 1) % n;
    const std::size_t down = (top + n - 1) % n;
    if (power_[up] > power_[top])
      top = up;
    else if (power_[down] > power_[top])
      top = down;
    else
      break;
  }
  // Walk to the surrounding minima and clear the lobe.
  std::size_t lo = top;
  for (std::size_t guard = 0; guard < n; ++guard) {
    const std::size_t next = (lo + n - 1) % n;
    if (power_[next] <= power_[lo] && next != top)
      lo = next;
    else
      break;
  }
  std::size_t hi = top;
  for (std::size_t guard = 0; guard < n; ++guard) {
    const std::size_t next = (hi + 1) % n;
    if (power_[next] <= power_[hi] && next != top)
      hi = next;
    else
      break;
  }
  for (std::size_t i = lo;; i = (i + 1) % n) {
    power_[i] *= factor;
    if (i == hi) break;
  }
}

void AoaSpectrum::apply_geometry_weighting(double soft_floor) {
  const double blend = soft_floor * max_value();
  for (std::size_t i = 0; i < power_.size(); ++i) {
    const double theta = bin_bearing(i);
    // Angle from the array axis (the x-axis line), folded to [0, pi].
    double from_axis = theta <= kPi ? theta : kTwoPi - theta;
    const double lo = deg2rad(15.0);
    const double hi = deg2rad(165.0);
    if (from_axis <= lo || from_axis >= hi) {
      const double w = std::abs(std::sin(from_axis));
      power_[i] = w * power_[i] + (1.0 - w) * blend;
    }
  }
}

void AoaSpectrum::scale_side(bool front, double factor) {
  for (std::size_t i = 0; i < power_.size(); ++i) {
    const double s = std::sin(bin_bearing(i));
    if ((front && s > 0.0) || (!front && s < 0.0)) power_[i] *= factor;
  }
}

double AoaSpectrum::side_power(bool front) const {
  double acc = 0.0;
  for (std::size_t i = 0; i < power_.size(); ++i) {
    const double s = std::sin(bin_bearing(i));
    if ((front && s > 0.0) || (!front && s < 0.0)) acc += power_[i];
  }
  return acc;
}

std::vector<double> gaussian_taps(double sigma_rad, std::size_t bins) {
  if (bins < 3 || sigma_rad <= 0.0) return {};
  const double bin_width = kTwoPi / double(bins);
  const double sigma_bins = sigma_rad / bin_width;
  const std::size_t half = std::min<std::size_t>(
      bins / 2, std::size_t(std::ceil(4.0 * sigma_bins)));
  std::vector<double> kernel(2 * half + 1);
  double sum = 0.0;
  for (std::size_t i = 0; i < kernel.size(); ++i) {
    const double d = double(i) - double(half);
    kernel[i] = std::exp(-0.5 * (d / sigma_bins) * (d / sigma_bins));
    sum += kernel[i];
  }
  for (auto& k : kernel) k /= sum;
  return kernel;
}

void AoaSpectrum::convolve_gaussian(double sigma_rad) {
  convolve(gaussian_taps(sigma_rad, power_.size()));
}

void AoaSpectrum::convolve(const std::vector<double>& taps) {
  if (taps.empty()) return;
  const std::size_t n = power_.size();
  const std::size_t half = taps.size() / 2;
  // Circular extension by `half` bins on each side (needs half <= n):
  // sample k holds bin (k - half) mod n, so a plain FIR over it is the
  // circular convolution. The extension is a copy, so the FIR writes
  // straight back in place.
  std::vector<double> ext;
  ext.reserve(n + 2 * half);
  ext.insert(ext.end(), power_.end() - std::ptrdiff_t(half), power_.end());
  ext.insert(ext.end(), power_.begin(), power_.end());
  ext.insert(ext.end(), power_.begin(), power_.begin() + std::ptrdiff_t(half));
  linalg::kernels::fir(ext.data(), n, taps.data(), taps.size(), power_.data());
}

AoaSpectrum& AoaSpectrum::operator+=(const AoaSpectrum& other) {
  if (bins() != other.bins())
    throw std::invalid_argument("AoaSpectrum += size mismatch");
  for (std::size_t i = 0; i < power_.size(); ++i) power_[i] += other.power_[i];
  return *this;
}

AoaSpectrum& AoaSpectrum::operator*=(double s) {
  for (auto& v : power_) v *= s;
  return *this;
}

std::string AoaSpectrum::to_ascii(std::size_t width, std::size_t height) const {
  if (power_.empty() || width == 0 || height == 0) return "";
  std::vector<double> cols(width, 0.0);
  for (std::size_t i = 0; i < power_.size(); ++i) {
    const std::size_t c = i * width / power_.size();
    cols[c] = std::max(cols[c], power_[i]);
  }
  const double top = *std::max_element(cols.begin(), cols.end());
  std::ostringstream os;
  for (std::size_t r = 0; r < height; ++r) {
    const double level = top * double(height - r) / double(height);
    for (std::size_t c = 0; c < width; ++c)
      os << (cols[c] >= level && top > 0.0 ? '#' : ' ');
    os << "\n";
  }
  os << std::string(width, '-') << "\n";
  os << "0" << std::string(width / 2 - 4, ' ') << "180"
     << std::string(width - width / 2 - 3, ' ') << "360 deg\n";
  return os.str();
}

double bearing_distance(double a_rad, double b_rad) {
  return std::abs(wrap_pi(a_rad - b_rad));
}

}  // namespace arraytrack::aoa
