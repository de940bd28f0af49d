// Tests for the AoA spectrum container and its operations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "aoa/spectrum.h"
#include "core/simd.h"

namespace arraytrack::aoa {
namespace {

AoaSpectrum gaussian_peak_spectrum(std::size_t bins, double center_rad,
                                   double width_rad, double height = 1.0) {
  AoaSpectrum s(bins);
  for (std::size_t i = 0; i < bins; ++i) {
    const double d = bearing_distance(s.bin_bearing(i), center_rad);
    s[i] += height * std::exp(-0.5 * (d / width_rad) * (d / width_rad));
  }
  return s;
}

TEST(BearingDistanceTest, WrapsCorrectly) {
  EXPECT_NEAR(bearing_distance(0.1, kTwoPi - 0.1), 0.2, 1e-12);
  EXPECT_NEAR(bearing_distance(0.0, kPi), kPi, 1e-12);
  EXPECT_NEAR(bearing_distance(deg2rad(350), deg2rad(10)), deg2rad(20),
              1e-12);
}

TEST(SpectrumTest, ValueAtInterpolates) {
  AoaSpectrum s(4);  // bins at 0, 90, 180, 270 deg
  s[0] = 0.0;
  s[1] = 1.0;
  EXPECT_NEAR(s.value_at(deg2rad(45.0)), 0.5, 1e-12);
  EXPECT_NEAR(s.value_at(deg2rad(90.0)), 1.0, 1e-12);
  // Wraparound between bin 3 and bin 0.
  s[3] = 0.4;
  EXPECT_NEAR(s.value_at(deg2rad(315.0)), 0.2, 1e-12);
}

TEST(SpectrumTest, NormalizeSetsMaxToOne) {
  auto s = gaussian_peak_spectrum(360, deg2rad(100), deg2rad(5), 7.0);
  s.normalize();
  EXPECT_NEAR(s.max_value(), 1.0, 1e-12);
  AoaSpectrum z(8);
  z.normalize();  // all-zero: no-op, no NaN
  EXPECT_DOUBLE_EQ(z.max_value(), 0.0);
}

TEST(SpectrumTest, FindPeaksSortedByPower) {
  auto s = gaussian_peak_spectrum(720, deg2rad(60), deg2rad(4), 1.0);
  s += gaussian_peak_spectrum(720, deg2rad(200), deg2rad(4), 0.6);
  s += gaussian_peak_spectrum(720, deg2rad(300), deg2rad(4), 0.3);
  const auto peaks = s.find_peaks(0.1);
  ASSERT_EQ(peaks.size(), 3u);
  EXPECT_NEAR(rad2deg(peaks[0].bearing_rad), 60.0, 1.0);
  EXPECT_NEAR(rad2deg(peaks[1].bearing_rad), 200.0, 1.0);
  EXPECT_NEAR(rad2deg(peaks[2].bearing_rad), 300.0, 1.0);
  EXPECT_GT(peaks[0].power, peaks[1].power);
}

TEST(SpectrumTest, FindPeaksRespectsFloor) {
  auto s = gaussian_peak_spectrum(720, deg2rad(60), deg2rad(4), 1.0);
  s += gaussian_peak_spectrum(720, deg2rad(200), deg2rad(4), 0.05);
  EXPECT_EQ(s.find_peaks(0.1).size(), 1u);
  EXPECT_EQ(s.find_peaks(0.01).size(), 2u);
}

TEST(SpectrumTest, FindPeaksHandlesWraparound) {
  const auto s = gaussian_peak_spectrum(720, deg2rad(0.5), deg2rad(4), 1.0);
  const auto peaks = s.find_peaks(0.1);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_LT(bearing_distance(peaks[0].bearing_rad, deg2rad(0.5)),
            deg2rad(1.0));
}

TEST(SpectrumTest, RemoveLobeErasesOnlyThatLobe) {
  auto s = gaussian_peak_spectrum(720, deg2rad(60), deg2rad(4), 1.0);
  s += gaussian_peak_spectrum(720, deg2rad(200), deg2rad(4), 0.6);
  // Remove by a bearing slightly off the peak center (walks uphill).
  s.remove_lobe(deg2rad(57.0));
  const auto peaks = s.find_peaks(0.1);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_NEAR(rad2deg(peaks[0].bearing_rad), 200.0, 1.0);
  // The other lobe is untouched.
  EXPECT_NEAR(s.value_at(deg2rad(200.0)), 0.6, 1e-6);
}

TEST(SpectrumTest, GeometryWeightingSuppressesEndfire) {
  AoaSpectrum s(720);
  for (std::size_t i = 0; i < s.bins(); ++i) s[i] = 1.0;
  s.apply_geometry_weighting();
  // Endfire (0 and 180 deg) crushed, broadside (90/270) untouched.
  EXPECT_LT(s.value_at(deg2rad(2.0)), 0.1);
  EXPECT_LT(s.value_at(deg2rad(178.0)), 0.1);
  EXPECT_LT(s.value_at(deg2rad(358.0)), 0.1);
  EXPECT_NEAR(s.value_at(deg2rad(90.0)), 1.0, 1e-9);
  EXPECT_NEAR(s.value_at(deg2rad(270.0)), 1.0, 1e-9);
  // Inside the paper's 15..165 degree window the weight is exactly 1.
  EXPECT_NEAR(s.value_at(deg2rad(20.0)), 1.0, 1e-9);
  EXPECT_NEAR(s.value_at(deg2rad(340.0)), 1.0, 1e-9);
  // At 10 degrees off axis the weight is sin(10 deg).
  EXPECT_NEAR(s.value_at(deg2rad(10.0)), std::sin(deg2rad(10.0)), 1e-6);
}

TEST(SpectrumTest, SidePowerAndScaleSide) {
  auto s = gaussian_peak_spectrum(720, deg2rad(90), deg2rad(5), 1.0);
  s += gaussian_peak_spectrum(720, deg2rad(270), deg2rad(5), 0.5);
  EXPECT_GT(s.side_power(true), s.side_power(false));
  s.scale_side(/*front=*/false, 0.0);
  EXPECT_NEAR(s.value_at(deg2rad(270.0)), 0.0, 1e-9);
  EXPECT_NEAR(s.value_at(deg2rad(90.0)), 1.0, 1e-6);
}

TEST(SpectrumTest, DominantBearing) {
  auto s = gaussian_peak_spectrum(720, deg2rad(123), deg2rad(3), 2.0);
  EXPECT_NEAR(rad2deg(s.dominant_bearing()), 123.0, 0.6);
}

TEST(SpectrumTest, AccumulateMismatchThrows) {
  AoaSpectrum a(10), b(12);
  EXPECT_THROW(a += b, std::invalid_argument);
}

// The circular blur as it was written before it went through
// linalg::kernels::fir: a modulo per tap, taps ascending.
std::vector<double> modulo_blur(const std::vector<double>& power,
                                double sigma_rad) {
  const std::size_t n = power.size();
  const std::vector<double> kernel = gaussian_taps(sigma_rad, n);
  if (kernel.empty()) return power;
  const std::size_t half = kernel.size() / 2;
  std::vector<double> out(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < kernel.size(); ++j)
      out[i] += kernel[j] * power[(i + n + j - half) % n];
  return out;
}

// find_peaks as it was written before its ends wrapped explicitly.
std::vector<Peak> modulo_find_peaks(const AoaSpectrum& s,
                                    double min_fraction) {
  std::vector<Peak> peaks;
  const std::size_t n = s.bins();
  if (n < 3) return peaks;
  const double floor_level = min_fraction * s.max_value();
  for (std::size_t i = 0; i < n; ++i) {
    const double prev = s[(i + n - 1) % n];
    const double next = s[(i + 1) % n];
    if (s[i] > prev && s[i] >= next && s[i] >= floor_level && s[i] > 0.0)
      peaks.push_back({s.bin_bearing(i), s[i], i});
  }
  std::sort(peaks.begin(), peaks.end(),
            [](const Peak& a, const Peak& b) { return a.power > b.power; });
  return peaks;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, 8) == 0; }

TEST(SpectrumTest, ConvolveGaussianBitwiseMatchesModuloLoop) {
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (core::simd::Level lvl :
       {core::simd::Level::kScalar, core::simd::Level::kSse2,
        core::simd::Level::kAvx2}) {
    if (core::simd::clamp_to_hardware(lvl) != lvl) continue;
    core::simd::ForcedLevel forced(lvl);
    for (std::size_t bins : {3u, 7u, 360u, 720u, 721u}) {
      // 2 degrees is the pipeline's blur; 4 rad is wide enough that the
      // window is clamped to half == bins / 2 at every size.
      for (double sigma : {deg2rad(2.0), deg2rad(20.0), 4.0}) {
        const std::size_t half = gaussian_taps(sigma, bins).size() / 2;
        if (sigma == 4.0) {
          ASSERT_EQ(half, bins / 2);
        }
        std::vector<double> power(bins);
        for (auto& v : power) v = u(rng);
        AoaSpectrum s(power);
        s.convolve_gaussian(sigma);
        const auto want = modulo_blur(power, sigma);
        for (std::size_t i = 0; i < bins; ++i)
          ASSERT_TRUE(same_bits(s[i], want[i]))
              << core::simd::name(lvl) << " bins " << bins << " sigma "
              << sigma << " bin " << i;
      }
    }
  }
}

TEST(SpectrumTest, FindPeaksMatchesModuloScanAtTheWrap) {
  const auto expect_same = [](const AoaSpectrum& s, double frac) {
    const auto got = s.find_peaks(frac);
    const auto want = modulo_find_peaks(s, frac);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].bin, want[k].bin);
      EXPECT_TRUE(same_bits(got[k].power, want[k].power));
      EXPECT_TRUE(same_bits(got[k].bearing_rad, want[k].bearing_rad));
    }
  };
  // A peak at bin 0, one at bin n-1, and a plateau straddling the wrap
  // (the plateau's first bin, n-1, is the peak).
  AoaSpectrum first(std::vector<double>{0.9, 0.5, 0.2, 0.7, 0.3, 0.4});
  AoaSpectrum last(std::vector<double>{0.4, 0.5, 0.2, 0.7, 0.3, 0.9});
  AoaSpectrum plateau(std::vector<double>{0.8, 0.5, 0.2, 0.6, 0.3, 0.8});
  expect_same(first, 0.0);
  EXPECT_EQ(first.find_peaks(0.0).front().bin, 0u);
  expect_same(last, 0.0);
  EXPECT_EQ(last.find_peaks(0.0).front().bin, 5u);
  expect_same(plateau, 0.0);
  EXPECT_EQ(plateau.find_peaks(0.0).front().bin, 5u);
  // Seeded spectra over a few levels, so ties and plateaus are common,
  // down to the smallest size that has peaks.
  std::mt19937_64 rng(29);
  std::uniform_int_distribution<int> level(0, 3);
  for (std::size_t bins : {3u, 4u, 5u, 17u, 360u}) {
    for (int trial = 0; trial < 50; ++trial) {
      AoaSpectrum s(bins);
      for (std::size_t i = 0; i < bins; ++i) s[i] = 0.25 * level(rng);
      expect_same(s, 0.0);
      expect_same(s, 0.5);
    }
  }
}

TEST(SpectrumTest, AsciiRenderNonEmpty) {
  const auto s = gaussian_peak_spectrum(720, deg2rad(90), deg2rad(5), 1.0);
  const auto art = s.to_ascii(40, 6);
  EXPECT_NE(art.find('#'), std::string::npos);
}

}  // namespace
}  // namespace arraytrack::aoa
