// Tests for the multipath suppression algorithm (paper 2.4, Fig. 8).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "core/suppression.h"

namespace arraytrack::core {
namespace {

aoa::AoaSpectrum peak_at(std::size_t bins, double center_deg, double width_deg,
                         double height) {
  aoa::AoaSpectrum s(bins);
  const double c = deg2rad(center_deg);
  const double w = deg2rad(width_deg);
  for (std::size_t i = 0; i < bins; ++i) {
    const double d = aoa::bearing_distance(s.bin_bearing(i), c);
    s[i] = height * std::exp(-0.5 * (d / w) * (d / w));
  }
  return s;
}

aoa::AoaSpectrum combine(std::initializer_list<aoa::AoaSpectrum> parts) {
  aoa::AoaSpectrum out = *parts.begin();
  bool first = true;
  for (const auto& p : parts) {
    if (first) {
      first = false;
      continue;
    }
    out += p;
  }
  return out;
}

TEST(SuppressionTest, EmptyGroupThrows) {
  EXPECT_THROW(suppress_multipath({}), std::invalid_argument);
}

TEST(SuppressionTest, SingletonPassesThrough) {
  const auto s = combine({peak_at(720, 60, 4, 1.0), peak_at(720, 200, 4, 0.7)});
  const auto out = suppress_multipath({s});
  // Step 1 of Fig. 8: no grouping possible -> output unchanged.
  for (std::size_t i = 0; i < s.bins(); ++i) EXPECT_EQ(out[i], s[i]);
}

TEST(SuppressionTest, RemovesUnstableReflection) {
  // Direct path at 60 in both frames; reflection jumps 200 -> 230.
  const auto f1 = combine({peak_at(720, 60, 4, 1.0), peak_at(720, 200, 4, 0.8)});
  const auto f2 = combine({peak_at(720, 60.8, 4, 1.0), peak_at(720, 230, 4, 0.8)});
  const auto out = suppress_multipath({f1, f2});
  const auto peaks = out.find_peaks(0.1);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_NEAR(rad2deg(peaks[0].bearing_rad), 60.0, 1.5);
}

TEST(SuppressionTest, KeepsStablePeaksEvenIfReflection) {
  // "For those scenarios in which both the direct-path and
  // reflection-path peaks are unchanged, we keep all of them."
  const auto f1 = combine({peak_at(720, 60, 4, 1.0), peak_at(720, 200, 4, 0.8)});
  const auto f2 = combine({peak_at(720, 61, 4, 1.0), peak_at(720, 202, 4, 0.8)});
  const auto out = suppress_multipath({f1, f2});
  EXPECT_EQ(out.find_peaks(0.1).size(), 2u);
}

TEST(SuppressionTest, ThreeFrameGroupMoreSelective) {
  // Reflection matches frame 2 by luck but not frame 3 -> removed.
  const auto f1 = combine({peak_at(720, 60, 4, 1.0), peak_at(720, 200, 4, 0.8)});
  const auto f2 = combine({peak_at(720, 60, 4, 1.0), peak_at(720, 203, 4, 0.8)});
  const auto f3 = combine({peak_at(720, 60, 4, 1.0), peak_at(720, 260, 4, 0.8)});
  const auto two = suppress_multipath({f1, f2});
  EXPECT_EQ(two.find_peaks(0.1).size(), 2u);
  const auto three = suppress_multipath({f1, f2, f3});
  ASSERT_EQ(three.find_peaks(0.1).size(), 1u);
  EXPECT_NEAR(rad2deg(three.find_peaks(0.1)[0].bearing_rad), 60.0, 1.5);
}

TEST(SuppressionTest, VanishedPeakRemoved) {
  // The reflection disappears entirely in frame 2.
  const auto f1 = combine({peak_at(720, 60, 4, 1.0), peak_at(720, 200, 4, 0.8)});
  const auto f2 = peak_at(720, 60, 4, 1.0);
  const auto out = suppress_multipath({f1, f2});
  ASSERT_EQ(out.find_peaks(0.1).size(), 1u);
}

TEST(SuppressionTest, ToleranceBoundary) {
  SuppressionOptions opt;
  opt.match_tolerance_rad = deg2rad(5.0);
  const auto f1 = combine({peak_at(720, 60, 3, 1.0), peak_at(720, 200, 3, 0.8)});
  // 4 degrees away: within tolerance, kept.
  const auto near4 = combine({peak_at(720, 60, 3, 1.0), peak_at(720, 204, 3, 0.8)});
  EXPECT_EQ(suppress_multipath({f1, near4}, opt).find_peaks(0.1).size(), 2u);
  // 8 degrees away: beyond tolerance, removed.
  const auto far8 = combine({peak_at(720, 60, 3, 1.0), peak_at(720, 208, 3, 0.8)});
  EXPECT_EQ(suppress_multipath({f1, far8}, opt).find_peaks(0.1).size(), 1u);
}

TEST(SuppressionTest, WeakPeaksBelowFloorIgnored) {
  SuppressionOptions opt;
  opt.peak_floor = 0.2;
  // A tiny wiggle at 300 in the primary is below the floor: neither
  // matched nor removed, just left as-is.
  auto f1 = combine({peak_at(720, 60, 4, 1.0), peak_at(720, 300, 4, 0.05)});
  const auto f2 = peak_at(720, 60, 4, 1.0);
  const auto out = suppress_multipath({f1, f2}, opt);
  EXPECT_GT(out.value_at(deg2rad(300)), 0.0);
}

TEST(SuppressionTest, MaxGroupLimitsComparisons) {
  SuppressionOptions opt;
  opt.max_group = 2;
  const auto f1 = combine({peak_at(720, 60, 4, 1.0), peak_at(720, 200, 4, 0.8)});
  const auto f2 = combine({peak_at(720, 60, 4, 1.0), peak_at(720, 200, 4, 0.8)});
  // Frame 3 would kill the 200-degree peak, but max_group=2 ignores it.
  const auto f3 = peak_at(720, 60, 4, 1.0);
  const auto out = suppress_multipath({f1, f2, f3}, opt);
  EXPECT_EQ(out.find_peaks(0.1).size(), 2u);
}

// The suppression as it was written before each member's peaks were
// found once per call: every candidate re-finds the peaks of every
// other spectrum.
double reference_paired_power(const std::vector<aoa::AoaSpectrum>& group,
                              std::size_t candidate, std::size_t use,
                              const SuppressionOptions& opt,
                              std::vector<bool>* paired_out = nullptr) {
  const auto peaks = group[candidate].find_peaks(opt.peak_floor);
  if (paired_out) paired_out->assign(peaks.size(), false);
  double total = 0.0;
  for (std::size_t p = 0; p < peaks.size(); ++p) {
    bool everywhere = true;
    for (std::size_t i = 0; i < use && everywhere; ++i) {
      if (i == candidate) continue;
      bool found = false;
      for (const auto& other : group[i].find_peaks(opt.peak_floor)) {
        if (aoa::bearing_distance(peaks[p].bearing_rad, other.bearing_rad) <=
            opt.match_tolerance_rad) {
          found = true;
          break;
        }
      }
      everywhere = found;
    }
    if (everywhere) {
      total += peaks[p].power;
      if (paired_out) (*paired_out)[p] = true;
    }
  }
  return total;
}

aoa::AoaSpectrum reference_suppress(const std::vector<aoa::AoaSpectrum>& group,
                                    const SuppressionOptions& opt) {
  if (group.size() < opt.min_group) return group.front();
  const std::size_t use =
      std::min(group.size(), std::max(opt.max_group, opt.min_group));
  std::size_t best = 0;
  double best_power = -1.0;
  for (std::size_t c = 0; c < use; ++c) {
    const double p = reference_paired_power(group, c, use, opt);
    if (p > best_power) {
      best_power = p;
      best = c;
    }
  }
  aoa::AoaSpectrum primary = group[best];
  const auto peaks = primary.find_peaks(opt.peak_floor);
  std::vector<bool> paired;
  reference_paired_power(group, best, use, opt, &paired);
  bool any = false;
  for (bool b : paired) any |= b;
  if (!any) return primary;
  for (std::size_t p = 0; p < peaks.size(); ++p)
    if (!paired[p]) primary.remove_lobe(peaks[p].bearing_rad);
  return primary;
}

void expect_bitwise_equal(const aoa::AoaSpectrum& got,
                          const aoa::AoaSpectrum& want) {
  ASSERT_EQ(got.bins(), want.bins());
  EXPECT_EQ(0, std::memcmp(got.values().data(), want.values().data(),
                           got.bins() * sizeof(double)));
}

// A frame of `bearings` (degrees), each jittered and given a random
// height; a peak is sometimes dropped and a spurious one sometimes added.
aoa::AoaSpectrum random_frame(std::mt19937_64& rng,
                              const std::vector<double>& bearings) {
  std::normal_distribution<double> jitter(0.0, 4.0);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  aoa::AoaSpectrum s(720);
  for (double b : bearings)
    if (u(rng) < 0.85) s += peak_at(720, b + jitter(rng), 3.0, 0.2 + u(rng));
  if (u(rng) < 0.5) s += peak_at(720, 360.0 * u(rng), 3.0, 0.2 + u(rng));
  return s;
}

TEST(SuppressionTest, BitwiseMatchesPerCandidateReference) {
  std::mt19937_64 rng(41);
  std::uniform_real_distribution<double> deg(0.0, 360.0);
  std::uniform_int_distribution<int> npaths(1, 4);
  SuppressionOptions defaults;
  SuppressionOptions pairs_only = defaults;  // max_group below a 3-group
  pairs_only.max_group = 2;
  SuppressionOptions need_four = defaults;  // min_group above the group
  need_four.min_group = 4;
  need_four.max_group = 4;
  SuppressionOptions loose = defaults;
  loose.match_tolerance_rad = deg2rad(8.0);
  loose.peak_floor = 0.2;
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<double> bearings(std::size_t(npaths(rng)));
    for (auto& b : bearings) b = deg(rng);
    for (std::size_t frames : {2u, 3u}) {
      std::vector<aoa::AoaSpectrum> group;
      for (std::size_t f = 0; f < frames; ++f)
        group.push_back(random_frame(rng, bearings));
      for (const auto* opt : {&defaults, &pairs_only, &need_four, &loose}) {
        SCOPED_TRACE(::testing::Message() << "trial " << trial << " frames "
                                          << frames);
        expect_bitwise_equal(suppress_multipath(group, *opt),
                             reference_suppress(group, *opt));
      }
    }
  }
}

TEST(SuppressionTest, NothingPairsMatchesReference) {
  // Every frame's peaks sit far from every other frame's: nothing
  // pairs, so the chosen primary passes through untouched.
  const std::vector<aoa::AoaSpectrum> group = {
      combine({peak_at(720, 30, 4, 1.0), peak_at(720, 150, 4, 0.6)}),
      combine({peak_at(720, 90, 4, 0.9), peak_at(720, 250, 4, 0.7)}),
      combine({peak_at(720, 200, 4, 0.8), peak_at(720, 320, 4, 0.5)})};
  for (std::size_t frames : {2u, 3u}) {
    const std::vector<aoa::AoaSpectrum> g(group.begin(),
                                          group.begin() + frames);
    const auto out = suppress_multipath(g, {});
    expect_bitwise_equal(out, reference_suppress(g, {}));
    expect_bitwise_equal(out, g.front());
  }
}

}  // namespace
}  // namespace arraytrack::core
