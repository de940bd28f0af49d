// Tests for the batched multi-client localization path.
//
// The load-bearing contract is bitwise determinism: batching changes
// memory traffic, never results. Each layer is pinned independently —
// the SoA kernels against their single-row forms at every SIMD level,
// Localizer::locate_batch against sequential locate() calls (including
// ragged batch sizes), and the LocationService fix set across batch
// widths and worker counts under the virtual clock. The service suite
// also runs under the ThreadSanitizer tier of tools/check.sh, which
// makes the multi-worker batch drain a race test.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <random>
#include <vector>

#include "core/simd.h"
#include "core/synthesis.h"
#include "linalg/kernels.h"
#include "service/service.h"

namespace arraytrack {
namespace {

using core::simd::ForcedLevel;
using core::simd::Level;

std::vector<Level> testable_levels() {
  std::vector<Level> out;
  for (Level lvl : {Level::kScalar, Level::kSse2, Level::kAvx2})
    if (core::simd::clamp_to_hardware(lvl) == lvl) out.push_back(lvl);
  return out;
}

// ---------------------------------------------------------------------
// Kernel layer
// ---------------------------------------------------------------------

struct KernelFixture {
  std::size_t bins = 100;
  std::size_t count = 517;  // not a multiple of any vector width
  std::vector<std::int32_t> bin0, bin1;
  std::vector<double> frac;

  explicit KernelFixture(unsigned seed = 11) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    std::uniform_int_distribution<std::int32_t> b(0, std::int32_t(bins) - 1);
    bin0.resize(count);
    bin1.resize(count);
    frac.resize(count);
    for (std::size_t c = 0; c < count; ++c) {
      bin0[c] = b(rng);
      bin1[c] = (bin0[c] + 1) % std::int32_t(bins);
      frac[c] = u(rng);
    }
  }

  /// Transposed table for `nrows` batch rows, values in (floor/2, 1.5).
  std::vector<double> make_table(std::size_t nrows, unsigned seed) const {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> u(0.025, 1.5);
    std::vector<double> t(bins * nrows);
    for (auto& v : t) v = u(rng);
    return t;
  }
};

TEST(BatchKernelsTest, GatherLerpProductBatchBitwiseMatchesSingle) {
  const KernelFixture f;
  const double floor = 0.05;
  for (Level lvl : testable_levels()) {
    ForcedLevel g(lvl);
    for (std::size_t nrows : {1u, 2u, 7u, 8u, 9u}) {
      const auto table = f.make_table(nrows, 23 + unsigned(nrows));
      std::vector<double> cells(f.count * nrows, 1.0);
      linalg::kernels::gather_lerp_product_batch(
          table.data(), f.bin0.data(), f.bin1.data(), f.frac.data(), f.count,
          nrows, floor, cells.data());

      std::vector<double> row_table(f.bins), row_cells(f.count);
      for (std::size_t r = 0; r < nrows; ++r) {
        for (std::size_t b = 0; b < f.bins; ++b)
          row_table[b] = table[b * nrows + r];
        std::fill(row_cells.begin(), row_cells.end(), 1.0);
        linalg::kernels::gather_lerp_product(row_table.data(), f.bin0.data(),
                                             f.bin1.data(), f.frac.data(),
                                             f.count, floor, row_cells.data());
        for (std::size_t c = 0; c < f.count; ++c)
          ASSERT_EQ(0, std::memcmp(&row_cells[c], &cells[c * nrows + r], 8))
              << "level " << core::simd::name(lvl) << " nrows " << nrows
              << " row " << r << " cell " << c;
      }
    }
  }
}

TEST(BatchKernelsTest, GatherLerpProductBatchChunkInvariant) {
  // Splitting the cell range across two calls must reproduce the
  // one-call result exactly (the tiled sweep relies on this).
  const KernelFixture f;
  const double floor = 0.05;
  const std::size_t nrows = 5;
  const auto table = f.make_table(nrows, 41);
  for (Level lvl : testable_levels()) {
    ForcedLevel g(lvl);
    std::vector<double> whole(f.count * nrows, 1.0);
    linalg::kernels::gather_lerp_product_batch(
        table.data(), f.bin0.data(), f.bin1.data(), f.frac.data(), f.count,
        nrows, floor, whole.data());
    for (std::size_t split : {1u, 4u, 255u, 516u}) {
      std::vector<double> parts(f.count * nrows, 1.0);
      linalg::kernels::gather_lerp_product_batch(
          table.data(), f.bin0.data(), f.bin1.data(), f.frac.data(), split,
          nrows, floor, parts.data());
      linalg::kernels::gather_lerp_product_batch(
          table.data(), f.bin0.data() + split, f.bin1.data() + split,
          f.frac.data() + split, f.count - split, nrows, floor,
          parts.data() + split * nrows);
      ASSERT_EQ(0, std::memcmp(whole.data(), parts.data(),
                               whole.size() * sizeof(double)))
          << "level " << core::simd::name(lvl) << " split " << split;
    }
  }
}

TEST(BatchKernelsTest, FirBatchBitwiseMatchesPortableLoop) {
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const std::size_t ntaps = 33;
  std::vector<double> taps(ntaps);
  for (auto& v : taps) v = u(rng);
  for (Level lvl : testable_levels()) {
    ForcedLevel g(lvl);
    // Output counts that are not multiples of 4 or 16: with one row the
    // vector levels block across outputs, and 247 = 15*16 + 4 + 3 (AVX2)
    // = 30*8 + 3*2 + 1 (SSE2) leaves every block size and the scalar
    // tail non-empty.
    for (std::size_t nout : {7u, 240u, 241u, 247u, 720u}) {
      for (std::size_t nrows : {1u, 3u, 8u, 9u}) {
        std::vector<double> in((nout + ntaps - 1) * nrows);
        for (auto& v : in) v = u(rng);
        std::vector<double> out(nout * nrows);
        linalg::kernels::fir_batch(in.data(), nrows, nout, taps.data(), ntaps,
                                   out.data());
        for (std::size_t r = 0; r < nrows; ++r)
          for (std::size_t i = 0; i < nout; ++i) {
            // The portable blur loop: plain multiply-add, strictly
            // tap-ascending.
            double acc = 0.0;
            for (std::size_t j = 0; j < ntaps; ++j)
              acc += taps[j] * in[(i + j) * nrows + r];
            ASSERT_EQ(0, std::memcmp(&acc, &out[i * nrows + r], 8))
                << "level " << core::simd::name(lvl) << " nout " << nout
                << " nrows " << nrows << " row " << r << " sample " << i;
          }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Localizer layer
// ---------------------------------------------------------------------

aoa::AoaSpectrum spectrum_peaking_at(double bearing_rad,
                                     std::size_t bins = 360) {
  aoa::AoaSpectrum s(bins);
  const double width = deg2rad(5.0);
  for (std::size_t i = 0; i < bins; ++i) {
    const double d = aoa::bearing_distance(s.bin_bearing(i), bearing_rad);
    s[i] = std::exp(-0.5 * (d / width) * (d / width));
  }
  return s;
}

core::ApSpectrum ap_looking_at(geom::Vec2 pos, double orient,
                               geom::Vec2 target) {
  core::ApSpectrum ap;
  ap.ap_position = pos;
  ap.orientation_rad = orient;
  ap.spectrum = spectrum_peaking_at(wrap_2pi((target - pos).angle() - orient));
  return ap;
}

/// `n` localization requests over shared AP poses (one LUT group),
/// with the last row, when present, on a different pose set (a second
/// group) — so batches exercise both the shared and the split path.
std::vector<std::vector<core::ApSpectrum>> make_batch(std::size_t n) {
  std::vector<std::vector<core::ApSpectrum>> batch;
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> u(2.0, 8.0);
  for (std::size_t j = 0; j < n; ++j) {
    const geom::Vec2 target{u(rng), u(rng)};
    if (j + 1 == n && n > 1) {
      batch.push_back({ap_looking_at({0.5, 0.5}, deg2rad(10.0), target),
                       ap_looking_at({9.5, 5.0}, deg2rad(170.0), target)});
    } else {
      batch.push_back({ap_looking_at({0, 0}, 0.0, target),
                       ap_looking_at({10, 0}, deg2rad(90.0), target),
                       ap_looking_at({5, 9.5}, deg2rad(-90.0), target)});
    }
  }
  return batch;
}

TEST(BatchLocalizerTest, LocateBatchBitwiseMatchesSequentialLocate) {
  core::LocalizerOptions opt;
  opt.threads = 1;
  const core::Localizer loc({{0, 0}, {10, 10}}, opt);
  for (Level lvl : testable_levels()) {
    ForcedLevel g(lvl);
    for (std::size_t n : {1u, 7u, 8u, 9u}) {
      const auto batch = make_batch(n);
      const auto got = loc.locate_batch(batch);
      ASSERT_EQ(got.size(), n);
      for (std::size_t j = 0; j < n; ++j) {
        const auto want = loc.locate(batch[j]);
        ASSERT_EQ(want.has_value(), got[j].has_value());
        ASSERT_TRUE(want.has_value());
        // Bitwise, not near: batching must not change results.
        EXPECT_EQ(want->position.x, got[j]->position.x)
            << "level " << core::simd::name(lvl) << " n " << n << " row " << j;
        EXPECT_EQ(want->position.y, got[j]->position.y);
        EXPECT_EQ(want->likelihood, got[j]->likelihood);
      }
    }
  }
}

TEST(BatchLocalizerTest, LocateBatchKeepsEmptyRowContract) {
  core::LocalizerOptions opt;
  opt.threads = 1;
  const core::Localizer loc({{0, 0}, {10, 10}}, opt);
  auto batch = make_batch(3);
  batch.emplace(batch.begin() + 1);  // empty row mid-batch
  batch.push_back({});
  const auto got = loc.locate_batch(batch);
  ASSERT_EQ(got.size(), 5u);
  EXPECT_FALSE(got[1].has_value());
  EXPECT_FALSE(got[4].has_value());
  for (std::size_t j : {0u, 2u, 3u}) ASSERT_TRUE(got[j].has_value());
}

TEST(BatchLocalizerTest, HeatmapBatchMatchesHeatmap) {
  core::LocalizerOptions opt;
  opt.threads = 1;
  const core::Localizer loc({{0, 0}, {10, 10}}, opt);
  const auto batch = make_batch(4);
  std::vector<const std::vector<core::ApSpectrum>*> rows;
  for (const auto& r : batch) rows.push_back(&r);
  const auto maps = loc.heatmap_batch(rows);
  ASSERT_EQ(maps.size(), batch.size());
  for (std::size_t j = 0; j < batch.size(); ++j) {
    const auto want = loc.heatmap(batch[j]);
    ASSERT_EQ(want.cells.size(), maps[j].cells.size());
    EXPECT_EQ(0, std::memcmp(want.cells.data(), maps[j].cells.data(),
                             want.cells.size() * sizeof(double)));
  }
}

// ---------------------------------------------------------------------
// Service layer
// ---------------------------------------------------------------------

geom::Floorplan make_plan() {
  geom::Floorplan plan({{0, 0}, {18, 10}});
  plan.add_wall({0, 0}, {18, 0}, geom::Material::kBrick);
  plan.add_wall({18, 0}, {18, 10}, geom::Material::kBrick);
  plan.add_wall({18, 10}, {0, 10}, geom::Material::kBrick);
  plan.add_wall({0, 10}, {0, 0}, geom::Material::kBrick);
  return plan;
}

std::unique_ptr<core::System> make_system(const geom::Floorplan* plan) {
  core::SystemConfig cfg;
  cfg.server.localizer.grid_step_m = 0.25;  // keep tests quick
  auto sys = std::make_unique<core::System>(plan, cfg);
  sys->add_ap({1, 1}, deg2rad(45.0));
  sys->add_ap({17, 1}, deg2rad(135.0));
  sys->add_ap({9, 9.5}, deg2rad(-90.0));
  return sys;
}

std::vector<core::FrameEvent> interleaved_schedule(int clients, int frames,
                                                   double gap_s) {
  static const std::vector<geom::Vec2> sites = {
      {12.0, 6.0}, {5.0, 3.0}, {9.0, 7.0}, {14.5, 2.5}};
  std::vector<core::FrameEvent> out;
  for (int i = 0; i < frames; ++i)
    for (int c = 0; c < clients; ++c)
      out.push_back({0.1 + gap_s * i + 0.011 * c, c, sites[std::size_t(c)]});
  return out;
}

TEST(BatchServiceTest, FixesByteIdenticalAcrossBatchWidthsAndWorkers) {
  // Two contracts, asserted separately. (1) The drain width never
  // changes anything: at a fixed worker count, every fix field —
  // including virtual-clock timing — is byte-identical for batch_max
  // 1/4/16. (2) The admitted job set and its results are also
  // worker-count invariant (schedule is non-saturating, like
  // service_test's, so coalescing does not depend on capacity);
  // latencies legitimately differ across worker counts, so those are
  // excluded from the cross-worker comparison.
  const auto plan = make_plan();
  // The 0.011 s client stagger against a 0.02 s virtual cost means a
  // single worker drains multi-job batches each round, while the
  // 0.2 s round gap empties every queue before the next round.
  const auto schedule = interleaved_schedule(4, 6, 0.2);

  auto run = [&](std::size_t workers, std::size_t batch_max) {
    auto sys = make_system(&plan);
    service::ServiceOptions opt;
    opt.workers = workers;
    opt.batch_max = batch_max;
    opt.virtual_clock = true;
    opt.virtual_cost_s = 0.02;
    opt.latency_slo_s = 0.5;
    service::LocationService svc(sys.get(), opt);
    return svc.run(schedule);
  };

  std::vector<service::ServiceReport> per_worker_base;
  for (std::size_t workers : {1u, 2u, 8u}) {
    const auto base = run(workers, 1);
    ASSERT_GT(base.fixes.size(), 0u);
    for (std::size_t batch_max : {4u, 16u}) {
      const auto other = run(workers, batch_max);
      ASSERT_EQ(base.fixes.size(), other.fixes.size())
          << "workers " << workers << " batch_max " << batch_max;
      EXPECT_EQ(base.jobs_coalesced, other.jobs_coalesced);
      EXPECT_EQ(base.shed_deadline, other.shed_deadline);
      for (std::size_t i = 0; i < base.fixes.size(); ++i) {
        const auto& a = base.fixes[i];
        const auto& b = other.fixes[i];
        EXPECT_EQ(a.client_id, b.client_id);
        EXPECT_EQ(a.seq, b.seq);
        EXPECT_EQ(a.frame_time_s, b.frame_time_s);
        EXPECT_EQ(a.position.x, b.position.x)
            << "workers " << workers << " batch_max " << batch_max << " fix "
            << i;
        EXPECT_EQ(a.position.y, b.position.y);
        EXPECT_EQ(a.smoothed.x, b.smoothed.x);
        EXPECT_EQ(a.smoothed.y, b.smoothed.y);
        EXPECT_EQ(a.likelihood, b.likelihood);
        EXPECT_EQ(a.latency_s, b.latency_s);
      }
    }
    per_worker_base.push_back(base);
  }

  const auto& w1 = per_worker_base.front();
  for (std::size_t r = 1; r < per_worker_base.size(); ++r) {
    const auto& other = per_worker_base[r];
    ASSERT_EQ(w1.fixes.size(), other.fixes.size()) << "worker run " << r;
    EXPECT_EQ(w1.jobs_coalesced, other.jobs_coalesced);
    for (std::size_t i = 0; i < w1.fixes.size(); ++i) {
      const auto& a = w1.fixes[i];
      const auto& b = other.fixes[i];
      EXPECT_EQ(a.client_id, b.client_id);
      EXPECT_EQ(a.seq, b.seq);
      EXPECT_EQ(a.frame_time_s, b.frame_time_s);
      EXPECT_EQ(a.position.x, b.position.x) << "worker run " << r;
      EXPECT_EQ(a.position.y, b.position.y);
      EXPECT_EQ(a.smoothed.x, b.smoothed.x);
      EXPECT_EQ(a.smoothed.y, b.smoothed.y);
      EXPECT_EQ(a.likelihood, b.likelihood);
    }
  }
}

TEST(BatchServiceTest, BatchOccupancyRecordedInStats) {
  const auto plan = make_plan();
  auto sys = make_system(&plan);
  service::ServiceOptions opt;
  opt.workers = 1;
  opt.batch_max = 4;
  opt.virtual_clock = true;
  opt.virtual_cost_s = 0.02;
  opt.latency_slo_s = 0.5;
  service::LocationService svc(sys.get(), opt);
  const auto rep = svc.run(interleaved_schedule(4, 4, 0.05));
  ASSERT_GT(rep.fixes.size(), 0u);
  EXPECT_GT(svc.stats().batch_occupancy.count(), 0u);
  EXPECT_GE(svc.stats().batch_occupancy.max_seen(), 1.0);
  EXPECT_NE(rep.stats_json.find("\"batch_occupancy\""), std::string::npos);
  EXPECT_NE(rep.stats_json.find("\"batch_max\": 4"), std::string::npos);
}

}  // namespace
}  // namespace arraytrack
