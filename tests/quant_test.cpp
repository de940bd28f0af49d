// The quantized coarse-to-fine position sweep. The contracts under
// test: the coarse log table is a certified upper bound on the float
// heatmap factors it prunes against, every 8x8 block's bin arc and
// bound cover each of its cells, and the quantized sweep produces fix
// sets byte-identical to the all-float path.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <random>
#include <vector>

#include "core/arraytrack.h"
#include "core/simd.h"
#include "core/synthesis.h"
#include "linalg/kernels.h"
#include "service/service.h"
#include "testbed/office.h"

namespace arraytrack {
namespace {

using core::simd::ForcedLevel;
using core::simd::Level;
using linalg::CoarseLogTable;

std::vector<Level> runnable_levels() {
  std::vector<Level> out{Level::kScalar};
  for (Level l : {Level::kSse2, Level::kAvx2})
    if (core::simd::clamp_to_hardware(l) == l) out.push_back(l);
  return out;
}

/// locate() over each row in turn, as a drained service batch runs.
std::vector<std::optional<core::LocationEstimate>> locate_each(
    const core::Localizer& loc,
    const std::vector<std::vector<core::ApSpectrum>>& rows) {
  std::vector<std::optional<core::LocationEstimate>> out;
  for (const auto& row : rows) out.push_back(loc.locate(row));
  return out;
}

// --- the guard band is load-bearing -----------------------------------

// coarse_log_table commits to an upper bound: for every bin pair and
// every lerp fraction, the Q.6 entry must dominate 64 * log2 of the
// clamped interpolated float value. The pruner's exactness rests on
// this, so measure it directly across random spectra, including
// MUSIC-like spectra with enormous adjacent-bin ratios.
TEST(QuantGuardBandTest, PairMaxEntryDominatesEveryLerp) {
  std::mt19937_64 rng(43);
  const std::size_t bins = 360;
  const double floor = 1e-6;
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<double> p(bins);
    std::uniform_real_distribution<double> mag(-6.0, 12.0);
    for (auto& v : p) v = std::pow(10.0, mag(rng));
    // Sharpen a few random peaks to MUSIC-denominator extremes.
    std::uniform_int_distribution<std::size_t> bi(0, bins - 1);
    for (int s = 0; s < 4; ++s) p[bi(rng)] = 1e12;

    const CoarseLogTable ct = linalg::coarse_log_table(p.data(), bins, floor);
    ASSERT_EQ(ct.pairmax.size(), bins);
    const double scale = double(1 << CoarseLogTable::kFracBits);
    for (std::size_t b = 0; b < bins; ++b) {
      const double p0 = p[b], p1 = p[(b + 1) % bins];
      for (double f : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
        const double lerp = std::max((1.0 - f) * p0 + f * p1, floor);
        const double true_bits = std::log2(lerp) * scale;
        ASSERT_GE(double(ct.pairmax[b]) + 1e-9, true_bits)
            << "bin " << b << " frac " << f;
        // Tightness: the committed slack bound holds too.
        ASSERT_LE(double(ct.pairmax[b]) / scale,
                  std::log2(lerp) + ct.slack_bits + 1e-9);
      }
    }
  }
}

// --- coarse-to-fine localizer byte-identity ---------------------------

aoa::AoaSpectrum spectrum_peaking_at(double bearing_rad,
                                     double width_rad = deg2rad(4.0),
                                     std::size_t bins = 720) {
  aoa::AoaSpectrum s(bins);
  for (std::size_t i = 0; i < bins; ++i) {
    const double d = aoa::bearing_distance(s.bin_bearing(i), bearing_rad);
    s[i] = std::exp(-0.5 * (d / width_rad) * (d / width_rad));
  }
  return s;
}

core::ApSpectrum ap_looking_at(geom::Vec2 pos, double orient,
                               geom::Vec2 target) {
  core::ApSpectrum ap;
  ap.ap_position = pos;
  ap.orientation_rad = orient;
  const double world = (target - pos).angle();
  ap.spectrum = spectrum_peaking_at(wrap_2pi(world - orient));
  return ap;
}

std::vector<core::ApSpectrum> office_row(geom::Vec2 truth) {
  return {ap_looking_at({0, 0}, 0.0, truth),
          ap_looking_at({10, 0}, deg2rad(90.0), truth),
          ap_looking_at({5, 10}, deg2rad(-45.0), truth),
          // One dead AP: empty spectrum, multiplies by the floor.
          core::ApSpectrum{{0, 10}, 0.0, aoa::AoaSpectrum{}}};
}

TEST(QuantLocalizerTest, LocateByteIdenticalQuantOnOffAtEveryLevel) {
  for (Level lvl : runnable_levels()) {
    ForcedLevel g(lvl);
    for (const geom::Vec2 truth :
         {geom::Vec2{6.0, 4.0}, geom::Vec2{1.3, 8.7}, geom::Vec2{9.9, 0.2}}) {
      const auto aps = office_row(truth);
      core::LocalizerOptions on;
      on.quantized_sweep = true;
      core::LocalizerOptions off;
      off.quantized_sweep = false;
      core::Localizer loc_on({{0, 0}, {10, 10}}, on);
      core::Localizer loc_off({{0, 0}, {10, 10}}, off);
      const auto a = loc_on.locate(aps);
      const auto b = loc_off.locate(aps);
      ASSERT_TRUE(a && b);
      // Byte-identical, not merely close.
      EXPECT_EQ(a->position.x, b->position.x)
          << core::simd::name(lvl) << " truth " << truth.x << "," << truth.y;
      EXPECT_EQ(a->position.y, b->position.y);
      EXPECT_EQ(a->likelihood, b->likelihood);
      // And the coarse pass genuinely pruned most of the grid.
      EXPECT_GT(loc_on.quant_pruned(), loc_on.quant_refined());
      EXPECT_EQ(loc_off.quant_pruned(), 0u);
      // The option sets the switch; the setter flips it at runtime.
      EXPECT_TRUE(loc_on.quantized_sweep());
      EXPECT_FALSE(loc_off.quantized_sweep());
      loc_off.set_quantized_sweep(true);
      EXPECT_TRUE(loc_off.quantized_sweep());
      const auto c = loc_off.locate(aps);
      ASSERT_TRUE(c);
      EXPECT_EQ(c->position.x, a->position.x);
      EXPECT_EQ(c->position.y, a->position.y);
      EXPECT_EQ(c->likelihood, a->likelihood);
      EXPECT_GT(loc_off.quant_pruned(), 0u);
    }
  }
}

TEST(QuantLocalizerTest, LocateBatchByteIdenticalAcrossWidthsAndSwitch) {
  std::vector<std::vector<core::ApSpectrum>> batch;
  for (const geom::Vec2 truth :
       {geom::Vec2{6.0, 4.0}, geom::Vec2{1.3, 8.7}, geom::Vec2{9.9, 0.2},
        geom::Vec2{5.0, 5.0}, geom::Vec2{2.2, 2.2}})
    batch.push_back(office_row(truth));
  batch.push_back({});  // empty row keeps its nullopt contract

  core::LocalizerOptions off;
  off.quantized_sweep = false;
  core::Localizer loc_off({{0, 0}, {10, 10}}, off);

  for (Level lvl : runnable_levels()) {
    ForcedLevel g(lvl);
    const auto want_lvl = locate_each(loc_off, batch);
    core::LocalizerOptions on;
    on.quantized_sweep = true;
    core::Localizer loc_on({{0, 0}, {10, 10}}, on);
    const auto got = locate_each(loc_on, batch);
    ASSERT_EQ(got.size(), want_lvl.size());
    EXPECT_FALSE(got.back().has_value());
    EXPECT_FALSE(want_lvl.back().has_value());
    for (std::size_t j = 0; j < got.size(); ++j) {
      ASSERT_EQ(got[j].has_value(), want_lvl[j].has_value()) << "row " << j;
      if (!got[j]) continue;
      EXPECT_EQ(got[j]->position.x, want_lvl[j]->position.x)
          << "row " << j << " level " << core::simd::name(lvl);
      EXPECT_EQ(got[j]->position.y, want_lvl[j]->position.y);
      EXPECT_EQ(got[j]->likelihood, want_lvl[j]->likelihood);
    }
    EXPECT_GT(loc_on.quant_pruned(), 0u);
  }
}

TEST(QuantLocalizerTest, NonPositiveFloorFallsBackToDensePath) {
  const auto aps = office_row({6.0, 4.0});
  core::LocalizerOptions on;
  on.quantized_sweep = true;
  on.floor = 0.0;  // log-domain coarse pass cannot run
  core::LocalizerOptions off = on;
  off.quantized_sweep = false;
  core::Localizer loc_on({{0, 0}, {10, 10}}, on);
  core::Localizer loc_off({{0, 0}, {10, 10}}, off);
  const auto a = loc_on.locate(aps);
  const auto b = loc_off.locate(aps);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->position.x, b->position.x);
  EXPECT_EQ(a->position.y, b->position.y);
  EXPECT_EQ(a->likelihood, b->likelihood);
  EXPECT_EQ(loc_on.quant_pruned(), 0u);  // nothing was pruned
}

// --- 8x8 block bounds -------------------------------------------------

TEST(QuantBlockTest, ArcMaxMatchesBruteForceOnEveryArc) {
  std::mt19937_64 rng(5);
  for (std::size_t bins : {1u, 2u, 7u, 181u, 720u}) {
    std::vector<std::int32_t> row(bins);
    std::uniform_int_distribution<std::int32_t> v(-4000, 4000);
    for (auto& x : row) x = v(rng);
    const std::size_t max_len = (bins + 1) / 2;
    core::ArcMax am;
    am.build(row.data(), bins, max_len);
    for (std::size_t lo = 0; lo < bins; ++lo)
      for (std::size_t len : {std::size_t(1), max_len / 2 + 1, max_len, bins}) {
        if (len > max_len && len != bins) continue;
        std::int32_t want = row[lo];
        for (std::size_t i = 0; i < len; ++i)
          want = std::max(want, row[(lo + i) % bins]);
        ASSERT_EQ(am.max({std::int32_t(lo), std::int32_t(len)}), want)
            << "bins " << bins << " lo " << lo << " len " << len;
      }
  }
}

struct BlockLayout {
  const char* name;
  geom::Rect bounds;
  double step;
  std::vector<std::pair<geom::Vec2, double>> poses;
};

std::vector<BlockLayout> block_layouts() {
  const auto tb = testbed::OfficeTestbed::standard();
  BlockLayout office{"office", tb.plan.bounds(), 0.10, {}};
  for (const auto& site : tb.ap_sites)
    office.poses.push_back({site.position, site.orientation_rad});
  return {
      office,
      {"collinear", {{0, 0}, {18, 10}}, 0.3,
       {{{2, 5}, 0.0}, {{9, 5}, deg2rad(90.0)}, {{16, 5}, deg2rad(180.0)}}},
      {"one_ap", {{0, 0}, {18, 10}}, 0.25, {{{9, 9.5}, deg2rad(-90.0)}}},
      // Inside the floor, on a cell corner and off it: the blocks around
      // the AP see the whole circle.
      {"ap_inside", {{0, 0}, {10.3, 7.7}}, 0.1,
       {{{4.0, 4.0}, deg2rad(30.0)}, {{6.37, 2.11}, deg2rad(-120.0)}}},
  };
}

// Every cell's bin0 lies inside its block's arc, and every block bound
// is >= the coarse score of each of its cells: the two facts the block
// sweep's pruning rests on. The LUT built on the pool equals a serial
// build.
TEST(QuantBlockTest, ArcsHoldEveryCellAndBoundsDominateCellScores) {
  std::mt19937_64 rng(11);
  for (const auto& lay : block_layouts()) {
    SCOPED_TRACE(lay.name);
    core::LocalizerOptions opt;
    opt.grid_step_m = lay.step;
    core::Localizer loc(lay.bounds, opt);
    core::LocalizerOptions serial_opt = opt;
    serial_opt.threads = 1;  // the pool-built LUT must match a serial one
    core::Localizer serial(lay.bounds, serial_opt);
    const core::Heatmap shape = loc.grid();
    const std::size_t nx = shape.nx, ny = shape.ny, B = core::Localizer::kBlock;
    const std::size_t nbx = (nx + B - 1) / B, nby = (ny + B - 1) / B;
    for (std::size_t bins : {720u, 181u}) {
      SCOPED_TRACE(testing::Message() << bins << " bins");
      std::vector<core::ApSpectrum> aps;
      std::vector<std::shared_ptr<const core::Localizer::BearingLut>> owned;
      std::vector<const core::Localizer::BearingLut*> luts;
      std::vector<CoarseLogTable> tables;
      std::uniform_real_distribution<double> mag(-4.0, 0.0);
      for (const auto& [pos, orient] : lay.poses) {
        core::ApSpectrum ap{pos, orient, aoa::AoaSpectrum(bins)};
        for (std::size_t i = 0; i < bins; ++i)
          ap.spectrum[i] = std::pow(10.0, mag(rng));
        owned.push_back(loc.bearing_lut(ap));
        luts.push_back(owned.back().get());
        const auto one = serial.bearing_lut(ap);
        ASSERT_EQ(one->bin0, luts.back()->bin0);
        ASSERT_EQ(one->bin1, luts.back()->bin1);
        ASSERT_EQ(one->frac, luts.back()->frac);
        ASSERT_EQ(one->max_arc, luts.back()->max_arc);
        for (std::size_t b = 0; b < one->arcs.size(); ++b) {
          ASSERT_EQ(one->arcs[b].lo, luts.back()->arcs[b].lo);
          ASSERT_EQ(one->arcs[b].len, luts.back()->arcs[b].len);
        }
        tables.push_back(linalg::coarse_log_table(
            ap.spectrum.values().data(), bins, opt.floor));
        aps.push_back(std::move(ap));
      }
      // An empty spectrum has no LUT and no bound term.
      luts.push_back(nullptr);
      tables.emplace_back();

      const std::vector<std::int32_t> bound =
          core::Localizer::block_bounds(luts, tables);
      ASSERT_EQ(bound.size(), nbx * nby);
      for (const auto* lut : luts) {
        if (!lut) continue;
        ASSERT_EQ(lut->arcs.size(), nbx * nby);
        for (const auto& arc : lut->arcs) {
          ASSERT_GE(arc.len, 1);
          ASSERT_LE(std::size_t(arc.len), bins);
          if (std::size_t(arc.len) < bins) {
            ASSERT_LE(std::size_t(arc.len), lut->max_arc);
          }
        }
      }
      for (std::size_t iy = 0; iy < ny; ++iy)
        for (std::size_t ix = 0; ix < nx; ++ix) {
          const std::size_t c = iy * nx + ix;
          const std::size_t b = (iy / B) * nbx + ix / B;
          std::int64_t score = 0;
          for (std::size_t k = 0; k < luts.size(); ++k) {
            if (!luts[k]) continue;
            const auto arc = luts[k]->arcs[b];
            const std::int32_t bin = luts[k]->bin0[c];
            const std::int32_t off =
                (bin - arc.lo + std::int32_t(bins)) % std::int32_t(bins);
            ASSERT_LT(off, arc.len) << "cell " << ix << "," << iy << " ap "
                                    << k << " bin " << bin << " arc "
                                    << arc.lo << "+" << arc.len;
            score += tables[k].pairmax[std::size_t(bin)];
          }
          ASSERT_GE(std::int64_t(bound[b]), score)
              << "cell " << ix << "," << iy;
        }
    }
  }
}

// The block sweep against the dense float sweep (quant off): locate
// agrees bitwise at every SIMD level on a grid whose nx and
// ny are not multiples of 8, with a dead AP, an AP inside the floor,
// every hill-climb start count, and flat spectra that force the dense
// fallback.
TEST(QuantLocalizerTest, BlockSweepByteIdenticalToDenseAtEveryLevel) {
  const geom::Rect floor{{0, 0}, {10.3, 7.7}};
  std::vector<std::vector<core::ApSpectrum>> batch;
  for (const geom::Vec2 truth :
       {geom::Vec2{6.0, 4.0}, geom::Vec2{1.3, 7.1}, geom::Vec2{10.2, 0.2}}) {
    auto row = office_row(truth);
    row.push_back(ap_looking_at({4.0, 3.0}, deg2rad(20.0), truth));
    batch.push_back(std::move(row));
  }
  std::vector<core::ApSpectrum> flat = office_row({5.0, 5.0});
  for (auto& ap : flat)
    for (std::size_t i = 0; i < ap.spectrum.bins(); ++i) ap.spectrum[i] = 0.5;
  batch.push_back(flat);
  const std::size_t flat_row = batch.size() - 1;

  for (std::size_t starts : {0u, 1u, 3u}) {
    core::LocalizerOptions on;
    on.hill_climb_starts = starts;
    core::LocalizerOptions off = on;
    off.quantized_sweep = false;
    for (Level lvl : runnable_levels()) {
      SCOPED_TRACE(testing::Message()
                   << core::simd::name(lvl) << " starts " << starts);
      ForcedLevel g(lvl);
      core::Localizer loc_on(floor, on);
      core::Localizer loc_off(floor, off);
      const core::Heatmap shape = loc_on.grid();
      ASSERT_NE(shape.nx % core::Localizer::kBlock, 0u);
      ASSERT_NE(shape.ny % core::Localizer::kBlock, 0u);
      for (std::size_t j = 0; j < batch.size(); ++j) {
        SCOPED_TRACE(testing::Message() << "row " << j);
        const auto want = loc_off.locate(batch[j]);
        const auto got = loc_on.locate(batch[j]);
        ASSERT_TRUE(want && got);
        EXPECT_EQ(got->position.x, want->position.x);
        EXPECT_EQ(got->position.y, want->position.y);
        EXPECT_EQ(got->likelihood, want->likelihood);
      }
      // The flat row alone: every cell ties, so the sweep hands the
      // whole grid to the dense path.
      core::Localizer loc_flat(floor, on);
      ASSERT_TRUE(loc_flat.locate(batch[flat_row]));
      EXPECT_EQ(loc_flat.quant_pruned(), 0u);
      EXPECT_EQ(loc_flat.quant_refined(), shape.nx * shape.ny);
      EXPECT_GT(loc_on.quant_pruned(), loc_on.quant_refined());
    }
  }
}

// --- service layer -----------------------------------------------------

geom::Floorplan service_plan() {
  geom::Floorplan plan({{0, 0}, {18, 10}});
  plan.add_wall({0, 0}, {18, 0}, geom::Material::kBrick);
  plan.add_wall({18, 0}, {18, 10}, geom::Material::kBrick);
  plan.add_wall({18, 10}, {0, 10}, geom::Material::kBrick);
  plan.add_wall({0, 10}, {0, 0}, geom::Material::kBrick);
  return plan;
}

std::unique_ptr<core::System> service_system(const geom::Floorplan* plan) {
  core::SystemConfig cfg;
  cfg.server.localizer.grid_step_m = 0.25;  // keep tests quick
  auto sys = std::make_unique<core::System>(plan, cfg);
  sys->add_ap({1, 1}, deg2rad(45.0));
  sys->add_ap({17, 1}, deg2rad(135.0));
  sys->add_ap({9, 9.5}, deg2rad(-90.0));
  return sys;
}

std::vector<core::FrameEvent> service_schedule() {
  const std::vector<geom::Vec2> sites = {{12.0, 6.0}, {5.0, 3.0}, {9.0, 7.0}};
  std::vector<core::FrameEvent> out;
  for (int i = 0; i < 5; ++i)
    for (int c = 0; c < 3; ++c)
      out.push_back({0.1 + 0.2 * i + 0.011 * c, c, sites[std::size_t(c)]});
  std::sort(out.begin(), out.end(),
            [](const core::FrameEvent& a, const core::FrameEvent& b) {
              return a.time_s < b.time_s;
            });
  return out;
}

// The quantized sweep is invisible in the service's output: fix
// streams are byte-identical quant-on vs quant-off at every worker
// count and batch width, while the stats JSON shows the pruner doing
// real work.
TEST(QuantServiceTest, ServiceFixesByteIdenticalAndStatsReportQuant) {
  const auto plan = service_plan();
  const auto schedule = service_schedule();

  std::vector<service::ServiceReport> reports;
  std::string stats_on, stats_off;
  for (bool quant : {true, false}) {
    for (std::size_t workers : {1u, 4u}) {
      for (std::size_t batch : {1u, 4u}) {
        auto sys = service_system(&plan);
        service::ServiceOptions opt;
        opt.workers = workers;
        opt.batch_max = batch;
        opt.virtual_clock = true;
        opt.virtual_cost_s = 0.02;
        opt.latency_slo_s = 0.5;
        opt.quantized_sweep = quant;
        service::LocationService svc(sys.get(), opt);
        EXPECT_EQ(svc.options().quantized_sweep, quant);
        reports.push_back(svc.run(schedule));
        auto& stats = quant ? stats_on : stats_off;
        if (stats.empty()) {
          stats = svc.stats_json();
          const auto& loc = sys->server().localizer();
          if (quant) {
            EXPECT_GT(loc.quant_pruned(), 0u);
            EXPECT_GT(loc.quant_pruned(), loc.quant_refined());
          } else {
            EXPECT_EQ(loc.quant_pruned() + loc.quant_refined(), 0u);
          }
          EXPECT_GT(sys->server().steering_table_bytes(), 0u);
        }
      }
    }
  }

  const auto& base = reports.front();
  ASSERT_GT(base.fixes.size(), 0u);
  for (std::size_t r = 1; r < reports.size(); ++r) {
    const auto& other = reports[r];
    ASSERT_EQ(base.fixes.size(), other.fixes.size()) << "run " << r;
    for (std::size_t i = 0; i < base.fixes.size(); ++i) {
      EXPECT_EQ(base.fixes[i].client_id, other.fixes[i].client_id);
      EXPECT_EQ(base.fixes[i].position.x, other.fixes[i].position.x);
      EXPECT_EQ(base.fixes[i].position.y, other.fixes[i].position.y);
      EXPECT_EQ(base.fixes[i].likelihood, other.fixes[i].likelihood);
    }
  }

  for (const std::string* s : {&stats_on, &stats_off}) {
    EXPECT_NE(s->find("\"quant\""), std::string::npos);
    EXPECT_NE(s->find("\"quant_pruned\""), std::string::npos);
    EXPECT_NE(s->find("\"steering_table_bytes\""), std::string::npos);
    EXPECT_EQ(s->find("\"quant_table_bytes\""), std::string::npos);
  }
  EXPECT_NE(stats_on.find("\"quantized_sweep\": true"), std::string::npos);
  EXPECT_NE(stats_off.find("\"quantized_sweep\": false"), std::string::npos);
}

}  // namespace
}  // namespace arraytrack
