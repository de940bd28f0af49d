// Tests for the event-driven real-time server simulation.
#include <gtest/gtest.h>

#include "service/realtime.h"

namespace arraytrack::core {
namespace {

using geom::Vec2;

struct Rig {
  Rig() : plan(make_plan()) {
    SystemConfig cfg;
    cfg.server.localizer.grid_step_m = 0.25;  // keep tests quick
    sys = std::make_unique<System>(&plan, cfg);
    sys->add_ap({1, 1}, deg2rad(45.0));
    sys->add_ap({17, 1}, deg2rad(135.0));
    sys->add_ap({9, 9.5}, deg2rad(-90.0));
  }
  static geom::Floorplan make_plan() {
    geom::Floorplan plan({{0, 0}, {18, 10}});
    plan.add_wall({0, 0}, {18, 0}, geom::Material::kBrick);
    plan.add_wall({18, 0}, {18, 10}, geom::Material::kBrick);
    plan.add_wall({18, 10}, {0, 10}, geom::Material::kBrick);
    plan.add_wall({0, 10}, {0, 0}, geom::Material::kBrick);
    return plan;
  }
  geom::Floorplan plan;
  std::unique_ptr<System> sys;
};

std::vector<FrameEvent> steady_schedule(int frames, double gap_s, Vec2 pos) {
  std::vector<FrameEvent> out;
  for (int i = 0; i < frames; ++i)
    out.push_back({0.1 + gap_s * i, 0, pos});
  return out;
}

TEST(RealtimeTest, EmptyScheduleEmptyReport) {
  Rig rig;
  RealtimeSimulator sim(rig.sys.get());
  const auto report = sim.run({});
  EXPECT_EQ(report.frames_in, 0u);
  EXPECT_TRUE(report.fixes.empty());
  EXPECT_DOUBLE_EQ(report.fix_rate_hz(), 0.0);
}

TEST(RealtimeTest, ProducesFixesWithTransportFloor) {
  Rig rig;
  RealtimeOptions opt;
  RealtimeSimulator sim(rig.sys.get(), opt);
  const auto report = sim.run(steady_schedule(5, 0.2, {12.0, 6.0}));
  ASSERT_GE(report.fixes.size(), 4u);
  const double transport = opt.latency.detection_s +
                           opt.latency.serialization_s() +
                           opt.latency.bus_latency_s;
  for (const auto& f : report.fixes) {
    // Latency can never beat detection + serialization + bus.
    EXPECT_GE(f.latency_s, transport - 1e-9);
    EXPECT_LT(f.latency_s, 1.0);  // and stays sane on this machine
    EXPECT_LT(f.error_m, 1.5);
    EXPECT_EQ(f.client_id, 0);
  }
}

TEST(RealtimeTest, CoalescingBoundsQueue) {
  // 100 frames in a burst for one client: with coalescing, the server
  // does a handful of jobs rather than 100.
  Rig rig;
  RealtimeOptions opt;
  RealtimeSimulator sim(rig.sys.get(), opt);
  const auto report = sim.run(steady_schedule(100, 0.001, {9.0, 5.0}));
  EXPECT_EQ(report.frames_in, 100u);
  EXPECT_GT(report.jobs_coalesced, 80u);
  EXPECT_LT(report.fixes.size(), 20u);
}

TEST(RealtimeTest, NoCoalescingProcessesEveryFrame) {
  Rig rig;
  RealtimeOptions opt;
  opt.coalesce_per_client = false;
  RealtimeSimulator sim(rig.sys.get(), opt);
  const auto report = sim.run(steady_schedule(10, 0.2, {9.0, 5.0}));
  EXPECT_EQ(report.jobs_coalesced, 0u);
  EXPECT_EQ(report.fixes.size(), 10u);
}

TEST(RealtimeTest, ProcessingScaleInflatesLatency) {
  Rig rig;
  RealtimeOptions fast;
  RealtimeOptions slow;
  slow.processing_scale = 20.0;
  const auto sched = steady_schedule(6, 0.3, {10.0, 4.0});
  const auto r_fast = RealtimeSimulator(rig.sys.get(), fast).run(sched);
  const auto r_slow = RealtimeSimulator(rig.sys.get(), slow).run(sched);
  ASSERT_FALSE(r_fast.fixes.empty());
  ASSERT_FALSE(r_slow.fixes.empty());
  EXPECT_GT(r_slow.latency_percentile(50), r_fast.latency_percentile(50));
}

TEST(RealtimeTest, ReportStatistics) {
  Rig rig;
  RealtimeSimulator sim(rig.sys.get());
  const auto report = sim.run(steady_schedule(8, 0.25, {11.0, 7.0}));
  ASSERT_GE(report.fixes.size(), 2u);
  EXPECT_GE(report.latency_percentile(95), report.latency_percentile(5));
  EXPECT_GT(report.fix_rate_hz(), 0.0);
  EXPECT_GE(report.median_error_m(), 0.0);
}

}  // namespace
}  // namespace arraytrack::core
