// Tests for the service's drain width (ServiceOptions::batch_max).
//
// A worker drains up to batch_max jobs from one shard per claim and
// runs them one by one, in queue order, through locate_frames. The
// load-bearing contract is bitwise determinism: the drain width never
// changes results, and the fix set is also the same across worker
// counts under the virtual clock. The suite also runs under the
// ThreadSanitizer tier of tools/check.sh, which makes the multi-worker
// drain a race test.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "service/service.h"

namespace arraytrack {
namespace {

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
