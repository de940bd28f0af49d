// Tests for the persistent worker pool and, more importantly, for the
// contract it must keep: routing the server's hot paths through the
// pool must not change a single output bit, whatever the pool width.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/arraytrack.h"
#include "core/thread_pool.h"

namespace arraytrack::core {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(101);
  pool.parallel_for(0, hits.size(), 0,
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, RangesCoverExactlyOnce) {
  ThreadPool pool(2);
  for (std::size_t n : {1u, 2u, 7u, 64u, 97u}) {
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_ranges(n, 0, [&](std::size_t lo, std::size_t hi) {
      ASSERT_LT(lo, hi);
      for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, MaxParallelOneIsServedInline) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  pool.parallel_for(0, 16, 1, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPoolTest, NestedParallelismDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(0, 4, 0, [&](std::size_t) {
    pool.parallel_for(0, 8, 0, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 8, 0,
                                 [&](std::size_t i) {
                                   if (i == 5)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool must stay usable afterwards.
  std::atomic<int> n{0};
  pool.parallel_for(0, 4, 0, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 4);
}

TEST(ThreadPoolTest, QueuesOnlyNonEmptyChunks) {
  // n = 6 at width 4 splits into chunks of 2: three non-empty ones, of
  // which the caller runs the first, so two tasks reach the queue.
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(6);
  const auto before = pool.tasks_queued();
  pool.parallel_for(0, hits.size(), 4,
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  EXPECT_EQ(pool.tasks_queued() - before, 2u);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  const auto inline_before = pool.tasks_queued();
  pool.parallel_for(0, 16, 1, [](std::size_t) {});
  EXPECT_EQ(pool.tasks_queued(), inline_before);
}

TEST(ThreadPoolTest, SharedPoolIsPersistent) {
  ThreadPool& a = ThreadPool::shared();
  ThreadPool& b = ThreadPool::shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.size(), 1u);
}

// --- Pool-width invariance of the server outputs ------------------------

struct Rig {
  /// `aps` APs (3 or 6) each hearing `frames` frames from client 0.
  explicit Rig(std::size_t threads, std::size_t aps = 3,
               std::size_t frames = 3)
      : plan(make_plan()) {
    SystemConfig cfg;
    cfg.server.localizer.grid_step_m = 0.25;  // keep tests quick
    cfg.server.localizer.threads = threads;
    sys = std::make_unique<System>(&plan, cfg);
    sys->add_ap({1, 1}, deg2rad(45.0));
    sys->add_ap({17, 1}, deg2rad(135.0));
    sys->add_ap({9, 9.5}, deg2rad(-90.0));
    if (aps == 6) {
      sys->add_ap({1, 9}, deg2rad(-45.0));
      sys->add_ap({17, 9}, deg2rad(-135.0));
      sys->add_ap({9, 0.5}, deg2rad(90.0));
    }
    for (std::size_t f = 0; f < frames; ++f)
      sys->transmit(0, {12.0, 6.0}, double(3 - frames + f) * 0.03);
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

void expect_same_spectra(const std::vector<ApSpectrum>& got,
                         const std::vector<ApSpectrum>& want,
                         const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got[k].ap_position.x, want[k].ap_position.x) << where;
    EXPECT_EQ(got[k].ap_position.y, want[k].ap_position.y) << where;
    EXPECT_EQ(got[k].orientation_rad, want[k].orientation_rad) << where;
    ASSERT_EQ(got[k].spectrum.bins(), want[k].spectrum.bins()) << where;
    for (std::size_t i = 0; i < want[k].spectrum.bins(); ++i)
      ASSERT_EQ(got[k].spectrum[i], want[k].spectrum[i])
          << where << " ap=" << k << " bin=" << i;
  }
}

void expect_same_fix(const std::optional<LocationEstimate>& got,
                     const std::optional<LocationEstimate>& want,
                     const std::string& where) {
  ASSERT_TRUE(got.has_value()) << where;
  ASSERT_TRUE(want.has_value()) << where;
  EXPECT_EQ(got->position.x, want->position.x) << where;
  EXPECT_EQ(got->position.y, want->position.y) << where;
  EXPECT_EQ(got->likelihood, want->likelihood) << where;
}

TEST(PoolDeterminismTest, ClientSpectraIdenticalAcrossPoolWidths) {
  Rig serial(1);
  const auto want = serial.sys->server().client_spectra(0, 0.1);
  ASSERT_EQ(want.size(), 3u);

  for (std::size_t threads : {std::size_t(2), std::size_t(0)}) {
    Rig rig(threads);
    const auto got = rig.sys->server().client_spectra(0, 0.1);
    expect_same_spectra(got, want, "threads=" + std::to_string(threads));
  }
}

TEST(PoolDeterminismTest, HeatmapAndLocateIdenticalAcrossPoolWidths) {
  Rig serial(1);
  const auto want_map = serial.sys->heatmap(0, 0.1);
  const auto want_fix = serial.sys->locate(0, 0.1);
  ASSERT_TRUE(want_map.has_value());
  ASSERT_TRUE(want_fix.has_value());

  for (std::size_t threads : {std::size_t(2), std::size_t(0)}) {
    Rig rig(threads);
    const auto map = rig.sys->heatmap(0, 0.1);
    ASSERT_TRUE(map.has_value()) << "threads=" << threads;
    ASSERT_EQ(map->cells.size(), want_map->cells.size());
    for (std::size_t i = 0; i < map->cells.size(); ++i)
      ASSERT_EQ(map->cells[i], want_map->cells[i])
          << "threads=" << threads << " cell=" << i;

    const auto fix = rig.sys->locate(0, 0.1);
    ASSERT_TRUE(fix.has_value()) << "threads=" << threads;
    EXPECT_EQ(fix->position.x, want_fix->position.x);
    EXPECT_EQ(fix->position.y, want_fix->position.y);
    EXPECT_EQ(fix->likelihood, want_fix->likelihood);
  }
}

// The served job shapes: walk (3 APs x 1 frame) and burst (6 APs x 3
// frames). The fan-out's width follows the frame count, never the
// load, and each AP writes its own slot, so every width gives the same
// bits on the single-job and the batch path.
struct JobShape {
  const char* name;
  std::size_t aps;
  std::size_t frames;
};

class JobShapeTest : public ::testing::TestWithParam<JobShape> {};

TEST_P(JobShapeTest, SpectraAndFixesIdenticalAcrossPoolWidths) {
  const JobShape shape = GetParam();
  Rig serial(1, shape.aps, shape.frames);
  const auto& ref = serial.sys->server();
  const FrameGroup frames = ref.snapshot_frames(0, 0.1);
  ASSERT_EQ(frames.size(), shape.aps);
  for (const auto& per_ap : frames) ASSERT_EQ(per_ap.size(), shape.frames);
  const auto want = ref.spectra_from_frames(frames);
  ASSERT_EQ(want.size(), shape.aps);
  const auto want_fix = ref.locate_frames(frames);

  for (std::size_t threads : {std::size_t(0), std::size_t(1), std::size_t(2),
                              std::size_t(4)}) {
    Rig rig(threads, shape.aps, shape.frames);
    const auto& server = rig.sys->server();
    const FrameGroup group = server.snapshot_frames(0, 0.1);
    const std::string where = "threads=" + std::to_string(threads);
    expect_same_spectra(server.spectra_from_frames(group), want,
                        where + " single");
    expect_same_fix(server.locate_frames(group), want_fix, where + " single");
    const auto batch = server.spectra_from_frames_batch({&group});
    ASSERT_EQ(batch.size(), 1u);
    expect_same_spectra(batch[0], want, where + " batch");
    const auto batch_fix = server.locate_frames_batch({&group});
    ASSERT_EQ(batch_fix.size(), 1u);
    expect_same_fix(batch_fix[0], want_fix, where + " batch");
  }
}

TEST_P(JobShapeTest, PoolTasksFollowFrameCount) {
  const JobShape shape = GetParam();
  // A 4-wide cap: burst's 18 frames ask for 6 tasks, the cap leaves 4,
  // and 6 APs at width 4 split 2+2+2, so the caller runs one chunk and
  // queues two. Walk's 3 frames make one task, which runs inline.
  Rig rig(4, shape.aps, shape.frames);
  const auto& server = rig.sys->server();
  const FrameGroup group = server.snapshot_frames(0, 0.1);
  ASSERT_TRUE(server.locate_frames(group).has_value());  // warms the LUTs

  // On a pool narrower than 3, burst splits into fewer chunks.
  ThreadPool& pool = ThreadPool::shared();
  const std::size_t width = std::min<std::size_t>(pool.size(), 4);
  const std::size_t want =
      shape.frames == 1 ? 0 : (width >= 3 ? 2 : width - 1);
  auto before = pool.tasks_queued();
  ASSERT_TRUE(server.locate_frames(group).has_value());
  EXPECT_EQ(pool.tasks_queued() - before, want) << "single";
  before = pool.tasks_queued();
  ASSERT_TRUE(server.locate_frames_batch({&group})[0].has_value());
  EXPECT_EQ(pool.tasks_queued() - before, want) << "batch";
}

INSTANTIATE_TEST_SUITE_P(
    PoolDeterminism, JobShapeTest,
    ::testing::Values(JobShape{"walk", 3, 1}, JobShape{"burst", 6, 3}),
    [](const ::testing::TestParamInfo<JobShape>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace arraytrack::core
