// Workload definitions and the seeded input generator for the
// served-path benchmark.
//
// The generator owns its own core::System (channel + AP front ends) and
// keeps each per-AP frame capture as a wire-v1 record; the served
// program only ever sees those records (see Sender), never the
// generator's state.
// One corpus is one *cycle* of the workload: the load thread replays cycles
// back to back, re-stamping capture times and per-AP wire sequence
// numbers, so a run of any length costs one cycle of channel
// simulation. Every cycle is exactly one period of the client motion,
// so replayed cycles continue the same trajectories.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/arraytrack.h"
#include "geom/vec2.h"
#include "phy/wire.h"
#include "service/service.h"
#include "testbed/office.h"

namespace perfbench {

enum class Loop { kOpen, kClosed };

struct Workload {
  std::string name;
  Loop loop = Loop::kOpen;
  /// Indices into OfficeTestbed::ap_sites, in registration order.
  std::vector<std::size_t> ap_sites;
  /// Walking clients (straight back-and-forth paths) instead of the 41
  /// static Fig. 15 clients.
  bool walking = false;
  /// Number of walking sessions (ignored for static clients).
  std::size_t walkers = 0;
  /// Frames per job: 3-frame bursts ~30 ms apart, or single frames.
  std::size_t burst_frames = 1;
  /// Open loop: jobs offered per second (also the corpus time base of
  /// the closed loop, which walks the same schedule in order).
  double rate_hz = 0.0;
  /// Jobs per corpus cycle.
  std::size_t cycle_jobs = 0;
  /// Closed loop: jobs kept outstanding.
  std::size_t outstanding = 0;
  /// Register geofence zones and interleave latest/trajectory/
  /// zone_occupancy queries with the ingests.
  bool queries = false;
  /// Jobs replayed by the traced replay.
  std::size_t replay_jobs = 0;
};

const std::vector<Workload>& workloads();
/// nullptr when no workload has that name.
const Workload* find_workload(const std::string& name);

/// One AP's capture of one frame as a wire-v1 record; its timestamp is
/// relative to the start of the cycle.
struct Record {
  std::size_t ap = 0;
  std::vector<std::uint8_t> bytes;
};

/// One pipeline job: a client's frame group, sent as one upload at `t`
/// (the time its newest frame was captured).
struct Job {
  int client = -1;
  double t = 0.0;
  /// Client position at the newest frame (the raw-fix ground truth).
  arraytrack::geom::Vec2 truth;
  std::vector<Record> records;
};

struct Corpus {
  std::vector<Job> jobs;  // ascending t within [0, period_s)
  double period_s = 0.0;
};

/// The served system's configuration: library defaults throughout.
arraytrack::core::SystemConfig served_config();

/// Builds the System for `wl`'s AP subset with the given config.
std::unique_ptr<arraytrack::core::System> make_system(
    const Workload& wl, const arraytrack::testbed::OfficeTestbed& tb,
    const arraytrack::core::SystemConfig& cfg);

/// Generates one cycle of `wl` from `seed` (same seed, same corpus).
Corpus make_corpus(const Workload& wl,
                   const arraytrack::testbed::OfficeTestbed& tb,
                   std::uint64_t seed);

/// Geofence zones registered on the walk workload's bus.
std::vector<arraytrack::geom::Rect> zone_rects();

/// Query issued after ingest number `k` on a query workload: which
/// client `latest` reads, and whether a trajectory / zone_occupancy
/// read rides along (fixed ratios 1 : 1/4 : 1/8).
struct QueryPlan {
  int latest_client = -1;
  int trajectory_client = -1;  // -1 = none
  int zone = -1;               // -1 = none
};
QueryPlan query_plan(std::size_t k, std::size_t clients, std::size_t zones);

/// Re-stamps a job's records for sending: per-AP monotone sequence
/// numbers, capture and record times shifted by `offset_s`.
class Sender {
 public:
  explicit Sender(std::size_t num_aps) : next_seq_(num_aps, 0) {}
  std::vector<arraytrack::service::LocationService::TimedWireRecord> encode(
      const Job& job, double offset_s);

 private:
  arraytrack::phy::WireFormat wire_;
  std::vector<std::uint64_t> next_seq_;
};

}  // namespace perfbench
