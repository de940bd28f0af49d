// Event-driven real-time server simulation (paper 4.4 made dynamic).
//
// The latency bench measures the static budget Td + Tt + Tl + Tp; this
// module answers the operational question behind the paper's "100 ms,
// real-time" claim: when frames arrive on their own schedule, what
// end-to-end latency does each location fix see, including queueing at
// a backend that consumes jobs one at a time (each job's per-AP
// pipelines and grid rows fan out on the shared core::ThreadPool, so
// the measured Tp reflects the parallel server)?
//
// For every transmitted frame: the AoA samples exist Td after the
// preamble starts, reach the server Tt + Tl later, wait for the server
// to go idle, and take Tp (measured wall-clock of the real pipeline,
// scaled if desired) to turn into a fix.
//
// Since the LocationService grew a measured-cost virtual mode, this is
// a thin wrapper over it: RealtimeSimulator::run configures a
// single-worker, single-shard, batch-of-one service whose modeled
// timeline advances by the measured pipeline time — the same event-loop
// semantics this module used to implement directly. The types live in
// namespace arraytrack::core.
#pragma once

#include <cstddef>
#include <vector>

#include "core/arraytrack.h"
#include "core/latency.h"

namespace arraytrack::core {

struct RealtimeOptions {
  LatencyModel latency;
  /// Scale on the measured wall-clock processing time (1.0 = this
  /// machine; ~5.0 approximates the paper's Matlab backend).
  double processing_scale = 1.0;
  /// Frames for the same client arriving while an earlier job is still
  /// queued are coalesced into it (the server refreshes a location, it
  /// does not replay history).
  bool coalesce_per_client = true;
};

struct FrameEvent {
  double time_s = 0.0;
  int client_id = -1;
  geom::Vec2 position;  // ground truth at transmit time
};

struct FixRecord {
  int client_id = -1;
  double frame_time_s = 0.0;  // transmit time of the newest frame used
  double ready_time_s = 0.0;  // when the fix left the server
  double latency_s = 0.0;     // ready - frame end
  double error_m = 0.0;
  geom::Vec2 position;
};

struct RealtimeReport {
  std::vector<FixRecord> fixes;
  std::size_t frames_in = 0;
  std::size_t jobs_coalesced = 0;
  double duration_s = 0.0;
  /// Width of the shared pool the measured server fanned out on (the
  /// backend consumes jobs serially, but each job's per-AP pipelines
  /// and grid rows run pool-parallel).
  std::size_t pool_threads = 0;

  double fix_rate_hz() const {
    return duration_s > 0.0 ? double(fixes.size()) / duration_s : 0.0;
  }
  /// Latency percentile over the produced fixes (p in [0, 100]).
  double latency_percentile(double p) const;
  double median_error_m() const;
};

/// Drives a System through a frame schedule and models the server as a
/// single worker consuming AoA records in arrival order.
class RealtimeSimulator {
 public:
  /// `system` must outlive the simulator and have its APs installed.
  RealtimeSimulator(System* system, RealtimeOptions opt = {});

  /// `schedule` must be sorted by time. Returns the full report.
  RealtimeReport run(const std::vector<FrameEvent>& schedule);

 private:
  System* system_;
  RealtimeOptions opt_;
};

}  // namespace arraytrack::core
