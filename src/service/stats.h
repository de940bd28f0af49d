// Embedded metrics for the location-serving engine.
//
// A service that sheds load must never do so silently: every frame
// that enters the engine is accounted to exactly one terminal counter
// (coalesced, shed, failed, or fixed), and the latency distributions a
// capacity plan needs (queueing, processing, end-to-end) are kept as
// fixed-bucket streaming histograms — atomic counters only, so workers
// record on the hot path without taking a lock. Snapshots serialize to
// a flat JSON object for scraping.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "linalg/subspace.h"

namespace arraytrack::service {

/// Fixed-bucket streaming histogram: log-spaced bucket edges between
/// `lo` and `hi` plus an underflow and an overflow bucket. record() is
/// wait-free (relaxed atomic increments); readers interpolate
/// percentiles from the bucket counts, so quantiles are approximate to
/// one bucket width (~20% relative with the default 32 buckets over
/// three decades) — the right trade for always-on service telemetry.
class StreamingHistogram {
 public:
  /// `lo`/`hi` bound the log-spaced range (both > 0, hi > lo).
  StreamingHistogram(double lo, double hi, std::size_t buckets = 32);

  StreamingHistogram(const StreamingHistogram&) = delete;
  StreamingHistogram& operator=(const StreamingHistogram&) = delete;

  void record(double v);

  std::uint64_t count() const;
  double mean() const;
  double max_seen() const;
  /// Percentile in [0, 100] via cumulative bucket counts with
  /// log-linear interpolation inside the bucket; 0 when empty.
  double percentile(double p) const;

  /// {"count":N,"mean":m,"p50":...,"p90":...,"p99":...,"max":M}
  std::string to_json() const;

  void reset();

 private:
  std::size_t bucket_of(double v) const;
  double bucket_edge(std::size_t i) const;  // lower edge of bucket i

  double lo_, hi_, log_lo_, log_step_;
  std::size_t buckets_;
  std::vector<std::atomic<std::uint64_t>> counts_;  // buckets_ + 2
  std::atomic<std::uint64_t> total_{0};
  /// Sum in micro-units (v * 1e6, rounded): fetch_add-able and exact
  /// enough for a telemetry mean.
  std::atomic<std::uint64_t> sum_micro_{0};
  /// Max as the bit pattern of a non-negative double (bit patterns of
  /// non-negative doubles order like the doubles themselves).
  std::atomic<std::uint64_t> max_bits_{0};
};

/// One engine's counters and distributions. Every submitted frame ends
/// in exactly one of: jobs_coalesced, shed_queue_full, shed_deadline,
/// locate_failures, fixes_emitted (or is still queued when the
/// snapshot is taken) — see LocationService for the flow.
struct ServiceStats {
  ServiceStats();

  // ---- ingest ----
  std::atomic<std::uint64_t> frames_in{0};
  std::atomic<std::uint64_t> wire_records_in{0};
  std::atomic<std::uint64_t> decode_errors{0};
  std::atomic<std::uint64_t> jobs_enqueued{0};
  std::atomic<std::uint64_t> jobs_coalesced{0};

  // ---- sharded wire ingest (every offered record ends in exactly one
  // of: wire_accepted, decode_errors, wire_version_rejected,
  // wire_duplicates, wire_replays, ring_dropped) ----
  std::atomic<std::uint64_t> wire_accepted{0};   // admitted from the rings
  std::atomic<std::uint64_t> wire_version_rejected{0};  // unversioned v0
  std::atomic<std::uint64_t> wire_duplicates{0};  // seq == newest seen
  std::atomic<std::uint64_t> wire_replays{0};     // seq < newest seen
  std::atomic<std::uint64_t> wire_gaps{0};   // forward jumps (still accepted)
  std::atomic<std::uint64_t> ring_dropped{0};     // drop-oldest overflow

  // ---- load shedding (never silent) ----
  std::atomic<std::uint64_t> shed_queue_full{0};
  std::atomic<std::uint64_t> shed_deadline{0};

  // ---- output ----
  std::atomic<std::uint64_t> fixes_emitted{0};
  std::atomic<std::uint64_t> locate_failures{0};
  std::atomic<std::uint64_t> tracker_rejects{0};

  // ---- elastic pool (see ElasticOptions) ----
  std::atomic<std::uint64_t> elastic_grow{0};
  std::atomic<std::uint64_t> elastic_shrink{0};
  /// Current pool width (the modeled width in virtual mode); equals the
  /// configured worker count when elasticity is off.
  std::atomic<std::uint64_t> workers_now{0};

  // ---- drain width ----
  /// Effective ServiceOptions::batch_max after clamping, echoed so a
  /// scrape shows the width the engine actually ran with.
  std::atomic<std::uint64_t> batch_max{1};

  // ---- eigendecomposition path (see linalg::SubspaceTracker) ----
  /// Aggregated over every session's subspace trackers: full Jacobi
  /// decompositions vs tracked recursion updates, plus monitor-forced
  /// (or periodic) reseeds. evd_tracked / (evd_full + evd_tracked) is
  /// the fraction of spectra that skipped the eigendecomposition — the
  /// observable form of this optimization's speedup.
  linalg::SubspaceCounters subspace;

  // ---- distributions ----
  StreamingHistogram queue_depth;     // shard depth at each enqueue
  StreamingHistogram queue_wait_ms;   // server arrival -> job start
  StreamingHistogram processing_ms;   // pipeline time per job
  StreamingHistogram e2e_ms;          // frame end -> fix emitted
  StreamingHistogram batch_occupancy; // jobs per worker drain

  std::uint64_t jobs_shed() const {
    return shed_queue_full.load() + shed_deadline.load();
  }

  /// Flat JSON snapshot of every counter plus the four histograms.
  std::string to_json() const;
};

}  // namespace arraytrack::service
