// Concurrent location-serving engine (the ROADMAP's "heavy traffic"
// layer between frame ingest and location fixes).
//
// service/realtime.* answers the paper's 4.4 question with a single
// backend worker (a batch-of-one special case of this engine); this
// engine is the production shape of the same server: frame arrivals — simulated FrameEvents or AP wire-format
// records — are sharded into per-client sessions and dispatched to a
// configurable pool of N backend workers, each running the existing
// ArrayTrackServer pipeline (which fans its per-AP work out on the
// shared core::ThreadPool).
//
//   simulation ingest (1 thread)   shards (bounded FIFO)     N workers
//   submit() -> transmit +      -> [s0][s1]...[sK-1]  -> claim shard, pop,
//     snapshot + admission         coalesce stale        run pipeline job,
//                                  frames, shed on       smooth through the
//                                  full queue            session tracker
//
//   wire ingest (N decoder threads over per-shard MPSC rings)
//   ingest_wire() -> partition records per AP -> decode, check
//     version + per-AP sequence (reject duplicates/replays, count
//     gaps) -> publish into per-shard core::MpscRing (drop-oldest on
//     overflow, counted) -> drain: canonical (time, ap, seq) order ->
//     admission as above. Decoding runs outside the service mutex; the
//     admitted fix set is byte-identical for any decoder-thread count
//     as long as the rings do not overflow.
//
// Guarantees:
//  * Per-client fix ordering: a client hashes to one shard, a shard is
//    claimed by at most one worker at a time, and shard queues are
//    FIFO, so a client's fixes are produced in frame order.
//  * Graceful degradation, never silent: a full shard queue drops its
//    oldest job (newest data wins, like coalescing) and a job that can
//    no longer meet the latency SLO is shed instead of processed; both
//    paths count into ServiceStats.
//  * Freshness: frames for a client arriving while an earlier job is
//    still queued are coalesced into it, exactly like
//    RealtimeOptions::coalesce_per_client.
//  * Determinism for tests: in virtual-clock mode every admission,
//    coalescing and shedding decision is made by a discrete-event
//    model of the N workers driven from the ingest thread (fixed
//    per-job cost), so the set of fixes — computed by real concurrent
//    workers — is byte-identical for any worker count under light
//    load, and reproducible under overload.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/arraytrack.h"
#include "core/latency.h"
#include "core/mpsc_ring.h"
#include "delivery/bus.h"
#include "linalg/subspace.h"
#include "service/realtime.h"
#include "core/tracker.h"
#include "phy/wire.h"
#include "service/clock.h"
#include "service/stats.h"

namespace arraytrack::service {

/// Elastic worker-pool controller (the cluster layer's per-node
/// autoscaler). The engine evaluates the admission-side pressure
/// signals the metrics layer already records — the queue-depth
/// histogram's window mean (depth seen at each enqueue) and, in wall
/// mode, the batch-occupancy window mean — at fixed period boundaries,
/// and grows or shrinks the backend worker pool one worker at a time
/// with hysteresis, clamped to [min_workers, max_workers].
///
/// Determinism: under the virtual clock the evaluation points are
/// interleaved with modeled job commits (an evaluation at t_k fires
/// before any job whose modeled start is >= t_k), the inputs are the
/// admission-side window counters (driver thread only), and the resize
/// mutates the modeled pool — so the resize schedule, like the fix
/// set, is a pure function of the submitted schedule. Batch occupancy
/// is recorded by real workers and is therefore folded in only in wall
/// mode. Ignored in measured_cost mode (the single-worker realtime
/// shim).
struct ElasticOptions {
  bool enabled = false;
  std::size_t min_workers = 1;
  std::size_t max_workers = 8;
  /// Evaluation period on the service clock; <= 0 disables.
  double eval_period_s = 0.25;
  /// Grow pressure: window mean queue depth at admission (>= 1; a job
  /// enqueued into an empty backlog records depth 1) at or above this.
  double grow_depth = 3.0;
  /// Shrink signal: an empty window, or window mean depth at or below
  /// this, with no backlog outstanding at the evaluation point.
  double shrink_depth = 1.05;
  /// Wall mode only: window mean drain width (batch occupancy) at or
  /// above this fraction of batch_max also counts as grow pressure
  /// (full drains mean the workers are saturated even when admission
  /// depth looks shallow).
  double occupancy_grow_frac = 0.9;
  /// Consecutive same-verdict evaluations before a one-worker resize.
  std::size_t hysteresis = 2;
};

struct ServiceOptions {
  /// Backend workers draining the shard queues. Each job additionally
  /// fans out on the shared core::ThreadPool, bounded by
  /// ServerOptions::localizer.threads — for throughput-oriented
  /// deployments set that to 1 and scale `workers` instead.
  std::size_t workers = 2;
  /// Session shards; also the parallelism ceiling (a shard is drained
  /// by one worker at a time to preserve per-client ordering).
  std::size_t shards = 16;
  /// Bounded per-shard backlog of queued (unstarted) jobs; admission
  /// drops the oldest queued job when full.
  std::size_t shard_queue_capacity = 32;
  /// End-to-end latency SLO measured from the end of the frame; a job
  /// whose completion would exceed it is shed. <= 0 disables.
  double latency_slo_s = 0.25;
  /// Fold newer frames of a client into its queued job.
  bool coalesce_per_client = true;
  /// Smooth each session's fixes through a core::LocationTracker.
  bool tracked_fixes = true;
  core::TrackerOptions tracker;
  /// Maintain per-session subspace trackers (core::ClientSubspace, one
  /// linalg::SubspaceTracker per AP) so steady-state MUSIC spectra
  /// reuse the tracked signal basis instead of a fresh
  /// eigendecomposition per frame. Per-client fix ordering (one shard,
  /// FIFO) makes the tracked stream — hence the fix set — identical
  /// across worker counts and batch widths; the ARRAYTRACK_EXACT_EVD
  /// environment variable forces the full decomposition on every
  /// update for byte-identical cross-checks against this flag being
  /// off. State survives coalescing (the tracker keys off the session,
  /// not the job) and is dropped with the session.
  bool subspace_tracking = true;
  /// Ingest transport model (Td + Tt + Tl), folded into arrival times
  /// (virtual mode) and end-to-end latency accounting (both modes).
  core::LatencyModel transport;
  /// Wire decoder for the wire-ingest paths.
  phy::WireFormat wire;
  /// Frames kept per (session, AP) on the wire-ingest path.
  std::size_t wire_history = 4;
  /// Decoder threads for ingest_wire(); <= 1 decodes on the calling
  /// thread. APs are partitioned across decoders (ap mod threads), so
  /// one AP's records are always decoded in arrival order by exactly
  /// one thread — which is what makes per-AP sequence validation
  /// race-free without a lock.
  std::size_t decoder_threads = 1;
  /// Capacity of each per-shard ingest ring (rounded up to a power of
  /// two). Overflow drops the oldest queued event, counted in
  /// stats().ring_dropped.
  std::size_t ingest_ring_capacity = 1024;

  /// Drain width: most jobs a worker takes from one shard per claim.
  /// The worker then runs them one by one, in queue order, through
  /// ArrayTrackServer::locate_frames, so a wider drain saves only shard
  /// claims. Opportunistic: a worker takes whatever is ready, up to
  /// this (stats().batch_occupancy records each drain's width). Does
  /// not affect which jobs run or what they compute — under the
  /// virtual clock the fix set is byte-identical for every value.
  /// Clamped to >= 1 (recorded in stats().batch_max).
  std::size_t batch_max = 8;

  /// Quantized coarse-to-fine grid sweep in the localizer (see
  /// LocalizerOptions::quantized_sweep): an integer upper-bound pass
  /// prunes the grid before the float kernels refine the survivors.
  /// Fix sets are byte-identical on or off; the `"quant"` block of
  /// stats_json() reports pruned/refined counts and the steering-table
  /// footprint.
  bool quantized_sweep = true;

  /// Elastic worker-pool autoscaling (see ElasticOptions). When
  /// enabled, `workers` is the starting width, clamped into
  /// [elastic.min_workers, elastic.max_workers].
  ElasticOptions elastic;

  /// Virtual-clock mode: deterministic discrete-event scheduling (see
  /// header comment). Jobs are modeled to cost `virtual_cost_s` each.
  bool virtual_clock = false;
  double virtual_cost_s = 0.02;
  /// Measured-cost virtual mode (used by the core::realtime wrapper):
  /// jobs execute inline on the producer thread at their frame time,
  /// in arrival order, and the modeled completion advances by the
  /// measured pipeline wall time scaled by `processing_scale` instead
  /// of `virtual_cost_s`. Requires virtual_clock.
  bool measured_cost = false;
  double processing_scale = 1.0;

  /// Fix bus configuration: per-client history retention and whether
  /// the catch-all retained buffer (drained by run()/run_wire() and the
  /// cluster fan-in) is kept.
  delivery::BusOptions delivery;
};

/// One smoothed location fix leaving the engine. The record itself
/// lives in delivery/fix.h so the fix bus, geofence engine, and
/// history store can carry it without linking the service.
using ServiceFix = delivery::Fix;

struct ServiceReport {
  /// Sorted by (frame_time, client, seq) so reports are comparable
  /// across runs and worker counts.
  std::vector<ServiceFix> fixes;
  double duration_s = 0.0;
  std::size_t workers = 0;
  std::size_t pool_threads = 0;
  std::string stats_json;

  // Counter snapshot (see ServiceStats for meanings).
  std::uint64_t frames_in = 0;
  std::uint64_t jobs_enqueued = 0;
  std::uint64_t jobs_coalesced = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_deadline = 0;
  std::uint64_t fixes_emitted = 0;
  std::uint64_t locate_failures = 0;
  std::uint64_t decode_errors = 0;

  double fix_rate_hz() const {
    return duration_s > 0.0 ? double(fixes.size()) / duration_s : 0.0;
  }
  double latency_percentile(double p) const;
  double median_error_m() const;
};

class LocationService {
 public:
  /// `system` must outlive the service and have its APs installed.
  /// submit() assumes a single producer thread (it owns the channel
  /// and AP buffers); ingest_wire() runs its own decoder threads.
  LocationService(core::System* system, ServiceOptions opt = {});
  ~LocationService();

  LocationService(const LocationService&) = delete;
  LocationService& operator=(const LocationService&) = delete;

  const ServiceOptions& options() const { return opt_; }
  const ServiceStats& stats() const { return stats_; }
  /// Service counters plus a "delivery" block (bus counters and one
  /// entry per subscriber with its delivered/shed/cursor).
  std::string stats_json() const;

  /// The fix bus: every committed fix is published here at commit
  /// time. Subscribe before (or while) traffic flows; see
  /// delivery/bus.h for the drop-oldest backpressure contract.
  delivery::FixBus& bus() { return bus_; }
  const delivery::FixBus& bus() const { return bus_; }

  /// Registers a geofence zone on the bus; returns its id.
  int add_zone(geom::Polygon polygon, delivery::ZoneOptions zopt = {},
               std::string label = {}) {
    return bus_.add_zone(std::move(polygon), zopt, std::move(label));
  }

  // Read-side snapshot queries (safe concurrently with the write
  // path; see delivery/bus.h).
  std::optional<delivery::TrackPoint> latest(int client) const {
    return bus_.latest(client);
  }
  std::vector<delivery::TrackPoint> trajectory(int client, double t0,
                                               double t1) const {
    return bus_.trajectory(client, t0, t1);
  }
  std::vector<int> zone_occupancy(int zone_id) const {
    return bus_.zone_occupancy(zone_id);
  }

  /// Spawns the worker pool (idempotent).
  void start();
  /// Drains every queue, then joins the workers (idempotent).
  void stop();

  /// Simulation ingest: transmits the frame through the channel,
  /// snapshots the AP buffers, and enqueues a pipeline job.
  void submit(const core::FrameEvent& ev);

  /// One AP's encoded capture record for the wire-ingest path.
  struct WireRecord {
    std::size_t ap_index = 0;
    std::vector<std::uint8_t> bytes;
  };
  /// Wire ingest: decodes per-AP records (malformed ones are counted
  /// and dropped, never trusted), groups them by the client tagged in
  /// the header into per-session frame histories, and enqueues one job
  /// per client heard. Thin wrapper over ingest_wire() with every
  /// record stamped at `time_s`.
  void submit_wire(double time_s, const std::vector<WireRecord>& records);

  /// One timestamped AP record for the sharded ingest front-end.
  struct TimedWireRecord {
    double time_s = 0.0;
    std::size_t ap_index = 0;
    std::vector<std::uint8_t> bytes;
  };

  /// Sharded multi-producer wire ingest: partitions `records` per AP
  /// across `decoder_threads` decoder threads, which decode + validate
  /// (version, per-AP sequence: duplicates and replays rejected, gaps
  /// counted) concurrently outside the service mutex and publish the
  /// surviving events into bounded per-shard MPSC rings (drop-oldest
  /// on overflow). The rings are then drained in canonical (time, ap,
  /// seq) order into the admission layer, so the admitted job set —
  /// and under the virtual clock, the fix set — is byte-identical for
  /// any decoder-thread count as long as the rings do not overflow.
  /// Records sharing a time_s are grouped like one submit_wire() call.
  void ingest_wire(const std::vector<TimedWireRecord>& records);

  /// Deterministic batch drive of the wire path: ingests the
  /// (time-sorted) records, drains, and reports. Requires virtual_clock
  /// mode for reproducibility, like run().
  ServiceReport run_wire(const std::vector<TimedWireRecord>& records);

  /// Blocks until every queued job has completed (or been shed).
  void flush();

  /// Deterministic batch drive: submits the (time-sorted) schedule,
  /// drains, and reports. Requires virtual_clock mode.
  ServiceReport run(const std::vector<core::FrameEvent>& schedule);

  // --- Session handoff (the cluster layer's shard-migration unit) ---

  /// Bit-exact snapshot of one client session: the smoothing tracker,
  /// the wire-path frame history, per-AP subspace-tracker states and
  /// the fix sequence cursor. Serialized by the cluster layer into a
  /// phy::HandoffRecord payload; exporter and importer must run
  /// identically configured services (same options, same System
  /// geometry) for the continued fix stream to be byte-identical.
  struct SessionState {
    int client_id = -1;
    std::uint64_t next_seq = 0;
    core::TrackerState tracker;
    /// Wire-path frame history, one vector (oldest first) per AP.
    std::vector<std::vector<phy::FrameCapture>> history;
    /// Per-AP subspace tracker states; empty when the session has no
    /// subspace yet or tracking is disabled.
    std::vector<linalg::SubspaceTrackerState> subspace;
  };

  /// Clients with a live session, ascending. Requires the service
  /// idle (flush() first): sessions are touched by workers in flight.
  std::vector<int> session_clients() const;

  /// Removes the client's session and returns its state, or nullopt if
  /// the client has no session or still has jobs queued/in flight (the
  /// caller must flush() first — a job holds a pointer into the
  /// session).
  std::optional<SessionState> export_session(int client_id);

  /// Installs a migrated session (replacing any existing one for that
  /// client). Subspace states are dropped when subspace_tracking is
  /// off or the AP count disagrees.
  void import_session(const SessionState& st);

  // --- Elastic pool introspection ---

  /// One autoscaler resize, for pinned-schedule assertions.
  struct ResizeEvent {
    double time_s = 0.0;
    std::size_t from = 0;
    std::size_t to = 0;
  };
  /// Every resize so far, in evaluation order.
  std::vector<ResizeEvent> elastic_log() const;
  /// Current pool width: the modeled width in virtual mode, the thread
  /// target in wall mode (== options().workers when elastic is off).
  std::size_t worker_width() const;

 private:
  struct Session {
    core::LocationTracker tracker;
    std::uint64_t next_seq = 0;
    /// Wire-path per-AP frame history (ingest thread only).
    std::vector<std::deque<phy::FrameCapture>> history;
    /// Tracked signal subspaces, one tracker per AP (lazily created by
    /// subspace_for when ServiceOptions::subspace_tracking is on).
    /// Accessed only by the worker holding this session's shard claim,
    /// like `tracker`; destroyed (state reset) with the session.
    std::unique_ptr<core::ClientSubspace> subspace;
  };

  struct Job {
    int client_id = -1;
    std::uint64_t seq = 0;
    Session* session = nullptr;
    core::FrameGroup frames;
    double frame_time_s = 0.0;
    double arrival_s = 0.0;   // on the service clock
    double deadline_s = 0.0;  // on the service clock; shedding bound
    std::optional<geom::Vec2> truth;
    // Stamped by the virtual dispatcher.
    double start_s = 0.0;
    double done_s = 0.0;
  };

  struct Shard {
    /// Virtual mode: jobs not yet virtually started (the backlog the
    /// queue bound and coalescing apply to).
    std::deque<Job> pending;
    /// Jobs released for execution (wall mode enqueues here directly).
    std::deque<Job> ready;
    bool claimed = false;
    /// Virtual completion time of the shard's in-flight job (per-client
    /// ordering in the discrete-event model).
    double busy_until_s = 0.0;
    std::map<int, Session> sessions;
  };

  /// One decoded, sequence-validated record in flight between a
  /// decoder thread and the admission drain.
  struct IngestEvent {
    int client_id = -1;
    std::uint32_t ap_index = 0;
    /// Wire sequence: the canonical intra-(time, ap) drain order.
    std::uint64_t seq = 0;
    double time_s = 0.0;
    phy::FrameCapture frame;
  };

  /// Per-AP decoder state. Owned by exactly one decoder thread during
  /// ingest_wire (APs are partitioned), joined between calls.
  struct ApIngestState {
    bool seen = false;
    std::uint64_t last_seq = 0;
    /// The AP's capture element ids; a record must carry exactly these.
    std::vector<std::size_t> elements;
  };

  std::size_t shard_of(int client_id) const;
  Session& session_locked(Shard& shard, int client_id);
  /// The session's ClientSubspace (created on first use), or nullptr
  /// when subspace tracking is disabled. Callers must hold the
  /// session's shard claim (or the ingest serialization in virtual
  /// mode) — the same exclusivity `Session::tracker` relies on.
  core::ClientSubspace* subspace_for(Session& sess);
  /// Backlog that admission control and coalescing operate on.
  std::deque<Job>& backlog_locked(Shard& shard);
  /// Admission control + coalescing + enqueue; `mutex_` must be held.
  void ingest_locked(int client_id, core::FrameGroup frames,
                     double frame_time_s, std::optional<geom::Vec2> truth);
  /// Commits every virtual job start <= now_s: assigns the earliest
  /// feasible (worker, shard-head) pair in deterministic order, shed
  /// checks against the SLO, and releases admitted jobs to `ready`.
  void virtual_dispatch_locked(double now_s);
  /// measured_cost mode: runs every job with arrival <= now_s inline
  /// (in arrival order, like the core::realtime event loop), advancing
  /// the modeled timeline by the measured pipeline wall time.
  void measured_dispatch_locked(double now_s);
  bool idle_locked() const;
  void worker_loop(std::size_t id);
  /// Runs one released job on a worker: wall-mode shedding against the
  /// cost estimate, locate_frames, then commit_locate().
  void execute(Job& job);
  /// The shared tail of every job that ran (execute() and
  /// measured_dispatch_locked()): records its wait and processing
  /// time, counts a failed locate, or builds the ServiceFix, smooths it
  /// through the session's tracker and publishes it on the bus.
  void commit_locate(const Job& job,
                     const std::optional<core::LocationEstimate>& fix,
                     double wait_s, double processing_s);
  double estimated_cost_s() const;
  void update_cost_estimate(double measured_s);
  /// Decoder-thread body: decode + validate every record of partition
  /// `d` (ap_index % decoders == d) and publish into the shard rings.
  void decode_partition(const std::vector<TimedWireRecord>& records,
                        std::size_t d, std::size_t decoders,
                        std::size_t num_aps);
  /// Pops every queued event, sorts into canonical (time, ap, seq)
  /// order, and admits time-groups under the service mutex.
  void drain_ingest_rings();
  /// Sorts and snapshots fixes/stats into a report, then stops.
  ServiceReport finish_report(double duration_s);

  /// Pool width the autoscaler reasons about (modeled in virtual mode,
  /// thread target in wall mode); `mutex_` must be held.
  std::size_t width_locked() const;
  /// One autoscaler evaluation at time `t` (on the service clock);
  /// `mutex_` must be held. Resizes the modeled pool directly in
  /// virtual mode; in wall mode adjusts the thread target (shrink takes
  /// effect via worker exit, grow is applied by apply_pending_spawn()
  /// once the lock is released).
  void elastic_eval_locked(double t);
  /// Spawns wall-mode workers up to the current target (joins slots
  /// whose threads exited from an earlier shrink first). Called outside
  /// `mutex_` from the ingest paths and start().
  void apply_pending_spawn();

  core::System* system_;
  ServiceOptions opt_;
  ServiceClock clock_;
  double transport_s_;

  mutable std::mutex mutex_;  // shards, sessions maps, claims, vworkers
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::vector<Shard> shards_;
  std::vector<double> vworker_free_;
  std::size_t in_flight_ = 0;
  std::size_t rr_cursor_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
  /// Wall-mode pool target: a worker whose id >= active_target_ exits.
  std::size_t active_target_ = 0;
  /// Set by an exiting (shrunk-away) worker so a later grow can join
  /// and respawn its slot. Guarded by `mutex_`.
  std::vector<char> worker_exited_;
  /// Wall-mode grow request flag (spawning threads under `mutex_` would
  /// stall the ingest path). Guarded by `mutex_`.
  bool pending_spawn_ = false;

  // Autoscaler state (driver thread under the virtual clock, ingest
  // threads under `mutex_` in wall mode).
  double elastic_next_eval_ = 0.0;
  std::size_t grow_streak_ = 0;
  std::size_t shrink_streak_ = 0;
  std::uint64_t window_enqueued_ = 0;
  double window_depth_sum_ = 0.0;
  double occ_count_base_ = 0.0;
  double occ_sum_base_ = 0.0;
  std::vector<ResizeEvent> resize_log_;

  /// One ring per session shard; created on first wire ingest.
  std::vector<std::unique_ptr<core::MpscRing<IngestEvent>>> ingest_rings_;
  /// Indexed by ap; only touched by the owning decoder thread.
  std::vector<ApIngestState> ap_ingest_;

  delivery::FixBus bus_;

  ServiceStats stats_;
  std::atomic<std::uint64_t> cost_estimate_bits_{0};  // EWMA, wall mode
};

}  // namespace arraytrack::service
