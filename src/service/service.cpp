#include "service/service.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>

#include "core/thread_pool.h"
#include "geom/vec2.h"

namespace arraytrack::service {

namespace {
constexpr std::size_t kNone = std::size_t(-1);
}  // namespace

double ServiceReport::latency_percentile(double p) const {
  if (fixes.empty()) return 0.0;
  std::vector<double> lat;
  lat.reserve(fixes.size());
  for (const auto& f : fixes) lat.push_back(f.latency_s);
  std::sort(lat.begin(), lat.end());
  const double rank = (p / 100.0) * double(lat.size() - 1);
  const std::size_t lo = std::size_t(rank);
  const std::size_t hi = std::min(lo + 1, lat.size() - 1);
  const double frac = rank - double(lo);
  return (1.0 - frac) * lat[lo] + frac * lat[hi];
}

double ServiceReport::median_error_m() const {
  std::vector<double> e;
  for (const auto& f : fixes)
    if (f.error_m >= 0.0) e.push_back(f.error_m);
  if (e.empty()) return 0.0;
  std::sort(e.begin(), e.end());
  return e[e.size() / 2];
}

LocationService::LocationService(core::System* system, ServiceOptions opt)
    : system_(system),
      opt_(opt),
      clock_(opt.virtual_clock),
      transport_s_(opt.transport.detection_s + opt.transport.serialization_s() +
                   opt.transport.bus_latency_s),
      bus_(opt.delivery) {
  opt_.workers = std::max<std::size_t>(1, opt_.workers);
  opt_.shards = std::max<std::size_t>(1, opt_.shards);
  opt_.shard_queue_capacity = std::max<std::size_t>(1, opt_.shard_queue_capacity);
  opt_.batch_max = std::max<std::size_t>(1, opt_.batch_max);
  stats_.batch_max.store(opt_.batch_max, std::memory_order_relaxed);
  system_->server().set_quantized_sweep(opt_.quantized_sweep);
  if (opt_.elastic.enabled) {
    auto& e = opt_.elastic;
    e.min_workers = std::max<std::size_t>(1, e.min_workers);
    e.max_workers = std::max(e.min_workers, e.max_workers);
    // measured_cost is the single-worker realtime shim; a non-positive
    // period would stall the dispatch loop at its first boundary.
    if (e.eval_period_s <= 0.0 || opt_.measured_cost) {
      e.enabled = false;
    } else {
      opt_.workers = std::clamp(opt_.workers, e.min_workers, e.max_workers);
      elastic_next_eval_ = e.eval_period_s;
    }
  }
  // Sessions hold move-only state (the ClientSubspace), so build the
  // shard vector in place rather than resize() (whose relocation path
  // requires copyable elements when moves are not noexcept).
  shards_ = std::vector<Shard>(opt_.shards);
  vworker_free_.assign(opt_.workers, 0.0);
  active_target_ = opt_.workers;
  stats_.workers_now.store(opt_.workers, std::memory_order_relaxed);
}

LocationService::~LocationService() { stop(); }

std::size_t LocationService::shard_of(int client_id) const {
  // Knuth multiplicative hash: deterministic across runs and platforms
  // (std::hash makes no such promise).
  return std::size_t(std::uint32_t(client_id) * 2654435761u) % opt_.shards;
}

LocationService::Session& LocationService::session_locked(Shard& shard,
                                                          int client_id) {
  return shard.sessions
      .try_emplace(client_id,
                   Session{core::LocationTracker(opt_.tracker), 0, {}, nullptr})
      .first->second;
}

core::ClientSubspace* LocationService::subspace_for(Session& sess) {
  if (!opt_.subspace_tracking) return nullptr;
  if (!sess.subspace)
    sess.subspace = std::make_unique<core::ClientSubspace>(
        system_->server().make_client_subspace(&stats_.subspace));
  return sess.subspace.get();
}

std::deque<LocationService::Job>& LocationService::backlog_locked(
    Shard& shard) {
  // The backlog admission control and coalescing see: jobs the (real
  // or modeled) workers have not picked up yet. In virtual mode a job
  // in `ready` has already started on the modeled timeline.
  return clock_.is_virtual() ? shard.pending : shard.ready;
}

void LocationService::start() {
  if (!workers_.empty()) return;
  stopping_ = false;
  // In virtual mode elasticity resizes the *modeled* pool only — the
  // real threads just drain `ready` and their count never affects
  // results — so only wall mode needs room to grow.
  const std::size_t cap = !clock_.is_virtual() && opt_.elastic.enabled
                              ? opt_.elastic.max_workers
                              : active_target_;
  worker_exited_.assign(cap, 0);
  workers_.reserve(cap);
  for (std::size_t i = 0; i < active_target_; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

void LocationService::stop() {
  if (workers_.empty()) return;
  flush();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
  worker_exited_.clear();
  pending_spawn_ = false;
}

void LocationService::apply_pending_spawn() {
  std::size_t target;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!pending_spawn_) return;
    pending_spawn_ = false;
    target = active_target_;
  }
  // Respawn slots whose threads exited from an earlier shrink (their
  // exit flag means the thread is done or returning — the join is
  // brief), then append fresh slots. Only the producer thread touches
  // `workers_` while the service runs, per the submit() contract.
  for (std::size_t id = 0; id < workers_.size() && id < target; ++id) {
    bool exited;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      exited = worker_exited_[id] != 0;
      worker_exited_[id] = 0;
    }
    if (!exited) continue;
    workers_[id].join();
    workers_[id] = std::thread([this, id] { worker_loop(id); });
  }
  while (workers_.size() < target) {
    const std::size_t id = workers_.size();
    workers_.emplace_back([this, id] { worker_loop(id); });
  }
}

bool LocationService::idle_locked() const {
  if (in_flight_ != 0) return false;
  for (const auto& s : shards_)
    if (!s.pending.empty() || !s.ready.empty()) return false;
  return true;
}

void LocationService::flush() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (clock_.is_virtual()) {
    if (opt_.measured_cost)
      measured_dispatch_locked(std::numeric_limits<double>::infinity());
    else
      virtual_dispatch_locked(std::numeric_limits<double>::infinity());
  }
  idle_cv_.wait(lock, [this] { return idle_locked(); });
}

std::string LocationService::stats_json() const {
  // Splice the bus's delivery block into the service counters object.
  std::string out = stats_.to_json();
  if (!out.empty() && out.back() == '}') out.pop_back();
  out += ", \"delivery\": ";
  out += bus_.stats_json();
  // Coarse-to-fine sweep accounting lives on the localizer (shared by
  // every worker); table footprints on the per-AP estimators.
  const auto& server = system_->server();
  out += ", \"quant\": {\"quantized_sweep\": ";
  out += server.quantized_sweep() ? "true" : "false";
  out += ", \"quant_pruned\": ";
  out += std::to_string(server.localizer().quant_pruned());
  out += ", \"quant_refined\": ";
  out += std::to_string(server.localizer().quant_refined());
  out += ", \"steering_table_bytes\": ";
  out += std::to_string(server.steering_table_bytes());
  out += "}";
  // Hand-offs to the shared pool's threads, process-wide: the per-AP
  // fan-out and the localizer's row chunks of every service using it.
  out += ", \"pool_tasks_queued\": ";
  out += std::to_string(core::ThreadPool::shared().tasks_queued());
  out += "}";
  return out;
}

double LocationService::estimated_cost_s() const {
  return std::bit_cast<double>(
      cost_estimate_bits_.load(std::memory_order_relaxed));
}

void LocationService::update_cost_estimate(double measured_s) {
  const double cur = estimated_cost_s();
  const double next = cur == 0.0 ? measured_s : 0.8 * cur + 0.2 * measured_s;
  cost_estimate_bits_.store(std::bit_cast<std::uint64_t>(next),
                            std::memory_order_relaxed);
}

void LocationService::virtual_dispatch_locked(double now_s) {
  // Commit, in deterministic order, every job whose modeled start time
  // has been reached: repeatedly pair the earliest-free modeled worker
  // with the shard-head job that can start soonest (ties break toward
  // the lowest shard index). A committed job either sheds against the
  // SLO or is released to `ready` for the real workers.
  for (;;) {
    auto wit = std::min_element(vworker_free_.begin(), vworker_free_.end());
    std::size_t best = kNone;
    double best_start = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const Shard& sh = shards_[s];
      if (sh.pending.empty()) continue;
      const Job& head = sh.pending.front();
      const double start =
          std::max({*wit, head.arrival_s, sh.busy_until_s});
      if (start < best_start) {
        best_start = start;
        best = s;
      }
    }
    if (best == kNone || best_start > now_s) return;

    if (opt_.elastic.enabled && elastic_next_eval_ <= best_start) {
      // Autoscaler boundaries fire in timeline order between job
      // commits: an evaluation at t_k happens before any job whose
      // modeled start is >= t_k, so the resize schedule is a pure
      // function of the submitted schedule (and the pool the next
      // commit pairs against may have changed width — re-pair).
      elastic_eval_locked(elastic_next_eval_);
      elastic_next_eval_ += opt_.elastic.eval_period_s;
      continue;
    }

    Shard& sh = shards_[best];
    Job job = std::move(sh.pending.front());
    sh.pending.pop_front();

    if (opt_.latency_slo_s > 0.0 &&
        best_start + opt_.virtual_cost_s > job.deadline_s) {
      // Can no longer meet the SLO: shed without occupying a worker.
      stats_.shed_deadline.fetch_add(1, std::memory_order_relaxed);
      continue;
    }

    job.start_s = best_start;
    job.done_s = best_start + opt_.virtual_cost_s;
    *wit = job.done_s;
    sh.busy_until_s = job.done_s;
    sh.ready.push_back(std::move(job));
    work_cv_.notify_one();
  }
}

void LocationService::measured_dispatch_locked(double now_s) {
  // measured_cost mode (the core::realtime wrapper): same deterministic
  // job selection as virtual_dispatch_locked, but each committed job
  // runs inline right here, on the producer thread, and the modeled
  // timeline advances by the measured pipeline wall time (scaled) —
  // the event-loop semantics of the original single-worker simulator.
  for (;;) {
    auto wit = std::min_element(vworker_free_.begin(), vworker_free_.end());
    std::size_t best = kNone;
    double best_start = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const Shard& sh = shards_[s];
      if (sh.pending.empty()) continue;
      const Job& head = sh.pending.front();
      const double start = std::max({*wit, head.arrival_s, sh.busy_until_s});
      if (start < best_start) {
        best_start = start;
        best = s;
      }
    }
    if (best == kNone || best_start > now_s) return;

    Shard& sh = shards_[best];
    Job job = std::move(sh.pending.front());
    sh.pending.pop_front();

    if (opt_.latency_slo_s > 0.0 &&
        best_start + estimated_cost_s() > job.deadline_s) {
      stats_.shed_deadline.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const auto t0 = std::chrono::steady_clock::now();
    const auto fix = system_->server().locate_frames(
        job.frames, subspace_for(*job.session));
    const double measured =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    update_cost_estimate(measured);
    const double processing = opt_.processing_scale * measured;
    job.start_s = best_start;
    job.done_s = best_start + processing;
    *wit = job.done_s;
    sh.busy_until_s = job.done_s;
    stats_.batch_occupancy.record(1.0);
    commit_locate(job, fix, std::max(0.0, best_start - job.arrival_s),
                  processing);
  }
}

void LocationService::ingest_locked(int client_id, core::FrameGroup frames,
                                    double frame_time_s,
                                    std::optional<geom::Vec2> truth) {
  const bool virt = clock_.is_virtual();
  const double arrival =
      virt ? frame_time_s + transport_s_ : clock_.now();
  if (virt) {
    clock_.set(frame_time_s);
    if (opt_.measured_cost) {
      // The realtime event loop processes ready jobs at the *transmit*
      // time of each frame, before enqueueing it: a job whose modeled
      // start falls inside the transport window stays queued and can
      // still coalesce this frame.
      measured_dispatch_locked(frame_time_s);
    } else {
      // Commit every modeled start up to this frame's server arrival:
      // later events cannot change those decisions, and a job that
      // started before `arrival` must no longer coalesce this frame.
      virtual_dispatch_locked(arrival);
    }
  }

  Shard& sh = shards_[shard_of(client_id)];
  Session& sess = session_locked(sh, client_id);
  auto& backlog = backlog_locked(sh);

  if (opt_.coalesce_per_client) {
    for (auto& queued : backlog) {
      if (queued.client_id != client_id) continue;
      queued.frames = std::move(frames);
      queued.frame_time_s = frame_time_s;
      queued.arrival_s = arrival;
      queued.deadline_s = frame_time_s + opt_.latency_slo_s;
      if (!virt)
        queued.deadline_s =
            arrival + std::max(0.0, opt_.latency_slo_s - transport_s_);
      queued.truth = truth;
      stats_.jobs_coalesced.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }

  if (backlog.size() >= opt_.shard_queue_capacity) {
    // Bounded queue: the oldest queued job makes room (newest data
    // wins, the same philosophy as coalescing) and is accounted.
    backlog.pop_front();
    stats_.shed_queue_full.fetch_add(1, std::memory_order_relaxed);
  }

  Job job;
  job.client_id = client_id;
  job.seq = sess.next_seq++;
  job.session = &sess;
  job.frames = std::move(frames);
  job.frame_time_s = frame_time_s;
  job.arrival_s = arrival;
  job.deadline_s = virt ? frame_time_s + opt_.latency_slo_s
                        : arrival + std::max(0.0, opt_.latency_slo_s -
                                                      transport_s_);
  job.truth = truth;
  backlog.push_back(std::move(job));
  stats_.jobs_enqueued.fetch_add(1, std::memory_order_relaxed);
  stats_.queue_depth.record(double(backlog.size()));
  if (opt_.elastic.enabled) {
    // Admission-side pressure window: depth seen by each enqueue, the
    // same signal the queue_depth histogram records. In virtual mode
    // this runs on the driver thread only, so the autoscaler's inputs
    // are deterministic.
    ++window_enqueued_;
    window_depth_sum_ += double(backlog.size());
    if (!virt) {
      const double now = clock_.now();
      if (now >= elastic_next_eval_) {
        elastic_eval_locked(now);
        elastic_next_eval_ = now + opt_.elastic.eval_period_s;
      }
    }
  }
  if (!virt) work_cv_.notify_one();
}

void LocationService::submit(const core::FrameEvent& ev) {
  start();
  stats_.frames_in.fetch_add(1, std::memory_order_relaxed);
  // The producer thread owns the channel and the AP buffers: workers
  // only ever touch pre-snapshotted frame groups.
  system_->transmit(ev.client_id, ev.position, ev.time_s);
  auto frames =
      system_->server().snapshot_frames(ev.client_id, ev.time_s + 1e-4);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    ingest_locked(ev.client_id, std::move(frames), ev.time_s, ev.position);
  }
  apply_pending_spawn();
}

void LocationService::submit_wire(double time_s,
                                  const std::vector<WireRecord>& records) {
  std::vector<TimedWireRecord> timed;
  timed.reserve(records.size());
  for (const auto& rec : records)
    timed.push_back({time_s, rec.ap_index, rec.bytes});
  ingest_wire(timed);
}

void LocationService::decode_partition(
    const std::vector<TimedWireRecord>& records, std::size_t d,
    std::size_t decoders, std::size_t num_aps) {
  for (const auto& rec : records) {
    if (rec.ap_index % decoders != d) continue;
    stats_.wire_records_in.fetch_add(1, std::memory_order_relaxed);
    auto frame = opt_.wire.decode(rec.bytes);
    if (!frame) {
      // A well-formed unversioned v0 record is a policy rejection (it
      // carries no sequence number), not corruption — account it
      // separately.
      const bool v0 = phy::WireFormat::header_version(
                          rec.bytes.data(), rec.bytes.size()) == 0;
      (v0 ? stats_.wire_version_rejected : stats_.decode_errors)
          .fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Malformed or mis-addressed records are counted, never trusted:
    // an unknown AP, an untagged client, a header claiming a different
    // source AP than the link it arrived on, or a capture whose element
    // ids are not the AP's (too few rows for its MUSIC row, or elements
    // it does not have).
    if (rec.ap_index >= num_aps || frame->client_id < 0 ||
        frame->source_ap != rec.ap_index ||
        frame->element_ids != ap_ingest_[rec.ap_index].elements) {
      stats_.decode_errors.fetch_add(1, std::memory_order_relaxed);
      continue;
    }

    ApIngestState& st = ap_ingest_[rec.ap_index];
    const std::uint64_t seq = frame->wire_seq;
    if (st.seen) {
      if (seq == st.last_seq) {
        stats_.wire_duplicates.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (seq < st.last_seq) {
        stats_.wire_replays.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (seq > st.last_seq + 1)
        stats_.wire_gaps.fetch_add(1, std::memory_order_relaxed);
    }
    st.seen = true;
    st.last_seq = seq;
    IngestEvent ev;
    ev.seq = seq;
    ev.client_id = frame->client_id;
    ev.ap_index = std::uint32_t(rec.ap_index);
    ev.time_s = rec.time_s;
    ev.frame = std::move(*frame);
    auto& ring = *ingest_rings_[shard_of(ev.client_id)];
    const std::size_t dropped = ring.push_overwrite(std::move(ev));
    if (dropped)
      stats_.ring_dropped.fetch_add(dropped, std::memory_order_relaxed);
  }
}

void LocationService::drain_ingest_rings() {
  std::vector<IngestEvent> events;
  for (auto& ring : ingest_rings_) {
    IngestEvent ev;
    while (ring->try_pop(ev)) events.push_back(std::move(ev));
  }
  if (events.empty()) return;
  // Canonical admission order: producer interleaving must not leak
  // into scheduling decisions. (time, ap, seq) is a total order over
  // surviving events — one AP's records have distinct seqs, two APs
  // are ordered by index — so the admitted job set is independent of
  // how many decoder threads filled the rings.
  std::sort(events.begin(), events.end(),
            [](const IngestEvent& a, const IngestEvent& b) {
              if (a.time_s != b.time_s) return a.time_s < b.time_s;
              if (a.ap_index != b.ap_index) return a.ap_index < b.ap_index;
              if (a.seq != b.seq) return a.seq < b.seq;
              return a.client_id < b.client_id;
            });

  const std::size_t num_aps = system_->num_aps();
  const double window =
      system_->server().options().suppression.max_group_spacing_s;
  std::unique_lock<std::mutex> lock(mutex_);
  std::size_t i = 0;
  while (i < events.size()) {
    // Records sharing a timestamp form one arrival group, exactly like
    // a single submit_wire() call.
    std::size_t j = i;
    while (j < events.size() && events[j].time_s == events[i].time_s) ++j;
    const double now = events[i].time_s;

    std::vector<int> clients_heard;
    for (std::size_t k = i; k < j; ++k) {
      IngestEvent& ev = events[k];
      stats_.wire_accepted.fetch_add(1, std::memory_order_relaxed);
      const int client = ev.client_id;
      Session& sess = session_locked(shards_[shard_of(client)], client);
      if (sess.history.size() < num_aps) sess.history.resize(num_aps);
      auto& hist = sess.history[ev.ap_index];
      hist.push_back(std::move(ev.frame));
      while (hist.size() > opt_.wire_history) hist.pop_front();
      while (!hist.empty() && hist.front().timestamp_s < now - window)
        hist.pop_front();
      if (std::find(clients_heard.begin(), clients_heard.end(), client) ==
          clients_heard.end())
        clients_heard.push_back(client);
    }

    for (int client : clients_heard) {
      stats_.frames_in.fetch_add(1, std::memory_order_relaxed);
      Session& sess = session_locked(shards_[shard_of(client)], client);
      core::FrameGroup frames(num_aps);
      for (std::size_t a = 0; a < sess.history.size(); ++a)
        frames[a].assign(sess.history[a].begin(), sess.history[a].end());
      // The engine stamps frame time itself: a hostile header timestamp
      // must not steer deadlines or tracker ordering.
      ingest_locked(client, std::move(frames), now, std::nullopt);
    }
    i = j;
  }
}

void LocationService::ingest_wire(const std::vector<TimedWireRecord>& records) {
  start();
  const std::size_t num_aps = system_->num_aps();
  if (ap_ingest_.size() < num_aps) ap_ingest_.resize(num_aps);
  for (std::size_t a = 0; a < num_aps; ++a)
    if (ap_ingest_[a].elements.empty())
      ap_ingest_[a].elements = system_->ap(int(a)).capture_elements();
  if (ingest_rings_.size() < opt_.shards) {
    ingest_rings_.reserve(opt_.shards);
    while (ingest_rings_.size() < opt_.shards)
      ingest_rings_.push_back(std::make_unique<core::MpscRing<IngestEvent>>(
          opt_.ingest_ring_capacity));
  }

  const std::size_t decoders = std::max<std::size_t>(1, opt_.decoder_threads);
  if (decoders == 1) {
    decode_partition(records, 0, 1, num_aps);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(decoders);
    for (std::size_t d = 0; d < decoders; ++d)
      threads.emplace_back([this, &records, d, decoders, num_aps] {
        decode_partition(records, d, decoders, num_aps);
      });
    for (auto& t : threads) t.join();
  }
  drain_ingest_rings();
  apply_pending_spawn();
}

ServiceReport LocationService::run_wire(
    const std::vector<TimedWireRecord>& records) {
  ingest_wire(records);
  flush();
  return finish_report(
      records.empty() ? 0.0 : records.back().time_s - records.front().time_s);
}

void LocationService::worker_loop(std::size_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    // Elastic shrink: surplus workers retire once their id falls off
    // the target. Worker 0 never exits (min_workers >= 1), so draining
    // always makes progress.
    if (!stopping_ && id >= active_target_) {
      worker_exited_[id] = 1;
      return;
    }
    // Claim the next unclaimed shard with released work, round-robin
    // from a shared cursor so one hot shard cannot starve the rest.
    std::size_t found = kNone;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const std::size_t s = (rr_cursor_ + i) % shards_.size();
      if (!shards_[s].claimed && !shards_[s].ready.empty()) {
        found = s;
        break;
      }
    }
    if (found == kNone) {
      if (stopping_) return;
      work_cv_.wait(lock);
      continue;
    }
    rr_cursor_ = (found + 1) % shards_.size();
    Shard& sh = shards_[found];
    // Drain whatever the shard has ready, up to batch_max, under one
    // claim, then run the jobs one by one in deque order, which keeps
    // each session's tracker updates in frame order. The jobs'
    // scheduling decisions (virtual stamps, shed verdicts) were made
    // per job before they reached `ready`, so the drain width never
    // changes results.
    std::vector<Job> drained;
    const std::size_t take = std::min(opt_.batch_max, sh.ready.size());
    drained.reserve(take);
    for (std::size_t b = 0; b < take; ++b) {
      drained.push_back(std::move(sh.ready.front()));
      sh.ready.pop_front();
    }
    sh.claimed = true;
    in_flight_ += drained.size();
    lock.unlock();

    stats_.batch_occupancy.record(double(drained.size()));
    for (Job& job : drained) execute(job);

    lock.lock();
    sh.claimed = false;
    in_flight_ -= drained.size();
    if (!sh.ready.empty()) work_cv_.notify_one();
    if (idle_locked()) idle_cv_.notify_all();
  }
}

void LocationService::execute(Job& job) {
  const bool virt = clock_.is_virtual();
  const double start = virt ? job.start_s : clock_.now();
  if (!virt && opt_.latency_slo_s > 0.0 &&
      start + estimated_cost_s() > job.deadline_s) {
    stats_.shed_deadline.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  const auto t0 = std::chrono::steady_clock::now();
  const auto fix = system_->server().locate_frames(
      job.frames, subspace_for(*job.session));
  const double measured =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!virt) update_cost_estimate(measured);
  commit_locate(job, fix, std::max(0.0, start - job.arrival_s),
                virt ? job.done_s - job.start_s : measured);
}

void LocationService::commit_locate(
    const Job& job, const std::optional<core::LocationEstimate>& fix,
    double wait_s, double processing_s) {
  stats_.queue_wait_ms.record(wait_s * 1e3);
  stats_.processing_ms.record(processing_s * 1e3);
  if (!fix) {
    stats_.locate_failures.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  ServiceFix out;
  out.client_id = job.client_id;
  out.seq = job.seq;
  out.frame_time_s = job.frame_time_s;
  out.queue_wait_s = wait_s;
  out.processing_s = processing_s;
  out.latency_s = clock_.is_virtual()
                      ? job.done_s - job.frame_time_s
                      : (clock_.now() - job.arrival_s) + transport_s_;
  out.position = fix->position;
  out.likelihood = fix->likelihood;
  if (opt_.tracked_fixes) {
    // The session's tracker: exclusive access is guaranteed because a
    // client's jobs run on one claimed shard at a time (or inline on
    // the producer thread in measured_cost mode).
    out.smoothed = job.session->tracker.update(fix->position, job.frame_time_s);
    out.tracker_rejected = job.session->tracker.last_rejected();
    if (out.tracker_rejected)
      stats_.tracker_rejects.fetch_add(1, std::memory_order_relaxed);
  } else {
    out.smoothed = fix->position;
  }
  if (job.truth) out.error_m = geom::distance(fix->position, *job.truth);
  stats_.e2e_ms.record(out.latency_s * 1e3);
  stats_.fixes_emitted.fetch_add(1, std::memory_order_relaxed);
  bus_.publish(out);
}

ServiceReport LocationService::finish_report(double duration_s) {
  ServiceReport rep;
  rep.fixes = bus_.drain_retained();
  std::sort(rep.fixes.begin(), rep.fixes.end(),
            [](const ServiceFix& a, const ServiceFix& b) {
              if (a.frame_time_s != b.frame_time_s)
                return a.frame_time_s < b.frame_time_s;
              if (a.client_id != b.client_id) return a.client_id < b.client_id;
              return a.seq < b.seq;
            });
  rep.duration_s = duration_s;
  rep.workers = opt_.workers;
  rep.pool_threads = core::ThreadPool::shared().size();
  rep.stats_json = stats_json();
  rep.frames_in = stats_.frames_in.load();
  rep.jobs_enqueued = stats_.jobs_enqueued.load();
  rep.jobs_coalesced = stats_.jobs_coalesced.load();
  rep.shed_queue_full = stats_.shed_queue_full.load();
  rep.shed_deadline = stats_.shed_deadline.load();
  rep.fixes_emitted = stats_.fixes_emitted.load();
  rep.locate_failures = stats_.locate_failures.load();
  rep.decode_errors = stats_.decode_errors.load();
  stop();
  return rep;
}

ServiceReport LocationService::run(
    const std::vector<core::FrameEvent>& schedule) {
  start();
  for (const auto& ev : schedule) submit(ev);
  flush();
  return finish_report(schedule.empty() ? 0.0
                                        : schedule.back().time_s -
                                              schedule.front().time_s);
}

std::size_t LocationService::width_locked() const {
  return clock_.is_virtual() ? vworker_free_.size() : active_target_;
}

void LocationService::elastic_eval_locked(double t) {
  const auto& e = opt_.elastic;
  const bool virt = clock_.is_virtual();
  const double mean =
      window_enqueued_ ? window_depth_sum_ / double(window_enqueued_) : 0.0;
  bool pressure = window_enqueued_ > 0 && mean >= e.grow_depth;
  if (!virt && !pressure) {
    // Wall mode folds in the batch-occupancy histogram (recorded by
    // the real workers, so off-limits to the deterministic virtual
    // path): consistently full drains mean the workers are saturated
    // even when admission depth looks shallow.
    const double cnt = double(stats_.batch_occupancy.count());
    const double sum = stats_.batch_occupancy.mean() * cnt;
    const double wcnt = cnt - occ_count_base_;
    if (wcnt > 0.0)
      pressure = (sum - occ_sum_base_) / wcnt >=
                 e.occupancy_grow_frac * double(opt_.batch_max);
    occ_count_base_ = cnt;
    occ_sum_base_ = sum;
  }
  // Work waiting *at the eval point*. In virtual mode evals fire
  // between job commits, so the job that triggered this eval is still
  // pending — but if it arrives after t it is future traffic, not
  // backlog, and must not veto a shrink during a sparse trickle.
  std::size_t backlog = 0;
  for (const auto& sh : shards_) {
    if (!virt) {
      backlog += sh.ready.size();
      continue;
    }
    for (const auto& job : sh.pending)
      if (job.arrival_s < t) ++backlog;
  }
  const bool idle =
      (window_enqueued_ == 0 || mean <= e.shrink_depth) && backlog == 0;
  window_enqueued_ = 0;
  window_depth_sum_ = 0.0;

  if (pressure) {
    ++grow_streak_;
    shrink_streak_ = 0;
  } else if (idle) {
    ++shrink_streak_;
    grow_streak_ = 0;
  } else {
    grow_streak_ = 0;
    shrink_streak_ = 0;
  }

  const std::size_t cur = width_locked();
  std::size_t next = cur;
  if (grow_streak_ >= e.hysteresis && cur < e.max_workers) {
    next = cur + 1;
    grow_streak_ = 0;
    stats_.elastic_grow.fetch_add(1, std::memory_order_relaxed);
  } else if (shrink_streak_ >= e.hysteresis && cur > e.min_workers) {
    next = cur - 1;
    shrink_streak_ = 0;
    stats_.elastic_shrink.fetch_add(1, std::memory_order_relaxed);
  }
  if (next == cur) return;
  resize_log_.push_back({t, cur, next});
  stats_.workers_now.store(next, std::memory_order_relaxed);
  if (virt) {
    // Grow: a new modeled worker comes free at the evaluation point,
    // not at t=0 — it must not start jobs in the past. Shrink only
    // fires with an empty backlog, so truncating the tail cancels no
    // committed work.
    vworker_free_.resize(next, t);
  } else {
    active_target_ = next;
    if (next > cur)
      pending_spawn_ = true;  // applied by apply_pending_spawn()
    else
      work_cv_.notify_all();  // surplus workers wake up and retire
  }
}

std::vector<LocationService::ResizeEvent> LocationService::elastic_log()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  return resize_log_;
}

std::size_t LocationService::worker_width() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return width_locked();
}

std::vector<int> LocationService::session_clients() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int> out;
  for (const auto& sh : shards_)
    for (const auto& [id, sess] : sh.sessions) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<LocationService::SessionState> LocationService::export_session(
    int client_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  Shard& sh = shards_[shard_of(client_id)];
  auto it = sh.sessions.find(client_id);
  if (it == sh.sessions.end()) return std::nullopt;
  // A queued or in-flight job holds a pointer into the session — the
  // caller must flush() first. Other clients on the same shard are
  // fine: map erase does not move their nodes.
  if (sh.claimed) return std::nullopt;
  for (const auto& j : sh.pending)
    if (j.client_id == client_id) return std::nullopt;
  for (const auto& j : sh.ready)
    if (j.client_id == client_id) return std::nullopt;

  Session& sess = it->second;
  SessionState st;
  st.client_id = client_id;
  st.next_seq = sess.next_seq;
  st.tracker = sess.tracker.save_state();
  st.history.reserve(sess.history.size());
  for (const auto& dq : sess.history) st.history.emplace_back(dq.begin(), dq.end());
  if (sess.subspace) {
    const std::size_t n = sess.subspace->size();
    st.subspace.reserve(n);
    for (std::size_t a = 0; a < n; ++a)
      st.subspace.push_back(sess.subspace->tracker(a)->export_state());
  }
  sh.sessions.erase(it);
  return st;
}

void LocationService::import_session(const SessionState& st) {
  std::lock_guard<std::mutex> lock(mutex_);
  Shard& sh = shards_[shard_of(st.client_id)];
  sh.sessions.erase(st.client_id);
  Session& sess = session_locked(sh, st.client_id);
  sess.next_seq = st.next_seq;
  sess.tracker.restore_state(st.tracker);
  sess.history.clear();
  sess.history.resize(st.history.size());
  for (std::size_t a = 0; a < st.history.size(); ++a)
    sess.history[a].assign(st.history[a].begin(), st.history[a].end());
  if (!st.subspace.empty() && opt_.subspace_tracking) {
    core::ClientSubspace* sub = subspace_for(sess);
    if (sub && sub->size() == st.subspace.size())
      for (std::size_t a = 0; a < st.subspace.size(); ++a)
        sub->tracker(a)->import_state(st.subspace[a]);
  }
}

}  // namespace arraytrack::service
