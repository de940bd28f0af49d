// Wall-clock benchmark of the served path.
//
// Drives service::LocationService exactly as deployed (wall clock,
// ServiceOptions defaults: 2 workers, batch_max 8, subspace tracking and
// the quantized sweep on) with pre-encoded wire-v1 AP records through
// ingest_wire(). One load thread is both the load generator and the
// fix receiver: it polls one FixBus subscriber. With --trace 1 it also
// runs the traced replay (replay.h), which gives the per-stage numbers.
//
//   served_bench --workload NAME --seed N --seconds S --trace 0|1
//                [--spans PATH] [--git-sha SHA] [--src-hash HASH]
//   served_bench --list
//
// The last line of standard output is one JSON object:
// {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/simd.h"
#include "core/thread_pool.h"
#include "corpus.h"
#include "geom/polygon.h"
#include "replay.h"

using namespace arraytrack;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

/// Sleep between empty polls of the subscriber: the resolution of every
/// receive timestamp.
constexpr double kPollS = 100e-6;
/// Set-ups are timed in rounds spread over the run: one before the
/// window, one at each slice boundary inside it, one after it. On a
/// shared virtual host the CPU speed can change by ~40% for seconds at a
/// time, so a single burst of set-ups measures whichever phase it lands
/// in; rounds that span the window see the host the way the window does.
constexpr int kSetupsPerRound = 8;
/// Length of a window slice; the window has round(seconds / kSliceS).
constexpr double kSliceS = 2.5;
/// How long the load thread waits for outstanding fixes after the window.
constexpr double kDrainTimeoutS = 20.0;
/// Sub-window length for the tail percentile (see quiet_p99).
constexpr double kSubWindowS = 0.5;
/// Record and capture times start here on the served timeline.
constexpr double kBaseS = 10.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string spans;
  std::string git_sha = "none";
  std::string src_hash = "none";
  bool list = false;
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Linear-interpolated percentile, p in [0, 100]; 0 for no samples.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * double(v.size() - 1);
  const std::size_t lo = std::size_t(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - double(lo);
  return (1.0 - frac) * v[lo] + frac * v[hi];
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--list") {
      a->list = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (k == "--workload")
      a->workload = v;
    else if (k == "--seed")
      a->seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds")
      a->seconds = std::strtod(v, nullptr);
    else if (k == "--trace")
      a->trace = std::atoi(v);
    else if (k == "--spans")
      a->spans = v;
    else if (k == "--git-sha")
      a->git_sha = v;
    else if (k == "--src-hash")
      a->src_hash = v;
    else
      return false;
  }
  return a->list || (!a->workload.empty() && a->seconds > 0.0 &&
                     (a->trace == 0 || a->trace == 1));
}

/// Each of these silently changes the served path.
const char* override_set() {
  for (const char* name :
       {"ARRAYTRACK_BATCH", "ARRAYTRACK_QUANT", "ARRAYTRACK_EXACT_EVD",
        "ARRAYTRACK_FORCE_SCALAR", "ARRAYTRACK_SIMD"})
    if (std::getenv(name) != nullptr) return name;
  return nullptr;
}

/// The served process: what set-up builds and the window drives.
struct Served {
  std::unique_ptr<core::System> sys;
  // Declared after `sys`, so it is destroyed (workers joined) first.
  std::unique_ptr<service::LocationService> svc;
};

/// System + AP calibration + steering tables + service start + a
/// warm-up locate that fills the bearing-LUT caches.
void set_up(const Workload& wl, const testbed::OfficeTestbed& tb,
            const core::FrameGroup& warm, Served* out) {
  out->sys = make_system(wl, tb, served_config());
  out->svc = std::make_unique<service::LocationService>(
      out->sys.get(), service::ServiceOptions{});
  if (wl.queries)
    for (const auto& r : zone_rects())
      out->svc->add_zone(geom::Polygon::rectangle(r));
  out->svc->start();
  (void)out->sys->server().locate_frames(warm);
}

struct Pending {
  double frame_time_s = 0.0;
  double due_s = 0.0;  // relative to the window start
  geom::Vec2 truth;
};

struct ServedResult {
  std::size_t jobs_sent = 0;
  std::size_t records_sent = 0;
  std::size_t fixes = 0;
  std::size_t bad_fixes = 0;   // non-finite or outside the floor
  std::size_t unmatched = 0;   // fixes or jobs that did not pair up
  bool timed_out = false;
  double end_s = 0.0;
  double cpu_ms_per_fix = 0.0;
  std::vector<double> latency_ms;
  std::vector<double> latency_due_s;  // parallel to latency_ms
  std::vector<double> error_cm;
  std::vector<double> late_ms;
};

bool finite_fix(const delivery::Fix& f) {
  return std::isfinite(f.position.x) && std::isfinite(f.position.y) &&
         std::isfinite(f.smoothed.x) && std::isfinite(f.smoothed.y) &&
         std::isfinite(f.likelihood);
}

/// The measured window: open loop sends each job when it is due;
/// closed loop keeps `outstanding` jobs in flight and sends the next
/// when a fix arrives. Runs until every sent job is answered.
///
/// The window is cut into `slices` equal parts. At each inner boundary
/// the load thread stops sending, waits until every sent job is
/// answered, and calls `pause`; the window clock (and with it the
/// open-loop timeline) and the CPU accounting skip the pause.
ServedResult drive(const Workload& wl, const Corpus& corpus,
                   service::LocationService& svc, std::size_t num_aps,
                   std::size_t clients, double seconds,
                   const geom::Rect& floor, int slices,
                   const std::function<void()>& pause) {
  ServedResult r;
  delivery::SubscribeOptions sopt;
  sopt.capacity = 1 << 16;
  sopt.zone_events = false;
  sopt.label = "perfbench";
  auto sub = svc.bus().subscribe(sopt);

  const bool open = wl.loop == Loop::kOpen;
  const std::size_t cycle = corpus.jobs.size();
  auto job_of = [&](std::size_t g) -> const Job& {
    return corpus.jobs[g % cycle];
  };
  auto offset_of = [&](std::size_t g) {
    return kBaseS + double(g / cycle) * corpus.period_s;
  };
  auto due_of = [&](std::size_t g) {
    return offset_of(g) - kBaseS + job_of(g).t;
  };
  std::size_t open_jobs = 0;
  if (open)
    while (due_of(open_jobs) < seconds) ++open_jobs;

  Sender sender(num_aps);
  std::vector<std::deque<Pending>> pending(clients);
  std::size_t outstanding = 0;
  std::deque<double> freed;  // closed loop: when each free slot opened
  std::size_t next = 0;
  auto prepared = sender.encode(job_of(0), offset_of(0));

  const auto& st = svc.stats();
  const double cpu_thread0 = thread_cpu_s();
  const double cpu_proc0 = process_cpu_s();
  double cpu_in_service = 0.0;
  const auto start = Clock::now();
  double last_drain = 0.0;
  double paused_s = 0.0, paused_proc = 0.0, paused_thread = 0.0;
  auto now_w = [&] { return seconds_since(start) - paused_s; };
  int boundary_k = 1;
  auto boundary = [&] {
    return boundary_k < slices ? seconds * boundary_k / slices : seconds;
  };

  const std::size_t zones = zone_rects().size();
  auto send = [&](double due) {
    r.late_ms.push_back((now_w() - due) * 1e3);
    const Job& job = job_of(next);
    const double now_s = prepared.front().time_s;
    const double c0 = thread_cpu_s();
    svc.ingest_wire(prepared);
    if (wl.queries) {
      const QueryPlan q = query_plan(next, clients, zones);
      std::size_t sink = svc.latest(q.latest_client).has_value();
      if (q.trajectory_client >= 0)
        sink += svc.trajectory(q.trajectory_client, now_s - 2.0, now_s).size();
      if (q.zone >= 0) sink += svc.zone_occupancy(q.zone).size();
      (void)sink;
    }
    cpu_in_service += thread_cpu_s() - c0;
    r.records_sent += prepared.size();
    pending[std::size_t(job.client)].push_back({now_s, due, job.truth});
    ++outstanding;
    ++r.jobs_sent;
    ++next;
    prepared = sender.encode(job_of(next), offset_of(next));
  };

  auto poll = [&] {
    bool any = false;
    delivery::Event ev;
    while (sub->poll(ev)) {
      any = true;
      const double t = now_w();
      const delivery::Fix& f = ev.fix;
      ++r.fixes;
      if (!finite_fix(f) || !floor.contains(f.position)) ++r.bad_fixes;
      if (f.client_id < 0 || std::size_t(f.client_id) >= clients) {
        ++r.unmatched;
        continue;
      }
      auto& q = pending[std::size_t(f.client_id)];
      // A job with no fix (shed or failed) is accounted by the service;
      // skip past it.
      while (!q.empty() && q.front().frame_time_s < f.frame_time_s) {
        q.pop_front();
        --outstanding;
        ++r.unmatched;
      }
      if (q.empty() || q.front().frame_time_s != f.frame_time_s) {
        ++r.unmatched;
        continue;
      }
      r.latency_ms.push_back((t - q.front().due_s) * 1e3);
      r.latency_due_s.push_back(q.front().due_s);
      r.error_cm.push_back(geom::distance(f.position, q.front().truth) * 100.0);
      q.pop_front();
      --outstanding;
      if (!open) freed.push_back(t);
    }
    return any;
  };

  for (;;) {
    bool acted = false;
    if (open) {
      while (next < open_jobs && due_of(next) <= now_w() &&
             due_of(next) < boundary()) {
        send(due_of(next));
        acted = true;
      }
    } else {
      // A client waits for its fix before sending its next burst, so
      // no job is coalesced into one still queued.
      while (outstanding < wl.outstanding && now_w() < boundary() &&
             pending[std::size_t(job_of(next).client)].empty()) {
        double due = now_w();
        if (!freed.empty()) {
          due = freed.front();
          freed.pop_front();
        }
        send(due);
        acted = true;
      }
    }
    acted = poll() || acted;
    const double t = now_w();
    if (t - last_drain > 0.05) {
      // A consumer drains the catch-all buffer; otherwise it grows
      // with every fix and memory measures run length.
      (void)svc.bus().drain_retained();
      last_drain = t;
    }
    // Shed or failed jobs never answer; the service is idle once it has
    // accounted every job and every emitted fix has been received.
    const bool accounted =
        st.jobs_enqueued.load() ==
            st.shed_queue_full.load() + st.shed_deadline.load() +
                st.locate_failures.load() + st.fixes_emitted.load() &&
        r.fixes == st.fixes_emitted.load();
    const bool idle = outstanding == 0 || accounted;
    // Open loop pauses before the boundary, so no job is sent late.
    const bool slice_sent = open ? next >= open_jobs || due_of(next) >= boundary()
                                 : t >= boundary();
    if (boundary_k < slices && slice_sent && idle) {
      const auto p0 = Clock::now();
      const double proc0 = process_cpu_s(), thread0 = thread_cpu_s();
      pause();
      paused_proc += process_cpu_s() - proc0;
      paused_thread += thread_cpu_s() - thread0;
      paused_s += seconds_since(p0);
      ++boundary_k;
      freed.clear();  // slots freed before the pause are not waited on
      continue;
    }
    const bool sent_all = open ? next >= open_jobs : t >= seconds;
    if (sent_all && idle) break;
    if (t > seconds + kDrainTimeoutS) {
      r.timed_out = true;
      break;
    }
    if (!acted) {
      double wake = t + kPollS;
      if (open && next < open_jobs) wake = std::min(wake, due_of(next));
      if (wake > t)
        std::this_thread::sleep_for(std::chrono::duration<double>(wake - t));
    }
  }
  r.end_s = now_w();
  const double proc_cpu = process_cpu_s() - cpu_proc0 - paused_proc;
  const double load_outside =
      (thread_cpu_s() - cpu_thread0 - paused_thread) - cpu_in_service;
  r.cpu_ms_per_fix =
      r.fixes ? (proc_cpu - load_outside) / double(r.fixes) * 1e3 : 0.0;

  svc.flush();
  poll();
  (void)svc.bus().drain_retained();
  if (sub->shed() != 0) r.unmatched += std::size_t(sub->shed());
  svc.bus().unsubscribe(sub);
  return r;
}

/// Tail latency robust to the host: the p99 of every half-second
/// sub-window (by due time), then the lower quartile of those. This
/// host's vCPUs stall for 3-10 ms about once a second, which delays
/// ~1% of fixes — exactly the pooled p99 — so a pooled p99 measures
/// the neighbours. A sub-window without a stall gives the service's
/// own p99; the lower quartile picks one as long as a quarter of the
/// sub-windows are clean. `min_n` gets the smallest sub-window's count.
double quiet_p99(const ServedResult& r, double seconds, std::size_t* min_n) {
  const int n = std::max(1, int(std::lround(seconds / kSubWindowS)));
  std::vector<std::vector<double>> slices(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < r.latency_ms.size(); ++i) {
    const int k = int(r.latency_due_s[i] / seconds * n);
    slices[std::size_t(std::clamp(k, 0, n - 1))].push_back(r.latency_ms[i]);
  }
  std::vector<double> p99s;
  *min_n = r.latency_ms.size();
  for (const auto& sl : slices) {
    p99s.push_back(percentile(sl, 99));
    *min_n = std::min(*min_n, sl.size());
  }
  return percentile(p99s, 25);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string metrics_json(const std::vector<Metric>& ms, bool* finite) {
  std::string out = "{";
  char buf[256];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    double v = ms[i].value;
    if (!std::isfinite(v)) {
      *finite = false;
      v = 0.0;
    }
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", ms[i].name.c_str(), v, ms[i].unit);
    out += buf;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: served_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans PATH] [--git-sha SHA] "
                 "[--src-hash HASH] | --list\n");
    return 2;
  }
  if (args.list) {
    for (const auto& wl : workloads()) std::printf("%s\n", wl.name.c_str());
    return 0;
  }
  if (const char* env = override_set()) {
    std::fprintf(stderr,
                 "served_bench: %s is set; it changes the served path, so no "
                 "result is produced. Unset it and rerun.\n",
                 env);
    return 2;
  }
  const Workload* wl = find_workload(args.workload);
  if (!wl) {
    std::fprintf(stderr, "served_bench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);  // 1 us sleep slack

  const auto tb = testbed::OfficeTestbed::standard();
  const std::size_t clients = wl->walking ? wl->walkers : tb.clients.size();
  // Creates the process-wide pool now, so no set-up pays for it.
  const std::size_t pool_width = core::ThreadPool::shared().size();

  if (wl->loop == Loop::kOpen)
    std::printf("perfbench: workload=%s open loop rate=%g jobs/s", wl->name.c_str(),
                wl->rate_hz);
  else
    std::printf("perfbench: workload=%s closed loop outstanding=%zu",
                wl->name.c_str(), wl->outstanding);
  std::printf(" seed=%llu seconds=%g\n",
              static_cast<unsigned long long>(args.seed), args.seconds);

  const auto gen0 = Clock::now();
  const Corpus corpus = make_corpus(*wl, tb, args.seed);
  std::printf("generator: %zu jobs per %.3f s cycle, %.2f s to generate\n",
              corpus.jobs.size(), corpus.period_s, seconds_since(gen0));

  // Warm-up input: the first job's records, decoded as the service
  // would decode them.
  core::FrameGroup warm(wl->ap_sites.size());
  {
    Sender s(wl->ap_sites.size());
    phy::WireFormat wire;
    for (const auto& rec : s.encode(corpus.jobs.front(), kBaseS))
      warm[rec.ap_index].push_back(*wire.decode(rec.bytes));
  }

  // A round's median drops a set-up that a host stall hit; the mean over
  // rounds weighs every part of the run alike, as the window's rates do
  // (a median over rounds would jump between the host's speed phases).
  std::vector<double> round_medians;
  auto setup_round = [&](Served* out) {
    std::vector<double> times;
    for (int i = 0; i < kSetupsPerRound; ++i) {
      out->svc.reset();  // tear-down is not set-up time
      out->sys.reset();
      const auto t0 = Clock::now();
      set_up(*wl, tb, warm, out);
      times.push_back(seconds_since(t0));
    }
    round_medians.push_back(percentile(times, 50));
  };

  Served served;  // the last set-up of the first round is served
  setup_round(&served);
  const int slices = std::max(1, int(std::lround(args.seconds / kSliceS)));
  const ServedResult r =
      drive(*wl, corpus, *served.svc, wl->ap_sites.size(), clients,
            args.seconds, tb.plan.bounds(), slices, [&] {
              Served scratch;
              setup_round(&scratch);
            });
  // Includes one set-up System beside the served one (the inner rounds).
  const double rss_mb = peak_rss_mb();
  {
    Served scratch;
    setup_round(&scratch);
  }
  double setup_s = 0.0;
  for (double m : round_medians) setup_s += m / double(round_medians.size());

  const auto& st = served.svc->stats();
  const std::uint64_t wire_in = st.wire_records_in.load();
  const bool records_close =
      wire_in == r.records_sent &&
      wire_in == st.wire_accepted.load() + st.decode_errors.load() +
                     st.wire_version_rejected.load() +
                     st.wire_duplicates.load() + st.wire_replays.load() +
                     st.ring_dropped.load();
  const bool frames_close =
      st.frames_in.load() == st.jobs_coalesced.load() + st.jobs_enqueued.load() &&
      st.jobs_enqueued.load() == st.shed_queue_full.load() +
                                     st.shed_deadline.load() +
                                     st.locate_failures.load() +
                                     st.fixes_emitted.load();
  const bool delivered_all = r.fixes == st.fixes_emitted.load();
  const std::uint64_t failed = st.shed_queue_full.load() +
                               st.shed_deadline.load() +
                               st.locate_failures.load() +
                               st.decode_errors.load() + st.ring_dropped.load();
  bool correct = records_close && frames_close && delivered_all &&
                 r.bad_fixes == 0 && !r.timed_out && r.fixes > 0;
  // Jobs the service accounted as shed/failed are already in `failed`;
  // any other unmatched fix or job is a correctness violation.
  if (r.unmatched > failed) correct = false;

  std::printf(
      "fingerprint: {\"cores\": %u, \"pool_width\": %zu, \"simd\": \"%s\", "
      "\"build_type\": \"%s\", \"git_sha\": \"%s\", \"src_sha256\": \"%s\", "
      "\"workers\": %llu, \"batch_max\": %llu}\n",
      std::thread::hardware_concurrency(), pool_width,
      core::simd::name(core::simd::active()), PERFBENCH_BUILD_TYPE,
      args.git_sha.c_str(), args.src_hash.c_str(),
      static_cast<unsigned long long>(st.workers_now.load()),
      static_cast<unsigned long long>(st.batch_max.load()));
  std::printf("setup_s: mean of %zu round medians (%d set-ups each) = %.6f (",
              round_medians.size(), kSetupsPerRound, setup_s);
  for (std::size_t i = 0; i < round_medians.size(); ++i)
    std::printf("%s%.6f", i ? " " : "", round_medians[i]);
  std::printf(")\n");
  std::printf(
      "served: jobs=%zu records=%zu fixes=%zu window=%.3f s drained at "
      "%.3f s\n",
      r.jobs_sent, r.records_sent, r.fixes, args.seconds, r.end_s);
  std::size_t slice_n = 0;
  const double p99_ms = quiet_p99(r, args.seconds, &slice_n);
  std::printf(
      "fix_latency: n=%zu p50=%.4f ms p99=%.4f ms (lower quartile of "
      "half-second p99s, >= %zu samples each; pooled p99 %.4f ms) "
      "poll_granularity=%.3f ms\n",
      r.latency_ms.size(), percentile(r.latency_ms, 50), p99_ms, slice_n,
      percentile(r.latency_ms, 99), kPollS * 1e3);
  std::printf(
      "accounting: wire_in=%llu accepted=%llu decode_errors=%llu "
      "ring_dropped=%llu frames_in=%llu coalesced=%llu enqueued=%llu "
      "shed_queue_full=%llu shed_deadline=%llu locate_failures=%llu "
      "fixes_emitted=%llu failed_frac=%.6f\n",
      static_cast<unsigned long long>(wire_in),
      static_cast<unsigned long long>(st.wire_accepted.load()),
      static_cast<unsigned long long>(st.decode_errors.load()),
      static_cast<unsigned long long>(st.ring_dropped.load()),
      static_cast<unsigned long long>(st.frames_in.load()),
      static_cast<unsigned long long>(st.jobs_coalesced.load()),
      static_cast<unsigned long long>(st.jobs_enqueued.load()),
      static_cast<unsigned long long>(st.shed_queue_full.load()),
      static_cast<unsigned long long>(st.shed_deadline.load()),
      static_cast<unsigned long long>(st.locate_failures.load()),
      static_cast<unsigned long long>(st.fixes_emitted.load()),
      r.jobs_sent ? double(failed) / double(r.jobs_sent) : 0.0);
  std::printf(
      "checks: records_close=%d frames_close=%d delivered_all=%d "
      "bad_fixes=%zu unmatched=%zu timed_out=%d\n",
      records_close, frames_close, delivered_all, r.bad_fixes, r.unmatched,
      r.timed_out);

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = {
        {"setup_s", setup_s, "s"},
        {"fixes_per_s", double(r.fixes) / r.end_s, "1/s"},
        {"fix_latency_p50_ms", percentile(r.latency_ms, 50), "ms"},
        {"fix_latency_p99_ms", p99_ms, "ms"},
        {"cpu_ms_per_fix", r.cpu_ms_per_fix, "ms"},
        {"median_error_cm", percentile(r.error_cm, 50), "cm"},
        {"p90_error_cm", percentile(r.error_cm, 90), "cm"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  } else {
    const double frames_in = double(st.frames_in.load());
    const double enqueued = double(st.jobs_enqueued.load());
    const double late_p99 = percentile(r.late_ms, 99);
    metrics = {
        {"service.queue_wait_p50_ms", st.queue_wait_ms.percentile(50), "ms"},
        {"service.queue_wait_p99_ms", st.queue_wait_ms.percentile(99), "ms"},
        {"service.processing_p50_ms", st.processing_ms.percentile(50), "ms"},
        {"service.batch_occupancy_mean", st.batch_occupancy.mean(), "jobs"},
        {"service.coalesced_frac",
         frames_in > 0 ? double(st.jobs_coalesced.load()) / frames_in : 0.0,
         "ratio"},
        {"service.shed_frac",
         enqueued > 0 ? double(st.jobs_shed()) / enqueued : 0.0, "ratio"},
        {"driver.gen_late_p99_ms", late_p99, "ms"},
    };
    // The served process is done; the replay runs alone.
    served.svc.reset();
    served.sys.reset();
    const ReplayResult rp = run_replay(*wl, tb, corpus, args.spans);
    const double fixes = double(std::max<std::size_t>(1, rp.fixes));
    for (int s = 0; s < trace::kStageCount; ++s) {
      const std::string n = trace::stage_name(s);
      const auto& t = rp.stages[std::size_t(s)];
      metrics.push_back({n + ".us_per_fix", double(t.self_ns) * 1e-3 / fixes, "us"});
      metrics.push_back({n + ".calls_per_fix", double(t.calls) / fixes, "count"});
      metrics.push_back(
          {n + ".allocs_per_fix", double(t.self_allocs) / fixes, "count"});
    }
    const double evd = double(rp.evd_full + rp.evd_tracked);
    metrics.push_back(
        {"linalg.evd_full_per_fix", double(rp.evd_full) / fixes, "count"});
    metrics.push_back({"linalg.evd_tracked_frac",
                       evd > 0 ? double(rp.evd_tracked) / evd : 0.0, "ratio"});
    metrics.push_back(
        {"linalg.evd_reseed_per_fix", double(rp.evd_reseed) / fixes, "count"});
    const double cells = double(rp.quant_pruned + rp.quant_refined);
    metrics.push_back({"core.localize.quant_refined_frac",
                       cells > 0 ? double(rp.quant_refined) / cells : 0.0,
                       "ratio"});
    const double overhead =
        rp.untraced_s > 0 ? rp.traced_s / rp.untraced_s - 1.0 : 0.0;
    metrics.push_back({"driver.trace_overhead_frac", overhead, "ratio"});

    // The stage spans must cover the traced job time: what no span
    // covers is loop glue in this file (history, grouping, tagging).
    const double coverage = rp.traced_s > 0 ? rp.self_sum_s / rp.traced_s : 0.0;
    std::printf(
        "replay: jobs=%zu fixes=%zu mismatches=%zu traced=%.4f s "
        "untraced=%.4f s stage_self_sum=%.4f s coverage=%.4f "
        "self_sum_vs_untraced=%+.4f trace_overhead=%+.4f\n",
        rp.jobs, rp.fixes, rp.mismatches, rp.traced_s, rp.untraced_s,
        rp.self_sum_s, coverage,
        rp.untraced_s > 0 ? rp.self_sum_s / rp.untraced_s - 1.0 : 0.0,
        overhead);
    if (rp.mismatches != 0 || rp.fixes == 0 || coverage < 0.95) correct = false;
  }

  bool finite = true;
  const std::string mj = metrics_json(metrics, &finite);
  if (!finite) correct = false;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", std::max<std::size_t>(1, r.jobs_sent),
              static_cast<unsigned long long>(failed), mj.c_str());
  return 0;
}
