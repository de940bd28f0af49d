// Extension bench: end-to-end fix latency under load (the operational
// version of Fig. 21). Frames arrive on Poisson schedules; the
// single-worker server model accounts detection, serialization, bus
// and measured processing time, plus queueing. Run once at this
// machine's speed and once with processing scaled ~5x to approximate
// the paper's Matlab backend.
#include "bench_util.h"
#include "service/realtime.h"
#include "core/simd.h"
#include "phy/mac.h"
#include "testbed/office.h"

using namespace arraytrack;

namespace {

core::RealtimeReport run_case(const testbed::OfficeTestbed& tb, double scale,
                              const char* label) {
  core::SystemConfig cfg;
  core::System sys(&tb.plan, cfg);
  for (const auto& site : tb.ap_sites)
    sys.add_ap(site.position, site.orientation_rad);

  phy::TrafficSource traffic(tb.clients.size(), 4.0, 99);
  std::vector<core::FrameEvent> schedule;
  for (const auto& ev : traffic.schedule(4.0))
    schedule.push_back(
        {ev.time_s, ev.client_id, tb.clients[std::size_t(ev.client_id)]});

  core::RealtimeOptions opt;
  opt.processing_scale = scale;
  core::RealtimeSimulator sim(&sys, opt);
  const auto report = sim.run(schedule);

  std::printf(
      "%s: %zu frames -> %zu fixes (%zu coalesced), %.0f fixes/s, "
      "latency p50/p95 = %.0f/%.0f ms, median error %.0f cm "
      "(pool width %zu)\n",
      label, report.frames_in, report.fixes.size(), report.jobs_coalesced,
      report.fix_rate_hz(), report.latency_percentile(50) * 1e3,
      report.latency_percentile(95) * 1e3, report.median_error_m() * 100.0,
      report.pool_threads);
  return report;
}

}  // namespace

int main() {
  bench::banner("Extension: realtime", "fix latency under Poisson load");
  bench::paper_note(
      "4.4: ~100 ms per fix end-to-end (excluding bus) on the paper's "
      "Matlab backend; 30 ms of that is WARP-PC bus latency we model "
      "verbatim");

  const auto tb = testbed::OfficeTestbed::standard();
  const auto native = run_case(tb, 1.0, "C++ backend (this machine)   ");
  run_case(tb, 5.0, "~Matlab-speed backend (x5 Tp)");

  // Perf trajectory telemetry from the native-speed run: end-to-end
  // fix latency under Poisson load on the 6-AP office testbed.
  bench::write_bench_json(
      "BENCH_ext_realtime.json", "ext_realtime",
      {{"median_fix_latency_ms", native.latency_percentile(50) * 1e3},
       {"p95_fix_latency_ms", native.latency_percentile(95) * 1e3},
       {"fixes_per_sec", native.fix_rate_hz()},
       {"frames_in", double(native.frames_in)},
       {"jobs_coalesced", double(native.jobs_coalesced)},
       {"median_error_cm", native.median_error_m() * 100.0},
       {"threads", double(native.pool_threads)}},
      {{"simd_level", core::simd::name(core::simd::active())}});
  return 0;
}
