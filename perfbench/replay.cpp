#include "replay.h"

#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "aoa/covariance.h"
#include "aoa/symmetry.h"
#include "core/pipeline.h"
#include "core/suppression.h"
#include "delivery/bus.h"
#include "geom/polygon.h"

namespace perfbench {

using namespace arraytrack;
using trace::Span;

namespace {

/// One AP's stage objects, built the way ApProcessor builds its own
/// (its symmetry resolver is private, so the replay makes a twin).
struct ApStages {
  const phy::AccessPointFrontEnd* ap = nullptr;
  std::unique_ptr<core::ApProcessor> proc;
  std::unique_ptr<aoa::SymmetryResolver> resolver;
  std::size_t row = 0;
};

struct Context {
  const core::ArrayTrackServer* server = nullptr;
  std::vector<ApStages> aps;
  phy::WireFormat wire;
  service::ServiceOptions defaults;
  double window_s = 0.0;
  bool queries = false;
  std::size_t clients = 0;
  std::size_t zones = 0;
  std::uint64_t query_sink = 0;
};

/// Per-client state of one replay copy: what the service keeps per
/// session, plus the bus it publishes to.
struct Copy {
  std::map<int, std::vector<std::deque<phy::FrameCapture>>> history;
  std::map<int, std::unique_ptr<core::ClientSubspace>> subspace;
  std::map<int, core::LocationTracker> tracker;
  std::map<int, std::uint64_t> next_seq;
  linalg::SubspaceCounters counters;
  delivery::FixBus bus;
};

/// ApProcessor::process() for one frame, one span per stage.
aoa::AoaSpectrum traced_spectrum(const ApStages& st,
                                 const core::PipelineOptions& opt,
                                 const phy::FrameCapture& frame,
                                 linalg::SubspaceTracker* tracker,
                                 trace::Tracer* tr) {
  linalg::CMatrix samples;
  {
    Span s(tr, trace::kCalibrate);
    samples = st.ap->calibrated_samples(frame);
  }
  if (samples.rows() < st.row)
    throw std::runtime_error("replay: capture smaller than the MUSIC row");
  linalg::CMatrix row_cov;
  {
    Span s(tr, trace::kCovariance);
    row_cov = aoa::sample_covariance(samples.block(0, 0, st.row, samples.cols()));
  }
  aoa::AoaSpectrum spec;
  {
    Span s(tr, trace::kMusic);
    spec = st.proc->music_spectrum(row_cov, tracker);
  }
  if (opt.geometry_weighting) {
    Span s(tr, trace::kWeighting);
    spec.apply_geometry_weighting(opt.weighting_soft_floor);
  }
  if (st.resolver && samples.rows() > st.row) {
    Span s(tr, trace::kSymmetry);
    linalg::CMatrix full_cov;
    {
      Span c(tr, trace::kCovariance);
      full_cov = aoa::sample_covariance(samples);
    }
    st.resolver->resolve_per_peak(full_cov, &spec);
  }
  {
    Span s(tr, trace::kBlur);
    st.proc->finish_spectrum(spec);
  }
  return spec;
}

/// ArrayTrackServer::locate_frames() composed from the stage calls in
/// the order spectra_from_frames + Localizer::locate make them.
std::optional<core::LocationEstimate> traced_locate(
    const Context& ctx, const core::FrameGroup& frames,
    core::ClientSubspace* subspace, trace::Tracer* tr) {
  const core::ServerOptions& opt = ctx.server->options();
  std::vector<core::ApSpectrum> spectra;
  const std::size_t n = std::min(ctx.aps.size(), frames.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& fr = frames[i];
    if (fr.empty()) continue;
    const std::size_t use = std::min(fr.size(), opt.suppression.max_group);
    linalg::SubspaceTracker* tracker =
        subspace != nullptr ? subspace->tracker(i) : nullptr;
    std::vector<aoa::AoaSpectrum> group;
    group.reserve(use);
    for (std::size_t k = fr.size() - use; k < fr.size(); ++k)
      group.push_back(
          traced_spectrum(ctx.aps[i], opt.pipeline, fr[k], tracker, tr));
    core::ApSpectrum tagged;
    {
      Span s(tr, trace::kSuppress);
      tagged.spectrum = opt.multipath_suppression
                            ? core::suppress_multipath(group, opt.suppression)
                            : group.front();
      tagged.spectrum.normalize();
    }
    tagged.ap_position = ctx.aps[i].ap->array().position();
    tagged.orientation_rad = ctx.aps[i].ap->array().orientation();
    spectra.push_back(std::move(tagged));
  }
  if (spectra.empty()) return std::nullopt;
  Span s(tr, trace::kLocalize);
  return ctx.server->localizer().locate(spectra);
}

/// One job as the service runs it: decode, per-session history, the
/// pipeline (traced composition, or locate_frames when `tr` is null),
/// session tracker, publish, and the workload's read queries.
std::optional<core::LocationEstimate> run_job(
    Context& ctx, Copy& c, const Job& job, std::size_t k,
    const std::vector<service::LocationService::TimedWireRecord>& recs,
    trace::Tracer* tr) {
  const std::size_t num_aps = ctx.aps.size();
  auto& hist = c.history[job.client];
  if (hist.size() < num_aps) hist.resize(num_aps);
  const double now = recs.front().time_s;
  for (const auto& rec : recs) {
    std::optional<phy::FrameCapture> frame;
    {
      Span s(tr, trace::kDecode);
      frame = ctx.wire.decode(rec.bytes);
    }
    if (!frame) throw std::runtime_error("replay: undecodable record");
    auto& h = hist[rec.ap_index];
    h.push_back(std::move(*frame));
    while (h.size() > ctx.defaults.wire_history) h.pop_front();
    while (!h.empty() && h.front().timestamp_s < now - ctx.window_s)
      h.pop_front();
  }
  core::FrameGroup group(num_aps);
  for (std::size_t a = 0; a < num_aps; ++a)
    group[a].assign(hist[a].begin(), hist[a].end());

  auto& sub = c.subspace[job.client];
  if (!sub)
    sub = std::make_unique<core::ClientSubspace>(
        ctx.server->make_client_subspace(&c.counters));

  const auto fix = tr ? traced_locate(ctx, group, sub.get(), tr)
                      : ctx.server->locate_frames(group, sub.get());
  if (fix) {
    delivery::Fix out;
    out.client_id = job.client;
    out.seq = c.next_seq[job.client]++;
    out.frame_time_s = now;
    out.position = fix->position;
    out.likelihood = fix->likelihood;
    auto& trk =
        c.tracker.try_emplace(job.client, ctx.defaults.tracker).first->second;
    {
      Span s(tr, trace::kTrack);
      out.smoothed = trk.update(fix->position, now);
      out.tracker_rejected = trk.last_rejected();
    }
    {
      Span s(tr, trace::kPublish);
      c.bus.publish(out);
    }
  }
  if (ctx.queries) {
    const QueryPlan q = query_plan(k, ctx.clients, ctx.zones);
    Span s(tr, trace::kQuery);
    ctx.query_sink += c.bus.latest(q.latest_client).has_value();
    if (q.trajectory_client >= 0)
      ctx.query_sink +=
          c.bus.trajectory(q.trajectory_client, now - 2.0, now).size();
    if (q.zone >= 0) ctx.query_sink += c.bus.zone_occupancy(q.zone).size();
  }
  return fix;
}

bool same_bits(const std::optional<core::LocationEstimate>& a,
               const std::optional<core::LocationEstimate>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a) return true;
  const double va[3] = {a->position.x, a->position.y, a->likelihood};
  const double vb[3] = {b->position.x, b->position.y, b->likelihood};
  return std::memcmp(va, vb, sizeof va) == 0;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

ReplayResult run_replay(const Workload& wl, const testbed::OfficeTestbed& tb,
                        const Corpus& corpus, const std::string& spans_path) {
  // Pool width 1: every stage runs on this thread, so spans nest and
  // allocations are attributed to the stage that made them.
  core::SystemConfig cfg = served_config();
  cfg.server.localizer.threads = 1;
  auto sys = make_system(wl, tb, cfg);

  Context ctx;
  ctx.server = &sys->server();
  sys->server().set_quantized_sweep(ctx.defaults.quantized_sweep);
  ctx.window_s = ctx.server->options().suppression.max_group_spacing_s;
  ctx.queries = wl.queries;
  ctx.clients = wl.walking ? wl.walkers : tb.clients.size();
  const core::PipelineOptions& popt = ctx.server->options().pipeline;
  for (std::size_t i = 0; i < sys->num_aps(); ++i) {
    const phy::AccessPointFrontEnd& ap = sys->ap(int(i));
    ApStages st;
    st.ap = &ap;
    st.proc = std::make_unique<core::ApProcessor>(&ap, popt);
    st.row = popt.linear_elements ? popt.linear_elements : ap.config().radios;
    const auto elements = ap.capture_elements();
    if (popt.symmetry_removal && elements.size() > st.row) {
      aoa::SymmetryOptions sym;
      sym.suppression = popt.symmetry_suppression;
      st.resolver = std::make_unique<aoa::SymmetryResolver>(
          &ap.array(), elements, ap.channel().config().wavelength_m(), sym);
    }
    ctx.aps.push_back(std::move(st));
  }

  Copy untraced, traced;
  if (wl.queries) {
    const auto rects = zone_rects();
    ctx.zones = rects.size();
    for (const auto& r : rects) {
      untraced.bus.add_zone(geom::Polygon::rectangle(r));
      traced.bus.add_zone(geom::Polygon::rectangle(r));
    }
  }

  const std::size_t jobs = std::min(wl.replay_jobs, corpus.jobs.size());
  Sender sender(sys->num_aps());
  const double offset_s = 10.0;
  std::vector<std::vector<service::LocationService::TimedWireRecord>> encoded;
  encoded.reserve(jobs);
  for (std::size_t k = 0; k < jobs; ++k)
    encoded.push_back(sender.encode(corpus.jobs[k], offset_s));

  // Warm the bearing-LUT caches outside the measurement, as the served
  // set-up does.
  {
    core::FrameGroup warm(sys->num_aps());
    for (const auto& rec : encoded.front())
      warm[rec.ap_index].push_back(*ctx.wire.decode(rec.bytes));
    (void)sys->server().locate_frames(warm);
  }

  // At most ~10 spans per record (decode plus one frame's stages) and a
  // few per job; reserving keeps vector growth out of the counts.
  const std::size_t spans_per_job = 8 + 10 * corpus.jobs.front().records.size();
  trace::Tracer tracer(jobs * spans_per_job + 1024);

  ReplayResult res;
  res.jobs = jobs;
  const std::uint64_t pruned0 = ctx.server->localizer().quant_pruned();
  const std::uint64_t refined0 = ctx.server->localizer().quant_refined();
  for (std::size_t k = 0; k < jobs; ++k) {
    const Job& job = corpus.jobs[k];
    std::optional<core::LocationEstimate> fix_u, fix_t;
    auto run_untraced = [&] {
      const auto t0 = std::chrono::steady_clock::now();
      fix_u = run_job(ctx, untraced, job, k, encoded[k], nullptr);
      res.untraced_s += seconds_since(t0);
    };
    auto run_traced = [&] {
      tracer.set_job(std::uint32_t(k));
      trace::set_counting(true);
      const auto t0 = std::chrono::steady_clock::now();
      fix_t = run_job(ctx, traced, job, k, encoded[k], &tracer);
      res.traced_s += seconds_since(t0);
      trace::set_counting(false);
    };
    // Alternate which copy runs first so neither always finds the
    // job's data warm in cache.
    if (k % 2) {
      run_traced();
      run_untraced();
    } else {
      run_untraced();
      run_traced();
    }
    if (!same_bits(fix_u, fix_t)) ++res.mismatches;
    if (fix_t) ++res.fixes;
    untraced.bus.drain_retained();
    traced.bus.drain_retained();
  }
  res.quant_pruned = ctx.server->localizer().quant_pruned() - pruned0;
  res.quant_refined = ctx.server->localizer().quant_refined() - refined0;
  res.stages = tracer.totals();
  res.self_sum_s = double(tracer.total_self_ns()) * 1e-9;
  res.evd_full = traced.counters.evd_full.load();
  res.evd_tracked = traced.counters.evd_tracked.load();
  res.evd_reseed = traced.counters.evd_reseed.load();
  if (res.evd_full != untraced.counters.evd_full.load() ||
      res.evd_tracked != untraced.counters.evd_tracked.load())
    ++res.mismatches;

  if (!spans_path.empty()) {
    if (std::FILE* f = std::fopen(spans_path.c_str(), "w")) {
      tracer.write_jsonl(f);
      std::fclose(f);
    }
  }
  return res;
}

}  // namespace perfbench
