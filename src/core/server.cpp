#include "core/server.h"

#include <algorithm>
#include <iterator>
#include <optional>

#include "core/thread_pool.h"
#include "linalg/kernels.h"

namespace arraytrack::core {
namespace {

/// Bearing blur for a stack of one AP's sharp spectra in one pass:
/// the multiply-accumulate streams across rows via kernels::fir_batch,
/// with the taps the AP's processor built once. Each row's bits match
/// ApProcessor::finish_spectrum's blur (the same kernel with one row)
/// run on that row alone.
void blur_rows(const ApProcessor& processor,
               std::vector<aoa::AoaSpectrum>& rows) {
  if (rows.empty()) return;
  const std::size_t bins = processor.options().music.bins;
  for (const auto& row : rows)
    if (row.bins() != bins) {
      // A foreign bin count cannot use the processor's taps; blur row
      // by row, as finish_spectrum() does.
      const double sigma_rad =
          deg2rad(processor.options().bearing_sigma_deg);
      for (auto& r : rows) r.convolve_gaussian(sigma_rad);
      return;
    }
  const auto& taps = processor.blur_taps();
  if (taps.empty()) return;  // the blur is a no-op for these parameters
  const std::size_t half = taps.size() / 2;
  const std::size_t nrows = rows.size();
  // Circularly extended interleaved input: sample e of row r (at
  // ext[e*nrows + r]) holds that row's bin (e - half) mod bins, which
  // turns the circular convolution into a plain FIR.
  std::vector<double> ext((bins + 2 * half) * nrows);
  for (std::size_t r = 0; r < nrows; ++r)
    aoa::circular_extend(rows[r].values().data(), bins, half, ext.data() + r,
                         nrows);
  std::vector<double> out(bins * nrows);
  linalg::kernels::fir_batch(ext.data(), nrows, bins, taps.data(), taps.size(),
                             out.data());
  for (std::size_t r = 0; r < nrows; ++r)
    for (std::size_t i = 0; i < bins; ++i) rows[r][i] = out[i * nrows + r];
}

/// AP-frames the first `aps` APs of a job process: each AP's newest
/// `max_group` frames.
std::size_t frames_processed(const FrameGroup& group, std::size_t aps,
                             std::size_t max_group) {
  std::size_t frames = 0;
  for (std::size_t i = 0; i < std::min(aps, group.size()); ++i)
    frames += std::min(group[i].size(), max_group);
  return frames;
}

/// Pool width for a fan-out over `frames` AP-frames: one task per
/// ArrayTrackServer::kMinFramesPerTask frames, at least 1, at most
/// `threads` (0 = no cap beyond the pool's size). It depends only on
/// the jobs' frame counts, so the split is reproducible.
std::size_t fan_out_width(std::size_t frames, std::size_t threads) {
  const std::size_t width = std::max<std::size_t>(
      1, frames / ArrayTrackServer::kMinFramesPerTask);
  return threads == 0 ? width : std::min(width, threads);
}

}  // namespace

ArrayTrackServer::ArrayTrackServer(geom::Rect bounds, ServerOptions opt)
    : opt_(opt), localizer_(bounds, opt.localizer) {}

void ArrayTrackServer::register_ap(const phy::AccessPointFrontEnd* ap) {
  Entry e;
  e.ap = ap;
  e.processor = std::make_unique<ApProcessor>(ap, opt_.pipeline);
  aps_.push_back(std::move(e));
}

std::size_t ArrayTrackServer::steering_table_bytes() const {
  std::size_t total = 0;
  for (const auto& entry : aps_)
    total += entry.processor->music().steering_table_bytes();
  return total;
}

void ArrayTrackServer::set_pipeline(const PipelineOptions& pipeline) {
  opt_.pipeline = pipeline;
  for (auto& entry : aps_)
    entry.processor = std::make_unique<ApProcessor>(entry.ap, pipeline);
}

std::optional<LocationEstimate> ArrayTrackServer::locate_tracked(
    int client_id, double now_s) {
  auto fix = locate(client_id, now_s);
  if (!fix) return std::nullopt;
  auto& tracker = trackers_[client_id];
  fix->position = tracker.update(fix->position, now_s);
  return fix;
}

std::vector<ApSpectrum> ArrayTrackServer::client_spectra(int client_id,
                                                         double now_s) const {
  return spectra_from_frames(snapshot_frames(client_id, now_s));
}

FrameGroup ArrayTrackServer::snapshot_frames(int client_id,
                                             double now_s) const {
  FrameGroup group(aps_.size());
  for (std::size_t i = 0; i < aps_.size(); ++i)
    group[i] = aps_[i].ap->buffer().recent_from(
        client_id, now_s, opt_.suppression.max_group_spacing_s);
  return group;
}

ClientSubspace ArrayTrackServer::make_client_subspace(
    linalg::SubspaceCounters* counters) const {
  ClientSubspace cs;
  cs.trackers_.reserve(aps_.size());
  for (const auto& entry : aps_)
    cs.trackers_.emplace_back(entry.processor->subspace_options(), counters);
  return cs;
}

std::vector<ApSpectrum> ArrayTrackServer::spectra_from_frames(
    const FrameGroup& frames_per_ap, ClientSubspace* subspace) const {
  // Per-AP pipelines (detection -> diversity synthesis -> covariance ->
  // eigendecomposition -> MUSIC -> suppression) are independent
  // read-only work over disjoint front ends, so they fan out across
  // the shared pool, as wide as the frame count pays for. Each AP
  // writes its own slot and the slots are compacted in registration
  // order afterwards, so the result is identical to the serial loop
  // for any pool width.
  const std::size_t n = std::min(aps_.size(), frames_per_ap.size());
  const std::size_t width = fan_out_width(
      frames_processed(frames_per_ap, n, opt_.suppression.max_group),
      opt_.localizer.threads);
  std::vector<std::optional<ApSpectrum>> slots(n);
  ThreadPool::shared().parallel_for(
      0, n, width, [&](std::size_t i) {
        const auto& entry = aps_[i];
        const auto& frames = frames_per_ap[i];
        if (frames.empty()) return;

        // Use at most max_group of the newest frames (paper: two to
        // three).
        const std::size_t use =
            std::min(frames.size(), opt_.suppression.max_group);
        linalg::SubspaceTracker* tracker =
            subspace != nullptr ? subspace->tracker(i) : nullptr;
        std::vector<aoa::AoaSpectrum> group;
        group.reserve(use);
        for (std::size_t k = frames.size() - use; k < frames.size(); ++k)
          group.push_back(entry.processor->process(frames[k], tracker));

        aoa::AoaSpectrum fused =
            opt_.multipath_suppression
                ? suppress_multipath(group, opt_.suppression)
                : group.front();
        fused.normalize();

        ApSpectrum tagged;
        tagged.ap_position = entry.ap->array().position();
        tagged.orientation_rad = entry.ap->array().orientation();
        tagged.spectrum = std::move(fused);
        slots[i] = std::move(tagged);
      });

  std::vector<ApSpectrum> out;
  out.reserve(n);
  for (auto& slot : slots)
    if (slot) out.push_back(std::move(*slot));
  return out;
}

std::vector<std::vector<ApSpectrum>> ArrayTrackServer::spectra_from_frames_batch(
    const std::vector<const FrameGroup*>& groups,
    const std::vector<ClientSubspace*>& subspaces) const {
  const std::size_t b = groups.size();
  const std::size_t n = aps_.size();
  // slots[i][j]: job j's fused spectrum at AP i; compacted per job in
  // registration order afterwards, exactly like the un-batched path.
  std::vector<std::vector<std::optional<ApSpectrum>>> slots(
      n, std::vector<std::optional<ApSpectrum>>(b));
  // As wide as the rows of the whole batch pay for.
  std::size_t rows_total = 0;
  for (const FrameGroup* group : groups)
    rows_total += frames_processed(*group, n, opt_.suppression.max_group);
  const std::size_t width = fan_out_width(rows_total, opt_.localizer.threads);
  ThreadPool::shared().parallel_for(
      0, n, width, [&](std::size_t i) {
        const auto& entry = aps_[i];
        // Sharp spectra of every (job, frame) pair this AP heard, with
        // the same newest-max_group frame selection per job as
        // spectra_from_frames().
        std::vector<aoa::AoaSpectrum> rows;
        std::vector<std::size_t> rows_of(b, 0);
        for (std::size_t j = 0; j < b; ++j) {
          if (i >= groups[j]->size()) continue;
          const auto& frames = (*groups[j])[i];
          if (frames.empty()) continue;
          linalg::SubspaceTracker* tracker =
              j < subspaces.size() && subspaces[j] != nullptr
                  ? subspaces[j]->tracker(i)
                  : nullptr;
          const std::size_t use =
              std::min(frames.size(), opt_.suppression.max_group);
          for (std::size_t k = frames.size() - use; k < frames.size(); ++k)
            rows.push_back(entry.processor->process_sharp(frames[k], tracker));
          rows_of[j] = use;
        }
        if (rows.empty()) return;

        // finish_spectrum() for the whole stack: one batched blur,
        // then per-row peak normalization.
        blur_rows(*entry.processor, rows);
        for (auto& row : rows) row.normalize();

        std::size_t cursor = 0;
        for (std::size_t j = 0; j < b; ++j) {
          if (!rows_of[j]) continue;
          std::vector<aoa::AoaSpectrum> group(
              std::make_move_iterator(rows.begin() + std::ptrdiff_t(cursor)),
              std::make_move_iterator(rows.begin() +
                                      std::ptrdiff_t(cursor + rows_of[j])));
          cursor += rows_of[j];
          aoa::AoaSpectrum fused =
              opt_.multipath_suppression
                  ? suppress_multipath(group, opt_.suppression)
                  : group.front();
          fused.normalize();
          ApSpectrum tagged;
          tagged.ap_position = entry.ap->array().position();
          tagged.orientation_rad = entry.ap->array().orientation();
          tagged.spectrum = std::move(fused);
          slots[i][j] = std::move(tagged);
        }
      });

  std::vector<std::vector<ApSpectrum>> out(b);
  for (std::size_t j = 0; j < b; ++j) {
    const std::size_t nj = std::min(n, groups[j]->size());
    out[j].reserve(nj);
    for (std::size_t i = 0; i < nj; ++i)
      if (slots[i][j]) out[j].push_back(std::move(*slots[i][j]));
  }
  return out;
}

std::vector<std::optional<LocationEstimate>>
ArrayTrackServer::locate_frames_batch(
    const std::vector<const FrameGroup*>& groups,
    const std::vector<ClientSubspace*>& subspaces) const {
  return localizer_.locate_batch(spectra_from_frames_batch(groups, subspaces));
}

std::optional<LocationEstimate> ArrayTrackServer::locate(int client_id,
                                                         double now_s) const {
  const auto spectra = client_spectra(client_id, now_s);
  if (spectra.empty()) return std::nullopt;
  return localizer_.locate(spectra);
}

std::optional<LocationEstimate> ArrayTrackServer::locate_frames(
    const FrameGroup& frames, ClientSubspace* subspace) const {
  const auto spectra = spectra_from_frames(frames, subspace);
  if (spectra.empty()) return std::nullopt;
  return localizer_.locate(spectra);
}

std::optional<Heatmap> ArrayTrackServer::heatmap(int client_id,
                                                 double now_s) const {
  const auto spectra = client_spectra(client_id, now_s);
  if (spectra.empty()) return std::nullopt;
  return localizer_.heatmap(spectra);
}

}  // namespace arraytrack::core
