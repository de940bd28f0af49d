// The central ArrayTrack server (Fig. 1, right side).
//
// Pulls per-frame snapshots from every registered AP's circular buffer,
// runs the per-AP spectrum pipeline, groups recent frames for multipath
// suppression, and synthesizes all APs' spectra into a location.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/pipeline.h"
#include "core/suppression.h"
#include "core/synthesis.h"
#include "core/tracker.h"
#include "phy/frontend.h"

namespace arraytrack::core {

struct ServerOptions {
  PipelineOptions pipeline;
  SuppressionOptions suppression;
  LocalizerOptions localizer;
  /// Master switch for the 2.4 suppression step (off reproduces the
  /// paper's "unoptimized" curves when pipeline toggles are also off).
  bool multipath_suppression = true;
};

/// The input of one pipeline job: each registered AP's frames for one
/// client, in registration order (oldest first within an AP; an AP
/// that heard nothing contributes an empty inner vector). Snapshotted
/// out of the live circular buffers so a backend worker can run the
/// pipeline while ingest keeps appending frames.
using FrameGroup = std::vector<std::vector<phy::FrameCapture>>;

/// Per-client tracked-subspace state: one linalg::SubspaceTracker per
/// registered AP, in registration order. Created by
/// ArrayTrackServer::make_client_subspace(), owned by the client's
/// session (the service layer keeps it alongside the LocationTracker),
/// and passed into locate_frames / spectra_from_frames so the MUSIC
/// stage consumes and advances tracked signal bases instead of running
/// a fresh eigendecomposition per frame. One instance belongs to one
/// client's frame stream: feed it jobs in that client's arrival order
/// and never from two jobs concurrently (the per-AP fan-out inside a
/// single job is safe — each AP touches only its own tracker). reset()
/// drops all tracked state; call it on session eviction or after
/// set_pipeline() rebuilds the processors.
class ClientSubspace {
 public:
  ClientSubspace() = default;

  /// Tracker for the AP at registration index `ap`; nullptr when the
  /// index is out of range (an AP registered after creation falls back
  /// to the exact per-frame decomposition).
  linalg::SubspaceTracker* tracker(std::size_t ap) {
    return ap < trackers_.size() ? &trackers_[ap] : nullptr;
  }
  std::size_t size() const { return trackers_.size(); }

  void reset() {
    for (auto& t : trackers_) t.reset();
  }

 private:
  friend class ArrayTrackServer;
  std::vector<linalg::SubspaceTracker> trackers_;
};

class ArrayTrackServer {
 public:
  ArrayTrackServer(geom::Rect bounds, ServerOptions opt = {});

  const ServerOptions& options() const { return opt_; }
  const Localizer& localizer() const { return localizer_; }

  /// Replaces the pipeline options and rebuilds every registered AP's
  /// processor (the processors bake steering tables at construction,
  /// so mutating options in place would silently do nothing).
  void set_pipeline(const PipelineOptions& pipeline);

  /// Toggles the 2.4 suppression step.
  void set_multipath_suppression(bool on) { opt_.multipath_suppression = on; }

  /// Runtime kill switch for the localizer's quantized coarse-to-fine
  /// sweep (both settings are byte-identical; see LocalizerOptions).
  void set_quantized_sweep(bool on) { localizer_.set_quantized_sweep(on); }
  bool quantized_sweep() const { return localizer_.quantized_sweep(); }

  /// Aggregate steering-table footprint across every registered AP's
  /// MUSIC estimator.
  std::size_t steering_table_bytes() const;

  /// Grain of the per-AP fan-out: a job's AP pipelines go to the
  /// shared pool in one task per this many AP-frames it processes, and
  /// a job with fewer runs inline. Handing one task to a sleeping pool
  /// thread costs ~20-47 us of CPU (4-vCPU AVX2 host), about one
  /// AP-frame of work (~30-43 us), so a task must carry a few frames to
  /// pay for itself: a single-frame 3-AP job runs inline, and a 6-AP
  /// 3-frame burst still splits into 3 tasks of 2 APs.
  static constexpr std::size_t kMinFramesPerTask = 3;

  /// Registers an AP; the front end must outlive the server.
  void register_ap(const phy::AccessPointFrontEnd* ap);
  std::size_t num_aps() const { return aps_.size(); }

  /// Per-AP fused spectrum for a client: processes the frames the AP
  /// heard from `client_id` within the suppression window ending at
  /// `now_s` and applies multipath suppression across them. Returns
  /// one tagged spectrum per AP that heard the client, in registration
  /// order. The per-AP pipelines run concurrently on the shared
  /// core::ThreadPool (one task per kMinFramesPerTask frames, bounded
  /// by LocalizerOptions::threads); results are identical to the
  /// serial evaluation.
  std::vector<ApSpectrum> client_spectra(int client_id, double now_s) const;

  /// Copies every AP's frames from `client_id` within the suppression
  /// window ending at `now_s` out of the circular buffers — the
  /// snapshot half of client_spectra(), run on the ingest thread so
  /// the compute half can run elsewhere.
  FrameGroup snapshot_frames(int client_id, double now_s) const;

  /// The compute half: per-AP pipeline + multipath suppression over a
  /// pre-snapshotted frame group, fanned out on the shared pool.
  /// client_spectra() is exactly spectra_from_frames(snapshot_frames()).
  /// A non-null `subspace` (this client's tracked state) replaces each
  /// AP's per-frame eigendecomposition with its tracked signal basis.
  std::vector<ApSpectrum> spectra_from_frames(
      const FrameGroup& frames, ClientSubspace* subspace = nullptr) const;

  /// End-to-end location estimate (equation 8 + hill climbing).
  std::optional<LocationEstimate> locate(int client_id, double now_s) const;

  /// locate() over a pre-snapshotted frame group (the backend-worker
  /// job entry point), optionally with the client's tracked subspaces.
  std::optional<LocationEstimate> locate_frames(
      const FrameGroup& frames, ClientSubspace* subspace = nullptr) const;

  /// Fresh tracked-subspace state covering the currently registered
  /// APs, wired to `counters` (may be null) for fleet-wide stats. Each
  /// tracker inherits its AP's MUSIC thresholds, so the exact-path
  /// basis picks the same signal count the tracker-less pipeline does.
  ClientSubspace make_client_subspace(
      linalg::SubspaceCounters* counters = nullptr) const;

  /// spectra_from_frames() for a batch of jobs at once: per AP, the
  /// sharp spectra of every (job, frame) pair are computed, the
  /// bearing blur runs as one structure-of-arrays convolution across
  /// all rows (kernels::fir_batch amortizes the tap addressing and
  /// vectorizes across jobs), and the per-job groups are fused as
  /// usual. Row j is bitwise identical to
  /// spectra_from_frames(*groups[j]). `subspaces`, when non-empty, is
  /// parallel to `groups` (null entries allowed): job j's spectra use
  /// client j's tracked bases. Jobs of the same client must appear in
  /// that client's arrival order, which the service's per-client FIFO
  /// guarantees; within one AP the batch is walked serially in job
  /// order, so a shared tracker still sees a deterministic stream.
  std::vector<std::vector<ApSpectrum>> spectra_from_frames_batch(
      const std::vector<const FrameGroup*>& groups,
      const std::vector<ClientSubspace*>& subspaces = {}) const;

  /// locate_frames() for a batch of jobs sharing this server's grid —
  /// the service's batched-dispatch entry point. Spectra come from
  /// spectra_from_frames_batch() and positions from
  /// Localizer::locate_batch(), so row j is bitwise identical to
  /// locate_frames(*groups[j]) at every batch size.
  std::vector<std::optional<LocationEstimate>> locate_frames_batch(
      const std::vector<const FrameGroup*>& groups,
      const std::vector<ClientSubspace*>& subspaces = {}) const;

  /// The likelihood heatmap for a client (Fig. 14).
  std::optional<Heatmap> heatmap(int client_id, double now_s) const;

  /// Location directly from caller-supplied spectra (used by benches
  /// that construct spectra out of band).
  std::optional<LocationEstimate> locate_from_spectra(
      const std::vector<ApSpectrum>& spectra) const {
    return localizer_.locate(spectra);
  }

  /// Like locate(), but smoothed through a per-client constant-velocity
  /// Kalman tracker with outlier gating — the trajectory the paper's
  /// AR/retail applications consume. Falls back to the raw fix for a
  /// client's first observation.
  std::optional<LocationEstimate> locate_tracked(int client_id, double now_s);

 private:
  struct Entry {
    const phy::AccessPointFrontEnd* ap;
    std::unique_ptr<ApProcessor> processor;
  };

  ServerOptions opt_;
  Localizer localizer_;
  std::vector<Entry> aps_;
  std::map<int, LocationTracker> trackers_;
};

}  // namespace arraytrack::core
