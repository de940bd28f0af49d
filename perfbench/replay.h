// The traced replay: the first jobs of a workload's corpus, replayed
// serially at pool width 1, each one twice — once through
// ArrayTrackServer::locate_frames (untraced) and once composed from the
// public stage calls in the order spectra_from_frames + Localizer::locate
// use them, with a span around every call. Both copies keep their own
// per-client frame histories, subspace trackers, session trackers and
// fix bus, fed the same decoded records, so the two fixes of a job must
// be bitwise equal.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "corpus.h"
#include "trace.h"

namespace perfbench {

struct ReplayResult {
  std::size_t jobs = 0;
  std::size_t fixes = 0;
  /// Jobs whose traced fix differed from locate_frames (or where only
  /// one of the two produced a fix).
  std::size_t mismatches = 0;
  double traced_s = 0.0;    // summed job wall time, traced
  double untraced_s = 0.0;  // same jobs through locate_frames
  double self_sum_s = 0.0;  // sum of every stage's self time
  std::array<trace::StageTotals, trace::kStageCount> stages{};
  // Tracked-subspace counters of the traced copy.
  std::uint64_t evd_full = 0, evd_tracked = 0, evd_reseed = 0;
  // Coarse-to-fine sweep accounting over the replay (both copies).
  std::uint64_t quant_pruned = 0, quant_refined = 0;
};

/// Runs the replay; writes every span as JSON lines to `spans_path`
/// unless it is empty.
ReplayResult run_replay(const Workload& wl,
                        const arraytrack::testbed::OfficeTestbed& tb,
                        const Corpus& corpus, const std::string& spans_path);

}  // namespace perfbench
