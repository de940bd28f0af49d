// Circular frame buffer (paper section 2.1, Fig. 1).
//
// The FPGA design stores the preamble snapshots of each detected frame
// into a circular buffer, one logical entry per frame; the server pulls
// entries out asynchronously. We keep the same structure: bounded
// capacity, overwrite-oldest, timestamped entries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "linalg/matrix.h"

namespace arraytrack::phy {

/// Snapshot samples for one detected frame at one AP.
struct FrameCapture {
  double timestamp_s = 0.0;
  /// Raw (uncalibrated) snapshots: rows = antenna elements, cols = the
  /// ~10 preamble samples used for AoA.
  linalg::CMatrix samples;
  /// Geometry element index of each row in `samples`.
  std::vector<std::size_t> element_ids;
  /// Receiver SNR estimate for this frame, dB.
  double snr_db = 0.0;
  /// Simulation-only ground truth tag (which client transmitted); a
  /// real AP would identify the transmitter from the MAC header when
  /// available. Negative when unknown.
  int client_id = -1;
  /// Id of the AP that captured this frame; carried by wire v1 headers
  /// so the server can reject mis-addressed records.
  std::uint32_t source_ap = 0;
  /// Per-AP monotonically increasing capture sequence number, stamped
  /// by the front end. Wire v1 carries it so the ingest layer can
  /// detect duplicates, replays and gaps.
  std::uint64_t wire_seq = 0;
};

class CircularFrameBuffer {
 public:
  explicit CircularFrameBuffer(std::size_t capacity) : capacity_(capacity) {}

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Appends a frame, evicting the oldest when full. Returns true if an
  /// entry was evicted.
  bool push(FrameCapture frame);

  /// Oldest-first access.
  const FrameCapture& at(std::size_t i) const { return entries_.at(i); }
  const FrameCapture& newest() const { return entries_.back(); }

  /// Removes and returns the oldest entry.
  std::optional<FrameCapture> pop();

  /// All frames from `client_id` captured within `window_s` of
  /// `now_s`, oldest first — the grouping input for the multipath
  /// suppression step.
  std::vector<FrameCapture> recent_from(int client_id, double now_s,
                                        double window_s) const;

  void clear() { entries_.clear(); }

 private:
  std::size_t capacity_;
  std::deque<FrameCapture> entries_;
};

}  // namespace arraytrack::phy
