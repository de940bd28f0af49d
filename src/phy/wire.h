// AP-to-server wire format (the "Tt" link of Fig. 1 / section 4.4).
//
// The prototype shipped (10 samples) x (32 bits I+Q) x (8 radios) per
// frame over the WARP's Ethernet. This module defines that record:
// a fixed header plus per-element quantized IQ samples, with the bit
// depth configurable (16+16 matches the paper's 32 bits per sample).
// Quantization uses a per-frame shared scale (max-abs normalization),
// mirroring the FPGA's fixed-point capture path.
//
// The header ("2RTA" magic + explicit version field, v1) carries the
// capturing AP id and a per-AP monotonically increasing sequence
// number, so the server's decoder threads can reject duplicates,
// detect replays and count gaps at ingest (see
// service::LocationService). The original unversioned v0 record
// ("1RTA" magic) had no sequence number and is always rejected.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "phy/frame_buffer.h"

namespace arraytrack::phy {

struct WireFormat {
  /// Bits per rail (I or Q); the paper's 32-bit samples are 16+16.
  int bits_per_rail = 16;

  /// Serialized size in bytes for a capture of the given shape.
  std::size_t encoded_size(std::size_t elements, std::size_t snapshots) const;

  /// Serialization time over a link, seconds (the Tt term).
  double serialization_s(std::size_t elements, std::size_t snapshots,
                         double link_bps) const;

  /// Encodes a frame capture. The element ids, timestamp, SNR and
  /// client tag ride along in the header with the frame's source_ap
  /// and wire_seq.
  std::vector<std::uint8_t> encode(const FrameCapture& frame) const;

  /// Decodes a record; returns nullopt on malformed input (short
  /// buffer, bad magic, unsupported version — v0 included — or
  /// impossible shape). Samples are reconstructed up to quantization
  /// error (see wire tests for the error bound).
  std::optional<FrameCapture> decode(const std::vector<std::uint8_t>& bytes) const;

  /// Header generation of a raw record: 0 for a v0 magic, the header's
  /// version field for a v1 magic (whether or not it is supported), -1
  /// when the buffer is too short or the magic is unknown. Lets the
  /// ingest layer account "rejected because unversioned" separately
  /// from "malformed".
  static int header_version(const std::uint8_t* bytes, std::size_t size);

  /// Client id tagged in a raw record's header, without decoding the
  /// samples — the cluster front tier routes records by client shard
  /// before any node spends decode work on them. nullopt when the
  /// buffer is too short for the header or the magic is not v1's.
  static std::optional<int> peek_client(const std::uint8_t* bytes,
                                        std::size_t size);
};

/// Session-handoff record: the wire v1 carrier for shard migration
/// between federation nodes. The payload is opaque at this layer (the
/// cluster layer serializes the session's tracker/subspace/history
/// state into it); the header carries the client being moved and a
/// per-handoff sequence number so the receiving node can account and
/// order migrations like any other v1 traffic.
///
/// Layout (little endian):
///   u32 magic "HRTA" | u32 version (1) | i32 client_id | u64 seq
///   | u32 payload_len | payload bytes
struct HandoffRecord {
  int client_id = -1;
  std::uint64_t seq = 0;
  std::vector<std::uint8_t> payload;
};

std::vector<std::uint8_t> encode_handoff(const HandoffRecord& rec);
/// nullopt on short buffer, bad magic, unsupported version, or a
/// payload length that disagrees with the buffer size.
std::optional<HandoffRecord> decode_handoff(const std::uint8_t* bytes,
                                            std::size_t size);
/// True when `bytes` starts with the handoff magic (cheap dispatch for
/// streams that interleave capture and handoff records).
bool is_handoff_record(const std::uint8_t* bytes, std::size_t size);

}  // namespace arraytrack::phy
