#include "phy/wire.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace arraytrack::phy {
namespace {

// v0 records are never decoded; their magic is kept so ingest can
// count them as version-rejected rather than malformed.
constexpr std::uint32_t kMagicV0 = 0x41545231;       // bytes "1RTA"
constexpr std::uint32_t kMagicV1 = 0x41545232;       // bytes "2RTA"
constexpr std::uint32_t kMagicHandoff = 0x41545248;  // bytes "HRTA"
constexpr std::uint32_t kVersion = 1;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(std::uint8_t(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(std::uint8_t(v >> (8 * i)));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t(p[i]) << (8 * i);
  return v;
}

double get_f64(const std::uint8_t* p) {
  const std::uint64_t bits = get_u64(p);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// v1 header layout (little endian):
//   u32 magic | u32 version | u32 elements | u32 snapshots
//   u32 bits_per_rail | u32 ap_id | u64 seq
//   f64 timestamp | f64 snr_db | f64 scale | i32 client_id
//   u32 element_id[elements]
// followed by elements*snapshots { int I, int Q } packed rail-by-rail
// into ceil(bits/8) bytes each, two's complement.
constexpr std::size_t kFixedHeaderV1 = 6 * 4 + 8 + 3 * 8 + 4;

std::size_t rail_bytes(int bits) { return std::size_t((bits + 7) / 8); }

void put_signed(std::vector<std::uint8_t>& out, long v, std::size_t nbytes) {
  const std::uint64_t u = std::uint64_t(v);
  for (std::size_t i = 0; i < nbytes; ++i)
    out.push_back(std::uint8_t(u >> (8 * i)));
}

long get_signed(const std::uint8_t* p, std::size_t nbytes, int bits) {
  std::uint64_t u = 0;
  for (std::size_t i = 0; i < nbytes; ++i) u |= std::uint64_t(p[i]) << (8 * i);
  // Sign-extend from `bits`.
  const std::uint64_t sign = 1ull << (bits - 1);
  if (u & sign) u |= ~((sign << 1) - 1);
  return long(std::int64_t(u));
}

bool shape_ok(std::size_t elements, std::size_t snapshots, int bits) {
  return bits >= 2 && bits <= 32 && elements > 0 && elements <= 1024 &&
         snapshots > 0 && snapshots <= 65536;
}

// Shared scalar-field validation: a corrupted header must not smuggle
// NaN/inf into the pipeline (a non-finite scale poisons every sample;
// a non-finite timestamp breaks frame grouping and service deadlines).
// encode() can only produce finite positive scales.
bool scalars_ok(double timestamp_s, double snr_db, double scale, int bits,
                std::size_t elements, std::size_t snapshots) {
  if (!std::isfinite(timestamp_s) || !std::isfinite(snr_db) ||
      !std::isfinite(scale) || scale <= 0.0)
    return false;
  // The largest magnitude get_signed can produce is 2^(bits-1). A huge
  // (but finite) scale would overflow the capture's power — and with it
  // every covariance the pipeline forms — to inf: bound the full-scale
  // power |I|^2 + |Q|^2 summed over every sample.
  const double full = scale * double(1ull << (bits - 1));
  return std::isfinite(full * full * 2.0 * double(elements) *
                       double(snapshots));
}

}  // namespace

int WireFormat::header_version(const std::uint8_t* bytes, std::size_t size) {
  if (size < 4) return -1;
  const std::uint32_t magic = get_u32(bytes);
  if (magic == kMagicV0) return 0;
  if (magic == kMagicV1)
    return size >= 8 ? int(std::min<std::uint32_t>(get_u32(bytes + 4),
                                                   0x7fffffffu))
                     : -1;
  return -1;
}

std::optional<int> WireFormat::peek_client(const std::uint8_t* bytes,
                                           std::size_t size) {
  if (size >= kFixedHeaderV1 && get_u32(bytes) == kMagicV1)
    return int(std::int32_t(get_u32(bytes + 56)));
  return std::nullopt;
}

std::size_t WireFormat::encoded_size(std::size_t elements,
                                     std::size_t snapshots) const {
  return kFixedHeaderV1 + 4 * elements +
         elements * snapshots * 2 * rail_bytes(bits_per_rail);
}

double WireFormat::serialization_s(std::size_t elements,
                                   std::size_t snapshots,
                                   double link_bps) const {
  return double(encoded_size(elements, snapshots)) * 8.0 / link_bps;
}

std::vector<std::uint8_t> WireFormat::encode(const FrameCapture& frame) const {
  const std::size_t elements = frame.samples.rows();
  const std::size_t snapshots = frame.samples.cols();

  // Shared full-scale: max |I| or |Q| over the capture.
  double peak = 0.0;
  for (std::size_t m = 0; m < elements; ++m)
    for (std::size_t k = 0; k < snapshots; ++k) {
      peak = std::max(peak, std::abs(frame.samples(m, k).real()));
      peak = std::max(peak, std::abs(frame.samples(m, k).imag()));
    }
  if (peak == 0.0) peak = 1.0;
  const long qmax = (1l << (bits_per_rail - 1)) - 1;
  const double scale = peak / double(qmax);

  std::vector<std::uint8_t> out;
  out.reserve(encoded_size(elements, snapshots));
  put_u32(out, kMagicV1);
  put_u32(out, kVersion);
  put_u32(out, std::uint32_t(elements));
  put_u32(out, std::uint32_t(snapshots));
  put_u32(out, std::uint32_t(bits_per_rail));
  put_u32(out, frame.source_ap);
  put_u64(out, frame.wire_seq);
  put_f64(out, frame.timestamp_s);
  put_f64(out, frame.snr_db);
  put_f64(out, scale);
  put_u32(out, std::uint32_t(frame.client_id));
  for (std::size_t m = 0; m < elements; ++m)
    put_u32(out, std::uint32_t(m < frame.element_ids.size()
                                   ? frame.element_ids[m]
                                   : m));

  const std::size_t nb = rail_bytes(bits_per_rail);
  auto quantize = [&](double v) {
    return std::clamp(long(std::lround(v / scale)), -qmax, qmax);
  };
  for (std::size_t m = 0; m < elements; ++m) {
    for (std::size_t k = 0; k < snapshots; ++k) {
      put_signed(out, quantize(frame.samples(m, k).real()), nb);
      put_signed(out, quantize(frame.samples(m, k).imag()), nb);
    }
  }
  return out;
}

std::optional<FrameCapture> WireFormat::decode(
    const std::vector<std::uint8_t>& bytes) const {
  const std::uint8_t* p = bytes.data();
  if (bytes.size() < kFixedHeaderV1 || get_u32(p) != kMagicV1 ||
      get_u32(p + 4) != kVersion)
    return std::nullopt;
  const std::size_t elements = get_u32(p + 8);
  const std::size_t snapshots = get_u32(p + 12);
  const int bits = int(get_u32(p + 16));
  if (!shape_ok(elements, snapshots, bits)) return std::nullopt;
  FrameCapture frame;
  frame.source_ap = get_u32(p + 20);
  frame.wire_seq = get_u64(p + 24);
  frame.timestamp_s = get_f64(p + 32);
  frame.snr_db = get_f64(p + 40);
  const double scale = get_f64(p + 48);
  frame.client_id = int(std::int32_t(get_u32(p + 56)));
  if (!scalars_ok(frame.timestamp_s, frame.snr_db, scale, bits, elements,
                  snapshots))
    return std::nullopt;

  const std::size_t nb = rail_bytes(bits);
  const std::size_t need =
      kFixedHeaderV1 + 4 * elements + elements * snapshots * 2 * nb;
  if (bytes.size() != need) return std::nullopt;

  const std::uint8_t* ids = p + kFixedHeaderV1;
  frame.element_ids.resize(elements);
  for (std::size_t m = 0; m < elements; ++m)
    frame.element_ids[m] = get_u32(ids + 4 * m);

  const std::uint8_t* data = ids + 4 * elements;
  frame.samples = linalg::CMatrix(elements, snapshots);
  std::size_t off = 0;
  for (std::size_t m = 0; m < elements; ++m) {
    for (std::size_t k = 0; k < snapshots; ++k) {
      const long i = get_signed(data + off, nb, bits);
      off += nb;
      const long q = get_signed(data + off, nb, bits);
      off += nb;
      frame.samples(m, k) = cplx{double(i) * scale, double(q) * scale};
    }
  }
  return frame;
}

std::vector<std::uint8_t> encode_handoff(const HandoffRecord& rec) {
  std::vector<std::uint8_t> out;
  out.reserve(24 + rec.payload.size());
  put_u32(out, kMagicHandoff);
  put_u32(out, kVersion);
  put_u32(out, std::uint32_t(rec.client_id));
  put_u64(out, rec.seq);
  put_u32(out, std::uint32_t(rec.payload.size()));
  out.insert(out.end(), rec.payload.begin(), rec.payload.end());
  return out;
}

std::optional<HandoffRecord> decode_handoff(const std::uint8_t* bytes,
                                            std::size_t size) {
  constexpr std::size_t kHeader = 4 * 4 + 8;
  if (size < kHeader) return std::nullopt;
  if (get_u32(bytes) != kMagicHandoff) return std::nullopt;
  if (get_u32(bytes + 4) != kVersion) return std::nullopt;
  HandoffRecord rec;
  rec.client_id = int(std::int32_t(get_u32(bytes + 8)));
  rec.seq = get_u64(bytes + 12);
  const std::size_t len = get_u32(bytes + 20);
  if (size != kHeader + len) return std::nullopt;
  rec.payload.assign(bytes + kHeader, bytes + kHeader + len);
  return rec;
}

bool is_handoff_record(const std::uint8_t* bytes, std::size_t size) {
  return size >= 4 && get_u32(bytes) == kMagicHandoff;
}

}  // namespace arraytrack::phy
