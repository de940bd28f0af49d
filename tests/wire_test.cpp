// Tests for the AP-to-server wire format: v1 records (versioned, per-AP
// sequence numbers) round-trip, and unversioned v0 records are always
// rejected.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <random>

#include "aoa/covariance.h"
#include "phy/wire.h"
#include "wire_v0.h"

namespace arraytrack::phy {
namespace {

FrameCapture make_frame(std::size_t elements, std::size_t snapshots,
                        unsigned seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> g(0.0, 1e-4);  // realistic mW-scale IQ
  FrameCapture f;
  f.timestamp_s = 12.345;
  f.snr_db = 27.5;
  f.client_id = 9;
  f.source_ap = 3;
  f.wire_seq = 7700000000001ull;  // exercises the full u64 width
  f.samples = linalg::CMatrix(elements, snapshots);
  f.element_ids.resize(elements);
  for (std::size_t m = 0; m < elements; ++m) {
    f.element_ids[m] = m;
    for (std::size_t k = 0; k < snapshots; ++k)
      f.samples(m, k) = cplx{g(rng), g(rng)};
  }
  return f;
}

TEST(WireTest, EncodedSizeMatchesPaperAccounting) {
  // (10 samples)(32 bits/sample)(8 radios) = 320 bytes of payload; the
  // header adds a fixed 60 bytes (magic, version, shape, AP id,
  // sequence number, timestamp, SNR, scale, client) plus 4 bytes per
  // element id.
  WireFormat wire;  // 16 bits per rail = 32 bits per sample
  const std::size_t payload = 8 * 10 * 4;
  const std::size_t size = wire.encoded_size(8, 10);
  EXPECT_EQ(size, 60 + 4 * 8 + payload);
  // Tt at the paper's 1 Mbit/s effective link: payload alone is 2.56 ms.
  EXPECT_NEAR(wire.serialization_s(8, 10, 1e6),
              double(size) * 8.0 / 1e6, 1e-12);
  EXPECT_GT(wire.serialization_s(8, 10, 1e6), 2.56e-3);
}

// Parameterized by header version; v1 is the only one encode() writes.
class WireVersionSweep : public ::testing::TestWithParam<int> {};

TEST_P(WireVersionSweep, RoundTripMetadata) {
  WireFormat wire;
  const auto f = make_frame(16, 10, 1);
  const auto bytes = wire.encode(f);
  ASSERT_EQ(bytes.size(), wire.encoded_size(16, 10));
  EXPECT_EQ(WireFormat::header_version(bytes.data(), bytes.size()),
            GetParam());
  const auto g = wire.decode(bytes);
  ASSERT_TRUE(g.has_value());
  EXPECT_DOUBLE_EQ(g->timestamp_s, f.timestamp_s);
  EXPECT_DOUBLE_EQ(g->snr_db, f.snr_db);
  EXPECT_EQ(g->client_id, f.client_id);
  EXPECT_EQ(g->element_ids, f.element_ids);
  ASSERT_EQ(g->samples.rows(), 16u);
  ASSERT_EQ(g->samples.cols(), 10u);
  EXPECT_EQ(g->source_ap, f.source_ap);
  EXPECT_EQ(g->wire_seq, f.wire_seq);
}

TEST_P(WireVersionSweep, TruncationAtEveryLengthIsRejected) {
  WireFormat wire;
  const auto bytes = wire.encode(make_frame(4, 6, 11));
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + long(len));
    EXPECT_FALSE(wire.decode(cut).has_value()) << "length " << len;
  }
}

INSTANTIATE_TEST_SUITE_P(Versions, WireVersionSweep, ::testing::Values(1));

TEST(WireTest, LegacyV0IsAlwaysRejected) {
  // A well-formed v0 record (no version, AP id or sequence number):
  // header_version names it so ingest can count it as a policy
  // rejection, but neither decode nor the routing peek accepts it.
  WireFormat wire;
  const auto v1 = wire.encode(make_frame(8, 10, 21));
  const auto bytes = test::v0_from_v1(v1);
  ASSERT_EQ(bytes.size() + 16, v1.size());
  EXPECT_EQ(WireFormat::header_version(bytes.data(), bytes.size()), 0);
  EXPECT_FALSE(wire.decode(bytes).has_value());
  EXPECT_FALSE(WireFormat::peek_client(bytes.data(), bytes.size()));
  // Any bit depth, and the v0 magic on a v1-sized body, are refused too.
  wire.bits_per_rail = 8;
  EXPECT_FALSE(wire.decode(test::v0_from_v1(wire.encode(make_frame(2, 3, 22))))
                   .has_value());
  auto relabeled = v1;
  relabeled[0] = 0x31;  // "1RTA"
  EXPECT_EQ(WireFormat::header_version(relabeled.data(), relabeled.size()), 0);
  EXPECT_FALSE(wire.decode(relabeled).has_value());
}

TEST(WireTest, UnknownFutureVersionIsRejected) {
  WireFormat wire;
  auto bytes = wire.encode(make_frame(4, 5, 22));
  for (std::uint32_t v : {0u, 2u, 7u, 0xffffffffu}) {
    auto b = bytes;
    for (int i = 0; i < 4; ++i) b[4 + std::size_t(i)] = std::uint8_t(v >> (8 * i));
    EXPECT_FALSE(wire.decode(b).has_value()) << "version " << v;
    if (v != 0xffffffffu) {
      EXPECT_EQ(WireFormat::header_version(b.data(), b.size()), int(v));
    }
  }
}

class WireBitDepthSweep : public ::testing::TestWithParam<int> {};

TEST_P(WireBitDepthSweep, QuantizationErrorBounded) {
  WireFormat wire;
  wire.bits_per_rail = GetParam();
  const auto f = make_frame(8, 10, 2);
  const auto g = wire.decode(wire.encode(f));
  ASSERT_TRUE(g.has_value());
  // Worst-case error is half an LSB of the shared full scale.
  double peak = 0.0;
  for (std::size_t m = 0; m < 8; ++m)
    for (std::size_t k = 0; k < 10; ++k) {
      peak = std::max(peak, std::abs(f.samples(m, k).real()));
      peak = std::max(peak, std::abs(f.samples(m, k).imag()));
    }
  const double lsb = peak / double((1l << (wire.bits_per_rail - 1)) - 1);
  for (std::size_t m = 0; m < 8; ++m)
    for (std::size_t k = 0; k < 10; ++k) {
      EXPECT_LE(std::abs(g->samples(m, k).real() - f.samples(m, k).real()),
                0.51 * lsb);
      EXPECT_LE(std::abs(g->samples(m, k).imag() - f.samples(m, k).imag()),
                0.51 * lsb);
    }
}

INSTANTIATE_TEST_SUITE_P(Depths, WireBitDepthSweep,
                         ::testing::Values(8, 12, 16, 24));

TEST(WireTest, SixteenBitPreservesCovariance) {
  // The covariance (what MUSIC consumes) must survive 16-bit transport
  // essentially unchanged.
  WireFormat wire;
  const auto f = make_frame(8, 10, 3);
  const auto g = wire.decode(wire.encode(f));
  ASSERT_TRUE(g.has_value());
  const auto r1 = aoa::sample_covariance(f.samples);
  const auto r2 = aoa::sample_covariance(g->samples);
  EXPECT_LT(r1.max_abs_diff(r2), 1e-4 * r1.frobenius_norm());
}

TEST(WireTest, RejectsMalformedInput) {
  WireFormat wire;
  EXPECT_FALSE(wire.decode({}).has_value());
  EXPECT_FALSE(wire.decode(std::vector<std::uint8_t>(16, 0)).has_value());
  auto bytes = wire.encode(make_frame(4, 5, 4));
  bytes[0] ^= 0xff;  // bad magic
  EXPECT_FALSE(wire.decode(bytes).has_value());
  bytes[0] ^= 0xff;
  bytes.pop_back();  // truncated
  EXPECT_FALSE(wire.decode(bytes).has_value());
  bytes.push_back(0);
  bytes.push_back(0);  // trailing junk
  EXPECT_FALSE(wire.decode(bytes).has_value());
}

// The service ingest path feeds decode() attacker-controlled bytes, so
// it must never crash, over-allocate from a lying header, or hand the
// pipeline non-finite values — for ANY input. Sanity contract for a
// frame decode() does accept: plausible shape and all-finite fields.
void expect_sane(const std::optional<FrameCapture>& g) {
  if (!g) return;
  ASSERT_GE(g->samples.rows(), 1u);
  ASSERT_LE(g->samples.rows(), 1024u);
  ASSERT_GE(g->samples.cols(), 1u);
  ASSERT_LE(g->samples.cols(), 65536u);
  ASSERT_EQ(g->element_ids.size(), g->samples.rows());
  ASSERT_TRUE(std::isfinite(g->timestamp_s));
  ASSERT_TRUE(std::isfinite(g->snr_db));
  for (std::size_t m = 0; m < g->samples.rows(); ++m)
    for (std::size_t k = 0; k < g->samples.cols(); ++k) {
      ASSERT_TRUE(std::isfinite(g->samples(m, k).real()));
      ASSERT_TRUE(std::isfinite(g->samples(m, k).imag()));
    }
}

TEST(WireTest, CorruptionAtEveryOffsetNeverCrashes) {
  WireFormat wire;
  const auto bytes = wire.encode(make_frame(4, 6, 12));
  std::mt19937_64 rng(99);
  for (std::size_t off = 0; off < bytes.size(); ++off) {
    // Random bit flip plus a whole-byte overwrite at every offset:
    // the header fields (magic, version, shape, bits, seq, scale,
    // timestamp) all get hit.
    auto flipped = bytes;
    flipped[off] ^= std::uint8_t(1u << (rng() % 8));
    expect_sane(wire.decode(flipped));
    auto stomped = bytes;
    stomped[off] = std::uint8_t(rng());
    expect_sane(wire.decode(stomped));
  }
}

TEST(WireTest, ImpossibleHeaderShapesAreRejected) {
  WireFormat wire;
  auto bytes = wire.encode(make_frame(4, 6, 13));
  auto put32 = [&](std::size_t off, std::uint32_t v) {
    auto b = bytes;
    for (int i = 0; i < 4; ++i) b[off + std::size_t(i)] = std::uint8_t(v >> (8 * i));
    return b;
  };
  // v1 header: elements at offset 8, snapshots at 12, bits at 16.
  // elements: zero, over the cap, and huge enough that a naive
  // size computation would overflow.
  for (std::uint32_t v : {0u, 1025u, 0xffffffffu})
    EXPECT_FALSE(wire.decode(put32(8, v)).has_value()) << "elements " << v;
  // snapshots: zero and over the cap.
  for (std::uint32_t v : {0u, 65537u, 0xfffffff0u})
    EXPECT_FALSE(wire.decode(put32(12, v)).has_value()) << "snapshots " << v;
  // bits per rail: below 2, above 32.
  for (std::uint32_t v : {0u, 1u, 33u, 64u, 0x80000000u})
    EXPECT_FALSE(wire.decode(put32(16, v)).has_value()) << "bits " << v;
}

TEST(WireTest, NonFiniteHeaderFieldsAreRejected) {
  WireFormat wire;
  const auto base = wire.encode(make_frame(2, 3, 14));
  auto putf64 = [&](std::size_t off, double v) {
    auto b = base;
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) b[off + std::size_t(i)] = std::uint8_t(bits >> (8 * i));
    return b;
  };
  // v1 header: timestamp at offset 32, snr at 40, scale at 48.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double v : {nan, inf, -inf}) {
    EXPECT_FALSE(wire.decode(putf64(32, v)).has_value()) << "timestamp";
    EXPECT_FALSE(wire.decode(putf64(40, v)).has_value()) << "snr";
    EXPECT_FALSE(wire.decode(putf64(48, v)).has_value()) << "scale";
  }
  // A zero or negative scale is equally impossible from encode().
  EXPECT_FALSE(wire.decode(putf64(48, 0.0)).has_value());
  EXPECT_FALSE(wire.decode(putf64(48, -1.0)).has_value());
}

// A finite scale can still overflow the capture's power (and so every
// covariance built from it): such a record is refused, while a scale
// whose full-scale power stays finite decodes as before.
TEST(WireTest, ScaleThatOverflowsCapturePowerIsRejected) {
  WireFormat wire;
  const auto base = wire.encode(make_frame(2, 3, 14));
  auto with_scale = [&](double v) {
    auto b = base;
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) b[48 + std::size_t(i)] = std::uint8_t(bits >> (8 * i));
    return b;
  };
  // Full scale 1e150 * 2^15 is finite; its power over 2 x 3 samples is not.
  EXPECT_FALSE(wire.decode(with_scale(1e150)).has_value());
  EXPECT_FALSE(wire.decode(with_scale(1e200)).has_value());
  const auto ok = wire.decode(with_scale(1e140));
  ASSERT_TRUE(ok.has_value());
  const auto ref = wire.decode(base);
  ASSERT_TRUE(ref.has_value());
  const double ref_scale = [&] {
    double v;
    std::memcpy(&v, base.data() + 48, sizeof v);
    return v;
  }();
  for (std::size_t m = 0; m < 2; ++m)
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_EQ(ok->samples(m, k).real(),
                std::round(ref->samples(m, k).real() / ref_scale) * 1e140);
      EXPECT_EQ(ok->samples(m, k).imag(),
                std::round(ref->samples(m, k).imag() / ref_scale) * 1e140);
    }
}

TEST(WireTest, RandomGarbageBuffersNeverCrash) {
  WireFormat wire;
  std::mt19937_64 rng(4242);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> junk(rng() % 512);
    for (auto& b : junk) b = std::uint8_t(rng());
    if (junk.size() >= 4) {
      // Give a third of the trials the v1 magic so decode gets past
      // the first gate and exercises the header validation, and a
      // third the v0 magic, which must be refused outright.
      if (trial % 3 == 0) {
        junk[0] = 0x32; junk[1] = 0x52; junk[2] = 0x54; junk[3] = 0x41;  // v1
      } else if (trial % 3 == 1) {
        junk[0] = 0x31; junk[1] = 0x52; junk[2] = 0x54; junk[3] = 0x41;  // v0
        EXPECT_FALSE(wire.decode(junk).has_value());
      }
    }
    expect_sane(wire.decode(junk));
  }
}

TEST(WireTest, ZeroFrameSurvives) {
  WireFormat wire;
  FrameCapture f;
  f.samples = linalg::CMatrix(2, 3);
  f.element_ids = {0, 1};
  const auto g = wire.decode(wire.encode(f));
  ASSERT_TRUE(g.has_value());
  for (std::size_t m = 0; m < 2; ++m)
    for (std::size_t k = 0; k < 3; ++k)
      EXPECT_EQ(g->samples(m, k), (cplx{0, 0}));
}

}  // namespace
}  // namespace arraytrack::phy
