// Deterministic stress tests for the sharded wire-ingest front-end.
//
// The load-bearing properties: (a) the admitted fix set is
// byte-identical for any decoder-thread count under the virtual clock,
// (b) per-AP sequence validation rejects duplicates and replays and
// counts gaps, (c) ring overflow drops oldest and is accounted, and
// (d) every offered record ends in exactly one terminal counter:
//   wire_records_in == wire_accepted + decode_errors
//                      + wire_version_rejected + wire_duplicates
//                      + wire_replays + ring_dropped,
// and (e) hostile records (zero power, saturated rails, one snapshot,
// a client at an AP, degenerate AP layouts) never yield a non-finite or
// off-floor fix, and those the pipeline cannot use (too few or foreign
// elements, a scale whose power overflows) end in decode_errors.
// The concurrent cases also run under the ThreadSanitizer tier of
// tools/check.sh.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "cluster/cluster.h"
#include "phy/wire.h"
#include "service/service.h"
#include "service/stats.h"
#include "wire_v0.h"

namespace arraytrack::service {
namespace {

using geom::Vec2;
using Record = LocationService::TimedWireRecord;

geom::Floorplan make_plan() {
  geom::Floorplan plan({{0, 0}, {18, 10}});
  plan.add_wall({0, 0}, {18, 0}, geom::Material::kBrick);
  plan.add_wall({18, 0}, {18, 10}, geom::Material::kBrick);
  plan.add_wall({18, 10}, {0, 10}, geom::Material::kBrick);
  plan.add_wall({0, 10}, {0, 0}, geom::Material::kBrick);
  return plan;
}

/// Fresh system per run: identical seeds => identical channel/noise
/// draws, which is what lets fix sets be compared byte for byte.
std::unique_ptr<core::System> make_system(const geom::Floorplan* plan) {
  core::SystemConfig cfg;
  cfg.server.localizer.grid_step_m = 0.25;  // keep tests quick
  auto sys = std::make_unique<core::System>(plan, cfg);
  sys->add_ap({1, 1}, deg2rad(45.0));
  sys->add_ap({17, 1}, deg2rad(135.0));
  sys->add_ap({9, 9.5}, deg2rad(-90.0));
  return sys;
}

const std::vector<Vec2>& client_sites() {
  static const std::vector<Vec2> sites = {
      {12.0, 6.0}, {5.0, 3.0}, {9.0, 7.0}, {14.5, 2.5}};
  return sites;
}

/// Transmits once and encodes every AP's newest capture as a timed
/// record — what a real deployment's APs would put on the wire.
std::vector<Record> encode_event(core::System& sys,
                                 const phy::WireFormat& wire, double t,
                                 int client, Vec2 pos) {
  sys.transmit(client, pos, t);
  std::vector<Record> out;
  for (std::size_t a = 0; a < sys.num_aps(); ++a)
    out.push_back({t, a, wire.encode(sys.ap(int(a)).buffer().newest())});
  return out;
}

void append(std::vector<Record>& dst, std::vector<Record> src) {
  for (auto& r : src) dst.push_back(std::move(r));
}

/// `frames` transmits per client, staggered so clients interleave.
std::vector<Record> wire_schedule(core::System& sys, int clients, int frames,
                                  double gap_s) {
  phy::WireFormat wire;
  std::vector<Record> out;
  for (int i = 0; i < frames; ++i)
    for (int c = 0; c < clients; ++c)
      append(out, encode_event(sys, wire, 0.1 + gap_s * i + 0.011 * c, c,
                               client_sites()[std::size_t(c)]));
  return out;
}

ServiceOptions virtual_options(std::size_t decoder_threads) {
  ServiceOptions opt;
  opt.workers = 2;
  opt.virtual_clock = true;
  opt.virtual_cost_s = 0.02;
  opt.latency_slo_s = 0.5;
  opt.decoder_threads = decoder_threads;
  return opt;
}

/// The ingest accounting invariant: every offered record ends in
/// exactly one terminal counter.
void expect_accounted(const ServiceStats& st) {
  EXPECT_EQ(st.wire_records_in.load(),
            st.wire_accepted.load() + st.decode_errors.load() +
                st.wire_version_rejected.load() + st.wire_duplicates.load() +
                st.wire_replays.load() + st.ring_dropped.load());
}

void expect_identical_fixes(const ServiceReport& a, const ServiceReport& b) {
  ASSERT_EQ(a.fixes.size(), b.fixes.size());
  for (std::size_t i = 0; i < a.fixes.size(); ++i) {
    EXPECT_EQ(a.fixes[i].client_id, b.fixes[i].client_id);
    EXPECT_EQ(a.fixes[i].seq, b.fixes[i].seq);
    EXPECT_EQ(a.fixes[i].frame_time_s, b.fixes[i].frame_time_s);
    // Exact double equality is the contract, not a tolerance: the
    // admitted job set and the pipeline are both deterministic.
    EXPECT_EQ(a.fixes[i].position.x, b.fixes[i].position.x);
    EXPECT_EQ(a.fixes[i].position.y, b.fixes[i].position.y);
    EXPECT_EQ(a.fixes[i].smoothed.x, b.fixes[i].smoothed.x);
    EXPECT_EQ(a.fixes[i].smoothed.y, b.fixes[i].smoothed.y);
    EXPECT_EQ(a.fixes[i].likelihood, b.fixes[i].likelihood);
  }
}

TEST(IngestTest, ByteIdenticalFixesAcrossDecoderThreadCounts) {
  const auto plan = make_plan();
  auto capture = make_system(&plan);
  const auto records = wire_schedule(*capture, 3, 5, 0.2);

  std::vector<ServiceReport> reports;
  for (std::size_t decoders : {1u, 2u, 8u}) {
    auto sys = make_system(&plan);
    LocationService svc(sys.get(), virtual_options(decoders));
    reports.push_back(svc.run_wire(records));
    expect_accounted(svc.stats());
    EXPECT_EQ(svc.stats().ring_dropped.load(), 0u);
    EXPECT_EQ(svc.stats().decode_errors.load(), 0u);
  }
  ASSERT_GT(reports[0].fixes.size(), 0u);
  for (std::size_t r = 1; r < reports.size(); ++r)
    expect_identical_fixes(reports[0], reports[r]);
}

TEST(IngestTest, ArrivalInterleavingDoesNotChangeFixes) {
  // Same records, adversarially reordered across APs (all of AP0's
  // records first, then AP1's, ...) while preserving each AP's own
  // arrival order — the canonical drain order must erase the
  // difference.
  const auto plan = make_plan();
  auto capture = make_system(&plan);
  const auto records = wire_schedule(*capture, 2, 4, 0.15);
  auto reordered = records;
  std::stable_sort(reordered.begin(), reordered.end(),
                   [](const Record& a, const Record& b) {
                     return a.ap_index < b.ap_index;
                   });

  std::vector<ServiceReport> reports;
  const std::vector<Record>* feeds[] = {&records, &reordered};
  for (const std::vector<Record>* feed : feeds) {
    auto sys = make_system(&plan);
    LocationService svc(sys.get(), virtual_options(2));
    reports.push_back(svc.run_wire(*feed));
    expect_accounted(svc.stats());
  }
  ASSERT_GT(reports[0].fixes.size(), 0u);
  expect_identical_fixes(reports[0], reports[1]);
}

TEST(IngestTest, DuplicatesAndReplaysAreRejected) {
  const auto plan = make_plan();
  auto capture = make_system(&plan);
  phy::WireFormat wire;
  const auto first = encode_event(*capture, wire, 0.1, 5, {12.0, 6.0});
  const auto second = encode_event(*capture, wire, 0.3, 5, {12.1, 6.0});
  const auto aps = std::uint64_t(capture->num_aps());

  std::vector<Record> feed = first;
  auto dup = first;  // same seq, retransmitted later
  for (auto& r : dup) r.time_s = 0.2;
  append(feed, dup);
  append(feed, second);
  auto replay = first;  // older seq after a newer one was seen
  for (auto& r : replay) r.time_s = 0.4;
  append(feed, replay);

  auto sys = make_system(&plan);
  LocationService svc(sys.get(), virtual_options(1));
  const auto rep = svc.run_wire(feed);

  const auto& st = svc.stats();
  EXPECT_EQ(st.wire_records_in.load(), 4 * aps);
  EXPECT_EQ(st.wire_duplicates.load(), aps);
  EXPECT_EQ(st.wire_replays.load(), aps);
  EXPECT_EQ(st.wire_accepted.load(), 2 * aps);
  expect_accounted(st);
  // Only the two genuine captures survive to become jobs.
  EXPECT_EQ(rep.fixes.size(), 2u);
  for (const auto& f : rep.fixes) EXPECT_EQ(f.client_id, 5);
}

TEST(IngestTest, SequenceGapsAreCountedButAccepted) {
  // Loss upstream of the server (a dropped record) shows as a forward
  // sequence jump: worth counting, wrong to reject.
  const auto plan = make_plan();
  auto capture = make_system(&plan);
  phy::WireFormat wire;
  std::vector<Record> feed = encode_event(*capture, wire, 0.1, 2, {9.0, 7.0});
  capture->transmit(2, {9.1, 7.0}, 0.3);
  for (std::size_t a = 0; a < capture->num_aps(); ++a) {
    phy::FrameCapture f = capture->ap(int(a)).buffer().newest();
    f.wire_seq += 7;  // as if 7 records were lost on this AP's link
    feed.push_back({0.3, a, wire.encode(f)});
  }
  const auto aps = std::uint64_t(capture->num_aps());

  auto sys = make_system(&plan);
  LocationService svc(sys.get(), virtual_options(1));
  const auto rep = svc.run_wire(feed);

  const auto& st = svc.stats();
  EXPECT_EQ(st.wire_gaps.load(), aps);
  EXPECT_EQ(st.wire_accepted.load(), 2 * aps);
  EXPECT_EQ(st.wire_duplicates.load(), 0u);
  EXPECT_EQ(st.wire_replays.load(), 0u);
  expect_accounted(st);
  EXPECT_EQ(rep.fixes.size(), 2u);
}

TEST(IngestTest, LegacyV0IsVersionRejected) {
  // Unversioned records carry no sequence number, so ingest refuses
  // them as a policy decision, accounted apart from corruption.
  const auto plan = make_plan();
  auto capture = make_system(&plan);
  phy::WireFormat wire;
  auto records = encode_event(*capture, wire, 0.2, 1, {5.0, 3.0});
  for (auto& r : records) r.bytes = test::v0_from_v1(r.bytes);
  const auto aps = std::uint64_t(capture->num_aps());

  auto sys = make_system(&plan);
  LocationService svc(sys.get(), virtual_options(2));
  const auto rep = svc.run_wire(records);
  EXPECT_EQ(svc.stats().wire_version_rejected.load(), aps);
  EXPECT_EQ(svc.stats().decode_errors.load(), 0u);
  EXPECT_EQ(svc.stats().wire_accepted.load(), 0u);
  expect_accounted(svc.stats());
  EXPECT_TRUE(rep.fixes.empty());
  EXPECT_EQ(svc.stats_json().find("wire_legacy_in"), std::string::npos);
}

TEST(IngestTest, RingOverflowDropsOldestAndIsCounted) {
  const auto plan = make_plan();
  auto capture = make_system(&plan);
  const auto records = wire_schedule(*capture, 1, 10, 0.1);  // 30 records
  const auto aps = std::uint64_t(capture->num_aps());

  auto sys = make_system(&plan);
  auto opt = virtual_options(1);
  opt.shards = 1;                // everything lands in one ring
  opt.ingest_ring_capacity = 4;  // far smaller than the burst
  LocationService svc(sys.get(), opt);
  const auto rep = svc.run_wire(records);

  const auto& st = svc.stats();
  EXPECT_EQ(st.wire_records_in.load(), 10 * aps);
  EXPECT_EQ(st.wire_accepted.load(), 4u);
  EXPECT_EQ(st.ring_dropped.load(), 10 * aps - 4u);
  expect_accounted(st);
  // Drop-oldest: the survivors are the newest records, so the fixes
  // that do come out are for the newest frame times.
  ASSERT_GT(rep.fixes.size(), 0u);
  for (const auto& f : rep.fixes) EXPECT_GT(f.frame_time_s, 0.8);
}

TEST(IngestTest, PerClientFifoWithConcurrentDecodersAndWorkers) {
  // Concurrent decoder threads, claim-contended shards, many workers:
  // each client's fixes must still be emitted in frame order. Under
  // the TSan tier this is a race test, not just an ordering test.
  const auto plan = make_plan();
  auto capture = make_system(&plan);
  const auto records = wire_schedule(*capture, 4, 6, 0.08);

  auto sys = make_system(&plan);
  auto opt = virtual_options(8);
  opt.workers = 8;
  opt.shards = 4;
  opt.virtual_cost_s = 0.05;
  LocationService svc(sys.get(), opt);
  svc.start();
  svc.ingest_wire(records);
  svc.flush();
  const auto fixes = svc.bus().drain_retained();  // emission order
  svc.stop();
  expect_accounted(svc.stats());

  ASSERT_GT(fixes.size(), 0u);
  std::map<int, std::uint64_t> last_seq;
  std::map<int, double> last_time;
  for (const auto& f : fixes) {
    if (last_seq.count(f.client_id)) {
      EXPECT_LT(last_seq[f.client_id], f.seq)
          << "client " << f.client_id << " fixes out of order";
      EXPECT_LE(last_time[f.client_id], f.frame_time_s);
    }
    last_seq[f.client_id] = f.seq;
    last_time[f.client_id] = f.frame_time_s;
  }
}

TEST(IngestTest, EveryOfferedRecordIsAccountedExactlyOnce) {
  // A hostile mix on one feed: valid v1 traffic, corrupt bytes,
  // truncations, unversioned v0, duplicates — all concurrent decoders.
  const auto plan = make_plan();
  auto capture = make_system(&plan);
  phy::WireFormat wire;
  std::vector<Record> feed = encode_event(*capture, wire, 0.1, 0, {12.0, 6.0});
  append(feed, encode_event(*capture, wire, 0.3, 1, {5.0, 3.0}));
  auto dup = feed;  // duplicate the entire history so far
  for (auto& r : dup) r.time_s += 0.4;
  append(feed, dup);
  feed.push_back({0.5, 0, {0x13, 0x37}});  // garbage
  auto truncated = feed[0];
  truncated.time_s = 0.55;
  truncated.bytes.resize(truncated.bytes.size() / 2);
  feed.push_back(std::move(truncated));
  auto v0 = encode_event(*capture, wire, 0.6, 2, {9.0, 7.0});
  for (auto& r : v0) r.bytes = test::v0_from_v1(r.bytes);
  append(feed, v0);
  feed.push_back({0.7, 99, feed[0].bytes});  // unknown AP index

  auto sys = make_system(&plan);
  LocationService svc(sys.get(), virtual_options(3));
  svc.run_wire(feed);

  const auto& st = svc.stats();
  EXPECT_EQ(st.wire_records_in.load(), feed.size());
  EXPECT_GT(st.wire_accepted.load(), 0u);
  EXPECT_GT(st.wire_duplicates.load(), 0u);
  EXPECT_GT(st.decode_errors.load(), 0u);
  EXPECT_GT(st.wire_version_rejected.load(), 0u);
  expect_accounted(st);
}

TEST(IngestTest, SubmitWireStillGroupsOneCallAsOneArrival) {
  // The legacy entry point must behave exactly as before: one call,
  // one arrival group, one job per client heard.
  const auto plan = make_plan();
  auto sys = make_system(&plan);
  LocationService svc(sys.get(), virtual_options(1));
  phy::WireFormat wire;
  const Vec2 truth{11.0, 4.0};
  sys->transmit(7, truth, 0.5);
  std::vector<LocationService::WireRecord> records;
  for (std::size_t a = 0; a < sys->num_aps(); ++a)
    records.push_back({a, wire.encode(sys->ap(int(a)).buffer().newest())});

  svc.start();
  svc.submit_wire(0.5, records);
  svc.flush();
  const auto fixes = svc.bus().drain_retained();
  svc.stop();

  ASSERT_EQ(fixes.size(), 1u);
  EXPECT_EQ(fixes[0].client_id, 7);
  EXPECT_LT(geom::distance(fixes[0].position, truth), 1.5);
  expect_accounted(svc.stats());
}

// ---- hostile-but-decodable input ----------------------------------

/// How the generator rewrites one AP's genuine capture before encoding.
enum class Hostile {
  kNone,
  kZeroPower,    // every sample exactly zero
  kSaturated,    // every rail at the int16 full scale, random signs
  kOneSnapshot,  // a single column: a rank-one covariance
  kLegacyV0,     // re-framed as an unversioned "1RTA" record
  kShortRow,     // two elements: fewer than the AP's MUSIC row
  kForeignIds,   // element ids the AP does not have
  kHugeScale,    // saturated rails at amplitude 1e200
  kCount,
};

struct HostileFeed {
  std::vector<Record> records;
  std::size_t legacy = 0;     // kLegacyV0 records
  std::size_t unusable = 0;   // kShortRow + kForeignIds + kHugeScale
};

/// Seeded generator of wire records that decode (or, for kLegacyV0, are
/// well formed) yet stress the pipeline, or that decode into captures
/// the AP's pipeline cannot use: each transmit puts its client at a
/// random floor point or exactly on an AP, and the APs' captures cycle
/// through every Hostile rewrite from a seeded offset. Per-AP sequence
/// numbers stay increasing, so every usable v1 record is admitted.
HostileFeed hostile_feed(core::System& sys, const geom::Rect& floor,
                         std::uint64_t seed, int transmits) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> ux(floor.min.x, floor.max.x);
  std::uniform_real_distribution<double> uy(floor.min.y, floor.max.y);
  phy::WireFormat wire;
  HostileFeed out;
  std::size_t next_kind = rng() % std::size_t(Hostile::kCount);
  for (int i = 0; i < transmits; ++i) {
    const double t = 0.1 + 0.1 * i;
    const int client = int(rng() % 3);
    Vec2 pos{ux(rng), uy(rng)};
    if (rng() % 3 == 0) pos = sys.ap(int(rng() % sys.num_aps())).array().position();
    sys.transmit(client, pos, t);
    for (std::size_t a = 0; a < sys.num_aps(); ++a) {
      phy::FrameCapture f = sys.ap(int(a)).buffer().newest();
      const auto kind =
          Hostile(next_kind++ % std::size_t(Hostile::kCount));
      auto& x = f.samples;
      const auto saturate = [&](double amp) {
        for (std::size_t m = 0; m < x.rows(); ++m)
          for (std::size_t k = 0; k < x.cols(); ++k)
            x(m, k) = cplx{rng() % 2 ? amp : -amp, rng() % 2 ? amp : -amp};
      };
      switch (kind) {
        case Hostile::kNone:
        case Hostile::kLegacyV0:
        case Hostile::kCount:
          break;
        case Hostile::kZeroPower:
          x = linalg::CMatrix(x.rows(), x.cols());
          break;
        case Hostile::kSaturated:
          saturate(1.0);
          break;
        case Hostile::kOneSnapshot:
          x = x.block(0, 0, x.rows(), 1);
          break;
        case Hostile::kShortRow:
          x = x.block(0, 0, 2, x.cols());
          f.element_ids.resize(2);
          break;
        case Hostile::kForeignIds:
          for (auto& id : f.element_ids) id += 100;
          break;
        case Hostile::kHugeScale:
          saturate(1e200);
          break;
      }
      auto bytes = wire.encode(f);
      if (kind == Hostile::kLegacyV0) {
        bytes = test::v0_from_v1(bytes);
        ++out.legacy;
      }
      if (kind == Hostile::kShortRow || kind == Hostile::kForeignIds ||
          kind == Hostile::kHugeScale)
        ++out.unusable;
      out.records.push_back({t, a, std::move(bytes)});
    }
  }
  return out;
}

/// Runs a hostile feed through ingest_wire and checks the two hostile-
/// input contracts: exact accounting, and only finite on-floor fixes.
void expect_hostile_feed_handled(core::System& capture,
                                 const std::function<std::unique_ptr<
                                     core::System>()>& fresh,
                                 const geom::Rect& floor) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const auto feed = hostile_feed(capture, floor, seed, 12);
    auto sys = fresh();
    LocationService svc(sys.get(), virtual_options(2));
    const auto rep = svc.run_wire(feed.records);
    const auto& st = svc.stats();
    EXPECT_EQ(st.wire_records_in.load(), feed.records.size());
    EXPECT_GT(st.wire_accepted.load(), 0u);
    EXPECT_GT(feed.legacy, 0u);
    EXPECT_GT(feed.unusable, 0u);
    EXPECT_EQ(st.wire_version_rejected.load(), feed.legacy);
    EXPECT_EQ(st.decode_errors.load(), feed.unusable);
    expect_accounted(st);
    for (const auto& f : rep.fixes) {
      ASSERT_TRUE(std::isfinite(f.position.x) && std::isfinite(f.position.y))
          << "client " << f.client_id << " seq " << f.seq;
      ASSERT_TRUE(std::isfinite(f.smoothed.x) && std::isfinite(f.smoothed.y));
      ASSERT_TRUE(std::isfinite(f.likelihood));
      EXPECT_GE(f.position.x, floor.min.x);
      EXPECT_LE(f.position.x, floor.max.x);
      EXPECT_GE(f.position.y, floor.min.y);
      EXPECT_LE(f.position.y, floor.max.y);
    }
  }
}

/// System over make_plan() with APs at the given poses.
std::unique_ptr<core::System> system_with_aps(
    const geom::Floorplan* plan,
    const std::vector<std::pair<Vec2, double>>& poses) {
  core::SystemConfig cfg;
  cfg.server.localizer.grid_step_m = 0.25;
  auto sys = std::make_unique<core::System>(plan, cfg);
  for (const auto& [pos, orient] : poses) sys->add_ap(pos, orient);
  return sys;
}

TEST(IngestHostileTest, DegenerateCapturesYieldOnlyFiniteOnFloorFixes) {
  const auto plan = make_plan();
  auto capture = make_system(&plan);
  expect_hostile_feed_handled(
      *capture, [&] { return make_system(&plan); }, plan.bounds());
}

TEST(IngestHostileTest, CollinearApsYieldOnlyFiniteOnFloorFixes) {
  // Three APs on one line: every bearing pair from them intersects on
  // that line or nowhere, and clients on the line sit at a degenerate
  // triangulation.
  const auto plan = make_plan();
  const std::vector<std::pair<Vec2, double>> poses = {
      {{2, 5}, 0.0}, {{9, 5}, deg2rad(90.0)}, {{16, 5}, deg2rad(180.0)}};
  auto capture = system_with_aps(&plan, poses);
  expect_hostile_feed_handled(
      *capture, [&] { return system_with_aps(&plan, poses); }, plan.bounds());
}

TEST(IngestHostileTest, OneApYieldsOnlyFiniteOnFloorFixes) {
  // A single bearing cannot fix a position; the engine must still
  // account every record and emit nothing off the floor.
  const auto plan = make_plan();
  const std::vector<std::pair<Vec2, double>> poses = {{{9, 9.5}, deg2rad(-90.0)}};
  auto capture = system_with_aps(&plan, poses);
  expect_hostile_feed_handled(
      *capture, [&] { return system_with_aps(&plan, poses); }, plan.bounds());
}

TEST(IngestHostileTest, ClusterFrontTierCountsV0AsUnroutable) {
  // The front tier routes on the client id it peeks from a v1 header;
  // an unversioned record has none it will trust.
  const auto plan = make_plan();
  auto capture = make_system(&plan);
  phy::WireFormat wire;
  auto feed = encode_event(*capture, wire, 0.1, 0, {12.0, 6.0});
  const std::size_t v1_records = feed.size();
  auto v0 = encode_event(*capture, wire, 0.3, 1, {5.0, 3.0});
  for (auto& r : v0) r.bytes = test::v0_from_v1(r.bytes);
  append(feed, v0);

  cluster::ClusterOptions opt;
  opt.nodes = 2;
  opt.service = virtual_options(1);
  cluster::Cluster cl([&] { return make_system(&plan); }, opt);
  cl.ingest(feed);
  cl.flush();
  EXPECT_EQ(cl.stats().records_in, feed.size());
  EXPECT_EQ(cl.stats().unroutable, feed.size() - v1_records);
}

}  // namespace
}  // namespace arraytrack::service
