// Fault-injection tier for the federation layer.
//
// The cluster must stay coherent when nodes die mid-run and when the
// links between tiers misbehave. Coherent means three auditable
// properties, each asserted here:
//
//   1. No fix is ever double-published, whatever the links replayed or
//      the membership did — the (client, frame_time) stream on the
//      front bus is strictly increasing per client.
//   2. Every record offered to the front tier lands in exactly one
//      terminal counter along the chain: unroutable, a link terminal
//      (delivered / dropped / bad-tag / replayed / lost-on-reset), or
//      a node ingest terminal (accepted / decode error / version
//      reject / duplicate / replay / ring drop).
//   3. Shard handoff converges: after a kill and restart, every client
//      is being fixed again and sessions lost are counted, never
//      silently resurrected.
//
// All fault injection is seeded, so a failure reproduces exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "cluster/cluster.h"
#include "phy/wire.h"
#include "service/service.h"
#include "service/stats.h"

namespace arraytrack::cluster {
namespace {

using geom::Vec2;
using service::LocationService;
using service::ServiceOptions;
using Record = LocationService::TimedWireRecord;

geom::Floorplan make_plan() {
  geom::Floorplan plan({{0, 0}, {18, 10}});
  plan.add_wall({0, 0}, {18, 0}, geom::Material::kBrick);
  plan.add_wall({18, 0}, {18, 10}, geom::Material::kBrick);
  plan.add_wall({18, 10}, {0, 10}, geom::Material::kBrick);
  plan.add_wall({0, 10}, {0, 0}, geom::Material::kBrick);
  return plan;
}

std::unique_ptr<core::System> make_system(const geom::Floorplan* plan) {
  core::SystemConfig cfg;
  cfg.server.localizer.grid_step_m = 0.25;
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

/// 4 clients x `frames` transmits; one frame iteration emits a whole
/// 4 * num_aps record group, so any multiple of that group size is a
/// clean split point (no event torn across ingest batches).
std::vector<Record> wire_schedule(core::System& sys, int frames) {
  phy::WireFormat wire;
  std::vector<Record> out;
  for (int i = 0; i < frames; ++i)
    for (int c = 0; c < 4; ++c) {
      const double t = 0.1 + 0.2 * i + 0.011 * c;
      sys.transmit(c, client_sites()[std::size_t(c)], t);
      for (std::size_t a = 0; a < sys.num_aps(); ++a)
        out.push_back({t, a, wire.encode(sys.ap(int(a)).buffer().newest())});
    }
  return out;
}

ClusterOptions cluster_options(std::size_t nodes) {
  ClusterOptions opt;
  opt.nodes = nodes;
  opt.service.workers = 2;
  opt.service.virtual_clock = true;
  opt.service.virtual_cost_s = 0.02;
  opt.service.latency_slo_s = 0.5;
  return opt;
}

/// Property 1: the published stream never repeats or rewinds a
/// client's frame time.
void expect_no_double_publish(const std::vector<delivery::Fix>& fixes) {
  std::map<int, double> last;
  for (const auto& f : fixes) {
    auto it = last.find(f.client_id);
    if (it != last.end()) {
      EXPECT_GT(f.frame_time_s, it->second)
          << "client " << f.client_id << " fix repeated or rewound";
    }
    last[f.client_id] = f.frame_time_s;
  }
}

/// Property 2, link layer: exact when no corruption is injected (a
/// corrupted length field can evaporate a frame into resync bytes).
void expect_links_accounted(const LinkStats& st, std::size_t buffered,
                            bool exact) {
  const std::uint64_t entered = st.sent + st.fault_duplicated;
  const std::uint64_t terminal = st.delivered + st.auth_bad_tag +
                                 st.auth_replayed + st.fault_dropped +
                                 st.lost_on_reset;
  if (exact) {
    EXPECT_EQ(terminal, entered);
    EXPECT_EQ(buffered, 0u);
  } else {
    EXPECT_LE(terminal, entered);
  }
}

/// Property 2, node layer (the ingest_test invariant).
void expect_node_accounted(const service::ServiceStats& st) {
  EXPECT_EQ(st.wire_records_in.load(),
            st.wire_accepted.load() + st.decode_errors.load() +
                st.wire_version_rejected.load() + st.wire_duplicates.load() +
                st.wire_replays.load() + st.ring_dropped.load());
}

TEST(ClusterFaultTest, KillAndRestartMidRunConverges) {
  const auto plan = make_plan();
  auto capture = make_system(&plan);
  const auto records = wire_schedule(*capture, 9);
  const std::size_t third = records.size() / 3;  // frame-group aligned

  Cluster cluster([&] { return make_system(&plan); }, cluster_options(3));
  cluster.ingest({records.begin(), records.begin() + std::ptrdiff_t(third)});
  cluster.flush();

  // Kill whichever node owns client 0 — guaranteed to hold sessions.
  const std::size_t victim = cluster.node_of(0);
  const std::uint64_t sent_before = cluster.link_stats(victim).sent;
  cluster.node_kill(victim);
  EXPECT_EQ(cluster.node_service(victim), nullptr);
  EXPECT_GE(cluster.stats().sessions_lost, 1u);
  // Every envelope the dead link carried is accounted, not vanished.
  EXPECT_EQ(cluster.link_stats(victim).delivered +
                cluster.link_stats(victim).lost_on_reset,
            sent_before);
  // Survivors own every shard now.
  for (int c = 0; c < 4; ++c) EXPECT_NE(cluster.node_of(c), victim);

  // Middle third: orphaned clients are re-heard by survivors and start
  // fresh sessions.
  cluster.ingest({records.begin() + std::ptrdiff_t(third),
                  records.begin() + std::ptrdiff_t(2 * third)});
  cluster.flush();

  cluster.node_restart(victim);
  EXPECT_NE(cluster.node_service(victim), nullptr);
  EXPECT_EQ(cluster.stats().node_restarts, 1u);

  cluster.ingest(
      {records.begin() + std::ptrdiff_t(2 * third), records.end()});
  ClusterReport rep = cluster.run({});

  expect_no_double_publish(rep.fixes);
  for (std::size_t n = 0; n < cluster.num_slots(); ++n)
    if (cluster.node_alive(n))
      expect_node_accounted(cluster.node_service(n)->stats());
  expect_links_accounted(rep.links, 0, true);

  // Convergence: in the final third every client is being fixed again.
  const double t_final = records[2 * third].time_s;
  std::set<int> final_clients;
  for (const auto& f : rep.fixes)
    if (f.frame_time_s >= t_final) final_clients.insert(f.client_id);
  EXPECT_EQ(final_clients.size(), 4u)
      << "a client never recovered after the restart";
}

TEST(ClusterFaultTest, KillWithRecordsInFlightCountsThemLost) {
  const auto plan = make_plan();
  auto capture = make_system(&plan);
  const auto records = wire_schedule(*capture, 4);

  Cluster cluster([&] { return make_system(&plan); }, cluster_options(2));
  cluster.ingest(records);  // buffered on the links, never pumped
  const std::size_t victim = cluster.node_of(0);
  cluster.node_kill(victim);
  EXPECT_GT(cluster.link_stats(victim).lost_on_reset, 0u);
  cluster.flush();

  // Chain balance: offered = unroutable + put on links; every link
  // envelope = delivered or lost with the dead pipe; every delivered
  // data record hit a node ingest terminal.
  const LinkStats links = cluster.total_link_stats();
  EXPECT_EQ(cluster.stats().records_in,
            cluster.stats().unroutable + links.sent);
  EXPECT_EQ(links.sent, links.delivered + links.lost_on_reset);
  std::uint64_t node_in = 0;
  for (std::size_t n = 0; n < cluster.num_slots(); ++n)
    if (cluster.node_alive(n)) {
      node_in += cluster.node_service(n)->stats().wire_records_in.load();
      expect_node_accounted(cluster.node_service(n)->stats());
    }
  EXPECT_EQ(node_in, links.delivered);  // no handoffs in this run
}

TEST(ClusterFaultTest, DropDuplicateReorderKeepEveryInvariant) {
  const auto plan = make_plan();
  auto capture = make_system(&plan);
  const auto records = wire_schedule(*capture, 8);

  auto opt = cluster_options(2);
  opt.faults.drop = 0.1;
  opt.faults.duplicate = 0.15;
  opt.faults.reorder = 0.1;
  opt.faults.seed = 7;

  auto run = [&] {
    Cluster cluster([&] { return make_system(&plan); }, opt);
    ClusterReport rep = cluster.run(records);
    expect_no_double_publish(rep.fixes);
    expect_links_accounted(rep.links, 0, true);
    std::uint64_t node_in = 0;
    for (std::size_t n = 0; n < cluster.num_slots(); ++n) {
      node_in += cluster.node_service(n)->stats().wire_records_in.load();
      expect_node_accounted(cluster.node_service(n)->stats());
    }
    // Duplicated and reordered envelopes die at the link's replay
    // check; what reaches a node is each surviving record once.
    EXPECT_EQ(node_in, rep.links.delivered);
    EXPECT_GT(rep.links.fault_dropped, 0u);
    EXPECT_GT(rep.links.auth_replayed, 0u);
    EXPECT_FALSE(rep.fixes.empty());
    return rep;
  };

  // Seeded faults: the whole run, fixes included, is reproducible.
  const ClusterReport a = run();
  const ClusterReport b = run();
  ASSERT_EQ(a.fixes.size(), b.fixes.size());
  for (std::size_t i = 0; i < a.fixes.size(); ++i) {
    EXPECT_EQ(a.fixes[i].client_id, b.fixes[i].client_id);
    EXPECT_EQ(a.fixes[i].frame_time_s, b.fixes[i].frame_time_s);
    EXPECT_EQ(a.fixes[i].position.x, b.fixes[i].position.x);
    EXPECT_EQ(a.fixes[i].position.y, b.fixes[i].position.y);
  }
  EXPECT_EQ(a.links.fault_dropped, b.links.fault_dropped);
  EXPECT_EQ(a.links.auth_replayed, b.links.auth_replayed);
}

TEST(ClusterFaultTest, CorruptionAndTruncationDegradeGracefully) {
  const auto plan = make_plan();
  auto capture = make_system(&plan);
  const auto records = wire_schedule(*capture, 8);

  auto opt = cluster_options(2);
  opt.faults.corrupt = 0.08;
  opt.faults.truncate = 0.08;
  opt.faults.seed = 5;
  Cluster cluster([&] { return make_system(&plan); }, opt);
  ClusterReport rep = cluster.run(records);

  // Damaged frames are rejected by the tag check and the stream
  // resyncs — the surviving traffic still produces fixes and nothing
  // is double-published or misattributed.
  EXPECT_GT(rep.links.auth_bad_tag, 0u);
  EXPECT_FALSE(rep.fixes.empty());
  expect_no_double_publish(rep.fixes);
  expect_links_accounted(rep.links, 0, false);
  for (std::size_t n = 0; n < cluster.num_slots(); ++n)
    expect_node_accounted(cluster.node_service(n)->stats());
}

TEST(ClusterFaultTest, RestartHandsSurvivorSessionsBack) {
  // After a kill, survivors build sessions for the orphaned clients;
  // the restart must migrate those sessions to the rejoining node via
  // handoff (not leave them split across nodes).
  const auto plan = make_plan();
  auto capture = make_system(&plan);
  const auto records = wire_schedule(*capture, 6);
  const std::size_t half = records.size() / 2;

  Cluster cluster([&] { return make_system(&plan); }, cluster_options(2));
  cluster.ingest({records.begin(), records.begin() + std::ptrdiff_t(half)});
  cluster.flush();
  const std::size_t victim = cluster.node_of(0);
  cluster.node_kill(victim);
  cluster.ingest({records.begin() + std::ptrdiff_t(half), records.end()});
  cluster.flush();
  EXPECT_EQ(cluster.stats().handoffs_sent, 0u);

  cluster.node_restart(victim);
  // Client 0's shard is the victim's again, and its session moved with
  // it.
  EXPECT_EQ(cluster.node_of(0), victim);
  EXPECT_GT(cluster.stats().handoffs_sent, 0u);
  EXPECT_EQ(cluster.stats().handoffs_applied, cluster.stats().handoffs_sent);
  const auto clients = cluster.node_service(victim)->session_clients();
  EXPECT_TRUE(std::find(clients.begin(), clients.end(), 0) != clients.end());
}

}  // namespace
}  // namespace arraytrack::cluster
