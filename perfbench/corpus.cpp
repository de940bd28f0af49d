#include "corpus.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>

namespace perfbench {

using namespace arraytrack;

namespace {

// Generator threads. Fixed (not the host's core count) so that a seed
// maps to the same corpus on every machine.
constexpr std::size_t kGenThreads = 4;

std::uint64_t mix(std::uint64_t x) {
  // splitmix64 finalizer.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// A walker going back and forth along a straight segment, one round
/// trip per corpus cycle.
struct Walker {
  geom::Vec2 a, b;
  double phase_s = 0.0;

  geom::Vec2 at(double t, double period_s) const {
    double u = std::fmod(t + phase_s, period_s) / period_s;
    if (u < 0.0) u += 1.0;
    const double s = u < 0.5 ? 2.0 * u : 2.0 - 2.0 * u;
    return a + (b - a) * s;
  }
};

/// What one job transmits, decided serially before the parallel
/// channel simulation.
struct Plan {
  int client = -1;
  double t = 0.0;
  geom::Vec2 truth;
  std::vector<std::pair<geom::Vec2, double>> frames;  // (position, time)
};

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> w;
    Workload burst;
    burst.name = "office6_burst";
    burst.loop = Loop::kOpen;
    burst.ap_sites = {0, 1, 2, 3, 4, 5};
    burst.burst_frames = 3;
    burst.rate_hz = 200.0;
    burst.cycle_jobs = 41 * 20;
    burst.replay_jobs = 120;
    w.push_back(burst);

    Workload walk;
    walk.name = "office3_walk";
    walk.loop = Loop::kOpen;
    walk.ap_sites = {1, 4, 5};
    walk.walking = true;
    walk.walkers = 128;
    walk.burst_frames = 1;
    walk.rate_hz = 512.0;  // each walker every 250 ms
    walk.cycle_jobs = 2048;
    walk.queries = true;
    walk.replay_jobs = 400;
    w.push_back(walk);

    Workload sat = burst;
    sat.name = "office6_saturate";
    sat.loop = Loop::kClosed;
    sat.outstanding = 16;  // workers x batch_max
    w.push_back(sat);
    return w;
  }();
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& wl : workloads())
    if (wl.name == name) return &wl;
  return nullptr;
}

core::SystemConfig served_config() { return core::SystemConfig{}; }

std::unique_ptr<core::System> make_system(const Workload& wl,
                                          const testbed::OfficeTestbed& tb,
                                          const core::SystemConfig& cfg) {
  auto sys = std::make_unique<core::System>(&tb.plan, cfg);
  for (std::size_t s : wl.ap_sites)
    sys->add_ap(tb.ap_sites[s].position, tb.ap_sites[s].orientation_rad);
  return sys;
}

Corpus make_corpus(const Workload& wl, const testbed::OfficeTestbed& tb,
                   std::uint64_t seed) {
  std::mt19937_64 rng(mix(seed));
  Corpus corpus;
  corpus.period_s = double(wl.cycle_jobs) / wl.rate_hz;

  // Clients take turns in a seeded order; job k is due at (k + 1/2) /
  // rate, so each client repeats every (clients / rate) seconds.
  const std::size_t clients = wl.walking ? wl.walkers : tb.clients.size();
  std::vector<int> order(clients);
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);

  std::vector<Walker> walkers;
  if (wl.walking) {
    // Paths are part of the floor's layout, fixed like the static
    // clients' positions.
    std::mt19937_64 layout(2013);
    const geom::Rect floor = tb.plan.bounds();
    const double margin = 1.5;
    std::uniform_real_distribution<double> ux(floor.min.x + margin,
                                              floor.max.x - margin);
    std::uniform_real_distribution<double> uy(floor.min.y + margin,
                                              floor.max.y - margin);
    std::uniform_real_distribution<double> uang(0.0, kTwoPi);
    std::uniform_real_distribution<double> ulen(2.0, 4.5);
    std::uniform_real_distribution<double> uphase(0.0, corpus.period_s);
    const geom::Rect inner = floor.expanded(-margin);
    for (std::size_t w = 0; w < clients; ++w) {
      Walker wk;
      do {
        wk.a = {ux(layout), uy(layout)};
        const double ang = uang(layout), len = ulen(layout);
        wk.b = wk.a + geom::Vec2{std::cos(ang), std::sin(ang)} * len;
      } while (!inner.contains(wk.b));
      wk.phase_s = uphase(layout);
      walkers.push_back(wk);
    }
  }

  std::uniform_real_distribution<double> jitter(-0.004, 0.004);
  std::vector<Plan> plans(wl.cycle_jobs);
  for (std::size_t k = 0; k < wl.cycle_jobs; ++k) {
    Plan& p = plans[k];
    p.client = order[k % clients];
    p.t = (double(k) + 0.5) / wl.rate_hz;
    for (std::size_t f = 0; f < wl.burst_frames; ++f) {
      // Burst frames ~30 ms apart, oldest first; the newest is at t.
      const std::size_t back = wl.burst_frames - 1 - f;
      const double tf =
          p.t - 0.030 * double(back) + (back ? jitter(rng) : 0.0);
      const geom::Vec2 pos =
          wl.walking ? walkers[std::size_t(p.client)].at(tf, corpus.period_s)
                     : tb.clients[std::size_t(p.client)];
      p.frames.emplace_back(pos, tf);
    }
    p.truth = p.frames.back().first;
  }

  // Channel simulation dominates generation; contiguous job chunks run
  // on their own generator Systems, so the result depends only on the
  // seed. The channel (the building's scatter fields) is the served
  // configuration's; the seed draws the receiver noise.
  corpus.jobs.resize(plans.size());
  std::vector<std::thread> threads;
  const std::size_t chunk = (plans.size() + kGenThreads - 1) / kGenThreads;
  for (std::size_t g = 0; g < kGenThreads; ++g) {
    threads.emplace_back([&, g] {
      core::SystemConfig cfg = served_config();
      cfg.ap.noise_seed = mix(seed ^ (0x2000 + g));
      auto gen = make_system(wl, tb, cfg);
      const phy::WireFormat wire;
      const std::size_t lo = g * chunk;
      const std::size_t hi = std::min(plans.size(), lo + chunk);
      for (std::size_t k = lo; k < hi; ++k) {
        Job& job = corpus.jobs[k];
        job.client = plans[k].client;
        job.t = plans[k].t;
        job.truth = plans[k].truth;
        for (const auto& [pos, tf] : plans[k].frames) {
          gen->transmit(job.client, pos, tf);
          for (std::size_t a = 0; a < gen->num_aps(); ++a)
            job.records.push_back(
                {a, wire.encode(gen->ap(int(a)).buffer().newest())});
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  return corpus;
}

std::vector<geom::Rect> zone_rects() {
  return {{{0.0, 0.0}, {8.0, 6.0}},
          {{12.0, 0.0}, {20.0, 6.0}},
          {{6.4, 8.0}, {12.8, 14.0}},
          {{19.2, 8.0}, {25.6, 14.0}}};
}

QueryPlan query_plan(std::size_t k, std::size_t clients, std::size_t zones) {
  QueryPlan q;
  q.latest_client = int((k * 37 + 11) % clients);
  if (k % 4 == 0) q.trajectory_client = int((k * 53 + 5) % clients);
  if (k % 8 == 0) q.zone = int((k / 8) % zones);
  return q;
}

std::vector<service::LocationService::TimedWireRecord> Sender::encode(
    const Job& job, double offset_s) {
  std::vector<service::LocationService::TimedWireRecord> out;
  out.reserve(job.records.size());
  for (const auto& rec : job.records) {
    auto f = wire_.decode(rec.bytes);
    if (!f) throw std::runtime_error("perfbench: corpus record does not decode");
    f->timestamp_s += offset_s;
    f->source_ap = std::uint32_t(rec.ap);
    f->wire_seq = next_seq_[rec.ap]++;
    out.push_back({job.t + offset_s, rec.ap, wire_.encode(*f)});
  }
  return out;
}

}  // namespace perfbench
