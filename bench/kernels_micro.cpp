// Per-kernel microbenchmark for the SIMD layer: projector matvec,
// Bartlett quadratic form, covariance accumulation, forward-backward
// averaging, the heatmap gather+lerp+product, and the bearing-blur FIR,
// each timed at the scalar level and at the dispatched level, reporting
// ns/op and the effective memory bandwidth of the streams each kernel
// touches. Emits BENCH_kernels.json (path overridable with `--out`);
// `--smoke` runs a fast pass that also cross-checks scalar vs
// dispatched results (<= 1e-9 relative) and pins the FIR bitwise
// against the portable convolution loop at every level, and is
// registered as the kernels_smoke ctest.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/simd.h"
#include "linalg/kernels.h"

using namespace arraytrack;
using core::simd::ForcedLevel;
using core::simd::Level;
using linalg::SplitPlanes;

namespace {

// Realistic hot-path shapes: the MUSIC half-sweep of an 8-antenna AP
// (361 bins x 7-element smoothed subarray, 3 signal vectors), the
// paper's 10-snapshot covariance, and the 6-AP office heatmap grid.
constexpr std::size_t kBins = 361;
constexpr std::size_t kM = 7;
constexpr std::size_t kNvec = 3;
constexpr std::size_t kCovM = 8;
constexpr std::size_t kCovN = 10;
constexpr std::size_t kCells = 320 * 140;
constexpr std::size_t kSpecBins = 720;
// The spectrum blur: 33 taps ~ sigma 2 deg at 720 bins.
constexpr std::size_t kTaps = 33;

struct Timing {
  double scalar_ns = 0.0;
  double simd_ns = 0.0;
  double bytes = 0.0;  // streamed per op
  double speedup() const { return simd_ns > 0.0 ? scalar_ns / simd_ns : 0.0; }
  double simd_gbs() const { return simd_ns > 0.0 ? bytes / simd_ns : 0.0; }
  double scalar_gbs() const {
    return scalar_ns > 0.0 ? bytes / scalar_ns : 0.0;
  }
};

double time_ns_per_op(const std::function<void()>& op, std::size_t iters) {
  using clock = std::chrono::steady_clock;
  op();  // warm caches and the dispatch slot
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = clock::now();
    for (std::size_t i = 0; i < iters; ++i) op();
    const double ns =
        std::chrono::duration<double, std::nano>(clock::now() - t0).count() /
        double(iters);
    best = std::min(best, ns);
  }
  return best;
}

Timing time_levels(const std::function<void()>& op, std::size_t iters,
                   double bytes) {
  Timing t;
  t.bytes = bytes;
  {
    ForcedLevel g(Level::kScalar);
    t.scalar_ns = time_ns_per_op(op, iters);
  }
  t.simd_ns = time_ns_per_op(op, iters);  // ambient (dispatched) level
  return t;
}

double max_rel_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max({std::abs(a[i]), std::abs(b[i]), 1e-300});
    worst = std::max(worst, std::abs(a[i] - b[i]) / scale);
  }
  return worst;
}

struct Fixture {
  SplitPlanes table{kBins, kM};
  std::vector<double> ev_re, ev_im;
  SplitPlanes snaps{kCovN, kCovM};
  std::vector<cplx> herm;
  std::vector<cplx> cov_out;
  std::vector<cplx> fb_out;
  std::vector<double> power;
  std::vector<std::int32_t> bin0, bin1;
  std::vector<double> frac;
  std::vector<double> cells;
  std::vector<double> sweep_out;
  std::vector<double> fir_in;    // kSpecBins + kTaps - 1 samples
  std::vector<double> fir_taps;
  std::vector<double> fir_out;

  Fixture() {
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    for (std::size_t k = 0; k < kM; ++k)
      for (std::size_t i = 0; i < kBins; ++i)
        table.set(k, i, cplx{u(rng), u(rng)});
    ev_re.resize(kNvec * kM);
    ev_im.resize(kNvec * kM);
    for (auto& v : ev_re) v = u(rng);
    for (auto& v : ev_im) v = u(rng);
    for (std::size_t k = 0; k < kCovM; ++k)
      for (std::size_t i = 0; i < kCovN; ++i)
        snaps.set(k, i, cplx{u(rng), u(rng)});
    herm.resize(kM * kM);
    for (std::size_t i = 0; i < kM; ++i) {
      herm[i * kM + i] = cplx{2.0 + u(rng), 0.0};
      for (std::size_t j = i + 1; j < kM; ++j) {
        herm[i * kM + j] = cplx{u(rng), u(rng)};
        herm[j * kM + i] = std::conj(herm[i * kM + j]);
      }
    }
    cov_out.resize(kCovM * kCovM);
    fb_out.resize(kM * kM);
    power.resize(kSpecBins);
    for (auto& v : power) v = 0.05 + std::abs(u(rng));
    bin0.resize(kCells);
    bin1.resize(kCells);
    frac.resize(kCells);
    std::uniform_int_distribution<std::int32_t> bins(0, kSpecBins - 1);
    for (std::size_t c = 0; c < kCells; ++c) {
      bin0[c] = bins(rng);
      bin1[c] = (bin0[c] + 1) % std::int32_t(kSpecBins);
      frac[c] = 0.5 * (u(rng) + 1.0);
    }
    cells.assign(kCells, 1.0);
    sweep_out.resize(kBins);
    fir_in.resize(kSpecBins + kTaps - 1);
    for (auto& v : fir_in) v = 0.05 + std::abs(u(rng));
    fir_taps.resize(kTaps);
    for (auto& v : fir_taps) v = 0.5 * (u(rng) + 1.0);
    fir_out.resize(kSpecBins);
  }
};

struct Report {
  const char* key;
  Timing t;
};

int run(bool smoke, const char* out_path) {
  bench::banner("Kernel microbench",
                "SIMD layer: scalar vs dispatched hot loops");
  Fixture f;
  const std::size_t scale = smoke ? 1 : 8;

  const Timing projector = time_levels(
      [&] {
        linalg::kernels::projector_power(f.table, f.ev_re.data(),
                                         f.ev_im.data(), kNvec,
                                         f.sweep_out.data());
      },
      800 * scale, double((2 * kBins * kM + kBins) * sizeof(double)));

  const Timing bartlett = time_levels(
      [&] {
        linalg::kernels::bartlett_power(f.table, f.herm.data(),
                                        f.sweep_out.data());
      },
      400 * scale, double((2 * kBins * kM + kBins) * sizeof(double)));

  const Timing cov = time_levels(
      [&] { linalg::kernels::covariance(f.snaps, f.cov_out.data()); },
      4000 * scale,
      double((2 * kCovM * kCovN + 2 * kCovM * kCovM) * sizeof(double)));

  const Timing fb = time_levels(
      [&] { linalg::kernels::forward_backward(f.herm.data(), kM, f.fb_out.data()); },
      8000 * scale, double(4 * kM * kM * sizeof(double)));

  const Timing heatmap = time_levels(
      [&] {
        linalg::kernels::gather_lerp_product(f.power.data(), f.bin0.data(),
                                             f.bin1.data(), f.frac.data(),
                                             kCells, 0.05, f.cells.data());
        // Keep the running product finite across iterations.
        std::fill(f.cells.begin(), f.cells.end(), 1.0);
      },
      20 * scale,
      double(kCells * (2 * sizeof(std::int32_t) + 4 * sizeof(double))));

  const Timing fir = time_levels(
      [&] {
        linalg::kernels::fir(f.fir_in.data(), kSpecBins, f.fir_taps.data(),
                             kTaps, f.fir_out.data());
      },
      3200 * scale,
      double(((kSpecBins + kTaps - 1) + kSpecBins) * sizeof(double)));

  const Report reports[] = {{"projector", projector},
                            {"bartlett", bartlett},
                            {"covariance", cov},
                            {"forward_backward", fb},
                            {"heatmap", heatmap},
                            {"fir", fir}};
  std::printf("dispatched level: %s (hardware max %s)\n\n",
              core::simd::name(core::simd::active()),
              core::simd::name(core::simd::hardware_level()));
  std::printf("%-18s %12s %12s %9s %10s\n", "kernel", "scalar ns/op",
              "simd ns/op", "speedup", "simd GB/s");
  std::vector<std::pair<std::string, double>> fields;
  for (const auto& rep : reports) {
    std::printf("%-18s %12.1f %12.1f %8.2fx %10.2f\n", rep.key,
                rep.t.scalar_ns, rep.t.simd_ns, rep.t.speedup(),
                rep.t.simd_gbs());
    fields.push_back({std::string(rep.key) + "_scalar_ns", rep.t.scalar_ns});
    fields.push_back({std::string(rep.key) + "_simd_ns", rep.t.simd_ns});
    fields.push_back({std::string(rep.key) + "_speedup", rep.t.speedup()});
    fields.push_back({std::string(rep.key) + "_simd_gbs", rep.t.simd_gbs()});
  }
  const std::size_t float_bytes = 2 * kBins * kM * sizeof(double);
  fields.push_back({"steering_table_bytes", double(float_bytes)});
  bench::write_bench_json(
      out_path != nullptr ? out_path : "BENCH_kernels.json", "kernels_micro",
      fields,
      {{"simd_level", core::simd::name(core::simd::active())},
       {"hardware_level", core::simd::name(core::simd::hardware_level())}});

  if (!smoke) return 0;

  // Smoke validation: every dispatchable level must agree with the
  // scalar reference to 1e-9 relative on every kernel output.
  int failures = 0;
  auto check = [&](const char* what, const std::function<void()>& op,
                   const std::vector<double>& (*snapshot)(Fixture&)) {
    ForcedLevel base(Level::kScalar);
    op();
    const std::vector<double> want = snapshot(f);
    for (Level lvl : {Level::kSse2, Level::kAvx2}) {
      if (core::simd::clamp_to_hardware(lvl) != lvl) continue;
      ForcedLevel g(lvl);
      op();
      const double dev = max_rel_diff(snapshot(f), want);
      if (dev > 1e-9) {
        std::printf("SMOKE FAIL: %s at %s deviates %.3g\n", what,
                    core::simd::name(lvl), dev);
        ++failures;
      }
    }
  };
  static std::vector<double> scratch;
  check(
      "projector",
      [&] {
        linalg::kernels::projector_power(f.table, f.ev_re.data(),
                                         f.ev_im.data(), kNvec,
                                         f.sweep_out.data());
      },
      +[](Fixture& fx) -> const std::vector<double>& { return fx.sweep_out; });
  check(
      "heatmap",
      [&] {
        std::fill(f.cells.begin(), f.cells.end(), 1.0);
        linalg::kernels::gather_lerp_product(f.power.data(), f.bin0.data(),
                                             f.bin1.data(), f.frac.data(),
                                             kCells, 0.05, f.cells.data());
      },
      +[](Fixture& fx) -> const std::vector<double>& { return fx.cells; });
  check(
      "covariance",
      [&] {
        linalg::kernels::covariance(f.snaps, f.cov_out.data());
        scratch.assign(reinterpret_cast<const double*>(f.cov_out.data()),
                       reinterpret_cast<const double*>(f.cov_out.data()) +
                           2 * f.cov_out.size());
      },
      +[](Fixture&) -> const std::vector<double>& { return scratch; });
  // The FIR carries a stronger contract than the 1e-9 checks above:
  // at every level it must match the portable convolution loop
  // BITWISE, because the bearing blur's bits feed every fix.
  for (Level lvl : {Level::kScalar, Level::kSse2, Level::kAvx2}) {
    if (core::simd::clamp_to_hardware(lvl) != lvl) continue;
    ForcedLevel g(lvl);
    linalg::kernels::fir(f.fir_in.data(), kSpecBins, f.fir_taps.data(), kTaps,
                         f.fir_out.data());
    for (std::size_t i = 0; i < kSpecBins; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < kTaps; ++j)
        acc += f.fir_taps[j] * f.fir_in[i + j];
      if (std::memcmp(&acc, &f.fir_out[i], 8)) {
        std::printf("SMOKE FAIL: fir sample %zu at %s not bitwise\n", i,
                    core::simd::name(lvl));
        ++failures;
        break;
      }
    }
  }

  if (failures == 0) std::printf("smoke: all levels agree with scalar\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
  }
  return run(smoke, out_path);
}
