#include "core/synthesis.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>

#include "core/thread_pool.h"
#include "linalg/kernels.h"

namespace arraytrack::core {

double ApSpectrum::likelihood_toward(const geom::Vec2& x, double floor) const {
  const double world_bearing = (x - ap_position).angle();
  const double local = wrap_2pi(world_bearing - orientation_rad);
  return std::max(spectrum.value_at(local), floor);
}

geom::Vec2 Heatmap::cell_center(std::size_t ix, std::size_t iy) const {
  const double sx = bounds.width() / double(nx);
  const double sy = bounds.height() / double(ny);
  return {bounds.min.x + (double(ix) + 0.5) * sx,
          bounds.min.y + (double(iy) + 0.5) * sy};
}

double Heatmap::max_value() const {
  return cells.empty() ? 0.0 : *std::max_element(cells.begin(), cells.end());
}

std::string Heatmap::to_ascii(std::size_t width) const {
  static const char kShades[] = " .:-=+*#%@";
  if (cells.empty() || nx == 0 || ny == 0) return "";
  const std::size_t height =
      std::max<std::size_t>(1, width * ny / (nx * 2));  // chars ~2:1 aspect
  const double top = max_value();
  std::ostringstream os;
  for (std::size_t r = 0; r < height; ++r) {
    // Top row shows max y.
    const std::size_t iy = (height - 1 - r) * ny / height;
    for (std::size_t c = 0; c < width; ++c) {
      const std::size_t ix = c * nx / width;
      const double v = top > 0.0 ? at(ix, iy) / top : 0.0;
      const int shade = std::min(9, int(v * 9.999));
      os << kShades[shade];
    }
    os << "\n";
  }
  return os.str();
}

Localizer::Localizer(geom::Rect bounds, LocalizerOptions opt)
    : bounds_(bounds), opt_(opt), quant_enabled_(opt.quantized_sweep) {}

double Localizer::likelihood(const std::vector<ApSpectrum>& aps,
                             const geom::Vec2& x) const {
  double l = 1.0;
  for (const auto& ap : aps) l *= ap.likelihood_toward(x, opt_.floor);
  return l;
}

std::shared_ptr<const Localizer::BearingLut> Localizer::bearing_lut(
    const ApSpectrum& ap, std::size_t nx, std::size_t ny) const {
  const std::size_t bins = ap.spectrum.bins();
  const LutKey key{ap.ap_position.x, ap.ap_position.y, ap.orientation_rad,
                   bins};
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    auto it = bearing_cache_.find(key);
    if (it != bearing_cache_.end()) return it->second;
  }

  // Built outside the lock: two threads may race to build the same
  // table, but they produce identical values and the map keeps one.
  Heatmap probe;
  probe.bounds = bounds_;
  probe.nx = nx;
  probe.ny = ny;
  auto lut = std::make_shared<BearingLut>();
  lut->bin0.resize(nx * ny);
  lut->bin1.resize(nx * ny);
  lut->frac.resize(nx * ny);
  const double bin_width = kTwoPi / double(bins);
  for (std::size_t iy = 0; iy < ny; ++iy)
    for (std::size_t ix = 0; ix < nx; ++ix) {
      const geom::Vec2 x = probe.cell_center(ix, iy);
      const double world = (x - ap.ap_position).angle();
      // Exactly AoaSpectrum::value_at's bin/weight derivation applied
      // to the bearing the uncached path would pass it.
      const double w = wrap_2pi(world - ap.orientation_rad) / bin_width;
      const std::size_t i0 = std::size_t(w) % bins;
      const std::size_t cell = iy * nx + ix;
      lut->bin0[cell] = std::int32_t(i0);
      lut->bin1[cell] = std::int32_t((i0 + 1) % bins);
      lut->frac[cell] = w - std::floor(w);
    }

  std::lock_guard<std::mutex> lock(cache_mutex_);
  // A handful of fixed AP poses is the expected population; a runaway
  // caller (e.g. sweeping synthetic poses) just flushes the cache.
  if (bearing_cache_.size() >= 64) bearing_cache_.clear();
  return bearing_cache_.emplace(key, std::move(lut)).first->second;
}

Heatmap Localizer::heatmap(const std::vector<ApSpectrum>& aps) const {
  Heatmap map;
  map.bounds = bounds_;
  map.nx = std::max<std::size_t>(1, std::size_t(bounds_.width() / opt_.grid_step_m));
  map.ny = std::max<std::size_t>(1, std::size_t(bounds_.height() / opt_.grid_step_m));
  map.cells.assign(map.nx * map.ny, 1.0);

  std::vector<std::shared_ptr<const BearingLut>> luts(aps.size());
  for (std::size_t k = 0; k < aps.size(); ++k)
    if (!aps[k].spectrum.empty()) luts[k] = bearing_lut(aps[k], map.nx, map.ny);

  // Row chunks on the shared pool; every cell is an independent write,
  // and the kernel's remainder lanes round exactly like its full
  // lanes, so the chunking (and pool width) cannot change the result.
  ThreadPool::shared().parallel_ranges(
      map.ny, opt_.threads, [&](std::size_t y0, std::size_t y1) {
        const std::size_t c0 = y0 * map.nx;
        const std::size_t count = (y1 - y0) * map.nx;
        for (std::size_t k = 0; k < aps.size(); ++k) {
          if (!luts[k]) {
            // Empty spectrum: value_at reads 0, clamped to the floor.
            const double v = std::max(0.0, opt_.floor);
            for (std::size_t c = c0; c < c0 + count; ++c) map.cells[c] *= v;
            continue;
          }
          linalg::kernels::gather_lerp_product(
              aps[k].spectrum.values().data(), luts[k]->bin0.data() + c0,
              luts[k]->bin1.data() + c0, luts[k]->frac.data() + c0, count,
              opt_.floor, map.cells.data() + c0);
        }
      });
  return map;
}

LocationEstimate Localizer::hill_climb(const std::vector<ApSpectrum>& aps,
                                       geom::Vec2 start) const {
  geom::Vec2 pos = start;
  double best = likelihood(aps, pos);
  double step = opt_.hill_climb_step_m;
  std::size_t iters = 0;
  while (step >= opt_.hill_climb_min_step_m &&
         iters < opt_.hill_climb_max_iters) {
    ++iters;
    const geom::Vec2 candidates[4] = {{pos.x + step, pos.y},
                                      {pos.x - step, pos.y},
                                      {pos.x, pos.y + step},
                                      {pos.x, pos.y - step}};
    bool improved = false;
    for (const auto& c : candidates) {
      if (!bounds_.contains(c)) continue;
      const double l = likelihood(aps, c);
      if (l > best) {
        best = l;
        pos = c;
        improved = true;
      }
    }
    if (!improved) step *= 0.5;
  }
  return {pos, best};
}

namespace {

/// Streaming bounded top-K insert over a strided cell view: keeps
/// `ord` sorted by (value descending, index ascending) with at most
/// `cap` entries. Because that order is strict and total, feeding
/// every cell index in ascending order yields exactly the prefix that
/// sorting all cells would — without touching the rest of the grid.
inline void insert_top_cell(std::vector<std::size_t>& ord, std::size_t c,
                            const double* cells, std::size_t stride,
                            std::size_t cap) {
  const auto better = [cells, stride](std::size_t i, std::size_t j) {
    const double vi = cells[i * stride], vj = cells[j * stride];
    if (vi != vj) return vi > vj;
    return i < j;
  };
  if (ord.size() == cap && better(ord.back(), c)) return;
  ord.insert(std::upper_bound(ord.begin(), ord.end(), c, better), c);
  if (ord.size() > cap) ord.pop_back();
}

}  // namespace

LocationEstimate Localizer::refine(const std::vector<ApSpectrum>& aps,
                                   const Heatmap& map) const {
  const std::size_t candidates = std::min<std::size_t>(
      map.cells.size(),
      std::max<std::size_t>(64, 32 * std::max<std::size_t>(
                                         1, opt_.hill_climb_starts)));
  std::vector<std::size_t> order;
  order.reserve(candidates + 1);
  for (std::size_t c = 0; c < map.cells.size(); ++c)
    insert_top_cell(order, c, map.cells.data(), 1, candidates);
  return refine_cells(aps, map, map.cells.data(), 1, std::move(order),
                      candidates);
}

std::optional<LocationEstimate> Localizer::refine_cells_inner(
    const std::vector<ApSpectrum>& aps, const Heatmap& shape,
    const double* cells, std::size_t stride,
    const std::vector<std::size_t>& order, std::size_t candidates) const {
  // Top-K grid cells, separated so the starts are not adjacent cells
  // of the same mode; ties break toward the lower cell index to keep
  // start selection deterministic.
  auto pick_starts = [&](std::size_t limit) {
    std::vector<geom::Vec2> starts;
    for (std::size_t k = 0; k < limit; ++k) {
      if (starts.size() >= opt_.hill_climb_starts) break;
      const std::size_t cell = order[k];
      const geom::Vec2 p = shape.cell_center(cell % shape.nx, cell / shape.nx);
      bool close = false;
      for (const auto& s : starts)
        if (geom::distance(s, p) < 3.0 * opt_.grid_step_m) close = true;
      if (!close) starts.push_back(p);
    }
    return starts;
  };

  const std::size_t ncells = shape.nx * shape.ny;
  const std::vector<geom::Vec2> starts = pick_starts(order.size());
  if (starts.size() < opt_.hill_climb_starts && candidates < ncells) {
    // Pathological spacing rejected most candidates; the caller must
    // rebuild a full-grid ordering (which needs every cell value — the
    // quantized sweep never computed them, hence the bail-out).
    return std::nullopt;
  }

  std::optional<LocationEstimate> best;
  for (const auto& s : starts) {
    const LocationEstimate e = hill_climb(aps, s);
    if (!best || e.likelihood > best->likelihood) best = e;
  }
  if (!best) {
    // hill_climb_starts == 0: grid-only mode (latency ablation). The
    // grid has at least one cell, so order is never empty here.
    const std::size_t cell = order[0];
    best = LocationEstimate{
        shape.cell_center(cell % shape.nx, cell / shape.nx),
        cells[cell * stride]};
  }
  return best;
}

LocationEstimate Localizer::refine_cells(const std::vector<ApSpectrum>& aps,
                                         const Heatmap& shape,
                                         const double* cells,
                                         std::size_t stride,
                                         std::vector<std::size_t> order,
                                         std::size_t candidates) const {
  if (auto e = refine_cells_inner(aps, shape, cells, stride, order, candidates))
    return *e;
  // Pathological spacing rejected most candidates; fall back to the
  // full ordering rather than under-seeding the hill climb.
  auto better = [cells, stride](std::size_t i, std::size_t j) {
    const double vi = cells[i * stride], vj = cells[j * stride];
    if (vi != vj) return vi > vj;
    return i < j;
  };
  const std::size_t ncells = shape.nx * shape.ny;
  order.resize(ncells);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), better);
  return *refine_cells_inner(aps, shape, cells, stride, order, ncells);
}

std::optional<LocationEstimate> Localizer::locate_quant_row(
    const std::vector<ApSpectrum>& aps,
    const std::vector<const BearingLut*>& luts, const Heatmap& shape,
    std::size_t candidates) const {
  const std::size_t ncells = shape.nx * shape.ny;
  // The coarse pass works in log2 space, so it needs a positive floor
  // clamp; the default (0.05) qualifies, a zero/negative floor does not.
  if (opt_.floor <= 0.0 || candidates >= ncells) return std::nullopt;

  // Per-AP round-up log2 pair-max tables; empty spectra contribute a
  // constant factor per cell, folded into the threshold instead of
  // being added to every score.
  const double empty_v = std::max(0.0, opt_.floor);
  std::int64_t base = 0;
  std::vector<linalg::CoarseLogTable> tables(aps.size());
  for (std::size_t k = 0; k < aps.size(); ++k) {
    if (!luts[k]) {
      base += std::int64_t(std::ceil(
          std::log2(empty_v) *
          double(1 << linalg::CoarseLogTable::kFracBits)));
      continue;
    }
    tables[k] = linalg::coarse_log_table(aps[k].spectrum.values().data(),
                                         aps[k].spectrum.bins(), opt_.floor);
  }

  // Integer upper-bound scores over the full grid: one 4-byte gather +
  // add per (cell, AP) against the float path's two 8-byte gathers, a
  // lerp, and a multiply. Disjoint row chunks on the shared pool;
  // integer adds make chunking trivially result-free.
  std::vector<std::int32_t> score(ncells, 0);
  ThreadPool::shared().parallel_ranges(
      shape.ny, opt_.threads, [&](std::size_t y0, std::size_t y1) {
        const std::size_t c0 = y0 * shape.nx;
        const std::size_t count = (y1 - y0) * shape.nx;
        for (std::size_t k = 0; k < aps.size(); ++k)
          if (luts[k])
            linalg::kernels::score_accum(tables[k].pairmax.data(),
                                         luts[k]->bin0.data() + c0, count,
                                         score.data() + c0);
      });

  // Phase A: exactly evaluate the top-`candidates` cells by coarse
  // score with the float kernels, compacted (per-cell chains in
  // gather_lerp_product are position-independent, so these values are
  // bitwise what the dense sweep would write at those cells). The
  // selection probes a widening margin below the coarse maximum with
  // vector count passes until `candidates` cells clear it, bisects the
  // bracket a few steps to keep the tie set small, then trims by
  // (score desc, index asc) — exactly the set a full streaming top-K
  // scan would keep, at a fraction of its cost.
  const auto thr32 = [](std::int64_t t) {
    return std::int32_t(std::clamp<std::int64_t>(
        t, std::numeric_limits<std::int32_t>::min(),
        std::numeric_limits<std::int32_t>::max()));
  };
  const std::int32_t smax = linalg::kernels::score_max(score.data(), ncells);
  std::int64_t dlo = 0, dhi = 64;
  while (linalg::kernels::score_count_ge(
             score.data(), ncells, thr32(std::int64_t(smax) - dhi)) <
         candidates) {
    dlo = dhi;
    dhi *= 2;
  }
  for (int step = 0; step < 3 && dhi - dlo > 1; ++step) {
    const std::int64_t mid = dlo + (dhi - dlo) / 2;
    if (linalg::kernels::score_count_ge(
            score.data(), ncells, thr32(std::int64_t(smax) - mid)) >=
        candidates)
      dhi = mid;
    else
      dlo = mid;
  }
  const std::int32_t ta = thr32(std::int64_t(smax) - dhi);
  const std::size_t cnt_a =
      linalg::kernels::score_count_ge(score.data(), ncells, ta);
  // A flat coarse surface (most of the grid within the bracket of the
  // maximum) cannot prune enough to beat the dense sweep.
  if (cnt_a > ncells / 2) return std::nullopt;
  std::vector<std::uint32_t> picked(cnt_a);
  linalg::kernels::score_collect_ge(score.data(), ncells, ta, picked.data());
  if (picked.size() > candidates) {
    std::nth_element(picked.begin(),
                     picked.begin() + std::ptrdiff_t(candidates), picked.end(),
                     [&](std::uint32_t i, std::uint32_t j) {
                       if (score[i] != score[j]) return score[i] > score[j];
                       return i < j;
                     });
    picked.resize(candidates);
  }
  std::vector<std::size_t> topm(picked.begin(), picked.end());
  std::sort(topm.begin(), topm.end());

  // Exact values only exist at evaluated cells; everything else in
  // this buffer stays uninitialized and is provably never read.
  std::unique_ptr<double[]> dense(new double[ncells]);
  std::vector<std::int32_t> b0, b1;
  std::vector<double> fr, vals;
  const auto exact_eval = [&](const std::vector<std::size_t>& cells_idx) {
    const std::size_t n = cells_idx.size();
    vals.assign(n, 1.0);
    b0.resize(n);
    b1.resize(n);
    fr.resize(n);
    for (std::size_t k = 0; k < aps.size(); ++k) {
      if (!luts[k]) {
        for (auto& x : vals) x *= empty_v;
        continue;
      }
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t c = cells_idx[i];
        b0[i] = luts[k]->bin0[c];
        b1[i] = luts[k]->bin1[c];
        fr[i] = luts[k]->frac[c];
      }
      linalg::kernels::gather_lerp_product(
          aps[k].spectrum.values().data(), b0.data(), b1.data(), fr.data(), n,
          opt_.floor, vals.data());
    }
    for (std::size_t i = 0; i < n; ++i) dense[cells_idx[i]] = vals[i];
  };
  exact_eval(topm);

  double exact_min = dense[topm[0]];
  for (std::size_t c : topm) exact_min = std::min(exact_min, dense[c]);
  // Zero/denormal products would need -inf log thresholds; hand the
  // row back to the dense path rather than reasoning about them.
  if (!(exact_min > 0.0) || !std::isfinite(exact_min)) return std::nullopt;

  // Phase B: the K-th largest exact value of the full grid is >= the
  // minimum of any K exactly-evaluated cells, so every cell the dense
  // sweep would rank into its top K satisfies
  //   score[c] + base >= 64 * log2(f_c) >= 64 * log2(exact_min) >= Lq,
  // with one Q.6 step subtracted to absorb double log2 rounding.
  // Cells below the threshold are *provably* outside the dense top-K.
  // (Clamping thr into int32 only ever widens the survivor set.)
  const std::int64_t lq =
      std::int64_t(std::ceil(
          std::log2(exact_min) *
          double(1 << linalg::CoarseLogTable::kFracBits))) -
      1;
  const std::int32_t tb = thr32(lq - base);
  const std::size_t cnt_b =
      linalg::kernels::score_count_ge(score.data(), ncells, tb);
  // Weak pruning (flat likelihoods): the dense sweep is cheaper than
  // compacted evaluation of most of the grid.
  if (cnt_b > ncells / 2) return std::nullopt;
  std::vector<std::uint32_t> above(cnt_b);
  linalg::kernels::score_collect_ge(score.data(), ncells, tb, above.data());
  std::vector<std::size_t> extra;
  extra.reserve(above.size());
  for (std::uint32_t c : above)
    if (!std::binary_search(topm.begin(), topm.end(), std::size_t(c)))
      extra.push_back(c);
  const std::size_t survivors = topm.size() + extra.size();
  if (!extra.empty()) exact_eval(extra);

  // The survivor set contains every dense-top-K cell with bitwise-equal
  // values, so the streaming top-K over survivors fed in ascending
  // index order reproduces the dense pass's `order` exactly. topm and
  // extra are each ascending and disjoint, so a merge stays ascending.
  std::vector<std::size_t> surv(survivors);
  std::merge(topm.begin(), topm.end(), extra.begin(), extra.end(),
             surv.begin());
  std::vector<std::size_t> order;
  order.reserve(candidates + 1);
  for (std::size_t c : surv)
    insert_top_cell(order, c, dense.get(), 1, candidates);

  auto e = refine_cells_inner(aps, shape, dense.get(), 1, order, candidates);
  if (!e) return std::nullopt;
  quant_refined_.fetch_add(survivors, std::memory_order_relaxed);
  quant_pruned_.fetch_add(ncells - survivors, std::memory_order_relaxed);
  return e;
}

std::optional<LocationEstimate> Localizer::locate(
    const std::vector<ApSpectrum>& aps) const {
  if (aps.empty()) return std::nullopt;
  if (quant_enabled_) {
    Heatmap shape;
    shape.bounds = bounds_;
    shape.nx = std::max<std::size_t>(
        1, std::size_t(bounds_.width() / opt_.grid_step_m));
    shape.ny = std::max<std::size_t>(
        1, std::size_t(bounds_.height() / opt_.grid_step_m));
    const std::size_t candidates = std::min<std::size_t>(
        shape.nx * shape.ny,
        std::max<std::size_t>(
            64, 32 * std::max<std::size_t>(1, opt_.hill_climb_starts)));
    std::vector<std::shared_ptr<const BearingLut>> owned(aps.size());
    std::vector<const BearingLut*> luts(aps.size(), nullptr);
    for (std::size_t k = 0; k < aps.size(); ++k)
      if (!aps[k].spectrum.empty()) {
        owned[k] = bearing_lut(aps[k], shape.nx, shape.ny);
        luts[k] = owned[k].get();
      }
    if (auto e = locate_quant_row(aps, luts, shape, candidates)) return e;
    quant_refined_.fetch_add(shape.nx * shape.ny, std::memory_order_relaxed);
  }
  const Heatmap map = heatmap(aps);
  return refine(aps, map);
}

Localizer::BatchSweep Localizer::sweep_batch(
    const std::vector<const std::vector<ApSpectrum>*>& batch) const {
  BatchSweep sweep;
  sweep.nx =
      std::max<std::size_t>(1, std::size_t(bounds_.width() / opt_.grid_step_m));
  sweep.ny = std::max<std::size_t>(
      1, std::size_t(bounds_.height() / opt_.grid_step_m));
  const std::size_t nx = sweep.nx, ny = sweep.ny;

  // Group rows by their ordered per-AP LUT signature (nullptr marks an
  // empty spectrum, which multiplies by the clamped floor): one SoA
  // pass per group streams each bearing LUT once for all member rows.
  // Rows sharing a LUT pointer necessarily agree on pose and bin count,
  // so one transposed table per (group, AP slot) holds every member's
  // spectrum.
  std::vector<std::vector<std::shared_ptr<const BearingLut>>> row_luts(
      batch.size());
  std::map<std::vector<const BearingLut*>, std::vector<std::size_t>> groups;
  for (std::size_t rj = 0; rj < batch.size(); ++rj) {
    const auto& aps = *batch[rj];
    std::vector<const BearingLut*> sig(aps.size(), nullptr);
    row_luts[rj].resize(aps.size());
    for (std::size_t k = 0; k < aps.size(); ++k)
      if (!aps[k].spectrum.empty()) {
        row_luts[rj][k] = bearing_lut(aps[k], nx, ny);
        sig[k] = row_luts[rj][k].get();
      }
    groups[std::move(sig)].push_back(rj);
  }

  for (auto& [sig, members] : groups) {
    const std::size_t g = members.size();
    // Transposed spectrum tables: bin b of member r at table[b*g + r],
    // so the kernel's per-cell bin lookups are contiguous loads.
    std::vector<std::vector<double>> tables(sig.size());
    for (std::size_t k = 0; k < sig.size(); ++k) {
      if (!sig[k]) continue;
      const std::size_t bins = (*batch[members[0]])[k].spectrum.bins();
      tables[k].resize(bins * g);
      for (std::size_t r = 0; r < g; ++r) {
        const auto& vals = (*batch[members[r]])[k].spectrum.values();
        for (std::size_t b = 0; b < bins; ++b) tables[k][b * g + r] = vals[b];
      }
    }

    // Interleaved likelihood rows: cell c of member r at soa[c*g + r].
    std::vector<double> soa(nx * ny * g, 1.0);
    ThreadPool::shared().parallel_ranges(
        ny, opt_.threads, [&](std::size_t y0, std::size_t y1) {
          const std::size_t c0 = y0 * nx;
          const std::size_t cend = y1 * nx;
          // Tiles keep the SoA slab and the LUT slices cache-resident
          // across the AP passes; within a tile the AP order (k
          // ascending) matches heatmap()'s per-cell multiply order, so
          // the non-associative double product is unchanged.
          constexpr std::size_t kTileCells = 1024;
          for (std::size_t t0 = c0; t0 < cend; t0 += kTileCells) {
            const std::size_t count = std::min(kTileCells, cend - t0);
            for (std::size_t k = 0; k < sig.size(); ++k) {
              if (!sig[k]) {
                // Empty spectrum: value_at reads 0, clamped to the floor.
                const double v = std::max(0.0, opt_.floor);
                double* cell = soa.data() + t0 * g;
                for (std::size_t e = 0; e < count * g; ++e) cell[e] *= v;
                continue;
              }
              linalg::kernels::gather_lerp_product_batch(
                  tables[k].data(), sig[k]->bin0.data() + t0,
                  sig[k]->bin1.data() + t0, sig[k]->frac.data() + t0, count,
                  g, opt_.floor, soa.data() + t0 * g);
            }
          }
        });

    sweep.groups.push_back(
        BatchSweep::Group{std::move(members), std::move(soa)});
  }
  return sweep;
}

std::vector<Heatmap> Localizer::heatmap_batch(
    const std::vector<const std::vector<ApSpectrum>*>& batch) const {
  const BatchSweep sweep = sweep_batch(batch);
  std::vector<Heatmap> maps(batch.size());
  for (auto& map : maps) {
    map.bounds = bounds_;
    map.nx = sweep.nx;
    map.ny = sweep.ny;
    map.cells.resize(sweep.nx * sweep.ny);
  }
  for (const auto& grp : sweep.groups) {
    const std::size_t g = grp.members.size();
    for (std::size_t r = 0; r < g; ++r) {
      double* dst = maps[grp.members[r]].cells.data();
      for (std::size_t c = 0; c < sweep.nx * sweep.ny; ++c)
        dst[c] = grp.soa[c * g + r];
    }
  }
  return maps;
}

std::vector<std::optional<LocationEstimate>> Localizer::locate_batch(
    const std::vector<std::vector<ApSpectrum>>& batch) const {
  std::vector<std::optional<LocationEstimate>> out(batch.size());
  // Empty rows keep locate()'s contract (nullopt) and stay out of the
  // shared sweep.
  std::vector<const std::vector<ApSpectrum>*> live;
  std::vector<std::size_t> live_idx;
  for (std::size_t j = 0; j < batch.size(); ++j)
    if (!batch[j].empty()) {
      live.push_back(&batch[j]);
      live_idx.push_back(j);
    }
  if (live.empty()) return out;

  if (quant_enabled_) {
    // Coarse-to-fine per row: the integer pass replaces the dense SoA
    // float sweep outright, so there is no slab to share — only the
    // bearing LUTs, which the cache already de-duplicates across rows.
    // Each row's result is bitwise what locate() produces for it, which
    // is itself bitwise the dense batch path's (both feed refinement
    // the same order over the same values).
    Heatmap shape;
    shape.bounds = bounds_;
    shape.nx = std::max<std::size_t>(
        1, std::size_t(bounds_.width() / opt_.grid_step_m));
    shape.ny = std::max<std::size_t>(
        1, std::size_t(bounds_.height() / opt_.grid_step_m));
    const std::size_t candidates = std::min<std::size_t>(
        shape.nx * shape.ny,
        std::max<std::size_t>(
            64, 32 * std::max<std::size_t>(1, opt_.hill_climb_starts)));
    for (std::size_t j = 0; j < live.size(); ++j) {
      const auto& aps = *live[j];
      std::vector<std::shared_ptr<const BearingLut>> owned(aps.size());
      std::vector<const BearingLut*> luts(aps.size(), nullptr);
      for (std::size_t k = 0; k < aps.size(); ++k)
        if (!aps[k].spectrum.empty()) {
          owned[k] = bearing_lut(aps[k], shape.nx, shape.ny);
          luts[k] = owned[k].get();
        }
      if (auto e = locate_quant_row(aps, luts, shape, candidates)) {
        out[live_idx[j]] = e;
      } else {
        quant_refined_.fetch_add(shape.nx * shape.ny,
                                 std::memory_order_relaxed);
        const Heatmap map = heatmap(aps);
        out[live_idx[j]] = refine(aps, map);
      }
    }
    return out;
  }

  const BatchSweep sweep = sweep_batch(live);
  Heatmap shape;  // bounds/nx/ny only; refine_cells never reads cells
  shape.bounds = bounds_;
  shape.nx = sweep.nx;
  shape.ny = sweep.ny;
  const std::size_t candidates = std::min<std::size_t>(
      sweep.nx * sweep.ny,
      std::max<std::size_t>(64, 32 * std::max<std::size_t>(
                                         1, opt_.hill_climb_starts)));
  for (const auto& grp : sweep.groups) {
    const std::size_t g = grp.members.size();
    // One cell-major pass builds every member's top-K at once: cell c
    // reads g contiguous doubles from the slab, so start selection
    // costs one stream over the SoA instead of a dense heatmap plus a
    // strided rescan per row.
    std::vector<std::vector<std::size_t>> orders(g);
    for (auto& ord : orders) ord.reserve(candidates + 1);
    for (std::size_t c = 0; c < sweep.nx * sweep.ny; ++c)
      for (std::size_t r = 0; r < g; ++r)
        insert_top_cell(orders[r], c, grp.soa.data() + r, g, candidates);
    for (std::size_t r = 0; r < g; ++r) {
      const std::size_t row = grp.members[r];
      out[live_idx[row]] =
          refine_cells(*live[row], shape, grp.soa.data() + r, g,
                       std::move(orders[r]), candidates);
    }
  }
  return out;
}

}  // namespace arraytrack::core
