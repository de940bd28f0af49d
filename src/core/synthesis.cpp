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

Heatmap Localizer::grid() const {
  Heatmap shape;
  shape.bounds = bounds_;
  shape.nx = std::max<std::size_t>(
      1, std::size_t(bounds_.width() / opt_.grid_step_m));
  shape.ny = std::max<std::size_t>(
      1, std::size_t(bounds_.height() / opt_.grid_step_m));
  return shape;
}

std::size_t Localizer::top_candidates(std::size_t ncells) const {
  return std::min<std::size_t>(
      ncells, std::max<std::size_t>(
                  64, 32 * std::max<std::size_t>(1, opt_.hill_climb_starts)));
}

double Localizer::likelihood(const std::vector<ApSpectrum>& aps,
                             const geom::Vec2& x) const {
  double l = 1.0;
  for (const auto& ap : aps) l *= ap.likelihood_toward(x, opt_.floor);
  return l;
}

std::shared_ptr<const Localizer::BearingLut> Localizer::bearing_lut(
    const ApSpectrum& ap) const {
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
  const Heatmap probe = grid();
  const std::size_t nx = probe.nx, ny = probe.ny;
  const std::size_t nbx = (nx + kBlock - 1) / kBlock;
  const std::size_t nby = (ny + kBlock - 1) / kBlock;
  auto lut = std::make_shared<BearingLut>();
  lut->bin0.resize(nx * ny);
  lut->bin1.resize(nx * ny);
  lut->frac.resize(nx * ny);
  lut->arcs.resize(nbx * nby);
  std::vector<std::size_t> max_arc(nby, 1);  // per block row
  const double bin_width = kTwoPi / double(bins);
  const std::int32_t nb = std::int32_t(bins);
  // Chunks of whole block rows on the shared pool: every cell and arc
  // is an independent write, so the table is the same for any split.
  ThreadPool::shared().parallel_ranges(
      nby, opt_.threads, [&](std::size_t by0, std::size_t by1) {
        for (std::size_t iy = by0 * kBlock; iy < std::min(ny, by1 * kBlock);
             ++iy)
          for (std::size_t ix = 0; ix < nx; ++ix) {
            const geom::Vec2 x = probe.cell_center(ix, iy);
            const double world = (x - ap.ap_position).angle();
            // Exactly AoaSpectrum::value_at's bin/weight derivation
            // applied to the bearing the uncached path would pass it.
            const double w = wrap_2pi(world - ap.orientation_rad) / bin_width;
            const std::size_t i0 = std::size_t(w) % bins;
            const std::size_t cell = iy * nx + ix;
            lut->bin0[cell] = std::int32_t(i0);
            lut->bin1[cell] = std::int32_t((i0 + 1) % bins);
            lut->frac[cell] = w - std::floor(w);
          }

        // Block arcs in one linear pass: each cell's bin0 is unwrapped
        // to the offset in (-bins/2, bins/2] from its block's first
        // cell, so the arc from the smallest to the largest offset holds
        // every cell's bin whatever the geometry. A block that sees half
        // a turn or more (an AP inside or beside it) gets the whole
        // circle. Offsets are kept per column across a block row, so the
        // inner loop runs branch-free over whole grid rows.
        std::vector<std::int32_t> first(nx), lo(nx), hi(nx);
        for (std::size_t by = by0; by < by1; ++by) {
          const std::size_t y0 = by * kBlock;
          const std::int32_t* top = lut->bin0.data() + y0 * nx;
          for (std::size_t ix = 0; ix < nx; ++ix)
            first[ix] = top[ix - ix % kBlock];
          std::fill(lo.begin(), lo.end(), 0);
          std::fill(hi.begin(), hi.end(), 0);
          for (std::size_t iy = y0; iy < std::min(ny, y0 + kBlock); ++iy) {
            const std::int32_t* row = lut->bin0.data() + iy * nx;
            for (std::size_t ix = 0; ix < nx; ++ix) {
              std::int32_t d = row[ix] - first[ix];
              d -= 2 * d > nb ? nb : 0;
              d += 2 * d <= -nb ? nb : 0;
              lo[ix] = std::min(lo[ix], d);
              hi[ix] = std::max(hi[ix], d);
            }
          }
          for (std::size_t bx = 0; bx < nbx; ++bx) {
            const std::size_t x0 = bx * kBlock, x1 = std::min(nx, x0 + kBlock);
            const std::int32_t a = *std::min_element(&lo[x0], &lo[0] + x1);
            const std::int32_t b = *std::max_element(&hi[x0], &hi[0] + x1);
            ArcMax::Arc& arc = lut->arcs[by * nbx + bx];
            if (2 * (b - a) >= nb) {
              arc = {0, nb};
            } else {
              arc = {(first[x0] + a + nb) % nb, b - a + 1};
              max_arc[by] = std::max(max_arc[by], std::size_t(arc.len));
            }
          }
        }
      });
  lut->max_arc = *std::max_element(max_arc.begin(), max_arc.end());

  std::lock_guard<std::mutex> lock(cache_mutex_);
  // A handful of fixed AP poses is the expected population; a runaway
  // caller (e.g. sweeping synthetic poses) just flushes the cache.
  if (bearing_cache_.size() >= 64) bearing_cache_.clear();
  return bearing_cache_.emplace(key, std::move(lut)).first->second;
}

void ArcMax::build(const std::int32_t* row, std::size_t bins,
                   std::size_t max_len) {
  // Level j holds the maximum of the circularly doubled row over
  // [i, i + 2^j); arcs start below `bins` and span at most `max_len`.
  bins_ = bins;
  stride_ = bins + max_len;
  const std::size_t levels = std::size_t(std::bit_width(max_len));
  table_.resize(levels * stride_);
  std::int32_t* t = table_.data();
  std::copy(row, row + bins, t);
  std::copy(row, row + max_len, t + bins);
  all_ = *std::max_element(row, row + bins);
  for (std::size_t j = 1; j < levels; ++j) {
    const std::int32_t* prev = t + (j - 1) * stride_;
    std::int32_t* cur = t + j * stride_;
    const std::size_t half = std::size_t(1) << (j - 1);
    for (std::size_t i = 0; i + 2 * half <= stride_; ++i)
      cur[i] = std::max(prev[i], prev[i + half]);
  }
}

std::vector<std::int32_t> Localizer::block_bounds(
    const std::vector<const BearingLut*>& luts,
    const std::vector<linalg::CoarseLogTable>& tables) {
  std::vector<std::int32_t> bound;
  ArcMax arcmax;
  for (std::size_t k = 0; k < luts.size(); ++k) {
    if (!luts[k]) continue;
    const auto& arcs = luts[k]->arcs;
    if (bound.empty()) bound.assign(arcs.size(), 0);
    const auto& row = tables[k].pairmax;
    arcmax.build(row.data(), row.size(), luts[k]->max_arc);
    for (std::size_t b = 0; b < arcs.size(); ++b)
      bound[b] += arcmax.max(arcs[b]);
  }
  return bound;
}

Heatmap Localizer::heatmap(const std::vector<ApSpectrum>& aps) const {
  Heatmap map = grid();
  map.cells.assign(map.nx * map.ny, 1.0);

  std::vector<std::shared_ptr<const BearingLut>> luts(aps.size());
  for (std::size_t k = 0; k < aps.size(); ++k)
    if (!aps[k].spectrum.empty()) luts[k] = bearing_lut(aps[k]);

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

/// Strict total order over cell indices: value descending, then index
/// ascending (ties break toward the lower cell to keep start selection
/// deterministic).
inline auto cell_rank(const double* cells) {
  return [cells](std::size_t i, std::size_t j) {
    if (cells[i] != cells[j]) return cells[i] > cells[j];
    return i < j;
  };
}

/// Streaming bounded top-K insert: keeps `ord` sorted by cell_rank
/// with at most `cap` entries. Because that order is strict and total,
/// feeding every cell index in ascending order yields exactly the
/// prefix that sorting all cells would — without touching the rest of
/// the grid.
inline void insert_top_cell(std::vector<std::size_t>& ord, std::size_t c,
                            const double* cells, std::size_t cap) {
  const auto better = cell_rank(cells);
  if (ord.size() == cap && better(ord.back(), c)) return;
  ord.insert(std::upper_bound(ord.begin(), ord.end(), c, better), c);
  if (ord.size() > cap) ord.pop_back();
}

}  // namespace

LocationEstimate Localizer::refine(const std::vector<ApSpectrum>& aps,
                                   const Heatmap& map) const {
  const double* cells = map.cells.data();
  const std::size_t ncells = map.cells.size();
  const std::size_t candidates = top_candidates(ncells);
  std::vector<std::size_t> order;
  order.reserve(candidates + 1);
  for (std::size_t c = 0; c < ncells; ++c)
    insert_top_cell(order, c, cells, candidates);
  if (auto e = refine_order(aps, map, order, candidates, cells[order[0]]))
    return *e;
  // Pathological spacing rejected most candidates; fall back to the
  // full ordering rather than under-seeding the hill climb.
  order.resize(ncells);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), cell_rank(cells));
  return *refine_order(aps, map, order, ncells, cells[order[0]]);
}

std::optional<LocationEstimate> Localizer::refine_order(
    const std::vector<ApSpectrum>& aps, const Heatmap& shape,
    const std::vector<std::size_t>& order, std::size_t candidates,
    double top_value) const {
  // Top-K grid cells in rank order, separated so the starts are not
  // adjacent cells of the same mode.
  std::vector<geom::Vec2> starts;
  for (const std::size_t cell : order) {
    if (starts.size() >= opt_.hill_climb_starts) break;
    const geom::Vec2 p = shape.cell_center(cell % shape.nx, cell / shape.nx);
    bool close = false;
    for (const auto& s : starts)
      if (geom::distance(s, p) < 3.0 * opt_.grid_step_m) close = true;
    if (!close) starts.push_back(p);
  }
  if (starts.size() < opt_.hill_climb_starts &&
      candidates < shape.nx * shape.ny) {
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
        shape.cell_center(cell % shape.nx, cell / shape.nx), top_value};
  }
  return best;
}

std::optional<LocationEstimate> Localizer::locate_quant_row(
    const std::vector<ApSpectrum>& aps) const {
  const Heatmap shape = grid();
  const std::size_t nx = shape.nx, ny = shape.ny, ncells = nx * ny;
  const std::size_t candidates = top_candidates(ncells);
  // The coarse pass works in log2 space, so it needs a positive floor
  // clamp; the default (0.05) qualifies, a zero/negative floor does not.
  if (opt_.floor <= 0.0 || candidates >= ncells) return std::nullopt;

  std::vector<std::shared_ptr<const BearingLut>> owned(aps.size());
  std::vector<const BearingLut*> luts(aps.size(), nullptr);
  for (std::size_t k = 0; k < aps.size(); ++k)
    if (!aps[k].spectrum.empty()) {
      owned[k] = bearing_lut(aps[k]);
      luts[k] = owned[k].get();
    }

  // Per-AP round-up log2 pair-max tables; empty spectra contribute a
  // constant factor per cell, folded into the threshold instead of
  // being added to every score.
  constexpr double kQ = double(1 << linalg::CoarseLogTable::kFracBits);
  const double empty_v = std::max(0.0, opt_.floor);
  std::int64_t base = 0;
  std::vector<linalg::CoarseLogTable> tables(aps.size());
  for (std::size_t k = 0; k < aps.size(); ++k)
    if (luts[k])
      tables[k] = linalg::coarse_log_table(aps[k].spectrum.values().data(),
                                           aps[k].spectrum.bins(), opt_.floor);
    else
      base += std::int64_t(std::ceil(std::log2(empty_v) * kQ));

  // Coarse upper bound of every 8x8 block: each cell's score
  // sum_k pairmax_k[bin0_k[c]] is at most its block's bound. No
  // spectrum at all leaves no bound: every cell ties, nothing to prune.
  const std::vector<std::int32_t> bound = block_bounds(luts, tables);
  if (bound.empty()) return std::nullopt;
  const std::size_t nbx = (nx + kBlock - 1) / kBlock;
  const std::size_t nblocks = bound.size();

  // Exact float values of a list of cells, each chain multiplied in AP
  // order with the same kernels as the dense sweep (per-cell chains in
  // gather_lerp_product are position-independent, so these values are
  // bitwise what the dense sweep would write at those cells).
  std::vector<std::int32_t> b0, b1;
  std::vector<double> fr;
  const auto exact_eval = [&](const std::vector<std::size_t>& cells_idx,
                              std::vector<double>& vals) {
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
  };

  // Seed: exactly evaluate the best-bounded blocks (ties toward the
  // lower block index) until 4K cells are in hand. The K-th largest of
  // any evaluated subset is <= the dense K-th largest value, so it is
  // a certified threshold tau.
  const std::size_t want = 4 * candidates;
  std::vector<std::size_t> rank(nblocks);
  std::iota(rank.begin(), rank.end(), 0);
  const auto by_bound = [&](std::size_t a, std::size_t b) {
    return bound[a] != bound[b] ? bound[a] > bound[b] : a < b;
  };
  std::vector<std::int32_t> seed_at(nblocks, -1);  // offset into seed_vals
  std::vector<std::size_t> seed_cells;
  seed_cells.reserve(want + kBlock * kBlock);
  // Ranks only as many blocks as full ones would need, then more if
  // partial edge blocks leave the seed short.
  for (std::size_t ranked = 0, r = 0; seed_cells.size() < want && r < nblocks;
       ++r) {
    if (r == ranked) {
      const std::size_t more = std::min(
          nblocks, r + (want - seed_cells.size()) / (kBlock * kBlock) + 1);
      std::partial_sort(rank.begin() + std::ptrdiff_t(r),
                        rank.begin() + std::ptrdiff_t(more), rank.end(),
                        by_bound);
      ranked = more;
    }
    const std::size_t b = rank[r];
    seed_at[b] = std::int32_t(seed_cells.size());
    const std::size_t x0 = (b % nbx) * kBlock, y0 = (b / nbx) * kBlock;
    for (std::size_t iy = y0; iy < std::min(ny, y0 + kBlock); ++iy)
      for (std::size_t ix = x0; ix < std::min(nx, x0 + kBlock); ++ix)
        seed_cells.push_back(iy * nx + ix);
  }
  std::vector<double> seed_vals;
  exact_eval(seed_cells, seed_vals);
  std::vector<double> kth(seed_vals);
  std::nth_element(kth.begin(), kth.begin() + std::ptrdiff_t(candidates - 1),
                   kth.end(), std::greater<double>());
  const double tau = kth[candidates - 1];
  // Zero/denormal products would need -inf log thresholds; hand the
  // row back to the dense path rather than reasoning about them.
  if (!(tau > 0.0) || !std::isfinite(tau)) return std::nullopt;

  // Every cell the dense sweep would rank into its top K satisfies
  //   score[c] + base >= 64 * log2(f_c) >= 64 * log2(tau) >= lq,
  // with one Q.6 step subtracted to absorb double log2 rounding, and
  // so does its block's bound. Cells below the threshold are
  // *provably* outside the dense top-K.
  const std::int64_t tb =
      std::int64_t(std::ceil(std::log2(tau) * kQ)) - 1 - base;

  // Survivors in ascending cell order: a row-major walk over the blocks
  // that clear tb visits cells in index order. Seed blocks contribute
  // every cell with its exact value; other blocks the cells whose
  // integer score clears tb, evaluated afterwards. Weak pruning (flat
  // likelihoods) makes the dense sweep cheaper than compacted
  // evaluation of most of the grid.
  std::vector<std::size_t> active;
  active.reserve(nblocks);
  for (std::size_t b = 0; b < nblocks; ++b)
    if (seed_at[b] >= 0 || bound[b] >= tb) active.push_back(b);
  std::vector<std::size_t> surv, pending;
  std::vector<double> surv_vals;
  std::vector<std::size_t> pending_at;  // positions in surv
  surv.reserve(active.size() * kBlock * kBlock);
  surv_vals.reserve(surv.capacity());
  pending.reserve(surv.capacity() - seed_cells.size());
  pending_at.reserve(pending.capacity());
  std::int32_t score[kBlock] = {};
  for (std::size_t i = 0; i < active.size();) {
    const std::size_t by = active[i] / nbx;
    std::size_t end = i;
    while (end < active.size() && active[end] / nbx == by) ++end;
    for (std::size_t iy = by * kBlock; iy < std::min(ny, (by + 1) * kBlock);
         ++iy) {
      for (std::size_t a = i; a < end; ++a) {
        const std::size_t b = active[a];
        const std::size_t x0 = (b % nbx) * kBlock;
        const std::size_t w = std::min(nx, x0 + kBlock) - x0;
        const std::size_t c0 = iy * nx + x0;
        if (seed_at[b] >= 0) {
          const std::size_t off =
              std::size_t(seed_at[b]) + (iy - by * kBlock) * w;
          for (std::size_t x = 0; x < w; ++x) {
            surv.push_back(c0 + x);
            surv_vals.push_back(seed_vals[off + x]);
          }
          continue;
        }
        std::fill(score, score + w, 0);
        for (std::size_t k = 0; k < aps.size(); ++k) {
          if (!luts[k]) continue;
          const std::int32_t* pm = tables[k].pairmax.data();
          const std::int32_t* bin0 = luts[k]->bin0.data() + c0;
          for (std::size_t x = 0; x < w; ++x) score[x] += pm[bin0[x]];
        }
        for (std::size_t x = 0; x < w; ++x)
          if (score[x] >= tb) {
            pending_at.push_back(surv.size());
            pending.push_back(c0 + x);
            surv.push_back(c0 + x);
            surv_vals.push_back(0.0);
          }
      }
      if (surv.size() > ncells / 2) return std::nullopt;
    }
    i = end;
  }
  std::vector<double> pending_vals;
  exact_eval(pending, pending_vals);
  for (std::size_t p = 0; p < pending.size(); ++p)
    surv_vals[pending_at[p]] = pending_vals[p];

  // The survivor set contains every dense-top-K cell with bitwise-equal
  // values, so the streaming top-K over survivors fed in ascending
  // index order reproduces the dense pass's `order` exactly. At least
  // K survivors (the seed's) reach tau, so a cell below it cannot rank.
  std::vector<std::size_t> order;
  order.reserve(candidates + 1);
  for (std::size_t p = 0; p < surv.size(); ++p)
    if (surv_vals[p] >= tau)
      insert_top_cell(order, p, surv_vals.data(), candidates);
  const double top_value = surv_vals[order[0]];
  for (auto& p : order) p = surv[p];

  auto e = refine_order(aps, shape, order, candidates, top_value);
  if (!e) return std::nullopt;
  const std::size_t evaluated = seed_cells.size() + pending.size();
  quant_refined_.fetch_add(evaluated, std::memory_order_relaxed);
  quant_pruned_.fetch_add(ncells - evaluated, std::memory_order_relaxed);
  return e;
}

std::optional<LocationEstimate> Localizer::locate(
    const std::vector<ApSpectrum>& aps) const {
  if (aps.empty()) return std::nullopt;
  if (quant_enabled_) {
    if (auto e = locate_quant_row(aps)) return e;
    const Heatmap shape = grid();
    quant_refined_.fetch_add(shape.nx * shape.ny, std::memory_order_relaxed);
  }
  const Heatmap map = heatmap(aps);
  return refine(aps, map);
}

}  // namespace arraytrack::core
