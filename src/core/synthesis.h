// AoA spectra synthesis: combining per-AP spectra into a position
// (paper 2.5). Likelihood of the client at x is the product of every
// AP's spectrum evaluated at the bearing from that AP to x; searched on
// a 10 cm grid, then refined with hill climbing from the top grid cells.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>
#include <vector>

#include "aoa/spectrum.h"
#include "geom/vec2.h"
#include "linalg/kernels.h"

namespace arraytrack::core {

/// A processed spectrum together with the pose of the AP that made it.
struct ApSpectrum {
  geom::Vec2 ap_position;
  double orientation_rad = 0.0;
  aoa::AoaSpectrum spectrum;

  /// Spectrum value at the bearing from this AP toward world point x.
  double likelihood_toward(const geom::Vec2& x, double floor) const;
};

struct LocalizerOptions {
  double grid_step_m = 0.10;         // paper: 10 cm x 10 cm grid
  std::size_t hill_climb_starts = 3; // paper: top three grid positions
  double hill_climb_step_m = 0.05;
  double hill_climb_min_step_m = 0.001;
  std::size_t hill_climb_max_iters = 200;
  /// Per-AP likelihood floor: keeps one blocked or wrong-sided AP from
  /// zeroing the whole product (the paper's synthesis works because a
  /// disagreeing AP only weakens a location, it does not veto it).
  double floor = 0.05;
  /// Parallelism bound for the grid evaluation, the bearing-LUT build
  /// and the server's per-AP fan-out, all serviced by the shared
  /// core::ThreadPool; 0 = the pool's full width, 1 = serial. It is an
  /// upper cap: the per-AP fan-out also stays within one task per
  /// ArrayTrackServer::kMinFramesPerTask AP-frames of the job. Results
  /// are identical for every value (chunks write disjoint slots).
  std::size_t threads = 0;
  /// Coarse-to-fine quantized sweep: the grid search bounds every 8x8
  /// cell block from above with round-up Q.6 log2 pair-max tables
  /// (linalg::coarse_log_table, range-maxed over each block's bearing
  /// arc), scores single cells only inside blocks that can still reach
  /// the top K, exactly evaluates the cells that clear the threshold
  /// with the existing float kernels, and feeds refinement the same
  /// top-K order and bitwise-equal values the dense float sweep would
  /// produce — fix sets are byte-identical with this on or off.
  bool quantized_sweep = true;
};

struct LocationEstimate {
  geom::Vec2 position;
  double likelihood = 0.0;
};

/// Dense likelihood map over the search bounds (paper Fig. 14).
struct Heatmap {
  geom::Rect bounds;
  std::size_t nx = 0;
  std::size_t ny = 0;
  std::vector<double> cells;  // row-major, y-major rows

  double at(std::size_t ix, std::size_t iy) const {
    return cells[iy * nx + ix];
  }
  geom::Vec2 cell_center(std::size_t ix, std::size_t iy) const;
  double max_value() const;
  /// ASCII rendering (top row = max y), for benches and examples.
  std::string to_ascii(std::size_t width = 72) const;
};

/// Sparse range-max table over a circular int32 row (a spectrum's
/// CoarseLogTable::pairmax): O(1) maximum over any arc of bins.
class ArcMax {
 public:
  /// Circular run of `len` bins starting at bin `lo`; len == bins is
  /// the whole circle.
  struct Arc {
    std::int32_t lo = 0;
    std::int32_t len = 0;
  };

  /// Answers arcs of up to `max_len` bins in O(1) (longer arcs must be
  /// the whole circle). Reuses this table's storage.
  void build(const std::int32_t* row, std::size_t bins, std::size_t max_len);
  std::int32_t max(Arc a) const {
    if (std::size_t(a.len) >= bins_) return all_;
    const int j = std::bit_width(unsigned(a.len)) - 1;
    const std::int32_t* level = table_.data() + std::size_t(j) * stride_;
    return std::max(level[a.lo], level[a.lo + a.len - (1 << j)]);
  }

 private:
  std::vector<std::int32_t> table_;  // level j at [j * stride_]
  std::size_t bins_ = 0, stride_ = 0;
  std::int32_t all_ = 0;
};

class Localizer {
 public:
  /// Side of the square cell blocks the quantized sweep bounds at once.
  static constexpr std::size_t kBlock = 8;

  explicit Localizer(geom::Rect bounds, LocalizerOptions opt = {});

  const geom::Rect& bounds() const { return bounds_; }
  const LocalizerOptions& options() const { return opt_; }

  /// The search grid: bounds, nx and ny (cells left empty).
  Heatmap grid() const;

  /// L(x) = prod_i P_i(theta_i(x)); equation 8.
  double likelihood(const std::vector<ApSpectrum>& aps,
                    const geom::Vec2& x) const;

  Heatmap heatmap(const std::vector<ApSpectrum>& aps) const;

  /// Batched heatmaps for rows that share this localizer's grid: rows
  /// whose per-AP bearing-LUT signatures match are swept together in
  /// structure-of-arrays layout (kernels::gather_lerp_product_batch),
  /// so each LUT and the grid tiles stream from memory once per group
  /// instead of once per row. Every returned map is bitwise identical
  /// to heatmap() on that row alone.
  std::vector<Heatmap> heatmap_batch(
      const std::vector<const std::vector<ApSpectrum>*>& batch) const;

  /// Full pipeline: grid search, then hill climbing from the top
  /// `hill_climb_starts` cells. Empty input yields nullopt.
  std::optional<LocationEstimate> locate(
      const std::vector<ApSpectrum>& aps) const;

  /// locate() for a batch of concurrent requests: the grid sweep is
  /// amortized via heatmap_batch(), then each row is refined with its
  /// own hill climb. Row j is bitwise identical to locate(batch[j]) —
  /// batching changes memory traffic, never results.
  std::vector<std::optional<LocationEstimate>> locate_batch(
      const std::vector<std::vector<ApSpectrum>>& batch) const;

  /// Kill switch for the quantized coarse-to-fine sweep (overrides the
  /// option chosen at construction); off is bitwise-identical to
  /// the all-float path by construction, on is too — the switch exists
  /// for A/B latency measurement and as an escape hatch.
  void set_quantized_sweep(bool on) { quant_enabled_ = on; }
  bool quantized_sweep() const { return quant_enabled_; }

  /// Coarse-to-fine accounting: cells skipped by the integer pass vs
  /// cells exactly evaluated with the float kernels (both cumulative
  /// across locate/locate_batch calls; a dense fallback row counts all
  /// its cells as refined).
  std::uint64_t quant_pruned() const { return quant_pruned_.load(); }
  std::uint64_t quant_refined() const { return quant_refined_.load(); }

  /// Per-cell spectrum lookup, precomputed: the interpolation bin pair
  /// and lerp weight that AoaSpectrum::value_at would derive from the
  /// bearing toward the cell. Flat arrays so the heatmap inner loop is
  /// a branch-free gather + lerp + product (kernels::gather_lerp_product)
  /// instead of wrap_2pi + value_at per (cell, AP).
  struct BearingLut {
    std::vector<std::int32_t> bin0, bin1;
    std::vector<double> frac;
    /// Per kBlock x kBlock cell block (row-major over
    /// ceil(nx/kBlock) x ceil(ny/kBlock) blocks): a bin arc holding the
    /// bin0 of every cell in the block. Arcs of half a turn or more are
    /// stored as the whole circle.
    std::vector<ArcMax::Arc> arcs;
    /// Longest arc shorter than the whole circle.
    std::size_t max_arc = 1;
  };

  /// The lookup table from an AP pose toward every grid cell, cached
  /// per (pose, spectrum bin count): AP poses and the grid are fixed
  /// for the life of a server, so the atan2 per (cell, AP) — the
  /// dominant cost of the grid search — is paid once, not on every
  /// fix. The stored (bin, weight) pairs are exactly what the uncached
  /// value_at path computes, so results are unchanged.
  std::shared_ptr<const BearingLut> bearing_lut(const ApSpectrum& ap) const;

  /// Upper bound on the coarse score sum_k pairmax_k[bin0_k[c]] of
  /// every cell c in each block (one entry per block, the arcs' order):
  /// the sum over APs of the range-max of tables[k].pairmax over the
  /// block's arc in luts[k]. Null LUTs (empty spectra) are skipped.
  static std::vector<std::int32_t> block_bounds(
      const std::vector<const BearingLut*>& luts,
      const std::vector<linalg::CoarseLogTable>& tables);

 private:
  LocationEstimate hill_climb(const std::vector<ApSpectrum>& aps,
                              geom::Vec2 start) const;

  /// Start selection + hill climbing over an already-built heatmap;
  /// the shared tail of locate() and locate_batch().
  LocationEstimate refine(const std::vector<ApSpectrum>& aps,
                          const Heatmap& map) const;

  /// refine() over a strided cell view (cell c at cells[c * stride]):
  /// `order` holds the already-selected top `candidates` cell indices
  /// and `shape` carries bounds/nx/ny (its own cells are not read).
  /// Lets the batch path keep likelihood rows interleaved instead of
  /// materializing a dense heatmap per job.
  LocationEstimate refine_cells(const std::vector<ApSpectrum>& aps,
                                const Heatmap& shape, const double* cells,
                                std::size_t stride,
                                std::vector<std::size_t> order,
                                std::size_t candidates) const;

  /// refine_cells without its dense fallback: returns nullopt when
  /// start separation rejected too many candidates (the rare case that
  /// needs a full-grid ordering), so callers that never materialized a
  /// dense heatmap — the quantized sweep — can rebuild one first.
  /// `top_value` is the likelihood of cell order[0].
  std::optional<LocationEstimate> refine_cells_inner(
      const std::vector<ApSpectrum>& aps, const Heatmap& shape,
      const std::vector<std::size_t>& order, std::size_t candidates,
      double top_value) const;

  /// The shared SoA sweep behind heatmap_batch()/locate_batch(): rows
  /// grouped by bearing-LUT signature, each group's likelihood rows
  /// interleaved in one slab (cell c of group-member r at
  /// soa[c * members.size() + r]).
  struct BatchSweep {
    std::size_t nx = 0, ny = 0;
    struct Group {
      std::vector<std::size_t> members;  // indices into the batch
      std::vector<double> soa;
    };
    std::vector<Group> groups;
  };
  BatchSweep sweep_batch(
      const std::vector<const std::vector<ApSpectrum>*>& batch) const;

  /// One row of the quantized coarse-to-fine sweep: block bounds, a
  /// threshold certified by exactly evaluated seed blocks, per-cell
  /// integer scores only inside blocks that clear it, exact float
  /// evaluation of the cells that clear it, then refine_cells_inner on
  /// the top-K order — which is provably the order the dense float
  /// sweep would hand it. Returns nullopt when the row must fall back
  /// to the dense path (degenerate likelihoods, weak pruning, or start
  /// under-seeding); the caller recomputes that row with the float
  /// sweep, so the result is byte-identical either way.
  std::optional<LocationEstimate> locate_quant_row(
      const std::vector<ApSpectrum>& aps) const;

  /// Number of top grid cells refinement ranks for an ncells grid.
  std::size_t top_candidates(std::size_t ncells) const;

  geom::Rect bounds_;
  LocalizerOptions opt_;
  bool quant_enabled_ = true;
  mutable std::atomic<std::uint64_t> quant_pruned_{0};
  mutable std::atomic<std::uint64_t> quant_refined_{0};

  // x, y, orientation, spectrum bins
  using LutKey = std::tuple<double, double, double, std::size_t>;
  mutable std::mutex cache_mutex_;
  mutable std::map<LutKey, std::shared_ptr<const BearingLut>> bearing_cache_;
};

}  // namespace arraytrack::core
