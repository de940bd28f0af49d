// SIMD kernel layer for the dense sweep loops: the MUSIC projector
// matvec, the Bartlett quadratic form, snapshot-covariance
// accumulation, forward-backward averaging, the heatmap
// gather+lerp+product, and the bearing-blur FIR. Each kernel ships a
// scalar reference path plus SSE2 and AVX2+FMA implementations
// selected at runtime via core::simd::active(); results at a fixed
// level are deterministic (bitwise identical for any caller chunking),
// and levels agree with the scalar reference to ~1e-9 relative (vector
// paths reassociate sums and use fused multiply-adds; the FIR never
// does, so its levels agree bit for bit).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/types.h"

namespace arraytrack::linalg {

/// Split-complex (structure-of-arrays) plane storage. Plane k holds
/// one antenna's value across all rows; element i of plane k lives at
/// [k * pitch + i]. Laying steering tables and snapshots out this way
/// turns the per-row complex multiply-accumulate into contiguous
/// real-valued FMA streams: a vector register holds the same antenna
/// for `width` adjacent rows, and the complex operand is broadcast.
struct SplitPlanes {
  std::size_t rows = 0;   // elements per plane (swept bins / snapshots)
  std::size_t m = 0;      // plane count (antennas)
  std::size_t pitch = 0;  // distance between planes (== rows)
  std::vector<double> re, im;

  SplitPlanes() = default;
  SplitPlanes(std::size_t rows_, std::size_t m_) { resize(rows_, m_); }

  void resize(std::size_t rows_, std::size_t m_) {
    rows = rows_;
    m = m_;
    pitch = rows_;
    re.assign(m * pitch, 0.0);
    im.assign(m * pitch, 0.0);
  }

  void set(std::size_t plane, std::size_t idx, cplx v) {
    re[plane * pitch + idx] = v.real();
    im[plane * pitch + idx] = v.imag();
  }
  cplx get(std::size_t plane, std::size_t idx) const {
    return {re[plane * pitch + idx], im[plane * pitch + idx]};
  }
};

/// Per-spectrum coarse table for the quantized position sweep: bin b
/// holds ceil(64 * log2(max(p[b], p[b+1 mod bins], floor))) — a
/// round-up fixed-point (Q.6) log2 of the *pair max* of the two bins a
/// bearing-LUT cell interpolates between. Because linear
/// interpolation never exceeds the larger endpoint and the heatmap
/// clamps at `floor`, summing these per-AP entries gives a certified
/// upper bound on 64 * log2 of the float likelihood product at every
/// cell — the guard band that makes coarse-to-fine pruning exact.
/// `slack_bits` is the committed tightness bound: the table entry
/// overshoots the true per-cell log2 factor by at most this many bits
/// (max adjacent-pair log-ratio after floor clamping, plus the
/// quantization ulp).
struct CoarseLogTable {
  static constexpr int kFracBits = 6;
  std::vector<std::int32_t> pairmax;
  double slack_bits = 0.0;
};

CoarseLogTable coarse_log_table(const double* p, std::size_t bins,
                                double floor);

namespace kernels {

/// Signal-subspace power of every table row against `nvec` packed
/// complex vectors (vector s, component k at [s * t.m + k]):
///   out[i] = sum_{s < nvec} | sum_k t_k(i) * e_s(k) |^2
/// With t holding *conjugated* steering rows this is the projector
/// numerator of the MUSIC denominator, evaluated for all swept bins in
/// one pass over the table.
void projector_power(const SplitPlanes& t, const double* ev_re,
                     const double* ev_im, std::size_t nvec, double* out);

/// Bartlett quadratic form per table row against a Hermitian matrix
/// (row-major complex, t.m x t.m): out[i] = a_i^H R a_i, with a_i the
/// (unconjugated) steering vector in row i of the table.
void bartlett_power(const SplitPlanes& t, const cplx* r, double* out);

/// Snapshot covariance from split planes (plane i = antenna i over
/// x.rows snapshots): r[i * m + j] = (1/rows) sum_k x_i(k) conj(x_j(k)).
/// Only the upper triangle is accumulated; the lower is its exact
/// conjugate mirror (term-wise identical to accumulating it directly).
void covariance(const SplitPlanes& x, cplx* r);

/// Forward-backward average of a square complex matrix: with J the
/// exchange matrix, out = 0.5 * (r + J conj(r) J), i.e. flat element t
/// of out is 0.5 * (r[t] + conj(r[m*m - 1 - t])). `out` must not alias
/// `r`.
void forward_backward(const cplx* r, std::size_t m, cplx* out);

/// Heatmap likelihood product: for each cell c,
///   cells[c] *= max((1 - frac[c]) * power[bin0[c]]
///                     + frac[c] * power[bin1[c]], floor)
/// -- a branch-free gather + lerp + product over flat arrays. Cell
/// results are independent of how callers chunk the range: the vector
/// paths' remainder lanes round exactly like their full lanes.
void gather_lerp_product(const double* power, const std::int32_t* bin0,
                         const std::int32_t* bin1, const double* frac,
                         std::size_t count, double floor, double* cells);

/// FIR filter over one signal of nout + ntaps - 1 samples: every
/// output accumulates its taps in ascending order from zero,
///   out[i] = sum_j taps[j] * in[i + j]
/// Callers express a circular convolution by pre-extending the input
/// with the wrapped edge samples (as aoa::AoaSpectrum::convolve does).
/// The vector levels spread consecutive outputs across lanes, and
/// every level performs separate multiply/add (never fused), so all
/// levels produce identical bits and match the plain scalar loop
///   acc = 0; for j: acc += taps[j] * x[i + j]
void fir(const double* in, std::size_t nout, const double* taps,
         std::size_t ntaps, double* out);

}  // namespace kernels
}  // namespace arraytrack::linalg
