#include "linalg/kernels.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "core/simd.h"  // dependency-free leaf header (see its comment)

#if defined(__x86_64__) || defined(__i386__)
#define AT_KERNELS_X86 1
#include <immintrin.h>
#else
#define AT_KERNELS_X86 0
#endif

#if AT_KERNELS_X86 && (defined(__GNUC__) || defined(__clang__))
#define AT_TARGET_AVX2 __attribute__((target("avx2,fma")))
// AVX2 without FMA in the target ISA: for kernels whose bit-for-bit
// contract requires separate multiply/add (the bearing-blur FIR), the
// compiler must be unable to contract the mul+add intrinsic pair into
// a fused op, which -ffp-contract otherwise permits even for
// intrinsics.
#define AT_TARGET_AVX2_NOFMA __attribute__((target("avx2")))
#define AT_TARGET_SSE2 __attribute__((target("sse2")))
#else
#define AT_TARGET_AVX2
#define AT_TARGET_AVX2_NOFMA
#define AT_TARGET_SSE2
#endif

// Determinism note: every vector path below handles its remainder
// elements with scalar code whose rounding matches the full lanes
// op-for-op (std::fma where the lanes use fused ops, separate
// multiply/add where they do not). A cell or row therefore computes
// the same bits whether it lands in a full vector block or a tail,
// which is what keeps results independent of caller chunking (the
// thread pool splits the heatmap at arbitrary offsets).

namespace arraytrack::linalg::kernels {
namespace {

// ---------------------------------------------------------------- scalar

void projector_power_scalar(const SplitPlanes& t, const double* ev_re,
                            const double* ev_im, std::size_t nvec,
                            double* out) {
  const std::size_t rows = t.rows, m = t.m, pitch = t.pitch;
  const double* tre = t.re.data();
  const double* tim = t.im.data();
  for (std::size_t i = 0; i < rows; ++i) {
    double acc = 0.0;
    for (std::size_t s = 0; s < nvec; ++s) {
      const double* er = ev_re + s * m;
      const double* ei = ev_im + s * m;
      double ar = 0.0, ai = 0.0;
      for (std::size_t k = 0; k < m; ++k) {
        const double cr = tre[k * pitch + i];
        const double ci = tim[k * pitch + i];
        ar += cr * er[k] - ci * ei[k];
        ai += cr * ei[k] + ci * er[k];
      }
      acc += ar * ar + ai * ai;
    }
    out[i] = acc;
  }
}

void bartlett_power_scalar(const SplitPlanes& t, const cplx* r, double* out) {
  const std::size_t rows = t.rows, m = t.m, pitch = t.pitch;
  const double* tre = t.re.data();
  const double* tim = t.im.data();
  for (std::size_t i = 0; i < rows; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      const double pj = tre[j * pitch + i];
      const double qj = tim[j * pitch + i];
      acc += r[j * m + j].real() * (pj * pj + qj * qj);
      for (std::size_t k = j + 1; k < m; ++k) {
        const double pk = tre[k * pitch + i];
        const double qk = tim[k * pitch + i];
        const double u = r[j * m + k].real();
        const double v = r[j * m + k].imag();
        // conj(a_j) R_jk a_k + its mirror term = 2 Re(conj(a_j) R_jk a_k).
        acc += 2.0 * (u * (pj * pk + qj * qk) - v * (pj * qk - qj * pk));
      }
    }
    out[i] = acc;
  }
}

void covariance_scalar(const SplitPlanes& x, cplx* r) {
  const std::size_t m = x.m, n = x.rows, pitch = x.pitch;
  const double* xre = x.re.data();
  const double* xim = x.im.data();
  const double inv_n = 1.0 / double(n);
  for (std::size_t i = 0; i < m; ++i) {
    const double* pi = xre + i * pitch;
    const double* qi = xim + i * pitch;
    for (std::size_t j = i; j < m; ++j) {
      const double* pj = xre + j * pitch;
      const double* qj = xim + j * pitch;
      double re = 0.0, im = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        re += pi[k] * pj[k] + qi[k] * qj[k];
        im += qi[k] * pj[k] - pi[k] * qj[k];
      }
      if (j == i) im = 0.0;  // diagonal of x x^H is exactly real
      r[i * m + j] = cplx{re * inv_n, im * inv_n};
      if (j != i) r[j * m + i] = cplx{re * inv_n, -im * inv_n};
    }
  }
}

void forward_backward_scalar(const cplx* r, std::size_t m, cplx* out) {
  const std::size_t total = m * m;
  for (std::size_t t = 0; t < total; ++t)
    out[t] = 0.5 * (r[t] + std::conj(r[total - 1 - t]));
}

void gather_lerp_product_scalar(const double* power, const std::int32_t* bin0,
                                const std::int32_t* bin1, const double* frac,
                                std::size_t count, double floor,
                                double* cells) {
  for (std::size_t c = 0; c < count; ++c) {
    const double f = frac[c];
    const double v = (1.0 - f) * power[bin0[c]] + f * power[bin1[c]];
    cells[c] *= std::max(v, floor);
  }
}

void fir_scalar(const double* in, std::size_t nout, const double* taps,
                std::size_t ntaps, double* out) {
  for (std::size_t i = 0; i < nout; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < ntaps; ++j) acc += taps[j] * in[i + j];
    out[i] = acc;
  }
}

#if AT_KERNELS_X86

// ----------------------------------------------------------------- SSE2

AT_TARGET_SSE2
void projector_power_sse2(const SplitPlanes& t, const double* ev_re,
                          const double* ev_im, std::size_t nvec, double* out) {
  const std::size_t rows = t.rows, m = t.m, pitch = t.pitch;
  const double* tre = t.re.data();
  const double* tim = t.im.data();
  std::size_t i = 0;
  for (; i + 2 <= rows; i += 2) {
    __m128d acc = _mm_setzero_pd();
    for (std::size_t s = 0; s < nvec; ++s) {
      const double* er = ev_re + s * m;
      const double* ei = ev_im + s * m;
      __m128d ar = _mm_setzero_pd(), ai = _mm_setzero_pd();
      for (std::size_t k = 0; k < m; ++k) {
        const __m128d cr = _mm_loadu_pd(tre + k * pitch + i);
        const __m128d ci = _mm_loadu_pd(tim + k * pitch + i);
        const __m128d br = _mm_set1_pd(er[k]);
        const __m128d bi = _mm_set1_pd(ei[k]);
        ar = _mm_add_pd(ar, _mm_mul_pd(cr, br));
        ar = _mm_sub_pd(ar, _mm_mul_pd(ci, bi));
        ai = _mm_add_pd(ai, _mm_mul_pd(cr, bi));
        ai = _mm_add_pd(ai, _mm_mul_pd(ci, br));
      }
      acc = _mm_add_pd(acc, _mm_mul_pd(ar, ar));
      acc = _mm_add_pd(acc, _mm_mul_pd(ai, ai));
    }
    _mm_storeu_pd(out + i, acc);
  }
  for (; i < rows; ++i) {
    double acc = 0.0;
    for (std::size_t s = 0; s < nvec; ++s) {
      const double* er = ev_re + s * m;
      const double* ei = ev_im + s * m;
      double ar = 0.0, ai = 0.0;
      for (std::size_t k = 0; k < m; ++k) {
        const double cr = tre[k * pitch + i];
        const double ci = tim[k * pitch + i];
        ar = ar + cr * er[k];
        ar = ar - ci * ei[k];
        ai = ai + cr * ei[k];
        ai = ai + ci * er[k];
      }
      acc = acc + ar * ar;
      acc = acc + ai * ai;
    }
    out[i] = acc;
  }
}

AT_TARGET_SSE2
void bartlett_power_sse2(const SplitPlanes& t, const cplx* r, double* out) {
  const std::size_t rows = t.rows, m = t.m, pitch = t.pitch;
  const double* tre = t.re.data();
  const double* tim = t.im.data();
  std::size_t i = 0;
  for (; i + 2 <= rows; i += 2) {
    __m128d acc = _mm_setzero_pd();
    for (std::size_t j = 0; j < m; ++j) {
      const __m128d pj = _mm_loadu_pd(tre + j * pitch + i);
      const __m128d qj = _mm_loadu_pd(tim + j * pitch + i);
      const __m128d mag =
          _mm_add_pd(_mm_mul_pd(pj, pj), _mm_mul_pd(qj, qj));
      acc = _mm_add_pd(acc, _mm_mul_pd(mag, _mm_set1_pd(r[j * m + j].real())));
      for (std::size_t k = j + 1; k < m; ++k) {
        const __m128d pk = _mm_loadu_pd(tre + k * pitch + i);
        const __m128d qk = _mm_loadu_pd(tim + k * pitch + i);
        const __m128d dotr =
            _mm_add_pd(_mm_mul_pd(pj, pk), _mm_mul_pd(qj, qk));
        const __m128d doti =
            _mm_sub_pd(_mm_mul_pd(pj, qk), _mm_mul_pd(qj, pk));
        const __m128d u = _mm_set1_pd(r[j * m + k].real());
        const __m128d v = _mm_set1_pd(r[j * m + k].imag());
        const __m128d w =
            _mm_sub_pd(_mm_mul_pd(u, dotr), _mm_mul_pd(v, doti));
        acc = _mm_add_pd(acc, _mm_mul_pd(w, _mm_set1_pd(2.0)));
      }
    }
    _mm_storeu_pd(out + i, acc);
  }
  for (; i < rows; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      const double pj = tre[j * pitch + i];
      const double qj = tim[j * pitch + i];
      acc = acc + (pj * pj + qj * qj) * r[j * m + j].real();
      for (std::size_t k = j + 1; k < m; ++k) {
        const double pk = tre[k * pitch + i];
        const double qk = tim[k * pitch + i];
        const double dotr = pj * pk + qj * qk;
        const double doti = pj * qk - qj * pk;
        const double w =
            r[j * m + k].real() * dotr - r[j * m + k].imag() * doti;
        acc = acc + w * 2.0;
      }
    }
    out[i] = acc;
  }
}

AT_TARGET_SSE2
void covariance_sse2(const SplitPlanes& x, cplx* r) {
  const std::size_t m = x.m, n = x.rows, pitch = x.pitch;
  const double* xre = x.re.data();
  const double* xim = x.im.data();
  const double inv_n = 1.0 / double(n);
  for (std::size_t i = 0; i < m; ++i) {
    const double* pi = xre + i * pitch;
    const double* qi = xim + i * pitch;
    for (std::size_t j = i; j < m; ++j) {
      const double* pj = xre + j * pitch;
      const double* qj = xim + j * pitch;
      __m128d vre = _mm_setzero_pd(), vim = _mm_setzero_pd();
      std::size_t k = 0;
      for (; k + 2 <= n; k += 2) {
        const __m128d a = _mm_loadu_pd(pi + k);
        const __m128d b = _mm_loadu_pd(qi + k);
        const __m128d c = _mm_loadu_pd(pj + k);
        const __m128d d = _mm_loadu_pd(qj + k);
        vre = _mm_add_pd(vre, _mm_mul_pd(a, c));
        vre = _mm_add_pd(vre, _mm_mul_pd(b, d));
        vim = _mm_add_pd(vim, _mm_mul_pd(b, c));
        vim = _mm_sub_pd(vim, _mm_mul_pd(a, d));
      }
      double re = _mm_cvtsd_f64(vre) + _mm_cvtsd_f64(_mm_unpackhi_pd(vre, vre));
      double im = _mm_cvtsd_f64(vim) + _mm_cvtsd_f64(_mm_unpackhi_pd(vim, vim));
      for (; k < n; ++k) {
        re = re + pi[k] * pj[k];
        re = re + qi[k] * qj[k];
        im = im + qi[k] * pj[k];
        im = im - pi[k] * qj[k];
      }
      if (j == i) im = 0.0;  // diagonal of x x^H is exactly real
      r[i * m + j] = cplx{re * inv_n, im * inv_n};
      if (j != i) r[j * m + i] = cplx{re * inv_n, -im * inv_n};
    }
  }
}

AT_TARGET_SSE2
void forward_backward_sse2(const cplx* r, std::size_t m, cplx* out) {
  const std::size_t total = m * m;
  const double* d = reinterpret_cast<const double*>(r);
  double* o = reinterpret_cast<double*>(out);
  const __m128d conj_mask = _mm_set_pd(-0.0, 0.0);  // negate the imag lane
  const __m128d half = _mm_set1_pd(0.5);
  for (std::size_t t = 0; t < total; ++t) {
    const __m128d fwd = _mm_loadu_pd(d + 2 * t);
    __m128d rev = _mm_loadu_pd(d + 2 * (total - 1 - t));
    rev = _mm_xor_pd(rev, conj_mask);
    _mm_storeu_pd(o + 2 * t, _mm_mul_pd(_mm_add_pd(fwd, rev), half));
  }
}

AT_TARGET_SSE2
void gather_lerp_product_sse2(const double* power, const std::int32_t* bin0,
                              const std::int32_t* bin1, const double* frac,
                              std::size_t count, double floor, double* cells) {
  const __m128d ones = _mm_set1_pd(1.0);
  const __m128d vfloor = _mm_set1_pd(floor);
  std::size_t c = 0;
  for (; c + 2 <= count; c += 2) {
    const __m128d p0 = _mm_set_pd(power[bin0[c + 1]], power[bin0[c]]);
    const __m128d p1 = _mm_set_pd(power[bin1[c + 1]], power[bin1[c]]);
    const __m128d f = _mm_loadu_pd(frac + c);
    const __m128d a = _mm_mul_pd(_mm_sub_pd(ones, f), p0);
    __m128d v = _mm_add_pd(a, _mm_mul_pd(f, p1));
    v = _mm_max_pd(v, vfloor);
    _mm_storeu_pd(cells + c, _mm_mul_pd(_mm_loadu_pd(cells + c), v));
  }
  for (; c < count; ++c) {
    const double f = frac[c];
    const double a = (1.0 - f) * power[bin0[c]];
    const double v = a + f * power[bin1[c]];
    cells[c] *= std::max(v, floor);
  }
}

// FIR over one spectrum's blur: the lanes hold consecutive outputs,
// with four independent accumulators per block to hide the add
// latency. Each output still sums its taps in ascending order from
// zero.
AT_TARGET_SSE2
void fir_row_sse2(const double* in, std::size_t nout, const double* taps,
                  std::size_t ntaps, double* out) {
  std::size_t i = 0;
  for (; i + 8 <= nout; i += 8) {
    __m128d a0 = _mm_setzero_pd(), a1 = a0, a2 = a0, a3 = a0;
    for (std::size_t j = 0; j < ntaps; ++j) {
      const __m128d t = _mm_set1_pd(taps[j]);
      const double* x = in + i + j;
      a0 = _mm_add_pd(a0, _mm_mul_pd(t, _mm_loadu_pd(x)));
      a1 = _mm_add_pd(a1, _mm_mul_pd(t, _mm_loadu_pd(x + 2)));
      a2 = _mm_add_pd(a2, _mm_mul_pd(t, _mm_loadu_pd(x + 4)));
      a3 = _mm_add_pd(a3, _mm_mul_pd(t, _mm_loadu_pd(x + 6)));
    }
    _mm_storeu_pd(out + i, a0);
    _mm_storeu_pd(out + i + 2, a1);
    _mm_storeu_pd(out + i + 4, a2);
    _mm_storeu_pd(out + i + 6, a3);
  }
  for (; i + 2 <= nout; i += 2) {
    __m128d acc = _mm_setzero_pd();
    for (std::size_t j = 0; j < ntaps; ++j)
      acc = _mm_add_pd(acc,
                       _mm_mul_pd(_mm_set1_pd(taps[j]), _mm_loadu_pd(in + i + j)));
    _mm_storeu_pd(out + i, acc);
  }
  for (; i < nout; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < ntaps; ++j) acc = acc + taps[j] * in[i + j];
    out[i] = acc;
  }
}

// ------------------------------------------------------------- AVX2+FMA

AT_TARGET_AVX2
void projector_power_avx2(const SplitPlanes& t, const double* ev_re,
                          const double* ev_im, std::size_t nvec, double* out) {
  const std::size_t rows = t.rows, m = t.m, pitch = t.pitch;
  const double* tre = t.re.data();
  const double* tim = t.im.data();
  std::size_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t s = 0; s < nvec; ++s) {
      const double* er = ev_re + s * m;
      const double* ei = ev_im + s * m;
      __m256d ar = _mm256_setzero_pd(), ai = _mm256_setzero_pd();
      for (std::size_t k = 0; k < m; ++k) {
        const __m256d cr = _mm256_loadu_pd(tre + k * pitch + i);
        const __m256d ci = _mm256_loadu_pd(tim + k * pitch + i);
        const __m256d br = _mm256_set1_pd(er[k]);
        const __m256d bi = _mm256_set1_pd(ei[k]);
        ar = _mm256_fmadd_pd(cr, br, ar);
        ar = _mm256_fnmadd_pd(ci, bi, ar);
        ai = _mm256_fmadd_pd(cr, bi, ai);
        ai = _mm256_fmadd_pd(ci, br, ai);
      }
      acc = _mm256_fmadd_pd(ar, ar, acc);
      acc = _mm256_fmadd_pd(ai, ai, acc);
    }
    _mm256_storeu_pd(out + i, acc);
  }
  for (; i < rows; ++i) {
    double acc = 0.0;
    for (std::size_t s = 0; s < nvec; ++s) {
      const double* er = ev_re + s * m;
      const double* ei = ev_im + s * m;
      double ar = 0.0, ai = 0.0;
      for (std::size_t k = 0; k < m; ++k) {
        const double cr = tre[k * pitch + i];
        const double ci = tim[k * pitch + i];
        ar = std::fma(cr, er[k], ar);
        ar = std::fma(-ci, ei[k], ar);
        ai = std::fma(cr, ei[k], ai);
        ai = std::fma(ci, er[k], ai);
      }
      acc = std::fma(ar, ar, acc);
      acc = std::fma(ai, ai, acc);
    }
    out[i] = acc;
  }
}

AT_TARGET_AVX2
void bartlett_power_avx2(const SplitPlanes& t, const cplx* r, double* out) {
  const std::size_t rows = t.rows, m = t.m, pitch = t.pitch;
  const double* tre = t.re.data();
  const double* tim = t.im.data();
  std::size_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t j = 0; j < m; ++j) {
      const __m256d pj = _mm256_loadu_pd(tre + j * pitch + i);
      const __m256d qj = _mm256_loadu_pd(tim + j * pitch + i);
      const __m256d mag = _mm256_fmadd_pd(qj, qj, _mm256_mul_pd(pj, pj));
      acc = _mm256_fmadd_pd(mag, _mm256_set1_pd(r[j * m + j].real()), acc);
      for (std::size_t k = j + 1; k < m; ++k) {
        const __m256d pk = _mm256_loadu_pd(tre + k * pitch + i);
        const __m256d qk = _mm256_loadu_pd(tim + k * pitch + i);
        const __m256d dotr = _mm256_fmadd_pd(qj, qk, _mm256_mul_pd(pj, pk));
        const __m256d doti = _mm256_fnmadd_pd(qj, pk, _mm256_mul_pd(pj, qk));
        const __m256d u = _mm256_set1_pd(r[j * m + k].real());
        const __m256d v = _mm256_set1_pd(r[j * m + k].imag());
        const __m256d w = _mm256_fnmadd_pd(v, doti, _mm256_mul_pd(u, dotr));
        acc = _mm256_fmadd_pd(w, _mm256_set1_pd(2.0), acc);
      }
    }
    _mm256_storeu_pd(out + i, acc);
  }
  for (; i < rows; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      const double pj = tre[j * pitch + i];
      const double qj = tim[j * pitch + i];
      const double mag = std::fma(qj, qj, pj * pj);
      acc = std::fma(mag, r[j * m + j].real(), acc);
      for (std::size_t k = j + 1; k < m; ++k) {
        const double pk = tre[k * pitch + i];
        const double qk = tim[k * pitch + i];
        const double dotr = std::fma(qj, qk, pj * pk);
        const double doti = std::fma(-qj, pk, pj * qk);
        const double w = std::fma(-r[j * m + k].imag(), doti,
                                  r[j * m + k].real() * dotr);
        acc = std::fma(w, 2.0, acc);
      }
    }
    out[i] = acc;
  }
}

AT_TARGET_AVX2
double hsum4(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);  // (l0+l2, l1+l3)
  return _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

AT_TARGET_AVX2
void covariance_avx2(const SplitPlanes& x, cplx* r) {
  const std::size_t m = x.m, n = x.rows, pitch = x.pitch;
  const double* xre = x.re.data();
  const double* xim = x.im.data();
  const double inv_n = 1.0 / double(n);
  for (std::size_t i = 0; i < m; ++i) {
    const double* pi = xre + i * pitch;
    const double* qi = xim + i * pitch;
    for (std::size_t j = i; j < m; ++j) {
      const double* pj = xre + j * pitch;
      const double* qj = xim + j * pitch;
      __m256d vre = _mm256_setzero_pd(), vim = _mm256_setzero_pd();
      std::size_t k = 0;
      for (; k + 4 <= n; k += 4) {
        const __m256d a = _mm256_loadu_pd(pi + k);
        const __m256d b = _mm256_loadu_pd(qi + k);
        const __m256d c = _mm256_loadu_pd(pj + k);
        const __m256d d = _mm256_loadu_pd(qj + k);
        vre = _mm256_fmadd_pd(a, c, vre);
        vre = _mm256_fmadd_pd(b, d, vre);
        vim = _mm256_fmadd_pd(b, c, vim);
        vim = _mm256_fnmadd_pd(a, d, vim);
      }
      double re = hsum4(vre), im = hsum4(vim);
      for (; k < n; ++k) {
        re = std::fma(pi[k], pj[k], re);
        re = std::fma(qi[k], qj[k], re);
        im = std::fma(qi[k], pj[k], im);
        im = std::fma(-pi[k], qj[k], im);
      }
      if (j == i) im = 0.0;  // diagonal of x x^H is exactly real
      r[i * m + j] = cplx{re * inv_n, im * inv_n};
      if (j != i) r[j * m + i] = cplx{re * inv_n, -im * inv_n};
    }
  }
}

AT_TARGET_AVX2
void forward_backward_avx2(const cplx* r, std::size_t m, cplx* out) {
  const std::size_t total = m * m;
  const double* d = reinterpret_cast<const double*>(r);
  double* o = reinterpret_cast<double*>(out);
  const __m256d conj_mask = _mm256_set_pd(-0.0, 0.0, -0.0, 0.0);
  const __m256d half = _mm256_set1_pd(0.5);
  std::size_t t = 0;
  for (; t + 2 <= total; t += 2) {
    const __m256d fwd = _mm256_loadu_pd(d + 2 * t);
    // Two complex values in descending order, then swap the 128-bit
    // halves so lane order matches [total-1-t, total-1-(t+1)].
    __m256d rev = _mm256_loadu_pd(d + 2 * (total - t - 2));
    rev = _mm256_permute2f128_pd(rev, rev, 0x01);
    rev = _mm256_xor_pd(rev, conj_mask);
    _mm256_storeu_pd(o + 2 * t, _mm256_mul_pd(_mm256_add_pd(fwd, rev), half));
  }
  for (; t < total; ++t)
    out[t] = 0.5 * (r[t] + std::conj(r[total - 1 - t]));
}

AT_TARGET_AVX2
void gather_lerp_product_avx2(const double* power, const std::int32_t* bin0,
                              const std::int32_t* bin1, const double* frac,
                              std::size_t count, double floor, double* cells) {
  const __m256d ones = _mm256_set1_pd(1.0);
  const __m256d vfloor = _mm256_set1_pd(floor);
  // The all-lanes mask + zeroed source form of the gather: same
  // instruction, but avoids GCC's uninitialized-source expansion of
  // the plain _mm256_i32gather_pd macro.
  const __m256d gmask = _mm256_cmp_pd(ones, _mm256_setzero_pd(), _CMP_NEQ_OQ);
  std::size_t c = 0;
  for (; c + 4 <= count; c += 4) {
    const __m128i i0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bin0 + c));
    const __m128i i1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bin1 + c));
    const __m256d p0 =
        _mm256_mask_i32gather_pd(_mm256_setzero_pd(), power, i0, gmask, 8);
    const __m256d p1 =
        _mm256_mask_i32gather_pd(_mm256_setzero_pd(), power, i1, gmask, 8);
    const __m256d f = _mm256_loadu_pd(frac + c);
    const __m256d a = _mm256_mul_pd(_mm256_sub_pd(ones, f), p0);
    __m256d v = _mm256_fmadd_pd(f, p1, a);
    v = _mm256_max_pd(v, vfloor);
    _mm256_storeu_pd(cells + c, _mm256_mul_pd(_mm256_loadu_pd(cells + c), v));
  }
  for (; c < count; ++c) {
    const double f = frac[c];
    const double a = (1.0 - f) * power[bin0[c]];
    const double v = std::fma(f, power[bin1[c]], a);
    cells[c] *= std::max(v, floor);
  }
}

// fir_row_sse2 at four lanes: 4 accumulators x 4 consecutive outputs.
// Deliberately mul+add, in a target without FMA so the compiler cannot
// contract the pair: bit-compatible with the portable scalar loop,
// which compiles without FMA and never fuses.
AT_TARGET_AVX2_NOFMA
void fir_row_avx2(const double* in, std::size_t nout, const double* taps,
                  std::size_t ntaps, double* out) {
  std::size_t i = 0;
  for (; i + 16 <= nout; i += 16) {
    __m256d a0 = _mm256_setzero_pd(), a1 = a0, a2 = a0, a3 = a0;
    for (std::size_t j = 0; j < ntaps; ++j) {
      const __m256d t = _mm256_set1_pd(taps[j]);
      const double* x = in + i + j;
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(t, _mm256_loadu_pd(x)));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(t, _mm256_loadu_pd(x + 4)));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(t, _mm256_loadu_pd(x + 8)));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(t, _mm256_loadu_pd(x + 12)));
    }
    _mm256_storeu_pd(out + i, a0);
    _mm256_storeu_pd(out + i + 4, a1);
    _mm256_storeu_pd(out + i + 8, a2);
    _mm256_storeu_pd(out + i + 12, a3);
  }
  for (; i + 4 <= nout; i += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t j = 0; j < ntaps; ++j)
      acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(taps[j]),
                                             _mm256_loadu_pd(in + i + j)));
    _mm256_storeu_pd(out + i, acc);
  }
  for (; i < nout; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < ntaps; ++j) acc = acc + taps[j] * in[i + j];
    out[i] = acc;
  }
}

#endif  // AT_KERNELS_X86

using core::simd::Level;

}  // namespace

void projector_power(const SplitPlanes& t, const double* ev_re,
                     const double* ev_im, std::size_t nvec, double* out) {
#if AT_KERNELS_X86
  switch (core::simd::active()) {
    case Level::kAvx2:
      return projector_power_avx2(t, ev_re, ev_im, nvec, out);
    case Level::kSse2:
      return projector_power_sse2(t, ev_re, ev_im, nvec, out);
    case Level::kScalar:
      break;
  }
#endif
  projector_power_scalar(t, ev_re, ev_im, nvec, out);
}

void bartlett_power(const SplitPlanes& t, const cplx* r, double* out) {
#if AT_KERNELS_X86
  switch (core::simd::active()) {
    case Level::kAvx2:
      return bartlett_power_avx2(t, r, out);
    case Level::kSse2:
      return bartlett_power_sse2(t, r, out);
    case Level::kScalar:
      break;
  }
#endif
  bartlett_power_scalar(t, r, out);
}

void covariance(const SplitPlanes& x, cplx* r) {
#if AT_KERNELS_X86
  switch (core::simd::active()) {
    case Level::kAvx2:
      return covariance_avx2(x, r);
    case Level::kSse2:
      return covariance_sse2(x, r);
    case Level::kScalar:
      break;
  }
#endif
  covariance_scalar(x, r);
}

void forward_backward(const cplx* r, std::size_t m, cplx* out) {
#if AT_KERNELS_X86
  switch (core::simd::active()) {
    case Level::kAvx2:
      return forward_backward_avx2(r, m, out);
    case Level::kSse2:
      return forward_backward_sse2(r, m, out);
    case Level::kScalar:
      break;
  }
#endif
  forward_backward_scalar(r, m, out);
}

void gather_lerp_product(const double* power, const std::int32_t* bin0,
                         const std::int32_t* bin1, const double* frac,
                         std::size_t count, double floor, double* cells) {
#if AT_KERNELS_X86
  switch (core::simd::active()) {
    case Level::kAvx2:
      return gather_lerp_product_avx2(power, bin0, bin1, frac, count, floor,
                                      cells);
    case Level::kSse2:
      return gather_lerp_product_sse2(power, bin0, bin1, frac, count, floor,
                                      cells);
    case Level::kScalar:
      break;
  }
#endif
  gather_lerp_product_scalar(power, bin0, bin1, frac, count, floor, cells);
}

void fir(const double* in, std::size_t nout, const double* taps,
         std::size_t ntaps, double* out) {
#if AT_KERNELS_X86
  switch (core::simd::active()) {
    case Level::kAvx2:
      return fir_row_avx2(in, nout, taps, ntaps, out);
    case Level::kSse2:
      return fir_row_sse2(in, nout, taps, ntaps, out);
    case Level::kScalar:
      break;
  }
#endif
  fir_scalar(in, nout, taps, ntaps, out);
}

}  // namespace arraytrack::linalg::kernels

// ------------------------------------------------ coarse score tables

namespace arraytrack::linalg {

namespace {

/// Round-up Q.6 upper bound on log2(v) for a finite normal v > 0,
/// without calling log2: split v = 2^e * 1.m, bound the mantissa by
/// the next 1/256 grid point above it, and look up a round-up table
/// of 64 * log2(1 + i/256). Overshoots the exact ceil by at most
/// 64 * log2(257/256) + 1 < 1.4 Q.6 steps, which goes into
/// slack_bits; table construction is on every locate's critical path,
/// so the ~4 ns log2 per bin matters.
inline std::int32_t ceil_log2_q6_upper(double v) {
  static const auto kLut = [] {
    std::array<std::int32_t, 257> t{};
    for (int i = 0; i <= 256; ++i)
      t[std::size_t(i)] = std::int32_t(
          std::ceil(std::log2(1.0 + double(i) / 256.0) *
                    double(1 << CoarseLogTable::kFracBits)));
    return t;
  }();
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  const std::int64_t e = std::int64_t((bits >> 52) & 0x7ff) - 1023;
  const std::uint32_t m = std::uint32_t((bits >> 44) & 0xff);
  return std::int32_t(e * (1 << CoarseLogTable::kFracBits)) + kLut[m + 1];
}

}  // namespace

CoarseLogTable coarse_log_table(const double* p, std::size_t bins,
                                double floor) {
  CoarseLogTable t;
  if (bins == 0) return t;
  t.pairmax.resize(bins);
  // 1e-300 keeps the clamped values normal, which ceil_log2_q6_upper's
  // exponent extraction requires.
  const double lo = std::max(floor, 1e-300);
  const double ulp = 1.0 / double(1 << CoarseLogTable::kFracBits);
  double max_ratio = 1.0;
  const double first = std::max(p[0], lo);
  double p0 = first;
  for (std::size_t b = 0; b < bins; ++b) {
    const double p1 = b + 1 < bins ? std::max(p[b + 1], lo) : first;
    const double hi2 = std::max(p0, p1);
    const double lo2 = std::min(p0, p1);
    // Round-up Q.6 log2 of the pair max: a certified upper bound on
    // log2 of any clamped lerp between the two bins.
    t.pairmax[b] = ceil_log2_q6_upper(hi2);
    // The lerp can sink to the smaller endpoint, so the per-cell
    // overshoot of this entry is at most the pair's log-ratio (plus
    // the quantization terms below).
    max_ratio = std::max(max_ratio, hi2 / lo2);
    p0 = p1;
  }
  t.slack_bits =
      std::log2(max_ratio) + std::log2(257.0 / 256.0) + 2.0 * ulp;
  return t;
}

}  // namespace arraytrack::linalg

