// Computing-block kernels (paper §IV-A, Fig. 6), generic over a semiring.
//
// A *computing block* is a WxW tile; the kernel relaxes C = C (+) (A (x) B)
// where (x) is the semiring "matrix product" of Fig. 6(b):
//
//     C[r][c] = C[r][c] (+) (+)_k A[r][k] (x) B[k][c]
//
// For (min,+) this is exactly the paper's kernel: C[r][c] =
// min(C[r][c], min_k A[r][k] + B[k][c]). The register-cached schedule is
// the paper's 80-instruction variant regardless of the semiring: the W rows
// of B are loaded once, each C row is loaded, relaxed with W
// splat+times+plus steps, and stored — 12 loads, 16 shuffles, 16 (x), 16
// compares, 16 selects, 4 stores for W = 4 (Table I; for non-idempotent
// (+) the compare+select pair is a single lane add instead).
//
// The separable variant additionally folds a per-(r,k,c) factor
// u[r]*v[k]*w[c] (an ordinary product, (x)-combined with the candidate),
// which is what the optimal-matrix-parenthesization instance needs
// (p_i * p_k * p_j); pure NPDP passes no term.
//
// Stage 1 of the engine does not call the WxW block once per tile triple:
// semiring_block relaxes a whole middle block pair with a register-blocked
// panel (an MR x NV*W C panel held in registers across the pair's full k
// range, GEMM-style). The WxW computing block remains the paper's Table I
// kernel, the stage-2 kernel and the panel's edge-strip fallback.
//
// The minplus_* entry points below are thin aliases onto the generic
// kernels instantiated with MinPlusSemiring — same instructions, same
// results, kept for the existing call sites and the op-count model.
#pragma once

#include <utility>

#include "common/defs.hpp"
#include "simd/semiring.hpp"
#include "simd/vec.hpp"

// Keep the compiler from auto-vectorising the deliberately scalar ablation
// kernels, otherwise the "SIMD off" measurements silently use SIMD. GCC
// honours the function attribute; clang ignores it (and has no equivalent
// function-level spelling), so the scalar kernels additionally carry
// CELLNPDP_NOVEC_LOOP on their inner loops, which clang does honour.
#if defined(__GNUC__) && !defined(__clang__)
#define CELLNPDP_NOVEC __attribute__((optimize("no-tree-vectorize")))
#else
#define CELLNPDP_NOVEC
#endif

#if defined(__clang__)
#define CELLNPDP_NOVEC_LOOP \
  _Pragma("clang loop vectorize(disable) interleave(disable)")
#else
#define CELLNPDP_NOVEC_LOOP
#endif

namespace cellnpdp {

namespace detail {

template <class S, class T, int W, std::size_t... K>
inline Vec<T, W> semiring_row(Vec<T, W> c, Vec<T, W> a, const Vec<T, W>* b,
                              std::index_sequence<K...>) {
  ((c = S::template vplus<W>(
        c, S::template vtimes<W>(Vec<T, W>::template splat<K>(a), b[K]))),
   ...);
  return c;
}

template <class S, class T, int W, std::size_t... K>
inline Vec<T, W> semiring_row_sep(Vec<T, W> c, Vec<T, W> a,
                                  const Vec<T, W>* b, const T* uv,
                                  Vec<T, W> wv, std::index_sequence<K...>) {
  // The factor product is associated (u*v)*w to stay bit-identical to the
  // scalar reference path.
  ((c = S::template vplus<W>(
        c, S::template vtimes<W>(
               S::template vtimes<W>(Vec<T, W>::template splat<K>(a), b[K]),
               Vec<T, W>::set1(uv[K]) * wv))),
   ...);
  return c;
}

}  // namespace detail

/// Register-cached WxW computing-block relaxation: C = C (+) (A (x) B).
/// sc/sa/sb are row strides in elements; rows must be kBufferAlignment
/// aligned when a SIMD Vec specialisation is selected.
template <class S, class T, int W>
inline void semiring_cb(T* C, index_t sc, const T* A, index_t sa, const T* B,
                        index_t sb) {
  using V = Vec<T, W>;
  V b[W];
  for (int k = 0; k < W; ++k) b[k] = V::load(B + k * sb);
  for (int r = 0; r < W; ++r) {
    V c = V::load(C + r * sc);
    const V a = V::load(A + r * sa);
    c = detail::semiring_row<S, T, W>(c, a, b, std::make_index_sequence<W>{});
    c.store(C + r * sc);
  }
}

/// As semiring_cb but with the separable extra factor u[r]*v[k]*w[c]:
///     C[r][c] = C[r][c] (+) (+)_k (A[r][k] (x) B[k][c]) (x) u[r]*v[k]*w[c]
/// u/v/w point at the W per-row / per-k / per-column factors of this tile.
template <class S, class T, int W>
inline void semiring_cb_sep(T* C, index_t sc, const T* A, index_t sa,
                            const T* B, index_t sb, const T* u, const T* v,
                            const T* w) {
  using V = Vec<T, W>;
  const V wv = V::load(w);
  V b[W];
  for (int k = 0; k < W; ++k) b[k] = V::load(B + k * sb);
  for (int r = 0; r < W; ++r) {
    V c = V::load(C + r * sc);
    const V a = V::load(A + r * sa);
    T uv[W];
    for (int k = 0; k < W; ++k) uv[k] = u[r] * v[k];
    c = detail::semiring_row_sep<S, T, W>(c, a, b, uv, wv,
                                          std::make_index_sequence<W>{});
    c.store(C + r * sc);
  }
}

namespace detail {

// The panel helpers below are index_sequence folds so that every
// accumulator index is a compile-time constant: the MR x NV accumulators
// then live in registers for the whole k loop instead of spilling.

template <class T, int W, int NV, std::size_t... I>
inline void panel_load(Vec<T, W>* acc, const T* C, index_t sc,
                       std::index_sequence<I...>) {
  ((acc[I] = Vec<T, W>::load(C + index_t(I / NV) * sc + index_t(I % NV) * W)),
   ...);
}

template <class T, int W, int NV, std::size_t... I>
inline void panel_store(const Vec<T, W>* acc, T* C, index_t sc,
                        std::index_sequence<I...>) {
  (acc[I].store(C + index_t(I / NV) * sc + index_t(I % NV) * W), ...);
}

template <class S, class T, int W, std::size_t... J>
inline void panel_row(Vec<T, W>* acc, Vec<T, W> a, const Vec<T, W>* b,
                      std::index_sequence<J...>) {
  ((acc[J] = S::template vplus<W>(acc[J], S::template vtimes<W>(a, b[J]))),
   ...);
}

/// One k step: A[r][k] broadcast for each of the MR rows, (x) the NV
/// vectors of B row k, (+) into row r's accumulators.
template <class S, class T, int W, int NV, std::size_t... R>
inline void panel_step(Vec<T, W>* acc, const T* a, index_t sa,
                       const Vec<T, W>* b, std::index_sequence<R...>) {
  (panel_row<S, T, W>(acc + R * NV, Vec<T, W>::set1(a[index_t(R) * sa]), b,
                      std::make_index_sequence<NV>{}),
   ...);
}

template <class T, int W, std::size_t... J>
inline void panel_bload(Vec<T, W>* b, const T* B, std::index_sequence<J...>) {
  ((b[J] = Vec<T, W>::load(B + index_t(J) * W)), ...);
}

}  // namespace detail

/// Register-blocked panel: the MR x (NV*W) tile of C at C is held in
/// MR*NV registers while k runs over [0, depth):
///     C[r][c] = C[r][c] (+) (+)_k A[r][k] (x) B[k][c]
/// Each cell folds its candidates in ascending k with the same vplus/vtimes
/// expressions as semiring_cb, so the two agree bit for bit.
template <class S, class T, int W, int MR, int NV>
inline void semiring_panel(T* C, index_t sc, const T* A, index_t sa,
                           const T* B, index_t sb, index_t depth) {
  using V = Vec<T, W>;
  V acc[MR * NV];
  detail::panel_load<T, W, NV>(acc, C, sc, std::make_index_sequence<MR * NV>{});
  for (index_t k = 0; k < depth; ++k) {
    V b[NV];
    detail::panel_bload<T, W>(b, B + k * sb, std::make_index_sequence<NV>{});
    detail::panel_step<S, T, W, NV>(acc, A + k, sa, b,
                                    std::make_index_sequence<MR>{});
  }
  detail::panel_store<T, W, NV>(acc, C, sc, std::make_index_sequence<MR * NV>{});
}

/// Stage-1 block product over one whole middle pair: C (+)= A (x) B, where
/// C, A and B are bs x bs blocks with row stride bs and bs is a multiple
/// of W. 4 x 2W panels (8 accumulators, 12 of the 16 vector registers in
/// use) cover the largest 4 x 2W-aligned top-left part of C; the right
/// and bottom edge strips that the panel does not divide are finished
/// with the WxW computing block. Every cell still folds k in ascending
/// order, and nothing outside the three blocks is read or written.
template <class S, class T, int W>
inline void semiring_block(T* C, const T* A, const T* B, index_t bs) {
  constexpr int MR = 4, NV = 2;
  static_assert(MR % W == 0 || W % MR == 0,
                "edge strips must start on a computing-block boundary");
  constexpr index_t NR = NV * W;
  const index_t rows = bs - bs % MR, cols = bs - bs % NR;
  for (index_t r = 0; r < rows; r += MR)
    for (index_t c = 0; c < cols; c += NR)
      semiring_panel<S, T, W, MR, NV>(C + r * bs + c, bs, A + r * bs, bs,
                                      B + c, bs, bs);
  for (index_t r = 0; r < bs; r += W)
    for (index_t c = r < rows ? cols : 0; c < bs; c += W)
      for (index_t k = 0; k < bs; k += W)
        semiring_cb<S, T, W>(C + r * bs + c, bs, A + r * bs + k, bs,
                             B + k * bs + c, bs);
}

/// The paper's (min,+) kernel: semiring_cb instantiated with min-plus.
template <class T, int W>
inline void minplus_cb(T* C, index_t sc, const T* A, index_t sa, const T* B,
                       index_t sb) {
  semiring_cb<MinPlusSemiring<T>, T, W>(C, sc, A, sa, B, sb);
}

/// (min,+) kernel with the separable term u[r]*v[k]*w[c].
template <class T, int W>
inline void minplus_cb_sep(T* C, index_t sc, const T* A, index_t sa,
                           const T* B, index_t sb, const T* u, const T* v,
                           const T* w) {
  semiring_cb_sep<MinPlusSemiring<T>, T, W>(C, sc, A, sa, B, sb, u, v, w);
}

/// Deliberately scalar tile relaxation with a runtime side, used by the
/// "SIMD off" ablation and by the baselines. Never auto-vectorised.
template <class S, class T>
CELLNPDP_NOVEC void semiring_tile_scalar(T* C, index_t sc, const T* A,
                                         index_t sa, const T* B, index_t sb,
                                         index_t side) {
  for (index_t r = 0; r < side; ++r)
    for (index_t k = 0; k < side; ++k) {
      const T a = A[r * sa + k];
      CELLNPDP_NOVEC_LOOP
      for (index_t c = 0; c < side; ++c) {
        const T cand = S::times(a, B[k * sb + c]);
        T& dst = C[r * sc + c];
        if constexpr (S::idempotent) {
          if (S::improves(cand, dst)) dst = cand;
        } else {
          dst = S::plus(dst, cand);
        }
      }
    }
}

/// Scalar separable-term tile relaxation (runtime side).
template <class S, class T>
CELLNPDP_NOVEC void semiring_tile_scalar_sep(T* C, index_t sc, const T* A,
                                             index_t sa, const T* B,
                                             index_t sb, index_t side,
                                             const T* u, const T* v,
                                             const T* w) {
  for (index_t r = 0; r < side; ++r)
    for (index_t k = 0; k < side; ++k) {
      const T avk = A[r * sa + k];
      const T uv = u[r] * v[k];
      CELLNPDP_NOVEC_LOOP
      for (index_t c = 0; c < side; ++c) {
        const T cand = S::times(S::times(avk, B[k * sb + c]), uv * w[c]);
        T& dst = C[r * sc + c];
        if constexpr (S::idempotent) {
          if (S::improves(cand, dst)) dst = cand;
        } else {
          dst = S::plus(dst, cand);
        }
      }
    }
}

/// (min,+) scalar tile (the ablation baseline's historical entry point).
template <class T>
CELLNPDP_NOVEC void minplus_tile_scalar(T* C, index_t sc, const T* A,
                                        index_t sa, const T* B, index_t sb,
                                        index_t side) {
  semiring_tile_scalar<MinPlusSemiring<T>, T>(C, sc, A, sa, B, sb, side);
}

/// (min,+) scalar separable-term tile.
template <class T>
CELLNPDP_NOVEC void minplus_tile_scalar_sep(T* C, index_t sc, const T* A,
                                            index_t sa, const T* B,
                                            index_t sb, index_t side,
                                            const T* u, const T* v,
                                            const T* w) {
  semiring_tile_scalar_sep<MinPlusSemiring<T>, T>(C, sc, A, sa, B, sb, side,
                                                  u, v, w);
}

/// Instruction mix of one WxW computing-block relaxation as it would be
/// emitted for the Cell SPE ISA (which has no lane-wise min: each min costs
/// a compare plus a select). Consumed by the SPU pipeline model.
struct KernelOpCounts {
  int loads = 0;
  int shuffles = 0;
  int adds = 0;
  int compares = 0;
  int selects = 0;
  int stores = 0;

  int total() const {
    return loads + shuffles + adds + compares + selects + stores;
  }
};

/// The paper's register-cached schedule (Table I): 80 instructions at W = 4.
constexpr KernelOpCounts cb_op_counts_cached(int w) {
  // B rows + C rows + A rows loaded once each; one shuffle/add/cmp/sel per
  // (r, k) pair; one store per C row.
  return {3 * w, w * w, w * w, w * w, w * w, w};
}

/// The naive schedule (Fig. 6(b) repeated per step): 128 instructions at
/// W = 4 — every step reloads C, B and A and stores C.
constexpr KernelOpCounts cb_op_counts_uncached(int w) {
  return {3 * w * w, w * w, w * w, w * w, w * w, w * w};
}

}  // namespace cellnpdp
