// Optimal-decision recovery by recomputation.
//
// The engine computes values only. recover_split() re-evaluates one cell's
// recurrence over its final neighbours in a solved table and returns the
// split k that wins, so traceback needs no second table and no tracking
// kernels, and works the same after any driver, kernel or block side.
// visit_splits() walks the implied binary split tree — the optimal
// parenthesization / BST shape / bifurcation structure.
#pragma once

#include <stdexcept>

#include "core/instance.hpp"

namespace cellnpdp {

namespace traceback_detail {

/// recover_split in semiring S. Same expressions, in the same association
/// order, as solve_reference_semiring; the strict S::improves compare the
/// engine relaxes with picks the earliest k on ties.
template <class S, class T, class Table>
index_t recover_split(const Table& d, const NpdpInstance<T>& inst, index_t i,
                      index_t j) {
  const bool general = inst.general_mode();
  const T init = inst.init(i, j);
  T acc = general ? S::zero() : S::plus(init, S::times(init, d.at(i, i)));
  index_t best = -1;
  for (index_t k = i + 1; k < j; ++k) {
    T cand = S::times(d.at(i, k), d.at(k, j));
    if (inst.ku != nullptr)
      cand = S::times(cand, inst.ku[i] * inst.kv[k] * inst.kw[j]);
    if (inst.kterm) cand = S::times(cand, inst.kterm(i, k, j));
    if (S::improves(cand, acc)) {
      acc = cand;
      best = k;
    }
  }
  if (general) {
    const T w = inst.weight ? inst.weight(i, j) : S::one();
    if (!S::improves(S::times(w, acc), init)) return -1;  // init survived
  }
  return best;
}

template <class S, class T, class Table, class Fn>
void visit_splits(const Table& d, const NpdpInstance<T>& inst, index_t i,
                  index_t j, Fn& fn) {
  if (i >= j) return;
  const index_t k = recover_split<S>(d, inst, i, j);
  if (k < 0) return;  // seed value survived: leaf
  fn(i, k, j);
  visit_splits<S>(d, inst, i, k, fn);
  visit_splits<S>(d, inst, k, j, fn);
}

[[noreturn]] inline void throw_counting() {
  // Counting sums every split: there is no decision to recover.
  throw std::invalid_argument("traceback requires an idempotent semiring");
}

}  // namespace traceback_detail

/// The optimal split of cell (i, j) of the solved table `d` (any layout
/// with at(i, j)): the earliest k whose candidate strictly improves on all
/// earlier ones, or -1 when the seed / init value survives. O(j - i).
/// Throws std::invalid_argument for the counting semiring.
template <class T, class Table>
index_t recover_split(const Table& d, const NpdpInstance<T>& inst, index_t i,
                      index_t j) {
  return with_semiring<T>(inst.semiring, [&](auto s) -> index_t {
    using S = decltype(s);
    if constexpr (!S::idempotent) traceback_detail::throw_counting();
    else return traceback_detail::recover_split<S>(d, inst, i, j);
  });
}

/// Calls fn(i, k, j) for every split on the optimal decision tree rooted at
/// (i, j), recursing into (i,k) and (k,j). Cells whose value came from
/// their seed are leaves. O(j - i) per visited node.
template <class T, class Table, class Fn>
void visit_splits(const Table& d, const NpdpInstance<T>& inst, index_t i,
                  index_t j, Fn&& fn) {
  with_semiring<T>(inst.semiring, [&](auto s) {
    using S = decltype(s);
    if constexpr (!S::idempotent) traceback_detail::throw_counting();
    else traceback_detail::visit_splits<S>(d, inst, i, j, fn);
  });
}

}  // namespace cellnpdp
