// Max-plus NPDP: d[i][j] = max(d[i][j], d[i][k] + d[k][j]).
//
// Some NPDP instances maximise (longest chains, maximum-score
// parenthesizations). The engine solves them natively: set
// inst.semiring = SemiringId::MaxPlus and call any solve entry point.
// This header keeps the direct max-plus golden model, written without the
// semiring machinery so it checks that machinery independently.
#pragma once

#include <algorithm>

#include "core/reference.hpp"

namespace cellnpdp {

/// Golden model for the max-plus semantics (init/weight interpreted under
/// max, separable k-term included), used by tests to validate the engine.
template <class T>
TriangularMatrix<T> solve_reference_maxplus(const NpdpInstance<T>& inst) {
  const index_t n = inst.n;
  TriangularMatrix<T> d(n);
  for (index_t i = 0; i < n; ++i) d.at(i, i) = inst.init(i, i);
  const bool general = inst.general_mode();
  for (index_t span = 1; span < n; ++span)
    for (index_t i = 0; i + span < n; ++i) {
      const index_t j = i + span;
      const T init = inst.init(i, j);
      T acc = maxplus_identity<T>();
      for (index_t k = i + 1; k < j; ++k) {
        T cand = d.at(i, k) + d.at(k, j);
        if (inst.ku != nullptr) cand += inst.ku[i] * inst.kv[k] * inst.kw[j];
        acc = std::max(acc, cand);
      }
      if (general) {
        const T w = inst.weight ? inst.weight(i, j) : T(0);
        d.at(i, j) = std::max(init, w + acc);
      } else {
        T seed = std::max(init, init + d.at(i, i));
        d.at(i, j) = std::max(seed, acc);
      }
    }
  return d;
}

}  // namespace cellnpdp
