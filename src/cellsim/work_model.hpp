// Closed-form work model of one memory-block relaxation.
//
// Mirrors BlockEngine's loop structure exactly — the counts are validated
// against EngineStats in tests — and is what the timing-only simulation
// charges, which is how n = 16384 runs complete in seconds instead of the
// hours a functional simulation would take.
#pragma once

#include "common/defs.hpp"

namespace cellnpdp {

struct BlockWork {
  /// WxW tile relaxations in tile equivalents (a stage-1 block product
  /// counts the tb^3 tiles it covers), as EngineStats::kernel_calls.
  index_t kernel_calls = 0;
  index_t scalar_relax = 0;   ///< scalar relaxations (corners + diag tiles)
  index_t cells = 0;          ///< cells finalised
  index_t dma_blocks_in = 0;  ///< memory blocks fetched into the LS
  index_t dma_blocks_out = 0; ///< memory blocks written back

  BlockWork& operator+=(const BlockWork& o) {
    kernel_calls += o.kernel_calls;
    scalar_relax += o.scalar_relax;
    cells += o.cells;
    dma_blocks_in += o.dma_blocks_in;
    dma_blocks_out += o.dma_blocks_out;
    return *this;
  }
};

/// Work of memory block (bi,bj) for block side bs and kernel width w.
inline BlockWork block_work(index_t bi, index_t bj, index_t bs, index_t w) {
  const index_t tb = bs / w;
  BlockWork work;
  work.dma_blocks_out = 1;

  if (bi == bj) {
    work.dma_blocks_in = 1;  // the block itself (seeded)
    for (index_t ct = 0; ct < tb; ++ct)
      for (index_t rt = ct; rt >= 0; --rt) {
        if (rt == ct) {
          // diagonal tile: only strictly-upper cells are finalised; each
          // cell (lr,lc) relaxes over lc-1-lr same-tile k values.
          work.cells += w * (w - 1) / 2;
          for (index_t lc = 1; lc < w; ++lc)
            work.scalar_relax += lc * (lc - 1) / 2;
          continue;
        }
        work.kernel_calls += ct - rt - 1;       // middle tiles
        work.scalar_relax += w * w * (w - 1);   // corner pass
        work.cells += w * w;
      }
    return work;
  }
  work.cells = bs * bs;

  const index_t mid = bj - bi - 1;
  work.dma_blocks_in = 2 * mid + 3;  // A,B per middle block + D1 + D2 + C
  work.kernel_calls += mid * tb * tb * tb;          // stage 1
  work.kernel_calls += tb * tb * (tb - 1);          // stage 2 (a) + (b)
  work.scalar_relax += tb * tb * w * w * (w - 1);   // corner passes
  return work;
}

/// Aggregate work over the whole n-cell problem.
inline BlockWork total_work(index_t n, index_t bs, index_t w) {
  const index_t m = ceil_div(n, bs);
  BlockWork total;
  for (index_t bj = 0; bj < m; ++bj)
    for (index_t bi = bj; bi >= 0; --bi) total += block_work(bi, bj, bs, w);
  return total;
}

}  // namespace cellnpdp
