// Self-checking serial blocked solve: the recovery half of the tentpole.
// Walks memory blocks in the canonical column-ascending / row-descending
// order, but wraps every block in (a) a retry loop — a thrown fault
// re-seeds just that block and re-runs it with capped backoff — and (b) a
// checksum round-trip that detects torn/corrupted block memory and repairs
// it by re-seeding and recomputing the block.
//
// Correctness of block-granular re-execution: a memory block's inputs are
// blocks strictly earlier in the walk (already relaxed, never written
// again) plus its own seeded cells. finalize_cell is NOT idempotent in
// general mode (it folds min(init, w + acc) over whatever the cell holds),
// so recovery always re-seeds before recomputing — after which the re-run
// reads exactly what the first run read and lands bit-identical.
#pragma once

#include <thread>

#include "common/fault_hook.hpp"
#include "common/retry.hpp"
#include "common/stopwatch.hpp"
#include "core/engine.hpp"
#include "core/execution_context.hpp"
#include "core/instance.hpp"
#include "layout/blocked.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resilience/checksum.hpp"

namespace cellnpdp::resilience {

struct BlockRecoveryPolicy {
  /// Retry budget per block; defaults on, because being self-healing is
  /// this solver's purpose.
  RetryPolicy retry{/*max_attempts=*/4};
  /// Checksum every block after relaxation and repair mismatches.
  bool checksums = true;
};

/// What recovery actually did during one solve.
struct ResilienceReport {
  index_t blocks = 0;         ///< blocks relaxed (first attempts)
  index_t block_retries = 0;  ///< re-runs after a thrown fault
  index_t block_repairs = 0;  ///< re-runs after a checksum mismatch
};

/// Test/bench hook: fires the BlockCorrupt site and, when it fires,
/// scribbles deterministic garbage over the first half of the block —
/// modelling a torn DMA. The garbage is negative, below any reachable
/// cell value, so it cannot be silently absorbed by further min()s; only
/// detection + re-seeding fixes it, which is exactly what we must prove.
template <class T>
inline bool maybe_inject_block_corruption(BlockedTriangularMatrix<T>& mat,
                                          index_t bi, index_t bj) {
  FaultHook* hook = fault_hook();
  if (hook == nullptr || !hook->fire(FaultSite::BlockCorrupt, bi, bj))
    return false;
  T* b = mat.block(bi, bj);
  const index_t half = mat.cells_per_block() / 2;
  for (index_t c = 0; c < half; ++c)
    b[c] = static_cast<T>(-1e6) - static_cast<T>(c % 97);
  return true;
}

/// Serial blocked solve with per-block retry and checksum repair into a
/// caller-owned (freshly reset) matrix. Drop-in replacement for
/// solve_blocked_serial_into; `report` is optional.
template <class T>
SolveStatus solve_blocked_serial_resilient_into(
    BlockedTriangularMatrix<T>& mat, const NpdpInstance<T>& inst,
    const ExecutionContext& ctx, const BlockRecoveryPolicy& pol = {},
    ResilienceReport* report = nullptr) {
  CELLNPDP_TRACE_SPAN("solve", "solve_blocked_resilient");
  static obs::Counter& retries_ctr =
      obs::metrics().counter("resilience.block_retries");
  static obs::Counter& repairs_ctr =
      obs::metrics().counter("resilience.block_repairs");

  SolveStats* ss = ctx.stats;
  BlockEngine<T> engine(mat, inst, ctx.tuning);
  engine.seed();
  const index_t m = engine.blocks_per_side();
  BlockChecksums<T> sums(mat);
  Stopwatch sw;
  EngineStats* st = ss != nullptr ? &ss->engine : nullptr;
  ResilienceReport rep;
  SolveStatus status = SolveStatus::Ok;

  for (index_t bj = 0; bj < m && status == SolveStatus::Ok; ++bj) {
    for (index_t bi = bj; bi >= 0; --bi) {
      if (ctx.poll()) {
        status = SolveStatus::Cancelled;
        break;
      }
      const int max_attempts =
          pol.retry.enabled() ? pol.retry.max_attempts : 1;
      if (fault_hook() == nullptr) {
        // Hot path: identical to the plain serial solve — no try region
        // around the kernel, so the compiler sees the same loop it
        // optimises there. compute_block itself does not throw; the retry
        // scaffolding exists for the harness (and for genuinely transient
        // failures, which only occur with a hook or real faulty hardware).
        engine.compute_block(bi, bj, st);
      } else {
      for (int attempt = 1;; ++attempt) {
        try {
          maybe_inject_task_fault(bi, bj);
          engine.compute_block(bi, bj, st);
          break;
        } catch (...) {
          if (attempt >= max_attempts || ctx.cancelled()) throw;
          ++rep.block_retries;
          retries_ctr.add();
          CELLNPDP_TRACE_INSTANT("resilience", "block_retry", bi, bj);
          const auto delay = pol.retry.backoff(
              attempt + 1, (static_cast<std::uint64_t>(bi) << 32) ^
                               static_cast<std::uint64_t>(bj));
          if (delay.count() > 0) std::this_thread::sleep_for(delay);
          engine.seed_block(bi, bj);
        }
      }
      }
      ++rep.blocks;
      if (pol.checksums) {
        sums.record(bi, bj);
        maybe_inject_block_corruption(mat, bi, bj);
        if (!sums.verify(bi, bj)) {
          ++rep.block_repairs;
          repairs_ctr.add();
          CELLNPDP_TRACE_INSTANT("resilience", "block_repair", bi, bj);
          engine.seed_block(bi, bj);
          engine.compute_block(bi, bj, st);
          sums.record(bi, bj);
        }
      }
    }
  }

  if (ss != nullptr) {
    ss->wall_seconds = sw.seconds();
    ss->worker_busy = {ss->wall_seconds};
    ss->tasks = rep.blocks;
    ss->worker_tasks = {rep.blocks};
  }
  if (report != nullptr) *report = rep;
  return status;
}

}  // namespace cellnpdp::resilience
