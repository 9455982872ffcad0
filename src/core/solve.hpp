// Top-level solvers: the public entry points of the library.
//
// Every solver comes in two forms: an ExecutionContext form — the unified
// entry point carrying cancellation/deadline, tuning, the stats sink, and
// optional arena/pool, returning a SolveStatus — and a legacy
// (opts, stats) form kept source-compatible for callers that never cancel.
// Cancellation is polled at memory-block granularity (one relaxed atomic
// load per block, nothing on the kernel path): a cancelled solve returns
// SolveStatus::Cancelled with a partial but never torn matrix — every
// block is either fully relaxed or untouched since seeding.
#pragma once

#include <algorithm>
#include <vector>

#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "core/execution_context.hpp"
#include "core/instance.hpp"
#include "layout/blocked.hpp"
#include "obs/trace.hpp"
#include "taskgraph/dependence_graph.hpp"
#include "taskgraph/executor.hpp"

namespace cellnpdp {

namespace detail {

/// The serial driver, compiled once per (T, S) pair.
template <class S, class T>
SolveStatus solve_blocked_serial_into_s(BlockedTriangularMatrix<T>& mat,
                                        const NpdpInstance<T>& inst,
                                        const ExecutionContext& ctx) {
  SolveStats* ss = ctx.stats;
  BlockEngine<T, S> engine(mat, inst, ctx.tuning);
  engine.seed();
  const index_t m = engine.blocks_per_side();
  Stopwatch sw;
  EngineStats* st = ss != nullptr ? &ss->engine : nullptr;
  SolveStatus status = SolveStatus::Ok;
  index_t done = 0;
  for (index_t bj = 0; bj < m && status == SolveStatus::Ok; ++bj) {
    for (index_t bi = bj; bi >= 0; --bi) {
      if (ctx.poll()) {
        status = SolveStatus::Cancelled;
        break;
      }
      engine.compute_block(bi, bj, st);
      ++done;
    }
  }
  if (ss != nullptr) {
    ss->wall_seconds = sw.seconds();
    ss->worker_busy = {ss->wall_seconds};
    ss->tasks = done;
    ss->worker_tasks = {done};
  }
  return status;
}

}  // namespace detail

/// Serial blocked solve into a caller-owned matrix, which must already
/// match the instance/context geometry and hold the semiring zero in
/// every cell (freshly constructed or reset() with the right pad). Lets a
/// serving layer reuse one arena allocation across many requests of the
/// same shape. Dispatches on inst.semiring; each instantiation runs the
/// same driver with the S-specialised engine.
template <class T>
SolveStatus solve_blocked_serial_into(BlockedTriangularMatrix<T>& mat,
                                      const NpdpInstance<T>& inst,
                                      const ExecutionContext& ctx) {
  CELLNPDP_TRACE_SPAN("solve", "solve_blocked_serial");
  return with_semiring<T>(inst.semiring, [&](auto s) {
    return detail::solve_blocked_serial_into_s<decltype(s)>(mat, inst, ctx);
  });
}

/// Legacy form (no cancellation).
template <class T>
void solve_blocked_serial_into(BlockedTriangularMatrix<T>& mat,
                               const NpdpInstance<T>& inst,
                               const NpdpOptions& opts,
                               SolveStats* ss = nullptr) {
  ExecutionContext ctx;
  ctx.tuning = opts;
  ctx.stats = ss;
  solve_blocked_serial_into(mat, inst, ctx);
}

/// Serial blocked solver: the Fig. 4(b) flowchart — memory blocks walked
/// column-ascending, row-descending.
template <class T>
BlockedTriangularMatrix<T> solve_blocked_serial(const NpdpInstance<T>& inst,
                                                const NpdpOptions& opts,
                                                SolveStats* ss = nullptr) {
  BlockedTriangularMatrix<T> mat(inst.n, opts.block_side,
                                 semiring_zero<T>(inst.semiring));
  solve_blocked_serial_into(mat, inst, opts, ss);
  return mat;
}

namespace detail {

/// The task-queue parallel driver, compiled once per (T, S) pair.
template <class S, class T>
SolveStatus solve_blocked_parallel_into_s(BlockedTriangularMatrix<T>& mat,
                                          const NpdpInstance<T>& inst,
                                          const ExecutionContext& ctx) {
  const NpdpOptions& opts = ctx.tuning;
  SolveStats* ss = ctx.stats;
  BlockEngine<T, S> engine(mat, inst, opts);
  engine.seed();

  const index_t m = engine.blocks_per_side();
  const index_t ss_side = std::max<index_t>(1, opts.sched_side);
  const index_t ms = ceil_div(m, ss_side);
  BlockDependenceGraph graph(ms);

  EngineStatsSink sink;
  const bool want_stats = ss != nullptr;

  // One task = one scheduling block; its memory blocks are walked in the
  // same column-ascending / row-descending order (paper §IV-B). Each
  // worker counts into its own stats shard (merged below).
  auto body = [&](index_t si, index_t sj) {
    EngineStats* st = want_stats ? &sink.local() : nullptr;
    const index_t col_lo = sj * ss_side,
                  col_hi = std::min(m, (sj + 1) * ss_side);
    const index_t row_lo = si * ss_side,
                  row_hi = std::min(m, (si + 1) * ss_side);
    for (index_t bj = col_lo; bj < col_hi; ++bj)
      for (index_t bi = std::min(bj, row_hi - 1); bi >= row_lo; --bi) {
        if (ctx.poll()) return;  // dependents are never released
        engine.compute_block(bi, bj, st);
      }
  };

  ExecutorStats es;
  ExecutorStats* esp = want_stats ? &es : nullptr;
  bool completed;
  if (opts.threads <= 1) {
    const auto order =
        TaskQueueExecutor::run_serial(graph, body, esp, ctx.cancel);
    completed = static_cast<index_t>(order.size()) == graph.task_count() &&
                !ctx.cancelled();
  } else {
    completed = TaskQueueExecutor::run(graph, opts.threads, body, esp,
                                       ctx.cancel) &&
                !ctx.cancelled();
  }
  if (want_stats) {
    ss->wall_seconds = es.wall_seconds;
    ss->worker_busy = std::move(es.worker_busy);
    ss->worker_tasks = std::move(es.worker_tasks);
    ss->tasks = es.tasks;
    ss->engine = sink.merged();
  }
  return completed ? SolveStatus::Ok : SolveStatus::Cancelled;
}

}  // namespace detail

/// Parallel blocked solve into a caller-owned (freshly reset) matrix:
/// tier 2 of CellNPDP — scheduling blocks of sched_side x sched_side
/// memory blocks dispatched through the simplified dependence graph onto
/// tuning.threads workers. Each task body polls the cancel token per
/// memory block; the executor stops releasing tasks once it trips.
template <class T>
SolveStatus solve_blocked_parallel_into(BlockedTriangularMatrix<T>& mat,
                                        const NpdpInstance<T>& inst,
                                        const ExecutionContext& ctx) {
  CELLNPDP_TRACE_SPAN("solve", "solve_blocked_parallel");
  return with_semiring<T>(inst.semiring, [&](auto s) {
    return detail::solve_blocked_parallel_into_s<decltype(s)>(mat, inst,
                                                              ctx);
  });
}

/// Parallel blocked solver (allocating form, legacy signature).
template <class T>
BlockedTriangularMatrix<T> solve_blocked_parallel(const NpdpInstance<T>& inst,
                                                  const NpdpOptions& opts,
                                                  SolveStats* ss = nullptr) {
  BlockedTriangularMatrix<T> mat(inst.n, opts.block_side,
                                 semiring_zero<T>(inst.semiring));
  ExecutionContext ctx;
  ctx.tuning = opts;
  ctx.stats = ss;
  solve_blocked_parallel_into(mat, inst, ctx);
  return mat;
}

namespace detail {

/// The wavefront driver, compiled once per (T, S) pair.
template <class S, class T>
SolveStatus solve_blocked_wavefront_into_s(BlockedTriangularMatrix<T>& mat,
                                           const NpdpInstance<T>& inst,
                                           const ExecutionContext& ctx) {
  const NpdpOptions& opts = ctx.tuning;
  SolveStats* ss = ctx.stats;
  BlockEngine<T, S> engine(mat, inst, opts);
  engine.seed();
  const index_t m = engine.blocks_per_side();
  std::unique_ptr<ThreadPool> owned;
  ThreadPool* pool = ctx.pool;
  if (pool == nullptr) {
    owned = std::make_unique<ThreadPool>(opts.threads);
    pool = owned.get();
  }
  EngineStatsSink sink;
  const bool want_stats = ss != nullptr;
  Stopwatch sw;
  SolveStatus status = SolveStatus::Ok;
  for (index_t d = 0; d < m && status == SolveStatus::Ok; ++d) {
    pool->parallel_for(0, static_cast<std::size_t>(m - d),
                       [&](std::size_t bi) {
                         if (ctx.poll()) return;
                         EngineStats* st =
                             want_stats ? &sink.local() : nullptr;
                         engine.compute_block(static_cast<index_t>(bi),
                                              static_cast<index_t>(bi) + d,
                                              st);
                       });
    if (ctx.cancel.poll_deadline_now()) status = SolveStatus::Cancelled;
  }
  if (want_stats) {
    ss->wall_seconds = sw.seconds();
    ss->worker_busy = pool->busy_seconds();
    ss->tasks = triangle_cells(m);
    ss->engine = sink.merged();
  }
  return status;
}

}  // namespace detail

/// Alternative tier-2 schedule: block anti-diagonals processed step by
/// step with a barrier between steps (the structure of the prior works the
/// paper improves on, §II-B). Blocks within one wavefront are mutually
/// independent; the barrier is the cost this schedule pays. Uses (and
/// never destroys) ctx.pool when provided; cancellation is observed
/// between blocks and between wavefront steps.
template <class T>
SolveStatus solve_blocked_wavefront_into(BlockedTriangularMatrix<T>& mat,
                                         const NpdpInstance<T>& inst,
                                         const ExecutionContext& ctx) {
  CELLNPDP_TRACE_SPAN("solve", "solve_blocked_wavefront");
  return with_semiring<T>(inst.semiring, [&](auto s) {
    return detail::solve_blocked_wavefront_into_s<decltype(s)>(mat, inst,
                                                               ctx);
  });
}

template <class T>
BlockedTriangularMatrix<T> solve_blocked_wavefront(
    const NpdpInstance<T>& inst, const NpdpOptions& opts,
    SolveStats* ss = nullptr) {
  BlockedTriangularMatrix<T> mat(inst.n, opts.block_side,
                                 semiring_zero<T>(inst.semiring));
  ExecutionContext ctx;
  ctx.tuning = opts;
  ctx.stats = ss;
  solve_blocked_wavefront_into(mat, inst, ctx);
  return mat;
}

/// Convenience dispatcher over the context's thread count.
template <class T>
SolveStatus solve_blocked_into(BlockedTriangularMatrix<T>& mat,
                               const NpdpInstance<T>& inst,
                               const ExecutionContext& ctx) {
  return ctx.tuning.threads <= 1
             ? solve_blocked_serial_into(mat, inst, ctx)
             : solve_blocked_parallel_into(mat, inst, ctx);
}

/// Convenience dispatcher (legacy signature).
template <class T>
BlockedTriangularMatrix<T> solve_blocked(const NpdpInstance<T>& inst,
                                         const NpdpOptions& opts,
                                         SolveStats* ss = nullptr) {
  return opts.threads <= 1 ? solve_blocked_serial(inst, opts, ss)
                           : solve_blocked_parallel(inst, opts, ss);
}

}  // namespace cellnpdp
