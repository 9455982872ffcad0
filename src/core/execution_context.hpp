// ExecutionContext: the one bundle of cross-cutting solve state threaded
// through every solve path — cancellation token + deadline, the stats sink
// for observability, engine tuning parameters, an optional reusable arena,
// and an optional shared thread pool. Before this existed each entry point
// (serial, task-queue, wavefront, baselines, serve) plumbed its own ad-hoc
// subset; the SolverBackend registry (src/backend) passes exactly one of
// these to whichever engine the caller resolved by name.
#pragma once

#include <chrono>
#include <vector>

#include "common/cancel.hpp"
#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "core/instance.hpp"
#include "layout/blocked.hpp"

namespace cellnpdp {

/// How a solve ended. Cancellation is cooperative: Cancelled means the
/// solver observed the token and stopped at a memory-block boundary, so
/// the worker is free but the matrix holds a partial (never torn) result.
enum class SolveStatus { Ok, Cancelled };

constexpr const char* solve_status_name(SolveStatus s) {
  return s == SolveStatus::Ok ? "ok" : "cancelled";
}

/// Telemetry of one solve: wall time, per-worker busy time (from the
/// executor or pool) and the merged engine work counters. Attach to an
/// ExecutionContext (or pass to a legacy entry point) to enable
/// collection; all fields cost a couple of clock reads per scheduling
/// block, nothing on the kernel path beyond the counters.
struct SolveStats {
  double wall_seconds = 0;
  std::vector<double> worker_busy;    ///< seconds inside task bodies
  std::vector<index_t> worker_tasks;  ///< tasks per worker (task-queue only)
  index_t tasks = 0;
  EngineStats engine;                 ///< merged across workers

  double busy_total() const {
    double s = 0;
    for (double b : worker_busy) s += b;
    return s;
  }
  /// Mean worker occupancy in [0,1].
  double utilization() const {
    if (wall_seconds <= 0 || worker_busy.empty()) return 0;
    return busy_total() / (wall_seconds * double(worker_busy.size()));
  }
};

struct ExecutionContext {
  /// Cooperative cancellation + deadline. Default-constructed (inert)
  /// token: the solve can never be cancelled and polls cost nothing.
  CancelToken cancel;

  /// Engine tuning: block/scheduling-block sides, kernel, thread count.
  NpdpOptions tuning;

  /// Observability sink; null disables collection.
  SolveStats* stats = nullptr;

  /// Optional caller-owned workspace. A backend that solves into a
  /// blocked table uses this (after reset() by the caller) instead of
  /// allocating, so a serving layer can reuse one arena across requests
  /// of the same shape. Must match the instance/tuning geometry when set.
  BlockedTriangularMatrix<float>* arena = nullptr;

  /// Optional shared worker pool for pool-based schedules (wavefront,
  /// Tan). Null: the solver creates a pool of tuning.threads workers.
  ThreadPool* pool = nullptr;

  bool cancelled() const { return cancel.cancelled(); }
  /// The per-memory-block check (see CancelToken::poll).
  bool poll() const { return cancel.poll(); }

  /// Context with an armed token tripping after `d` from now.
  template <class Rep, class Period>
  static ExecutionContext with_deadline(std::chrono::duration<Rep, Period> d) {
    ExecutionContext ctx;
    ctx.cancel = CancelToken::after(d);
    return ctx;
  }
};

}  // namespace cellnpdp
