// Host-side task-queue executor: the PPEprocedure of Fig. 8 mapped onto
// worker threads. Workers pull ready scheduling-block tasks from a shared
// queue, run the user's task body, and release dependents.
//
// Cancellation is cooperative: when a CancelToken is attached and trips,
// the executor stops releasing ready tasks — workers finish the task they
// are on (task bodies additionally poll the token at memory-block
// granularity) and return without popping further work, so an aborted run
// frees its workers within one block's worth of compute.
//
// Observability: every run emits, when tracing is armed (obs::Tracer),
// one "task" span per scheduling block on its worker's timeline lane,
// "enqueue" instants and a "ready_depth" counter for queue dynamics; the
// global metrics registry accumulates task counts, task-duration
// histograms, and the number of tasks abandoned by cancelled runs.
// Passing an ExecutorStats out-param additionally returns wall time and
// per-worker busy time for utilization reports.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "taskgraph/dependence_graph.hpp"

namespace cellnpdp {

/// What one executor run measured. Busy time is the time spent inside
/// task bodies; idle is wall_seconds - busy (queue waits + wakeups).
struct ExecutorStats {
  double wall_seconds = 0;
  std::vector<double> worker_busy;     ///< seconds per worker
  std::vector<index_t> worker_tasks;   ///< tasks per worker
  index_t tasks = 0;

  double busy_total() const {
    double s = 0;
    for (double b : worker_busy) s += b;
    return s;
  }
};

class TaskQueueExecutor {
 public:
  using TaskFn = std::function<void(index_t si, index_t sj)>;

  /// Runs every task of `graph` on `threads` workers, honouring the
  /// simplified dependence relation. Blocks until all tasks finish — or,
  /// when `cancel` trips, until every worker has finished its current
  /// task. Returns true when the run completed, false when it was
  /// abandoned mid-graph. Fills `stats` (when non-null) with wall/busy
  /// accounting either way.
  ///
  /// Failure semantics: a task body that throws aborts the run — no
  /// further tasks are released, every worker winds down after its current
  /// task, and the first failure is rethrown (after `stats` is filled)
  /// once all workers have returned.
  static bool run(const BlockDependenceGraph& graph, std::size_t threads,
                  const TaskFn& body, ExecutorStats* stats = nullptr,
                  const CancelToken& cancel = {});

  /// Serial reference executor; additionally records completion order so
  /// tests can validate the schedule against the full dependence relation.
  /// A cancelled run returns the (shorter) prefix it completed. Same
  /// rethrow semantics as run().
  static std::vector<index_t> run_serial(const BlockDependenceGraph& graph,
                                         const TaskFn& body,
                                         ExecutorStats* stats = nullptr,
                                         const CancelToken& cancel = {});
};

}  // namespace cellnpdp
