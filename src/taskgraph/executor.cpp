#include "taskgraph/executor.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <string>
#include <thread>

#include "common/fault_hook.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cellnpdp {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SchedMetrics {
  obs::Counter& tasks = obs::metrics().counter("sched.tasks");
  obs::Counter& enqueued = obs::metrics().counter("sched.enqueued");
  obs::Counter& abandoned = obs::metrics().counter("sched.cancelled_tasks");
  obs::Counter& failures = obs::metrics().counter("sched.task_failures");
  obs::Histogram& task_ns = obs::metrics().histogram("sched.task_ns");
  obs::Histogram& ready_depth = obs::metrics().histogram("sched.ready_depth");
  static SchedMetrics& get() {
    static SchedMetrics m;
    return m;
  }
};

}  // namespace

bool TaskQueueExecutor::run(const BlockDependenceGraph& graph,
                            std::size_t threads, const TaskFn& body,
                            ExecutorStats* stats, const CancelToken& cancel) {
  threads = std::max<std::size_t>(1, threads);
  SchedMetrics& sm = SchedMetrics::get();

  ReadyTracker tracker(graph);
  std::deque<index_t> ready;
  for (index_t id : tracker.initial_ready()) ready.push_back(id);
  sm.enqueued.add(static_cast<std::int64_t>(ready.size()));

  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::int64_t> busy_ns(threads, 0);
  std::vector<index_t> ntasks(threads, 0);
  index_t executed = 0;             // guarded by mu
  bool failed = false;              // guarded by mu
  std::exception_ptr failure;       // first task body throw
  const std::int64_t t_start = now_ns();

  auto worker = [&](std::size_t w) {
    obs::Tracer::instance().name_this_thread("worker " +
                                             std::to_string(w));
    std::unique_lock lk(mu);
    for (;;) {
      if (cancel.armed_token()) {
        // Bounded waits so an externally-tripped token (or its deadline,
        // forced here since a task is a coarse enough boundary for a clock
        // read) is observed even while the queue is empty.
        while (ready.empty() && !tracker.all_complete() && !failed &&
               !cancel.poll_deadline_now())
          cv.wait_for(lk, std::chrono::milliseconds(1));
      } else {
        cv.wait(lk, [&] {
          return !ready.empty() || tracker.all_complete() || failed;
        });
      }
      if (tracker.all_complete() || cancel.cancelled() || failed) {
        cv.notify_all();  // release any peer still in a bounded wait
        return;
      }
      const index_t id = ready.front();
      ready.pop_front();
      const auto [si, sj] = graph.coords(id);
      CELLNPDP_TRACE_COUNTER("sched", "ready_depth",
                             static_cast<std::int64_t>(ready.size()));

      lk.unlock();
      const std::int64_t t0 = now_ns();
      std::exception_ptr task_err;
      {
        CELLNPDP_TRACE_SPAN("sched", "task", si, sj);
        try {
          maybe_inject_task_fault(si, sj);
          body(si, sj);
        } catch (...) {
          sm.failures.add();
          task_err = std::current_exception();
        }
      }
      const std::int64_t dt = now_ns() - t0;
      busy_ns[w] += dt;
      lk.lock();
      if (task_err) {
        // A task failed: abort the run. The first failure wins the
        // rethrow; the task's tracker entry stays open so the graph winds
        // down as abandoned rather than complete.
        if (!failure) failure = task_err;
        failed = true;
        cv.notify_all();
        return;
      }
      ++ntasks[w];
      sm.tasks.add();
      sm.task_ns.observe(dt);
      ++executed;

      // A tripped token (or a peer's failure) stops the release of
      // dependents: the run winds down as soon as every in-flight task
      // body returns.
      if (cancel.cancelled() || failed) {
        cv.notify_all();
        return;
      }
      for (index_t next : tracker.complete(id)) {
        ready.push_back(next);
        CELLNPDP_TRACE_INSTANT("sched", "enqueue", next);
        sm.enqueued.add();
      }
      sm.ready_depth.observe(static_cast<std::int64_t>(ready.size()));
      CELLNPDP_TRACE_COUNTER("sched", "ready_depth",
                             static_cast<std::int64_t>(ready.size()));
      // Wake everyone when the run is over, otherwise wake enough workers
      // for the newly released tasks.
      if (tracker.all_complete()) {
        cv.notify_all();
      } else {
        cv.notify_one();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (auto& th : pool) th.join();

  const bool completed = executed == graph.task_count();
  if (!completed)
    sm.abandoned.add(
        static_cast<std::int64_t>(graph.task_count() - executed));
  if (stats != nullptr) {
    stats->wall_seconds = double(now_ns() - t_start) / 1e9;
    stats->worker_busy.assign(threads, 0);
    for (std::size_t t = 0; t < threads; ++t)
      stats->worker_busy[t] = double(busy_ns[t]) / 1e9;
    stats->worker_tasks = ntasks;
    stats->tasks = executed;
  }
  if (failure) std::rethrow_exception(failure);
  return completed;
}

std::vector<index_t> TaskQueueExecutor::run_serial(
    const BlockDependenceGraph& graph, const TaskFn& body,
    ExecutorStats* stats, const CancelToken& cancel) {
  SchedMetrics& sm = SchedMetrics::get();
  ReadyTracker tracker(graph);
  std::deque<index_t> ready;
  for (index_t id : tracker.initial_ready()) ready.push_back(id);

  std::vector<index_t> order;
  order.reserve(static_cast<std::size_t>(graph.task_count()));
  const std::int64_t t_start = now_ns();
  std::int64_t busy = 0;
  std::exception_ptr failure;
  while (!ready.empty()) {
    if (cancel.poll_deadline_now()) break;
    const index_t id = ready.front();
    ready.pop_front();
    const auto [si, sj] = graph.coords(id);
    const std::int64_t t0 = now_ns();
    {
      CELLNPDP_TRACE_SPAN("sched", "task", si, sj);
      try {
        maybe_inject_task_fault(si, sj);
        body(si, sj);
      } catch (...) {
        sm.failures.add();
        failure = std::current_exception();
      }
    }
    if (failure) break;
    const std::int64_t dt = now_ns() - t0;
    busy += dt;
    sm.tasks.add();
    sm.task_ns.observe(dt);
    order.push_back(id);
    for (index_t next : tracker.complete(id)) ready.push_back(next);
  }
  const index_t executed = static_cast<index_t>(order.size());
  if (executed != graph.task_count())
    sm.abandoned.add(
        static_cast<std::int64_t>(graph.task_count() - executed));
  if (stats != nullptr) {
    stats->wall_seconds = double(now_ns() - t_start) / 1e9;
    stats->worker_busy = {double(busy) / 1e9};
    stats->worker_tasks = {executed};
    stats->tasks = executed;
  }
  if (failure) std::rethrow_exception(failure);
  return order;
}

}  // namespace cellnpdp
