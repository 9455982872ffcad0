// The solve service façade: admission queue -> batcher -> solver pool ->
// result cache, with one dispatcher thread in the middle and per-stage
// metrics exported through the process-wide obs registry.
//
// Request lifecycle (docs/serving.md):
//
//   submit()            admission: full queue handled per OverloadPolicy
//   dispatcher          pops in (priority, FIFO) order; expired entries
//                       are shed; cache probe; shape-batches small work
//   worker              executes the batch, one arena checkout per batch
//   cache fill          successful solves keyed by content hash
//   respond             the future returned by submit() becomes ready
//
// Every submitted request gets exactly one Response, whatever its fate.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "resilience/policy.hpp"
#include "serve/batcher.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/response.hpp"
#include "serve/result_cache.hpp"
#include "serve/solver_pool.hpp"
#include "serve/tenant.hpp"

namespace cellnpdp::serve {

struct ServiceOptions {
  std::size_t workers = 4;
  std::size_t queue_capacity = 256;
  OverloadPolicy policy = OverloadPolicy::Block;
  std::size_t cache_capacity = 1024;  ///< entries; 0 disables the cache
  std::size_t batch_max = 8;          ///< requests fused into one dispatch
  index_t batch_max_size = 512;       ///< batch only instances this small
  std::string backend = "blocked-serial";  ///< default solve backend; a
                                           ///< request's own backend= wins
  /// Self-healing behaviour: per-backend circuit breaking and a fallback
  /// backend. Defaults entirely inert.
  resilience::ResiliencePolicy resilience;
  /// Per-tenant QoS: token-bucket admission rates, fair-share weights,
  /// cache byte quotas. Defaults empty — every request lands on the
  /// default tenant with no throttle, and the service behaves exactly
  /// like the pre-tenant one.
  TenantTable tenants;
};

/// Point-in-time per-tenant counters (one row per tenant with activity).
struct TenantStats {
  std::uint16_t id = 0;
  std::string name;
  std::uint64_t submitted = 0;
  std::uint64_t throttled = 0;  ///< refused by the token bucket
  std::uint64_t completed = 0;  ///< Status::Ok
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t expired = 0;
  std::size_t queue_depth = 0;

  double cache_hit_rate() const {
    const std::uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0 : double(cache_hits) / double(total);
  }
};

/// Point-in-time counters; every terminal response is counted exactly once
/// under completed/cache_hits/rejected/shed/expired/cancelled/errors.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;   ///< Status::Ok
  std::uint64_t cache_hits = 0;  ///< Status::OkCached
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t errors = 0;
  /// Refused by a tenant token bucket (Status::RetryAfter with a refill
  /// hint); counted under retry_after in responded(), tracked separately
  /// so overload dashboards can tell quota pushback from breaker trips.
  std::uint64_t throttled = 0;
  std::uint64_t degraded = 0;     ///< Status::Degraded (fallback backend)
  std::uint64_t retry_after = 0;  ///< Status::RetryAfter (breaker open)
  std::uint64_t fallbacks = 0;    ///< solves answered by the fallback rung
  std::uint64_t batches = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t arena_reuses = 0;
  std::uint64_t arena_allocations = 0;
  std::size_t queue_depth = 0;
  /// One row per tenant that has seen traffic (or is configured).
  std::vector<TenantStats> tenants;

  std::uint64_t responded() const {
    return completed + cache_hits + rejected + shed + expired + cancelled +
           errors + degraded + retry_after;
  }
};

class SolveService {
 public:
  explicit SolveService(ServiceOptions opts = {});
  ~SolveService();  // stop(true)

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Submits a request; the returned future always becomes ready. Under
  /// the Block policy this call blocks while the queue is full.
  std::future<Response> submit(Request req);

  /// Callback form for network front-ends: `on_done` is invoked exactly
  /// once with the terminal response, from whichever thread delivers it —
  /// the dispatcher, a worker, or the submitting
  /// thread itself when admission refuses the request synchronously. The
  /// callback must be fast and must not block (it runs on serving hot
  /// paths) and must tolerate firing after the caller has lost interest:
  /// a submit racing stop() still gets its callback (with a Rejected or
  /// Cancelled response), never silence.
  void submit(Request req, std::function<void(Response)> on_done);

  /// Stops the service. drain = true completes every admitted request
  /// before returning; drain = false answers queued (not yet dispatched)
  /// requests with Status::Cancelled and trips the cancel token of every
  /// in-flight solve, so workers abort cooperatively at their next
  /// memory-block poll instead of running to completion. Either way no
  /// pool job outlives the call: stop() waits for the pool to go idle
  /// before returning. Idempotent; submit() after stop() rejects.
  void stop(bool drain = true);

  ServiceStats stats() const;
  const ServiceOptions& options() const { return opts_; }

 private:
  struct Pending {
    Request req;
    std::uint64_t hash = 0;
    std::promise<Response> promise;
    /// When set, respond() delivers through this instead of the promise.
    std::function<void(Response)> callback;
    Clock::time_point enqueued{};
    /// Armed for every request (one relaxed load per block to poll), with
    /// the deadline wired in when the request carries one, so both deadline
    /// expiry and stop(drain=false) abort the solve mid-flight.
    CancelToken cancel;
    /// Exactly-once guard: whoever flips this owns the response (a
    /// worker or a shutdown path).
    std::atomic<bool> responded{false};
    /// Steady-clock ns when a worker picked the request up (0 = not yet);
    /// pickup - dispatch is the batch span of the request's trace.
    std::atomic<std::int64_t> started_ns{0};
    /// Steady-clock ns when the dispatcher popped the request (0 = still
    /// queued); pickup - dispatch is the time spent waiting in a batch.
    std::atomic<std::int64_t> dispatch_ns{0};
  };
  using Item = std::shared_ptr<Pending>;

  struct CachedResult {
    double value = 0;
    std::string detail;
    std::string backend;  ///< who computed the entry (reported on hits)
  };

  void dispatcher_loop();
  void dispatch(Batch<Item> batch);
  void run_batch(const Batch<Item>& batch);
  std::size_t max_inflight() const;
  /// Builds the Pending record shared by both submit() forms.
  Item make_item(Request req);
  /// Admission: the common tail of submit() once the item exists —
  /// tenant token bucket first, then the bounded queue. The failure-mode
  /// ladder's first rung (docs/serving.md).
  void admit(const Item& p);
  /// Metric label for a tenant ("default", a configured name, "t<id>").
  const std::string& tenant_label(std::uint16_t tenant);
  /// The tenant's token bucket, or nullptr when unthrottled. The bucket
  /// map is built in the constructor and never mutated after, so lookups
  /// are lock-free.
  TokenBucket* bucket_for(std::uint16_t tenant);
  /// Delivers the response unless one was already delivered; returns
  /// whether it did (later calls are silent no-ops). `backend` is the
  /// effective engine name reported back to the caller.
  bool respond(const Item& it, Status st, double value = 0,
               std::string detail = {}, std::int64_t queue_ns = 0,
               std::int64_t solve_ns = 0, std::int64_t retry_after_ms = 0,
               std::string backend = {});

  // --- resilience ladder (see docs/resilience.md) ---
  /// Executes one dispatched request through breaker -> one attempt ->
  /// fallback -> shed; responds whatever happens.
  void solve_one(const Item& it, Clock::time_point picked_up,
                 std::int64_t queue_ns);
  /// Degradation rung: re-runs a SolveSpec on the fallback backend and
  /// answers Degraded. False when there is nothing to fall back to or the
  /// fallback failed too.
  bool try_fallback(const Item& it, Clock::time_point picked_up,
                    std::int64_t queue_ns);
  /// Breaker key for a request: resolved backend name for solves, the
  /// fixed engine name for folds/parses.
  std::string breaker_key(const Request& req) const;

  const ServiceOptions opts_;
  AdmissionQueue<Item> queue_;
  Batcher<Item> batcher_;  ///< dispatcher thread only
  ResultCache<CachedResult> cache_;

  std::mutex stop_mu_;
  std::atomic<bool> stopped_{false};
  std::atomic<bool> cancel_queued_{false};

  // Dispatched-but-unanswered request count. The dispatcher stalls when it
  // reaches max_inflight(), so worker backlog propagates into the bounded
  // admission queue and the overload policy actually engages — without
  // this, the thread pool's unbounded job deque would absorb any burst and
  // admission control could never say no.
  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
  std::size_t inflight_ = 0;
  /// Tokens of dispatched-but-unanswered requests, so stop(drain=false)
  /// can abort them mid-solve. Pruned as their batches respond.
  std::vector<std::weak_ptr<Pending>> inflight_reqs_;

  // Terminal-status counters (see ServiceStats).
  std::atomic<std::uint64_t> submitted_{0}, completed_{0}, cache_hits_{0},
      rejected_{0}, shed_{0}, expired_{0}, cancelled_{0}, errors_{0},
      degraded_{0}, retry_after_{0}, throttled_{0}, fallbacks_{0},
      batches_{0};

  /// Dense per-tenant counters, indexed by tenant id (ids are < 256 by
  /// construction: the wire decoder, the line parser, and admit() all
  /// enforce kMaxTenants). Atomics, no lock on any hot path.
  struct TenantCounters {
    std::atomic<std::uint64_t> submitted{0}, throttled{0}, completed{0},
        cache_hits{0}, cache_misses{0}, shed{0}, rejected{0}, expired{0};
  };
  std::unique_ptr<TenantCounters[]> tenant_counters_{
      new TenantCounters[kMaxTenants]};
  /// Memoized metric labels (built on first use per id, under a mutex —
  /// the label string itself is then stable and read lock-free is NOT
  /// assumed; callers re-enter tenant_label which takes the mutex only
  /// on the miss path via double-checked storage).
  std::mutex label_mu_;
  std::array<std::string, kMaxTenants> tenant_labels_;
  std::array<std::atomic<bool>, kMaxTenants> label_ready_{};
  /// Token buckets for tenants with a configured rate; immutable after
  /// the constructor.
  std::map<std::uint16_t, TokenBucket> buckets_;

  /// Declared after everything its jobs touch (cache_, the
  /// counters, the inflight bookkeeping): members are destroyed in
  /// reverse declaration order, so the pool — whose ThreadPool joins its
  /// workers on destruction — goes down first, and any straggling job
  /// finishes while those members are still alive.
  SolverPool pool_;

  std::thread dispatcher_;  ///< started last, so members above are ready
};

}  // namespace cellnpdp::serve
