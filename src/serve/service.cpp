#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <tuple>
#include <utility>
#include <variant>

#include "common/fault_hook.hpp"
#include "obs/metrics.hpp"
#include "obs/request_log.hpp"
#include "obs/trace.hpp"
#include "resilience/circuit_breaker.hpp"

namespace cellnpdp::serve {

namespace {

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

/// Approximate retained bytes of a cache entry, for tenant byte quotas.
/// Exactness doesn't matter — only that hot-tenant churn is charged to
/// the hot tenant proportionally to what it stores.
template <class R>
static std::size_t cached_bytes_of(const R& r) {
  return sizeof(R) + r.detail.size() + r.backend.size();
}

SolveService::SolveService(ServiceOptions opts)
    : opts_(opts),
      queue_(opts.queue_capacity, opts.policy),
      batcher_(opts.batch_max),
      cache_(opts.cache_capacity),
      pool_(opts.workers) {
  queue_.set_expiry(
      [](const Item& it) { return it->req.expired(); },
      [this](Item&& it) {
        // Lazy in-queue expiry: distinct from Shed (overload) in both the
        // response status and the serve.expired counter; queue_ns stamps
        // how long the request sat before its deadline passed.
        obs::metrics().counter("serve.expired").add();
        respond(it, Status::Expired, 0, {},
                ns_between(it->enqueued, Clock::now()));
      });
  queue_.set_shed_handler([this](Item&& it) {
    obs::metrics().counter("serve.shed").add();
    CELLNPDP_TRACE_INSTANT("serve", "shed",
                           static_cast<std::int64_t>(it->req.id));
    respond(it, Status::Shed, 0, {},
            ns_between(it->enqueued, Clock::now()));
  });
  // Tenant QoS wiring: fair-share weights into the queue, byte quotas
  // into the cache, a token bucket per rate-limited tenant. buckets_ is
  // never mutated after this, so admit() reads it lock-free.
  for (const auto& [tid, pol] : opts_.tenants.policies) {
    queue_.set_tenant_weight(tid, pol.weight);
    if (pol.cache_bytes > 0) cache_.set_tenant_budget(tid, pol.cache_bytes);
    if (pol.rate > 0)
      buckets_.emplace(std::piecewise_construct, std::forward_as_tuple(tid),
                       std::forward_as_tuple(pol.rate, pol.burst));
  }
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

SolveService::~SolveService() { stop(true); }

SolveService::Item SolveService::make_item(Request req) {
  auto p = std::make_shared<Pending>();
  p->req = std::move(req);
  p->hash = content_hash(p->req);
  p->enqueued = Clock::now();
  // Every request gets an armed token (polled mid-solve at memory-block
  // granularity: one relaxed load per block). Deadlines are wired into it
  // so workers observe the deadline passing and abort cooperatively —
  // expiry is enforced during execution, not only while queued.
  p->cancel = p->req.has_deadline()
                  ? CancelToken::with_deadline(p->req.deadline)
                  : CancelToken::armed();
  return p;
}

TokenBucket* SolveService::bucket_for(std::uint16_t tenant) {
  const auto it = buckets_.find(tenant);
  return it == buckets_.end() ? nullptr : &it->second;
}

const std::string& SolveService::tenant_label(std::uint16_t tenant) {
  if (!label_ready_[tenant].load(std::memory_order_acquire)) {
    std::lock_guard lk(label_mu_);
    if (!label_ready_[tenant].load(std::memory_order_relaxed)) {
      tenant_labels_[tenant] = opts_.tenants.name_of(tenant);
      label_ready_[tenant].store(true, std::memory_order_release);
    }
  }
  return tenant_labels_[tenant];
}

void SolveService::admit(const Item& p) {
  ++submitted_;
  if (p->req.tenant >= kMaxTenants) {
    // Belt-and-braces: the wire decoder and line parser already enforce
    // this, but a programmatic submit must not index out of the dense
    // counter arrays.
    respond(p, Status::Rejected, 0, "tenant id out of range");
    return;
  }
  const std::uint16_t tid = p->req.tenant;
  tenant_counters_[tid].submitted.fetch_add(1, std::memory_order_relaxed);
  if (stopped_.load(std::memory_order_acquire)) {
    respond(p, Status::Rejected, 0, "service stopped");
    return;
  }
  // Rung 1 of the failure-modes ladder: the tenant's token bucket. A
  // tenant over its admission rate is pushed back *before* it can
  // occupy queue capacity — the answer is RetryAfter with a refill hint,
  // never a drop, and other tenants' queues are untouched.
  if (TokenBucket* b = bucket_for(tid); b != nullptr && !b->try_take()) {
    ++throttled_;
    ++retry_after_;  // a throttle IS a RetryAfter terminal response
    tenant_counters_[tid].throttled.fetch_add(1, std::memory_order_relaxed);
    auto& m = obs::metrics();
    m.counter("serve.throttled").add();
    m.counter("serve.tenant.throttled{tenant=" + tenant_label(tid) + "}")
        .add();
    CELLNPDP_TRACE_INSTANT("serve", "throttle",
                           static_cast<std::int64_t>(p->req.id));
    respond(p, Status::RetryAfter, 0,
            "tenant quota exceeded: " + tenant_label(tid), 0, 0,
            b->retry_after_ms());
    return;
  }
  // Fault site: admission refusing a request as if the queue were full.
  if (FaultHook* hook = fault_hook();
      hook != nullptr &&
      hook->fire(FaultSite::QueueOverload,
                 static_cast<std::int64_t>(p->req.id),
                 static_cast<std::int64_t>(queue_.depth()))) {
    respond(p, Status::Rejected, 0, "injected queue overload");
    return;
  }
  // A push can still lose the race against stop(): the network layer
  // submits from reactor threads while drain closes the queue. The queue
  // answers Closed (never asserts — see AdmissionQueue::push), which maps
  // to the same Rejected response as the stopped_ check above.
  const int prio = p->req.priority;
  const Admission verdict = queue_.push(p, prio, tid);
  auto& m = obs::metrics();
  m.gauge("serve.queue_depth").set(double(queue_.depth()));
  if (verdict != Admission::Admitted) {
    respond(p, Status::Rejected, 0,
            verdict == Admission::Closed ? "service stopped" : "queue full");
    return;
  }
  if (opts_.tenants.configured() || tid != 0) {
    m.counter("serve.tenant.admitted{tenant=" + tenant_label(tid) + "}")
        .add();
    m.gauge("serve.tenant.queue_depth{tenant=" + tenant_label(tid) + "}")
        .set(double(queue_.tenant_depth(tid)));
  }
}

std::future<Response> SolveService::submit(Request req) {
  const Item p = make_item(std::move(req));
  std::future<Response> fut = p->promise.get_future();
  admit(p);
  return fut;
}

void SolveService::submit(Request req, std::function<void(Response)> on_done) {
  const Item p = make_item(std::move(req));
  p->callback = std::move(on_done);
  admit(p);
}

void SolveService::stop(bool drain) {
  std::lock_guard lk(stop_mu_);
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  if (!drain) {
    cancel_queued_.store(true, std::memory_order_release);
    // Every in-flight solve is aborted: the armed tokens reach the workers
    // at their next per-block poll and free them within a block's worth
    // of work; run_batch answers those requests with Status::Cancelled.
    std::lock_guard ilk(inflight_mu_);
    for (const auto& w : inflight_reqs_)
      if (auto it = w.lock()) it->cancel.request_cancel(CancelReason::Shutdown);
  }
  queue_.close();
  if (dispatcher_.joinable()) dispatcher_.join();
  // The dispatcher's last act was a wait_idle(), but repeat it here so no
  // pool job can outlive stop() and touch members mid-destruction (pool_ is
  // also declared to be destroyed first; this keeps stop()'s contract
  // independent of member order).
  pool_.wait_idle();
}

void SolveService::dispatcher_loop() {
  obs::Tracer::instance().name_this_thread("serve dispatcher");
  for (;;) {
    Item it;
    const PopResult r = queue_.pop_wait_for(it, std::chrono::milliseconds(2));
    obs::metrics().gauge("serve.queue_depth").set(double(queue_.depth()));
    if (r == PopResult::Item) {
      const std::int64_t queue_ns = ns_between(it->enqueued, Clock::now());
      it->dispatch_ns.store(steady_now_ns(), std::memory_order_relaxed);
      if (cancel_queued_.load(std::memory_order_acquire)) {
        respond(it, Status::Cancelled, 0, {}, queue_ns);
        continue;
      }
      CachedResult hit;
      if (cache_.get(it->hash, &hit)) {
        respond(it, Status::OkCached, hit.value, hit.detail, queue_ns, 0, 0,
                hit.backend);
        continue;
      }
      tenant_counters_[it->req.tenant].cache_misses.fetch_add(
          1, std::memory_order_relaxed);
      const std::uint64_t key = shape_key(it->req);
      if (opts_.batch_max > 1 &&
          instance_size(it->req) <= opts_.batch_max_size) {
        Batch<Item> full = batcher_.add(key, std::move(it));
        if (!full.items.empty()) dispatch(std::move(full));
      } else {
        Batch<Item> single;
        single.key = key;
        single.items.push_back(std::move(it));
        dispatch(std::move(single));
      }
      continue;
    }
    // Queue dry (tick) or closed: flush the partial batches so no request
    // waits on traffic that may never come.
    for (Batch<Item>& b : batcher_.drain()) {
      if (cancel_queued_.load(std::memory_order_acquire)) {
        for (const Item& queued : b.items)
          respond(queued, Status::Cancelled, 0, {},
                  ns_between(queued->enqueued, Clock::now()));
      } else {
        dispatch(std::move(b));
      }
    }
    if (r == PopResult::Closed) break;
  }
  // In-flight batches always run to completion, drain or not.
  pool_.wait_idle();
}

std::size_t SolveService::max_inflight() const {
  // Two full waves of work per worker keeps everyone busy while still
  // letting backlog reach the admission queue quickly.
  const std::size_t wave = opts_.workers * std::max<std::size_t>(opts_.batch_max, 1);
  return std::max<std::size_t>(wave * 2, 2);
}

void SolveService::dispatch(Batch<Item> batch) {
  {
    std::unique_lock lk(inflight_mu_);
    inflight_cv_.wait(lk, [this] { return inflight_ < max_inflight(); });
    inflight_ += batch.items.size();
    for (const Item& it : batch.items) inflight_reqs_.push_back(it);
  }
  ++batches_;
  obs::metrics().counter("serve.batches").add();
  obs::metrics()
      .histogram("serve.batch_size")
      .observe(static_cast<std::int64_t>(batch.items.size()));
  auto shared = std::make_shared<Batch<Item>>(std::move(batch));
  pool_.submit([this, shared] { run_batch(*shared); });
}

void SolveService::run_batch(const Batch<Item>& batch) {
  CELLNPDP_TRACE_SPAN("serve", "batch");
  for (const Item& it : batch.items) {
    const Clock::time_point picked_up = Clock::now();
    const std::int64_t queue_ns = ns_between(it->enqueued, picked_up);
    // A deadline can pass between dispatch and pick-up; shed here too.
    if (it->req.expired(picked_up)) {
      obs::metrics().counter("serve.expired").add();
      respond(it, Status::Expired, 0, {}, queue_ns);
    } else {
      it->started_ns.store(steady_now_ns(), std::memory_order_release);
      solve_one(it, picked_up, queue_ns);
    }
    {
      std::lock_guard lk(inflight_mu_);
      --inflight_;
      for (auto wi = inflight_reqs_.begin(); wi != inflight_reqs_.end();) {
        const auto sp = wi->lock();
        if (sp == nullptr || sp == it)
          wi = inflight_reqs_.erase(wi);
        else
          ++wi;
      }
    }
    inflight_cv_.notify_one();
  }
}

std::string SolveService::breaker_key(const Request& req) const {
  if (const auto* s = std::get_if<SolveSpec>(&req.payload))
    return !s->backend.empty() ? s->backend : opts_.backend;
  if (std::holds_alternative<FoldSpec>(req.payload)) return "zuker";
  if (std::holds_alternative<ChainSpec>(req.payload)) return "chain";
  if (std::holds_alternative<BstSpec>(req.payload)) return "bst";
  return "cyk";
}

void SolveService::solve_one(const Item& it, Clock::time_point picked_up,
                             std::int64_t queue_ns) {
  const resilience::ResiliencePolicy& rp = opts_.resilience;
  resilience::CircuitBreaker* br =
      rp.breaker_enabled
          ? &resilience::breakers().breaker(breaker_key(it->req), rp.breaker)
          : nullptr;

  if (br != nullptr && !br->allow()) {
    // The breaker says the backend is sick right now: skip the primary
    // and go straight to the fallback rung, else shed with RetryAfter.
    if (!try_fallback(it, picked_up, queue_ns)) {
      const std::int64_t hint = std::max<std::int64_t>(
          br->retry_after_ms(), rp.retry_after.count());
      if (respond(it, Status::RetryAfter, 0,
                  "circuit open: " + breaker_key(it->req), queue_ns, 0, hint))
        ++retry_after_;
    }
    return;
  }

  // One attempt on the primary backend: solves are deterministic, so
  // running a failed one again would only repeat it. A failure feeds the
  // breaker; cancellation feeds nothing (the backend did nothing wrong)
  // but does hand back a half-open probe slot, or the breaker could wedge.
  const SolveOutcome o = pool_.execute(it->req, it->cancel, opts_.backend);
  if (br != nullptr) {
    if (o.cancelled)
      br->record_abandoned();
    else if (o.ok)
      br->record_success();
    else
      br->record_failure();
  }

  const std::int64_t solve_ns = ns_between(picked_up, Clock::now());
  if (o.cancelled) {
    // Aborted mid-solve (deadline passed or stop(drain=false)). Never
    // cached: the arena held a partial result.
    respond(it, Status::Cancelled, 0, o.error, queue_ns, solve_ns);
    return;
  }
  if (!o.ok) {
    if (!try_fallback(it, picked_up, queue_ns))
      respond(it, Status::Error, 0, o.error, queue_ns, solve_ns);
    return;
  }
  // Cache before responding, so a caller that resubmits the moment its
  // future resolves observes the hit. The fill is charged against the
  // submitting tenant's byte quota.
  CachedResult fill{o.value, o.detail, o.backend_used};
  const std::size_t fill_bytes = cached_bytes_of(fill);
  cache_.put(it->hash, std::move(fill), it->req.tenant, fill_bytes);
  respond(it, Status::Ok, o.value, o.detail, queue_ns, solve_ns, 0,
          o.backend_used);
}

bool SolveService::try_fallback(const Item& it, Clock::time_point picked_up,
                                std::int64_t queue_ns) {
  const std::string& fb = opts_.resilience.fallback_backend;
  if (fb.empty()) return false;
  // Only generic solves can change engine; folds/parses have exactly one.
  if (!std::holds_alternative<SolveSpec>(it->req.payload)) return false;
  Request copy = it->req;
  std::get<SolveSpec>(copy.payload).backend.clear();  // fb decides
  const SolveOutcome o = pool_.execute(copy, it->cancel, fb);
  const std::int64_t solve_ns = ns_between(picked_up, Clock::now());
  if (o.cancelled) {
    respond(it, Status::Cancelled, 0, o.error, queue_ns, solve_ns);
    return true;
  }
  if (!o.ok) return false;  // caller escalates to Error / RetryAfter
  // Deliberately not cached: the degraded answer would mask the primary's
  // recovery behind OkCached hits.
  if (respond(it, Status::Degraded, o.value, o.detail, queue_ns, solve_ns, 0,
              o.backend_used)) {
    ++fallbacks_;
    ++degraded_;
    obs::metrics().counter("serve.fallbacks").add();
  }
  return true;
}

bool SolveService::respond(const Item& it, Status st, double value,
                           std::string detail, std::int64_t queue_ns,
                           std::int64_t solve_ns,
                           std::int64_t retry_after_ms, std::string backend) {
  if (it->responded.exchange(true, std::memory_order_acq_rel)) return false;
  Response resp;
  resp.id = it->req.id;
  resp.status = st;
  resp.value = value;
  resp.detail = std::move(detail);
  resp.backend = std::move(backend);
  resp.queue_ns = queue_ns;
  resp.solve_ns = solve_ns;
  resp.total_ns = ns_between(it->enqueued, Clock::now());
  resp.retry_after_ms = retry_after_ms;
  const std::uint16_t tid =
      it->req.tenant < kMaxTenants ? it->req.tenant : std::uint16_t(0);
  TenantCounters& tc = tenant_counters_[tid];
  switch (st) {
    case Status::Ok:
      ++completed_;
      tc.completed.fetch_add(1, std::memory_order_relaxed);
      break;
    case Status::OkCached:
      ++cache_hits_;
      tc.cache_hits.fetch_add(1, std::memory_order_relaxed);
      break;
    case Status::Rejected:
      ++rejected_;
      tc.rejected.fetch_add(1, std::memory_order_relaxed);
      break;
    case Status::Shed:
      ++shed_;
      tc.shed.fetch_add(1, std::memory_order_relaxed);
      break;
    case Status::Expired:
      ++expired_;
      tc.expired.fetch_add(1, std::memory_order_relaxed);
      break;
    case Status::Cancelled: ++cancelled_; break;
    case Status::Error: ++errors_; break;
    case Status::Degraded: break;     // counted at the fallback site
    case Status::RetryAfter: break;   // counted at the breaker/throttle site
  }
  resp.trace_id = it->req.trace.trace_id;
  resp.trace_sampled = it->req.trace.sampled;
  auto& m = obs::metrics();
  m.counter(std::string("serve.status.") + status_name(st)).add();
  // Labeled per-tenant terminal counters (only once tenancy is in play,
  // so an untenanted deployment's metric namespace is unchanged).
  if (opts_.tenants.configured() || tid != 0) {
    m.counter("serve.tenant.status." + std::string(status_name(st)) +
              "{tenant=" + tenant_label(tid) + "}")
        .add();
    if (st == Status::Shed)
      m.counter("serve.tenant.shed{tenant=" + tenant_label(tid) + "}").add();
  }
  m.histogram("serve.total_ns").observe(resp.total_ns);
  if (st == Status::Ok || st == Status::OkCached) {
    m.histogram("serve.queue_ns").observe(queue_ns);
    if (solve_ns > 0) m.histogram("serve.solve_ns").observe(solve_ns);
  }

  // Stage boundaries in absolute steady ns, shared by the span emission
  // and the wide event so the two always reconcile exactly.
  const std::int64_t now_abs = steady_now_ns();
  const std::int64_t enq_abs = now_abs - resp.total_ns;
  const std::int64_t disp_abs =
      it->dispatch_ns.load(std::memory_order_relaxed);
  const std::int64_t started_abs =
      it->started_ns.load(std::memory_order_acquire);
  const std::int64_t queue_span_ns =
      std::max<std::int64_t>((disp_abs > 0 ? disp_abs : now_abs) - enq_abs, 0);
  const std::int64_t batch_span_ns =
      (disp_abs > 0 && started_abs > disp_abs) ? started_abs - disp_abs : 0;

  obs::Tracer& tr = obs::Tracer::instance();
  if (it->req.trace.sampled && tr.enabled()) {
    // Retroactive span emission: respond() is the single point every
    // request passes through, so back-dating the stage spans from the
    // stamps the stages left keeps the chain complete even for requests
    // that never reached a worker (rejected, shed, expired, cancelled).
    const auto a0 = static_cast<std::int64_t>(it->req.trace.trace_id);
    const std::int64_t session_now = tr.now_ns();
    const auto to_session = [&](std::int64_t abs) {
      return session_now - (now_abs - abs);
    };
    obs::TraceEvent ev;
    ev.cat = "req";
    ev.a0 = a0;
    ev.ph = 'X';
    ev.name = "queue";
    ev.ts_ns = to_session(enq_abs);
    ev.dur_ns = queue_span_ns;
    tr.record(ev);
    if (batch_span_ns > 0) {
      ev.name = "batch";
      ev.ts_ns = to_session(disp_abs);
      ev.dur_ns = batch_span_ns;
      tr.record(ev);
    }
    if (solve_ns > 0) {
      ev.name = "solve";
      ev.ts_ns = to_session(now_abs - solve_ns);
      ev.dur_ns = solve_ns;
      tr.record(ev);
    }
    ev.ph = 'i';
    ev.dur_ns = -1;
    if (st == Status::OkCached) {
      ev.name = "cache";
      ev.ts_ns = to_session(disp_abs > 0 ? disp_abs : now_abs);
      ev.a1 = obs::TraceEvent::kNoArg;
      tr.record(ev);
    }
    ev.name = "respond";
    ev.ts_ns = session_now;
    ev.a1 = static_cast<std::int64_t>(st);
    tr.record(ev);
  }

  obs::RequestLog& rl = obs::request_log();
  if (rl.enabled()) {
    obs::WideEvent we;
    we.trace_id = it->req.trace.trace_id;
    we.request_id = it->req.id;
    we.kind = request_kind_name(it->req);
    we.status = status_name(st);
    we.tenant = tid;
    we.backend = resp.backend;
    we.cache_hit = (st == Status::OkCached);
    we.sampled = it->req.trace.sampled;
    we.queue_ns = queue_span_ns;
    we.batch_ns = batch_span_ns;
    we.solve_ns = solve_ns;
    we.total_ns = resp.total_ns;
    rl.append(std::move(we));
  }

  if (it->callback) {
    it->callback(std::move(resp));
  } else {
    it->promise.set_value(std::move(resp));
  }
  return true;
}

ServiceStats SolveService::stats() const {
  ServiceStats s;
  s.submitted = submitted_.load();
  s.completed = completed_.load();
  s.cache_hits = cache_hits_.load();
  s.rejected = rejected_.load();
  s.shed = shed_.load();
  s.expired = expired_.load();
  s.cancelled = cancelled_.load();
  s.errors = errors_.load();
  s.degraded = degraded_.load();
  s.retry_after = retry_after_.load();
  s.throttled = throttled_.load();
  s.fallbacks = fallbacks_.load();
  s.batches = batches_.load();
  s.cache_misses = cache_.misses();
  s.cache_evictions = cache_.evictions();
  s.arena_reuses = pool_.arena_reuses();
  s.arena_allocations = pool_.arena_allocations();
  s.queue_depth = queue_.depth();
  // Per-tenant rows: every tenant that saw traffic plus every configured
  // one (a configured-but-idle tenant still shows up with zeros).
  for (std::uint32_t tid = 0; tid < kMaxTenants; ++tid) {
    const TenantCounters& tc = tenant_counters_[tid];
    const std::uint64_t sub = tc.submitted.load(std::memory_order_relaxed);
    const bool configured =
        opts_.tenants.policies.count(static_cast<std::uint16_t>(tid)) != 0;
    if (sub == 0 && !configured) continue;
    TenantStats ts;
    ts.id = static_cast<std::uint16_t>(tid);
    ts.name = opts_.tenants.name_of(ts.id);
    ts.submitted = sub;
    ts.throttled = tc.throttled.load(std::memory_order_relaxed);
    ts.completed = tc.completed.load(std::memory_order_relaxed);
    ts.cache_hits = tc.cache_hits.load(std::memory_order_relaxed);
    ts.cache_misses = tc.cache_misses.load(std::memory_order_relaxed);
    ts.shed = tc.shed.load(std::memory_order_relaxed);
    ts.rejected = tc.rejected.load(std::memory_order_relaxed);
    ts.expired = tc.expired.load(std::memory_order_relaxed);
    ts.queue_depth = queue_.tenant_depth(ts.id);
    s.tenants.push_back(std::move(ts));
  }
  return s;
}

}  // namespace cellnpdp::serve
