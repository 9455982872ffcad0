// The service's answer to one Request: terminal status, the scalar result,
// and a per-stage latency breakdown. Exactly one Response is delivered per
// submitted request (through the future returned by SolveService::submit),
// whatever its fate — solved, served from cache, refused at admission,
// shed, expired, or cancelled at shutdown.
#pragma once

#include <cstdint>
#include <string>

namespace cellnpdp::serve {

enum class Status {
  Ok,         ///< solved by a worker
  OkCached,   ///< served from the result cache
  Rejected,   ///< refused at admission (queue full under Reject, or stopped)
  Shed,       ///< evicted from the queue by the ShedOldest overload policy
  Expired,    ///< deadline passed before a worker picked the request up
  Cancelled,  ///< aborted cooperatively: deadline passed mid-solve, or the
              ///< service stopped without draining
  Error,      ///< the solver threw; detail carries the message
  Degraded,   ///< solved, but on the fallback backend (primary broken or
              ///< its one attempt failed) — a success with an asterisk
  RetryAfter, ///< not solved: the backend's circuit breaker is open and no
              ///< fallback exists; retry_after_ms hints when to come back
};

constexpr const char* status_name(Status s) {
  switch (s) {
    case Status::Ok: return "ok";
    case Status::OkCached: return "ok-cached";
    case Status::Rejected: return "rejected";
    case Status::Shed: return "shed";
    case Status::Expired: return "expired";
    case Status::Cancelled: return "cancelled";
    case Status::Error: return "error";
    case Status::Degraded: return "degraded";
    case Status::RetryAfter: return "retry-after";
  }
  return "?";
}

constexpr bool is_success(Status s) {
  return s == Status::Ok || s == Status::OkCached || s == Status::Degraded;
}

struct Response {
  std::uint64_t id = 0;
  Status status = Status::Error;
  double value = 0;    ///< d[0][n-1] / MFE / parse cost
  std::string detail;  ///< dot-bracket structure, parse verdict, or error
  /// The engine that actually produced the answer (empty for refusals).
  /// This is the *effective* name: a Degraded response names the fallback
  /// backend, not the one the request asked for, and an OkCached response
  /// names whoever filled the cache entry.
  std::string backend;
  std::int64_t queue_ns = 0;  ///< admission -> dispatch (or terminal verdict)
  std::int64_t solve_ns = 0;  ///< inside the worker (0 unless solved)
  std::int64_t total_ns = 0;  ///< admission -> response delivered
  std::int64_t retry_after_ms = 0;  ///< back-off hint (RetryAfter only)
  /// Trace correlation, copied from the request so downstream layers
  /// (the network encoder) can annotate without a lookup.
  std::uint64_t trace_id = 0;
  bool trace_sampled = false;
};

}  // namespace cellnpdp::serve
