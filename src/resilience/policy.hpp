// ResiliencePolicy: the one knob bundle the serve layer takes for its
// self-healing behaviour. Everything defaults off/inert, so a service
// configured without it behaves exactly as before this module existed.
//
// Degradation ladder (applied per request, around the one solve attempt
// on the primary backend):
//   1. breaker    — an open per-backend breaker skips the primary outright
//   2. fallback   — a breaker-denied or failed request re-runs on
//                   fallback_backend, answering Degraded
//   3. shed       — no fallback: a breaker-denied request answers
//                   RetryAfter with a back-off hint, a failed one Error
#pragma once

#include <chrono>
#include <string>

#include "resilience/circuit_breaker.hpp"

namespace cellnpdp::resilience {

struct ResiliencePolicy {
  /// Per-backend circuit breaking (default: off).
  bool breaker_enabled = false;
  BreakerPolicy breaker;

  /// Backend to degrade onto when the primary is broken or fails; empty
  /// disables the fallback rung.
  std::string fallback_backend;

  /// RetryAfter hint floor when shedding without a breaker cooldown.
  std::chrono::milliseconds retry_after{250};
};

}  // namespace cellnpdp::resilience
