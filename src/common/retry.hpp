// Retry policy of the resilient solver's per-block re-execution, its only
// user. Backoff is capped exponential with deterministic jitter — a
// SplitMix64 stream keyed by (jitter_seed, salt, attempt), so two retriers
// with different salts decorrelate while a rerun with the same seed backs
// off identically (the fault-replay determinism check in verify.sh depends
// on this).
#pragma once

#include <chrono>
#include <cstdint>

#include "common/rng.hpp"

namespace cellnpdp {

struct RetryPolicy {
  /// Total attempts including the first; 1 disables retrying.
  int max_attempts = 1;
  std::chrono::milliseconds base_backoff{1};
  std::chrono::milliseconds max_backoff{64};
  std::uint64_t jitter_seed = 0x5EEDB0FFull;

  bool enabled() const { return max_attempts > 1; }

  /// Delay before `attempt` (2-based: the wait after attempt-1 failed).
  /// Exponential in the attempt number, capped at max_backoff, with the
  /// top half of the delay jittered away deterministically.
  std::chrono::milliseconds backoff(int attempt,
                                    std::uint64_t salt = 0) const {
    if (attempt <= 1 || base_backoff.count() <= 0)
      return std::chrono::milliseconds(0);
    const int exp = attempt - 2 > 20 ? 20 : attempt - 2;
    std::int64_t delay_ms = base_backoff.count() << exp;
    if (delay_ms > max_backoff.count()) delay_ms = max_backoff.count();
    if (delay_ms <= 1) return std::chrono::milliseconds(delay_ms);
    SplitMix64 rng(jitter_seed ^ salt * 0x9E3779B97F4A7C15ull ^
                   static_cast<std::uint64_t>(attempt));
    const std::int64_t half = delay_ms / 2;
    const std::int64_t jitter =
        static_cast<std::int64_t>(rng.next_below(
            static_cast<std::uint64_t>(half) + 1));
    return std::chrono::milliseconds(delay_ms - jitter);
  }
};

}  // namespace cellnpdp
