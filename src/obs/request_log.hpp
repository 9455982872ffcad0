// Per-request wide events: one structured record per completed request,
// appended at the single respond() terminal point of the serve pipeline
// and annotated with the wire-encode cost by the network layer. The log
// is a fixed ring guarded by a mutex — one short critical section per
// completed request, nothing on the per-stage hot path — with a
// deterministic keep-1-of-N sampling knob and a JSONL sink.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace cellnpdp::obs {

struct WideEvent {
  std::uint64_t trace_id = 0;   // 0 when the request carried no context
  std::uint64_t request_id = 0;
  std::uint16_t tenant = 0;     // QoS tenant id (0 = default)
  const char* kind = "?";       // static strings: "solve", "fold", ...
  const char* status = "?";     // serve::status_name
  std::string backend;          // effective backend that produced the value
  bool cache_hit = false;
  bool sampled = false;         // trace-sampling flag (spans were recorded)
  std::int64_t queue_ns = 0;    // admission -> dispatcher pickup
  std::int64_t batch_ns = 0;    // dispatcher pickup -> solver start
  std::int64_t solve_ns = 0;    // solver start -> value ready
  std::int64_t encode_ns = 0;   // response serialization (net layer)
  std::int64_t total_ns = 0;    // admission -> respond
};

class RequestLog {
 public:
  /// Arms recording into a fresh ring of `capacity` slots (newest wins).
  void enable(std::size_t capacity = 1 << 16);
  void disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Keep one of every `n` requests (keyed on trace_id ^ request_id so
  /// the choice is deterministic across runs); n <= 1 keeps everything.
  void set_sample_every(std::uint64_t n);

  /// Appends one completed request (no-op when disabled or sampled out).
  void append(WideEvent ev);

  /// Patches encode_ns into the most recent record for `request_id`.
  /// Scans backwards over a bounded tail — the record was appended just
  /// before the response frame was built, so it sits at or near the end.
  void annotate_encode(std::uint64_t request_id, std::int64_t encode_ns);

  /// Oldest-to-newest copy of the retained records.
  std::vector<WideEvent> snapshot() const;

  std::uint64_t appended() const {
    return appended_.load(std::memory_order_relaxed);
  }
  std::uint64_t sampled_out() const {
    return sampled_out_.load(std::memory_order_relaxed);
  }

  /// One JSON object per line, oldest first.
  void write_jsonl(std::ostream& os) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> appended_{0};
  std::atomic<std::uint64_t> sampled_out_{0};
  mutable std::mutex mu_;
  std::uint64_t sample_every_ = 1;
  std::vector<WideEvent> ring_;
  std::size_t head_ = 0;   // next write slot
  std::size_t size_ = 0;   // live records (<= ring_.size())
};

/// The process-wide request log used by the serve/net layers.
RequestLog& request_log();

}  // namespace cellnpdp::obs
