#include "obs/request_log.hpp"

#include <algorithm>

#include "common/json.hpp"
#include "obs/span_context.hpp"

namespace cellnpdp::obs {

void RequestLog::enable(std::size_t capacity) {
  std::lock_guard lk(mu_);
  if (capacity == 0) capacity = 1;
  ring_.assign(capacity, WideEvent{});
  head_ = size_ = 0;
  appended_.store(0, std::memory_order_relaxed);
  sampled_out_.store(0, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
}

void RequestLog::disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

void RequestLog::set_sample_every(std::uint64_t n) {
  std::lock_guard lk(mu_);
  sample_every_ = n == 0 ? 1 : n;
}

void RequestLog::append(WideEvent ev) {
  if (!enabled()) return;
  std::lock_guard lk(mu_);
  if (ring_.empty()) return;
  if (sample_every_ > 1) {
    const std::uint64_t key = detail::mix64(ev.trace_id ^ ev.request_id);
    if (key % sample_every_ != 0) {
      sampled_out_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  ring_[head_] = std::move(ev);
  head_ = (head_ + 1) % ring_.size();
  if (size_ < ring_.size()) ++size_;
  appended_.fetch_add(1, std::memory_order_relaxed);
}

void RequestLog::annotate_encode(std::uint64_t request_id,
                                 std::int64_t encode_ns) {
  if (!enabled()) return;
  std::lock_guard lk(mu_);
  // The record for this id was appended moments ago; under concurrency a
  // handful of other completions may have landed since, so scan a short
  // tail rather than the whole ring.
  constexpr std::size_t kTailScan = 64;
  const std::size_t n = std::min(size_, kTailScan);
  for (std::size_t back = 1; back <= n; ++back) {
    const std::size_t idx = (head_ + ring_.size() - back) % ring_.size();
    if (ring_[idx].request_id == request_id) {
      ring_[idx].encode_ns = encode_ns;
      return;
    }
  }
}

std::vector<WideEvent> RequestLog::snapshot() const {
  std::lock_guard lk(mu_);
  std::vector<WideEvent> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i)
    out.push_back(ring_[(head_ + ring_.size() - size_ + i) % ring_.size()]);
  return out;
}

void RequestLog::write_jsonl(std::ostream& os) const {
  for (const auto& ev : snapshot()) {
    JsonWriter w(os);
    w.begin_object();
    w.kv("trace_id", std::uint64_t(ev.trace_id));
    w.kv("id", std::uint64_t(ev.request_id));
    w.kv("tenant", std::uint64_t(ev.tenant));
    w.kv("kind", ev.kind);
    w.kv("status", ev.status);
    w.kv("backend", ev.backend);
    w.kv("cache_hit", ev.cache_hit);
    w.kv("sampled", ev.sampled);
    w.kv("queue_ns", ev.queue_ns);
    w.kv("batch_ns", ev.batch_ns);
    w.kv("solve_ns", ev.solve_ns);
    w.kv("encode_ns", ev.encode_ns);
    w.kv("total_ns", ev.total_ns);
    w.end_object();
    os << "\n";
  }
}

RequestLog& request_log() {
  static RequestLog log;
  return log;
}

}  // namespace cellnpdp::obs
