// serve-miss: an in-process NpdpServer on loopback driven by the
// benchmark's own seeded open-loop generator; plus the backend, serve and
// net probes of the traced runs (on the serve-miss stream, or on a
// cache-hit stream for table-n4096) and the serving gate self-test.
#include <sys/prctl.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "apps/cyk/cyk.hpp"
#include "apps/matrix_chain/matrix_chain.hpp"
#include "apps/optimal_bst/optimal_bst.hpp"
#include "apps/zuker/fold.hpp"
#include "backend/solver_backend.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "serve/service.hpp"
#include "serve/solver_pool.hpp"

namespace perfbench {

using namespace cellnpdp;

namespace {

constexpr int kConns = 2;          // load connections
constexpr std::size_t kPool = 16;  // cache-hit stream payload pool
constexpr std::size_t kWarmMiss = 1100;  // > the default cache capacity
/// Latency percentiles are medians over slices of this many consecutive
/// requests, the fewest that leave ten samples beyond the p99.
constexpr std::size_t kSlice = 1000;

/// serve-miss's fixed offered rate (req/s) and p99 limit (ms), as quoted
/// in BENCHMARK.json.
constexpr double kMissRate = 250;
constexpr double kP99LimitMs = 50;
/// Rate-ladder rung length (s) and climb factor. Above the knee, whether
/// a rung passes depends on how the reactor happens to group arrivals, so
/// a coarse step could land on a lucky rung far past it.
constexpr double kRungS = 0.8;
constexpr double kStep = 1.05;
/// Offered rate of the cache-hit stream that table-n4096's traced run
/// sends through the serving layers.
constexpr double kHitRate = 40000;

serve::ServiceOptions service_options() {
  serve::ServiceOptions s;
  s.workers = 2;  // cache, queue, batcher, backend: defaults
  return s;
}

bool success(serve::Status s) {
  return s == serve::Status::Ok || s == serve::Status::OkCached;
}

/// Stream identifiers keep the payload draws of each part of a run (set
/// up, timed stream, ladder rungs, probes) independent of one another.
enum StreamId : std::uint64_t {
  kWarm = 1, kDirect, kFixed, kBackend, kSample, kLadder = 100
};

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull + 1;
}

std::string dyck_word(SplitMix64& rng, index_t pairs) {
  std::string s;
  index_t open = 0, left = pairs;
  while (left > 0 || open > 0) {
    if (left > 0 && (open == 0 || rng.next_below(2) == 0)) {
      s += '(';
      --left;
      ++open;
    } else {
      s += ')';
      --open;
    }
  }
  return s;
}

/// One serve-miss payload of `kind`, with a fresh 64-bit seed (or random
/// text) so repeats are negligible. `u` in [0, 1) places its size within
/// the kind's range (and, for solves, picks the semiring), so a batch can
/// cover the ranges evenly.
serve::Payload miss_payload(SplitMix64& rng, int kind, double u) {
  switch (kind) {
    case 0: {
      serve::SolveSpec s;
      s.n = 64 * index_t(1 + int(u * 4));  // 64..256
      s.semiring = static_cast<SemiringId>(int(u * 16) % kSemiringCount);
      s.seed = rng.next_u64();
      return s;
    }
    case 1: {
      serve::FoldSpec f;
      f.random_n = 40 + index_t(u * 41);
      f.seed = rng.next_u64();
      return f;
    }
    case 2: {
      serve::ParseSpec p;
      p.grammar = serve::ParseSpec::GrammarKind::Parens;
      p.text = dyck_word(rng, 8 + index_t(u * 17));
      return p;
    }
    case 3: {
      serve::ChainSpec c;
      c.n = 16 + index_t(u * 49);
      c.seed = rng.next_u64();
      return c;
    }
    default: {
      serve::BstSpec b;
      b.keys = 16 + index_t(u * 49);
      b.seed = rng.next_u64();
      return b;
    }
  }
}

/// `per_kind` payloads of each kind, sizes spread evenly over the ranges:
/// the same work for every seed, only the instances differ.
std::vector<serve::Payload> stratified(std::uint64_t seed, int per_kind) {
  SplitMix64 rng(seed);
  std::vector<serve::Payload> out;
  for (int kind = 0; kind < 5; ++kind)
    for (int i = 0; i < per_kind; ++i)
      out.push_back(miss_payload(rng, kind, (i + 0.5) / per_kind));
  return out;
}

std::vector<serve::Payload> hit_pool(std::uint64_t seed) {
  std::vector<serve::Payload> pool;
  for (std::size_t i = 0; i < kPool; ++i) {
    serve::SolveSpec s;
    s.n = 128;
    s.seed = mix_seed(seed, 1000 + i);
    pool.push_back(s);
  }
  return pool;
}

/// A request stream: request i asks for payloads[index[i]].
struct Stream {
  std::vector<serve::Payload> payloads;
  std::vector<std::uint32_t> index;
  std::size_t size() const { return index.size(); }
  const serve::Payload& at(std::size_t i) const { return payloads[index[i]]; }
};

Stream make_stream(bool hit, std::uint64_t seed, std::uint64_t stream,
                   std::size_t count) {
  Stream st;
  SplitMix64 rng(mix_seed(seed, stream));
  if (hit) {
    st.payloads = hit_pool(seed);
    for (std::size_t i = 0; i < count; ++i)
      st.index.push_back(static_cast<std::uint32_t>(rng.next_below(kPool)));
    return st;
  }
  for (std::size_t i = 0; i < count; ++i) {
    const int kind = int(rng.next_below(5));
    st.payloads.push_back(miss_payload(rng, kind, rng.next_unit()));
    st.index.push_back(static_cast<std::uint32_t>(i));
  }
  return st;
}

/// The answer computed directly through the backend registry and the app
/// APIs, with no serving layer: the reference every reply must equal.
double direct_value(const serve::Payload& p) {
  ExecutionContext ctx;
  ctx.tuning.threads = 1;
  if (const auto* s = std::get_if<serve::SolveSpec>(&p)) {
    NpdpInstance<float> inst;
    inst.n = s->n;
    inst.semiring = s->semiring;
    const std::uint64_t seed = s->seed;
    const SemiringId sr = s->semiring;
    inst.init = [seed, sr](index_t i, index_t j) {
      return semiring_init_value<float>(sr, seed, i, j);
    };
    ctx.tuning.block_side = s->block_side;
    ctx.tuning.kernel = s->kernel;
    return backend::require_backend("blocked-serial").solve(inst, ctx).value;
  }
  if (const auto* f = std::get_if<serve::FoldSpec>(&p)) {
    zuker::ZukerFolder folder;
    return double(folder.fold(zuker::random_sequence(f->random_n, f->seed)).mfe);
  }
  if (const auto* q = std::get_if<serve::ParseSpec>(&p)) {
    cyk::CykParser parser(cyk::balanced_parens_grammar());
    const auto r = parser.parse(cyk::tokens_from_string(q->text, "()"));
    return r.accepted() ? double(r.cost) : -1.0;
  }
  if (const auto* c = std::get_if<serve::ChainSpec>(&p)) {
    MatrixChainResult<float> r;
    solve_matrix_chain(serve::chain_dims(*c), ctx, &r);
    return double(r.cost);
  }
  float cost = 0;
  solve_optimal_bst(serve::bst_data(std::get<serve::BstSpec>(p)), ctx, &cost);
  return double(cost);
}

// --- the open-loop loopback generator ---------------------------------------

struct Sample {
  double latency_ms = NAN;  ///< from the scheduled send to the decoded reply
  double lag_us = 0;        ///< actual send minus scheduled send
  double value = 0;
  int status = -1;          ///< serve::Status, -1 none, -2 ProtoError
};

struct StreamRun {
  std::vector<Sample> s;
  std::uint64_t transport_errors = 0;
  std::uint64_t proto_errors = 0;
  double span_s = 0;  ///< first scheduled send to last reply

  /// Replies per second over the run's span.
  double achieved_rps() const {
    return span_s > 0 ? double(s.size() - failed()) / span_s : 0;
  }

  std::vector<double> latencies() const {
    std::vector<double> v;
    for (const Sample& x : s)
      if (x.status >= 0) v.push_back(x.latency_ms);
    return v;
  }
  std::uint64_t failed() const {
    std::uint64_t f = 0;
    for (const Sample& x : s)
      if (x.status < 0 || !success(static_cast<serve::Status>(x.status))) ++f;
    return f;
  }
};

/// Sends request i of `st` at start + i / rate on connection i % kConns,
/// pipelining, from one spinning generator thread (load takes one core),
/// and times every reply from its scheduled send, so a stall is charged
/// to every request it delays (no coordinated omission).
StreamRun run_stream(std::uint16_t port, const Stream& st, double rate,
                     double drain_s = 10.0) {
  StreamRun run;
  run.s.resize(st.size());
  // Connect before the schedule starts, so dialing is not charged as lag.
  std::vector<net::NpdpClient> clients(kConns);
  std::string err;
  for (auto& cli : clients)
    if (!cli.connect("127.0.0.1", port, &err, 2000)) {
      run.transport_errors = st.size();
      return run;
    }
  std::thread gen([&] {
    const auto interval = std::chrono::duration<double>(1.0 / rate);
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    auto due = [&](std::size_t i) {
      return start + std::chrono::duration_cast<Clock::duration>(interval * i);
    };
    const auto hard_end =
        due(st.size()) + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(drain_s));
    std::size_t next = 0, outstanding = 0;
    auto broken = [&] {
      run.transport_errors += outstanding + (st.size() - next);
    };
    for (;;) {
      auto now = Clock::now();
      for (; next < st.size() && due(next) <= now; ++next) {
        net::WireRequest w;
        w.id = next;
        w.payload = st.at(next);
        if (!clients[next % kConns].send_frame(net::encode_request(w), &err))
          return broken();
        now = Clock::now();
        run.s[next].lag_us =
            std::chrono::duration<double, std::micro>(now - due(next)).count();
        ++outstanding;
      }
      if (next >= st.size() && outstanding == 0) return;
      if (now > hard_end) return broken();  // never answered
      // The generator never sleeps. A sleeping vCPU can take milliseconds
      // to wake on a virtualised host, and the late burst that follows
      // leaves gaps in the arrivals that change how the service batches.
      for (auto& cli : clients)
        for (;;) {
          net::NpdpClient::Reply rep;
          const auto rs = cli.recv_reply(&rep, 0, &err);
          if (rs == net::NpdpClient::RecvStatus::Timeout) break;
          if (rs != net::NpdpClient::RecvStatus::Ok) return broken();
          const auto got = Clock::now();
          run.span_s = seconds_between(start, got);
          if (rep.id >= st.size() || run.s[rep.id].status != -1) continue;
          Sample& x = run.s[rep.id];
          x.latency_ms =
              std::chrono::duration<double, std::milli>(got - due(rep.id))
                  .count();
          if (rep.kind == net::NpdpClient::Reply::Kind::ProtoError) {
            x.status = -2;
            ++run.proto_errors;
          } else {
            x.status = static_cast<int>(rep.result.status);
            x.value = rep.result.value;
          }
          --outstanding;
        }
    }
  });
  gen.join();
  return run;
}

// --- server set-up -------------------------------------------------------------

/// Sends every request of `st` over one connection with at most `window`
/// in flight (a closed loop); false unless every reply is a success.
bool closed_loop(std::uint16_t port, const Stream& st, std::size_t window,
                 std::string* err) {
  net::NpdpClient cli;
  if (!cli.connect("127.0.0.1", port, err, 2000)) return false;
  for (std::size_t sent = 0, done = 0; done < st.size(); ++done) {
    for (; sent < st.size() && sent - done < window; ++sent) {
      net::WireRequest w;
      w.id = sent;
      w.payload = st.at(sent);
      if (!cli.send_frame(net::encode_request(w), err)) return false;
    }
    net::NpdpClient::Reply rep;
    if (cli.recv_reply(&rep, 10000, err) != net::NpdpClient::RecvStatus::Ok ||
        rep.kind != net::NpdpClient::Reply::Kind::Result ||
        !success(rep.result.status))
      return false;
  }
  return true;
}

/// Server start, first reply and cache warm-up: for the hit stream every
/// pool payload once, for serve-miss more distinct payloads than the cache
/// holds, so the timed stream meets a full cache that evicts. The warm-up
/// keeps 128 requests in flight (half the admission queue), so the workers'
/// compute bounds it: with 16 in flight, about half of it was the
/// dispatcher's 2 ms wait before flushing partial batches, a fixed time
/// that normalized seconds would over-correct.
std::unique_ptr<net::NpdpServer> start_server(const Options& o, bool hit,
                                              Outcome& out, double* setup_s) {
  const auto t0 = Clock::now();
  net::ServerOptions so;
  so.reactors = 1;
  auto srv = std::make_unique<net::NpdpServer>(so, service_options());
  std::string err;
  if (!srv->start(&err)) {
    out.check(false, "server start: " + err);
    return nullptr;
  }
  const Stream warm = make_stream(
      hit, o.seed, kWarm, hit ? kPool : (o.quick ? 64 : kWarmMiss));
  net::NpdpClient cli;
  net::NpdpClient::Reply rep;
  net::WireRequest first;
  first.payload = warm.at(0);
  const bool ok = cli.connect("127.0.0.1", srv->port(), &err, 2000) &&
                  cli.call(first, &rep, 10000, &err) ==
                      net::NpdpClient::RecvStatus::Ok &&
                  success(rep.result.status);
  out.check(ok, "first reply: " + err);
  Stream fill = warm;
  if (hit) {
    fill.index.clear();
    for (std::uint32_t i = 0; i < kPool; ++i) fill.index.push_back(i);
  }
  out.check(closed_loop(srv->port(), fill, 128, &err), "cache warm-up: " + err);
  *setup_s = seconds_since(t0);
  return srv;
}

/// Counts the stream's requests into attempted/failed (failed, refused
/// or unanswered), then re-derives replies directly: every reply against
/// the pool for the hit stream, a seeded sample of 64 for serve-miss.
void tally(const Options& o, bool hit, const Stream& st, const StreamRun& run,
           Outcome& out) {
  out.attempted += run.s.size();
  for (std::uint64_t f = run.failed(); f > 0; --f)
    out.fail("request failed, refused or unanswered");
  auto answered = [&](std::size_t i) { return run.s[i].status >= 0; };
  if (hit) {
    std::vector<double> want;
    for (const auto& p : st.payloads) want.push_back(direct_value(p));
    for (std::size_t i = 0; i < st.size(); ++i)
      if (answered(i) && !same_value(run.s[i].value, want[st.index[i]]))
        out.fail("cache-hit reply differs from direct solve");
    return;
  }
  SplitMix64 rng(mix_seed(o.seed, kSample));
  for (int k = 0; k < (o.quick ? 8 : 64) && st.size() > 0; ++k) {
    const std::size_t i = rng.next_below(st.size());
    if (answered(i) && !same_value(run.s[i].value, direct_value(st.at(i))))
      out.fail("serve-miss reply differs from direct solve");
  }
}

/// Highest offered rate whose rung meets the p99 limit with zero
/// failures and no growing backlog. Rungs climb by kStep from the fixed
/// rate until one fails, then bisect geometrically until
/// the bracket is under 3% or the budget is spent. A rung fails only when
/// two attempts in a row miss, so one host stall cannot end the climb.
double slo_ladder(const Options& o, std::uint16_t port, double budget_s) {
  std::uint64_t attempts = 0;
  // Each attempt returns the reply rate it achieved, 0 when it failed.
  auto attempt = [&](double rate) -> double {
    const auto count = static_cast<std::size_t>(
        std::max(50.0, rate * (o.quick ? 0.1 : kRungS)));
    const Stream st = make_stream(false, o.seed, kLadder + attempts++, count);
    const StreamRun run = run_stream(port, st, rate, 5.0);
    const auto lat = run.latencies();
    std::vector<double> lag;
    for (const Sample& x : run.s) lag.push_back(x.lag_us);
    // A growing backlog shows as a late tail: the last fifth's median.
    const std::vector<double> last(
        lat.end() - static_cast<std::ptrdiff_t>(lat.size() / 5), lat.end());
    const double p99 = sliced(lat, kSlice, 0.99);
    const double lag99 = sliced(lag, kSlice, 0.99);
    const bool pass = run.failed() == 0 && p99 <= kP99LimitMs &&
                      median(last) <= kP99LimitMs && lag99 <= kP99LimitMs * 1e3;
    std::fprintf(stderr,
                 "perfbench: rung %.0f req/s: p99 %.3f ms, last-fifth p50 "
                 "%.3f ms, lag p99 %.0f us, failed %llu -> %s\n",
                 rate, p99, median(last), lag99,
                 static_cast<unsigned long long>(run.failed()),
                 pass ? "pass" : "fail");
    return pass ? run.achieved_rps() : 0.0;
  };
  double lo = 0, hi = 0, rate = kMissRate, achieved = 0;
  const auto start = Clock::now();
  while (seconds_since(start) < budget_s) {
    double got = attempt(rate);
    if (got == 0) got = attempt(rate);
    if (got > 0) {
      lo = rate;
      achieved = got;
    } else {
      hi = rate;
    }
    if (lo > 0 && hi > 0 && hi / lo < 1.03) break;
    rate = hi == 0 ? rate * kStep : lo == 0 ? rate / kStep : std::sqrt(lo * hi);
  }
  return achieved;
}

/// Wall time of computing a batch directly: on the calling thread, or
/// spread over `pool` one payload per job.
double time_direct(const std::vector<serve::Payload>& batch, ThreadPool* pool) {
  const auto t0 = Clock::now();
  if (pool == nullptr) {
    for (const auto& p : batch) direct_value(p);
  } else {
    for (const auto& p : batch) pool->submit([&p] { direct_value(p); });
    pool->wait_idle();
  }
  return seconds_since(t0);
}

}  // namespace

void run_serving(const Options& o, Outcome& out) {
  const double s = o.seconds;

  // Set-up, five times, in normalized seconds on nproc threads (the
  // client, reactor, dispatcher and workers share them); the last server
  // is the one measured.
  std::vector<double> setup, setup_wall;
  std::unique_ptr<net::NpdpServer> srv;
  for (int k = 0; k < (o.quick ? 1 : 5); ++k) {
    if (srv) srv->stop();
    srv.reset();
    double t = 0, wall = 0;
    setup.push_back(normalized_seconds(
        o.nproc, [&] { srv = start_server(o, false, out, &t); }, &wall));
    setup_wall.push_back(wall);
    if (!srv) return;
  }

  // The compute under the workload, with no serving layer: 64 payloads
  // of each kind, solved directly on 1 and nproc threads. A batch of some
  // 30 ms on nproc threads, so one stolen vCPU slice does not decide a
  // sample. Timed in three windows spread over the run (before the
  // stream, before the ladder, after it), so the figure averages the
  // host's state over the run instead of taking one moment of it; each
  // batch as wall time and as normalized seconds (bench.hpp).
  const std::vector<serve::Payload> batch =
      stratified(mix_seed(o.seed, kDirect), 64);
  std::vector<double> w1, wp, t1, tp;
  ThreadPool pool(o.nproc);
  auto time_batches = [&] {
    const auto start = Clock::now();
    double wall = 0;
    for (int k = 0; k < 2 || seconds_since(start) < 0.1 * s / 3; ++k) {
      t1.push_back(normalized_seconds(
          1, [&] { time_direct(batch, nullptr); }, &wall));
      w1.push_back(wall);
      tp.push_back(normalized_seconds(
          o.nproc, [&] { time_direct(batch, &pool); }, &wall));
      wp.push_back(wall);
    }
  };
  time_batches();

  // The timed stream at the fixed offered rate.
  const Stream st = make_stream(
      false, o.seed, kFixed,
      static_cast<std::size_t>(kMissRate * (o.quick ? 0.2 : 0.45 * s)));
  const StreamRun run = run_stream(srv->port(), st, kMissRate);
  tally(o, false, st, run, out);
  const auto lat = run.latencies();
  std::vector<double> lag;
  for (const Sample& x : run.s) lag.push_back(x.lag_us);
  std::fprintf(stderr,
               "perfbench: fixed %.0f req/s, %zu requests: p50 %.3f p90 %.3f "
               "p99 %.3f p99.9 %.3f ms, lag p99 %.0f us\n",
               kMissRate, lat.size(), median(lat), quantile(lat, 0.9),
               quantile(lat, 0.99), quantile(lat, 0.999), quantile(lag, 0.99));

  time_batches();
  const double slo = slo_ladder(o, srv->port(), o.quick ? 0.5 : 0.4 * s);
  time_batches();
  srv->stop();

  std::fprintf(stderr,
               "perfbench: direct batch median 1t/%ut, wall s (normalized "
               "s): %.4f/%.4f (%.4f/%.4f); set-up median wall %.4f s\n",
               o.nproc, median(w1), median(wp), median(t1), median(tp),
               median(setup_wall));
  out.set("solve_norm_s", median(tp), "s");
  out.set("solve_1t_norm_s", median(t1), "s");
  out.set("p50_ms", sliced(lat, kSlice, 0.5), "ms");
  out.set("slo_rps", slo, "1/s");
  out.set("setup_s", median(setup), "s");
  out.noisy = out.noisy || rel_iqr(tp) > 0.10 || rel_iqr(t1) > 0.10;
}

void probe_serving(const Options& o, bool hit, Outcome& out) {
  const double rate = hit ? kHitRate : kMissRate;
  const double span = o.quick ? 0.2 : 0.2 * o.seconds;
  const Stream st = make_stream(hit, o.seed, kFixed,
                                static_cast<std::size_t>(rate * span));

  // Loopback: the stream through sockets, then ping round trips.
  double loop_p50_us = 0;
  std::vector<double> ping_us;
  {
    double setup = 0;
    auto srv = start_server(o, hit, out, &setup);
    if (!srv) return;
    const StreamRun run = run_stream(srv->port(), st, rate);
    tally(o, hit, st, run, out);
    const auto lat = run.latencies();
    loop_p50_us = median(lat) * 1e3;
    out.set("net.latency_us_p50", loop_p50_us, "us");
    out.set("net.latency_us_p99", quantile(lat, 0.99) * 1e3, "us");
    std::vector<double> lag;
    for (const Sample& x : run.s) lag.push_back(x.lag_us);
    out.set("net.slipped", quantile(lag, 0.99), "us");
    out.set("net.transport_errors", double(run.transport_errors), "count");
    out.set("net.proto_errors", double(run.proto_errors), "count");

    net::NpdpClient cli;
    std::string err;
    const bool connected = cli.connect("127.0.0.1", srv->port(), &err, 2000);
    out.check(connected, "ping connect: " + err);
    for (int i = 0; connected && i < (o.quick ? 100 : 2000); ++i) {
      const auto t0 = Clock::now();
      const bool ok = cli.ping(std::uint64_t(i) + 1, 2000, &err) ==
                      net::NpdpClient::RecvStatus::Ok;
      ping_us.push_back(seconds_since(t0) * 1e6);
      out.check(ok, "ping: " + err);
    }
    srv->stop();
  }
  out.set("net.ping_us_p50", median(ping_us), "us");

  // The same stream at the same rate through SolveService::submit, no
  // sockets: outside latency plus the service's own Response fields.
  {
    serve::SolveService svc(service_options());
    const Stream warm = make_stream(hit, o.seed, kWarm,
                                    hit ? kPool : (o.quick ? 64 : kWarmMiss));
    std::vector<std::future<serve::Response>> fs;
    for (std::size_t i = 0; i < (hit ? kPool : warm.size()); ++i) {
      serve::Request r;
      r.payload = hit ? warm.payloads[i] : warm.at(i);
      fs.push_back(svc.submit(std::move(r)));
    }
    for (auto& f : fs) out.check(success(f.get().status), "replay warm-up");
    const serve::ServiceStats before = svc.stats();

    struct Done {
      std::atomic<bool> done{false};
      Clock::time_point at{};
      serve::Response resp;
    };
    std::vector<Done> done(st.size());
    std::atomic<std::size_t> remaining{st.size()};
    const auto interval = std::chrono::duration<double>(1.0 / rate);
    const auto start = Clock::now();
    auto due = [&](std::size_t i) {
      return start + std::chrono::duration_cast<Clock::duration>(interval * i);
    };
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    for (std::size_t i = 0; i < st.size(); ++i) {
      std::this_thread::sleep_until(due(i));
      serve::Request r;
      r.id = i;
      r.payload = st.at(i);
      svc.submit(std::move(r), [&done, &remaining, i](serve::Response resp) {
        done[i].at = Clock::now();
        done[i].resp = std::move(resp);
        done[i].done.store(true, std::memory_order_release);
        remaining.fetch_sub(1, std::memory_order_acq_rel);
      });
    }
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (remaining.load(std::memory_order_acquire) > 0 &&
           Clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    svc.stop();  // every callback has fired once stop() returns
    const serve::ServiceStats after = svc.stats();

    std::vector<double> lat_us, queue_us, solve_us;
    for (std::size_t i = 0; i < st.size(); ++i) {
      const bool ok = done[i].done.load(std::memory_order_acquire) &&
                      success(done[i].resp.status);
      out.check(ok, "in-process replay request failed");
      if (!ok) continue;
      lat_us.push_back(
          std::chrono::duration<double, std::micro>(done[i].at - due(i))
              .count());
      queue_us.push_back(double(done[i].resp.queue_ns) * 1e-3);
      solve_us.push_back(double(done[i].resp.solve_ns) * 1e-3);
    }
    const double serve_p50 = median(lat_us);
    out.set("serve.latency_us_p50", serve_p50, "us");
    out.set("serve.latency_us_p99", quantile(lat_us, 0.99), "us");
    out.set("serve.queue_us_p50", median(queue_us), "us");
    out.set("serve.solve_us_p50", median(solve_us), "us");
    const double hits = double(after.cache_hits - before.cache_hits);
    const double misses = double(after.cache_misses - before.cache_misses);
    out.set("serve.cache_hit_frac",
            hits + misses > 0 ? hits / (hits + misses) : 0, "frac");
    out.set("serve.cache_evictions",
            double(after.cache_evictions - before.cache_evictions), "count");
    const double batches = double(after.batches - before.batches);
    out.set("serve.batch_mean",
            batches > 0 ? double(after.completed - before.completed) / batches
                        : 0,
            "count");
    const double reuse = double(after.arena_reuses - before.arena_reuses);
    const double alloc =
        double(after.arena_allocations - before.arena_allocations);
    out.set("serve.arena_reuse_frac",
            reuse + alloc > 0 ? reuse / (reuse + alloc) : 0, "frac");
    out.set("net.wire_us_p50", loop_p50_us - serve_p50, "us");
  }

  // Compute floor under serve-miss: each request kind solved directly.
  static const char* kKinds[] = {"solve", "fold", "parse", "chain", "bst"};
  const int per_kind = o.quick ? 3 : 25;
  const auto probe = stratified(mix_seed(o.seed, kBackend), per_kind);
  for (int kind = 0; kind < 5; ++kind) {
    std::vector<double> us;
    for (int i = 0; i < per_kind; ++i) {
      const auto t0 = Clock::now();
      direct_value(probe[std::size_t(kind * per_kind + i)]);
      us.push_back(seconds_since(t0) * 1e6);
    }
    out.set(std::string("backend.solve_us_p50.") + kKinds[kind], median(us),
            "us");
  }
}

bool serving_gate_selftest() {
  Options o;
  o.quick = true;
  Outcome scratch;
  double setup = 0;
  auto srv = start_server(o, false, scratch, &setup);
  if (!srv) return false;
  const Stream st = make_stream(false, 5, kFixed, 20);
  const StreamRun run = run_stream(srv->port(), st, 1e9);
  srv->stop();
  bool ok = run.failed() == 0 && scratch.failed == 0;
  for (std::size_t i = 0; i < st.size(); ++i) {
    const double want = direct_value(st.at(i));
    // The reply with its lowest bit flipped: one ulp off for finite values.
    std::uint64_t bits = 0;
    std::memcpy(&bits, &run.s[i].value, sizeof bits);
    bits ^= 1;
    double bad = 0;
    std::memcpy(&bad, &bits, sizeof bad);
    if (!same_value(run.s[i].value, want)) {
      std::fprintf(stderr, "gate self-test: clean reply %zu rejected\n", i);
      ok = false;
    }
    if (same_value(bad, want)) {
      std::fprintf(stderr, "gate self-test: corrupted reply %zu missed\n", i);
      ok = false;
    }
  }
  return ok;
}

}  // namespace perfbench
