// perfbench: the repository benchmark driver.
//
//   perfbench --workload table-n4096|serve-miss --seed N
//             --seconds S --trace 0|1 [--quick]
//   perfbench --gate-selftest
//
// Prints the host fingerprint as one JSON line, then, as the last line,
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 1 when any
// operation failed or returned a wrong value, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"

using namespace perfbench;

namespace {

const char* const kEndToEnd[] = {"solve_norm_s", "solve_1t_norm_s",
                                 "p50_ms",       "slo_rps",
                                 "setup_s",      "peak_rss_mb"};

const char* const kPerLayer[] = {
    "simd.kernel_relax_per_s.scalar", "simd.kernel_relax_per_s.simd128",
    "simd.kernel_relax_per_s.simd256", "simd.peak_relax_per_s",
    "simd.roofline_frac", "layout.alloc_s", "core.seed_s",
    "core.block_us.diag", "core.block_us.inner", "core.block_us.per_middle",
    "core.stage1_frac", "core.relax_per_s", "core.kernel_calls",
    "core.corner_relax", "core.diag_relax", "core.cells_finalized",
    "taskgraph.speedup", "taskgraph.occupancy", "taskgraph.idle_s",
    "taskgraph.cpu_per_wall", "backend.solve_us_p50.solve",
    "backend.solve_us_p50.fold", "backend.solve_us_p50.parse",
    "backend.solve_us_p50.chain", "backend.solve_us_p50.bst",
    "serve.latency_us_p50", "serve.latency_us_p99", "serve.queue_us_p50",
    "serve.solve_us_p50", "serve.cache_hit_frac", "serve.cache_evictions",
    "serve.batch_mean", "serve.arena_reuse_frac", "net.latency_us_p50",
    "net.latency_us_p99", "net.ping_us_p50",
    "net.wire_us_p50", "net.slipped", "net.transport_errors",
    "net.proto_errors", "trace.overhead_frac"};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "table-n4096|serve-miss --seed N --seconds S "
               "--trace 0|1 [--quick]\n       perfbench --gate-selftest\n",
               why);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  o.nproc = std::max(1u, std::thread::hardware_concurrency());
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    std::uint64_t v = 0;
    if (a == "--gate-selftest") {
      const bool ok = table_gate_selftest() && serving_gate_selftest();
      std::printf("{\"gate_selftest\": %s}\n", ok ? "true" : "false");
      return ok ? 0 : 1;
    } else if (a == "--quick") {
      o.quick = true;
    } else if (a == "--workload") {
      const char* w = value();
      if (w == nullptr) return usage("--workload needs a value");
      o.workload = w;
    } else if (a == "--seed" || a == "--seconds" || a == "--trace") {
      const char* s = value();
      if (s == nullptr || !parse_u64(s, &v)) return usage("bad number");
      if (a == "--seed") o.seed = v, have_seed = true;
      if (a == "--seconds") o.seconds = double(v), have_seconds = true;
      if (a == "--trace") o.trace = v != 0, have_trace = true;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || o.seconds < 1)
    return usage("--workload, --seed, --seconds >= 1 and --trace are required");
  const bool table = o.workload == "table-n4096";
  if (!table && o.workload != "serve-miss")
    return usage(("unknown workload " + o.workload).c_str());

  double load_before[3] = {0, 0, 0};
  getloadavg(load_before, 3);
  const double peak = peak_relax_per_s(3);

  Outcome out;
  try {
    if (!o.trace) {
      if (table)
        run_table(o, out);
      else
        run_serving(o, out);
      out.set("peak_rss_mb", peak_rss_mb(), "MB");
    } else {
      probe_simd(o, out);
      probe_engine(o, table ? (o.quick ? 512 : 4096) : 512, out);
      probe_serving(o, table, out);
    }
  } catch (const std::exception& e) {
    out.check(false, std::string("exception: ") + e.what());
  }
  // A run that started on a busy host is flagged, never discarded.
  out.noisy = out.noisy || load_before[0] > o.nproc / 2.0;

  // Every metric of the mode, each a finite number.
  bool complete = true;
  std::ostringstream metrics;
  metrics.precision(17);
  bool first = true;
  auto emit = [&](const char* name) {
    const Metric* m = nullptr;
    for (const Metric& x : out.metrics)
      if (x.name == name) m = &x;
    if (m == nullptr || !std::isfinite(m->value)) {
      std::fprintf(stderr, "perfbench: metric %s missing or not finite\n",
                   name);
      complete = false;
      return;
    }
    metrics << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
            << m->value << ", \"unit\": \"" << m->unit << "\"}";
    first = false;
  };
  if (o.trace)
    for (const char* n : kPerLayer) emit(n);
  else
    for (const char* n : kEndToEnd) emit(n);

  for (const std::string& f : out.failures)
    std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
  const double error_frac =
      out.attempted > 0 ? double(out.failed) / double(out.attempted) : 1.0;
  std::fprintf(stderr, "perfbench: %s error_frac=%g (%llu of %llu)%s\n",
               o.workload.c_str(), error_frac,
               static_cast<unsigned long long>(out.failed),
               static_cast<unsigned long long>(out.attempted),
               out.noisy ? " [noisy]" : "");

  const bool correct = out.failed == 0 && out.attempted > 0 && complete;
  std::printf("%s\n", host_json(peak, load_before, out.noisy).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<std::uint64_t>(1, out.attempted)),
      static_cast<unsigned long long>(out.failed), metrics.str().c_str());
  return correct ? 0 : 1;
}
