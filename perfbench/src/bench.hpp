// Shared pieces of the repository benchmark: run options, the metric
// sink, sample statistics, resource probes, and the correctness gates.
//
// All timing lives here, in the benchmark, around calls into the
// library's public functions; nothing in the library is instrumented for
// it. See perfbench/README.md for the workloads and the metric map.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "cellsim/work_model.hpp"
#include "core/engine.hpp"
#include "layout/blocked.hpp"
#include "layout/triangular.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using cellnpdp::index_t;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool quick = false;  ///< tiny sizes, for the self-test only
  unsigned nproc = 1;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one run reports: metrics plus the operation tally behind
/// the result line's attempted/failed fields (error_frac = failed /
/// attempted).
struct Outcome {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions
  bool noisy = false;                 ///< within-run spread flagged

  void set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics)
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    metrics.push_back({name, value, unit});
  }
  /// Counts one checked operation; records a failure when !ok.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
  }
  /// Records a failure of an operation already counted as attempted.
  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
};

// --- sample statistics -----------------------------------------------------

/// Linear-interpolation quantile (the "type 7" definition).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(v.size() - 1, lo + 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The tail level reported as "p99": 0.99 when at least ten samples lie
/// beyond it, else the highest level that still has ten beyond it, and
/// never below the median.
inline double tail_level(std::size_t n) {
  if (n == 0) return 0.5;
  return std::clamp(1.0 - 10.0 / double(n), 0.5, 0.99);
}

/// The median, over consecutive slices of `slice` samples, of each
/// slice's quantile q (capped at the slice's tail level): a host stall
/// moves the slices it lands in, not the run's figure.
inline double sliced(const std::vector<double>& v, std::size_t slice,
                     double q) {
  if (v.size() < 2 * slice) return quantile(v, std::min(q, tail_level(v.size())));
  std::vector<double> per;
  for (std::size_t b = 0; b + slice <= v.size(); b += slice) {
    const auto it = v.begin() + static_cast<std::ptrdiff_t>(b);
    per.push_back(quantile(std::vector<double>(it, it + static_cast<std::ptrdiff_t>(slice)),
                           std::min(q, tail_level(slice))));
  }
  return median(per);
}

/// (q3 - q1) / median of a sample set; 0 for fewer than two samples.
inline double rel_iqr(const std::vector<double>& v) {
  if (v.size() < 2) return 0;
  const double med = median(v);
  return med == 0 ? 0 : (quantile(v, 0.75) - quantile(v, 0.25)) / med;
}

// --- resource probes (host.cpp) ---------------------------------------------

double peak_rss_mb();
double process_cpu_s();
/// Register-only add+min loop at the widest vector ISA the CPU supports:
/// relaxations per second, median of `reps` timed batches.
double peak_relax_per_s(int reps);
/// Aggregate relaxations per second of the benchmark's own reference
/// block kernel (host.cpp), run on `threads` threads at once for
/// `window_s` seconds.
double reference_rate(unsigned threads, double window_s = 0.02);

/// The reference rate of one nominal core: normalized seconds are seconds
/// on cores that run the reference kernel this fast.
constexpr double kNominalCoreRate = 5e9;

/// fn()'s wall time on `threads` threads, normalized to nominal cores:
/// wall x (reference rate of `threads` threads, measured right before and
/// right after) / (threads x kNominalCoreRate). On a shared VM each vCPU
/// flips, every few seconds, between full and about half SIMD throughput
/// (another guest on the hyperthread sibling), and the slow share drifts
/// over minutes; the reference slows with the code under test, so the
/// ratio cancels the host state. The raw wall time goes to *wall.
template <class F>
double normalized_seconds(unsigned threads, F&& fn, double* wall) {
  const double before = reference_rate(threads);
  const auto t0 = Clock::now();
  fn();
  *wall = seconds_since(t0);
  const double after = reference_rate(threads);
  return *wall * 0.5 * (before + after) / (threads * kNominalCoreRate);
}

/// Host fingerprint as one JSON object (CPU model, nproc, SIMD flags,
/// measured clock, the peak rate, load averages before and after).
std::string host_json(double peak, const double load_before[3],
                      bool noisy);

// --- correctness gates -------------------------------------------------------

/// Byte-identity of two blocked tables (same geometry required).
template <class T>
bool same_table(const cellnpdp::BlockedTriangularMatrix<T>& a,
                const cellnpdp::BlockedTriangularMatrix<T>& b) {
  return a.size() == b.size() && a.block_side() == b.block_side() &&
         a.total_cells() == b.total_cells() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(T) * static_cast<std::size_t>(a.total_cells())) ==
             0;
}

/// Every triangle cell of a blocked table bit-equal to the reference.
template <class T>
bool matches_reference(const cellnpdp::BlockedTriangularMatrix<T>& got,
                       const cellnpdp::TriangularMatrix<T>& ref) {
  if (got.size() != ref.size()) return false;
  for (index_t i = 0; i < got.size(); ++i)
    for (index_t j = i; j < got.size(); ++j) {
      const T a = got.at(i, j), b = ref.at(i, j);
      if (std::memcmp(&a, &b, sizeof(T)) != 0) return false;
    }
  return true;
}

/// A reply value bit-equal to the directly computed one.
inline bool same_value(double got, double want) {
  return std::memcmp(&got, &want, sizeof got) == 0;
}

/// Engine work counters equal to the closed-form work model.
inline bool counts_match(const cellnpdp::EngineStats& st,
                         const cellnpdp::BlockWork& w) {
  return st.kernel_calls == w.kernel_calls &&
         st.corner_relax + st.diag_relax == w.scalar_relax &&
         st.cells_finalized == w.cells;
}

// --- workloads ---------------------------------------------------------------

/// table-n4096 (trace off) — table.cpp.
void run_table(const Options& o, Outcome& out);
/// serve-miss (trace off) — serving.cpp.
void run_serving(const Options& o, Outcome& out);

/// Per-layer probes for the traced run.
void probe_simd(const Options& o, Outcome& out);
/// layout/core/taskgraph on the canonical table at size n.
void probe_engine(const Options& o, index_t n, Outcome& out);
/// backend/serve/net on the cache-hit stream (hit; table-n4096's traced
/// run) or on the serve-miss stream.
void probe_serving(const Options& o, bool hit, Outcome& out);

/// Each gate run on a clean real result and on a deliberately corrupted
/// copy of it; true when every clean result passes and every corruption
/// is caught. The table gates (table.cpp) and the reply gate
/// (serving.cpp, against a live loopback server).
bool table_gate_selftest();
bool serving_gate_selftest();

}  // namespace perfbench
