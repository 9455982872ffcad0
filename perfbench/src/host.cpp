// Resource probes and the host fingerprint printed with every run.
#include <immintrin.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

namespace {

// Each step is one relaxation per lane: acc = min(acc + b, c). Sixteen
// independent accumulators keep both vector ports busy past the add and
// min latencies; the loop touches no memory. The inner loops are unrolled
// explicitly so the accumulators stay in registers at -O2 too.
__attribute__((target("avx512f"))) float peak_loop_avx512(long iters,
                                                          float seed) {
  __m512 acc[16];
  for (int k = 0; k < 16; ++k) acc[k] = _mm512_set1_ps(seed * float(k + 1));
  const __m512 b = _mm512_set1_ps(seed * 1e-3f);
  const __m512 c = _mm512_set1_ps(1e6f);
  for (long i = 0; i < iters; ++i)
#pragma GCC unroll 16
    for (int k = 0; k < 16; ++k)
      // Full-mask form: same vminps, without the undefined pass-through
      // operand GCC 12 warns about at -O2.
      acc[k] = _mm512_mask_min_ps(acc[k], 0xFFFF, _mm512_add_ps(acc[k], b), c);
  __m512 s = acc[0];
  for (int k = 1; k < 16; ++k) s = _mm512_add_ps(s, acc[k]);
  alignas(64) float out[16];
  _mm512_store_ps(out, s);
  float t = 0;
  for (float v : out) t += v;
  return t;
}

float peak_loop_avx2(long iters, float seed) {
  __m256 acc[12];
  for (int k = 0; k < 12; ++k) acc[k] = _mm256_set1_ps(seed * float(k + 1));
  const __m256 b = _mm256_set1_ps(seed * 1e-3f);
  const __m256 c = _mm256_set1_ps(1e6f);
  for (long i = 0; i < iters; ++i)
#pragma GCC unroll 12
    for (int k = 0; k < 12; ++k)
      acc[k] = _mm256_min_ps(_mm256_add_ps(acc[k], b), c);
  __m256 s = acc[0];
  for (int k = 1; k < 12; ++k) s = _mm256_add_ps(s, acc[k]);
  alignas(32) float out[8];
  _mm256_store_ps(out, s);
  float t = 0;
  for (float v : out) t += v;
  return t;
}

bool has_avx512() { return __builtin_cpu_supports("avx512f"); }

std::string json_escape(const std::string& s) {
  std::string o;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) o += ch;
  }
  return o;
}

std::string cpuinfo_field(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string v = line.substr(colon + 1);
    while (!v.empty() && v.front() == ' ') v.erase(v.begin());
    return v;
  }
  return "";
}

/// Measured core clock: a chain of dependent register adds retires one
/// add per cycle, so adds per second is the clock the core ran at. The
/// addend is opaque to the compiler and is not an immediate, which some
/// cores fold at rename.
double measured_ghz() {
  std::vector<double> rates;
  for (int r = 0; r < 5; ++r) {
    std::uint64_t x = std::uint64_t(r) + 1, y = 3;
    asm volatile("" : "+r"(y));
    const long iters = 4'000'000;
    const auto t0 = Clock::now();
    for (long i = 0; i < iters; ++i) {
      asm volatile(
          "add %1, %0\n\tadd %1, %0\n\tadd %1, %0\n\tadd %1, %0"
          : "+r"(x)
          : "r"(y));
    }
    const double s = seconds_since(t0);
    if (x == 42) std::fputs("", stderr);  // keep x live
    rates.push_back(4.0 * double(iters) / s / 1e9);
  }
  return median(rates);
}

}  // namespace

namespace {

/// The reference work: one 64x64 min-plus block product, c = min(c, a + b)
/// row by row with 4-lane SSE, all three blocks in L1. It is the shape of
/// the solve's stage 1 and is throughput-bound like it, but it is the
/// benchmark's own frozen code, so no library change moves it.
struct ReferenceBlock {
  alignas(64) float a[64 * 64], b[64 * 64], c[64 * 64];

  ReferenceBlock() {
    for (int i = 0; i < 64 * 64; ++i)
      a[i] = float(i % 97), b[i] = float(i % 89), c[i] = 1e6f;
  }
  void product(float bias) {
    for (int r = 0; r < 64; ++r)
      for (int k = 0; k < 64; ++k) {
        const __m128 x = _mm_set1_ps(a[r * 64 + k] + bias);
        for (int col = 0; col < 64; col += 4) {
          const __m128 y = _mm_load_ps(c + r * 64 + col);
          const __m128 z = _mm_add_ps(x, _mm_load_ps(b + k * 64 + col));
          _mm_store_ps(c + r * 64 + col, _mm_min_ps(y, z));
        }
      }
  }
};

}  // namespace

double reference_rate(unsigned threads, double window_s) {
  std::vector<double> rates(threads, 0.0);
  auto body = [&rates, window_s](unsigned t) {
    ReferenceBlock blk;
    long products = 0;
    double elapsed = 0;
    const auto t0 = Clock::now();
    do {
      for (int k = 0; k < 8; ++k) blk.product(float((products + k) & 1));
      products += 8;
      elapsed = seconds_since(t0);
    } while (elapsed < window_s);
    if (blk.c[5] < 0) std::fputs("", stderr);  // keep the products live
    rates[t] = double(products) * 64.0 * 64.0 * 64.0 / elapsed;
  };
  {
    std::vector<std::jthread> helpers;  // joined on every way out
    for (unsigned t = 1; t < threads; ++t) helpers.emplace_back(body, t);
    body(0);
  }
  double total = 0;
  for (double r : rates) total += r;
  return total;
}

double peak_relax_per_s(int reps) {
  const bool wide = has_avx512();
  const int lanes = wide ? 16 * 16 : 12 * 8;  // accumulators x lanes
  const long iters = 2'000'000;
  std::vector<double> rates;
  volatile float sink = 0;
  for (int r = 0; r < reps; ++r) {
    const float seed = 1.0f + float(r) * 1e-3f;
    const auto t0 = Clock::now();
    sink = sink + (wide ? peak_loop_avx512(iters, seed)
                        : peak_loop_avx2(iters, seed));
    const double s = seconds_since(t0);
    rates.push_back(double(iters) * lanes / s);
  }
  return median(rates);
}

std::string host_json(double peak, const double load_before[3], bool noisy) {
  double after[3] = {0, 0, 0};
  getloadavg(after, 3);
  std::string flags;
  std::istringstream fl(" " + cpuinfo_field("flags") + " ");
  for (std::string f; fl >> f;)
    if (f == "sse4_2" || f == "avx" || f == "avx2" || f == "fma" ||
        f == "avx512f" || f == "avx512bw" || f == "avx512vl")
      flags += (flags.empty() ? "" : " ") + f;
  std::ostringstream os;
  os.precision(6);
  os << "{\"host\": {\"cpu\": \"" << json_escape(cpuinfo_field("model name"))
     << "\", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"simd\": \"" << flags << "\", \"isa_peak\": \""
     << (has_avx512() ? "avx512" : "avx2") << "\", \"clock_ghz\": "
     << measured_ghz() << ", \"peak_relax_per_s\": " << peak
     << ", \"load_before\": [" << load_before[0] << ", " << load_before[1]
     << ", " << load_before[2] << "], \"load_after\": [" << after[0] << ", "
     << after[1] << ", " << after[2] << "], \"noisy\": "
     << (noisy ? "true" : "false") << "}}";
  return os.str();
}

}  // namespace perfbench
