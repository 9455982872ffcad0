// table-n4096: the paper-size canonical min-plus table, solved serially
// and with the task-queue driver; plus the simd and layout/core/taskgraph
// probes of the traced run and the table-side gate self-test.
#include <memory>
#include <random>

#include "bench.hpp"
#include "cellsim/work_model.hpp"
#include "common/aligned.hpp"
#include "core/reference.hpp"
#include "core/solve.hpp"

namespace perfbench {

using namespace cellnpdp;
using Mat = BlockedTriangularMatrix<float>;

namespace {

constexpr index_t kBlock = 64;

template <class T = float>
NpdpInstance<T> canonical(index_t n, std::uint64_t seed,
                          SemiringId sr = SemiringId::MinPlus) {
  NpdpInstance<T> inst;
  inst.n = n;
  inst.semiring = sr;
  inst.init = [seed, sr](index_t i, index_t j) {
    return semiring_init_value<T>(sr, seed, i, j);
  };
  return inst;
}

ExecutionContext context(std::size_t threads, SolveStats* stats = nullptr) {
  ExecutionContext ctx;
  ctx.tuning.block_side = kBlock;
  ctx.tuning.kernel = KernelKind::Native;
  ctx.tuning.threads = threads;
  ctx.stats = stats;
  return ctx;
}

/// Allocation plus first touch of an n-cell table (the constructor writes
/// the padding value into every cell): `reps` timings in normalized
/// seconds (page faults slow down with the host like the solves do), the
/// last matrix kept in *keep.
std::vector<double> time_allocations(index_t n, int reps,
                                     std::unique_ptr<Mat>* keep) {
  std::vector<double> s;
  double wall = 0;
  for (int r = 0; r < reps; ++r) {
    keep->reset();
    s.push_back(normalized_seconds(
        1, [&] { *keep = std::make_unique<Mat>(n, kBlock); }, &wall));
  }
  return s;
}

/// Blocked serial and parallel solves against solve_reference_semiring at
/// a reduced size, in all four semirings. Counting runs in double at a
/// size where every intermediate stays an exact integer.
void reference_self_check(std::uint64_t seed, unsigned nproc, Outcome& out) {
  for (SemiringId sr : {SemiringId::MinPlus, SemiringId::MaxPlus,
                        SemiringId::ViterbiLog}) {
    const auto inst = canonical<float>(200, seed, sr);
    const auto ref = solve_reference_any(inst);
    for (std::size_t threads : {std::size_t(1), std::size_t(nproc)}) {
      Mat mat(inst.n, kBlock, semiring_zero<float>(sr));
      const auto ctx = context(threads);
      const bool ok =
          (threads == 1 ? solve_blocked_serial_into(mat, inst, ctx)
                        : solve_blocked_parallel_into(mat, inst, ctx)) ==
              SolveStatus::Ok &&
          matches_reference(mat, ref);
      out.check(ok, std::string("reference self-check ") +
                        std::string(semiring_name(sr)) + " threads=" +
                        std::to_string(threads));
    }
  }
  const auto inst = canonical<double>(12, seed, SemiringId::Counting);
  const auto ref = solve_reference_any(inst);
  BlockedTriangularMatrix<double> mat(inst.n, 4,
                                      semiring_zero<double>(inst.semiring));
  ExecutionContext ctx = context(1);
  ctx.tuning.block_side = 4;
  const bool ok = solve_blocked_serial_into(mat, inst, ctx) ==
                      SolveStatus::Ok &&
                  matches_reference(mat, ref);
  out.check(ok, "reference self-check counting");
}

}  // namespace

void run_table(const Options& o, Outcome& out) {
  const index_t n = o.quick ? 256 : 4096;
  const auto inst = canonical(n, o.seed);

  // Set-up: allocation and first touch of the two tables, timed several
  // times; the last two allocations are the ones solved into.
  std::unique_ptr<Mat> ser, par;
  std::vector<double> setup = time_allocations(n, o.quick ? 2 : 15, &ser);
  const auto more = time_allocations(n, 1, &par);
  setup.insert(setup.end(), more.begin(), more.end());

  reference_self_check(o.seed, o.nproc, out);

  // Rounds of two 1-thread and two nproc-thread solves, alternating,
  // until the run's time is spent (at least three rounds). Every solve is
  // checked byte for byte against the round's first serial table, and
  // timed both as wall time and as normalized seconds (bench.hpp).
  const auto ctx1 = context(1);
  const auto ctxp = context(o.nproc);
  std::vector<double> w1, wp, t1, tp;
  const int min_rounds = o.quick ? 1 : 3;
  const auto start = Clock::now();
  for (int round = 0;; ++round) {
    const double spent = seconds_since(start);
    if (round >= min_rounds && spent + spent / double(round) > o.seconds)
      break;
    for (int rep = 0; rep < 2; ++rep) {
      Mat& mat = rep == 0 ? *ser : *par;  // the second serial table too
      mat.reset();
      SolveStatus s1{}, sp{};
      double wall = 0;
      t1.push_back(normalized_seconds(
          1, [&] { s1 = solve_blocked_serial_into(mat, inst, ctx1); }, &wall));
      w1.push_back(wall);
      if (rep == 1)
        out.check(same_table(*ser, *par), "serial tables differ");
      par->reset();
      tp.push_back(normalized_seconds(
          o.nproc, [&] { sp = solve_blocked_parallel_into(*par, inst, ctxp); },
          &wall));
      wp.push_back(wall);
      out.check(s1 == SolveStatus::Ok && sp == SolveStatus::Ok &&
                    same_table(*ser, *par),
                "parallel table differs from serial table");
    }
  }
  std::fprintf(stderr, "perfbench: solves 1t/%ut, wall s (normalized s):",
               o.nproc);
  for (std::size_t r = 0; r < t1.size(); ++r)
    std::fprintf(stderr, " %.3f/%.3f (%.3f/%.3f)", w1[r], wp[r], t1[r], tp[r]);
  std::fprintf(stderr, "\nperfbench: median wall 1t/%ut (s): %.3f/%.3f\n",
               o.nproc, median(w1), median(wp));
  const double solve_s = median(tp);
  out.set("solve_norm_s", solve_s, "s");
  out.set("solve_1t_norm_s", median(t1), "s");
  // The result must carry every end-to-end metric on every workload. This
  // one serves no requests, so its latency and rate restate
  // solve_norm_s: one solve is one request.
  out.set("p50_ms", solve_s * 1e3, "ms");
  out.set("slo_rps", 1.0 / solve_s, "1/s");
  out.set("setup_s", median(setup), "s");
  out.noisy = out.noisy || rel_iqr(tp) > 0.10 || rel_iqr(t1) > 0.10;
}

void probe_simd(const Options& o, Outcome& out) {
  std::mt19937 rng(static_cast<std::uint32_t>(o.seed));
  std::uniform_real_distribution<float> dist(0.0f, 100.0f);
  aligned_vector<float> a(kBlock * kBlock), b(kBlock * kBlock),
      c(kBlock * kBlock);
  for (auto* v : {&a, &b, &c})
    for (float& x : *v) x = dist(rng);
  const double pair_relax = double(kBlock) * kBlock * kBlock;
  double native = 0;
  for (KernelKind kind :
       {KernelKind::Scalar, KernelKind::Native, KernelKind::Wide}) {
    const CbKernel<float> k = cb_kernel<float>(kind);
    const index_t w = k.width, tb = kBlock / w;
    // One block pair's tb^3 tile calls, in middle_pass's loop order.
    auto pair = [&] {
      for (index_t rt = 0; rt < tb; ++rt)
        for (index_t kt = 0; kt < tb; ++kt)
          for (index_t ct = 0; ct < tb; ++ct)
            k.pure(c.data() + rt * w * kBlock + ct * w, kBlock,
                   a.data() + rt * w * kBlock + kt * w, kBlock,
                   b.data() + kt * w * kBlock + ct * w, kBlock);
    };
    int reps = 1;
    for (;;) {  // calibrate a batch to about 40 ms
      const auto t0 = Clock::now();
      for (int r = 0; r < reps; ++r) pair();
      if (seconds_since(t0) > (o.quick ? 0.004 : 0.04)) break;
      reps *= 2;
    }
    std::vector<double> rates;
    for (int batch = 0; batch < 5; ++batch) {
      const auto t0 = Clock::now();
      for (int r = 0; r < reps; ++r) pair();
      rates.push_back(double(reps) * pair_relax / seconds_since(t0));
    }
    const double rate = median(rates);
    if (kind == KernelKind::Native) native = rate;
    out.set("simd.kernel_relax_per_s." + std::string(kernel_kind_name(kind)),
            rate, "relax/s");
  }
  const double peak = peak_relax_per_s(5);
  out.set("simd.peak_relax_per_s", peak, "relax/s");
  out.set("simd.roofline_frac", native / peak, "frac");
}

void probe_engine(const Options& o, index_t n, Outcome& out) {
  const auto inst = canonical(n, o.seed);
  std::unique_ptr<Mat> traced, ser, par;
  out.set("layout.alloc_s", median(time_allocations(n, 4, &traced)), "s");
  ser = std::make_unique<Mat>(n, kBlock);
  par = std::make_unique<Mat>(n, kBlock);

  NpdpOptions opts;
  opts.block_side = kBlock;
  opts.kernel = KernelKind::Native;
  const index_t m = traced->blocks_per_side();
  const std::size_t nblocks = static_cast<std::size_t>(triangle_cells(m));
  // Each probe below repeats for 5% of the run's time, and at least three
  // times, so every figure is a median of several samples.
  const double budget = o.quick ? 0.2 : 0.05 * o.seconds;
  const int min_reps = o.quick ? 1 : 3;
  auto more = [&](int rep, Clock::time_point start) {
    return rep < 50 && (rep < min_reps || seconds_since(start) < budget);
  };

  // Traced serial solve: BlockEngine::seed, then compute_block per block
  // in the serial driver's order, each call timed; each traced pass is
  // followed by an untraced serial solve of the same table, so the two
  // sides of trace.overhead_frac see the same host state.
  const auto ctx1 = context(1);
  std::vector<std::vector<double>> block_us(nblocks);
  std::vector<double> seed_s, pass_s, t1;
  EngineStats first{};
  auto start = Clock::now();
  for (int pass = 0; more(pass, start); ++pass) {
    traced->reset();
    EngineStats st;
    BlockEngine<float> engine(*traced, inst, opts);
    auto t0 = Clock::now();
    engine.seed();
    seed_s.push_back(seconds_since(t0));
    std::size_t idx = 0;
    for (index_t bj = 0; bj < m; ++bj)
      for (index_t bi = bj; bi >= 0; --bi) {
        const auto tb = Clock::now();
        engine.compute_block(bi, bj, &st);
        block_us[idx++].push_back(seconds_since(tb) * 1e6);
      }
    pass_s.push_back(seconds_since(t0));
    if (pass == 0) {
      first = st;
      out.check(counts_match(st, total_work(n, kBlock, engine.kernel_width())),
                "engine counts differ from cellsim::total_work");
    } else {
      out.check(st.kernel_calls == first.kernel_calls &&
                    st.corner_relax == first.corner_relax &&
                    st.diag_relax == first.diag_relax &&
                    st.cells_finalized == first.cells_finalized,
                "engine counts differ between passes");
    }
    ser->reset();
    t0 = Clock::now();
    solve_blocked_serial_into(*ser, inst, ctx1);
    t1.push_back(seconds_since(t0));
  }
  out.check(same_table(*ser, *traced), "traced table differs from serial");

  // Stats-carrying parallel solves of the same table.
  std::vector<double> tp, occupancy, idle, cpu_per_wall;
  start = Clock::now();
  for (int rep = 0; more(rep, start); ++rep) {
    par->reset();
    SolveStats ss;
    const auto ctxp = context(o.nproc, &ss);
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    solve_blocked_parallel_into(*par, inst, ctxp);
    const double wall = seconds_since(t0);
    const double cpu = process_cpu_s() - cpu0;
    tp.push_back(wall);
    const double slots = double(o.nproc) * ss.wall_seconds;
    occupancy.push_back(ss.busy_total() / slots);
    idle.push_back(slots - ss.busy_total());
    cpu_per_wall.push_back(cpu / wall);
    out.check(same_table(*ser, *par), "parallel table differs from serial");
  }

  // Off-diagonal block time against its number of middle blocks: the
  // intercept is stage 2 (inner pass), the slope stage 1 per middle block.
  double sx = 0, sy = 0, sxx = 0, sxy = 0, cnt = 0, total_us = 0, diag = 0;
  std::vector<double> diag_us;
  std::size_t idx = 0;
  for (index_t bj = 0; bj < m; ++bj)
    for (index_t bi = bj; bi >= 0; --bi) {
      const double us = median(block_us[idx++]);
      total_us += us;
      if (bi == bj) {
        diag_us.push_back(us);
        continue;
      }
      const double x = double(bj - bi - 1);
      sx += x, sy += us, sxx += x * x, sxy += x * us, cnt += 1;
    }
  diag = median(diag_us);
  const double den = cnt * sxx - sx * sx;
  const double slope = den > 0 ? (cnt * sxy - sx * sy) / den : 0;
  const double intercept = cnt > 0 ? (sy - slope * sx) / cnt : 0;
  const double w = double(cb_kernel<float>(KernelKind::Native).width);
  const double relax = double(first.kernel_calls) * w * w * w +
                       double(first.corner_relax + first.diag_relax);
  out.set("core.seed_s", median(seed_s), "s");
  out.set("core.block_us.diag", diag, "us");
  out.set("core.block_us.inner", intercept, "us");
  out.set("core.block_us.per_middle", slope, "us");
  out.set("core.stage1_frac",
          total_us > 0 ? slope * sx / total_us : 0, "frac");
  out.set("core.relax_per_s", relax / (total_us * 1e-6), "relax/s");
  out.set("core.kernel_calls", double(first.kernel_calls), "count");
  out.set("core.corner_relax", double(first.corner_relax), "count");
  out.set("core.diag_relax", double(first.diag_relax), "count");
  out.set("core.cells_finalized", double(first.cells_finalized), "count");
  out.set("taskgraph.speedup", median(t1) / median(tp), "x");
  out.set("taskgraph.occupancy", median(occupancy), "frac");
  out.set("taskgraph.idle_s", median(idle), "s");
  out.set("taskgraph.cpu_per_wall", median(cpu_per_wall), "x");
  std::vector<double> overhead;
  for (std::size_t i = 0; i < pass_s.size(); ++i)
    overhead.push_back(pass_s[i] / t1[i] - 1.0);
  out.set("trace.overhead_frac", median(overhead), "frac");
}

bool table_gate_selftest() {
  bool ok = true;
  auto expect = [&ok](bool cond, const char* what) {
    if (!cond) std::fprintf(stderr, "gate self-test: %s\n", what);
    ok = ok && cond;
  };
  const auto inst = canonical(200, 3);
  Mat ser(inst.n, kBlock), par(inst.n, kBlock);
  SolveStats ss;
  solve_blocked_serial_into(ser, inst, context(1, &ss));
  solve_blocked_parallel_into(par, inst, context(4));
  const auto ref = solve_reference_any(inst);
  const BlockWork work =
      total_work(inst.n, kBlock, cb_kernel<float>(KernelKind::Native).width);
  expect(same_table(ser, par), "clean parallel table rejected");
  expect(matches_reference(ser, ref), "clean table rejected by reference");
  expect(counts_match(ss.engine, work), "clean counts rejected");

  // Corrupted copies: one ulp in the answer cell, one cell deep inside a
  // middle block, one extra kernel call.
  Mat bad = par;
  float& top = bad.at(0, inst.n - 1);
  top = std::nextafter(top, 1e30f);
  expect(!same_table(ser, bad), "corrupted answer cell not caught");
  expect(!matches_reference(bad, ref), "corrupted answer missed by reference");
  Mat bad2 = par;
  bad2.at(70, 150) = bad2.at(70, 150) + 1.0f;
  expect(!same_table(ser, bad2), "corrupted inner cell not caught");
  EngineStats bad_counts = ss.engine;
  ++bad_counts.kernel_calls;
  expect(!counts_match(bad_counts, work), "corrupted counts not caught");
  return ok;
}

}  // namespace perfbench
