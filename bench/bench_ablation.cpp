// Ablation benches for the design choices DESIGN.md calls out:
//   (1) scheduling-block size (task-scheduling overhead vs parallel slack);
//   (2) register caching in the computing-block kernel (80 vs 128 instrs
//       on the SPU model; per-tile vs register-blocked stage 1 on the host);
//   (3) 128-bit vs 256-bit kernels on the host CPU;
//   (4) simplified (left+below) dependence graph vs full-graph release
//       timing — measured as simulated makespan with forced serial chains;
//   (5) traceback by recomputation: a plain solve plus a visit_splits walk.
#include <cstdio>
#include <string>
#include <utility>

#include "bench_util/bench_config.hpp"
#include "bench_util/json_out.hpp"
#include "bench_util/table.hpp"
#include "cellsim/npdp_sim.hpp"
#include "common/stopwatch.hpp"
#include "core/solve.hpp"
#include "core/traceback.hpp"

namespace cellnpdp {
namespace {

void ablate_sched_block(const BenchConfig&) {
  std::printf("\n(1) Scheduling-block size (simulated QS20, n=4096 SP, "
              "16KB blocks, 16 SPEs):\n");
  NpdpInstance<float> inst;
  inst.n = 4096;
  inst.init = [](index_t, index_t) { return 1.0f; };
  TextTable t({"sched side (memory blocks)", "tasks", "time"});
  for (index_t ss : {1, 2, 4, 8}) {
    CellSimOptions o;
    o.block_side = 64;
    o.sched_side = ss;
    const auto r = simulate_cellnpdp(inst, qs20(), o);
    t.row(ss, r.tasks, fmt_seconds(r.seconds));
  }
  t.print();
  std::printf("(bigger scheduling blocks cut PPE dispatches quadratically "
              "but coarsen the wavefront; the paper picks small multiples)\n");
}

/// Stage-1 relaxations per second of an n-cell table: every middle block
/// pair of every off-diagonal block, in the serial driver's order, relaxed
/// by `pair(C, A, B)`. Best of 3.
template <class Pair>
double stage1_rate(BlockedTriangularMatrix<float>& mat, Pair&& pair) {
  const index_t m = mat.blocks_per_side(), bs = mat.block_side();
  double best = 1e100, pairs = 0;
  for (int round = 0; round < 3; ++round) {
    pairs = 0;
    Stopwatch sw;
    for (index_t bj = 0; bj < m; ++bj)
      for (index_t bi = bj - 1; bi >= 0; --bi)
        for (index_t mk = bi + 1; mk < bj; ++mk, ++pairs)
          pair(mat.block(bi, bj), mat.block(bi, mk), mat.block(mk, bj));
    best = std::min(best, sw.seconds());
  }
  return pairs * double(bs * bs * bs) / best;
}

void ablate_register_caching(const BenchConfig&, BenchJson& json) {
  std::printf("\n(2) Kernel register caching (SPU pipeline model, SP):\n");
  const auto sp = spu_latencies(Precision::Single);
  const auto cached = cb_op_counts_cached(4);
  const auto naive = cb_op_counts_uncached(4);
  // The pipeline is pipe-1 bound without caching: memory ops dominate.
  const int p1_cached = cached.loads + cached.shuffles + cached.stores;
  const int p1_naive = naive.loads + naive.shuffles + naive.stores;
  TextTable t({"variant", "instructions", "pipe-1 ops", "min cycles"});
  t.row("naive (reload per step)", naive.total(), p1_naive,
        std::max(p1_naive, naive.adds + naive.compares + naive.selects));
  t.row("register-cached (paper)", cached.total(), p1_cached,
        kernel_steady_cycles(4, sp));
  t.print();

  // The same argument on the host: stage 1 as the paper's tb^3 WxW calls
  // per middle pair (C reloaded and stored every call) against the
  // register-blocked panel, which keeps C in registers across the pair.
  constexpr index_t n = 1024, bs = 64;
  std::printf("\n    host stage 1 (simd128 SP, n=%ld, block %ld, 1 thread):\n",
              static_cast<long>(n), static_cast<long>(bs));
  BlockedTriangularMatrix<float> mat(n, bs);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = i; j < n; ++j) mat.at(i, j) = float((i * 7 + j) % 100);
  const CbKernel<float> k = cb_kernel<float>(KernelKind::Native);
  const index_t w = k.width, tb = bs / w;
  const double tiles = stage1_rate(mat, [&](float* C, const float* A,
                                            const float* B) {
    for (index_t rt = 0; rt < tb; ++rt)
      for (index_t kt = 0; kt < tb; ++kt)
        for (index_t ct = 0; ct < tb; ++ct)
          k.pure(C + rt * w * bs + ct * w, bs, A + rt * w * bs + kt * w, bs,
                 B + kt * w * bs + ct * w, bs);
  });
  const double panel = stage1_rate(
      mat, [&](float* C, const float* A, const float* B) { k.block(C, A, B, bs); });
  TextTable h({"stage-1 schedule", "G relax/s", "vs per-tile"});
  h.row("per-tile (tb^3 WxW calls per pair)", tiles / 1e9, "1.00x");
  h.row("register-blocked panel (1 call per pair)", panel / 1e9,
        fmt_x(panel / tiles));
  h.print();
  json.record()
      .set("section", "stage1")
      .set("n", n)
      .set("block", bs)
      .set("per_tile_relax_per_s", tiles)
      .set("panel_relax_per_s", panel)
      .set("panel_speedup", panel / tiles);
}

void ablate_kernel_width(const BenchConfig& cfg) {
  const index_t n = cfg.full ? 2048 : 1024;
  std::printf("\n(3) Kernel width on the host CPU (native, n=%ld, single "
              "thread):\n", static_cast<long>(n));
  NpdpInstance<float> inst;
  inst.n = n;
  inst.init = [](index_t i, index_t j) {
    return i == j ? 0.0f : float((i + j) % 100);
  };
  TextTable t({"kernel", "time", "speedup vs scalar"});
  double scalar_s = 0;
  for (KernelKind k :
       {KernelKind::Scalar, KernelKind::Native, KernelKind::Wide}) {
    NpdpOptions o;
    o.block_side = 64;
    o.kernel = k;
    Stopwatch sw;
    auto out = solve_blocked(inst, o);
    const double s = sw.seconds();
    volatile float sink = out.at(0, n - 1);
    (void)sink;
    if (k == KernelKind::Scalar) scalar_s = s;
    t.row(std::string(kernel_kind_name(k)), fmt_seconds(s),
          fmt_x(scalar_s / s));
  }
  t.print();
}

void ablate_prefetch(const BenchConfig&) {
  std::printf("\n(4) Prefetch depth / double buffering (simulated, n=4096 "
              "SP, 16 SPEs, 4x4 scheduling blocks):\n");
  // Multi-block tasks give the SPE something to prefetch across; the
  // low-bandwidth column shows why the paper reserves six LS buffers —
  // on a machine where DMA is not trivially hidden, synchronous transfers
  // sit on the critical path.
  NpdpInstance<float> inst;
  inst.n = 4096;
  inst.init = [](index_t, index_t) { return 1.0f; };
  TextTable t({"blocks in flight", "QS20 (25.6GB/s)", "starved (2GB/s)"});
  for (int depth : {0, 1, 2, 4}) {
    auto run = [&](double bw) {
      CellConfig cfg = qs20();
      cfg.memory_bandwidth = bw;
      CellSimOptions o;
      o.block_side = 64;
      o.sched_side = 4;
      o.prefetch_depth = depth;
      return simulate_cellnpdp(inst, cfg, o).seconds;
    };
    t.row(depth == 0 ? "none (synchronous DMA)" : std::to_string(depth),
          fmt_seconds(run(25.6e9)), fmt_seconds(run(2e9)));
  }
  t.print();
  std::printf("(the paper's six local-store buffers correspond to depth "
              "~2; with QS20 bandwidth the compute fully hides DMA, which "
              "is itself the design point)\n");
}

void ablate_traceback(const BenchConfig& cfg) {
  const index_t n = cfg.full ? 2048 : 1024;
  std::printf("\n(5) Traceback by recomputation (native, n=%ld, SP, single "
              "thread, best of 3):\n", static_cast<long>(n));
  // Unit spans cost 1 and every split of a cell ties, so the earliest-k
  // tree is right-deep with n-2 splits: the walk's worst case, about n^2/2
  // candidate evaluations.
  NpdpInstance<float> inst;
  inst.n = n;
  inst.init = [](index_t i, index_t j) {
    return i == j ? 0.0f : j == i + 1 ? 1.0f : minplus_identity<float>();
  };
  NpdpOptions o;
  o.block_side = 64;
  double t_solve = 1e100, t_walk = 1e100;
  index_t splits = 0;
  for (int round = 0; round < 3; ++round) {
    Stopwatch s1;
    const auto table = solve_blocked_serial(inst, o);
    t_solve = std::min(t_solve, s1.seconds());
    splits = 0;
    Stopwatch s2;
    visit_splits(table, inst, 0, n - 1,
                 [&](index_t, index_t, index_t) { ++splits; });
    t_walk = std::min(t_walk, s2.seconds());
  }
  const double t_all = t_solve + t_walk;
  TextTable t({"variant", "time", "relative"});
  t.row("values only", fmt_seconds(t_solve), "1.00x");
  t.row("values + traceback", fmt_seconds(t_all), fmt_x(t_all / t_solve));
  t.print();
  std::printf("(the walk recovers %ld splits from the finished table, "
              "O(j-i) each: %.4f%% of values + traceback)\n",
              static_cast<long>(splits), 100.0 * t_walk / t_all);
}


void ablate_scheduler(const BenchConfig&) {
  std::printf("\n(6) Task queue vs barrier wavefronts (simulated QS20, "
              "n=4096 SP, 16KB blocks):\n");
  // The prior works process the table step by step with a barrier between
  // anti-diagonals (§II-B, 'parallel efficiency is less than 60%'); the
  // paper's task queue lets wavefronts overlap.
  NpdpInstance<float> inst;
  inst.n = 4096;
  inst.init = [](index_t, index_t) { return 1.0f; };
  TextTable t({"SPEs", "task queue", "barrier wavefronts", "queue gain"});
  for (int spes : {2, 4, 8, 16}) {
    CellConfig cfg = qs20();
    cfg.num_spes = spes;
    CellSimOptions q, b;
    q.block_side = b.block_side = 64;
    b.barrier_wavefront = true;
    const double tq = simulate_cellnpdp(inst, cfg, q).seconds;
    const double tb = simulate_cellnpdp(inst, cfg, b).seconds;
    t.row(spes, fmt_seconds(tq), fmt_seconds(tb), fmt_x(tb / tq));
  }
  t.print();
  std::printf("(the gap widens with core count: barriers leave SPEs idle "
              "at the tail of every wavefront — the paper's argument for "
              "the dependence-graph queue)\n");
}


// --- (7) semiring instantiations -----------------------------------------

void ablate_semirings(const BenchConfig& cfg, BenchJson& json) {
  const index_t n = cfg.full ? 2048 : 1024;
  std::printf("\n(7) Semiring instantiations (native kernel, n=%ld, single "
              "thread):\n", static_cast<long>(n));

  // (a) Full solves: the same geometry through every instantiation. The
  // optimisation semirings share one inner loop shape, so their times
  // should be near-identical; counting swaps min for + (and loses the
  // idempotent early-out in finalize).
  TextTable t({"semiring", "time", "vs min-plus"});
  double minplus_s = 0;
  for (std::uint8_t sr = 0; sr < kSemiringCount; ++sr) {
    const auto id = static_cast<SemiringId>(sr);
    NpdpInstance<float> inst;
    inst.n = n;
    inst.semiring = id;
    inst.init = [id](index_t i, index_t j) {
      // Keep counting cells at 1.0 (products stay 1.0 forever: no
      // overflow at bench sizes); log-space workloads get <= 0 seeds.
      switch (id) {
        case SemiringId::Counting: return 1.0f;
        case SemiringId::ViterbiLog: return -float((i + j) % 100) - 1.0f;
        default: return i == j ? 0.0f : float((i + j) % 100);
      }
    };
    NpdpOptions o;
    o.block_side = 64;
    Stopwatch sw;
    auto out = solve_blocked(inst, o);
    const double s = sw.seconds();
    volatile float sink = out.at(0, n - 1);
    (void)sink;
    if (id == SemiringId::MinPlus) minplus_s = s;
    t.row(std::string(semiring_name(id)), fmt_seconds(s),
          fmt_x(s / minplus_s));
    json.record()
        .set("section", "solve")
        .set("semiring", std::string(semiring_name(id)))
        .set("n", n)
        .set("block", 64)
        .set("seconds", s)
        .set("vs_minplus", s / minplus_s);
  }
  t.print();
}

}  // namespace
}  // namespace cellnpdp

int main(int argc, char** argv) {
  using namespace cellnpdp;
  const auto cfg = BenchConfig::from_args(argc, argv);
  print_bench_header("Ablations: scheduling blocks, register caching, "
                     "kernel width, prefetch, traceback, scheduler, semirings",
                     cfg);
  BenchJson json("semiring", cfg);
  ablate_sched_block(cfg);
  ablate_register_caching(cfg, json);
  ablate_kernel_width(cfg);
  ablate_prefetch(cfg);
  ablate_traceback(cfg);
  ablate_scheduler(cfg);
  ablate_semirings(cfg, json);
  return 0;
}
