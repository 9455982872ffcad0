// Semiring-generic engine property tests: every semiring instantiation of
// the blocked SIMD engine must match the semiring-generic scalar reference
// element-for-element with NO tolerance, across block sizes, kernels,
// drivers, and instance modes (pure / weighted / separable).
//
// Bit-exactness across the blocked/SIMD reordering holds because:
//   - min-plus / max-plus / viterbi-log are idempotent selections over
//     identically-computed candidates (each candidate value is the same
//     float expression in every path, and min/max are order-insensitive);
//   - counting is exact because the tests keep every intermediate an
//     integer small enough for the cell type's mantissa, and integer
//     addition in floating point is associative while it stays exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "cellsim/work_model.hpp"
#include "common/rng.hpp"
#include "core/reference.hpp"
#include "core/solve.hpp"
#include "layout/convert.hpp"

namespace cellnpdp {
namespace {

enum class Mode { Pure, Weighted, Separable };

constexpr SemiringId kAll[] = {SemiringId::MinPlus, SemiringId::MaxPlus,
                               SemiringId::Counting, SemiringId::ViterbiLog};

/// Canonical instance for a (semiring, mode) pair. The separable-factor
/// and weight storage must outlive the instance.
template <class T>
NpdpInstance<T> make_instance(SemiringId sr, Mode mode, index_t n,
                              std::uint64_t seed, std::vector<T>* factors) {
  NpdpInstance<T> inst;
  inst.n = n;
  inst.semiring = sr;
  inst.init = [sr, seed](index_t i, index_t j) {
    return semiring_init_value<T>(sr, seed, i, j);
  };
  if (mode == Mode::Weighted) {
    // Small per-cell weights in the flavour of the semiring: additive
    // semirings take small magnitudes of either sign, counting takes
    // small positive integers (keeping products integral and >= 1).
    inst.weight = [sr](index_t i, index_t j) {
      const index_t r = (i + 2 * j) % 3;
      switch (sr) {
        case SemiringId::Counting: return T(1 + r);
        case SemiringId::ViterbiLog: return T(-r);
        default: return T(r);
      }
    };
  } else if (mode == Mode::Separable) {
    factors->assign(static_cast<std::size_t>(3 * n), T(0));
    SplitMix64 rng(seed * 31 + 7);
    for (index_t i = 0; i < 3 * n; ++i) {
      // Counting factors stay in {1, 2} so cells grow slowly and every
      // intermediate remains an exact integer; the additive semirings
      // take small mixed-sign reals.
      (*factors)[static_cast<std::size_t>(i)] =
          sr == SemiringId::Counting ? T(1 + rng.next_below(2))
                                     : T(rng.next_in(-2.0, 2.0));
    }
    inst.ku = factors->data();
    inst.kv = factors->data() + n;
    inst.kw = factors->data() + 2 * n;
  }
  return inst;
}

/// EXPECT_EQ every triangle cell (exact equality — NaN-free by
/// construction, so == is the right comparison).
template <class Ref, class Got>
void expect_identical(const Ref& ref, const Got& got, const char* what) {
  ASSERT_EQ(ref.size(), got.size());
  index_t bad = 0;
  for (index_t i = 0; i < ref.size() && bad < 5; ++i)
    for (index_t j = i; j < ref.size() && bad < 5; ++j)
      if (!(ref.at(i, j) == got.at(i, j))) {
        ADD_FAILURE() << what << ": cell (" << i << "," << j
                      << ") ref=" << ref.at(i, j) << " got=" << got.at(i, j);
        ++bad;
      }
}

TEST(SemiringNames, RoundTrip) {
  for (SemiringId sr : kAll) {
    SemiringId back;
    ASSERT_TRUE(semiring_from_name(semiring_name(sr), &back));
    EXPECT_EQ(back, sr);
  }
  SemiringId out;
  EXPECT_FALSE(semiring_from_name("tropical-deluxe", &out));
}

TEST(SemiringConstants, ZeroAnnihilatesAndOneIsNeutral) {
  with_semiring<float>(SemiringId::MinPlus, [](auto) {});
  for (SemiringId sr : kAll) {
    with_semiring<double>(sr, [](auto s) {
      using S = decltype(s);
      const double x = 3.25;
      EXPECT_EQ(S::plus(S::zero(), x), x);
      EXPECT_EQ(S::times(S::one(), x), x);
    });
  }
}

TEST(SemiringReference, MinPlusInstantiationMatchesLegacyReference) {
  for (Mode mode : {Mode::Pure, Mode::Weighted, Mode::Separable}) {
    std::vector<float> factors;
    const auto inst =
        make_instance<float>(SemiringId::MinPlus, mode, 61, 5, &factors);
    const auto legacy = solve_reference(inst);
    const auto generic = solve_reference_semiring<MinPlusSemiring<float>>(inst);
    expect_identical(legacy, generic, "legacy vs generic reference");
  }
}

// The core property sweep: blocked SIMD engine == generic scalar
// reference, for every semiring x mode x block size. Counting runs in
// double at sizes where every intermediate is an exact integer (see the
// header comment); the selection semirings sweep larger float tables.
TEST(SemiringProperty, BlockedMatchesReferenceAcrossBlockSizes) {
  for (SemiringId sr : kAll) {
    const bool counting = sr == SemiringId::Counting;
    for (Mode mode : {Mode::Pure, Mode::Weighted, Mode::Separable}) {
      for (index_t bs : {8, 16, 24, 32}) {
        NpdpOptions opts;
        opts.block_side = bs;
        if (counting) {
          // Sizes chosen so the largest cell stays far below 2^53 (cell
          // magnitude grows ~3-5 bits per span step depending on mode).
          const index_t n = mode == Mode::Pure        ? 12
                            : mode == Mode::Weighted  ? 10
                                                      : 9;
          std::vector<double> factors;
          const auto inst =
              make_instance<double>(sr, mode, n, 3, &factors);
          const auto ref = solve_reference_any(inst);
          const auto got = solve_blocked(inst, opts);
          expect_identical(ref, to_triangular(got), "counting");
        } else {
          std::vector<float> factors;
          const auto inst = make_instance<float>(sr, mode, 75, 3, &factors);
          const auto ref = solve_reference_any(inst);
          const auto got = solve_blocked(inst, opts);
          expect_identical(ref, to_triangular(got),
                           std::string(semiring_name(sr)).c_str());
        }
      }
    }
  }
}

TEST(SemiringProperty, EveryKernelKindMatchesReference) {
  for (SemiringId sr : kAll) {
    const bool counting = sr == SemiringId::Counting;
    for (KernelKind kind :
         {KernelKind::Scalar, KernelKind::Native, KernelKind::Wide}) {
      NpdpOptions opts;
      opts.block_side = 16;
      opts.kernel = kind;
      if (counting) {
        std::vector<double> factors;
        const auto inst =
            make_instance<double>(sr, Mode::Pure, 12, 11, &factors);
        const auto ref = solve_reference_any(inst);
        const auto got = solve_blocked(inst, opts);
        expect_identical(ref, to_triangular(got), "counting kernel");
      } else {
        std::vector<float> factors;
        const auto inst =
            make_instance<float>(sr, Mode::Weighted, 70, 11, &factors);
        const auto ref = solve_reference_any(inst);
        const auto got = solve_blocked(inst, opts);
        expect_identical(ref, to_triangular(got), "kernel sweep");
      }
    }
  }
}

// The parallel and wavefront drivers relax blocks in a different global
// order; for the non-idempotent counting semiring this is the test that
// the exactly-once coverage argument survives tier-2 scheduling.
TEST(SemiringProperty, ParallelAndWavefrontDriversMatch) {
  for (SemiringId sr : kAll) {
    const bool counting = sr == SemiringId::Counting;
    NpdpOptions opts;
    opts.block_side = 8;
    opts.threads = 4;
    opts.sched_side = 2;
    if (counting) {
      std::vector<double> factors;
      const auto inst = make_instance<double>(sr, Mode::Pure, 12, 9, &factors);
      const auto ref = solve_reference_any(inst);
      expect_identical(ref, to_triangular(solve_blocked_parallel(inst, opts)),
                       "counting parallel");
      SolveStats ss;
      expect_identical(ref,
                       to_triangular(solve_blocked_wavefront(inst, opts, &ss)),
                       "counting wavefront");
    } else {
      std::vector<float> factors;
      const auto inst = make_instance<float>(sr, Mode::Weighted, 90, 9,
                                             &factors);
      const auto ref = solve_reference_any(inst);
      expect_identical(ref, to_triangular(solve_blocked_parallel(inst, opts)),
                       "parallel");
      SolveStats ss;
      expect_identical(ref,
                       to_triangular(solve_blocked_wavefront(inst, opts, &ss)),
                       "wavefront");
    }
  }
}

TEST(SemiringCounting, AgreesWithIndependentCombinatorics) {
  // With init == 1 everywhere and no weights, pure-mode counting solves
  //   d[i][j] = seed(=2 for j>i: init + init*d[i][i]) + sum_k d[i][k]d[k][j]
  // which a direct O(n^3) evaluation reproduces; this pins the engine to
  // an arithmetic meaning, not just to the shared reference formula.
  NpdpInstance<double> inst;
  inst.n = 12;
  inst.semiring = SemiringId::Counting;
  inst.init = [](index_t, index_t) { return 1.0; };
  std::vector<std::vector<double>> d(
      static_cast<std::size_t>(inst.n),
      std::vector<double>(static_cast<std::size_t>(inst.n), 0.0));
  for (index_t i = 0; i < inst.n; ++i)
    d[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)] = 1.0;
  for (index_t span = 1; span < inst.n; ++span)
    for (index_t i = 0; i + span < inst.n; ++i) {
      const index_t j = i + span;
      double acc = 2.0;  // init + init * d[i][i]
      for (index_t k = i + 1; k < j; ++k)
        acc += d[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)] *
               d[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)];
      d[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = acc;
    }
  NpdpOptions opts;
  opts.block_side = 8;
  const auto got = solve_blocked(inst, opts);
  for (index_t i = 0; i < inst.n; ++i)
    for (index_t j = i; j < inst.n; ++j)
      EXPECT_EQ(got.at(i, j),
                d[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)])
          << i << "," << j;
}

TEST(SemiringViterbiLog, MostProbableDerivationInLogSpace) {
  // viterbi-log runs max-plus arithmetic over log-probs: exponentiating
  // the solved cell must equal the max over split products of
  // probabilities (checked on a small instance against a direct search).
  NpdpInstance<float> inst;
  inst.n = 9;
  inst.semiring = SemiringId::ViterbiLog;
  inst.init = [](index_t i, index_t j) {
    return semiring_init_value<float>(SemiringId::ViterbiLog, 21, i, j) /
           100.0f;  // log-probs in (-1, 0]
  };
  NpdpOptions opts;
  opts.block_side = 8;
  const auto got = solve_blocked(inst, opts);
  const auto ref = solve_reference_any(inst);
  expect_identical(ref, to_triangular(got), "viterbi-log");
  for (index_t i = 0; i < inst.n; ++i)
    for (index_t j = i; j < inst.n; ++j) {
      EXPECT_LE(got.at(i, j), 0.0f);
      EXPECT_GE(got.at(i, j), inst.init(i, j));  // max can only raise
    }
}

TEST(SemiringEngine, InstantiationMismatchThrows) {
  NpdpInstance<float> inst;
  inst.n = 8;
  inst.semiring = SemiringId::Counting;
  inst.init = [](index_t, index_t) { return 1.0f; };
  NpdpOptions opts;
  opts.block_side = 8;
  BlockedTriangularMatrix<float> mat(inst.n, opts.block_side);  // +inf pad
  // The matrix carries min-plus padding but the instance asks for
  // counting: the engine must refuse rather than read poisoned padding.
  ExecutionContext ctx;
  ctx.tuning = opts;
  EXPECT_THROW(solve_blocked_serial_into(mat, inst, ctx),
               std::invalid_argument);
  mat.reset(semiring_zero<float>(SemiringId::Counting));
  EXPECT_EQ(solve_blocked_serial_into(mat, inst, ctx), SolveStatus::Ok);
}

// --- stage-1 block product through the drivers ---------------------------

/// Every triangle cell bit for bit, so NaN cells compare too.
template <class T>
void expect_same_bits(const TriangularMatrix<T>& ref,
                      const BlockedTriangularMatrix<T>& got,
                      const std::string& what) {
  ASSERT_EQ(ref.size(), got.size());
  index_t bad = 0;
  for (index_t i = 0; i < ref.size() && bad < 5; ++i)
    for (index_t j = i; j < ref.size() && bad < 5; ++j) {
      const T r = ref.at(i, j), g = got.at(i, j);
      if (std::memcmp(&r, &g, sizeof(T)) != 0) {
        ADD_FAILURE() << what << ": cell (" << i << "," << j << ") ref=" << r
                      << " got=" << g;
        ++bad;
      }
    }
}

constexpr KernelKind kKinds[] = {KernelKind::Scalar, KernelKind::Native,
                                 KernelKind::Wide};

/// Serial and parallel solves of one instance against the reference, plus
/// the serial run's work counts against cellsim::total_work (kernel_calls
/// counts tile equivalents, so it is the same whichever stage-1 kernel ran).
template <class T>
void expect_drivers_match(const NpdpInstance<T>& inst,
                          const TriangularMatrix<T>& ref, KernelKind kind,
                          index_t bs, const std::string& what) {
  ExecutionContext ctx;
  ctx.tuning.block_side = bs;
  ctx.tuning.kernel = kind;
  SolveStats ss;
  ctx.stats = &ss;
  const T pad = semiring_zero<T>(inst.semiring);
  BlockedTriangularMatrix<T> ser(inst.n, bs, pad), par(inst.n, bs, pad);
  ASSERT_EQ(solve_blocked_serial_into(ser, inst, ctx), SolveStatus::Ok);
  expect_same_bits(ref, ser, what + " serial");
  const BlockWork work =
      total_work(inst.n, bs, cb_kernel<T>(kind).width);
  EXPECT_EQ(ss.engine.kernel_calls, work.kernel_calls) << what;
  EXPECT_EQ(ss.engine.scalar_relax(), work.scalar_relax) << what;
  EXPECT_EQ(ss.engine.cells_finalized, work.cells) << what;
  ctx.stats = nullptr;
  ctx.tuning.threads = 3;
  ctx.tuning.sched_side = 2;
  ASSERT_EQ(solve_blocked_parallel_into(par, inst, ctx), SolveStatus::Ok);
  expect_same_bits(ref, par, what + " parallel");
}

/// Block sides W and 3W (edge strips for every panel shape), 64 and 128,
/// each with n not a multiple of the side and at least one middle block
/// pair. Counting stays exact only at small n, where cells are integers
/// below the mantissa: it runs in double at W and 3W, and the kernel tests
/// cover its float and larger-side block products.
template <class T>
void panel_sweep(SemiringId sr) {
  const bool counting = sr == SemiringId::Counting;
  if (counting && sizeof(T) == 4) return;
  for (Mode mode : {Mode::Pure, Mode::Weighted}) {
    for (KernelKind kind : kKinds) {
      const index_t w = cb_kernel<T>(kind).width;
      for (index_t bs : {w, 3 * w, index_t(64), index_t(128)}) {
        if (counting && bs > 3 * w) continue;
        const index_t n = counting ? 11 : std::max<index_t>(71, 2 * bs + 5);
        std::vector<T> factors;
        const auto inst = make_instance<T>(sr, mode, n, 17, &factors);
        const auto ref = solve_reference_any(inst);
        expect_drivers_match(
            inst, ref, kind, bs,
            std::string(semiring_name(sr)) + " " +
                std::string(kernel_kind_name(kind)) + " bs=" +
                std::to_string(bs) + " T=" + (sizeof(T) == 4 ? "f" : "d") +
                (mode == Mode::Pure ? " pure" : " weighted"));
      }
    }
  }
}

TEST(SemiringBlockProduct, EveryKindAndBlockSideMatchesReference) {
  for (SemiringId sr : kAll) {
    panel_sweep<float>(sr);
    panel_sweep<double>(sr);
  }
}

/// NaN and +-inf init cells: the semirings' (+) ignores a NaN candidate
/// and keeps a NaN running value (vmin/vmax are `b < a ? b : a` in every
/// backend), and every cell folds k in ascending order within a kernel
/// call, so scalar, simd128, simd256 and the reference agree bit for bit.
/// A NaN cell stays confined to itself.
template <class T>
void special_values_case(SemiringId sr) {
  const bool counting = sr == SemiringId::Counting;
  const T nan = std::numeric_limits<T>::quiet_NaN();
  const T inf = std::numeric_limits<T>::infinity();
  const index_t n = counting ? 11 : 77;
  NpdpInstance<T> inst;
  inst.n = n;
  inst.semiring = sr;
  inst.init = [=](index_t i, index_t j) {
    if (i == 2 && j == 7) return nan;
    if (i == 1 && j == 9) return inf;
    if (!counting && i == 5 && j == 40) return nan;
    if (!counting && i == 10 && j == 60) return -inf;
    if (!counting && i == 30 && j == 31) return inf;
    return semiring_init_value<T>(sr, 5, i, j);
  };
  const auto ref = solve_reference_any(inst);
  if (!counting) {
    index_t nan_cells = 0;
    for (index_t i = 0; i < n; ++i)
      for (index_t j = i; j < n; ++j) nan_cells += std::isnan(ref.at(i, j));
    EXPECT_EQ(nan_cells, 2) << semiring_name(sr);
  }
  for (KernelKind kind : kKinds)
    for (index_t bs : {index_t(8), index_t(24)})
      expect_drivers_match(inst, ref, kind, bs,
                           std::string(semiring_name(sr)) + " specials " +
                               std::string(kernel_kind_name(kind)) +
                               " bs=" + std::to_string(bs));
}

TEST(SemiringSpecialValues, NanAndInfinityAgreeAcrossKernelsBitForBit) {
  for (SemiringId sr : kAll) {
    special_values_case<float>(sr);
    special_values_case<double>(sr);
  }
}

TEST(SemiringMaxPlus, NativeMatchesNegationAdapterBitForBit) {
  // Native max-plus against the semiring golden model, bit for bit, on
  // mixed-sign seeds (where max and min give different closures).
  for (index_t n : {5, 40, 77}) {
    NpdpInstance<float> inst;
    inst.n = n;
    inst.semiring = SemiringId::MaxPlus;
    inst.init = [n](index_t i, index_t j) {
      return random_init_value<float>(900 + static_cast<std::uint64_t>(n), i,
                                      j) -
             50.0f;
    };
    NpdpOptions opts;
    opts.block_side = 16;
    const auto native = solve_blocked(inst, opts);
    expect_identical(solve_reference_semiring<MaxPlusSemiring<float>>(inst),
                     native, "native vs golden model");
  }
}

}  // namespace
}  // namespace cellnpdp
