// Traceback tests: split recovery by recomputation from the solved table.
//
// The central property is the *certificate*: for every cell, either the
// recovered split is -1 and the value equals what the seed/init produces,
// or it is k and the value equals exactly the k-relaxation recomputed from
// the final table, while every earlier k' gives a strictly worse
// candidate. Recovery reads only the finished values, which every kernel,
// block side and driver produces bit for bit, so ties go to the earliest k
// whatever the schedule.
#include <gtest/gtest.h>

#include "apps/matrix_chain/matrix_chain.hpp"
#include "common/rng.hpp"
#include "core/reference.hpp"
#include "core/solve.hpp"
#include "core/traceback.hpp"

namespace cellnpdp {
namespace {

constexpr SemiringId kOptimizing[] = {SemiringId::MinPlus, SemiringId::MaxPlus,
                                      SemiringId::ViterbiLog};

enum class Driver { Serial, Parallel, Wavefront };
constexpr Driver kDrivers[] = {Driver::Serial, Driver::Parallel,
                               Driver::Wavefront};

template <class T>
BlockedTriangularMatrix<T> solve_with(Driver d, const NpdpInstance<T>& inst,
                                      NpdpOptions opts) {
  switch (d) {
    case Driver::Serial: return solve_blocked_serial(inst, opts);
    case Driver::Parallel:
      opts.threads = 4;
      return solve_blocked_parallel(inst, opts);
    case Driver::Wavefront:
      opts.threads = 4;
      return solve_blocked_wavefront(inst, opts);
  }
  return solve_blocked_serial(inst, opts);
}

template <class Ref, class Got>
void expect_identical(const Ref& ref, const Got& got) {
  ASSERT_EQ(ref.size(), got.size());
  index_t bad = 0;
  for (index_t i = 0; i < ref.size() && bad < 5; ++i)
    for (index_t j = i; j < ref.size() && bad < 5; ++j)
      if (!(ref.at(i, j) == got.at(i, j))) {
        ADD_FAILURE() << "cell (" << i << "," << j << ") ref=" << ref.at(i, j)
                      << " got=" << got.at(i, j);
        ++bad;
      }
}

template <class S, class T, class Table>
void check_certificate_s(const NpdpInstance<T>& inst, const Table& d) {
  const bool general = inst.general_mode();
  // The k-candidate of cell (i,j), before the cell weight.
  auto cand = [&](index_t i, index_t k, index_t j) {
    T c = S::times(d.at(i, k), d.at(k, j));
    if (inst.ku != nullptr)
      c = S::times(c, inst.ku[i] * inst.kv[k] * inst.kw[j]);
    return c;
  };
  for (index_t i = 0; i < inst.n; ++i)
    for (index_t j = i + 1; j < inst.n; ++j) {
      const T val = d.at(i, j);
      const index_t k = recover_split(d, inst, i, j);
      if (k < 0) {
        // The seed survived.
        const T init = inst.init(i, j);
        const T seed =
            general ? init : S::plus(init, S::times(init, inst.init(i, i)));
        EXPECT_EQ(val, seed) << "(" << i << "," << j << ") leaf";
        continue;
      }
      ASSERT_GT(k, i);
      ASSERT_LT(k, j);
      const T best = cand(i, k, j);
      const T w = general && inst.weight ? inst.weight(i, j) : S::one();
      EXPECT_EQ(val, S::times(w, best))
          << "(" << i << "," << j << ") via k=" << k;
      for (index_t e = i + 1; e < k; ++e)
        EXPECT_TRUE(S::improves(best, cand(i, e, j)))
            << "(" << i << "," << j << ") k=" << k << " but k'=" << e
            << " ties or wins";
    }
}

template <class T, class Table>
void check_certificate(const NpdpInstance<T>& inst, const Table& d) {
  with_semiring<T>(inst.semiring, [&](auto s) {
    check_certificate_s<decltype(s)>(inst, d);
  });
}

/// Solves `inst` with every driver, checks the values bit for bit against
/// the semiring golden model, and checks the recovered splits' certificate.
template <class T>
void check_all_drivers(const NpdpInstance<T>& inst, const NpdpOptions& opts) {
  const auto ref = solve_reference_any(inst);
  for (Driver drv : kDrivers) {
    SCOPED_TRACE("driver " + std::to_string(static_cast<int>(drv)));
    const auto table = solve_with(drv, inst, opts);
    expect_identical(ref, table);
    check_certificate(inst, table);
  }
}

struct ArgCase {
  index_t n;
  index_t bs;
  KernelKind kernel;
};

class ArgminTest : public ::testing::TestWithParam<ArgCase> {};

TEST_P(ArgminTest, PureModeCertificateHolds) {
  const auto& p = GetParam();
  NpdpOptions opts;
  opts.block_side = p.bs;
  opts.kernel = p.kernel;
  for (SemiringId sr : kOptimizing) {
    SCOPED_TRACE(std::string(semiring_name(sr)));
    NpdpInstance<float> inst;
    inst.n = p.n;
    inst.semiring = sr;
    inst.init = [sr](index_t i, index_t j) {
      return semiring_init_value<float>(sr, 17, i, j);
    };
    check_all_drivers(inst, opts);
  }
  // Counting sums every split: there is no decision to recover.
  NpdpInstance<float> counting;
  counting.n = p.n;
  counting.semiring = SemiringId::Counting;
  counting.init = [](index_t, index_t) { return 1.0f; };
  EXPECT_THROW(
      recover_split(solve_blocked(counting, opts), counting, 0, p.n - 1),
      std::invalid_argument);
}

TEST_P(ArgminTest, WeightedModeCertificateHolds) {
  const auto& p = GetParam();
  NpdpOptions opts;
  opts.block_side = p.bs;
  opts.kernel = p.kernel;
  for (SemiringId sr : kOptimizing) {
    SCOPED_TRACE(std::string(semiring_name(sr)));
    // Log-probability workloads keep every input <= 0.
    const double sign = sr == SemiringId::ViterbiLog ? -1.0 : 1.0;
    NpdpInstance<double> inst;
    inst.n = p.n;
    inst.semiring = sr;
    inst.init = [sign](index_t i, index_t j) {
      return i == j ? 0.0
                    : sign * (random_init_value<double>(23, i, j) + 50.0);
    };
    inst.weight = [sign](index_t i, index_t j) {
      return sign * double((i + j) % 7);
    };
    check_all_drivers(inst, opts);
  }
}

TEST_P(ArgminTest, SeparableKTermCertificateHolds) {
  const auto& p = GetParam();
  NpdpOptions opts;
  opts.block_side = p.bs;
  opts.kernel = p.kernel;
  for (SemiringId sr : kOptimizing) {
    SCOPED_TRACE(std::string(semiring_name(sr)));
    const float sign = sr == SemiringId::ViterbiLog ? -1.0f : 1.0f;
    NpdpInstance<float> inst;
    inst.n = p.n;
    inst.semiring = sr;
    inst.init = [sign](index_t i, index_t j) {
      return i == j ? 0.0f
                    : sign * (random_init_value<float>(29, i, j) + 100.0f);
    };
    aligned_vector<float> u(static_cast<std::size_t>(p.n)),
        v(static_cast<std::size_t>(p.n)), w(static_cast<std::size_t>(p.n));
    SplitMix64 rng(4);
    for (index_t i = 0; i < p.n; ++i) {
      // Small integer factors keep u*v*w exact, FMA-contracted or not.
      u[static_cast<std::size_t>(i)] = sign * float(rng.next_below(5) + 1);
      v[static_cast<std::size_t>(i)] = float(rng.next_below(5) + 1);
      w[static_cast<std::size_t>(i)] = float(rng.next_below(5) + 1);
    }
    inst.ku = u.data();
    inst.kv = v.data();
    inst.kw = w.data();
    check_all_drivers(inst, opts);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ArgminTest,
    ::testing::Values(ArgCase{8, 8, KernelKind::Native},
                      ArgCase{40, 8, KernelKind::Native},
                      ArgCase{40, 8, KernelKind::Scalar},
                      ArgCase{64, 16, KernelKind::Wide},
                      ArgCase{100, 24, KernelKind::Native},
                      ArgCase{65, 16, KernelKind::Native}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_bs" +
             std::to_string(info.param.bs) + "_" +
             std::string(kernel_kind_name(info.param.kernel));
    });

TEST(Traceback, AllTiesRecoverTheEarliestSplitOnEveryKernelAndDriver) {
  // Unit spans cost 1, so every k of cell (i,j) gives exactly j - i: all
  // candidates tie and the recovered split must be the earliest, i + 1.
  NpdpInstance<float> inst;
  inst.n = 40;
  inst.init = [](index_t i, index_t j) {
    return i == j ? 0.0f : j == i + 1 ? 1.0f : 1000.0f;
  };
  for (index_t bs : {8, 16, 40})
    for (KernelKind kk :
         {KernelKind::Scalar, KernelKind::Native, KernelKind::Wide})
      for (Driver drv : kDrivers) {
        SCOPED_TRACE("bs " + std::to_string(bs) + " " +
                     std::string(kernel_kind_name(kk)) + " driver " +
                     std::to_string(static_cast<int>(drv)));
        NpdpOptions opts;
        opts.block_side = bs;
        opts.kernel = kk;
        const auto table = solve_with(drv, inst, opts);
        index_t wrong = 0;
        for (index_t i = 0; i < inst.n; ++i)
          for (index_t j = i + 1; j < inst.n; ++j) {
            ASSERT_EQ(table.at(i, j), float(j - i));
            const index_t want = j == i + 1 ? -1 : i + 1;
            if (recover_split(table, inst, i, j) != want) ++wrong;
          }
        EXPECT_EQ(wrong, 0);
      }
}

TEST(Traceback, VisitSplitsReconstructsMatrixChainParenthesization) {
  // CLRS 15.2: ((A0 (A1 A2)) ((A3 A4) A5)).
  const std::vector<double> p{30, 35, 15, 5, 10, 20, 25};
  const auto inst = matrix_chain_instance(p);
  NpdpOptions opts;
  opts.block_side = 8;
  const auto table = solve_blocked(inst, opts);

  EXPECT_EQ(table.at(0, 6), 15125.0);
  // Root split at boundary 3; sub-splits 2 and 5.
  EXPECT_EQ(recover_split(table, inst, 0, 6), 3);
  EXPECT_EQ(recover_split(table, inst, 0, 3), 1);  // A0 | (A1 A2)
  EXPECT_EQ(recover_split(table, inst, 3, 6), 5);

  index_t splits = 0;
  visit_splits(table, inst, 0, 6, [&](index_t i, index_t k, index_t j) {
    EXPECT_LT(i, k);
    EXPECT_LT(k, j);
    ++splits;
  });
  // A chain of 6 matrices has exactly 5 internal products, but spans of
  // length 1 are seeds: splits occur only on spans >= 2.
  EXPECT_EQ(splits, 5);
}

TEST(Traceback, SplitCostsAddUpForMatrixChain) {
  // Sum of p[i]*p[k]*p[j] over the split tree must equal the total cost.
  SplitMix64 rng(77);
  std::vector<double> p(41);
  for (auto& x : p) x = double(rng.next_below(30) + 1);
  const auto inst = matrix_chain_instance(p);
  NpdpOptions opts;
  opts.block_side = 8;
  const auto table = solve_blocked(inst, opts);

  double total = 0;
  visit_splits(table, inst, 0, inst.n - 1,
               [&](index_t i, index_t k, index_t j) {
                 total += p[static_cast<std::size_t>(i)] *
                          p[static_cast<std::size_t>(k)] *
                          p[static_cast<std::size_t>(j)];
               });
  EXPECT_NEAR(total, double(table.at(0, inst.n - 1)), 1e-6);
}

TEST(Traceback, ParallelAgreesOnValuesEvenIfTiesDiffer) {
  // Recovery reads only the finished values, so a parallel solve yields
  // the serial solve's splits exactly, ties included.
  NpdpInstance<float> inst;
  inst.n = 96;
  inst.init = [](index_t i, index_t j) {
    return random_init_value<float>(3, i, j);
  };
  NpdpOptions opts;
  opts.block_side = 16;
  const auto serial = solve_with(Driver::Serial, inst, opts);
  const auto parallel = solve_with(Driver::Parallel, inst, opts);
  expect_identical(serial, parallel);
  check_certificate(inst, parallel);
  for (index_t i = 0; i < inst.n; ++i)
    for (index_t j = i + 1; j < inst.n; ++j)
      ASSERT_EQ(recover_split(parallel, inst, i, j),
                recover_split(serial, inst, i, j));
}

}  // namespace
}  // namespace cellnpdp
