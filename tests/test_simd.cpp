// SIMD wrapper and computing-block kernel tests. Every SIMD path must be
// bit-identical to the deliberately scalar reference path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "simd/dispatch.hpp"

namespace cellnpdp {
namespace {

template <class T, int W>
void vec_roundtrip_case() {
  alignas(kBufferAlignment) T in[W], out[W];
  for (int i = 0; i < W; ++i) in[i] = T(i) * T(1.5) + T(1);
  auto v = Vec<T, W>::load(in);
  v.store(out);
  for (int i = 0; i < W; ++i) EXPECT_EQ(out[i], in[i]);

  auto s = Vec<T, W>::set1(T(7));
  s.store(out);
  for (int i = 0; i < W; ++i) EXPECT_EQ(out[i], T(7));
}

TEST(Vec, LoadStoreSet1AllWidths) {
  vec_roundtrip_case<float, 4>();
  vec_roundtrip_case<float, 8>();
  vec_roundtrip_case<double, 2>();
  vec_roundtrip_case<double, 4>();
  vec_roundtrip_case<float, 3>();  // generic fallback width
}

template <class T, int W>
void vec_arith_case() {
  alignas(kBufferAlignment) T a[W], b[W], out[W];
  SplitMix64 rng(99);
  for (int i = 0; i < W; ++i) {
    a[i] = T(rng.next_in(-50, 50));
    b[i] = T(rng.next_in(-50, 50));
  }
  auto va = Vec<T, W>::load(a), vb = Vec<T, W>::load(b);
  (va + vb).store(out);
  for (int i = 0; i < W; ++i) EXPECT_EQ(out[i], a[i] + b[i]);
  (va * vb).store(out);
  for (int i = 0; i < W; ++i) EXPECT_EQ(out[i], a[i] * b[i]);
  vmin(va, vb).store(out);
  for (int i = 0; i < W; ++i) EXPECT_EQ(out[i], std::min(a[i], b[i]));
  vmax(va, vb).store(out);
  for (int i = 0; i < W; ++i) EXPECT_EQ(out[i], std::max(a[i], b[i]));
}

TEST(Vec, AddMulMinMaxAllWidths) {
  vec_arith_case<float, 4>();
  vec_arith_case<float, 8>();
  vec_arith_case<double, 2>();
  vec_arith_case<double, 4>();
  vec_arith_case<double, 5>();  // generic fallback width
}

template <class T, int W, int L>
void splat_lane_case() {
  alignas(kBufferAlignment) T in[W], out[W];
  for (int i = 0; i < W; ++i) in[i] = T(i + 1);
  auto v = Vec<T, W>::template splat<L>(Vec<T, W>::load(in));
  v.store(out);
  for (int i = 0; i < W; ++i) EXPECT_EQ(out[i], T(L + 1)) << "lane " << L;
}

TEST(Vec, SplatEveryLane) {
  splat_lane_case<float, 4, 0>();
  splat_lane_case<float, 4, 1>();
  splat_lane_case<float, 4, 2>();
  splat_lane_case<float, 4, 3>();
  splat_lane_case<float, 8, 0>();
  splat_lane_case<float, 8, 3>();
  splat_lane_case<float, 8, 4>();
  splat_lane_case<float, 8, 7>();
  splat_lane_case<double, 2, 0>();
  splat_lane_case<double, 2, 1>();
  splat_lane_case<double, 4, 0>();
  splat_lane_case<double, 4, 1>();
  splat_lane_case<double, 4, 2>();
  splat_lane_case<double, 4, 3>();
}

// --- computing-block kernels -------------------------------------------

template <class T>
aligned_vector<T> random_tile(index_t side, index_t stride, std::uint64_t seed,
                              double inf_fraction = 0.0) {
  aligned_vector<T> buf(static_cast<std::size_t>(side * stride));
  SplitMix64 rng(seed);
  for (auto& x : buf) {
    x = rng.next_unit() < inf_fraction ? minplus_identity<T>()
                                       : T(rng.next_in(0, 100));
  }
  return buf;
}

template <class T, int W>
void kernel_matches_scalar_case(std::uint64_t seed, double inf_fraction) {
  const index_t stride = 2 * W + 8;  // exercise non-trivial row strides
  auto c0 = random_tile<T>(W, stride, seed);
  auto a = random_tile<T>(W, stride, seed + 1, inf_fraction);
  auto b = random_tile<T>(W, stride, seed + 2, inf_fraction);
  auto c1 = c0;

  minplus_cb<T, W>(c0.data(), stride, a.data(), stride, b.data(), stride);
  minplus_tile_scalar<T>(c1.data(), stride, a.data(), stride, b.data(), stride,
                         W);
  for (index_t r = 0; r < W; ++r)
    for (index_t col = 0; col < W; ++col)
      EXPECT_EQ(c0[r * stride + col], c1[r * stride + col])
          << "W=" << W << " r=" << r << " c=" << col;
}

TEST(Kernels, MinPlusMatchesScalarAllWidths) {
  for (std::uint64_t s = 0; s < 8; ++s) {
    kernel_matches_scalar_case<float, 4>(s, 0.0);
    kernel_matches_scalar_case<float, 8>(s, 0.0);
    kernel_matches_scalar_case<double, 2>(s, 0.0);
    kernel_matches_scalar_case<double, 4>(s, 0.0);
  }
}

TEST(Kernels, MinPlusHandlesIdentityPadding) {
  // Padded tiles mix +inf into A and B; the kernel must treat them as
  // no-ops exactly like the scalar path.
  for (std::uint64_t s = 0; s < 8; ++s) {
    kernel_matches_scalar_case<float, 4>(s + 100, 0.3);
    kernel_matches_scalar_case<float, 8>(s + 100, 0.3);
    kernel_matches_scalar_case<double, 2>(s + 100, 0.3);
    kernel_matches_scalar_case<double, 4>(s + 100, 0.3);
  }
}

TEST(Kernels, AllIdentityInputsLeaveCUntouched) {
  constexpr int W = 4;
  const index_t stride = 16;
  auto c0 = random_tile<float>(W, stride, 5);
  auto a = random_tile<float>(W, stride, 6, 1.0);  // all +inf
  auto b = random_tile<float>(W, stride, 7, 1.0);
  auto expect = c0;
  minplus_cb<float, W>(c0.data(), stride, a.data(), stride, b.data(), stride);
  EXPECT_EQ(c0, expect);
}

template <class T, int W>
void sep_kernel_case(std::uint64_t seed) {
  const index_t stride = 3 * W;
  auto c0 = random_tile<T>(W, stride, seed);
  auto a = random_tile<T>(W, stride, seed + 1);
  auto b = random_tile<T>(W, stride, seed + 2);
  auto c1 = c0;
  // Integer-valued factors keep products exact at any association, but the
  // kernels are also required to associate (u*v)*w identically.
  alignas(kBufferAlignment) T u[W], v[W], w[W];
  SplitMix64 rng(seed + 3);
  for (int i = 0; i < W; ++i) {
    u[i] = T(double(rng.next_below(10)));
    v[i] = T(double(rng.next_below(10)));
    w[i] = T(double(rng.next_below(10)));
  }
  minplus_cb_sep<T, W>(c0.data(), stride, a.data(), stride, b.data(), stride,
                       u, v, w);
  minplus_tile_scalar_sep<T>(c1.data(), stride, a.data(), stride, b.data(),
                             stride, W, u, v, w);
  for (index_t r = 0; r < W; ++r)
    for (index_t col = 0; col < W; ++col)
      EXPECT_EQ(c0[r * stride + col], c1[r * stride + col]);
}

TEST(Kernels, SeparableTermMatchesScalarAllWidths) {
  for (std::uint64_t s = 0; s < 8; ++s) {
    sep_kernel_case<float, 4>(s);
    sep_kernel_case<float, 8>(s);
    sep_kernel_case<double, 2>(s);
    sep_kernel_case<double, 4>(s);
  }
}

// --- semiring-generic kernels ------------------------------------------

/// Tile filled with values drawn from the semiring's natural domain;
/// `zero_fraction` mixes in the semiring zero (the padding value the
/// blocked layout uses) so annihilator handling gets exercised too.
template <class S>
aligned_vector<typename S::value_type> random_semiring_tile(
    index_t side, index_t stride, std::uint64_t seed, double zero_fraction) {
  using T = typename S::value_type;
  aligned_vector<T> buf(static_cast<std::size_t>(side * stride));
  SplitMix64 rng(seed);
  for (auto& x : buf) {
    if (rng.next_unit() < zero_fraction) {
      x = S::zero();
    } else if constexpr (S::id == SemiringId::Counting) {
      x = T(rng.next_below(4));  // small integers: exact in float or double
    } else if constexpr (S::id == SemiringId::ViterbiLog) {
      x = T(-double(rng.next_below(50)));  // log-probabilities are <= 0
    } else {
      x = T(rng.next_in(-50, 50));
    }
  }
  return buf;
}

template <class S, int W>
void semiring_kernel_case(std::uint64_t seed, double zero_fraction) {
  using T = typename S::value_type;
  const index_t stride = 2 * W + 8;
  auto c0 = random_semiring_tile<S>(W, stride, seed, 0.0);
  auto a = random_semiring_tile<S>(W, stride, seed + 1, zero_fraction);
  auto b = random_semiring_tile<S>(W, stride, seed + 2, zero_fraction);
  auto c1 = c0;

  semiring_cb<S, T, W>(c0.data(), stride, a.data(), stride, b.data(), stride);
  semiring_tile_scalar<S, T>(c1.data(), stride, a.data(), stride, b.data(),
                             stride, W);
  for (index_t r = 0; r < W; ++r)
    for (index_t col = 0; col < W; ++col)
      EXPECT_EQ(c0[r * stride + col], c1[r * stride + col])
          << semiring_name(S::id) << " W=" << W << " r=" << r << " c=" << col;
}

template <class S>
void semiring_kernel_all_widths(std::uint64_t seed, double zero_fraction) {
  using T = typename S::value_type;
  if constexpr (std::is_same_v<T, float>) {
    semiring_kernel_case<S, 4>(seed, zero_fraction);
    semiring_kernel_case<S, 8>(seed, zero_fraction);
  } else {
    semiring_kernel_case<S, 2>(seed, zero_fraction);
    semiring_kernel_case<S, 4>(seed, zero_fraction);
  }
}

TEST(Kernels, EverySemiringMatchesScalarAllWidths) {
  for (std::uint64_t s = 0; s < 4; ++s) {
    semiring_kernel_all_widths<MinPlusSemiring<float>>(s, 0.0);
    semiring_kernel_all_widths<MinPlusSemiring<double>>(s, 0.0);
    semiring_kernel_all_widths<MaxPlusSemiring<float>>(s, 0.0);
    semiring_kernel_all_widths<MaxPlusSemiring<double>>(s, 0.0);
    semiring_kernel_all_widths<CountingSemiring<float>>(s, 0.0);
    semiring_kernel_all_widths<CountingSemiring<double>>(s, 0.0);
    semiring_kernel_all_widths<ViterbiLogSemiring<float>>(s, 0.0);
  }
}

TEST(Kernels, EverySemiringHandlesZeroPadding) {
  // The annihilator (padding) value must behave as a no-op contribution in
  // every semiring, SIMD and scalar alike: -inf kills a max-plus term the
  // same way 0 kills a counting product.
  for (std::uint64_t s = 0; s < 4; ++s) {
    semiring_kernel_all_widths<MinPlusSemiring<float>>(s + 100, 0.3);
    semiring_kernel_all_widths<MaxPlusSemiring<float>>(s + 100, 0.3);
    semiring_kernel_all_widths<CountingSemiring<double>>(s + 100, 0.3);
    semiring_kernel_all_widths<ViterbiLogSemiring<float>>(s + 100, 0.3);
  }
}

template <class S, int W>
void semiring_sep_kernel_case(std::uint64_t seed) {
  using T = typename S::value_type;
  const index_t stride = 3 * W;
  auto c0 = random_semiring_tile<S>(W, stride, seed, 0.0);
  auto a = random_semiring_tile<S>(W, stride, seed + 1, 0.0);
  auto b = random_semiring_tile<S>(W, stride, seed + 2, 0.0);
  auto c1 = c0;
  alignas(kBufferAlignment) T u[W], v[W], w[W];
  SplitMix64 rng(seed + 3);
  for (int i = 0; i < W; ++i) {
    u[i] = T(double(rng.next_below(4)));
    v[i] = T(double(rng.next_below(4)));
    w[i] = T(double(rng.next_below(4)));
  }
  semiring_cb_sep<S, T, W>(c0.data(), stride, a.data(), stride, b.data(),
                           stride, u, v, w);
  semiring_tile_scalar_sep<S, T>(c1.data(), stride, a.data(), stride, b.data(),
                                 stride, W, u, v, w);
  for (index_t r = 0; r < W; ++r)
    for (index_t col = 0; col < W; ++col)
      EXPECT_EQ(c0[r * stride + col], c1[r * stride + col])
          << semiring_name(S::id) << " W=" << W;
}

TEST(Kernels, SeparableTermEverySemiring) {
  for (std::uint64_t s = 0; s < 4; ++s) {
    semiring_sep_kernel_case<MaxPlusSemiring<float>, 8>(s);
    semiring_sep_kernel_case<MaxPlusSemiring<double>, 4>(s);
    semiring_sep_kernel_case<CountingSemiring<double>, 4>(s);
    semiring_sep_kernel_case<ViterbiLogSemiring<float>, 4>(s);
  }
}

// --- stage-1 block product ---------------------------------------------

/// The WxW tile walk of one middle block pair: tb^3 computing-block calls
/// in (rt, kt, ct) order, the engine's tile path.
template <class T>
void tile_block_product(const CbKernel<T>& k, T* C, const T* A, const T* B,
                        index_t bs) {
  const index_t w = k.width, tb = bs / w;
  for (index_t rt = 0; rt < tb; ++rt)
    for (index_t kt = 0; kt < tb; ++kt)
      for (index_t ct = 0; ct < tb; ++ct)
        k.pure(C + rt * w * bs + ct * w, bs, A + rt * w * bs + kt * w, bs,
               B + kt * w * bs + ct * w, bs);
}

template <class T>
bool same_bits(const T* x, const T* y, index_t count) {
  return std::memcmp(x, y, static_cast<std::size_t>(count) * sizeof(T)) == 0;
}

/// k.block against the tile walk and the whole-block scalar tile, bit for
/// bit, at block sides the panel divides and ones it leaves edge strips
/// in. C sits between guard cells that must survive untouched; A and B are
/// exactly bs*bs cells, so an over-read shows under ASan.
template <class S>
void block_product_case(KernelKind kind, std::uint64_t seed) {
  using T = typename S::value_type;
  const CbKernel<T> k = cb_kernel<T, S>(kind);
  constexpr index_t guard = kBufferAlignment;  // whole aligned lines
  const T sentinel = T(12345);
  for (index_t bs : {k.width, 3 * k.width, index_t(64), index_t(128)}) {
    const index_t cells = bs * bs;
    auto a = random_semiring_tile<S>(bs, bs, seed + 1, 0.2);
    auto b = random_semiring_tile<S>(bs, bs, seed + 2, 0.2);
    auto c = random_semiring_tile<S>(bs, bs, seed + 3, 0.1);
    if constexpr (S::idempotent) {
      // NaN and both infinities in every operand.
      const T nan = std::numeric_limits<T>::quiet_NaN();
      const T inf = std::numeric_limits<T>::infinity();
      const T special[] = {nan, inf, -inf};
      for (int s = 0; s < 3; ++s) {
        a[static_cast<std::size_t>((7 * s + 1) % cells)] = special[s];
        b[static_cast<std::size_t>((5 * s + 2) % cells)] = special[s];
        c[static_cast<std::size_t>((3 * s + 3) % cells)] = special[s];
      }
    }
    aligned_vector<T> panel(static_cast<std::size_t>(cells + 2 * guard),
                            sentinel);
    std::copy(c.begin(), c.end(), panel.begin() + guard);
    auto tiles = c, scalar = c;

    k.block(panel.data() + guard, a.data(), b.data(), bs);
    tile_block_product(k, tiles.data(), a.data(), b.data(), bs);
    semiring_tile_scalar<S, T>(scalar.data(), bs, a.data(), bs, b.data(), bs,
                               bs);
    const std::string what = std::string(semiring_name(S::id)) + " " +
                             std::string(kernel_kind_name(kind)) +
                             " bs=" + std::to_string(bs);
    EXPECT_TRUE(same_bits(panel.data() + guard, tiles.data(), cells))
        << what << ": block product differs from the tile walk";
    EXPECT_TRUE(same_bits(panel.data() + guard, scalar.data(), cells))
        << what << ": block product differs from the scalar tile";
    for (index_t g = 0; g < guard; ++g) {
      EXPECT_EQ(panel[static_cast<std::size_t>(g)], sentinel) << what;
      EXPECT_EQ(panel[static_cast<std::size_t>(guard + cells + g)], sentinel)
          << what;
    }
  }
}

template <class T>
void block_product_every_semiring(KernelKind kind, std::uint64_t seed) {
  block_product_case<MinPlusSemiring<T>>(kind, seed);
  block_product_case<MaxPlusSemiring<T>>(kind, seed);
  block_product_case<CountingSemiring<T>>(kind, seed);
  block_product_case<ViterbiLogSemiring<T>>(kind, seed);
}

TEST(Kernels, BlockProductMatchesTileWalkAndScalar) {
  for (KernelKind kind :
       {KernelKind::Scalar, KernelKind::Native, KernelKind::Wide})
    for (std::uint64_t s = 0; s < 2; ++s) {
      block_product_every_semiring<float>(kind, 10 * s);
      block_product_every_semiring<double>(kind, 10 * s);
    }
}

TEST(Kernels, OpCountsMatchPaperTableI) {
  // §IV-A: 16 steps * 8 instructions = 128 naive; register caching saves
  // 48 memory instructions leaving 80 (Table I's mix).
  const auto cached = cb_op_counts_cached(4);
  EXPECT_EQ(cached.total(), 80);
  EXPECT_EQ(cached.loads, 12);
  EXPECT_EQ(cached.shuffles, 16);
  EXPECT_EQ(cached.adds, 16);
  EXPECT_EQ(cached.compares, 16);
  EXPECT_EQ(cached.selects, 16);
  EXPECT_EQ(cached.stores, 4);

  const auto naive = cb_op_counts_uncached(4);
  EXPECT_EQ(naive.total(), 128);
  EXPECT_EQ(naive.total() - cached.total(), 48);
}

TEST(Dispatch, KernelWidthsMatchPrecisionAndKind) {
  EXPECT_EQ(cb_kernel<float>(KernelKind::Scalar).width, 4);
  EXPECT_EQ(cb_kernel<float>(KernelKind::Native).width, 4);
  EXPECT_EQ(cb_kernel<float>(KernelKind::Wide).width, 8);
  EXPECT_EQ(cb_kernel<double>(KernelKind::Scalar).width, 4);
  EXPECT_EQ(cb_kernel<double>(KernelKind::Native).width, 2);
  EXPECT_EQ(cb_kernel<double>(KernelKind::Wide).width, 4);
  EXPECT_EQ(kernel_kind_name(KernelKind::Native), "simd128");
}

}  // namespace
}  // namespace cellnpdp
