// Portable fixed-width vector wrapper.
//
// The paper's SPE procedure is written against a 128-bit SIMD register file
// (load / store / shuffle-splat / add / compare / select). Those operations
// exist in every mainstream ISA (the paper notes VMX and SSE expose the same
// set, §IV-A), so the kernels are written once against Vec<T, W> and the
// backend is chosen per specialisation:
//
//   Vec<float, 4>   -> SSE     (__m128)   - the Cell SPE / Nehalem width
//   Vec<float, 8>   -> AVX2    (__m256)   - widened extension kernel
//   Vec<double, 2>  -> SSE2    (__m128d)  - the Cell SPE DP width
//   Vec<double, 4>  -> AVX     (__m256d)
//   anything else   -> scalar array fallback (the "SIMD off" ablation)
//
// All loads/stores assume kBufferAlignment-aligned rows, which the layout
// module guarantees.
//
// vmin(a, b) is `b < a ? b : a` and vmax(a, b) is `b > a ? b : a` in every
// backend, the scalar MinPlus/MaxPlus `plus` exactly. The x86 min/max
// instructions return their second operand unless the first strictly wins,
// so the SSE/AVX forms pass (b, a). With the running value as a and the
// candidate as b, a NaN candidate is ignored and a NaN running value
// sticks, as in the scalar and reference solvers; ties keep a.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/defs.hpp"

#if CELLNPDP_HAVE_AVX2
#include <immintrin.h>
#endif

namespace cellnpdp {

/// Generic scalar fallback; correct for any arithmetic T and width W.
template <class T, int W>
struct Vec {
  T lane[W];

  static Vec load(const T* p) {
    Vec r;
    for (int i = 0; i < W; ++i) r.lane[i] = p[i];
    return r;
  }
  static Vec loadu(const T* p) { return load(p); }
  void store(T* p) const {
    for (int i = 0; i < W; ++i) p[i] = lane[i];
  }
  static Vec set1(T x) {
    Vec r;
    for (int i = 0; i < W; ++i) r.lane[i] = x;
    return r;
  }
  /// Broadcast lane L of a into every lane (the paper's `shuffle`).
  template <int L>
  static Vec splat(Vec a) {
    return set1(a.lane[L]);
  }
  friend Vec operator+(Vec a, Vec b) {
    Vec r;
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] + b.lane[i];
    return r;
  }
  friend Vec operator*(Vec a, Vec b) {
    Vec r;
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] * b.lane[i];
    return r;
  }
  /// Lane-wise minimum (the paper's compare + select pair).
  friend Vec vmin(Vec a, Vec b) {
    Vec r;
    for (int i = 0; i < W; ++i) r.lane[i] = b.lane[i] < a.lane[i] ? b.lane[i] : a.lane[i];
    return r;
  }
  /// Lane-wise maximum (the max-plus / Viterbi reduction).
  friend Vec vmax(Vec a, Vec b) {
    Vec r;
    for (int i = 0; i < W; ++i) r.lane[i] = b.lane[i] > a.lane[i] ? b.lane[i] : a.lane[i];
    return r;
  }
};

#if CELLNPDP_HAVE_AVX2

template <>
struct Vec<float, 4> {
  __m128 v;

  static Vec load(const float* p) { return {_mm_load_ps(p)}; }
  static Vec loadu(const float* p) { return {_mm_loadu_ps(p)}; }
  void store(float* p) const { _mm_store_ps(p, v); }
  static Vec set1(float x) { return {_mm_set1_ps(x)}; }
  template <int L>
  static Vec splat(Vec a) {
    return {_mm_shuffle_ps(a.v, a.v, _MM_SHUFFLE(L, L, L, L))};
  }
  friend Vec operator+(Vec a, Vec b) { return {_mm_add_ps(a.v, b.v)}; }
  friend Vec operator*(Vec a, Vec b) { return {_mm_mul_ps(a.v, b.v)}; }
  friend Vec vmin(Vec a, Vec b) { return {_mm_min_ps(b.v, a.v)}; }
  friend Vec vmax(Vec a, Vec b) { return {_mm_max_ps(b.v, a.v)}; }
};

template <>
struct Vec<float, 8> {
  __m256 v;

  static Vec load(const float* p) { return {_mm256_load_ps(p)}; }
  static Vec loadu(const float* p) { return {_mm256_loadu_ps(p)}; }
  void store(float* p) const { _mm256_store_ps(p, v); }
  static Vec set1(float x) { return {_mm256_set1_ps(x)}; }
  template <int L>
  static Vec splat(Vec a) {
    // Broadcast 32-bit lane L of the 256-bit register into all 8 lanes.
    const __m128 half =
        L < 4 ? _mm256_castps256_ps128(a.v) : _mm256_extractf128_ps(a.v, 1);
    const __m128 s = _mm_shuffle_ps(half, half, _MM_SHUFFLE(L & 3, L & 3, L & 3, L & 3));
    return {_mm256_set_m128(s, s)};
  }
  friend Vec operator+(Vec a, Vec b) { return {_mm256_add_ps(a.v, b.v)}; }
  friend Vec operator*(Vec a, Vec b) { return {_mm256_mul_ps(a.v, b.v)}; }
  friend Vec vmin(Vec a, Vec b) { return {_mm256_min_ps(b.v, a.v)}; }
  friend Vec vmax(Vec a, Vec b) { return {_mm256_max_ps(b.v, a.v)}; }
};

template <>
struct Vec<double, 2> {
  __m128d v;

  static Vec load(const double* p) { return {_mm_load_pd(p)}; }
  static Vec loadu(const double* p) { return {_mm_loadu_pd(p)}; }
  void store(double* p) const { _mm_store_pd(p, v); }
  static Vec set1(double x) { return {_mm_set1_pd(x)}; }
  template <int L>
  static Vec splat(Vec a) {
    return {_mm_shuffle_pd(a.v, a.v, L ? 3 : 0)};
  }
  friend Vec operator+(Vec a, Vec b) { return {_mm_add_pd(a.v, b.v)}; }
  friend Vec operator*(Vec a, Vec b) { return {_mm_mul_pd(a.v, b.v)}; }
  friend Vec vmin(Vec a, Vec b) { return {_mm_min_pd(b.v, a.v)}; }
  friend Vec vmax(Vec a, Vec b) { return {_mm_max_pd(b.v, a.v)}; }
};

template <>
struct Vec<double, 4> {
  __m256d v;

  static Vec load(const double* p) { return {_mm256_load_pd(p)}; }
  static Vec loadu(const double* p) { return {_mm256_loadu_pd(p)}; }
  void store(double* p) const { _mm256_store_pd(p, v); }
  static Vec set1(double x) { return {_mm256_set1_pd(x)}; }
  template <int L>
  static Vec splat(Vec a) {
    const __m128d half =
        L < 2 ? _mm256_castpd256_pd128(a.v) : _mm256_extractf128_pd(a.v, 1);
    const __m128d s = _mm_shuffle_pd(half, half, (L & 1) ? 3 : 0);
    return {_mm256_set_m128d(s, s)};
  }
  friend Vec operator+(Vec a, Vec b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend Vec operator*(Vec a, Vec b) { return {_mm256_mul_pd(a.v, b.v)}; }
  friend Vec vmin(Vec a, Vec b) { return {_mm256_min_pd(b.v, a.v)}; }
  friend Vec vmax(Vec a, Vec b) { return {_mm256_max_pd(b.v, a.v)}; }
};

template <>
struct Vec<std::int32_t, 4> {
  __m128i v;

  static Vec load(const std::int32_t* p) {
    return {_mm_load_si128(reinterpret_cast<const __m128i*>(p))};
  }
  static Vec loadu(const std::int32_t* p) {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }
  void store(std::int32_t* p) const {
    _mm_store_si128(reinterpret_cast<__m128i*>(p), v);
  }
  static Vec set1(std::int32_t x) { return {_mm_set1_epi32(x)}; }
  template <int L>
  static Vec splat(Vec a) {
    return {_mm_shuffle_epi32(a.v, _MM_SHUFFLE(L, L, L, L))};
  }
  friend Vec operator+(Vec a, Vec b) { return {_mm_add_epi32(a.v, b.v)}; }
  friend Vec operator*(Vec a, Vec b) { return {_mm_mullo_epi32(a.v, b.v)}; }
  friend Vec vmin(Vec a, Vec b) { return {_mm_min_epi32(a.v, b.v)}; }
  friend Vec vmax(Vec a, Vec b) { return {_mm_max_epi32(a.v, b.v)}; }
};

template <>
struct Vec<std::int32_t, 8> {
  __m256i v;

  static Vec load(const std::int32_t* p) {
    return {_mm256_load_si256(reinterpret_cast<const __m256i*>(p))};
  }
  static Vec loadu(const std::int32_t* p) {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  void store(std::int32_t* p) const {
    _mm256_store_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static Vec set1(std::int32_t x) { return {_mm256_set1_epi32(x)}; }
  template <int L>
  static Vec splat(Vec a) {
    const __m128i half = L < 4 ? _mm256_castsi256_si128(a.v)
                               : _mm256_extracti128_si256(a.v, 1);
    const __m128i s =
        _mm_shuffle_epi32(half, _MM_SHUFFLE(L & 3, L & 3, L & 3, L & 3));
    return {_mm256_set_m128i(s, s)};
  }
  friend Vec operator+(Vec a, Vec b) { return {_mm256_add_epi32(a.v, b.v)}; }
  friend Vec operator*(Vec a, Vec b) {
    return {_mm256_mullo_epi32(a.v, b.v)};
  }
  friend Vec vmin(Vec a, Vec b) { return {_mm256_min_epi32(a.v, b.v)}; }
  friend Vec vmax(Vec a, Vec b) { return {_mm256_max_epi32(a.v, b.v)}; }
};

#endif  // CELLNPDP_HAVE_AVX2

}  // namespace cellnpdp
