// AVX-512 kernel variant: the full 8-user lane block as a single
// __m512d accumulator (fp64); fp32 and int8 reuse the 256-bit shapes
// (8 float lanes / 8 int32 madd lanes already fill one ymm — going to
// zmm there would halve the block's register chains, not widen them).
// Compiled with -mavx512f -mavx512bw -mavx512vl -ffp-contract=off and
// no -mfma (CMakeLists.txt) to preserve fp64 bit-identity.

#include "recommender/factor_kernels_impl.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)

// GCC 12's AVX-512 intrinsics seed their unused merge operand with a
// self-initialized _mm512_undefined_pd(), which -Wmaybe-uninitialized
// reports at the header line of every unpack/shuffle the transpose uses.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

namespace ganc {
namespace internal {
namespace {

struct Avx512Traits {
  using F64 = __m512d;
  static constexpr size_t kRegsF64 = 1;
  static constexpr size_t kLanesF64 = 8;
  static F64 LoadF64(const double* p) { return _mm512_load_pd(p); }
  static F64 LoadUF64(const double* p) { return _mm512_loadu_pd(p); }
  static void StoreF64(double* p, F64 v) { _mm512_store_pd(p, v); }
  static void StoreUF64(double* p, F64 v) { _mm512_storeu_pd(p, v); }
  static F64 BroadcastF64(double x) { return _mm512_set1_pd(x); }
  static F64 AddF64(F64 a, F64 b) { return _mm512_add_pd(a, b); }
  static F64 MulAddF64(F64 acc, F64 a, F64 b) {
    return _mm512_add_pd(acc, _mm512_mul_pd(a, b));
  }
  static F64 ZeroF64() { return _mm512_setzero_pd(); }
  // cols[k] lane l = p[l * stride + k]: 8 rows, transposed in registers
  // (pairs interleaved, then 128-bit halves, then 256-bit halves).
  static void LoadTransposedF64(const double* p, size_t stride, F64* cols) {
    F64 t[8];
    for (size_t l = 0; l < 8; l += 2) {
      const F64 a = _mm512_loadu_pd(p + l * stride);
      const F64 b = _mm512_loadu_pd(p + (l + 1) * stride);
      t[l] = _mm512_unpacklo_pd(a, b);      // factors 0 2 4 6
      t[l + 1] = _mm512_unpackhi_pd(a, b);  // factors 1 3 5 7
    }
    F64 s[8];
    for (size_t h = 0; h < 8; h += 4) {  // rows 0-3, then rows 4-7
      for (size_t odd = 0; odd < 2; ++odd) {
        const F64 a = t[h + odd];
        const F64 b = t[h + 2 + odd];
        s[h + 2 * odd] = _mm512_shuffle_f64x2(a, b, 0x88);      // f 0/4 (+odd)
        s[h + 2 * odd + 1] = _mm512_shuffle_f64x2(a, b, 0xDD);  // f 2/6 (+odd)
      }
    }
    // s[h + j] holds factors {c, c + 4} for c = (0, 2, 1, 3)[j].
    constexpr size_t kCol[4] = {0, 2, 1, 3};
    for (size_t j = 0; j < 4; ++j) {
      cols[kCol[j]] = _mm512_shuffle_f64x2(s[j], s[4 + j], 0x88);
      cols[kCol[j] + 4] = _mm512_shuffle_f64x2(s[j], s[4 + j], 0xDD);
    }
  }

  using F32 = __m256;
  static constexpr size_t kRegsF32 = 1;
  static constexpr size_t kLanesF32 = 8;
  static F32 LoadF32(const float* p) { return _mm256_load_ps(p); }
  static void StoreF32(float* p, F32 v) { _mm256_store_ps(p, v); }
  static F32 BroadcastF32(float x) { return _mm256_set1_ps(x); }
  static F32 AddF32(F32 a, F32 b) { return _mm256_add_ps(a, b); }
  static F32 MulAddF32(F32 acc, F32 a, F32 b) {
    return _mm256_add_ps(acc, _mm256_mul_ps(a, b));
  }
  static F32 ZeroF32() { return _mm256_setzero_ps(); }
  // cols[k] lane l = p[l * stride + k]: the 8x8 float transpose.
  static void LoadTransposedF32(const float* p, size_t stride, F32* cols) {
    F32 t[8];
    for (size_t l = 0; l < 8; l += 2) {
      const F32 a = _mm256_loadu_ps(p + l * stride);
      const F32 b = _mm256_loadu_ps(p + (l + 1) * stride);
      t[l] = _mm256_unpacklo_ps(a, b);      // factors 0 1 | 4 5, interleaved
      t[l + 1] = _mm256_unpackhi_ps(a, b);  // factors 2 3 | 6 7
    }
    F32 s[8];
    for (size_t h = 0; h < 8; h += 4) {  // rows 0-3, then rows 4-7
      for (size_t j = 0; j < 2; ++j) {
        s[h + 2 * j] = _mm256_shuffle_ps(t[h + j], t[h + 2 + j], 0x44);
        s[h + 2 * j + 1] = _mm256_shuffle_ps(t[h + j], t[h + 2 + j], 0xEE);
      }
    }
    // s[h + k] holds factor k in its low half, factor k + 4 in its high.
    for (size_t k = 0; k < 4; ++k) {
      cols[k] = _mm256_permute2f128_ps(s[k], s[4 + k], 0x20);
      cols[k + 4] = _mm256_permute2f128_ps(s[k], s[4 + k], 0x31);
    }
  }
  static F32 NarrowLoadF32(const double* p) {
    return _mm512_cvtpd_ps(_mm512_loadu_pd(p));
  }
  static void WidenStoreF32(double* p, F32 v) {
    _mm512_storeu_pd(p, _mm512_cvtps_pd(v));
  }

  using I32 = __m256i;
  static constexpr size_t kRegsI32 = 1;
  static constexpr size_t kI16PerReg = 16;
  static I32 ZeroI32() { return _mm256_setzero_si256(); }
  static I32 BroadcastPair(int32_t pair) { return _mm256_set1_epi32(pair); }
  static I32 MaddAcc(I32 acc, const int16_t* pack, I32 pair) {
    return _mm256_add_epi32(
        acc,
        _mm256_madd_epi16(
            _mm256_load_si256(reinterpret_cast<const __m256i*>(pack)), pair));
  }
  static void StoreI32(int32_t* p, I32 v) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(p), v);
  }
};

}  // namespace

const KernelOps& Avx512KernelOps() {
  static const KernelOps ops{&DispatchF64<Avx512Traits>,
                             &DispatchF32<Avx512Traits>,
                             &DispatchI8<Avx512Traits>};
  return ops;
}

bool Avx512KernelCompiled() { return true; }

}  // namespace internal
}  // namespace ganc

#else  // no AVX-512 at compile time

namespace ganc {
namespace internal {

const KernelOps& Avx512KernelOps() { return ScalarKernelOps(); }
bool Avx512KernelCompiled() { return false; }

}  // namespace internal
}  // namespace ganc

#endif
