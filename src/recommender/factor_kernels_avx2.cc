// AVX2 kernel variant: 8 user lanes as 2 x __m256d (fp64), 1 x __m256
// (fp32), 1 x __m256i madd accumulator (int8). Compiled with -mavx2
// -ffp-contract=off and deliberately WITHOUT -mfma (CMakeLists.txt):
// a fused multiply-add rounds once where the scalar reference rounds
// twice, which would break fp64 bit-identity.

#include "recommender/factor_kernels_impl.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace ganc {
namespace internal {
namespace {

struct Avx2Traits {
  using F64 = __m256d;
  static constexpr size_t kRegsF64 = 2;
  static constexpr size_t kLanesF64 = 4;
  static F64 LoadF64(const double* p) { return _mm256_load_pd(p); }
  static F64 LoadUF64(const double* p) { return _mm256_loadu_pd(p); }
  static void StoreF64(double* p, F64 v) { _mm256_store_pd(p, v); }
  static void StoreUF64(double* p, F64 v) { _mm256_storeu_pd(p, v); }
  static F64 BroadcastF64(double x) { return _mm256_set1_pd(x); }
  static F64 AddF64(F64 a, F64 b) { return _mm256_add_pd(a, b); }
  static F64 MulAddF64(F64 acc, F64 a, F64 b) {
    return _mm256_add_pd(acc, _mm256_mul_pd(a, b));
  }
  static F64 ZeroF64() { return _mm256_setzero_pd(); }
  // min(a, b) = a < b ? a : b, max(a, b) = a > b ? a : b.
  static F64 MinF64(F64 a, F64 b) { return _mm256_min_pd(a, b); }
  static F64 MaxF64(F64 a, F64 b) { return _mm256_max_pd(a, b); }
  static F64 SubF64(F64 a, F64 b) { return _mm256_sub_pd(a, b); }
  static F64 DivF64(F64 a, F64 b) { return _mm256_div_pd(a, b); }
  // cols[k] lane l = p[l * stride + k]: the 4x4 transpose.
  static void LoadTransposedF64(const double* p, size_t stride, F64* cols) {
    const F64 r0 = _mm256_loadu_pd(p);
    const F64 r1 = _mm256_loadu_pd(p + stride);
    const F64 r2 = _mm256_loadu_pd(p + 2 * stride);
    const F64 r3 = _mm256_loadu_pd(p + 3 * stride);
    const F64 t0 = _mm256_unpacklo_pd(r0, r1);  // r0[0] r1[0] r0[2] r1[2]
    const F64 t1 = _mm256_unpackhi_pd(r0, r1);  // r0[1] r1[1] r0[3] r1[3]
    const F64 t2 = _mm256_unpacklo_pd(r2, r3);
    const F64 t3 = _mm256_unpackhi_pd(r2, r3);
    cols[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
    cols[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
    cols[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
    cols[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
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
    return _mm256_set_m128(_mm256_cvtpd_ps(_mm256_loadu_pd(p + 4)),
                           _mm256_cvtpd_ps(_mm256_loadu_pd(p)));
  }
  static void WidenStoreF32(double* p, F32 v) {
    _mm256_storeu_pd(p, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
    _mm256_storeu_pd(p + 4, _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
  }

  using I32 = __m256i;
  static constexpr size_t kRegsI32 = 1;
  static constexpr size_t kI16PerReg = 16;  // 8 lanes x (pair of int16)
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

const KernelOps& Avx2KernelOps() {
  static const KernelOps ops{&DispatchF64<Avx2Traits>, &DispatchF32<Avx2Traits>,
                             &DispatchI8<Avx2Traits>,
                             &MinMaxNormalizeF64<Avx2Traits>};
  return ops;
}

bool Avx2KernelCompiled() { return true; }

}  // namespace internal
}  // namespace ganc

#else  // !defined(__AVX2__)

namespace ganc {
namespace internal {

const KernelOps& Avx2KernelOps() { return ScalarKernelOps(); }
bool Avx2KernelCompiled() { return false; }

}  // namespace internal
}  // namespace ganc

#endif
