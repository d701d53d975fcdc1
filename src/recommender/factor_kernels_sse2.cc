// SSE2 kernel variant: 8 user lanes as 4 x __m128d (fp64), 2 x __m128
// (fp32), 2 x __m128i madd accumulators (int8). Compiled with -msse2
// -ffp-contract=off (CMakeLists.txt); on non-x86 targets the TU
// compiles to the scalar fallback below.

#include "recommender/factor_kernels_impl.h"

#if defined(__SSE2__)

#include <emmintrin.h>

namespace ganc {
namespace internal {
namespace {

struct Sse2Traits {
  using F64 = __m128d;
  static constexpr size_t kRegsF64 = 4;
  static constexpr size_t kLanesF64 = 2;
  static F64 LoadF64(const double* p) { return _mm_load_pd(p); }
  static F64 LoadUF64(const double* p) { return _mm_loadu_pd(p); }
  static void StoreF64(double* p, F64 v) { _mm_store_pd(p, v); }
  static void StoreUF64(double* p, F64 v) { _mm_storeu_pd(p, v); }
  static F64 BroadcastF64(double x) { return _mm_set1_pd(x); }
  static F64 AddF64(F64 a, F64 b) { return _mm_add_pd(a, b); }
  static F64 MulAddF64(F64 acc, F64 a, F64 b) {
    return _mm_add_pd(acc, _mm_mul_pd(a, b));
  }
  static F64 ZeroF64() { return _mm_setzero_pd(); }
  // min(a, b) = a < b ? a : b, max(a, b) = a > b ? a : b.
  static F64 MinF64(F64 a, F64 b) { return _mm_min_pd(a, b); }
  static F64 MaxF64(F64 a, F64 b) { return _mm_max_pd(a, b); }
  static F64 SubF64(F64 a, F64 b) { return _mm_sub_pd(a, b); }
  static F64 DivF64(F64 a, F64 b) { return _mm_div_pd(a, b); }
  // cols[k] lane l = p[l * stride + k]: the 2x2 transpose.
  static void LoadTransposedF64(const double* p, size_t stride, F64* cols) {
    const F64 r0 = _mm_loadu_pd(p);
    const F64 r1 = _mm_loadu_pd(p + stride);
    cols[0] = _mm_unpacklo_pd(r0, r1);
    cols[1] = _mm_unpackhi_pd(r0, r1);
  }

  using F32 = __m128;
  static constexpr size_t kRegsF32 = 2;
  static constexpr size_t kLanesF32 = 4;
  static F32 LoadF32(const float* p) { return _mm_load_ps(p); }
  static void StoreF32(float* p, F32 v) { _mm_store_ps(p, v); }
  static F32 BroadcastF32(float x) { return _mm_set1_ps(x); }
  static F32 AddF32(F32 a, F32 b) { return _mm_add_ps(a, b); }
  static F32 MulAddF32(F32 acc, F32 a, F32 b) {
    return _mm_add_ps(acc, _mm_mul_ps(a, b));
  }
  static F32 ZeroF32() { return _mm_setzero_ps(); }
  // cols[k] lane l = p[l * stride + k]: the 4x4 transpose.
  static void LoadTransposedF32(const float* p, size_t stride, F32* cols) {
    F32 r0 = _mm_loadu_ps(p);
    F32 r1 = _mm_loadu_ps(p + stride);
    F32 r2 = _mm_loadu_ps(p + 2 * stride);
    F32 r3 = _mm_loadu_ps(p + 3 * stride);
    _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
    cols[0] = r0;
    cols[1] = r1;
    cols[2] = r2;
    cols[3] = r3;
  }
  static F32 NarrowLoadF32(const double* p) {
    return _mm_movelh_ps(_mm_cvtpd_ps(_mm_loadu_pd(p)),
                         _mm_cvtpd_ps(_mm_loadu_pd(p + 2)));
  }
  static void WidenStoreF32(double* p, F32 v) {
    _mm_storeu_pd(p, _mm_cvtps_pd(v));
    _mm_storeu_pd(p + 2, _mm_cvtps_pd(_mm_movehl_ps(v, v)));
  }

  using I32 = __m128i;
  static constexpr size_t kRegsI32 = 2;
  static constexpr size_t kI16PerReg = 8;  // 4 lanes x (pair of int16)
  static I32 ZeroI32() { return _mm_setzero_si128(); }
  static I32 BroadcastPair(int32_t pair) { return _mm_set1_epi32(pair); }
  static I32 MaddAcc(I32 acc, const int16_t* pack, I32 pair) {
    return _mm_add_epi32(
        acc, _mm_madd_epi16(
                 _mm_load_si128(reinterpret_cast<const __m128i*>(pack)), pair));
  }
  static void StoreI32(int32_t* p, I32 v) {
    _mm_store_si128(reinterpret_cast<__m128i*>(p), v);
  }
};

}  // namespace

const KernelOps& Sse2KernelOps() {
  static const KernelOps ops{&DispatchF64<Sse2Traits>, &DispatchF32<Sse2Traits>,
                             &DispatchI8<Sse2Traits>,
                             &MinMaxNormalizeF64<Sse2Traits>};
  return ops;
}

bool Sse2KernelCompiled() { return true; }

}  // namespace internal
}  // namespace ganc

#else  // !defined(__SSE2__)

namespace ganc {
namespace internal {

const KernelOps& Sse2KernelOps() { return ScalarKernelOps(); }
bool Sse2KernelCompiled() { return false; }

}  // namespace internal
}  // namespace ganc

#endif
