// Scalar kernel variant, the one every target can run (the only one off
// x86): the register-blocked 8-user kernels (user lanes) for fp64, fp32
// and int8, and for blocks of few live users the shared item-lane
// templates over ScalarTraits, whose lanes are plain doubles/floats —
// kU independent per-item chains. Compiled with -ffp-contract=off (see
// CMakeLists.txt) like every kernel TU, so no mul+add is fused.

#include <algorithm>
#include <cstdint>
#include <span>

#include "recommender/factor_kernels_impl.h"

namespace ganc {
namespace internal {
namespace {

// The item-lane half of the traits interface (factor_kernels_impl.h):
// kU "registers" of one lane, so a tile is kU items by one factor.
struct ScalarTraits {
  using F64 = double;
  static constexpr size_t kRegsF64 = kU;
  static constexpr size_t kLanesF64 = 1;
  static F64 LoadUF64(const double* p) { return *p; }
  static void StoreUF64(double* p, F64 v) { *p = v; }
  static F64 BroadcastF64(double x) { return x; }
  static F64 AddF64(F64 a, F64 b) { return a + b; }
  static F64 MulAddF64(F64 acc, F64 a, F64 b) { return acc + a * b; }
  static F64 ZeroF64() { return 0.0; }
  static F64 MinF64(F64 a, F64 b) { return a < b ? a : b; }
  static F64 MaxF64(F64 a, F64 b) { return a > b ? a : b; }
  static F64 SubF64(F64 a, F64 b) { return a - b; }
  static F64 DivF64(F64 a, F64 b) { return a / b; }
  static void LoadTransposedF64(const double* p, size_t, F64* cols) {
    cols[0] = *p;
  }

  using F32 = float;
  static constexpr size_t kRegsF32 = kU;
  static constexpr size_t kLanesF32 = 1;
  static F32 BroadcastF32(float x) { return x; }
  static F32 AddF32(F32 a, F32 b) { return a + b; }
  static F32 MulAddF32(F32 acc, F32 a, F32 b) { return acc + a * b; }
  static F32 ZeroF32() { return 0.0f; }
  static void LoadTransposedF32(const float* p, size_t, F32* cols) {
    cols[0] = *p;
  }
  static F32 NarrowLoadF32(const double* p) { return static_cast<float>(*p); }
  static void WidenStoreF32(double* p, F32 v) { *p = static_cast<double>(v); }
};

// The fp64 batch micro-kernel, specialized at compile time on which
// optional terms exist: with the flags folded, the no-bias
// instantiation keeps a branch- and load-free inner loop (measured
// ~20% faster than one generic kernel testing the pointers per item).
template <bool kHasItemBias, bool kHasUserBase>
void ScalarBatchF64(const FactorView& v, std::span<const UserId> users,
                    std::span<double> out) {
  const size_t g = v.num_factors;
  const size_t ni = static_cast<size_t>(v.num_items);
  const size_t batch = users.size();

  for (size_t b0 = 0; b0 < batch; b0 += kU) {
    const size_t bn = std::min(kU, batch - b0);
    if (TryItemLaneF64<ScalarTraits, kHasItemBias, kHasUserBase>(v, users, b0,
                                                                 bn, out)) {
      continue;
    }
    // A ragged final block keeps the inner loops fixed-width by pointing
    // the dead lanes at the block's first user; only live lanes store.
    const double* pu[kU];
    double* o[kU];
    double base[kU];
    for (size_t b = 0; b < kU; ++b) {
      const size_t lane = b < bn ? b : 0;
      const size_t ub = static_cast<size_t>(users[b0 + lane]);
      pu[b] = v.user_factors + ub * g;
      o[b] = out.data() + (b0 + lane) * ni;
      base[b] = kHasUserBase ? v.user_base[ub] : 0.0;
    }
    for (size_t i = 0; i < ni; ++i) {
      const double* qi = v.item_factors + i * g;
      // Bias terms enter each accumulator before the factor sum and every
      // (u, i) pair keeps one accumulator walked in factor order — the
      // same evaluation order as the scalar single-user path, so batch
      // scores are bit-identical to ScoreInto. The kU independent chains
      // are what buys the speedup: they hide FMA latency and let the
      // compiler vectorize across users, while q_i is loaded once per
      // block instead of once per user.
      double acc[kU];
      if constexpr (kHasItemBias && kHasUserBase) {
        const double bi = v.item_bias[i];
        for (size_t b = 0; b < kU; ++b) acc[b] = base[b] + bi;
      } else if constexpr (kHasItemBias) {
        const double bi = v.item_bias[i];
        for (size_t b = 0; b < kU; ++b) acc[b] = bi;
      } else if constexpr (kHasUserBase) {
        for (size_t b = 0; b < kU; ++b) acc[b] = base[b];
      } else {
        for (size_t b = 0; b < kU; ++b) acc[b] = 0.0;
      }
      for (size_t f = 0; f < g; ++f) {
        const double qf = qi[f];
        for (size_t b = 0; b < kU; ++b) acc[b] += pu[b][f] * qf;
      }
      for (size_t b = 0; b < bn; ++b) o[b][i] = acc[b];
    }
  }
}

// fp32: identical block structure with float accumulators; bias terms
// narrow to float before entering the accumulator, the final value
// widens back to double for the output row.
template <bool kHasItemBias, bool kHasUserBase>
void ScalarBatchF32(const FactorView& v, std::span<const UserId> users,
                    std::span<double> out) {
  const size_t g = v.num_factors;
  const size_t ni = static_cast<size_t>(v.num_items);
  const size_t batch = users.size();

  for (size_t b0 = 0; b0 < batch; b0 += kU) {
    const size_t bn = std::min(kU, batch - b0);
    if (TryItemLaneF32<ScalarTraits, kHasItemBias, kHasUserBase>(v, users, b0,
                                                                 bn, out)) {
      continue;
    }
    const float* pu[kU];
    double* o[kU];
    float base[kU];
    for (size_t b = 0; b < kU; ++b) {
      const size_t lane = b < bn ? b : 0;
      const size_t ub = static_cast<size_t>(users[b0 + lane]);
      pu[b] = v.user_factors_f32 + ub * g;
      o[b] = out.data() + (b0 + lane) * ni;
      base[b] = kHasUserBase ? static_cast<float>(v.user_base[ub]) : 0.0f;
    }
    for (size_t i = 0; i < ni; ++i) {
      const float* qi = v.item_factors_f32 + i * g;
      const float bi =
          kHasItemBias ? static_cast<float>(v.item_bias[i]) : 0.0f;
      float acc[kU];
      for (size_t b = 0; b < kU; ++b) {
        acc[b] = BiasTermF32<kHasItemBias, kHasUserBase>(base[b], bi);
      }
      for (size_t f = 0; f < g; ++f) {
        const float qf = qi[f];
        for (size_t b = 0; b < kU; ++b) acc[b] += pu[b][f] * qf;
      }
      for (size_t b = 0; b < bn; ++b) {
        o[b][i] = static_cast<double>(acc[b]);
      }
    }
  }
}

// int8: per-lane exact integer dot, then the shared DequantDot combine.
template <bool kHasItemBias, bool kHasUserBase>
void ScalarBatchI8(const FactorView& v, std::span<const UserId> users,
                   std::span<double> out) {
  const size_t g = v.num_factors;
  const size_t ni = static_cast<size_t>(v.num_items);
  const size_t batch = users.size();

  for (size_t b0 = 0; b0 < batch; b0 += kU) {
    const size_t bn = std::min(kU, batch - b0);
    const int8_t* pq[kU];
    double* o[kU];
    double base[kU];
    float su[kU];
    float cu[kU];
    int32_t sp[kU];
    for (size_t b = 0; b < kU; ++b) {
      const size_t lane = b < bn ? b : 0;
      const size_t ub = static_cast<size_t>(users[b0 + lane]);
      pq[b] = v.user_q8 + ub * g;
      o[b] = out.data() + (b0 + lane) * ni;
      base[b] = kHasUserBase ? v.user_base[ub] : 0.0;
      su[b] = v.user_scale[ub];
      cu[b] = v.user_center[ub];
      sp[b] = v.user_qsum[ub];
    }
    for (size_t i = 0; i < ni; ++i) {
      const int8_t* qq = v.item_q8 + i * g;
      const double bi = kHasItemBias ? v.item_bias[i] : 0.0;
      const float si = v.item_scale[i];
      const float ci = v.item_center[i];
      const int32_t sq = v.item_qsum[i];
      int32_t d[kU];
      for (size_t b = 0; b < kU; ++b) d[b] = 0;
      for (size_t f = 0; f < g; ++f) {
        const int32_t qf = qq[f];
        for (size_t b = 0; b < kU; ++b) {
          d[b] += static_cast<int32_t>(pq[b][f]) * qf;
        }
      }
      for (size_t b = 0; b < bn; ++b) {
        o[b][i] = BiasTermF64<kHasItemBias, kHasUserBase>(base[b], bi) +
                  DequantDot(g, su[b], cu[b], sp[b], si, ci, sq, d[b]);
      }
    }
  }
}

void ScalarF64(const FactorView& v, std::span<const UserId> users,
               std::span<double> out) {
  if (v.item_bias) {
    if (v.user_base) return ScalarBatchF64<true, true>(v, users, out);
    return ScalarBatchF64<true, false>(v, users, out);
  }
  if (v.user_base) return ScalarBatchF64<false, true>(v, users, out);
  return ScalarBatchF64<false, false>(v, users, out);
}

void ScalarF32(const FactorView& v, std::span<const UserId> users,
               std::span<double> out) {
  if (v.item_bias) {
    if (v.user_base) return ScalarBatchF32<true, true>(v, users, out);
    return ScalarBatchF32<true, false>(v, users, out);
  }
  if (v.user_base) return ScalarBatchF32<false, true>(v, users, out);
  return ScalarBatchF32<false, false>(v, users, out);
}

void ScalarI8(const FactorView& v, std::span<const UserId> users,
              std::span<double> out) {
  if (v.item_bias) {
    if (v.user_base) return ScalarBatchI8<true, true>(v, users, out);
    return ScalarBatchI8<true, false>(v, users, out);
  }
  if (v.user_base) return ScalarBatchI8<false, true>(v, users, out);
  return ScalarBatchI8<false, false>(v, users, out);
}

}  // namespace

const KernelOps& ScalarKernelOps() {
  static const KernelOps ops{&ScalarF64, &ScalarF32, &ScalarI8,
                             &MinMaxNormalizeF64<ScalarTraits>};
  return ops;
}

}  // namespace internal
}  // namespace ganc
