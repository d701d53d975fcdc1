// Internal: shared kernel templates + per-variant accessors for the
// factor kernel TUs (factor_kernels*.cc). Not part of the public API.
//
// The SIMD variants share one template per precision and shape,
// parameterized on a traits struct that maps a block of kU lanes onto
// the ISA's registers: T::kRegs registers of T::kLanes lanes each. The
// scalar variant keeps its own user-lane kernels and instantiates the
// item-lane templates over one-lane traits. The templates are
// instantiated only inside the variant TUs, which are the only TUs
// compiled with the matching ISA flags (see CMakeLists.txt) — this
// header itself contains no intrinsics.
//
// Two shapes of fp64/fp32 kernel, chosen per block of kU users:
//   user-lane  (BatchF64/F32) the kU lanes hold kU users; each item row
//              is broadcast once and serves the whole block. A ragged
//              block points its dead lanes at its first user, so it
//              costs as much as a full one.
//   item-lane  (ItemLaneF64/F32) the kU lanes hold kU consecutive
//              items; item rows are transposed in registers and each
//              transposed tile serves every live user. Cost grows with
//              the live users, not with kU.
// A block with at most kItemLaneMaxUsers live users runs item-lane (if
// g >= T::kLanes, so a tile row fits inside an item row); every other
// block, and all int8 blocks, run user-lane.
//
// Bit-identity contract (vs FactorScoringEngine::ScoreInto):
//   fp64/fp32  every lane — user or item — replays one (user, item)
//              pair's reference sequence exactly: bias terms first, then
//              one mul+add per factor in factor order. The kernel TUs
//              compile with -ffp-contract=off so no variant fuses what
//              the reference rounds twice.
//   int8       the q-by-q dot is integer (exact, order-free); the only
//              float math is the shared DequantDot combine, evaluated
//              by every variant through the same inline expression.

#ifndef GANC_RECOMMENDER_FACTOR_KERNELS_IMPL_H_
#define GANC_RECOMMENDER_FACTOR_KERNELS_IMPL_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>

#include "recommender/factor_kernels.h"
#include "util/aligned.h"

namespace ganc {
namespace internal {

// Per-variant tables, one per TU. The accessors exist on every build;
// when a TU is compiled without its ISA it returns the scalar table and
// reports Compiled() == false (dispatch then never selects it).
const KernelOps& ScalarKernelOps();
const KernelOps& Sse2KernelOps();
const KernelOps& Avx2KernelOps();
const KernelOps& Avx512KernelOps();
bool Sse2KernelCompiled();
bool Avx2KernelCompiled();
bool Avx512KernelCompiled();

inline constexpr size_t kU = kFactorKernelUserBlock;

// Pack scratch, reused across calls per thread; 64-byte aligned so each
// packed row starts on a vector-load boundary (fp64 rows are 64 bytes,
// fp32 and int16-pair rows 32 bytes).
inline AlignedVector<double>& PackScratchF64() {
  thread_local AlignedVector<double> s;
  return s;
}
inline AlignedVector<float>& PackScratchF32() {
  thread_local AlignedVector<float> s;
  return s;
}
inline AlignedVector<int16_t>& PackScratchI16() {
  thread_local AlignedVector<int16_t> s;
  return s;
}

// The bias-term initialization shared by every int8 kernel (and, in its
// float form, every fp32 kernel): compile-time folded like the fp64
// reference so each combo keeps the scalar path's evaluation order.
template <bool kHasItemBias, bool kHasUserBase>
inline double BiasTermF64(double base, double bi) {
  if constexpr (kHasItemBias && kHasUserBase) return base + bi;
  if constexpr (kHasItemBias) return bi;
  if constexpr (kHasUserBase) return base;
  return 0.0;
}

template <bool kHasItemBias, bool kHasUserBase>
inline float BiasTermF32(float base, float bi) {
  if constexpr (kHasItemBias && kHasUserBase) return base + bi;
  if constexpr (kHasItemBias) return bi;
  if constexpr (kHasUserBase) return base;
  return 0.0f;
}

// ---------------------------------------------------------------------------
// Item-lane kernels. Each live user adds its own multiply-adds to a
// shared transpose, while a user-lane block costs the same at any fill,
// so the shapes cross: the BM_FactorScoreLive sweep (bench/micro.cc,
// g = 10/48/100) puts the crossing at 4-5 live users on scalar, SSE2
// and AVX2 and at 7 or more on AVX-512. kU / 2 is the largest count at
// which item lanes lose on no variant.
inline constexpr size_t kItemLaneMaxUsers = kU / 2;

// Calls fn(std::integral_constant<size_t, n>{}) for the runtime live-user
// count n in [1, kItemLaneMaxUsers]: the count becomes a template
// argument so each user's accumulators stay in registers.
template <typename Fn>
void WithLiveUsers(size_t n, Fn&& fn) {
  [&]<size_t... I>(std::index_sequence<I...>) {
    ((n == I + 1 ? (fn(std::integral_constant<size_t, I + 1>{}), true)
                 : false) ||
     ...);
  }(std::make_index_sequence<kItemLaneMaxUsers>{});
}

// fp64 item lanes for a block of kUsers live users (out: their kUsers
// batch-major rows). Each tile of kU items is read T::kLanesF64 factors
// at a time: T::kRegsF64 row groups, each transposed in registers so
// column k holds factor f0 + k of T::kLanesF64 items. Leftover factors
// (g mod kLanes) re-read the last full-width tile, at g - kLanes, and
// use only its trailing columns; leftover items (num_items mod kU) run
// the reference's serial per-item chain.
template <typename T, bool kHasItemBias, bool kHasUserBase, size_t kUsers>
void ItemLaneF64(const FactorView& v, const UserId* users, double* out) {
  using V = typename T::F64;
  constexpr size_t kL = T::kLanesF64;
  constexpr size_t kR = T::kRegsF64;
  const size_t g = v.num_factors;
  const size_t ni = static_cast<size_t>(v.num_items);
  const double* pu[kUsers];
  double base[kUsers];
  for (size_t u = 0; u < kUsers; ++u) {
    const size_t ub = static_cast<size_t>(users[u]);
    pu[u] = v.user_factors + ub * g;
    base[u] = kHasUserBase ? v.user_base[ub] : 0.0;
  }
  // acc[u][r] += col[r][k] * p_u[f0 + k] for k in [first, kL), in k
  // order: per lane, the reference's next factor steps.
  const auto mul_add = [&](V(&acc)[kUsers][kR], const V(&col)[kR][kL],
                           size_t f0, size_t first) {
    for (size_t k = 0; k < kL; ++k) {
      if (k < first) continue;  // fixed bounds keep col[] in registers
      for (size_t u = 0; u < kUsers; ++u) {
        const V pf = T::BroadcastF64(pu[u][f0 + k]);
        for (size_t r = 0; r < kR; ++r) {
          acc[u][r] = T::MulAddF64(acc[u][r], col[r][k], pf);
        }
      }
    }
  };
  size_t i0 = 0;
  for (; i0 + kU <= ni; i0 += kU) {
    const double* q = v.item_factors + i0 * g;
    V acc[kUsers][kR];
    for (size_t r = 0; r < kR; ++r) {
      V bi = T::ZeroF64();
      if constexpr (kHasItemBias) bi = T::LoadUF64(v.item_bias + i0 + r * kL);
      for (size_t u = 0; u < kUsers; ++u) {
        if constexpr (kHasItemBias && kHasUserBase) {
          acc[u][r] = T::AddF64(T::BroadcastF64(base[u]), bi);
        } else if constexpr (kHasUserBase) {
          acc[u][r] = T::BroadcastF64(base[u]);
        } else {
          acc[u][r] = bi;
        }
      }
    }
    size_t f0 = 0;
    for (; f0 + kL <= g; f0 += kL) {
      V col[kR][kL];
      for (size_t r = 0; r < kR; ++r) {
        T::LoadTransposedF64(q + r * kL * g + f0, g, col[r]);
      }
      mul_add(acc, col, f0, 0);
    }
    if (f0 < g) {
      V col[kR][kL];
      for (size_t r = 0; r < kR; ++r) {
        T::LoadTransposedF64(q + r * kL * g + (g - kL), g, col[r]);
      }
      mul_add(acc, col, g - kL, kL - (g - f0));
    }
    for (size_t u = 0; u < kUsers; ++u) {
      for (size_t r = 0; r < kR; ++r) {
        T::StoreUF64(out + u * ni + i0 + r * kL, acc[u][r]);
      }
    }
  }
  for (size_t u = 0; u < kUsers; ++u) {
    for (size_t i = i0; i < ni; ++i) {
      const double* qi = v.item_factors + i * g;
      double acc = BiasTermF64<kHasItemBias, kHasUserBase>(
          base[u], kHasItemBias ? v.item_bias[i] : 0.0);
      for (size_t f = 0; f < g; ++f) acc += pu[u][f] * qi[f];
      out[u * ni + i] = acc;
    }
  }
}

// fp32 item lanes: the fp64 shape with float lanes. Item biases narrow
// to float lane-wise (T::NarrowLoadF32), results widen back to double
// on the way out (T::WidenStoreF32).
template <typename T, bool kHasItemBias, bool kHasUserBase, size_t kUsers>
void ItemLaneF32(const FactorView& v, const UserId* users, double* out) {
  using V = typename T::F32;
  constexpr size_t kL = T::kLanesF32;
  constexpr size_t kR = T::kRegsF32;
  const size_t g = v.num_factors;
  const size_t ni = static_cast<size_t>(v.num_items);
  const float* pu[kUsers];
  float base[kUsers];
  for (size_t u = 0; u < kUsers; ++u) {
    const size_t ub = static_cast<size_t>(users[u]);
    pu[u] = v.user_factors_f32 + ub * g;
    base[u] = kHasUserBase ? static_cast<float>(v.user_base[ub]) : 0.0f;
  }
  const auto mul_add = [&](V(&acc)[kUsers][kR], const V(&col)[kR][kL],
                           size_t f0, size_t first) {
    for (size_t k = 0; k < kL; ++k) {
      if (k < first) continue;  // fixed bounds keep col[] in registers
      for (size_t u = 0; u < kUsers; ++u) {
        const V pf = T::BroadcastF32(pu[u][f0 + k]);
        for (size_t r = 0; r < kR; ++r) {
          acc[u][r] = T::MulAddF32(acc[u][r], col[r][k], pf);
        }
      }
    }
  };
  size_t i0 = 0;
  for (; i0 + kU <= ni; i0 += kU) {
    const float* q = v.item_factors_f32 + i0 * g;
    V acc[kUsers][kR];
    for (size_t r = 0; r < kR; ++r) {
      V bi = T::ZeroF32();
      if constexpr (kHasItemBias) {
        bi = T::NarrowLoadF32(v.item_bias + i0 + r * kL);
      }
      for (size_t u = 0; u < kUsers; ++u) {
        if constexpr (kHasItemBias && kHasUserBase) {
          acc[u][r] = T::AddF32(T::BroadcastF32(base[u]), bi);
        } else if constexpr (kHasUserBase) {
          acc[u][r] = T::BroadcastF32(base[u]);
        } else {
          acc[u][r] = bi;
        }
      }
    }
    size_t f0 = 0;
    for (; f0 + kL <= g; f0 += kL) {
      V col[kR][kL];
      for (size_t r = 0; r < kR; ++r) {
        T::LoadTransposedF32(q + r * kL * g + f0, g, col[r]);
      }
      mul_add(acc, col, f0, 0);
    }
    if (f0 < g) {
      V col[kR][kL];
      for (size_t r = 0; r < kR; ++r) {
        T::LoadTransposedF32(q + r * kL * g + (g - kL), g, col[r]);
      }
      mul_add(acc, col, g - kL, kL - (g - f0));
    }
    for (size_t u = 0; u < kUsers; ++u) {
      for (size_t r = 0; r < kR; ++r) {
        T::WidenStoreF32(out + u * ni + i0 + r * kL, acc[u][r]);
      }
    }
  }
  for (size_t u = 0; u < kUsers; ++u) {
    for (size_t i = i0; i < ni; ++i) {
      const float* qi = v.item_factors_f32 + i * g;
      float acc = BiasTermF32<kHasItemBias, kHasUserBase>(
          base[u], kHasItemBias ? static_cast<float>(v.item_bias[i]) : 0.0f);
      for (size_t f = 0; f < g; ++f) acc += pu[u][f] * qi[f];
      out[u * ni + i] = static_cast<double>(acc);
    }
  }
}

// Scores the block of bn users starting at users[b0] item-lane when it
// qualifies (few live users, g at least one vector of factors) and
// returns true; false leaves the block to the caller's user-lane kernel.
template <typename T, bool kHasItemBias, bool kHasUserBase>
bool TryItemLaneF64(const FactorView& v, std::span<const UserId> users,
                    size_t b0, size_t bn, std::span<double> out) {
  if (bn > kItemLaneMaxUsers || v.num_factors < T::kLanesF64) return false;
  double* rows = out.data() + b0 * static_cast<size_t>(v.num_items);
  WithLiveUsers(bn, [&](auto n) {
    ItemLaneF64<T, kHasItemBias, kHasUserBase, decltype(n)::value>(
        v, users.data() + b0, rows);
  });
  return true;
}

template <typename T, bool kHasItemBias, bool kHasUserBase>
bool TryItemLaneF32(const FactorView& v, std::span<const UserId> users,
                    size_t b0, size_t bn, std::span<double> out) {
  if (bn > kItemLaneMaxUsers || v.num_factors < T::kLanesF32) return false;
  double* rows = out.data() + b0 * static_cast<size_t>(v.num_items);
  WithLiveUsers(bn, [&](auto n) {
    ItemLaneF32<T, kHasItemBias, kHasUserBase, decltype(n)::value>(
        v, users.data() + b0, rows);
  });
  return true;
}

// ---------------------------------------------------------------------------
// fp64 user lanes: vectorized across the kU users of a block. The
// block's user rows are packed transposed ([factor][lane], a pure copy)
// so the inner loop is one aligned lane-vector load + broadcast q_i[f] +
// mul + add — per lane, exactly the reference's acc += pu[f] * qi[f].
// Blocks with few live users go to the item-lane kernel instead.

template <typename T, bool kHasItemBias, bool kHasUserBase>
void BatchF64(const FactorView& v, std::span<const UserId> users,
              std::span<double> out) {
  const size_t g = v.num_factors;
  const size_t ni = static_cast<size_t>(v.num_items);
  const size_t batch = users.size();
  AlignedVector<double>& pack = PackScratchF64();
  pack.resize(g * kU);
  alignas(64) double lanes[kU];
  alignas(64) double base[kU];

  for (size_t b0 = 0; b0 < batch; b0 += kU) {
    const size_t bn = std::min(kU, batch - b0);
    if (TryItemLaneF64<T, kHasItemBias, kHasUserBase>(v, users, b0, bn, out)) {
      continue;
    }
    double* o[kU];
    for (size_t b = 0; b < kU; ++b) {
      const size_t lane = b < bn ? b : 0;
      const size_t ub = static_cast<size_t>(users[b0 + lane]);
      const double* pu = v.user_factors + ub * g;
      for (size_t f = 0; f < g; ++f) pack[f * kU + b] = pu[f];
      o[b] = out.data() + (b0 + lane) * ni;
      base[b] = kHasUserBase ? v.user_base[ub] : 0.0;
    }
    typename T::F64 basev[T::kRegsF64];
    if constexpr (kHasUserBase) {
      for (size_t r = 0; r < T::kRegsF64; ++r) {
        basev[r] = T::LoadF64(base + r * T::kLanesF64);
      }
    }
    for (size_t i = 0; i < ni; ++i) {
      const double* qi = v.item_factors + i * g;
      typename T::F64 acc[T::kRegsF64];
      if constexpr (kHasItemBias && kHasUserBase) {
        const typename T::F64 bi = T::BroadcastF64(v.item_bias[i]);
        for (size_t r = 0; r < T::kRegsF64; ++r) acc[r] = T::AddF64(basev[r], bi);
      } else if constexpr (kHasItemBias) {
        const typename T::F64 bi = T::BroadcastF64(v.item_bias[i]);
        for (size_t r = 0; r < T::kRegsF64; ++r) acc[r] = bi;
      } else if constexpr (kHasUserBase) {
        for (size_t r = 0; r < T::kRegsF64; ++r) acc[r] = basev[r];
      } else {
        for (size_t r = 0; r < T::kRegsF64; ++r) acc[r] = T::ZeroF64();
      }
      for (size_t f = 0; f < g; ++f) {
        const typename T::F64 qf = T::BroadcastF64(qi[f]);
        const double* pf = pack.data() + f * kU;
        for (size_t r = 0; r < T::kRegsF64; ++r) {
          acc[r] = T::MulAddF64(acc[r], T::LoadF64(pf + r * T::kLanesF64), qf);
        }
      }
      for (size_t r = 0; r < T::kRegsF64; ++r) {
        T::StoreF64(lanes + r * T::kLanesF64, acc[r]);
      }
      for (size_t b = 0; b < bn; ++b) o[b][i] = lanes[b];
    }
  }
}

// ---------------------------------------------------------------------------
// fp32: same shape as fp64 with float lanes; biases narrow to float
// once (per block for user bases, per item for item biases) and the
// final lane value widens back to double for the output row.

template <typename T, bool kHasItemBias, bool kHasUserBase>
void BatchF32(const FactorView& v, std::span<const UserId> users,
              std::span<double> out) {
  const size_t g = v.num_factors;
  const size_t ni = static_cast<size_t>(v.num_items);
  const size_t batch = users.size();
  AlignedVector<float>& pack = PackScratchF32();
  pack.resize(g * kU);
  alignas(64) float lanes[kU];
  alignas(64) float base[kU];

  for (size_t b0 = 0; b0 < batch; b0 += kU) {
    const size_t bn = std::min(kU, batch - b0);
    if (TryItemLaneF32<T, kHasItemBias, kHasUserBase>(v, users, b0, bn, out)) {
      continue;
    }
    double* o[kU];
    for (size_t b = 0; b < kU; ++b) {
      const size_t lane = b < bn ? b : 0;
      const size_t ub = static_cast<size_t>(users[b0 + lane]);
      const float* pu = v.user_factors_f32 + ub * g;
      for (size_t f = 0; f < g; ++f) pack[f * kU + b] = pu[f];
      o[b] = out.data() + (b0 + lane) * ni;
      base[b] = kHasUserBase ? static_cast<float>(v.user_base[ub]) : 0.0f;
    }
    typename T::F32 basev[T::kRegsF32];
    if constexpr (kHasUserBase) {
      for (size_t r = 0; r < T::kRegsF32; ++r) {
        basev[r] = T::LoadF32(base + r * T::kLanesF32);
      }
    }
    for (size_t i = 0; i < ni; ++i) {
      const float* qi = v.item_factors_f32 + i * g;
      typename T::F32 acc[T::kRegsF32];
      if constexpr (kHasItemBias && kHasUserBase) {
        const typename T::F32 bi =
            T::BroadcastF32(static_cast<float>(v.item_bias[i]));
        for (size_t r = 0; r < T::kRegsF32; ++r) acc[r] = T::AddF32(basev[r], bi);
      } else if constexpr (kHasItemBias) {
        const typename T::F32 bi =
            T::BroadcastF32(static_cast<float>(v.item_bias[i]));
        for (size_t r = 0; r < T::kRegsF32; ++r) acc[r] = bi;
      } else if constexpr (kHasUserBase) {
        for (size_t r = 0; r < T::kRegsF32; ++r) acc[r] = basev[r];
      } else {
        for (size_t r = 0; r < T::kRegsF32; ++r) acc[r] = T::ZeroF32();
      }
      for (size_t f = 0; f < g; ++f) {
        const typename T::F32 qf = T::BroadcastF32(qi[f]);
        const float* pf = pack.data() + f * kU;
        for (size_t r = 0; r < T::kRegsF32; ++r) {
          acc[r] = T::MulAddF32(acc[r], T::LoadF32(pf + r * T::kLanesF32), qf);
        }
      }
      for (size_t r = 0; r < T::kRegsF32; ++r) {
        T::StoreF32(lanes + r * T::kLanesF32, acc[r]);
      }
      for (size_t b = 0; b < bn; ++b) {
        o[b][i] = static_cast<double>(lanes[b]);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// int8: the block's user rows are packed as sign-extended int16 factor
// *pairs* ([pair][lane][2]) so the inner loop is one broadcast of the
// item's (q[2p], q[2p+1]) pair + one multiply-add-adjacent (madd) into
// int32 accumulators. Odd g pads the trailing pair with zero on both
// sides, which contributes exactly 0. The integer dot is exact; the
// double combine is the shared DequantDot expression.

template <typename T, bool kHasItemBias, bool kHasUserBase>
void BatchI8(const FactorView& v, std::span<const UserId> users,
             std::span<double> out) {
  const size_t g = v.num_factors;
  const size_t ni = static_cast<size_t>(v.num_items);
  const size_t batch = users.size();
  const size_t npairs = (g + 1) / 2;
  AlignedVector<int16_t>& pack = PackScratchI16();
  pack.resize(npairs * kU * 2);
  alignas(64) int32_t dlanes[kU];

  for (size_t b0 = 0; b0 < batch; b0 += kU) {
    const size_t bn = std::min(kU, batch - b0);
    double* o[kU];
    double base[kU];
    float su[kU];
    float cu[kU];
    int32_t sp[kU];
    for (size_t b = 0; b < kU; ++b) {
      const size_t lane = b < bn ? b : 0;
      const size_t ub = static_cast<size_t>(users[b0 + lane]);
      const int8_t* pq = v.user_q8 + ub * g;
      for (size_t p = 0; p < npairs; ++p) {
        pack[p * 2 * kU + 2 * b] = pq[2 * p];
        pack[p * 2 * kU + 2 * b + 1] =
            (2 * p + 1 < g) ? static_cast<int16_t>(pq[2 * p + 1]) : int16_t{0};
      }
      o[b] = out.data() + (b0 + lane) * ni;
      base[b] = kHasUserBase ? v.user_base[ub] : 0.0;
      su[b] = v.user_scale[ub];
      cu[b] = v.user_center[ub];
      sp[b] = v.user_qsum[ub];
    }
    for (size_t i = 0; i < ni; ++i) {
      const int8_t* qq = v.item_q8 + i * g;
      typename T::I32 acc[T::kRegsI32];
      for (size_t r = 0; r < T::kRegsI32; ++r) acc[r] = T::ZeroI32();
      for (size_t p = 0; p < npairs; ++p) {
        const int16_t q0 = qq[2 * p];
        const int16_t q1 = (2 * p + 1 < g) ? qq[2 * p + 1] : int16_t{0};
        const int32_t pair = static_cast<int32_t>(
            static_cast<uint32_t>(static_cast<uint16_t>(q0)) |
            (static_cast<uint32_t>(static_cast<uint16_t>(q1)) << 16));
        const typename T::I32 bc = T::BroadcastPair(pair);
        const int16_t* row = pack.data() + p * 2 * kU;
        for (size_t r = 0; r < T::kRegsI32; ++r) {
          acc[r] = T::MaddAcc(acc[r], row + r * T::kI16PerReg, bc);
        }
      }
      for (size_t r = 0; r < T::kRegsI32; ++r) {
        T::StoreI32(dlanes + r * (T::kI16PerReg / 2), acc[r]);
      }
      const double bi = kHasItemBias ? v.item_bias[i] : 0.0;
      const float si = v.item_scale[i];
      const float ci = v.item_center[i];
      const int32_t sq = v.item_qsum[i];
      for (size_t b = 0; b < bn; ++b) {
        o[b][i] = BiasTermF64<kHasItemBias, kHasUserBase>(base[b], bi) +
                  DequantDot(g, su[b], cu[b], sp[b], si, ci, sq, dlanes[b]);
      }
    }
  }
}

// Folds the runtime bias pointers into the compile-time kernel combos,
// mirroring the scalar reference's dispatch.
template <typename T>
void DispatchF64(const FactorView& v, std::span<const UserId> users,
                 std::span<double> out) {
  if (v.item_bias) {
    if (v.user_base) return BatchF64<T, true, true>(v, users, out);
    return BatchF64<T, true, false>(v, users, out);
  }
  if (v.user_base) return BatchF64<T, false, true>(v, users, out);
  return BatchF64<T, false, false>(v, users, out);
}

template <typename T>
void DispatchF32(const FactorView& v, std::span<const UserId> users,
                 std::span<double> out) {
  if (v.item_bias) {
    if (v.user_base) return BatchF32<T, true, true>(v, users, out);
    return BatchF32<T, true, false>(v, users, out);
  }
  if (v.user_base) return BatchF32<T, false, true>(v, users, out);
  return BatchF32<T, false, false>(v, users, out);
}

template <typename T>
void DispatchI8(const FactorView& v, std::span<const UserId> users,
                std::span<double> out) {
  if (v.item_bias) {
    if (v.user_base) return BatchI8<T, true, true>(v, users, out);
    return BatchI8<T, true, false>(v, users, out);
  }
  if (v.user_base) return BatchI8<T, false, true>(v, users, out);
  return BatchI8<T, false, false>(v, users, out);
}

}  // namespace internal
}  // namespace ganc

#endif  // GANC_RECOMMENDER_FACTOR_KERNELS_IMPL_H_
