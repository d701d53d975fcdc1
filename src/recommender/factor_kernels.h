// Runtime-dispatched batch scoring kernels for FactorScoringEngine.
//
// The batch path ScoreBatchInto is implemented four times — scalar,
// SSE2, AVX2, AVX-512 — each in its own translation unit compiled with
// exactly the ISA flags it needs (CMakeLists.txt sets per-source
// options; there is no global -march). Dispatch picks one variant per
// process at first use:
//
//   1. cpuid gates which variants are *eligible* (compiled in AND the
//      CPU reports the ISA), then
//   2. a micro-probe times every eligible variant's fp64 kernel on a
//      synthetic factor block (two full user blocks and one lone user,
//      so both kernel shapes below count) and pins the fastest.
//      Probing — not cpuid alone — is the selector because on
//      virtualized hosts wide vectors can measurably lose to the scalar
//      block, and the winner differs between runs on some hosts.
//   3. A GANC_KERNEL=scalar|sse2|avx2|avx512 environment override skips
//      the probe and pins that variant (tests/CI iterate it); naming a
//      variant the host cannot run falls back to the probe with a
//      warning.
//
// Each variant scores a batch in blocks of kFactorKernelUserBlock users,
// in one of two shapes (factor_kernels_impl.h):
//   user-lane  the SIMD lanes hold the block's users and each item row
//              is broadcast across them: the fast shape for full
//              blocks, but a ragged block pays for every lane.
//   item-lane  the lanes hold consecutive items, whose rows are
//              transposed in registers and shared by every live user:
//              cost grows with the live users, so a lone request no
//              longer pays for a block of eight.
// A block with at most half a block of live users runs item-lane (fp64
// and fp32, when g is at least the variant's vector width; int8 is
// always user-lane). The threshold is derived from the block size, not
// configurable.
//
// Every variant, in both shapes, is bit-identical to the single-user
// FactorScoringEngine::ScoreInto at every precision: fp64/fp32 lanes
// each replay one (user, item) pair's reference accumulation sequence
// (the kernel TUs are compiled with -ffp-contract=off so no variant
// fuses the mul+add the reference keeps separate), and int8 kernels
// compute an exact integer dot before the shared DequantDot combine.
//
// Each variant also carries the per-row min-max normalization GANC
// applies to accuracy scores (KernelOps::min_max_normalize, reached
// through MinMaxNormalize in util/stats.h): vector min/max and
// (v - lo) / range passes, bit-identical to the scalar reference because
// min/max only select and the subtract and divide are correctly rounded.

#ifndef GANC_RECOMMENDER_FACTOR_KERNELS_H_
#define GANC_RECOMMENDER_FACTOR_KERNELS_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "recommender/factor_view.h"
#include "util/status.h"

namespace ganc {

/// Users per register block shared by every kernel variant (and re-
/// exported as FactorScoringEngine::kUserBlock / kScoreBatch).
inline constexpr size_t kFactorKernelUserBlock = 8;

enum class KernelVariant : uint8_t {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
  kAvx512 = 3,
};

inline constexpr size_t kNumKernelVariants = 4;

/// Lowercase name as accepted by GANC_KERNEL ("scalar", "sse2", ...).
const char* KernelVariantName(KernelVariant v);
Result<KernelVariant> ParseKernelVariant(const std::string& s);

/// One batch-scoring entry point: scores `users` into batch-major `out`
/// (users.size() x view.num_items). The precision-matching table slot
/// is chosen by the engine from view.precision.
using BatchKernelFn = void (*)(const FactorView& view,
                               std::span<const UserId> users,
                               std::span<double> out);

/// Min-max normalizes one score row in place (MinMaxNormalize's kernel).
using RowNormalizeFn = void (*)(std::span<double> row);

/// A variant's kernel set: one batch entry per FactorPrecision, plus the
/// per-row min-max normalization GANC applies to accuracy scores.
struct KernelOps {
  BatchKernelFn batch_f64 = nullptr;
  BatchKernelFn batch_f32 = nullptr;
  BatchKernelFn batch_i8 = nullptr;
  RowNormalizeFn min_max_normalize = nullptr;
};

/// Per-variant tables. Each lives in its own TU; on builds/targets where
/// a variant's ISA is unavailable at compile time the accessor returns
/// the scalar table (and KernelVariantSupported reports false).
const KernelOps& KernelOpsFor(KernelVariant v);

/// True when the variant was compiled with its ISA *and* cpuid reports
/// the CPU runs it. kScalar is always supported.
bool KernelVariantSupported(KernelVariant v);

/// The supported variants, in enum order (always starts with kScalar).
std::vector<KernelVariant> SupportedKernelVariants();

/// The pinned dispatch choice (env override or micro-probe winner;
/// selected once per process on first call, then constant).
KernelVariant ActiveKernelVariant();
const KernelOps& ActiveKernelOps();

/// How the active variant was chosen: "env" (GANC_KERNEL), "probe"
/// (micro-probe timing), or "forced" (ForceKernelVariant).
const char* ActiveKernelSelection();

/// Probe timings from the last selection, ns per scored user, indexed by
/// KernelVariant; 0.0 for variants that were not probed (unsupported, or
/// selection bypassed the probe). Forces selection to run first.
std::vector<double> KernelProbeNsPerUser();

/// Re-pins dispatch to `v` (tests/bench iterate variants in-process).
/// Fails without changing the active variant when `v` is unsupported.
Status ForceKernelVariant(KernelVariant v);

/// Drops any pinned choice; the next ActiveKernel* call re-runs env /
/// probe selection.
void ResetKernelDispatch();

}  // namespace ganc

#endif  // GANC_RECOMMENDER_FACTOR_KERNELS_H_
