// Kernel dispatch: cpuid eligibility, startup micro-probe, GANC_KERNEL
// override. See factor_kernels.h for the selection contract.

#include "recommender/factor_kernels.h"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "recommender/factor_kernels_impl.h"
#include "util/aligned.h"

namespace ganc {

namespace {

// Synthetic probe workload: two full user blocks plus one lone user (the
// item-lane shape a lightly loaded server scores most), timed in one
// call, against a catalog big enough that q_i streaming dominates and
// small enough that the whole probe (4 variants x 4 runs) costs
// single-digit milliseconds.
constexpr size_t kProbeUsers = 2 * kFactorKernelUserBlock + 1;
constexpr size_t kProbeItems = 512;
constexpr size_t kProbeFactors = 48;
constexpr int kProbeRuns = 3;  // timed runs per variant; best-of wins

struct DispatchState {
  std::mutex mu;
  bool selected = false;
  KernelVariant active = KernelVariant::kScalar;
  const char* source = "probe";
  std::array<double, kNumKernelVariants> probe_ns{};
  // Fast path: ScoreBatchInto reads this without the lock once selected.
  std::atomic<const KernelOps*> active_ops{nullptr};
};

DispatchState& State() {
  static DispatchState s;
  return s;
}

bool VariantCompiled(KernelVariant v) {
  switch (v) {
    case KernelVariant::kScalar: return true;
    case KernelVariant::kSse2: return internal::Sse2KernelCompiled();
    case KernelVariant::kAvx2: return internal::Avx2KernelCompiled();
    case KernelVariant::kAvx512: return internal::Avx512KernelCompiled();
  }
  return false;
}

bool CpuRuns(KernelVariant v) {
#if defined(__x86_64__) || defined(__i386__)
  switch (v) {
    case KernelVariant::kScalar:
      return true;
    case KernelVariant::kSse2:
      return __builtin_cpu_supports("sse2");
    case KernelVariant::kAvx2:
      return __builtin_cpu_supports("avx2");
    case KernelVariant::kAvx512:
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512bw") &&
             __builtin_cpu_supports("avx512vl");
  }
  return false;
#else
  return v == KernelVariant::kScalar;
#endif
}

// Deterministic fill so every probe (and every variant within one
// probe) scores the same block.
double ProbeValue(uint64_t& lcg) {
  lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
  return static_cast<double>((lcg >> 11) & 0xFFFFF) / 1048576.0 - 0.5;
}

// Times each supported variant's fp64 kernel (the dominant serving
// path) and records ns per scored user in state.probe_ns.
KernelVariant RunProbe(DispatchState& s) {
  AlignedVector<double> user(kProbeUsers * kProbeFactors);
  AlignedVector<double> item(kProbeItems * kProbeFactors);
  AlignedVector<double> bias(kProbeItems);
  AlignedVector<double> base(kProbeUsers);
  uint64_t lcg = 0x9E3779B97F4A7C15ULL;
  for (double& x : user) x = ProbeValue(lcg);
  for (double& x : item) x = ProbeValue(lcg);
  for (double& x : bias) x = ProbeValue(lcg);
  for (double& x : base) x = ProbeValue(lcg);

  FactorView v;
  v.user_factors = user.data();
  v.item_factors = item.data();
  v.item_bias = bias.data();
  v.user_base = base.data();
  v.num_items = static_cast<int32_t>(kProbeItems);
  v.num_factors = kProbeFactors;

  std::array<UserId, kProbeUsers> users;
  for (size_t u = 0; u < kProbeUsers; ++u) users[u] = static_cast<UserId>(u);
  AlignedVector<double> out(kProbeUsers * kProbeItems);

  KernelVariant best = KernelVariant::kScalar;
  double best_ns = 0.0;
  for (size_t idx = 0; idx < kNumKernelVariants; ++idx) {
    const KernelVariant cand = static_cast<KernelVariant>(idx);
    if (!KernelVariantSupported(cand)) continue;
    const KernelOps& ops = KernelOpsFor(cand);
    ops.batch_f64(v, users, out);  // warm up caches + first-touch scratch
    double ns = 0.0;
    for (int run = 0; run < kProbeRuns; ++run) {
      const auto t0 = std::chrono::steady_clock::now();
      ops.batch_f64(v, users, out);
      const auto t1 = std::chrono::steady_clock::now();
      const double run_ns =
          std::chrono::duration<double, std::nano>(t1 - t0).count() /
          static_cast<double>(kProbeUsers);
      if (run == 0 || run_ns < ns) ns = run_ns;
    }
    s.probe_ns[idx] = ns;
    if (best_ns == 0.0 || ns < best_ns) {
      best_ns = ns;
      best = cand;
    }
  }
  return best;
}

// Selection under s.mu: env override first, else probe.
void SelectLocked(DispatchState& s) {
  s.probe_ns.fill(0.0);
  const char* env = std::getenv("GANC_KERNEL");
  if (env != nullptr && env[0] != '\0') {
    Result<KernelVariant> parsed = ParseKernelVariant(env);
    if (!parsed.ok()) {
      std::fprintf(stderr,
                   "ganc: ignoring GANC_KERNEL=%s (%s); probing instead\n", env,
                   parsed.status().message().c_str());
    } else if (!KernelVariantSupported(*parsed)) {
      std::fprintf(
          stderr,
          "ganc: GANC_KERNEL=%s is not runnable on this host; probing "
          "instead\n",
          env);
    } else {
      s.active = *parsed;
      s.source = "env";
      s.selected = true;
      s.active_ops.store(&KernelOpsFor(s.active), std::memory_order_release);
      return;
    }
  }
  s.active = RunProbe(s);
  s.source = "probe";
  s.selected = true;
  s.active_ops.store(&KernelOpsFor(s.active), std::memory_order_release);
}

void EnsureSelected(DispatchState& s) {
  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.selected) SelectLocked(s);
}

}  // namespace

const char* KernelVariantName(KernelVariant v) {
  switch (v) {
    case KernelVariant::kScalar: return "scalar";
    case KernelVariant::kSse2: return "sse2";
    case KernelVariant::kAvx2: return "avx2";
    case KernelVariant::kAvx512: return "avx512";
  }
  return "unknown";
}

Result<KernelVariant> ParseKernelVariant(const std::string& s) {
  if (s == "scalar") return KernelVariant::kScalar;
  if (s == "sse2") return KernelVariant::kSse2;
  if (s == "avx2") return KernelVariant::kAvx2;
  if (s == "avx512") return KernelVariant::kAvx512;
  return Status::InvalidArgument(
      "unknown kernel variant '" + s +
      "' (expected scalar, sse2, avx2, or avx512)");
}

const KernelOps& KernelOpsFor(KernelVariant v) {
  switch (v) {
    case KernelVariant::kScalar: return internal::ScalarKernelOps();
    case KernelVariant::kSse2: return internal::Sse2KernelOps();
    case KernelVariant::kAvx2: return internal::Avx2KernelOps();
    case KernelVariant::kAvx512: return internal::Avx512KernelOps();
  }
  return internal::ScalarKernelOps();
}

bool KernelVariantSupported(KernelVariant v) {
  return VariantCompiled(v) && CpuRuns(v);
}

std::vector<KernelVariant> SupportedKernelVariants() {
  std::vector<KernelVariant> out;
  for (size_t idx = 0; idx < kNumKernelVariants; ++idx) {
    const KernelVariant v = static_cast<KernelVariant>(idx);
    if (KernelVariantSupported(v)) out.push_back(v);
  }
  return out;
}

KernelVariant ActiveKernelVariant() {
  DispatchState& s = State();
  EnsureSelected(s);
  std::lock_guard<std::mutex> lock(s.mu);
  return s.active;
}

const KernelOps& ActiveKernelOps() {
  DispatchState& s = State();
  const KernelOps* ops = s.active_ops.load(std::memory_order_acquire);
  if (ops != nullptr) return *ops;
  EnsureSelected(s);
  return *s.active_ops.load(std::memory_order_acquire);
}

const char* ActiveKernelSelection() {
  DispatchState& s = State();
  EnsureSelected(s);
  std::lock_guard<std::mutex> lock(s.mu);
  return s.source;
}

std::vector<double> KernelProbeNsPerUser() {
  DispatchState& s = State();
  EnsureSelected(s);
  std::lock_guard<std::mutex> lock(s.mu);
  return std::vector<double>(s.probe_ns.begin(), s.probe_ns.end());
}

Status ForceKernelVariant(KernelVariant v) {
  if (!KernelVariantSupported(v)) {
    return Status::InvalidArgument(
        std::string("kernel variant '") + KernelVariantName(v) +
        "' is not runnable on this host");
  }
  DispatchState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  s.active = v;
  s.source = "forced";
  s.selected = true;
  s.active_ops.store(&KernelOpsFor(v), std::memory_order_release);
  return Status::OK();
}

void ResetKernelDispatch() {
  DispatchState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  s.selected = false;
  s.active_ops.store(nullptr, std::memory_order_release);
}

}  // namespace ganc
