// Seeded open-loop request schedules for the end-to-end benchmark.
//
// A schedule is a list of TOPN requests, each stamped with the offset
// (from the phase start) at which it is due to be sent. Arrivals are
// Poisson: exponential inter-arrival gaps at the phase's offered rate.
// Users are uniform over the corpus. Everything is drawn from one
// splitmix64 stream, so the same (spec, rate, seconds, seed) always
// yields the same schedule, on any host.
#ifndef PERFBENCH_HARNESS_SCHEDULE_H_
#define PERFBENCH_HARNESS_SCHEDULE_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Op {
  uint64_t at_ns = 0;  ///< due time, offset from the phase start
  int32_t user = 0;
  int32_t n = 10;
};

/// The traffic of one serving workload: `TOPN n=<n>` for users uniform
/// over [0, num_users).
struct MixSpec {
  int32_t num_users = 1;
  int32_t n = 10;
};

/// The request's wire form, as ganc_serve and `ganc_cli replay` read it.
inline std::string RequestLine(const Op& op) {
  return "TOPN user=" + std::to_string(op.user) + " n=" + std::to_string(op.n);
}

class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, bound).
  uint64_t Below(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

/// Poisson schedule of `seconds` at `rate` requests/s.
inline std::vector<Op> MakeSchedule(const MixSpec& spec, double rate,
                                    double seconds, uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<Op> ops;
  const double horizon_ns = seconds * 1e9;
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.Uniform()) / rate * 1e9;
    if (t >= horizon_ns) break;
    Op op;
    op.at_ns = static_cast<uint64_t>(t);
    op.user = static_cast<int32_t>(rng.Below(static_cast<uint64_t>(spec.num_users)));
    op.n = spec.n;
    ops.push_back(op);
  }
  return ops;
}

/// Seed of one named phase, so phases of a run draw independent streams.
inline uint64_t PhaseSeed(uint64_t run_seed, const std::string& phase) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : phase) h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
  return SplitMix64(run_seed ^ h).Next();
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SCHEDULE_H_
