// Spans and the per-layer latency ledger.
//
// The traced run records one span per call into a layer: name, start,
// end, parent span and request id. Spans stay in memory until the run
// ends. A span's self time is its duration minus the part of it that its
// children cover; a layer's per-request cost is its summed self time over
// the number of requests. The ledger lines those costs up against the
// untraced client latency; whatever the layers do not explain is the
// unattributed remainder, so the rows always add back up to the total.
#ifndef PERFBENCH_HARNESS_LEDGER_H_
#define PERFBENCH_HARNESS_LEDGER_H_

#include <algorithm>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline uint64_t MonoNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// Value at quantile q (0..1) of `v` (sorted in place), nearest rank;
/// T{} when `v` is empty.
template <typename T>
T Quantile(std::vector<T>& v, double q) {
  if (v.empty()) return T{};
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

struct Span {
  const char* name = "";
  uint64_t start = 0;
  uint64_t end = 0;
  int32_t parent = -1;
  uint32_t request = 0;
};

/// In-memory span recorder. Disabled, Begin/End cost one branch and read
/// no clock, which is how the traced run measures its own overhead.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  int32_t Begin(const char* name, int32_t parent, uint32_t request) {
    if (!enabled_) return -1;
    spans_.push_back({name, MonoNs(), 0, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end = MonoNs();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Self time of each span: its duration minus the union of its direct
/// children's intervals (clipped to the parent).
inline std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<size_t>(s.parent)].push_back({s.start, s.end});
    }
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0;
    uint64_t cursor = s.start;
    for (auto [b, e] : iv) {
      b = std::max(b, cursor);
      e = std::min(e, s.end);
      if (e > b) {
        covered += e - b;
        cursor = e;
      }
    }
    const uint64_t dur = s.end > s.start ? s.end - s.start : 0;
    self[i] = dur > covered ? dur - covered : 0;
  }
  return self;
}

/// Self-time summary of one layer (span name).
struct LayerStat {
  uint64_t count = 0;
  double mean_ns = 0.0;
  double p99_ns = 0.0;
  double total_ns = 0.0;
};

inline std::map<std::string, LayerStat> SummarizeLayers(
    const std::vector<Span>& spans) {
  const std::vector<uint64_t> self = SelfTimes(spans);
  std::map<std::string, std::vector<uint64_t>> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_name[spans[i].name].push_back(self[i]);
  }
  std::map<std::string, LayerStat> out;
  for (auto& [name, v] : by_name) {
    LayerStat st;
    st.count = v.size();
    for (const uint64_t x : v) st.total_ns += static_cast<double>(x);
    st.mean_ns = st.total_ns / static_cast<double>(v.size());
    st.p99_ns = static_cast<double>(Quantile(v, 0.99));
    out[name] = st;
  }
  return out;
}

/// Per-request cost of each layer set against the client-observed total.
struct Ledger {
  double client_us = 0.0;
  std::vector<std::pair<std::string, double>> layers_us;

  void Add(const std::string& name, double us) { layers_us.push_back({name, us}); }
  double LayerSum() const {
    double sum = 0.0;
    for (const auto& [name, us] : layers_us) sum += us;
    return sum;
  }
  double Unattributed() const { return client_us - LayerSum(); }
  double UnattributedPct() const {
    return client_us == 0.0 ? 0.0 : 100.0 * Unattributed() / client_us;
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_LEDGER_H_
