// Top-k selection over scored items.
//
// Every recommender in this library ultimately reduces to "return the k
// highest-scored candidate items"; this header centralizes that kernel so
// tie-breaking is consistent everywhere (higher score first, then lower
// item id for determinism).
//
// The kernel replaces the legacy std::priority_queue selection with two
// in-place regimes, picked by how dense k is in n (measured: either one
// alone loses badly in the other's regime):
//   sparse k (k << n, small): a threshold scan over the candidates with
//     sorted insertion into the k-bounded output — the common reject path
//     is a single comparison against the current worst kept entry, and
//     improvements are rare (O(k log(n/k)) expected), so no heap
//     maintenance is ever paid and the output stays sorted for free.
//   dense k: materialize into the caller's reusable buffer, move the k
//     best to the front with nth_element under the total ScoredBetter
//     order, then sort the kept prefix (tie-aware; the order is total, so
//     the result is unique and identical to the sparse path).
// Both regimes reuse the caller's vector (ScoringContext::TopK() in the
// framework loops), so selection allocates nothing once warm.

#ifndef GANC_UTIL_TOP_K_H_
#define GANC_UTIL_TOP_K_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace ganc {

/// A scored candidate.
struct ScoredItem {
  int32_t item = 0;
  double score = 0.0;
};

/// Ordering: higher score first; ties broken by smaller item id.
inline bool ScoredBetter(const ScoredItem& a, const ScoredItem& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.item < b.item;
}

/// ScoredBetter as a stateless comparator type, so standard-library
/// algorithms inline the comparison (a function pointer would not).
struct ScoredBetterCmp {
  bool operator()(const ScoredItem& a, const ScoredItem& b) const {
    return ScoredBetter(a, b);
  }
};

/// Shrinks the materialized candidate buffer `*out` to its k best entries
/// in best-first order (tie-aware: ScoredBetter is total, so the output
/// is unique). The buffer keeps its capacity for reuse across calls.
inline void PartialSelectBest(std::vector<ScoredItem>* out, size_t k) {
  if (k == 0) {
    out->clear();
    return;
  }
  if (out->size() > k) {
    std::nth_element(out->begin(),
                     out->begin() + static_cast<ptrdiff_t>(k) - 1, out->end(),
                     ScoredBetterCmp{});
    out->resize(k);
  }
  std::sort(out->begin(), out->end(), ScoredBetterCmp{});
}

/// True when the threshold-scan regime is the right kernel for selecting
/// k of n: k must be small in absolute terms (insertion shifts are O(k))
/// and sparse in n (rejections dominate). Otherwise partial selection via
/// nth_element over the materialized candidates wins.
inline bool UseScanSelect(size_t k, size_t n) { return k <= 128 && k * 8 < n; }

/// The sparse-k threshold scan: streams `emit(i)` for i in [0, n) into the
/// k-bounded best-first `*out` (which starts empty). The current worst
/// kept (score, item) is held in locals so the hot reject path is one
/// score comparison per block of candidates with no memory traffic;
/// improving candidates insertion-place (O(k), rare). `emit` must be a
/// pure function of i: it runs a block ahead of the insertions. The tie
/// order is exactly ScoredBetter's, so output matches PartialSelectBest.
template <typename EmitFn>
void ScanSelectBestInto(size_t n, size_t k, EmitFn&& emit,
                        std::vector<ScoredItem>* out) {
  size_t have = 0;
  double worst_score = 0.0;
  int32_t worst_item = 0;
  const auto offer = [&](const ScoredItem& c) {
    if (have == k) {
      if (c.score < worst_score ||
          (c.score == worst_score && c.item >= worst_item)) {
        return;
      }
      out->pop_back();
    } else {
      ++have;
    }
    out->insert(
        std::upper_bound(out->begin(), out->end(), c, ScoredBetterCmp{}), c);
    worst_score = out->back().score;
    worst_item = out->back().item;
  };
  // Blocks of kScanBlock candidates: once k are held, a block whose
  // scores all fall below the worst kept one is rejected by one
  // branch-free test instead of one branch per candidate. Only blocks
  // that might hold an entrant are offered candidate by candidate.
  constexpr size_t kScanBlock = 8;
  size_t i = 0;
  for (; i + kScanBlock <= n; i += kScanBlock) {
    ScoredItem block[kScanBlock];
    for (size_t j = 0; j < kScanBlock; ++j) block[j] = emit(i + j);
    if (have == k) {
      bool maybe = false;
      for (size_t j = 0; j < kScanBlock; ++j) {
        maybe |= !(block[j].score < worst_score);
      }
      if (!maybe) continue;
    }
    for (size_t j = 0; j < kScanBlock; ++j) offer(block[j]);
  }
  for (; i < n; ++i) offer(emit(i));
}

/// Returns the k best entries of `candidates` in best-first order.
/// Average O(n + k log k); stable deterministic tie-breaking.
inline std::vector<ScoredItem> SelectTopK(
    const std::vector<ScoredItem>& candidates, size_t k) {
  std::vector<ScoredItem> out;
  if (k == 0) return out;
  if (UseScanSelect(k, candidates.size())) {
    out.reserve(k);
    ScanSelectBestInto(
        candidates.size(), k, [&](size_t i) { return candidates[i]; }, &out);
    return out;
  }
  out = candidates;
  PartialSelectBest(&out, k);
  return out;
}

/// Allocation-free top-k over n entries produced on the fly: `emit(i)`
/// for i in [0, n) returns the i-th ScoredItem; `*out` receives the k
/// best in best-first order and doubles as the selection scratch (in the
/// dense-k regime its capacity grows to n once and is reused across
/// calls). Tie-breaking is identical to SelectTopK.
template <typename EmitFn>
void SelectTopKEmittedInto(size_t n, size_t k, EmitFn&& emit,
                           std::vector<ScoredItem>* out) {
  out->clear();
  if (k == 0) return;
  if (UseScanSelect(k, n)) {
    ScanSelectBestInto(n, k, emit, out);
    return;
  }
  out->reserve(n);
  for (size_t i = 0; i < n; ++i) out->push_back(emit(i));
  PartialSelectBest(out, k);
}

/// Allocation-free top-k over candidate item ids scored on the fly.
/// `score_of(item)` maps an item id to its score; `*out` receives the k
/// best entries in best-first order (see SelectTopKEmittedInto).
template <typename ScoreFn>
void SelectTopKByInto(std::span<const int32_t> candidates, size_t k,
                      ScoreFn&& score_of, std::vector<ScoredItem>* out) {
  SelectTopKEmittedInto(
      candidates.size(), k,
      [&](size_t i) {
        const int32_t item = candidates[i];
        return ScoredItem{item, score_of(item)};
      },
      out);
}

/// Allocation-free top-k over an entire dense score row, excluding items
/// for which `skip(item)` is true. Equivalent to (and bit-identical with)
/// SelectTopKFromScoresInto over the ascending list of non-skipped item
/// ids, but walks the row sequentially — no candidate list is ever
/// materialized, and the hot reject path is one score comparison, so the
/// skip predicate only runs for candidates that would enter the top-k.
/// This is the kernel behind the full-catalog "all unrated items"
/// consumers, where candidates are the whole catalog minus a short
/// per-user history.
template <typename SkipFn>
void SelectTopKDenseInto(std::span<const double> scores, size_t k,
                         SkipFn&& skip, std::vector<ScoredItem>* out) {
  out->clear();
  if (k == 0) return;
  if (UseScanSelect(k, scores.size())) {
    // Seed phase: insert until k entries are held (skip runs first here,
    // since every non-skipped item enters).
    size_t i = 0;
    for (; i < scores.size() && out->size() < k; ++i) {
      const int32_t item = static_cast<int32_t>(i);
      if (skip(item)) continue;
      const ScoredItem c{item, scores[i]};
      out->insert(
          std::upper_bound(out->begin(), out->end(), c, ScoredBetterCmp{}), c);
    }
    // Scan phase. Item ids only increase, so every held entry has a
    // smaller id than the current item and a score tie always loses —
    // the reject test collapses to one comparison, and the skip
    // predicate only runs for items that would enter the top-k.
    double worst_score = out->empty() ? 0.0 : out->back().score;
    for (; i < scores.size(); ++i) {
      const double s = scores[i];
      if (s <= worst_score) continue;
      const int32_t item = static_cast<int32_t>(i);
      if (skip(item)) continue;
      out->pop_back();
      const ScoredItem c{item, s};
      out->insert(
          std::upper_bound(out->begin(), out->end(), c, ScoredBetterCmp{}), c);
      worst_score = out->back().score;
    }
    return;
  }
  out->reserve(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    const int32_t item = static_cast<int32_t>(i);
    if (!skip(item)) out->push_back({item, scores[i]});
  }
  PartialSelectBest(out, k);
}

/// Allocation-free top-k over a dense score span restricted to
/// `candidates` item ids.
inline void SelectTopKFromScoresInto(std::span<const double> scores,
                                     std::span<const int32_t> candidates,
                                     size_t k, std::vector<ScoredItem>* out) {
  SelectTopKByInto(
      candidates, k,
      [scores](int32_t item) { return scores[static_cast<size_t>(item)]; },
      out);
}

/// Top-k over a dense score vector restricted to `candidates` item ids.
inline std::vector<ScoredItem> SelectTopKFromScores(
    const std::vector<double>& scores, const std::vector<int32_t>& candidates,
    size_t k) {
  std::vector<ScoredItem> out;
  SelectTopKFromScoresInto(scores, candidates, k, &out);
  return out;
}

}  // namespace ganc

#endif  // GANC_UTIL_TOP_K_H_
