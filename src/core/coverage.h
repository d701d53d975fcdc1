// Coverage recommenders for GANC (Section III-B).
//
//   Rand  c(u, i) ~ U(0, 1)            maximal-coverage control
//   Stat  c(i) = 1 / sqrt(f_i^R + 1)   static long-tail promotion
//   Dyn   c(i) = 1 / sqrt(f_i^A + 1)   diminishing-returns promotion based
//                                      on the recommendations made so far
//
// Dyn is the submodularity-inducing component: every time an item is
// recommended its future coverage gain shrinks, so OSLG steers later
// (higher-theta) users toward still-uncovered items.
//
// The greedy (GreedyTopNForUserInto) reads a user's coverage scores for
// all candidates through one ScoreItemsInto call, so the per-item cost is
// a gather (Stat, Dyn) or a short inline computation (Rand, the snapshot
// view), not a virtual call with a sqrt and a divide.

#ifndef GANC_CORE_COVERAGE_H_
#define GANC_CORE_COVERAGE_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"

namespace ganc {

/// The long-tail gain 1 / sqrt(f + 1) of an item recommended or rated f
/// times: Stat's and Dyn's score, and CollectionValue's coverage term.
inline double CoverageGain(double f) { return 1.0 / std::sqrt(f + 1.0); }

/// Coverage score provider c(u, i) in [0, 1].
class CoverageModel {
 public:
  virtual ~CoverageModel() = default;

  /// Coverage score of item i for user u.
  virtual double Score(UserId u, ItemId i) const = 0;

  /// Writes Score(u, items[k]) into out[k] for every k, bit for bit
  /// (out.size() == items.size()): one call per user on the greedy path.
  virtual void ScoreItemsInto(UserId u, std::span<const ItemId> items,
                              std::span<double> out) const = 0;

  /// Notifies the model that `i` was just recommended (no-op unless Dyn).
  virtual void Observe(ItemId /*i*/) {}

  /// True when Observe changes future scores (couples users' optima).
  virtual bool IsDynamic() const { return false; }

  virtual std::string name() const = 0;
};

/// Rand: uniform per (seed, user, item), deterministic and thread-safe.
class RandCoverage : public CoverageModel {
 public:
  RandCoverage(int32_t num_items, uint64_t seed)
      : num_items_(num_items), seed_(seed) {}

  double Score(UserId u, ItemId i) const override;
  void ScoreItemsInto(UserId u, std::span<const ItemId> items,
                      std::span<double> out) const override;
  std::string name() const override { return "Rand"; }

 private:
  int32_t num_items_;
  uint64_t seed_;
};

/// Stat: monotone decreasing in train popularity; constant gain.
class StatCoverage : public CoverageModel {
 public:
  explicit StatCoverage(const RatingDataset& train);

  double Score(UserId u, ItemId i) const override;
  void ScoreItemsInto(UserId u, std::span<const ItemId> items,
                      std::span<double> out) const override;
  std::string name() const override { return "Stat"; }

 private:
  std::vector<double> score_;  // 1 / sqrt(f_i^R + 1)
};

/// Dyn: decreasing in the running recommendation frequency f^A.
///
/// Alongside the counts it keeps the score row score_[i] =
/// CoverageGain(f_i^A), updated for the one item each Observe touches and
/// rebuilt by SetCounts, so Score and ScoreItemsInto only read it. The row
/// costs 8 bytes per item (160 KB at 20k items) and is always equal to
/// what the counts give.
class DynCoverage : public CoverageModel {
 public:
  explicit DynCoverage(int32_t num_items)
      : counts_(static_cast<size_t>(num_items), 0),
        score_(static_cast<size_t>(num_items), CoverageGain(0.0)) {}

  double Score(UserId /*u*/, ItemId i) const override {
    return score_[static_cast<size_t>(i)];
  }
  void ScoreItemsInto(UserId u, std::span<const ItemId> items,
                      std::span<double> out) const override;
  void Observe(ItemId i) override {
    const size_t ii = static_cast<size_t>(i);
    score_[ii] = CoverageGain(static_cast<double>(++counts_[ii]));
  }
  bool IsDynamic() const override { return true; }
  std::string name() const override { return "Dyn"; }

  /// Running recommendation frequencies f^A (the OSLG snapshot payload).
  const std::vector<uint32_t>& counts() const { return counts_; }
  void SetCounts(std::vector<uint32_t> counts);

 private:
  std::vector<uint32_t> counts_;
  std::vector<double> score_;  // CoverageGain(counts_[i])
};

/// Read-only Dyn scoring over borrowed counts. OSLG's parallel phase
/// scores every out-of-sample user against the snapshot of their
/// nearest-theta sampled user; this view does it without copying the
/// count vector per user (the snapshot is never mutated there).
class DynSnapshotView : public CoverageModel {
 public:
  explicit DynSnapshotView(std::span<const uint32_t> counts)
      : counts_(counts) {}

  double Score(UserId /*u*/, ItemId i) const override {
    return CoverageGain(static_cast<double>(counts_[static_cast<size_t>(i)]));
  }
  void ScoreItemsInto(UserId u, std::span<const ItemId> items,
                      std::span<double> out) const override;
  std::string name() const override { return "Dyn"; }

 private:
  std::span<const uint32_t> counts_;
};

/// Which coverage recommender a GANC variant uses.
enum class CoverageKind { kRand, kStat, kDyn };

/// Human-readable name ("Rand"/"Stat"/"Dyn").
std::string CoverageKindName(CoverageKind kind);

/// Factory for the chosen kind.
std::unique_ptr<CoverageModel> MakeCoverage(CoverageKind kind,
                                            const RatingDataset& train,
                                            uint64_t seed);

}  // namespace ganc

#endif  // GANC_CORE_COVERAGE_H_
