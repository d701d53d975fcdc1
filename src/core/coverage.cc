#include "core/coverage.h"

#include <cassert>
#include <cmath>

#include "util/rng.h"

namespace ganc {

namespace {

// Stateless hash -> uniform: SplitMix64 finalizer over (seed, u, i).
inline double RandScore(uint64_t seed, UserId u, ItemId i) {
  uint64_t z = seed ^ (static_cast<uint64_t>(u) * 0x9E3779B97F4A7C15ULL) ^
               (static_cast<uint64_t>(i) + 0xBF58476D1CE4E5B9ULL);
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ULL;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

// out[k] = row[items[k]]: the gather Stat and Dyn score through.
void GatherInto(const std::vector<double>& row, std::span<const ItemId> items,
                std::span<double> out) {
  assert(out.size() == items.size());
  for (size_t k = 0; k < items.size(); ++k) {
    out[k] = row[static_cast<size_t>(items[k])];
  }
}

}  // namespace

double RandCoverage::Score(UserId u, ItemId i) const {
  return RandScore(seed_, u, i);
}

void RandCoverage::ScoreItemsInto(UserId u, std::span<const ItemId> items,
                                  std::span<double> out) const {
  assert(out.size() == items.size());
  for (size_t k = 0; k < items.size(); ++k) {
    out[k] = RandScore(seed_, u, items[k]);
  }
}

StatCoverage::StatCoverage(const RatingDataset& train) {
  score_.resize(static_cast<size_t>(train.num_items()));
  for (ItemId i = 0; i < train.num_items(); ++i) {
    score_[static_cast<size_t>(i)] =
        CoverageGain(static_cast<double>(train.Popularity(i)));
  }
}

double StatCoverage::Score(UserId /*u*/, ItemId i) const {
  return score_[static_cast<size_t>(i)];
}

void StatCoverage::ScoreItemsInto(UserId /*u*/, std::span<const ItemId> items,
                                  std::span<double> out) const {
  GatherInto(score_, items, out);
}

void DynCoverage::ScoreItemsInto(UserId /*u*/, std::span<const ItemId> items,
                                 std::span<double> out) const {
  GatherInto(score_, items, out);
}

void DynCoverage::SetCounts(std::vector<uint32_t> counts) {
  counts_ = std::move(counts);
  score_.resize(counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) {
    score_[i] = CoverageGain(static_cast<double>(counts_[i]));
  }
}

void DynSnapshotView::ScoreItemsInto(UserId /*u*/,
                                     std::span<const ItemId> items,
                                     std::span<double> out) const {
  assert(out.size() == items.size());
  for (size_t k = 0; k < items.size(); ++k) {
    out[k] = CoverageGain(
        static_cast<double>(counts_[static_cast<size_t>(items[k])]));
  }
}

std::string CoverageKindName(CoverageKind kind) {
  switch (kind) {
    case CoverageKind::kRand:
      return "Rand";
    case CoverageKind::kStat:
      return "Stat";
    case CoverageKind::kDyn:
      return "Dyn";
  }
  return "?";
}

std::unique_ptr<CoverageModel> MakeCoverage(CoverageKind kind,
                                            const RatingDataset& train,
                                            uint64_t seed) {
  switch (kind) {
    case CoverageKind::kRand:
      return std::make_unique<RandCoverage>(train.num_items(), seed);
    case CoverageKind::kStat:
      return std::make_unique<StatCoverage>(train);
    case CoverageKind::kDyn:
      return std::make_unique<DynCoverage>(train.num_items());
  }
  return nullptr;
}

}  // namespace ganc
