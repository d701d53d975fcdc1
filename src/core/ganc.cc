#include "core/ganc.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "util/kde.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/top_k.h"

namespace ganc {

Ganc::Ganc(const AccuracyScorer* accuracy, std::vector<double> theta,
           CoverageKind coverage)
    : accuracy_(accuracy), theta_(std::move(theta)), coverage_(coverage) {}

std::string Ganc::Name(const std::string& theta_name) const {
  return "GANC(" + accuracy_->name() + ", " + theta_name + ", " +
         CoverageKindName(coverage_) + ")";
}

std::vector<ItemId> GreedyTopNForUser(const std::vector<double>& accuracy,
                                      double theta_u,
                                      const CoverageModel& coverage, UserId u,
                                      const std::vector<ItemId>& candidates,
                                      int top_n) {
  ScoringContext ctx;
  std::vector<ItemId> out;
  GreedyTopNForUserInto(accuracy, theta_u, coverage, u, candidates, top_n,
                        ctx, out);
  return out;
}

void GreedyTopNForUserInto(std::span<const double> accuracy, double theta_u,
                           const CoverageModel& coverage, UserId u,
                           std::span<const ItemId> candidates, int top_n,
                           ScoringContext& ctx, std::vector<ItemId>& out) {
  // One virtual call fills the user's coverage row; the mix then reads
  // two dense arrays per candidate inside the selection scan.
  const std::span<double> cov = ctx.CandidateScores(candidates.size());
  coverage.ScoreItemsInto(u, candidates, cov);
  const double accuracy_weight = 1.0 - theta_u;
  std::vector<ScoredItem>& top = ctx.TopK();
  SelectTopKEmittedInto(
      candidates.size(), static_cast<size_t>(top_n),
      [&](size_t k) {
        const ItemId i = candidates[k];
        const double a = accuracy[static_cast<size_t>(i)];
        return ScoredItem{i, accuracy_weight * a + theta_u * cov[k]};
      },
      &top);
  out.clear();
  out.reserve(top.size());
  for (const ScoredItem& s : top) out.push_back(s.item);
}

Result<TopNCollection> Ganc::RecommendAll(const RatingDataset& train,
                                          const GancConfig& config) const {
  if (theta_.size() != static_cast<size_t>(train.num_users())) {
    return Status::InvalidArgument(
        "theta size does not match the number of users");
  }
  for (double t : theta_) {
    if (t < 0.0 || t > 1.0 || !std::isfinite(t)) {
      return Status::InvalidArgument("theta entries must lie in [0, 1]");
    }
  }
  if (config.top_n <= 0) {
    return Status::InvalidArgument("top_n must be positive");
  }
  if (coverage_ == CoverageKind::kDyn) return RunOslg(train, config);
  return RunModular(train, config);
}

TopNCollection Ganc::RunModular(const RatingDataset& train,
                                const GancConfig& config) const {
  // Rand/Stat coverage is independent across users: the aggregate optimum
  // is each user's own mixed-score top-N, embarrassingly parallel.
  const std::unique_ptr<CoverageModel> coverage =
      MakeCoverage(coverage_, train, config.seed);
  TopNCollection result(static_cast<size_t>(train.num_users()));
  ParallelForChunks(
      config.pool, 0, static_cast<size_t>(train.num_users()),
      [&](size_t lo, size_t hi) {
        ScoringContext ctx;
        ForEachScoredUser(
            *accuracy_, lo, hi, ctx,
            [&](UserId u, std::span<const double> acc) {
              const size_t uu = static_cast<size_t>(u);
              train.UnratedItemsInto(u, &ctx.Candidates());
              GreedyTopNForUserInto(acc, theta_[uu], *coverage, u,
                                    ctx.Candidates(), config.top_n, ctx,
                                    result[uu]);
            });
      });
  return result;
}

Result<TopNCollection> Ganc::RunOslg(const RatingDataset& train,
                                     const GancConfig& config) const {
  const size_t n_users = static_cast<size_t>(train.num_users());
  Rng rng(config.seed);

  // --- Line 2: choose the sequential sample S.
  std::vector<size_t> sample;
  const bool full =
      config.sample_size <= 0 ||
      static_cast<size_t>(config.sample_size) >= n_users;
  if (full) {
    sample.resize(n_users);
    std::iota(sample.begin(), sample.end(), 0);
  } else if (config.kde_sampling) {
    Result<std::vector<size_t>> drawn = KdeProportionalSample(
        theta_, static_cast<size_t>(config.sample_size), &rng);
    if (!drawn.ok()) return drawn.status();
    sample = std::move(drawn).value();
  } else {
    sample = SampleWithoutReplacement(
        n_users, static_cast<size_t>(config.sample_size), &rng);
  }

  // --- Line 3: order the sample by increasing theta (or shuffle for the
  // arbitrary-order ablation).
  if (config.order_by_theta) {
    std::sort(sample.begin(), sample.end(), [&](size_t a, size_t b) {
      if (theta_[a] != theta_[b]) return theta_[a] < theta_[b];
      return a < b;
    });
  } else {
    rng.Shuffle(&sample);
  }

  TopNCollection result(n_users);
  std::vector<bool> in_sample(n_users, false);

  // --- Lines 4-10: sequential locally greedy over the sample, snapshotting
  // the Dyn state F(theta_u) after each user. Accuracy scores do not
  // depend on the evolving Dyn state, so they batch through the blocked
  // kernel even though the greedy itself stays sequential.
  DynCoverage dyn(train.num_items());
  std::vector<std::vector<uint32_t>> snapshots;
  std::vector<double> snapshot_theta;
  snapshots.reserve(sample.size());
  snapshot_theta.reserve(sample.size());
  {
    ScoringContext ctx;
    std::vector<ItemId> topn;
    std::vector<UserId> sample_users(sample.begin(), sample.end());
    ForEachScoredUser(
        *accuracy_, std::span<const UserId>(sample_users), ctx,
        [&](UserId u, std::span<const double> acc) {
          const size_t uu = static_cast<size_t>(u);
          in_sample[uu] = true;
          train.UnratedItemsInto(u, &ctx.Candidates());
          GreedyTopNForUserInto(acc, theta_[uu], dyn, u, ctx.Candidates(),
                                config.top_n, ctx, topn);
          for (ItemId i : topn) dyn.Observe(i);
          snapshot_theta.push_back(theta_[uu]);
          snapshots.push_back(dyn.counts());
          result[uu] = topn;
        });
  }

  if (full) return result;

  // --- Lines 11-15: every remaining user gets the coverage state of the
  // nearest-theta sampled user; value functions are independent, so this
  // phase is parallel.
  //
  // snapshot_theta is non-decreasing when order_by_theta is set; for the
  // ablation path we search linearly.
  auto nearest_snapshot = [&](double t) -> size_t {
    if (config.order_by_theta) {
      const auto it = std::lower_bound(snapshot_theta.begin(),
                                       snapshot_theta.end(), t);
      size_t idx = static_cast<size_t>(it - snapshot_theta.begin());
      if (idx == snapshot_theta.size()) return idx - 1;
      if (idx > 0 &&
          t - snapshot_theta[idx - 1] <= snapshot_theta[idx] - t) {
        return idx - 1;
      }
      return idx;
    }
    size_t best = 0;
    double best_d = std::abs(snapshot_theta[0] - t);
    for (size_t k = 1; k < snapshot_theta.size(); ++k) {
      const double d = std::abs(snapshot_theta[k] - t);
      if (d < best_d) {
        best_d = d;
        best = k;
      }
    }
    return best;
  };

  ParallelForChunks(config.pool, 0, n_users, [&](size_t lo, size_t hi) {
    ScoringContext ctx;
    std::vector<UserId>& users = ctx.BatchUsers();
    users.clear();
    for (size_t uu = lo; uu < hi; ++uu) {
      if (!in_sample[uu]) users.push_back(static_cast<UserId>(uu));
    }
    ForEachScoredUser(
        *accuracy_, std::span<const UserId>(users), ctx,
        [&](UserId u, std::span<const double> acc) {
          const size_t uu = static_cast<size_t>(u);
          // The snapshot is never mutated in this phase, so a borrowing
          // view replaces the per-user count-vector copy of the old code.
          const DynSnapshotView local(
              snapshots[nearest_snapshot(theta_[uu])]);
          train.UnratedItemsInto(u, &ctx.Candidates());
          GreedyTopNForUserInto(acc, theta_[uu], local, u, ctx.Candidates(),
                                config.top_n, ctx, result[uu]);
        });
  });
  return result;
}

double CollectionValue(const AccuracyScorer& accuracy,
                       const std::vector<double>& theta, CoverageKind kind,
                       const RatingDataset& train, const TopNCollection& topn,
                       uint64_t seed) {
  assert(topn.size() == static_cast<size_t>(train.num_users()));
  // Appendix B: with Dyn, c over the final collection counts each item's
  // total recommendation frequency.
  std::vector<uint32_t> counts(static_cast<size_t>(train.num_items()), 0);
  for (const auto& pu : topn) {
    for (ItemId i : pu) ++counts[static_cast<size_t>(i)];
  }
  const std::unique_ptr<CoverageModel> static_cov =
      kind == CoverageKind::kDyn ? nullptr : MakeCoverage(kind, train, seed);

  double value = 0.0;
  ScoringContext ctx;
  ForEachScoredUser(
      accuracy, 0, static_cast<size_t>(train.num_users()), ctx,
      [&](UserId u, std::span<const double> a) {
        const double t = theta[static_cast<size_t>(u)];
        double acc_sum = 0.0, cov_sum = 0.0;
        for (ItemId i : topn[static_cast<size_t>(u)]) {
          acc_sum += a[static_cast<size_t>(i)];
          cov_sum += kind == CoverageKind::kDyn
                         ? CoverageGain(static_cast<double>(
                               counts[static_cast<size_t>(i)]))
                         : static_cov->Score(u, i);
        }
        value += (1.0 - t) * acc_sum + t * cov_sum;
      });
  return value;
}

}  // namespace ganc
