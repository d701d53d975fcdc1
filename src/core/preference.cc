#include "core/preference.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"

namespace ganc {

std::vector<double> ActivityPreference(const RatingDataset& train) {
  std::vector<double> theta(static_cast<size_t>(train.num_users()));
  for (UserId u = 0; u < train.num_users(); ++u) {
    theta[static_cast<size_t>(u)] = static_cast<double>(train.Activity(u));
  }
  MinMaxNormalize(&theta);
  return theta;
}

std::vector<double> NormalizedLongtailPreference(const RatingDataset& train,
                                                 const LongTailInfo& tail) {
  std::vector<double> theta(static_cast<size_t>(train.num_users()), 0.0);
  for (UserId u = 0; u < train.num_users(); ++u) {
    const auto& row = train.ItemsOf(u);
    if (row.empty()) continue;
    int32_t in_tail = 0;
    for (const ItemRating& ir : row) {
      if (tail.Contains(ir.item)) ++in_tail;
    }
    theta[static_cast<size_t>(u)] =
        static_cast<double>(in_tail) / static_cast<double>(row.size());
  }
  return theta;
}

std::vector<std::vector<double>> PerUserItemPreference(
    const RatingDataset& train) {
  const double num_users = static_cast<double>(train.num_users());
  std::vector<std::vector<double>> theta_ui(
      static_cast<size_t>(train.num_users()));
  double lo = 0.0, hi = 0.0;
  bool first = true;
  for (UserId u = 0; u < train.num_users(); ++u) {
    const auto& row = train.ItemsOf(u);
    auto& out = theta_ui[static_cast<size_t>(u)];
    out.reserve(row.size());
    for (const ItemRating& ir : row) {
      const double pop = static_cast<double>(train.Popularity(ir.item));
      const double v =
          static_cast<double>(ir.value) * std::log(num_users / pop);
      out.push_back(v);
      if (first) {
        lo = hi = v;
        first = false;
      } else {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
    }
  }
  // Global projection onto [0, 1] (Section II-C requires |theta_ui -
  // theta_u| <= 1, guaranteed once both live in the unit interval).
  const double range = hi - lo;
  for (auto& row : theta_ui) {
    for (double& v : row) v = range > 0.0 ? (v - lo) / range : 0.0;
  }
  return theta_ui;
}

std::vector<double> TfidfPreference(const RatingDataset& train) {
  const std::vector<std::vector<double>> theta_ui =
      PerUserItemPreference(train);
  std::vector<double> theta(static_cast<size_t>(train.num_users()), 0.0);
  for (UserId u = 0; u < train.num_users(); ++u) {
    theta[static_cast<size_t>(u)] = Mean(theta_ui[static_cast<size_t>(u)]);
  }
  MinMaxNormalize(&theta);
  return theta;
}

Result<GeneralizedPreferenceResult> GeneralizedPreference(
    const RatingDataset& train, const GeneralizedPreferenceOptions& options) {
  if (options.lambda1 <= 0.0) {
    return Status::InvalidArgument("lambda1 must be positive");
  }
  if (options.max_iterations <= 0) {
    return Status::InvalidArgument("max_iterations must be positive");
  }
  const int32_t n_users = train.num_users();
  const int32_t n_items = train.num_items();
  const std::vector<std::vector<double>> theta_ui =
      PerUserItemPreference(train);

  GeneralizedPreferenceResult result;
  // Initial point: equal item weights, i.e. theta^G == theta^T (the paper
  // notes Eq. II.6 reduces to theta^T when w_i = 1).
  result.theta.assign(static_cast<size_t>(n_users), 0.0);
  for (UserId u = 0; u < n_users; ++u) {
    result.theta[static_cast<size_t>(u)] =
        Mean(theta_ui[static_cast<size_t>(u)]);
  }
  result.item_weight.assign(static_cast<size_t>(n_items), 1.0);

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // w-step (Eq. II.5): w_i = lambda1 / eps_i with the mediocrity
    // coefficient eps_i = sum_{u in U_i} [1 - (theta_ui - theta_u)^2].
    // Each summand is in [0, 1], so eps_i >= 0; items whose raters all sit
    // at maximal disagreement get a tiny floor to keep w finite.
    for (ItemId i = 0; i < n_items; ++i) {
      const auto& col = train.UsersOf(i);
      if (col.empty()) {
        result.item_weight[static_cast<size_t>(i)] = 0.0;
        continue;
      }
      double eps = 0.0;
      for (const UserRating& ur : col) {
        // Locate theta_ui for this (u, i): rows are sorted by item id.
        const auto& row = train.ItemsOf(ur.user);
        const auto it = std::lower_bound(
            row.begin(), row.end(), i,
            [](const ItemRating& a, ItemId b) { return a.item < b; });
        const size_t pos = static_cast<size_t>(it - row.begin());
        const double d = theta_ui[static_cast<size_t>(ur.user)][pos] -
                         result.theta[static_cast<size_t>(ur.user)];
        eps += 1.0 - d * d;
      }
      result.item_weight[static_cast<size_t>(i)] =
          options.lambda1 / std::max(eps, 1e-9);
    }

    // theta-step (Eq. II.6): weighted average of theta_ui.
    double max_delta = 0.0;
    for (UserId u = 0; u < n_users; ++u) {
      const auto& row = train.ItemsOf(u);
      if (row.empty()) continue;
      double num = 0.0, den = 0.0;
      for (size_t k = 0; k < row.size(); ++k) {
        const double w =
            result.item_weight[static_cast<size_t>(row[k].item)];
        num += w * theta_ui[static_cast<size_t>(u)][k];
        den += w;
      }
      const double next = den > 0.0 ? num / den : 0.0;
      max_delta =
          std::max(max_delta,
                   std::abs(next - result.theta[static_cast<size_t>(u)]));
      result.theta[static_cast<size_t>(u)] = next;
    }
    result.iterations = iter + 1;
    if (max_delta < options.tolerance) {
      result.converged = true;
      break;
    }
  }

  // Total weighted mediocrity O(w, theta) for diagnostics.
  double objective = 0.0;
  for (UserId u = 0; u < n_users; ++u) {
    const auto& row = train.ItemsOf(u);
    for (size_t k = 0; k < row.size(); ++k) {
      const double d = theta_ui[static_cast<size_t>(u)][k] -
                       result.theta[static_cast<size_t>(u)];
      objective +=
          result.item_weight[static_cast<size_t>(row[k].item)] * (1.0 - d * d);
    }
  }
  result.final_objective = objective;

  if (options.normalize_output) MinMaxNormalize(&result.theta);
  GANC_LOG(Info) << "thetaG: " << result.iterations << " iterations, "
                 << (result.converged ? "converged" : "max-iters");
  return result;
}

std::vector<double> RandomPreference(int32_t num_users, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> theta(static_cast<size_t>(num_users));
  for (double& t : theta) t = rng.Uniform();
  return theta;
}

std::vector<double> ConstantPreference(int32_t num_users, double c) {
  return std::vector<double>(static_cast<size_t>(num_users), c);
}

std::string PreferenceModelName(PreferenceModel model) {
  switch (model) {
    case PreferenceModel::kActivity:
      return "thetaA";
    case PreferenceModel::kNormalized:
      return "thetaN";
    case PreferenceModel::kTfidf:
      return "thetaT";
    case PreferenceModel::kGeneralized:
      return "thetaG";
    case PreferenceModel::kRandom:
      return "thetaR";
    case PreferenceModel::kConstant:
      return "thetaC";
  }
  return "theta?";
}

Result<std::vector<double>> ComputePreference(PreferenceModel model,
                                              const RatingDataset& train,
                                              uint64_t seed, double constant) {
  GANC_RETURN_NOT_OK(train.EnsureResident());  // Popularity, UsersOf
  switch (model) {
    case PreferenceModel::kActivity:
      return ActivityPreference(train);
    case PreferenceModel::kNormalized:
      return NormalizedLongtailPreference(train, ComputeLongTail(train));
    case PreferenceModel::kTfidf:
      return TfidfPreference(train);
    case PreferenceModel::kGeneralized: {
      Result<GeneralizedPreferenceResult> r = GeneralizedPreference(train);
      if (!r.ok()) return r.status();
      return std::move(r).value().theta;
    }
    case PreferenceModel::kRandom:
      return RandomPreference(train.num_users(), seed);
    case PreferenceModel::kConstant:
      return ConstantPreference(train.num_users(), constant);
  }
  return Status::InvalidArgument("unknown preference model");
}

}  // namespace ganc
