#include "recommender/rsvd.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "recommender/model_io.h"
#include "recommender/train_sweep.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace ganc {

RsvdRecommender::RsvdRecommender(RsvdConfig config)
    : config_(std::move(config)) {}

Status RsvdRecommender::Fit(const RatingDataset& train) {
  return Fit(train, nullptr);
}

// Deterministic blocked SGD (see train_sweep.h): every epoch partitions
// users into fixed blocks. Inside a block, user factors/biases update in
// place (blocks own disjoint user rows) while item factors/biases update
// a block-local copy seeded from the epoch-start snapshot; the per-block
// item deltas then merge serially in ascending block order
// (q_next[i] += local[i] - snapshot[i]). Blocks draw their shuffle order
// from MixSeed(seed, epoch, block), so the fitted model is a pure
// function of (data, config) — independent of threads and of the
// residency budget's window boundaries.
Status RsvdRecommender::Fit(const RatingDataset& train, ThreadPool* pool) {
  if (config_.num_factors <= 0) {
    return Status::InvalidArgument("num_factors must be positive");
  }
  if (config_.learning_rate <= 0.0) {
    return Status::InvalidArgument("learning_rate must be positive");
  }
  num_users_ = train.num_users();
  num_items_ = train.num_items();
  train_fingerprint_ = train.Fingerprint();
  global_mean_ = train.GlobalMeanRating();
  const size_t g = static_cast<size_t>(config_.num_factors);

  Rng rng(config_.seed);
  std::vector<double> user_factors(static_cast<size_t>(num_users_) * g);
  std::vector<double> item_factors(static_cast<size_t>(num_items_) * g);
  // LIBMF-style non-negative uniform init keeps early predictions near the
  // data scale and satisfies the RSVDN constraint from the start.
  for (double& v : user_factors) v = rng.Uniform() * config_.init_scale;
  for (double& v : item_factors) v = rng.Uniform() * config_.init_scale;
  user_bias_.assign(static_cast<size_t>(num_users_), 0.0);
  item_bias_.assign(static_cast<size_t>(num_items_), 0.0);

  // Bias-free MF must absorb the rating scale in the factors themselves;
  // with biases we model residuals around mu.
  const double base = config_.use_biases ? global_mean_ : 0.0;

  const int32_t ublock =
      config_.user_block > 0 ? config_.user_block : kTrainUserBlock;
  const int64_t num_blocks =
      num_users_ == 0 ? 0
                      : (static_cast<int64_t>(num_users_) + ublock - 1) /
                            ublock;
  struct BlockScratch {
    std::vector<ItemId> touched;   // distinct items of the block, ascending
    std::vector<double> q_local;   // touched.size() x g item-factor rows
    std::vector<double> b_local;   // touched.size() item biases (biased mode)
    double sq_err = 0.0;
  };
  std::vector<BlockScratch> scratch(static_cast<size_t>(num_blocks));
  std::vector<double> q_next;
  std::vector<double> bias_next;

  double lr = config_.learning_rate;
  const double lam = config_.regularization;
  for (int32_t epoch = 0; epoch < config_.num_epochs; ++epoch) {
    q_next = item_factors;  // epoch-start snapshot stays in item_factors
    if (config_.use_biases) bias_next = item_bias_;
    double sq_err = 0.0;

    const auto block_fn = [&](const UserBlock& b) -> Status {
      BlockScratch& s = scratch[static_cast<size_t>(b.index)];
      s.touched.clear();
      for (UserId u = b.begin; u < b.end; ++u) {
        for (const ItemRating& ir : train.ItemsOf(u)) {
          s.touched.push_back(ir.item);
        }
      }
      std::sort(s.touched.begin(), s.touched.end());
      s.touched.erase(std::unique(s.touched.begin(), s.touched.end()),
                      s.touched.end());
      s.q_local.resize(s.touched.size() * g);
      for (size_t t = 0; t < s.touched.size(); ++t) {
        const double* src =
            &item_factors[static_cast<size_t>(s.touched[t]) * g];
        std::copy(src, src + g, &s.q_local[t * g]);
      }
      if (config_.use_biases) {
        s.b_local.resize(s.touched.size());
        for (size_t t = 0; t < s.touched.size(); ++t) {
          s.b_local[t] = item_bias_[static_cast<size_t>(s.touched[t])];
        }
      }

      std::vector<std::pair<UserId, int32_t>> order;
      for (UserId u = b.begin; u < b.end; ++u) {
        const int32_t n = static_cast<int32_t>(train.ItemsOf(u).size());
        for (int32_t k = 0; k < n; ++k) order.emplace_back(u, k);
      }
      Rng brng(MixSeed(config_.seed, static_cast<uint64_t>(epoch),
                       static_cast<uint64_t>(b.index)));
      brng.Shuffle(&order);

      s.sq_err = 0.0;
      for (const auto& [u, k] : order) {
        const ItemRating& ir = train.ItemsOf(u)[static_cast<size_t>(k)];
        const size_t t = static_cast<size_t>(
            std::lower_bound(s.touched.begin(), s.touched.end(), ir.item) -
            s.touched.begin());
        double* pu = &user_factors[static_cast<size_t>(u) * g];
        double* qi = &s.q_local[t * g];
        double pred = base;
        if (config_.use_biases) {
          pred += user_bias_[static_cast<size_t>(u)] + s.b_local[t];
        }
        for (size_t f = 0; f < g; ++f) pred += pu[f] * qi[f];
        const double err = static_cast<double>(ir.value) - pred;
        s.sq_err += err * err;
        if (config_.use_biases) {
          user_bias_[static_cast<size_t>(u)] +=
              lr * (err - lam * user_bias_[static_cast<size_t>(u)]);
          s.b_local[t] += lr * (err - lam * s.b_local[t]);
        }
        for (size_t f = 0; f < g; ++f) {
          const double puf = pu[f];
          pu[f] += lr * (err * qi[f] - lam * puf);
          qi[f] += lr * (err * puf - lam * qi[f]);
          if (config_.non_negative) {
            pu[f] = std::max(pu[f], 0.0);
            qi[f] = std::max(qi[f], 0.0);
          }
        }
      }
      return Status::OK();
    };

    const auto merge_fn = [&](const UserBlock& b) -> Status {
      BlockScratch& s = scratch[static_cast<size_t>(b.index)];
      for (size_t t = 0; t < s.touched.size(); ++t) {
        const size_t i = static_cast<size_t>(s.touched[t]);
        double* dst = &q_next[i * g];
        const double* loc = &s.q_local[t * g];
        const double* snap = &item_factors[i * g];
        for (size_t f = 0; f < g; ++f) {
          dst[f] += loc[f] - snap[f];
          if (config_.non_negative) dst[f] = std::max(dst[f], 0.0);
        }
        if (config_.use_biases) {
          bias_next[i] += s.b_local[t] - item_bias_[i];
        }
      }
      sq_err += s.sq_err;
      s = BlockScratch{};  // free window-lifetime scratch eagerly
      return Status::OK();
    };

    GANC_RETURN_NOT_OK(
        SweepUserBlocks(train, ublock, pool, block_fn, merge_fn));
    item_factors.swap(q_next);
    if (config_.use_biases) item_bias_.swap(bias_next);
    lr *= config_.lr_decay;
    GANC_LOG(Debug) << name() << " epoch " << epoch << " train RMSE "
                    << std::sqrt(sq_err /
                                 static_cast<double>(train.num_ratings()));
    if (epoch_callback_) epoch_callback_(epoch + 1, config_.num_epochs);
  }
  // Per-user scoring base for the factor engine: mu + b_u folds the two
  // user-constant terms of Predict into one engine offset. Computed as
  // (mu + b_u) so engine scores stay bit-identical to Predict's
  // ((mu + b_u) + b_i) evaluation order.
  user_base_.clear();
  if (config_.use_biases) {
    user_base_.resize(static_cast<size_t>(num_users_));
    for (size_t u = 0; u < static_cast<size_t>(num_users_); ++u) {
      user_base_[u] = global_mean_ + user_bias_[u];
    }
  }
  factors_.AdoptFp64(std::move(user_factors), std::move(item_factors),
                     static_cast<size_t>(num_users_),
                     static_cast<size_t>(num_items_), g);
  return Status::OK();
}

FactorView RsvdRecommender::View() const {
  FactorView v;
  factors_.BindView(&v);
  v.item_bias = config_.use_biases ? item_bias_.data() : nullptr;
  v.user_base = config_.use_biases ? user_base_.data() : nullptr;
  v.num_items = num_items_;
  return v;
}

double RsvdRecommender::Predict(UserId u, ItemId i) const {
  // ScoreOne keeps the historical ((mu + b_u) + b_i) + <p, q> evaluation
  // order via the precomputed user_base_ rows, so fp64 predictions are
  // bit-identical to the pre-FactorStore implementation.
  return FactorScoringEngine(View()).ScoreOne(u, i);
}

void RsvdRecommender::ScoreInto(UserId u, std::span<double> out) const {
  FactorScoringEngine(View()).ScoreInto(u, out);
}

void RsvdRecommender::ScoreBatchInto(std::span<const UserId> users,
                                     std::span<double> out) const {
  FactorScoringEngine(View()).ScoreBatchInto(users, out);
}

double RsvdRecommender::Rmse(const RatingDataset& test) const {
  if (test.num_ratings() == 0) return 0.0;
  double acc = 0.0;
  for (const Rating& r : test.ratings()) {
    const double err = static_cast<double>(r.value) - Predict(r.user, r.item);
    acc += err * err;
  }
  return std::sqrt(acc / static_cast<double>(test.num_ratings()));
}

Status RsvdRecommender::Save(std::ostream& os) const {
  if (num_items() == 0) {
    return Status::FailedPrecondition("cannot save unfitted RSVD model");
  }
  ArtifactWriter w(os);
  GANC_RETURN_NOT_OK(w.WriteHeader(ArtifactKind::kModel,
                                   static_cast<uint32_t>(ModelType::kRsvd)));
  PayloadWriter config;
  config.WriteI32(config_.num_factors);
  config.WriteF64(config_.learning_rate);
  config.WriteF64(config_.regularization);
  config.WriteI32(config_.num_epochs);
  config.WriteF64(config_.lr_decay);
  config.WriteU8(config_.use_biases ? 1 : 0);
  config.WriteU8(config_.non_negative ? 1 : 0);
  config.WriteF64(config_.init_scale);
  config.WriteU64(config_.seed);
  GANC_RETURN_NOT_OK(w.WriteSection(kModelConfigSection, config));
  PayloadWriter state;
  state.WriteI32(num_users_);
  state.WriteI32(num_items_);
  state.WriteU64(train_fingerprint_);
  state.WriteF64(global_mean_);
  state.WriteVecF64(user_bias_);
  state.WriteVecF64(item_bias_);
  state.WriteVecF64(user_base_);
  GANC_RETURN_NOT_OK(w.WriteSection(kModelStateSection, state));
  PayloadWriter factors;
  factors_.Save(&factors);
  GANC_RETURN_NOT_OK(w.WriteSection(kFactorTableSection, factors));
  return w.Finish();
}

Status RsvdRecommender::Load(ArtifactReader& r, const RatingDataset* train) {
  GANC_RETURN_NOT_OK(ReadModelHeader(r, ModelType::kRsvd));
  Result<ArtifactReader::Section> config = r.ReadSectionExpect(
      kModelConfigSection);
  if (!config.ok()) return config.status();
  PayloadReader cr(config->payload());
  RsvdConfig cfg;
  uint8_t use_biases = 0;
  uint8_t non_negative = 0;
  GANC_RETURN_NOT_OK(cr.ReadI32(&cfg.num_factors));
  GANC_RETURN_NOT_OK(cr.ReadF64(&cfg.learning_rate));
  GANC_RETURN_NOT_OK(cr.ReadF64(&cfg.regularization));
  GANC_RETURN_NOT_OK(cr.ReadI32(&cfg.num_epochs));
  GANC_RETURN_NOT_OK(cr.ReadF64(&cfg.lr_decay));
  GANC_RETURN_NOT_OK(cr.ReadU8(&use_biases));
  GANC_RETURN_NOT_OK(cr.ReadU8(&non_negative));
  GANC_RETURN_NOT_OK(cr.ReadF64(&cfg.init_scale));
  GANC_RETURN_NOT_OK(cr.ReadU64(&cfg.seed));
  GANC_RETURN_NOT_OK(cr.ExpectEnd());
  cfg.use_biases = use_biases != 0;
  cfg.non_negative = non_negative != 0;
  if (cfg.num_factors <= 0) {
    return Status::InvalidArgument("invalid RSVD factor count in artifact");
  }
  Result<ArtifactReader::Section> state = r.ReadSectionExpect(
      kModelStateSection);
  if (!state.ok()) return state.status();
  PayloadReader sr(state->payload());
  int32_t num_users = 0;
  int32_t num_items = 0;
  uint64_t fingerprint = 0;
  double global_mean = 0.0;
  std::vector<double> bu, bi, base;
  GANC_RETURN_NOT_OK(sr.ReadI32(&num_users));
  GANC_RETURN_NOT_OK(sr.ReadI32(&num_items));
  GANC_RETURN_NOT_OK(sr.ReadU64(&fingerprint));
  GANC_RETURN_NOT_OK(sr.ReadF64(&global_mean));
  GANC_RETURN_NOT_OK(sr.ReadVecF64(&bu));
  GANC_RETURN_NOT_OK(sr.ReadVecF64(&bi));
  GANC_RETURN_NOT_OK(sr.ReadVecF64(&base));
  GANC_RETURN_NOT_OK(sr.ExpectEnd());
  Result<ArtifactReader::Section> factors = r.ReadSectionExpect(
      kFactorTableSection);
  if (!factors.ok()) return factors.status();
  FactorStore store;
  GANC_RETURN_NOT_OK(store.Load(factors->payload(), r.source()));
  const size_t g = static_cast<size_t>(cfg.num_factors);
  const size_t nu = static_cast<size_t>(num_users);
  const size_t ni = static_cast<size_t>(num_items);
  const bool biased_sizes_ok =
      !cfg.use_biases ||
      (bu.size() == nu && bi.size() == ni && base.size() == nu);
  if (num_users < 0 || num_items < 0 || store.num_factors() != g ||
      store.user_rows() != nu || store.item_rows() != ni ||
      !biased_sizes_ok) {
    return Status::InvalidArgument("inconsistent RSVD factor dimensions");
  }
  if (train != nullptr) {
    if (num_users != train->num_users() || num_items != train->num_items()) {
      return Status::InvalidArgument(
          "RSVD artifact dimensions do not match the provided dataset");
    }
    if (fingerprint != train->Fingerprint()) {
      return Status::InvalidArgument(
          "RSVD artifact was trained on different data than the provided "
          "dataset (fingerprint mismatch)");
    }
  }
  GANC_RETURN_NOT_OK(ExpectEndOfArtifact(r));
  config_ = cfg;
  num_users_ = num_users;
  num_items_ = num_items;
  train_fingerprint_ = fingerprint;
  global_mean_ = global_mean;
  factors_ = std::move(store);
  user_bias_ = std::move(bu);
  item_bias_ = std::move(bi);
  user_base_ = std::move(base);
  return Status::OK();
}

}  // namespace ganc
