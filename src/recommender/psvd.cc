#include "recommender/psvd.h"

#include <utility>

#include "recommender/linalg.h"
#include "recommender/model_io.h"
#include "util/serialize.h"

namespace ganc {

PsvdRecommender::PsvdRecommender(PsvdConfig config) : config_(config) {}

Status PsvdRecommender::Fit(const RatingDataset& train) {
  return Fit(train, nullptr);
}

Status PsvdRecommender::Fit(const RatingDataset& train, ThreadPool* pool) {
  if (config_.num_factors <= 0) {
    return Status::InvalidArgument("num_factors must be positive");
  }
  num_users_ = train.num_users();
  num_items_ = train.num_items();
  train_fingerprint_ = train.Fingerprint();
  // Validate the (possibly mapped) rows once up front so corruption is
  // reported here; the sweeps inside the sparse products then reuse the
  // validation watermark.
  GANC_RETURN_NOT_OK(train.SweepRowWindows(
      train.train_budget_bytes(), 1,
      [](const RowWindow&) { return Status::OK(); }));
  TruncatedSvd svd =
      RandomizedSvd(train, config_.num_factors, config_.oversample,
                    config_.power_iterations, config_.seed, pool,
                    config_.user_block);
  const size_t g = svd.singular_values.size();
  singular_values_ = svd.singular_values;
  std::vector<double> p(static_cast<size_t>(num_users_) * g, 0.0);
  std::vector<double> q(static_cast<size_t>(num_items_) * g, 0.0);
  for (size_t u = 0; u < static_cast<size_t>(num_users_); ++u) {
    for (size_t f = 0; f < g; ++f) {
      p[u * g + f] = svd.u.At(u, f) * svd.singular_values[f];
    }
  }
  for (size_t i = 0; i < static_cast<size_t>(num_items_); ++i) {
    for (size_t f = 0; f < g; ++f) {
      q[i * g + f] = svd.v.At(i, f);
    }
  }
  factors_.AdoptFp64(std::move(p), std::move(q),
                     static_cast<size_t>(num_users_),
                     static_cast<size_t>(num_items_), g);
  return Status::OK();
}

FactorView PsvdRecommender::View() const {
  FactorView v;
  factors_.BindView(&v);
  v.num_items = num_items_;
  return v;
}

void PsvdRecommender::ScoreInto(UserId u, std::span<double> out) const {
  FactorScoringEngine(View()).ScoreInto(u, out);
}

void PsvdRecommender::ScoreBatchInto(std::span<const UserId> users,
                                     std::span<double> out) const {
  FactorScoringEngine(View()).ScoreBatchInto(users, out);
}

Status PsvdRecommender::Save(std::ostream& os) const {
  if (num_items() == 0) {
    return Status::FailedPrecondition("cannot save unfitted PSVD model");
  }
  ArtifactWriter w(os);
  GANC_RETURN_NOT_OK(w.WriteHeader(ArtifactKind::kModel,
                                   static_cast<uint32_t>(ModelType::kPsvd)));
  PayloadWriter config;
  config.WriteI32(config_.num_factors);
  config.WriteI32(config_.oversample);
  config.WriteI32(config_.power_iterations);
  config.WriteU64(config_.seed);
  GANC_RETURN_NOT_OK(w.WriteSection(kModelConfigSection, config));
  PayloadWriter state;
  state.WriteI32(num_users_);
  state.WriteI32(num_items_);
  state.WriteU64(train_fingerprint_);
  state.WriteVecF64(singular_values_);
  GANC_RETURN_NOT_OK(w.WriteSection(kModelStateSection, state));
  PayloadWriter factors;
  factors_.Save(&factors);
  GANC_RETURN_NOT_OK(w.WriteSection(kFactorTableSection, factors));
  return w.Finish();
}

Status PsvdRecommender::Load(ArtifactReader& r, const RatingDataset* train) {
  GANC_RETURN_NOT_OK(ReadModelHeader(r, ModelType::kPsvd));
  Result<ArtifactReader::Section> config = r.ReadSectionExpect(
      kModelConfigSection);
  if (!config.ok()) return config.status();
  PayloadReader cr(config->payload());
  PsvdConfig cfg;
  GANC_RETURN_NOT_OK(cr.ReadI32(&cfg.num_factors));
  GANC_RETURN_NOT_OK(cr.ReadI32(&cfg.oversample));
  GANC_RETURN_NOT_OK(cr.ReadI32(&cfg.power_iterations));
  GANC_RETURN_NOT_OK(cr.ReadU64(&cfg.seed));
  GANC_RETURN_NOT_OK(cr.ExpectEnd());
  Result<ArtifactReader::Section> state = r.ReadSectionExpect(
      kModelStateSection);
  if (!state.ok()) return state.status();
  PayloadReader sr(state->payload());
  int32_t num_users = 0;
  int32_t num_items = 0;
  uint64_t fingerprint = 0;
  std::vector<double> sigma;
  GANC_RETURN_NOT_OK(sr.ReadI32(&num_users));
  GANC_RETURN_NOT_OK(sr.ReadI32(&num_items));
  GANC_RETURN_NOT_OK(sr.ReadU64(&fingerprint));
  GANC_RETURN_NOT_OK(sr.ReadVecF64(&sigma));
  GANC_RETURN_NOT_OK(sr.ExpectEnd());
  Result<ArtifactReader::Section> factors = r.ReadSectionExpect(
      kFactorTableSection);
  if (!factors.ok()) return factors.status();
  FactorStore store;
  GANC_RETURN_NOT_OK(store.Load(factors->payload(), r.source()));
  // Scoring rank is |sigma| (may be below num_factors on tiny matrices).
  const size_t g = sigma.size();
  if (num_users < 0 || num_items < 0 || store.num_factors() != g ||
      store.user_rows() != static_cast<size_t>(num_users) ||
      store.item_rows() != static_cast<size_t>(num_items)) {
    return Status::InvalidArgument("inconsistent PSVD factor dimensions");
  }
  if (train != nullptr) {
    if (num_users != train->num_users() || num_items != train->num_items()) {
      return Status::InvalidArgument(
          "PSVD artifact dimensions do not match the provided dataset");
    }
    if (fingerprint != train->Fingerprint()) {
      return Status::InvalidArgument(
          "PSVD artifact was trained on different data than the provided "
          "dataset (fingerprint mismatch)");
    }
  }
  GANC_RETURN_NOT_OK(ExpectEndOfArtifact(r));
  config_ = cfg;
  num_users_ = num_users;
  num_items_ = num_items;
  train_fingerprint_ = fingerprint;
  singular_values_ = std::move(sigma);
  factors_ = std::move(store);
  return Status::OK();
}

}  // namespace ganc
