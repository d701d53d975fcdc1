#include "recommender/model_io.h"

#include "recommender/bpr.h"
#include "recommender/cofirank.h"
#include "recommender/item_knn.h"
#include "recommender/pop.h"
#include "recommender/psvd.h"
#include "recommender/random_rec.h"
#include "recommender/random_walk.h"
#include "recommender/rsvd.h"
#include "recommender/user_knn.h"

namespace ganc {

Status ReadModelHeader(ArtifactReader& r, ModelType type) {
  // Header(), not ReadHeader(): the factory has already consumed the
  // header bytes to learn the type, so the cached copy must be reused.
  Result<ArtifactHeader> header = r.Header();
  if (!header.ok()) return header.status();
  return ExpectArtifact(*header, ArtifactKind::kModel,
                        static_cast<uint32_t>(type));
}

Status SaveModelFile(const Recommender& model, const std::string& path) {
  return WriteArtifactFile(
      path, [&](std::ostream& os) { return model.Save(os); });
}

Result<std::unique_ptr<Recommender>> LoadModel(ArtifactReader& r,
                                               const RatingDataset* train) {
  // Read the header to learn the concrete type; the model's Load picks
  // up from the cached header (via ReadModelHeader).
  Result<ArtifactHeader> header = r.Header();
  if (!header.ok()) return header.status();
  if (header->kind != static_cast<uint32_t>(ArtifactKind::kModel)) {
    return Status::InvalidArgument("artifact is not a model (kind " +
                                   std::to_string(header->kind) + ")");
  }
  std::unique_ptr<Recommender> model;
  switch (static_cast<ModelType>(header->type_tag)) {
    case ModelType::kPop:
      model = std::make_unique<PopRecommender>();
      break;
    case ModelType::kRandom:
      model = std::make_unique<RandomRecommender>();
      break;
    case ModelType::kRandomWalk:
      model = std::make_unique<RandomWalkRecommender>();
      break;
    case ModelType::kItemKnn:
      model = std::make_unique<ItemKnnRecommender>();
      break;
    case ModelType::kUserKnn:
      model = std::make_unique<UserKnnRecommender>();
      break;
    case ModelType::kPsvd:
      model = std::make_unique<PsvdRecommender>();
      break;
    case ModelType::kRsvd:
      model = std::make_unique<RsvdRecommender>();
      break;
    case ModelType::kBpr:
      model = std::make_unique<BprRecommender>();
      break;
    case ModelType::kCofi:
      model = std::make_unique<CofiRecommender>();
      break;
  }
  if (model == nullptr) {
    return Status::InvalidArgument("unknown model type tag " +
                                   std::to_string(header->type_tag));
  }
  GANC_RETURN_NOT_OK(model->Load(r, train));
  return model;
}

Result<std::unique_ptr<Recommender>> LoadModelFileAuto(
    const std::string& path, bool prefer_mmap, const RatingDataset* train) {
  Result<ArtifactReader> r = OpenArtifact(path, prefer_mmap);
  if (!r.ok()) return r.status();
  return LoadModel(*r, train);
}

}  // namespace ganc
