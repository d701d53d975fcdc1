// Round-trip fidelity suite for the model artifact layer: for every
// recommender, save -> load must reproduce bit-identical ScoreBatchInto
// output and top-N lists, and corrupt / truncated / wrong-version /
// wrong-type artifacts must be rejected with an error, never loaded.

#include "recommender/model_io.h"

#include <bit>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "recommender/bpr.h"
#include "recommender/cofirank.h"
#include "recommender/item_knn.h"
#include "recommender/pop.h"
#include "recommender/psvd.h"
#include "recommender/random_rec.h"
#include "recommender/random_walk.h"
#include "recommender/rsvd.h"
#include "recommender/scoring_context.h"
#include "recommender/user_knn.h"

namespace ganc {
namespace {

RatingDataset MakeData(int32_t num_users = 80, int32_t num_items = 150,
                       uint64_t seed = 0) {
  SyntheticSpec spec = TinySpec();
  spec.num_users = num_users;
  spec.num_items = num_items;
  spec.mean_activity = 18.0;
  if (seed != 0) spec.seed = seed;
  auto ds = GenerateSynthetic(spec);
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

struct ModelPair {
  std::unique_ptr<Recommender> fitted;  // Fit() on the train set
  std::unique_ptr<Recommender> fresh;   // default-constructed Load target
};

std::vector<ModelPair> AllModelPairs() {
  std::vector<ModelPair> pairs;
  pairs.push_back({std::make_unique<PopRecommender>(),
                   std::make_unique<PopRecommender>()});
  pairs.push_back({std::make_unique<RandomRecommender>(123),
                   std::make_unique<RandomRecommender>()});
  pairs.push_back({std::make_unique<RandomWalkRecommender>(
                       RandomWalkConfig{.beta = 0.6}),
                   std::make_unique<RandomWalkRecommender>()});
  pairs.push_back({std::make_unique<ItemKnnRecommender>(
                       ItemKnnConfig{.num_neighbors = 12}),
                   std::make_unique<ItemKnnRecommender>()});
  pairs.push_back({std::make_unique<UserKnnRecommender>(
                       UserKnnConfig{.num_neighbors = 12}),
                   std::make_unique<UserKnnRecommender>()});
  pairs.push_back({std::make_unique<PsvdRecommender>(
                       PsvdConfig{.num_factors = 9}),
                   std::make_unique<PsvdRecommender>()});
  pairs.push_back({std::make_unique<RsvdRecommender>(RsvdConfig{
                       .num_factors = 7, .num_epochs = 4, .use_biases = true}),
                   std::make_unique<RsvdRecommender>()});
  pairs.push_back({std::make_unique<BprRecommender>(
                       BprConfig{.num_factors = 6, .num_epochs = 4}),
                   std::make_unique<BprRecommender>()});
  pairs.push_back({std::make_unique<CofiRecommender>(
                       CofiConfig{.num_factors = 6, .num_epochs = 4}),
                   std::make_unique<CofiRecommender>()});
  return pairs;
}

std::string Serialize(const Recommender& model) {
  std::ostringstream os(std::ios::binary);
  EXPECT_TRUE(model.Save(os).ok());
  return os.str();
}

std::vector<double> BatchScores(const Recommender& model,
                                const RatingDataset& train) {
  std::vector<UserId> users(static_cast<size_t>(train.num_users()));
  for (size_t u = 0; u < users.size(); ++u) {
    users[u] = static_cast<UserId>(u);
  }
  std::vector<double> out(users.size() *
                          static_cast<size_t>(model.num_items()));
  model.ScoreBatchInto(users, out);
  return out;
}

void ExpectBitIdentical(const std::vector<double>& a,
                        const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(a[i]), std::bit_cast<uint64_t>(b[i]))
        << "score " << i << " differs";
  }
}

TEST(ModelIoTest, AllModelsRoundTripBitIdentically) {
  const RatingDataset train = MakeData();
  for (ModelPair& pair : AllModelPairs()) {
    ASSERT_TRUE(pair.fitted->Fit(train).ok()) << pair.fitted->name();
    const std::string artifact = Serialize(*pair.fitted);
    ArtifactReader r(ArtifactBytes::Copy(artifact));
    ASSERT_TRUE(pair.fresh->Load(r, &train).ok()) << pair.fitted->name();

    EXPECT_EQ(pair.fresh->name(), pair.fitted->name());
    EXPECT_EQ(pair.fresh->num_items(), pair.fitted->num_items());
    ExpectBitIdentical(BatchScores(*pair.fitted, train),
                       BatchScores(*pair.fresh, train));
    // Identical scores + shared deterministic selection kernels =>
    // identical top-N lists; assert anyway as the end-to-end contract.
    EXPECT_EQ(RecommendAllUsers(*pair.fitted, train, 10),
              RecommendAllUsers(*pair.fresh, train, 10))
        << pair.fitted->name();
  }
}

TEST(ModelIoTest, FactoryDispatchesEveryModelType) {
  const RatingDataset train = MakeData();
  for (ModelPair& pair : AllModelPairs()) {
    ASSERT_TRUE(pair.fitted->Fit(train).ok());
    ArtifactReader r(ArtifactBytes::Copy(Serialize(*pair.fitted)));
    Result<std::unique_ptr<Recommender>> loaded = LoadModel(r, &train);
    ASSERT_TRUE(loaded.ok()) << pair.fitted->name() << ": "
                             << loaded.status().ToString();
    EXPECT_EQ((*loaded)->name(), pair.fitted->name());
    ExpectBitIdentical(BatchScores(*pair.fitted, train),
                       BatchScores(**loaded, train));
  }
}

TEST(ModelIoTest, FileRoundTrip) {
  const RatingDataset train = MakeData();
  PsvdRecommender model(PsvdConfig{.num_factors = 9});
  ASSERT_TRUE(model.Fit(train).ok());
  const std::string path = ::testing::TempDir() + "/ganc_model_io.gam";
  ASSERT_TRUE(SaveModelFile(model, path).ok());
  for (const bool prefer_mmap : {true, false}) {
    Result<std::unique_ptr<Recommender>> loaded =
        LoadModelFileAuto(path, prefer_mmap, nullptr);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ((*loaded)->name(), "PSVD9");
    ExpectBitIdentical(BatchScores(model, train),
                       BatchScores(**loaded, train));
  }
}

TEST(ModelIoTest, ConfigTravelsWithArtifact) {
  // A loaded model must score and report like the saved one even when
  // the load target was constructed with different hyper-parameters.
  const RatingDataset train = MakeData();
  RsvdRecommender fitted(RsvdConfig{.num_factors = 5, .num_epochs = 3,
                                    .non_negative = true});
  ASSERT_TRUE(fitted.Fit(train).ok());
  RsvdRecommender fresh(RsvdConfig{.num_factors = 50});
  ArtifactReader r(ArtifactBytes::Copy(Serialize(fitted)));
  ASSERT_TRUE(fresh.Load(r, nullptr).ok());
  EXPECT_EQ(fresh.name(), "RSVDN");
  EXPECT_EQ(fresh.config().num_factors, 5);
  ExpectBitIdentical(BatchScores(fitted, train), BatchScores(fresh, train));
}

TEST(ModelIoTest, UnfittedModelRefusesToSave) {
  std::ostringstream os(std::ios::binary);
  PopRecommender pop;
  EXPECT_EQ(pop.Save(os).code(), StatusCode::kFailedPrecondition);
  PsvdRecommender psvd;
  EXPECT_EQ(psvd.Save(os).code(), StatusCode::kFailedPrecondition);
}

TEST(ModelIoTest, EveryByteCorruptionIsDetectedOrHarmless) {
  // Flip each byte of a small artifact in turn: the load must either
  // fail cleanly or (for bytes the checksums cover) never pass silently.
  const RatingDataset train = MakeData(20, 30);
  PsvdRecommender model(PsvdConfig{.num_factors = 3});
  ASSERT_TRUE(model.Fit(train).ok());
  const std::string artifact = Serialize(model);
  int failures = 0;
  for (size_t i = 0; i < artifact.size(); ++i) {
    std::string corrupt = artifact;
    corrupt[i] ^= 0x5A;
    ArtifactReader r(ArtifactBytes::Copy(corrupt));
    PsvdRecommender target;
    if (!target.Load(r, nullptr).ok()) ++failures;
  }
  // Every header/payload/checksum byte is load-bearing in this format:
  // all single-byte corruptions must be caught.
  EXPECT_EQ(failures, static_cast<int>(artifact.size()));
}

TEST(ModelIoTest, TruncatedArtifactRejected) {
  const RatingDataset train = MakeData(20, 30);
  BprRecommender model(BprConfig{.num_factors = 3, .num_epochs = 2});
  ASSERT_TRUE(model.Fit(train).ok());
  const std::string artifact = Serialize(model);
  for (const size_t keep : {size_t{0}, size_t{4}, size_t{20}, size_t{40},
                            artifact.size() / 2, artifact.size() - 1}) {
    ArtifactReader r(ArtifactBytes::Copy(artifact.substr(0, keep)));
    BprRecommender target;
    EXPECT_FALSE(target.Load(r, nullptr).ok()) << "kept " << keep;
  }
}

TEST(ModelIoTest, WrongVersionRejected) {
  const RatingDataset train = MakeData(20, 30);
  PopRecommender model;
  ASSERT_TRUE(model.Fit(train).ok());
  std::string artifact = Serialize(model);
  artifact[8] = static_cast<char>(kGancFormatVersion + 9);
  ArtifactReader r(ArtifactBytes::Copy(artifact));
  PopRecommender target;
  Status s = target.Load(r, nullptr);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("version"), std::string::npos);
}

TEST(ModelIoTest, WrongModelTypeRejected) {
  const RatingDataset train = MakeData(20, 30);
  PsvdRecommender psvd(PsvdConfig{.num_factors = 3});
  ASSERT_TRUE(psvd.Fit(train).ok());
  ArtifactReader r(ArtifactBytes::Copy(Serialize(psvd)));
  RsvdRecommender target;
  Status s = target.Load(r, nullptr);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("type"), std::string::npos);
}

TEST(ModelIoTest, DatasetBackedModelsRequireBinding) {
  const RatingDataset train = MakeData();
  for (auto* name : {"rp3b", "itemknn", "userknn"}) {
    std::unique_ptr<Recommender> fitted;
    std::unique_ptr<Recommender> fresh;
    if (std::string(name) == "rp3b") {
      fitted = std::make_unique<RandomWalkRecommender>();
      fresh = std::make_unique<RandomWalkRecommender>();
    } else if (std::string(name) == "itemknn") {
      fitted = std::make_unique<ItemKnnRecommender>();
      fresh = std::make_unique<ItemKnnRecommender>();
    } else {
      fitted = std::make_unique<UserKnnRecommender>();
      fresh = std::make_unique<UserKnnRecommender>();
    }
    ASSERT_TRUE(fitted->Fit(train).ok());
    const std::string artifact = Serialize(*fitted);
    {
      ArtifactReader r(ArtifactBytes::Copy(artifact));
      EXPECT_EQ(fresh->Load(r, nullptr).code(),
                StatusCode::kFailedPrecondition)
          << name;
    }
    // Binding a dataset with different dimensions must be rejected.
    const RatingDataset other = MakeData(33, 44);
    {
      ArtifactReader r(ArtifactBytes::Copy(artifact));
      EXPECT_FALSE(fresh->Load(r, &other).ok()) << name;
    }
    // Same dimensions but different content (another split of the same
    // corpus shape) must be rejected too — the fingerprint catches it.
    const RatingDataset same_dims = MakeData(80, 150, 555);
    ASSERT_EQ(same_dims.num_users(), train.num_users());
    ASSERT_EQ(same_dims.num_items(), train.num_items());
    {
      ArtifactReader r(ArtifactBytes::Copy(artifact));
      Status s = fresh->Load(r, &same_dims);
      ASSERT_FALSE(s.ok()) << name;
      EXPECT_NE(s.message().find("fingerprint"), std::string::npos) << name;
    }
  }
}

TEST(ModelIoTest, SelfContainedModelsValidateDimsWhenDatasetProvided) {
  // A factor model does not need the dataset to score, but binding one
  // with different dimensions at load time would make downstream loops
  // index factors out of range — Load must refuse it up front.
  const RatingDataset train = MakeData();
  PsvdRecommender psvd(PsvdConfig{.num_factors = 4});
  ASSERT_TRUE(psvd.Fit(train).ok());
  const std::string artifact = Serialize(psvd);
  const RatingDataset more_users = MakeData(120, 150);
  ArtifactReader r(ArtifactBytes::Copy(artifact));
  PsvdRecommender target;
  EXPECT_FALSE(target.Load(r, &more_users).ok());
  // Same shape, different content: caught by the stored fingerprint.
  const RatingDataset same_dims = MakeData(80, 150, 321);
  ArtifactReader r3(ArtifactBytes::Copy(artifact));
  Status s = target.Load(r3, &same_dims);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("fingerprint"), std::string::npos);
  // Matching dataset still loads, as does a datasetless load.
  ArtifactReader r2(ArtifactBytes::Copy(artifact));
  EXPECT_TRUE(target.Load(r2, &train).ok());
  ArtifactReader r4(ArtifactBytes::Copy(artifact));
  EXPECT_TRUE(target.Load(r4, nullptr).ok());
}

TEST(ModelIoTest, MissingFileIsIOError) {
  for (const bool prefer_mmap : {true, false}) {
    EXPECT_EQ(
        LoadModelFileAuto("/nonexistent/model.gam", prefer_mmap, nullptr)
            .status()
            .code(),
        StatusCode::kIOError);
  }
}

TEST(ModelIoTest, NonModelArtifactRejectedByFactory) {
  const RatingDataset train = MakeData(20, 30);
  std::ostringstream os(std::ios::binary);
  ASSERT_TRUE(train.SaveBinary(os).ok());
  ArtifactReader r(ArtifactBytes::Copy(os.str()));
  Result<std::unique_ptr<Recommender>> loaded = LoadModel(r, &train);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("model"), std::string::npos);
}

}  // namespace
}  // namespace ganc
