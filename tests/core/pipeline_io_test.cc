// GancPipeline artifact round trip: save -> load must reproduce theta,
// long-tail statistics, the embedded base model, and — end to end —
// a bit-identical RecommendAll collection, against the same train set.

#include "core/pipeline.h"

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "recommender/pop.h"
#include "recommender/psvd.h"

namespace ganc {
namespace {

RatingDataset MakeData(int32_t num_users = 60, int32_t num_items = 100,
                       uint64_t seed = 0) {
  SyntheticSpec spec = TinySpec();
  spec.num_users = num_users;
  spec.num_items = num_items;
  spec.mean_activity = 14.0;
  if (seed != 0) spec.seed = seed;
  auto ds = GenerateSynthetic(spec);
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

std::unique_ptr<GancPipeline> MakePipeline(const RatingDataset& train) {
  PipelineConfig config;
  config.theta_model = PreferenceModel::kGeneralized;
  config.coverage = CoverageKind::kDyn;
  config.top_n = 5;
  config.sample_size = 30;
  config.seed = 77;
  auto pipeline = GancPipeline::Create(
      std::make_unique<PsvdRecommender>(PsvdConfig{.num_factors = 6}), train,
      config);
  EXPECT_TRUE(pipeline.ok());
  return std::move(pipeline).value();
}

std::string Serialize(const GancPipeline& pipeline) {
  std::ostringstream os(std::ios::binary);
  EXPECT_TRUE(pipeline.Save(os).ok());
  return os.str();
}

TEST(PipelineIoTest, RoundTripReproducesRecommendAllExactly) {
  const RatingDataset train = MakeData();
  const std::unique_ptr<GancPipeline> pipeline = MakePipeline(train);
  ArtifactReader r(ArtifactBytes::Copy(Serialize(*pipeline)));
  Result<std::unique_ptr<GancPipeline>> loaded = GancPipeline::Load(r, train);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ((*loaded)->name(), pipeline->name());
  EXPECT_EQ((*loaded)->theta(), pipeline->theta());
  EXPECT_EQ((*loaded)->base().name(), pipeline->base().name());
  EXPECT_EQ((*loaded)->tail().tail_size, pipeline->tail().tail_size);
  EXPECT_EQ((*loaded)->tail().is_long_tail, pipeline->tail().is_long_tail);

  auto topn_a = pipeline->RecommendAll();
  auto topn_b = (*loaded)->RecommendAll();
  ASSERT_TRUE(topn_a.ok());
  ASSERT_TRUE(topn_b.ok());
  EXPECT_EQ(*topn_a, *topn_b);
  for (UserId u = 0; u < 5; ++u) {
    EXPECT_EQ(pipeline->RecommendForUser(u), (*loaded)->RecommendForUser(u));
  }
}

TEST(PipelineIoTest, IndicatorAccuracyConfigSurvives) {
  const RatingDataset train = MakeData();
  PipelineConfig config;
  config.indicator_accuracy = true;
  config.top_n = 5;
  config.sample_size = 20;
  auto pipeline = GancPipeline::Create(std::make_unique<PopRecommender>(),
                                       train, config);
  ASSERT_TRUE(pipeline.ok());
  ArtifactReader r(ArtifactBytes::Copy(Serialize(**pipeline)));
  Result<std::unique_ptr<GancPipeline>> loaded = GancPipeline::Load(r, train);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto topn_a = (*pipeline)->RecommendAll();
  auto topn_b = (*loaded)->RecommendAll();
  ASSERT_TRUE(topn_a.ok());
  ASSERT_TRUE(topn_b.ok());
  EXPECT_EQ(*topn_a, *topn_b);
}

TEST(PipelineIoTest, FileRoundTrip) {
  const RatingDataset train = MakeData();
  const std::unique_ptr<GancPipeline> pipeline = MakePipeline(train);
  const std::string path = ::testing::TempDir() + "/ganc_pipeline_io.gap";
  ASSERT_TRUE(pipeline->SaveFile(path).ok());
  Result<std::unique_ptr<GancPipeline>> loaded =
      GancPipeline::LoadFile(path, train);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->theta(), pipeline->theta());
}

TEST(PipelineIoTest, MismatchedTrainRejected) {
  const RatingDataset train = MakeData();
  const RatingDataset other = MakeData(25, 40);
  const std::unique_ptr<GancPipeline> pipeline = MakePipeline(train);
  ArtifactReader r(ArtifactBytes::Copy(Serialize(*pipeline)));
  Result<std::unique_ptr<GancPipeline>> loaded = GancPipeline::Load(r, other);
  EXPECT_FALSE(loaded.ok());
}

TEST(PipelineIoTest, SameDimsDifferentSplitRejected) {
  // Theta and the embedded model are functions of the exact train
  // content; a different split with identical dimensions must be
  // refused via the train fingerprint.
  const RatingDataset train = MakeData();
  const RatingDataset same_dims = MakeData(60, 100, 999);
  ASSERT_EQ(same_dims.num_users(), train.num_users());
  ASSERT_EQ(same_dims.num_items(), train.num_items());
  const std::unique_ptr<GancPipeline> pipeline = MakePipeline(train);
  ArtifactReader r(ArtifactBytes::Copy(Serialize(*pipeline)));
  Result<std::unique_ptr<GancPipeline>> loaded =
      GancPipeline::Load(r, same_dims);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("fingerprint"), std::string::npos);
}

TEST(PipelineIoTest, CorruptEmbeddedModelRejected) {
  const RatingDataset train = MakeData();
  const std::unique_ptr<GancPipeline> pipeline = MakePipeline(train);
  std::string bytes = Serialize(*pipeline);
  // The embedded model artifact is the last section; corrupt its tail.
  bytes[bytes.size() - 30] ^= 0x5A;
  ArtifactReader r(ArtifactBytes::Copy(bytes));
  EXPECT_FALSE(GancPipeline::Load(r, train).ok());
}

TEST(PipelineIoTest, TruncationRejected) {
  const RatingDataset train = MakeData();
  const std::string bytes = Serialize(*MakePipeline(train));
  for (const size_t keep : {size_t{0}, size_t{16}, size_t{64},
                            bytes.size() / 2, bytes.size() - 1}) {
    ArtifactReader r(ArtifactBytes::Copy(bytes.substr(0, keep)));
    EXPECT_FALSE(GancPipeline::Load(r, train).ok()) << "kept " << keep;
  }
}

TEST(PipelineIoTest, ThreadedLoadIsByteIdentical) {
  const RatingDataset train = MakeData();
  const std::unique_ptr<GancPipeline> pipeline = MakePipeline(train);
  const std::string bytes = Serialize(*pipeline);
  ArtifactReader r(ArtifactBytes::Copy(bytes));
  Result<std::unique_ptr<GancPipeline>> loaded =
      GancPipeline::Load(r, train, /*num_threads=*/2);
  ASSERT_TRUE(loaded.ok());
  auto topn_a = pipeline->RecommendAll();
  auto topn_b = (*loaded)->RecommendAll();
  ASSERT_TRUE(topn_a.ok());
  ASSERT_TRUE(topn_b.ok());
  EXPECT_EQ(*topn_a, *topn_b);
}

}  // namespace
}  // namespace ganc
