#include "core/pipeline.h"

#include <cstdio>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "eval/metrics.h"
#include "recommender/pop.h"
#include "recommender/psvd.h"
#include "recommender/recommender.h"

namespace ganc {
namespace {

RatingDataset Train() {
  auto spec = TinySpec();
  spec.num_users = 150;
  spec.num_items = 180;
  spec.mean_activity = 24.0;
  auto ds = GenerateSynthetic(spec);
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

TEST(PipelineFacadeTest, EndToEndWithPsvd) {
  const RatingDataset train = Train();
  auto pipeline = GancPipeline::Create(
      std::make_unique<PsvdRecommender>(PsvdConfig{.num_factors = 8}), train,
      {.top_n = 5, .sample_size = 40});
  ASSERT_TRUE(pipeline.ok());
  EXPECT_EQ((*pipeline)->name(), "GANC(PSVD8, thetaG, Dyn)");
  auto topn = (*pipeline)->RecommendAll();
  ASSERT_TRUE(topn.ok());
  ASSERT_EQ(topn->size(), static_cast<size_t>(train.num_users()));
  for (UserId u = 0; u < train.num_users(); ++u) {
    const auto& pu = (*topn)[static_cast<size_t>(u)];
    EXPECT_EQ(pu.size(), 5u);
    for (ItemId i : pu) EXPECT_FALSE(train.HasRating(u, i));
  }
}

TEST(PipelineFacadeTest, IndicatorAccuracyPath) {
  const RatingDataset train = Train();
  auto pipeline = GancPipeline::Create(
      std::make_unique<PopRecommender>(), train,
      {.top_n = 5, .sample_size = 40, .indicator_accuracy = true});
  ASSERT_TRUE(pipeline.ok());
  EXPECT_EQ((*pipeline)->name(), "GANC(Pop, thetaG, Dyn)");
  auto topn = (*pipeline)->RecommendAll();
  ASSERT_TRUE(topn.ok());
}

TEST(PipelineFacadeTest, ImprovesCoverageOverBase) {
  const RatingDataset train = Train();
  auto pipeline = GancPipeline::Create(
      std::make_unique<PsvdRecommender>(PsvdConfig{.num_factors = 8}), train,
      {.top_n = 5, .sample_size = 40});
  ASSERT_TRUE(pipeline.ok());
  auto topn = (*pipeline)->RecommendAll();
  ASSERT_TRUE(topn.ok());
  const auto base_topn = RecommendAllUsers((*pipeline)->base(), train, 5);
  const MetricsConfig cfg{.top_n = 5};
  EXPECT_GT(EvaluateTopN(train, train, *topn, cfg).coverage,
            EvaluateTopN(train, train, base_topn, cfg).coverage);
}

TEST(PipelineFacadeTest, ThetaExposedAndValid) {
  const RatingDataset train = Train();
  auto pipeline = GancPipeline::Create(
      std::make_unique<PopRecommender>(), train,
      {.theta_model = PreferenceModel::kTfidf, .top_n = 3});
  ASSERT_TRUE(pipeline.ok());
  const auto& theta = (*pipeline)->theta();
  ASSERT_EQ(theta.size(), static_cast<size_t>(train.num_users()));
  for (double t : theta) {
    EXPECT_GE(t, 0.0);
    EXPECT_LE(t, 1.0);
  }
}

TEST(PipelineFacadeTest, RecommendForUserMatchesContract) {
  const RatingDataset train = Train();
  auto pipeline = GancPipeline::Create(
      std::make_unique<PsvdRecommender>(PsvdConfig{.num_factors = 8}), train,
      {.coverage = CoverageKind::kStat, .top_n = 4});
  ASSERT_TRUE(pipeline.ok());
  const auto list = (*pipeline)->RecommendForUser(3);
  EXPECT_EQ(list.size(), 4u);
  std::set<ItemId> uniq(list.begin(), list.end());
  EXPECT_EQ(uniq.size(), 4u);
  for (ItemId i : list) EXPECT_FALSE(train.HasRating(3, i));
}

TEST(PipelineFacadeTest, InvalidInputsRejected) {
  const RatingDataset train = Train();
  EXPECT_FALSE(GancPipeline::Create(nullptr, train, {}).ok());
  EXPECT_FALSE(GancPipeline::Create(std::make_unique<PopRecommender>(), train,
                                    {.top_n = 0})
                   .ok());
}

// Regression: Create over a mapped dataset that nobody made resident
// used to read the unbuilt CSC index (a null Popularity read in the
// theta model). It must make the dataset resident itself and match the
// pipeline built on the eagerly loaded copy.
TEST(PipelineFacadeTest, CreateOverNonResidentMappedDataset) {
  const RatingDataset eager = Train();
  const std::string path =
      ::testing::TempDir() + "/pipeline_facade_mapped.gdc";
  ASSERT_TRUE(eager.SaveBinaryFile(path).ok());
  auto mapped = RatingDataset::LoadFileAuto(path, /*prefer_mmap=*/true);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_FALSE(mapped->ResidencyMaterialized());

  const PipelineConfig config{.top_n = 5, .sample_size = 40};
  auto want = GancPipeline::Create(
      std::make_unique<PsvdRecommender>(PsvdConfig{.num_factors = 8}), eager,
      config);
  auto got = GancPipeline::Create(
      std::make_unique<PsvdRecommender>(PsvdConfig{.num_factors = 8}),
      *mapped, config);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(mapped->ResidencyMaterialized());
  EXPECT_EQ((*want)->theta(), (*got)->theta());
  auto want_topn = (*want)->RecommendAll();
  auto got_topn = (*got)->RecommendAll();
  ASSERT_TRUE(want_topn.ok());
  ASSERT_TRUE(got_topn.ok());
  EXPECT_EQ(*want_topn, *got_topn);
  std::remove(path.c_str());
}

TEST(PipelineFacadeTest, PrefittedBaseReused) {
  const RatingDataset train = Train();
  auto base = std::make_unique<PsvdRecommender>(PsvdConfig{.num_factors = 8});
  ASSERT_TRUE(base->Fit(train).ok());
  auto pipeline = GancPipeline::Create(std::move(base), train,
                                       {.top_n = 5, .fit_base = false});
  ASSERT_TRUE(pipeline.ok());
  EXPECT_TRUE((*pipeline)->RecommendAll().ok());
}

}  // namespace
}  // namespace ganc
