#include "core/preference.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "util/stats.h"

namespace ganc {
namespace {

RatingDataset SyntheticTrain() {
  auto ds = GenerateSynthetic(TinySpec());
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

TEST(ActivityPreferenceTest, NormalizedAndMonotone) {
  const RatingDataset ds = SyntheticTrain();
  const auto theta = ActivityPreference(ds);
  ASSERT_EQ(theta.size(), static_cast<size_t>(ds.num_users()));
  for (double t : theta) {
    EXPECT_GE(t, 0.0);
    EXPECT_LE(t, 1.0);
  }
  // More active user -> larger theta^A.
  UserId hi = 0, lo = 0;
  for (UserId u = 0; u < ds.num_users(); ++u) {
    if (ds.Activity(u) > ds.Activity(hi)) hi = u;
    if (ds.Activity(u) < ds.Activity(lo)) lo = u;
  }
  EXPECT_GT(theta[static_cast<size_t>(hi)], theta[static_cast<size_t>(lo)]);
  EXPECT_DOUBLE_EQ(theta[static_cast<size_t>(hi)], 1.0);
  EXPECT_DOUBLE_EQ(theta[static_cast<size_t>(lo)], 0.0);
}

TEST(NormalizedLongtailPreferenceTest, FractionOfTailItems) {
  // User 0 rates 1 head + 1 tail item -> theta^N = 0.5.
  RatingDatasetBuilder b(10, 3);
  for (UserId u = 0; u < 8; ++u) EXPECT_TRUE(b.Add(u, 0, 4.0f).ok());
  EXPECT_TRUE(b.Add(0, 1, 4.0f).ok());
  EXPECT_TRUE(b.Add(9, 2, 4.0f).ok());
  auto ds = std::move(b).Build();
  ASSERT_TRUE(ds.ok());
  const LongTailInfo tail = ComputeLongTail(*ds);
  ASSERT_FALSE(tail.Contains(0));
  ASSERT_TRUE(tail.Contains(1));
  const auto theta = NormalizedLongtailPreference(*ds, tail);
  EXPECT_DOUBLE_EQ(theta[0], 0.5);
  EXPECT_DOUBLE_EQ(theta[1], 0.0);   // rated only the head item
  EXPECT_DOUBLE_EQ(theta[9], 1.0);   // rated only a tail item
}

TEST(PerUserItemPreferenceTest, ProjectedToUnitInterval) {
  const RatingDataset ds = SyntheticTrain();
  const auto theta_ui = PerUserItemPreference(ds);
  double lo = 1.0, hi = 0.0;
  for (UserId u = 0; u < ds.num_users(); ++u) {
    ASSERT_EQ(theta_ui[static_cast<size_t>(u)].size(),
              ds.ItemsOf(u).size());
    for (double v : theta_ui[static_cast<size_t>(u)]) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  EXPECT_DOUBLE_EQ(lo, 0.0);
  EXPECT_DOUBLE_EQ(hi, 1.0);
}

TEST(PerUserItemPreferenceTest, HigherForRareHighlyRatedItems) {
  // theta_ui grows with rating and with rarity (Eq. II.2's two factors).
  RatingDatasetBuilder b(10, 2);
  for (UserId u = 0; u < 10; ++u) EXPECT_TRUE(b.Add(u, 0, 3.0f).ok());
  EXPECT_TRUE(b.Add(0, 1, 5.0f).ok());  // rare item, high rating
  auto ds = std::move(b).Build();
  ASSERT_TRUE(ds.ok());
  const auto theta_ui = PerUserItemPreference(*ds);
  // For user 0: entry 0 is item 0 (popular), entry 1 is item 1 (rare).
  EXPECT_GT(theta_ui[0][1], theta_ui[0][0]);
}

TEST(TfidfPreferenceTest, InUnitIntervalAndDiscriminative) {
  const RatingDataset ds = SyntheticTrain();
  const auto theta = TfidfPreference(ds);
  for (double t : theta) {
    EXPECT_GE(t, 0.0);
    EXPECT_LE(t, 1.0);
  }
  EXPECT_GT(Stddev(theta), 0.01);  // not collapsed to a constant
}

TEST(GeneralizedPreferenceTest, ConvergesOnSynthetic) {
  const RatingDataset ds = SyntheticTrain();
  auto result = GeneralizedPreference(ds);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_GT(result->iterations, 0);
  for (double t : result->theta) {
    EXPECT_GE(t, 0.0);
    EXPECT_LE(t, 1.0);
  }
}

TEST(GeneralizedPreferenceTest, WeightsInverseToMediocrity) {
  const RatingDataset ds = SyntheticTrain();
  auto result = GeneralizedPreference(ds);
  ASSERT_TRUE(result.ok());
  for (ItemId i = 0; i < ds.num_items(); ++i) {
    if (ds.Popularity(i) > 0) {
      EXPECT_GT(result->item_weight[static_cast<size_t>(i)], 0.0);
    } else {
      EXPECT_DOUBLE_EQ(result->item_weight[static_cast<size_t>(i)], 0.0);
    }
  }
}

TEST(GeneralizedPreferenceTest, EqualWeightsReduceToTfidf) {
  // After 0 damping iterations from the theta^T initial point, theta^G
  // equals the (unnormalized) theta^T; with full iterations it should stay
  // correlated strongly (the paper presents theta^G as a refinement).
  const RatingDataset ds = SyntheticTrain();
  auto g = GeneralizedPreference(ds);
  ASSERT_TRUE(g.ok());
  const auto t = TfidfPreference(ds);
  EXPECT_GT(PearsonCorrelation(g->theta, t), 0.8);
}

TEST(GeneralizedPreferenceTest, Figure2ShapeMoreSpreadThanThetaN) {
  // Paper Figure 2: theta^N is right-skewed; theta^G is more normally
  // distributed with larger mean.
  auto spec = TinySpec();
  spec.num_users = 300;
  spec.num_items = 400;
  spec.mean_activity = 30.0;
  auto ds = GenerateSynthetic(spec);
  ASSERT_TRUE(ds.ok());
  const auto theta_n =
      NormalizedLongtailPreference(*ds, ComputeLongTail(*ds));
  auto g = GeneralizedPreference(*ds);
  ASSERT_TRUE(g.ok());
  EXPECT_GT(Mean(g->theta), Mean(theta_n));
}

TEST(GeneralizedPreferenceTest, InvalidOptionsRejected) {
  const RatingDataset ds = SyntheticTrain();
  GeneralizedPreferenceOptions opts;
  opts.lambda1 = 0.0;
  EXPECT_FALSE(GeneralizedPreference(ds, opts).ok());
  opts = {};
  opts.max_iterations = 0;
  EXPECT_FALSE(GeneralizedPreference(ds, opts).ok());
}

TEST(RandomPreferenceTest, UniformInUnitInterval) {
  const auto theta = RandomPreference(1000, 3);
  for (double t : theta) {
    EXPECT_GE(t, 0.0);
    EXPECT_LT(t, 1.0);
  }
  EXPECT_NEAR(Mean(theta), 0.5, 0.05);
}

TEST(ConstantPreferenceTest, AllEqual) {
  const auto theta = ConstantPreference(10, 0.5);
  for (double t : theta) EXPECT_DOUBLE_EQ(t, 0.5);
}

TEST(ComputePreferenceTest, DispatcherCoversAllModels) {
  const RatingDataset ds = SyntheticTrain();
  for (PreferenceModel m :
       {PreferenceModel::kActivity, PreferenceModel::kNormalized,
        PreferenceModel::kTfidf, PreferenceModel::kGeneralized,
        PreferenceModel::kRandom, PreferenceModel::kConstant}) {
    auto theta = ComputePreference(m, ds);
    ASSERT_TRUE(theta.ok()) << PreferenceModelName(m);
    EXPECT_EQ(theta->size(), static_cast<size_t>(ds.num_users()));
  }
}

// A mapped dataset has no CSC index until it is made resident; the
// dispatcher must do that itself and match the eager result.
TEST(ComputePreferenceTest, MappedNonResidentDatasetMatchesEager) {
  const RatingDataset eager = SyntheticTrain();
  const std::string path = ::testing::TempDir() + "/preference_mapped.gdc";
  ASSERT_TRUE(eager.SaveBinaryFile(path).ok());
  for (PreferenceModel m :
       {PreferenceModel::kActivity, PreferenceModel::kNormalized,
        PreferenceModel::kTfidf, PreferenceModel::kGeneralized}) {
    auto mapped = RatingDataset::LoadFileAuto(path, /*prefer_mmap=*/true);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    ASSERT_FALSE(mapped->ResidencyMaterialized());
    auto want = ComputePreference(m, eager);
    auto got = ComputePreference(m, *mapped);
    ASSERT_TRUE(want.ok()) << PreferenceModelName(m);
    ASSERT_TRUE(got.ok()) << PreferenceModelName(m);
    EXPECT_EQ(*want, *got) << PreferenceModelName(m);
  }
  std::remove(path.c_str());
}

TEST(PreferenceModelNameTest, Names) {
  EXPECT_EQ(PreferenceModelName(PreferenceModel::kGeneralized), "thetaG");
  EXPECT_EQ(PreferenceModelName(PreferenceModel::kTfidf), "thetaT");
  EXPECT_EQ(PreferenceModelName(PreferenceModel::kRandom), "thetaR");
}

}  // namespace
}  // namespace ganc
