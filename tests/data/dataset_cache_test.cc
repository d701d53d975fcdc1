// Binary dataset cache: SaveBinary/Load must reproduce the saved
// dataset exactly (dimensions, observation order, per-user and per-item
// indexes) and reject corrupt or structurally invalid caches.

#include "data/dataset.h"

#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/split.h"
#include "data/synthetic.h"
#include "recommender/rsvd.h"
#include "util/serialize.h"

namespace ganc {
namespace {

RatingDataset MakeData() {
  SyntheticSpec spec = TinySpec();
  spec.num_users = 70;
  spec.num_items = 110;
  spec.mean_activity = 15.0;
  auto ds = GenerateSynthetic(spec);
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

std::string Serialize(const RatingDataset& ds) {
  std::ostringstream os(std::ios::binary);
  EXPECT_TRUE(ds.SaveBinary(os).ok());
  return os.str();
}

// Loads a cache from in-memory bytes (the aligned-copy byte source).
Result<RatingDataset> LoadBytes(const std::string& bytes) {
  ArtifactReader r(ArtifactBytes::Copy(bytes));
  return RatingDataset::Load(r);
}

RatingDataset Deserialize(const std::string& bytes) {
  auto ds = LoadBytes(bytes);
  EXPECT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_TRUE(ds->EnsureResident().ok());
  return std::move(ds).value();
}

void ExpectIdentical(const RatingDataset& a, const RatingDataset& b) {
  ASSERT_EQ(a.num_users(), b.num_users());
  ASSERT_EQ(a.num_items(), b.num_items());
  ASSERT_EQ(a.num_ratings(), b.num_ratings());
  // Observation order is part of the contract: splits and SGD epoch
  // iteration depend on ratings() order.
  for (int64_t i = 0; i < a.num_ratings(); ++i) {
    const Rating& ra = a.ratings()[static_cast<size_t>(i)];
    const Rating& rb = b.ratings()[static_cast<size_t>(i)];
    ASSERT_EQ(ra.user, rb.user) << "rating " << i;
    ASSERT_EQ(ra.item, rb.item) << "rating " << i;
    ASSERT_EQ(ra.value, rb.value) << "rating " << i;
  }
  for (UserId u = 0; u < a.num_users(); ++u) {
    const auto& rowa = a.ItemsOf(u);
    const auto& rowb = b.ItemsOf(u);
    ASSERT_EQ(rowa.size(), rowb.size()) << "user " << u;
    for (size_t k = 0; k < rowa.size(); ++k) {
      ASSERT_EQ(rowa[k].item, rowb[k].item);
      ASSERT_EQ(rowa[k].value, rowb[k].value);
    }
  }
  for (ItemId i = 0; i < a.num_items(); ++i) {
    const auto& cola = a.UsersOf(i);
    const auto& colb = b.UsersOf(i);
    ASSERT_EQ(cola.size(), colb.size()) << "item " << i;
    for (size_t k = 0; k < cola.size(); ++k) {
      ASSERT_EQ(cola[k].user, colb[k].user);
      ASSERT_EQ(cola[k].value, colb[k].value);
    }
  }
}

TEST(DatasetCacheTest, RoundTripIsExact) {
  const RatingDataset ds = MakeData();
  ExpectIdentical(ds, Deserialize(Serialize(ds)));
}

TEST(DatasetCacheTest, EmptyDatasetRoundTrips) {
  auto ds = std::move(RatingDatasetBuilder(0, 0)).Build();
  ASSERT_TRUE(ds.ok());
  ExpectIdentical(*ds, Deserialize(Serialize(*ds)));
}

TEST(DatasetCacheTest, DatasetWithEmptyRowsRoundTrips) {
  RatingDatasetBuilder builder(5, 6);
  // Users 0, 2, 4 and items 1, 5 stay empty; insertion order is shuffled.
  ASSERT_TRUE(builder.Add(3, 4, 2.0f).ok());
  ASSERT_TRUE(builder.Add(1, 0, 5.0f).ok());
  ASSERT_TRUE(builder.Add(3, 2, 1.0f).ok());
  ASSERT_TRUE(builder.Add(1, 3, 4.5f).ok());
  auto ds = std::move(builder).Build();
  ASSERT_TRUE(ds.ok());
  ExpectIdentical(*ds, Deserialize(Serialize(*ds)));
}

TEST(DatasetCacheTest, DownstreamSplitAndTrainingAreBitIdentical) {
  // The production cold-start path: the cache-loaded dataset must drive
  // seeded splits and SGD training to bit-identical results.
  const RatingDataset original = MakeData();
  const RatingDataset cached = Deserialize(Serialize(original));

  auto split_a = PerUserRatioSplit(original, {.train_ratio = 0.5, .seed = 9});
  auto split_b = PerUserRatioSplit(cached, {.train_ratio = 0.5, .seed = 9});
  ASSERT_TRUE(split_a.ok());
  ASSERT_TRUE(split_b.ok());
  ExpectIdentical(split_a->train, split_b->train);
  ExpectIdentical(split_a->test, split_b->test);

  RsvdRecommender model_a(RsvdConfig{.num_factors = 4, .num_epochs = 3});
  RsvdRecommender model_b(RsvdConfig{.num_factors = 4, .num_epochs = 3});
  ASSERT_TRUE(model_a.Fit(split_a->train).ok());
  ASSERT_TRUE(model_b.Fit(split_b->train).ok());
  const auto scores_a = model_a.ScoreAll(0);
  const auto scores_b = model_b.ScoreAll(0);
  EXPECT_EQ(scores_a, scores_b);
}

TEST(DatasetCacheTest, FileRoundTrip) {
  const RatingDataset ds = MakeData();
  const std::string path = ::testing::TempDir() + "/ganc_cache_test.gdc";
  ASSERT_TRUE(ds.SaveBinaryFile(path).ok());
  for (const bool prefer_mmap : {true, false}) {
    auto back = RatingDataset::LoadFileAuto(path, prefer_mmap);
    ASSERT_TRUE(back.ok());
    ASSERT_TRUE(back->EnsureResident().ok());
    ExpectIdentical(ds, *back);
  }
  std::filesystem::remove(path);
}

TEST(DatasetCacheTest, MissingFileIsIOError) {
  for (const bool prefer_mmap : {true, false}) {
    EXPECT_EQ(RatingDataset::LoadFileAuto("/nonexistent/x.gdc", prefer_mmap)
                  .status()
                  .code(),
              StatusCode::kIOError);
  }
}

TEST(DatasetCacheTest, CorruptionRejected) {
  const std::string bytes = Serialize(MakeData());
  // Flip one byte in every 7-byte stride (covers header, every section
  // payload, checksums, and the end marker without 16k subtests).
  for (size_t i = 0; i < bytes.size(); i += 7) {
    std::string corrupt = bytes;
    corrupt[i] ^= 0x5A;
    EXPECT_FALSE(LoadBytes(corrupt).ok()) << "byte " << i;
  }
}

TEST(DatasetCacheTest, TruncationRejected) {
  const std::string bytes = Serialize(MakeData());
  for (const size_t keep : {size_t{0}, size_t{10}, size_t{24}, size_t{100},
                            bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_FALSE(LoadBytes(bytes.substr(0, keep)).ok()) << "kept " << keep;
  }
}

TEST(DatasetCacheTest, ModelArtifactRejected) {
  // Kind mismatch: a model artifact is not a dataset cache.
  const RatingDataset ds = MakeData();
  std::ostringstream os(std::ios::binary);
  ArtifactWriter w(os);
  ASSERT_TRUE(w.WriteHeader(ArtifactKind::kModel, 1).ok());
  ASSERT_TRUE(w.Finish().ok());
  auto back = LoadBytes(os.str());
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find("kind"), std::string::npos);
}

}  // namespace
}  // namespace ganc
