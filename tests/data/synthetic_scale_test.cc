// Streaming power-law scale generator: the output file must be a
// function of the spec alone — identical across runs and across thread
// counts — with a stored fingerprint that matches the loaded content,
// activity bounds respected, and the Zipf head/tail shape the scale
// harness relies on.

#include "data/synthetic.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "util/thread_pool.h"

namespace ganc {
namespace {

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string FileBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

ScaleSyntheticSpec SmallSpec() {
  ScaleSyntheticSpec spec = PowerLawScaleSpec(3000);
  spec.num_items = 800;
  spec.seed = 7;
  return spec;
}

TEST(SyntheticScaleTest, RunsAreByteIdentical) {
  const ScaleSyntheticSpec spec = SmallSpec();
  const std::string a = TestPath("scale_run_a.gdc");
  const std::string b = TestPath("scale_run_b.gdc");
  auto nnz_a = GenerateSyntheticStream(spec, a);
  ASSERT_TRUE(nnz_a.ok()) << nnz_a.status().ToString();
  auto nnz_b = GenerateSyntheticStream(spec, b);
  ASSERT_TRUE(nnz_b.ok());
  EXPECT_EQ(*nnz_a, *nnz_b);
  EXPECT_EQ(FileBytes(a), FileBytes(b));
  EXPECT_GT(*nnz_a, 0);
}

TEST(SyntheticScaleTest, ThreadCountDoesNotChangeTheBytes) {
  const ScaleSyntheticSpec spec = SmallSpec();
  const std::string serial = TestPath("scale_serial.gdc");
  const std::string threaded = TestPath("scale_threaded.gdc");
  auto nnz_serial = GenerateSyntheticStream(spec, serial, nullptr);
  ASSERT_TRUE(nnz_serial.ok()) << nnz_serial.status().ToString();
  ThreadPool pool(3);
  auto nnz_threaded = GenerateSyntheticStream(spec, threaded, &pool);
  ASSERT_TRUE(nnz_threaded.ok()) << nnz_threaded.status().ToString();
  EXPECT_EQ(*nnz_serial, *nnz_threaded);
  EXPECT_EQ(FileBytes(serial), FileBytes(threaded));
}

TEST(SyntheticScaleTest, SeedChangesTheBytes) {
  ScaleSyntheticSpec spec = SmallSpec();
  const std::string a = TestPath("scale_seed_a.gdc");
  ASSERT_TRUE(GenerateSyntheticStream(spec, a).ok());
  spec.seed += 1;
  const std::string b = TestPath("scale_seed_b.gdc");
  ASSERT_TRUE(GenerateSyntheticStream(spec, b).ok());
  EXPECT_NE(FileBytes(a), FileBytes(b));
}

TEST(SyntheticScaleTest, OutputLoadsWithMatchingFingerprintAndBounds) {
  const ScaleSyntheticSpec spec = SmallSpec();
  const std::string path = TestPath("scale_content.gdc");
  auto nnz = GenerateSyntheticStream(spec, path);
  ASSERT_TRUE(nnz.ok());

  // Mapped and read() loads agree; the stored fingerprint matches a
  // from-scratch recomputation over the loaded rows.
  auto mapped = RatingDataset::LoadFileAuto(path, /*prefer_mmap=*/true);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_TRUE(mapped->EnsureResident().ok());
  auto eager = RatingDataset::LoadFileAuto(path, /*prefer_mmap=*/false);
  ASSERT_TRUE(eager.ok());
  ASSERT_TRUE(eager->EnsureResident().ok());
  EXPECT_EQ(mapped->num_ratings(), *nnz);
  EXPECT_EQ(eager->num_ratings(), *nnz);
  EXPECT_EQ(mapped->Fingerprint(), eager->Fingerprint());

  RatingDatasetBuilder rebuild(mapped->num_users(), mapped->num_items());
  for (UserId u = 0; u < mapped->num_users(); ++u) {
    for (const ItemRating& ir : mapped->ItemsOf(u)) {
      ASSERT_TRUE(rebuild.Add(u, ir.item, ir.value).ok());
    }
  }
  auto recomputed = std::move(rebuild).Build();
  ASSERT_TRUE(recomputed.ok());
  EXPECT_EQ(recomputed->Fingerprint(), mapped->Fingerprint());

  // Per-user activity respects the floor and the catalog-fraction cap;
  // rating values stay on the configured scale.
  const int32_t cap = static_cast<int32_t>(
      spec.max_activity_frac * static_cast<double>(spec.num_items));
  for (UserId u = 0; u < mapped->num_users(); ++u) {
    const int32_t a = mapped->Activity(u);
    ASSERT_GE(a, spec.min_activity) << "user " << u;
    ASSERT_LE(a, std::max(cap, 1)) << "user " << u;
  }
  for (const Rating& r : mapped->ratings()) {
    ASSERT_GE(r.value, spec.rating_min);
    ASSERT_LE(r.value, spec.rating_max);
  }
}

TEST(SyntheticScaleTest, ZipfHeadDominatesTail) {
  const ScaleSyntheticSpec spec = SmallSpec();
  const std::string path = TestPath("scale_zipf.gdc");
  ASSERT_TRUE(GenerateSyntheticStream(spec, path).ok());
  auto ds = RatingDataset::LoadFileAuto(path, /*prefer_mmap=*/false);
  ASSERT_TRUE(ds.ok());
  ASSERT_TRUE(ds->EnsureResident().ok());

  // Item ids are popularity rank (0 most popular). The head 10% of the
  // catalog must hold well over its uniform share of ratings, and the
  // tail half clearly under half — the long-tail shape the scale
  // harness's popularity-bias measurements depend on.
  const int32_t head_cut = ds->num_items() / 10;
  const int32_t tail_cut = ds->num_items() / 2;
  int64_t head = 0;
  int64_t tail = 0;
  for (ItemId i = 0; i < ds->num_items(); ++i) {
    if (i < head_cut) head += ds->Popularity(i);
    if (i >= tail_cut) tail += ds->Popularity(i);
  }
  const double total = static_cast<double>(ds->num_ratings());
  EXPECT_GT(static_cast<double>(head) / total, 0.30);
  EXPECT_LT(static_cast<double>(tail) / total, 0.30);
  // Monotone-ish: the most popular item beats the median item.
  EXPECT_GT(ds->Popularity(0), ds->Popularity(tail_cut));
}

TEST(SyntheticScaleTest, InvalidSpecsAreRejected) {
  const std::string path = TestPath("scale_invalid.gdc");
  ScaleSyntheticSpec bad = SmallSpec();
  bad.num_users = 0;
  EXPECT_FALSE(GenerateSyntheticStream(bad, path).ok());
  bad = SmallSpec();
  bad.max_activity_frac = 0.9;  // rejection sampling would degenerate
  EXPECT_FALSE(GenerateSyntheticStream(bad, path).ok());
  bad = SmallSpec();
  bad.rating_step = 0.0;
  EXPECT_FALSE(GenerateSyntheticStream(bad, path).ok());
}

}  // namespace
}  // namespace ganc
