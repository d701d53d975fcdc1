#include "util/top_k.h"

#include <gtest/gtest.h>

namespace ganc {
namespace {

TEST(SelectTopKTest, PicksHighestScores) {
  std::vector<ScoredItem> items{{0, 0.1}, {1, 0.9}, {2, 0.5}, {3, 0.7}};
  const auto top = SelectTopK(items, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].item, 1);
  EXPECT_EQ(top[1].item, 3);
}

TEST(SelectTopKTest, BestFirstOrder) {
  std::vector<ScoredItem> items{{0, 1.0}, {1, 3.0}, {2, 2.0}};
  const auto top = SelectTopK(items, 3);
  EXPECT_EQ(top[0].item, 1);
  EXPECT_EQ(top[1].item, 2);
  EXPECT_EQ(top[2].item, 0);
}

TEST(SelectTopKTest, TieBreaksBySmallerItemId) {
  std::vector<ScoredItem> items{{5, 0.5}, {2, 0.5}, {9, 0.5}, {1, 0.4}};
  const auto top = SelectTopK(items, 2);
  EXPECT_EQ(top[0].item, 2);
  EXPECT_EQ(top[1].item, 5);
}

TEST(SelectTopKTest, KLargerThanInput) {
  std::vector<ScoredItem> items{{0, 1.0}, {1, 2.0}};
  const auto top = SelectTopK(items, 10);
  EXPECT_EQ(top.size(), 2u);
}

TEST(SelectTopKTest, KZeroEmpty) {
  std::vector<ScoredItem> items{{0, 1.0}};
  EXPECT_TRUE(SelectTopK(items, 0).empty());
  EXPECT_TRUE(SelectTopK({}, 5).empty());
}

TEST(SelectTopKTest, NegativeScores) {
  std::vector<ScoredItem> items{{0, -3.0}, {1, -1.0}, {2, -2.0}};
  const auto top = SelectTopK(items, 2);
  EXPECT_EQ(top[0].item, 1);
  EXPECT_EQ(top[1].item, 2);
}

TEST(SelectTopKFromScoresTest, RestrictsToCandidates) {
  const std::vector<double> scores{0.9, 0.1, 0.8, 0.7};
  const std::vector<int32_t> candidates{1, 2, 3};  // item 0 excluded
  const auto top = SelectTopKFromScores(scores, candidates, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].item, 2);
  EXPECT_EQ(top[1].item, 3);
}

TEST(SelectTopKIntoTest, MatchesAllocatingKernelIncludingTies) {
  // Heavy ties: only 13 distinct scores over 500 items.
  std::vector<double> scores(500);
  std::vector<int32_t> candidates;
  for (int32_t i = 0; i < 500; ++i) {
    scores[static_cast<size_t>(i)] = static_cast<double>((i * 31) % 13);
    if (i % 3 != 0) candidates.push_back(i);
  }
  for (size_t k : {0u, 1u, 10u, 400u, 600u}) {
    const auto legacy = SelectTopKFromScores(scores, candidates, k);
    std::vector<ScoredItem> batched;
    SelectTopKFromScoresInto(scores, candidates, k, &batched);
    ASSERT_EQ(legacy.size(), batched.size()) << "k=" << k;
    for (size_t i = 0; i < legacy.size(); ++i) {
      EXPECT_EQ(legacy[i].item, batched[i].item) << "k=" << k;
      EXPECT_EQ(legacy[i].score, batched[i].score) << "k=" << k;
    }
  }
}

TEST(SelectTopKIntoTest, ReusesOutputCapacity) {
  const std::vector<double> scores{0.3, 0.9, 0.1, 0.5};
  const std::vector<int32_t> candidates{0, 1, 2, 3};
  std::vector<ScoredItem> out;
  SelectTopKFromScoresInto(scores, candidates, 3, &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].item, 1);
  const ScoredItem* data = out.data();
  SelectTopKFromScoresInto(scores, candidates, 2, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.data(), data);  // no reallocation on a warm buffer
  EXPECT_EQ(out[0].item, 1);
  EXPECT_EQ(out[1].item, 3);
}

TEST(SelectTopKByIntoTest, ScoresOnTheFly) {
  const std::vector<int32_t> candidates{4, 7, 2, 9};
  std::vector<ScoredItem> out;
  SelectTopKByInto(
      candidates, 2, [](int32_t item) { return -static_cast<double>(item); },
      &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].item, 2);  // highest score = smallest id under negation
  EXPECT_EQ(out[1].item, 4);
}

TEST(SelectTopKDenseTest, MatchesCandidateKernelWithSkips) {
  std::vector<double> scores(500);
  std::vector<int32_t> candidates;
  std::vector<uint8_t> skip(500, 0);
  for (int32_t i = 0; i < 500; ++i) {
    scores[static_cast<size_t>(i)] = static_cast<double>((i * 31) % 13);
    if (i % 3 == 0) {
      skip[static_cast<size_t>(i)] = 1;
    } else {
      candidates.push_back(i);
    }
  }
  for (const size_t k : {0u, 1u, 10u, 200u, 400u}) {
    const auto expected = SelectTopKFromScores(scores, candidates, k);
    std::vector<ScoredItem> dense;
    SelectTopKDenseInto(
        scores, k,
        [&](int32_t item) { return skip[static_cast<size_t>(item)] != 0; },
        &dense);
    ASSERT_EQ(expected.size(), dense.size()) << "k=" << k;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i].item, dense[i].item) << "k=" << k;
      EXPECT_EQ(expected[i].score, dense[i].score) << "k=" << k;
    }
  }
}

TEST(SelectTopKDenseTest, SkipEverythingYieldsEmpty) {
  const std::vector<double> scores{1.0, 2.0, 3.0};
  std::vector<ScoredItem> out{{9, 9.0}};  // stale content must be cleared
  SelectTopKDenseInto(scores, 2, [](int32_t) { return true; }, &out);
  EXPECT_TRUE(out.empty());
}

TEST(SelectTopKTest, ScanAndPartialSelectRegimesAgree) {
  // 4000 candidates straddle the kernel's regime switch: k = 10 uses the
  // threshold scan, k = 600 materializes + nth_element. Both must yield
  // the same unique ScoredBetter order as a full sort.
  std::vector<ScoredItem> items;
  for (int32_t i = 0; i < 4000; ++i) {
    items.push_back({i, static_cast<double>((i * 7919) % 97)});
  }
  auto sorted = items;
  std::sort(sorted.begin(), sorted.end(), ScoredBetter);
  for (const size_t k : {10u, 129u, 600u}) {
    const auto top = SelectTopK(items, k);
    ASSERT_EQ(top.size(), k);
    for (size_t i = 0; i < k; ++i) {
      ASSERT_EQ(top[i].item, sorted[i].item) << "k=" << k << " rank " << i;
    }
  }
}

TEST(SelectTopKTest, ScanBlocksAgreeWithFullSortOnUnorderedTies) {
  // The scan rejects whole blocks of 8 against the worst kept score; ties
  // with it and equal scores arriving in descending id order must still
  // resolve by item id, at every length around the block size.
  for (int32_t n = 9; n <= 75; ++n) {
    std::vector<ScoredItem> items;
    for (int32_t i = 0; i < n; ++i) {
      const int32_t id = n - 1 - i;
      items.push_back({id, static_cast<double>((i * 5) % 4)});
    }
    auto sorted = items;
    std::sort(sorted.begin(), sorted.end(), ScoredBetter);
    for (const size_t k : {1u, 2u, 5u}) {
      if (!UseScanSelect(k, items.size())) continue;
      const auto top = SelectTopK(items, k);
      ASSERT_EQ(top.size(), k);
      for (size_t r = 0; r < k; ++r) {
        ASSERT_EQ(top[r].item, sorted[r].item)
            << "n=" << n << " k=" << k << " rank " << r;
      }
    }
  }
}

TEST(SelectTopKTest, LargeInputAgreesWithFullSort) {
  std::vector<ScoredItem> items;
  for (int32_t i = 0; i < 1000; ++i) {
    items.push_back({i, static_cast<double>((i * 7919) % 1000)});
  }
  const auto top = SelectTopK(items, 25);
  auto sorted = items;
  std::sort(sorted.begin(), sorted.end(), ScoredBetter);
  ASSERT_EQ(top.size(), 25u);
  for (size_t k = 0; k < 25; ++k) EXPECT_EQ(top[k].item, sorted[k].item);
}

}  // namespace
}  // namespace ganc
