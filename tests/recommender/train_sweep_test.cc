// SweepUserBlocks scheduling contract: every block is computed and
// merged exactly once, merges run in strictly ascending block order and
// only after their block is computed, at most 2 x pool threads blocks
// are computed but unmerged at any time (1 when serial), and an error
// returns the lowest failing block's status without merging any block
// at or after it. Exercised with tiny blocks, both in one row window and
// over several, serially and on 1-, 2- and 8-thread pools.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/synthetic.h"
#include "recommender/train_sweep.h"
#include "util/thread_pool.h"

namespace ganc {
namespace {

constexpr int32_t kBlock = 4;
constexpr int64_t kSmallBudget = 2048;  // ~5 blocks per window
// Failing blocks of the error tests. kLow sleeps longest, so under
// threads kHigh usually fails first in wall time.
constexpr int64_t kLow = 21;
constexpr int64_t kHigh = 23;

RatingDataset MakeData(int64_t budget) {
  SyntheticSpec spec = TinySpec();
  spec.num_users = 300;
  spec.num_items = 120;
  spec.mean_activity = 12.0;
  auto ds = GenerateSynthetic(spec);
  EXPECT_TRUE(ds.ok());
  ds->set_train_budget_bytes(budget);
  return std::move(ds).value();
}

int64_t NumBlocks(const RatingDataset& train) {
  return (static_cast<int64_t>(train.num_users()) + kBlock - 1) / kBlock;
}

// Runs `check(train, pool, threads)` for one window (budget 0) and for
// several, with no pool (threads 0) and with 1-, 2- and 8-thread pools.
void ForEachSetup(
    const std::function<void(const RatingDataset&, ThreadPool*, int)>& check) {
  for (const int64_t budget : {int64_t{0}, kSmallBudget}) {
    const RatingDataset train = MakeData(budget);
    for (const int threads : {0, 1, 2, 8}) {
      SCOPED_TRACE("budget " + std::to_string(budget) + ", threads " +
                   std::to_string(threads));
      std::unique_ptr<ThreadPool> pool =
          threads == 0 ? nullptr
                       : std::make_unique<ThreadPool>(
                             static_cast<size_t>(threads));
      check(train, pool.get(), threads);
    }
  }
}

// Records the schedule a sweep actually ran. Blocks do uneven work, so
// under threads they complete out of claim order, and every 16th block
// stalls long enough for the other workers to run up to the in-flight
// bound behind it.
struct Trace {
  explicit Trace(int64_t num_blocks)
      : computes(static_cast<size_t>(num_blocks)) {}

  std::vector<std::atomic<int>> computes;  // completed block_fn calls
  std::vector<int64_t> merged;  // merges are serialized by contract
  bool merged_uncomputed = false;
  std::atomic<int> unmerged{0};
  std::atomic<int> max_unmerged{0};

  Status Block(const UserBlock& b, Status result = Status::OK()) {
    std::this_thread::sleep_for(std::chrono::microseconds(
        b.index % 16 == 0 ? 3000 : 50 * (b.index * 7 % 5)));
    computes[static_cast<size_t>(b.index)].fetch_add(1);
    const int now = unmerged.fetch_add(1) + 1;
    int seen = max_unmerged.load();
    while (now > seen && !max_unmerged.compare_exchange_weak(seen, now)) {
    }
    return result;
  }

  Status Merge(const UserBlock& b, Status result = Status::OK()) {
    unmerged.fetch_sub(1);
    if (computes[static_cast<size_t>(b.index)].load() == 0) {
      merged_uncomputed = true;
    }
    merged.push_back(b.index);
    return result;
  }
};

TEST(TrainSweepTest, SmallBudgetSpansSeveralWindows) {
  const RatingDataset train = MakeData(kSmallBudget);
  EXPECT_GE(train.PlanRowWindows(kSmallBudget, kBlock).size(), 3u);
}

TEST(TrainSweepTest, MergesEveryBlockOnceInAscendingOrder) {
  ForEachSetup([](const RatingDataset& train, ThreadPool* pool, int) {
    const int64_t n = NumBlocks(train);
    Trace trace(n);
    const Status s = SweepUserBlocks(
        train, kBlock, pool,
        [&](const UserBlock& b) { return trace.Block(b); },
        [&](const UserBlock& b) { return trace.Merge(b); });
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_EQ(trace.merged.size(), static_cast<size_t>(n));
    for (int64_t b = 0; b < n; ++b) {
      EXPECT_EQ(trace.merged[static_cast<size_t>(b)], b);
      EXPECT_EQ(trace.computes[static_cast<size_t>(b)].load(), 1)
          << "block " << b;
    }
    EXPECT_FALSE(trace.merged_uncomputed);
  });
}

TEST(TrainSweepTest, ComputedButUnmergedBlocksStayBounded) {
  ForEachSetup([](const RatingDataset& train, ThreadPool* pool, int threads) {
    Trace trace(NumBlocks(train));
    ASSERT_TRUE(SweepUserBlocks(
                    train, kBlock, pool,
                    [&](const UserBlock& b) { return trace.Block(b); },
                    [&](const UserBlock& b) { return trace.Merge(b); })
                    .ok());
    EXPECT_LE(trace.max_unmerged.load(), threads <= 1 ? 1 : 2 * threads);
    EXPECT_EQ(trace.unmerged.load(), 0);
  });
}

TEST(TrainSweepTest, BlockErrorReturnsLowestFailingBlock) {
  ForEachSetup([](const RatingDataset& train, ThreadPool* pool, int threads) {
    const int64_t n = NumBlocks(train);
    ASSERT_GT(n, kLow + 2 * 8);
    Trace trace(n);
    const Status s = SweepUserBlocks(
        train, kBlock, pool,
        [&](const UserBlock& b) {
          if (b.index == kLow) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            return trace.Block(b, Status::Internal("block 21"));
          }
          if (b.index == kHigh) {
            return trace.Block(b, Status::Internal("block 23"));
          }
          return trace.Block(b);
        },
        [&](const UserBlock& b) { return trace.Merge(b); });
    EXPECT_EQ(s.ToString(), Status::Internal("block 21").ToString());
    ASSERT_LE(trace.merged.size(), static_cast<size_t>(kLow));
    for (size_t k = 0; k < trace.merged.size(); ++k) {
      EXPECT_EQ(trace.merged[k], static_cast<int64_t>(k));
    }
    // Claiming stopped: nothing beyond the in-flight bound past the
    // failure was computed.
    for (int64_t b = kLow + 2 * std::max(threads, 1); b < n; ++b) {
      EXPECT_EQ(trace.computes[static_cast<size_t>(b)].load(), 0)
          << "block " << b;
    }
  });
}

TEST(TrainSweepTest, MergeErrorStopsLaterMerges) {
  ForEachSetup([](const RatingDataset& train, ThreadPool* pool, int) {
    Trace trace(NumBlocks(train));
    const Status s = SweepUserBlocks(
        train, kBlock, pool,
        [&](const UserBlock& b) { return trace.Block(b); },
        [&](const UserBlock& b) {
          return trace.Merge(b, b.index == kLow
                                    ? Status::Internal("merge 21")
                                    : Status::OK());
        });
    EXPECT_EQ(s.ToString(), Status::Internal("merge 21").ToString());
    ASSERT_EQ(trace.merged.size(), static_cast<size_t>(kLow + 1));
    EXPECT_EQ(trace.merged.back(), kLow);
  });
}

}  // namespace
}  // namespace ganc
