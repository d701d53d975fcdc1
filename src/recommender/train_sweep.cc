#include "recommender/train_sweep.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <utility>
#include <vector>

namespace ganc {

namespace {
uint64_t SplitMix64Finalize(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

using BlockFn = std::function<Status(const UserBlock&)>;

// Runs blocks [b0, b1) of one window through an ordered compute/merge
// pipeline on `threads` pool workers. Workers claim blocks in ascending
// order, at most `2 * threads` past the merge cursor; whichever worker
// completes the block at the cursor merges it and every completed block
// after it, while the others keep computing.
template <typename BlockAt>
Status PipelineWindow(int64_t b0, int64_t b1, ThreadPool* pool,
                      const BlockAt& block_at, const BlockFn& block_fn,
                      const BlockFn& merge_fn) {
  const int64_t threads = static_cast<int64_t>(pool->num_threads());
  const int64_t max_ahead = 2 * threads;
  std::mutex mu;
  std::condition_variable slot_free;
  int64_t next = b0;    // next block to claim
  int64_t cursor = b0;  // next block to merge
  int64_t failed = b1;  // lowest failing block; b1 while none has
  Status error;
  bool merging = false;
  std::vector<char> done(static_cast<size_t>(b1 - b0), 0);

  const auto worker = [&] {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      slot_free.wait(lock, [&] {
        return next >= b1 || failed < b1 || next < cursor + max_ahead;
      });
      if (next >= b1 || failed < b1) return;
      const int64_t b = next++;
      lock.unlock();
      Status s = block_fn(block_at(b));
      lock.lock();
      done[static_cast<size_t>(b - b0)] = 1;
      if (!s.ok() && b < failed) {
        failed = b;
        error = std::move(s);
        slot_free.notify_all();
      }
      if (merging) continue;  // the active merger picks this block up
      merging = true;
      while (cursor < failed && done[static_cast<size_t>(cursor - b0)]) {
        const int64_t m = cursor;
        lock.unlock();
        Status ms = merge_fn ? merge_fn(block_at(m)) : Status::OK();
        lock.lock();
        if (ms.ok()) {
          ++cursor;
        } else {
          failed = m;
          error = std::move(ms);
        }
        slot_free.notify_all();
      }
      merging = false;
    }
  };
  const int64_t workers = std::min(threads, b1 - b0);
  for (int64_t t = 0; t < workers; ++t) pool->Submit(worker);
  pool->Wait();
  return error;
}
}  // namespace

uint64_t MixSeed(uint64_t seed, uint64_t epoch, uint64_t block) {
  return SplitMix64Finalize(SplitMix64Finalize(seed ^ (epoch * 0xA24BAED4963EE407ULL)) + block);
}

Status SweepUserBlocks(const RatingDataset& train, int32_t user_block,
                       ThreadPool* pool, const BlockFn& block_fn,
                       const BlockFn& merge_fn) {
  const int32_t block = std::max<int32_t>(user_block, 1);
  return train.SweepRowWindows(
      train.train_budget_bytes(), block, [&](const RowWindow& w) -> Status {
        // Window bounds are block-aligned by construction, so global
        // block indexes are recoverable from the user range alone.
        const int64_t b0 = static_cast<int64_t>(w.begin) / block;
        const int64_t b1 =
            (static_cast<int64_t>(w.end) + block - 1) / block;
        const auto block_at = [&](int64_t b) {
          UserBlock ub;
          ub.index = b;
          ub.begin = static_cast<UserId>(b * block);
          ub.end = static_cast<UserId>(
              std::min<int64_t>((b + 1) * static_cast<int64_t>(block),
                                static_cast<int64_t>(w.end)));
          return ub;
        };
        if (pool != nullptr && pool->num_threads() > 1) {
          return PipelineWindow(b0, b1, pool, block_at, block_fn, merge_fn);
        }
        for (int64_t b = b0; b < b1; ++b) {
          GANC_RETURN_NOT_OK(block_fn(block_at(b)));
          if (merge_fn) GANC_RETURN_NOT_OK(merge_fn(block_at(b)));
        }
        return Status::OK();
      });
}

}  // namespace ganc
