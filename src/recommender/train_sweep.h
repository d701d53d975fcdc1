// Deterministically parallel, out-of-core training sweeps.
//
// Every trainer decomposes its per-epoch work into fixed-size user
// blocks (kTrainUserBlock users, independent of thread count and
// memory budget). Blocks are grouped into sequential row windows under
// the dataset's train budget (RatingDataset::PlanRowWindows), and
// per-block results merge in ascending global block order. Because the
// block decomposition and the merge sequence are fixed, a fit is
// bit-identical across 1..N threads and across every residency budget;
// the budget only controls how many rows are paged in at once (mapped
// windows are released after use — see SweepRowWindows).
//
// Scheduling and memory: inside a window, blocks flow through an
// ordered pipeline. Pool workers claim blocks in ascending order; the
// worker that completes the block at the merge cursor merges it, then
// every already-completed block after it, while the other workers keep
// computing. No worker claims a block more than 2 x pool threads past
// the cursor, so at most that many blocks are computed but unmerged —
// with merge_fn freeing a block's scratch, live scratch is bounded by
// the pool size rather than by the window's block count. The serial
// path (no pool, or one thread) computes and merges each block in turn,
// so at most one block's scratch is live.
//
// Stochastic trainers derive one independent RNG stream per
// (seed, epoch, block) via MixSeed, so randomness never depends on
// execution order either.

#ifndef GANC_RECOMMENDER_TRAIN_SWEEP_H_
#define GANC_RECOMMENDER_TRAIN_SWEEP_H_

#include <cstdint>
#include <functional>

#include "data/dataset.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ganc {

/// Fixed user-block granularity of all blocked trainers. Small enough
/// that a block's touched-item scratch stays cache-friendly, large
/// enough that per-block overhead is negligible. Configs may override
/// (tests use tiny blocks to exercise multi-block merges on small
/// fixtures); the value changes the trained model, so it is part of a
/// trainer's algorithm definition, not a tuning knob.
constexpr int32_t kTrainUserBlock = 256;

/// Deterministic per-(seed, epoch, block) stream seed: two SplitMix64
/// finalizer rounds, so adjacent blocks get uncorrelated streams.
uint64_t MixSeed(uint64_t seed, uint64_t epoch, uint64_t block);

/// One fixed user block of a sweep.
struct UserBlock {
  int64_t index = 0;  ///< global block index (begin / block size)
  UserId begin = 0;
  UserId end = 0;
};

/// Sweeps all user blocks of `train` under its train_budget_bytes():
/// windows run sequentially; within a window `block_fn` runs for each
/// block on `pool` (serially when null) and `merge_fn` (when given) runs
/// once per block, one merge at a time, in ascending block order.
///
/// `block_fn` must only write state owned by its block (its users'
/// rows, its scratch slot); cross-block state belongs in `merge_fn`.
/// `merge_fn(b)` may run while `block_fn(b')` runs for b' > b, so it
/// must not write anything a `block_fn` reads: blocks read the
/// epoch-start snapshot, merges write the next epoch's copy.
///
/// On error no further block is claimed, no block at or after the
/// failing one is merged, and the status of the lowest-indexed failing
/// block (its `block_fn`, else its `merge_fn`) is returned.
Status SweepUserBlocks(const RatingDataset& train, int32_t user_block,
                       ThreadPool* pool,
                       const std::function<Status(const UserBlock&)>& block_fn,
                       const std::function<Status(const UserBlock&)>& merge_fn);

}  // namespace ganc

#endif  // GANC_RECOMMENDER_TRAIN_SWEEP_H_
