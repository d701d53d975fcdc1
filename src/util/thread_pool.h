// Fixed-size thread pool and a blocking ParallelFor helper.
//
// Used by the parallel phase of OSLG (users not in the sequential sample
// are assigned top-N sets independently) and by the blocked trainers,
// whose deterministic per-user-block SGD and merge pipeline runs on a
// pool's workers (see recommender/train_sweep.h).

#ifndef GANC_UTIL_THREAD_POOL_H_
#define GANC_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ganc {

/// Fixed-size worker pool. Tasks are arbitrary void() callables.
class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means hardware concurrency (min 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
};

/// Runs body(i) for i in [begin, end) across the pool, blocking until all
/// iterations complete. Iterations are distributed in contiguous chunks.
/// When `pool` is null or the range is tiny, runs serially.
void ParallelFor(ThreadPool* pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& body);

/// Chunked variant: splits [begin, end) into contiguous chunks (a few per
/// worker) and runs body(chunk_begin, chunk_end) for each, blocking until
/// all chunks complete. The chunk granularity lets callers hoist per-task
/// state out of the element loop — the batched scoring path creates one
/// ScoringContext per chunk so score buffers are reused across the chunk's
/// users. Serial fallback (null pool / single worker / tiny range) runs
/// one chunk covering the whole range.
void ParallelForChunks(ThreadPool* pool, size_t begin, size_t end,
                       const std::function<void(size_t, size_t)>& body);

}  // namespace ganc

#endif  // GANC_UTIL_THREAD_POOL_H_
