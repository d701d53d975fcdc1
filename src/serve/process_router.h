// ProcessRouter: the multi-process serving tier.
//
// Forks N `ganc_serve --shard=k/N` children and drives each over its
// stdin/stdout pipe with the same newline protocol external clients
// speak (serve/protocol.h) — no second RPC layer. A per-child mutex
// serializes one request/response round trip; different shards proceed
// in parallel. Users route by the persisted ShardForUser hash, ids
// outside the train set's user range go to shard 0, exactly as the
// in-process ShardRouter routes them, so a child answers every request
// byte-identically to an in-process shard.
//
// Every child runs the kernel variant the spawning process resolved
// (ActiveKernelVariant, handed down as GANC_KERNEL in the child's
// environment), so one deployment never mixes scoring variants; each
// child reports its variant as `kernel=<name>` on its READY line.
//
// Stop() closes each child's stdin (clean drain, shutdown report) and
// escalates to SIGTERM and then SIGKILL only for a child that does not
// exit; no child outlives the router.

#ifndef GANC_SERVE_PROCESS_ROUTER_H_
#define GANC_SERVE_PROCESS_ROUTER_H_

#include <sys/types.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "util/metrics.h"
#include "util/status.h"

namespace ganc {

class ProcessRouter {
 public:
  ~ProcessRouter() { Stop(); }

  ProcessRouter(const ProcessRouter&) = delete;
  ProcessRouter& operator=(const ProcessRouter&) = delete;

  /// Forks `num_shards` (>= 2) children running `executable` with
  /// `base_args` plus `--shard=k/N`, and blocks until every child has
  /// printed its READY line. `num_users` bounds in-range routing.
  static Result<std::unique_ptr<ProcessRouter>> Spawn(
      const std::string& executable, const std::vector<std::string>& base_args,
      size_t num_shards, int32_t num_users);

  size_t num_shards() const { return children_.size(); }
  int32_t num_users() const { return num_users_; }
  /// Child k's READY line ("READY shard=k/N version=V kernel=K source=S").
  const std::string& ready_info(size_t k) const { return ready_[k]; }

  size_t IndexFor(UserId user) const;

  /// One request/response round trip with shard `k`.
  Result<std::string> Forward(size_t k, const std::string& line);

  /// One round trip for a framed verb (METRICS/TRACE): the
  /// "OK <what> lines=<N>" header is checked and its N payload lines are
  /// returned, each without its newline.
  Result<std::vector<std::string>> ForwardFramed(size_t k,
                                                 const std::string& line);

  /// Publishes `path` on every child in index order; `max_version`
  /// receives the highest resulting version. The first failing child's
  /// error ("publish failed on shard k/N: <reason>") is returned.
  Status Publish(const std::string& path, uint64_t* max_version);

  /// Each child's serving snapshot version, in shard order.
  Result<std::vector<uint64_t>> Versions();

  /// Scrapes every child over METRICSNAP and merges it into `snap`.
  Status MergeMetrics(MetricsSnapshot* snap);

  /// Stops every child: stdin EOF first, then SIGTERM, then SIGKILL.
  void Stop();

 private:
  struct Child {
    pid_t pid = -1;
    FILE* in = nullptr;   ///< child stdin (request lines go here)
    FILE* out = nullptr;  ///< child stdout (response lines come from here)
    std::mutex mu;
  };

  ProcessRouter() = default;

  /// Writes `line` to child `k` and reads its first reply line; the
  /// caller holds the child's mutex.
  Result<std::string> RoundTripLocked(Child& child, size_t k,
                                      const std::string& line);
  static Result<std::string> ReadLineLocked(Child& child, size_t k);

  std::vector<std::unique_ptr<Child>> children_;
  std::vector<std::string> ready_;
  int32_t num_users_ = 0;
  bool stopped_ = false;
};

}  // namespace ganc

#endif  // GANC_SERVE_PROCESS_ROUTER_H_
