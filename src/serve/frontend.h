// Frontend: the one request engine behind every serve-protocol surface.
//
// `ganc_serve` stdin, each of its TCP connections, and `ganc_cli replay`
// all answer a request line by calling Frontend::Handle, so the three
// produce the same bytes for the same line — blank lines, parse errors
// and edge cases included. A Frontend owns exactly one topology:
//
//   * an in-process ShardRouter over all N shards (the default server
//     and the replay harness),
//   * a ShardRouter over one `--shard=k/N` partition (a shard child,
//     ShardRouter::ForPartition), or
//   * a multi-process ProcessRouter, which forwards TOPN/TOPNV/CONSUME
//     lines verbatim to the owning child (so a child-answered reply is
//     the child's own bytes) and fans control verbs out.
//
// Beside the verb switch it owns the per-line instruments
// (`serve_lines_total`, `serve_parse_errors_total`, `serve_parse_ns`,
// `serve_line_ns`, resolved from the topology's metrics registry),
// deterministic trace sampling (one arrival sequence per Frontend), and
// the session registry of an in-process topology. Handle is
// thread-safe.
//
// Topology-dependent replies: SHARDS names the topology; PUBLISH and
// VERSION answer `shards=N` / `versions=V0,V1,...` when there is more
// than one shard and `source=S` otherwise; STATS is a view over the
// merged metrics snapshot (FormatStats).

#ifndef GANC_SERVE_FRONTEND_H_
#define GANC_SERVE_FRONTEND_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "serve/process_router.h"
#include "serve/protocol.h"
#include "serve/session_overlay.h"
#include "serve/shard_router.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/trace.h"

namespace ganc {

/// The STATS reply: "OK requests=R cache_hits=C store_hits=S live=L
/// batches=B mean_fill=F", every field read from the exact `serve_*`
/// counters of `snap` (mean_fill = batched requests / batches).
std::string FormatStats(const MetricsSnapshot& snap);

class Frontend {
 public:
  explicit Frontend(std::unique_ptr<ShardRouter> router);
  explicit Frontend(std::unique_ptr<ProcessRouter> procs);

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Answers one request line (a trailing "\n" or "\r\n" is ignored).
  /// The reply has no trailing newline; framed replies carry embedded
  /// ones. Sets *quit for QUIT.
  std::string Handle(std::string_view line, bool* quit);

  /// Publishes `path` on every shard (the PUBLISH verb and --watch);
  /// `max_version` receives the highest resulting snapshot version.
  Status Publish(const std::string& path, uint64_t* max_version);

  /// The merged metrics snapshot of the whole topology: the process-
  /// global registry, every distinct in-process shard registry, and
  /// every child process scraped over METRICSNAP. Serves METRICS,
  /// METRICSNAP, STATS and the shutdown report.
  Result<MetricsSnapshot> GatherMetrics();

  /// "3 in-process shard(s)", "shard 1/3" or "3 shards, multiprocess".
  std::string Describe() const;

  size_t num_sessions() const { return sessions_.num_sessions(); }

  /// The topology this Frontend owns; exactly one is non-null.
  ShardRouter* router() const { return router_.get(); }
  ProcessRouter* procs() const { return procs_.get(); }

  /// True for a `--shard=k/N` child: a router over one partition of N.
  bool partition() const {
    return router_ != nullptr &&
           router_->shard(0).spec().num_shards != router_->num_shards();
  }

 private:
  struct Instruments {
    Counter* lines;
    Counter* parse_errors;
    LatencyHistogram* parse_ns;
    LatencyHistogram* line_ns;
  };
  static Instruments ResolveInstruments(MetricsRegistry& registry);

  std::string Dispatch(std::string_view line, RequestTrace* trace,
                       bool* quit);
  std::string TopN(const ServeRequest& req, RequestTrace* trace);
  std::string Consume(const ServeRequest& req);
  std::string Traces(int count);
  size_t num_shards() const;

  std::unique_ptr<ShardRouter> router_;
  std::unique_ptr<ProcessRouter> procs_;
  SessionRegistry sessions_;
  Instruments instruments_;
  std::atomic<uint64_t> seq_{0};
};

}  // namespace ganc

#endif  // GANC_SERVE_FRONTEND_H_
