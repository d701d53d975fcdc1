// ganc_serve: the online serving frontend.
//
// Loads a trained artifact into the sharded serving tier
// (src/serve/shard_router.h) and answers requests over the
// newline-delimited protocol (src/serve/protocol.h, grammar in
// docs/SERVING.md) on stdin/stdout and, with --port, on a POSIX TCP
// socket (one thread per connection; all connections share the router,
// its per-shard micro-batchers, result caches, and the session
// registry). Dependency free: nothing beyond the C++ standard library
// and POSIX.
//
//   ganc_cli cache-dataset --dataset=tiny --out=tiny.gdc
//   ganc_cli train --dataset-cache=tiny.gdc --arec=psvd10 --seed=7 \
//            --save-model=psvd10.gam
//   ganc_serve --dataset-cache=tiny.gdc --seed=7 --model=psvd10.gam \
//              --default-n=5 [--port=0] [--store=head.gts] [--shards=3]
//
// Topologies:
//   * default            one in-process shard (the PR 5 shape).
//   * --shards=N         N in-process ServiceShards behind a ShardRouter;
//                        users are partitioned by the stable shard hash.
//   * --shards=N --multiprocess
//                        forks N `ganc_serve --shard=k/N` children of
//                        this same binary and multiplexes stdin/TCP
//                        traffic to them over pipes speaking this very
//                        protocol (each child prints READY on stdout
//                        before the router starts serving).
//   * --shard=k/N        child mode: serve only partition k (requests
//                        for users owned by other shards are rejected).
//
// Zero-downtime swap: the PUBLISH verb (and --watch, which polls the
// artifact path for stable changes) loads a replacement artifact in the
// background, validates its dataset fingerprint, and atomically flips
// the per-shard snapshot — in-flight requests finish on the old
// snapshot, the version-keyed result cache invalidates implicitly, no
// request is dropped.
//
// The process serves stdin until EOF or a QUIT line, then dumps the
// request/hit-rate/latency counters to stderr. `--port=0` binds an
// ephemeral port; the assigned port is announced on stdout as
// "LISTENING port=<p>" before request processing starts (the subprocess
// tests key on this). `--daemon` detaches the lifetime from stdin for
// TCP-only deployments (systemd/containers close stdin at launch):
// the listener serves until SIGINT/SIGTERM, which also shut down
// cleanly with the stats dump. Stop signals are delivered through a
// self-pipe so a thread blocked in accept(2) exits promptly.

#include <arpa/inet.h>
#include <csignal>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "data/loader.h"
#include "data/split.h"
#include "serve/protocol.h"
#include "serve/recommendation_service.h"
#include "serve/service_shard.h"
#include "serve/session_overlay.h"
#include "serve/shard_router.h"
#include "serve/snapshot_swap.h"
#include "serve/topn_store.h"
#include "util/flags.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

using namespace ganc;

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: ganc_serve --model=PATH|--pipeline=PATH [flags]\n"
      "\n"
      "snapshot (same data flags as ganc_cli, split must match training):\n"
      "    --dataset-cache=PATH | --ratings-file=PATH | --dataset=NAME\n"
      "    [--kappa=0.5] [--seed=42]\n"
      "    --model=PATH | --pipeline=PATH   (artifact to serve)\n"
      "    [--store=PATH]     (precomputed top-N store artifact; sharded\n"
      "                        servers attach each shard's segment)\n"
      "    [--factor-precision=fp64|fp32|int8]  (compact the snapshot's\n"
      "                        factor tables after load; fp64 = keep the\n"
      "                        artifact's own precision)\n"
      "    [--mmap=true]      (open v3 dataset-cache/model/store\n"
      "                        artifacts as zero-copy file mappings;\n"
      "                        --mmap=false forces eager stream loads.\n"
      "                        Mapped serving wants --kappa=1, which\n"
      "                        skips the materializing split rebuild)\n"
      "\n"
      "serving:\n"
      "    [--default-n=10]   (list length when a request omits n=)\n"
      "    [--workers=1] [--batch-wait-us=200] [--cache-capacity=4096]\n"
      "    [--unbatched]      (one-request-at-a-time baseline path)\n"
      "    [--port=N]         (also serve TCP; 0 = ephemeral, the chosen\n"
      "                        port is announced as LISTENING port=N)\n"
      "    [--daemon]         (with --port: stdin EOF does not stop the\n"
      "                        server; run until SIGINT/SIGTERM)\n"
      "\n"
      "sharding / snapshot swap:\n"
      "    [--shards=N]       (partition users across N in-process shards)\n"
      "    [--multiprocess]   (with --shards: fork N --shard=k/N children\n"
      "                        and route to them over pipes)\n"
      "    [--shard=k/N]      (child mode: serve partition k of N only)\n"
      "    [--watch]          (poll the artifact path and PUBLISH stable\n"
      "                        changes automatically)\n"
      "    [--watch-interval-ms=1000]\n"
      "\n"
      "protocol (one request per line; see docs/SERVING.md):\n"
      "    TOPN user=3 [n=10] [session=abc] [exclude=1,2]\n"
      "    TOPNV user=3 ...   (response carries the snapshot version)\n"
      "    CONSUME session=abc user=3 items=4,5\n"
      "    PUBLISH path=new.gam | VERSION | SHARDS\n"
      "    STATS | METRICS | METRICSNAP | TRACE [n=16] | PING | QUIT\n");
}

// SIGINT/SIGTERM request a clean shutdown (stats still dumped) — the
// stop path for TCP-only deployments whose stdin is closed at launch.
// The handler also writes to a self-pipe so poll()-based waits (the
// accept loop, the daemon wait) wake immediately instead of riding out
// a blocking syscall; the pipe is written once and never drained, so
// every poller sees it readable forever after.
volatile std::sig_atomic_t g_stop_requested = 0;
int g_stop_pipe[2] = {-1, -1};

void HandleStopSignal(int /*sig*/) {
  g_stop_requested = 1;
  if (g_stop_pipe[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = write(g_stop_pipe[1], &byte, 1);
  }
}

// Installs the stop handler *without* SA_RESTART: a getline() blocked
// on stdin must return EINTR on SIGTERM rather than resume, or a
// daemonless server could only be stopped by closing its stdin.
void InstallStopHandlers() {
  if (pipe(g_stop_pipe) != 0) {
    g_stop_pipe[0] = g_stop_pipe[1] = -1;
  }
  struct sigaction sa{};
  sa.sa_handler = HandleStopSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  std::signal(SIGPIPE, SIG_IGN);  // a dead shard child must not kill us
}

// Writes the whole buffer, riding out short writes.
bool WriteAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    const ssize_t n = write(fd, data, size);
    if (n <= 0) return false;
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Frontend observability: per-line protocol instruments and the sampled
// request-trace ring. One seq number per incoming line, shared by every
// input (stdin and all TCP connections), drives deterministic sampling.

struct FrontendInstruments {
  Counter* lines;
  Counter* parse_errors;
  LatencyHistogram* parse_ns;
  LatencyHistogram* line_ns;
};

const FrontendInstruments& Frontend() {
  static const FrontendInstruments fi = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    FrontendInstruments f;
    f.lines = r.GetCounter("serve_lines_total",
                           "Request lines received by the frontend.");
    f.parse_errors = r.GetCounter("serve_parse_errors_total",
                                  "Request lines rejected by the parser.");
    f.parse_ns = r.GetHistogram("serve_parse_ns",
                                "Protocol parse latency, nanoseconds.");
    f.line_ns = r.GetHistogram(
        "serve_line_ns",
        "Full line handling latency (parse through response formatting), "
        "nanoseconds.");
    return f;
  }();
  return fi;
}

std::atomic<uint64_t> g_request_seq{0};

// Joins newline-terminated `payload` under a "OK <what> lines=<N>"
// framing header. The returned response carries embedded newlines but
// no trailing one — both output paths append exactly one '\n'.
std::string FramedResponse(std::string_view what, const std::string& payload) {
  size_t lines = 0;
  for (const char c : payload) lines += c == '\n';
  std::string out = FormatFramedHeader(what, lines);
  if (!payload.empty()) {
    out.push_back('\n');
    out.append(payload.data(), payload.size() - 1);  // drop trailing '\n'
  }
  return out;
}

// Extracts N from a framed "OK <what> lines=<N>" header.
bool ParseFramedLineCount(const std::string& header, uint64_t* out) {
  const size_t pos = header.rfind(" lines=");
  if (pos == std::string::npos) return false;
  const size_t start = pos + 7;
  size_t end = start;
  uint64_t value = 0;
  while (end < header.size() && header[end] >= '0' && header[end] <= '9') {
    value = value * 10 + static_cast<uint64_t>(header[end] - '0');
    ++end;
  }
  if (end == start || end != header.size()) return false;
  *out = value;
  return true;
}

// ---------------------------------------------------------------------------
// Multi-process router: N forked `ganc_serve --shard=k/N` children of
// this binary, each driven over its stdin/stdout pipe with the same
// newline protocol external clients speak. A per-child mutex serializes
// the request/response round-trip; different shards proceed in
// parallel.

struct ChildProc {
  pid_t pid = -1;
  int in_fd = -1;       ///< child stdin (we write request lines)
  FILE* out = nullptr;  ///< child stdout (we read response lines)
  std::mutex mu;
};

class ProcessRouter {
 public:
  ~ProcessRouter() { Stop(); }

  /// Forks `num_shards` children running `base_args` plus
  /// `--shard=k/N`, and blocks until every child has printed its READY
  /// line. `num_users` bounds in-range routing (out-of-range ids fall
  /// back to shard 0, like the in-process router).
  static Result<std::unique_ptr<ProcessRouter>> Spawn(
      const std::vector<std::string>& base_args, size_t num_shards,
      int32_t num_users) {
    auto router = std::unique_ptr<ProcessRouter>(new ProcessRouter());
    router->num_users_ = num_users;
    for (size_t k = 0; k < num_shards; ++k) {
      // O_CLOEXEC on every parent-side end: a later child must not
      // inherit (and hold open) an earlier child's pipes, or EOF-based
      // shutdown would deadlock.
      int req[2], resp[2];
      if (pipe2(req, O_CLOEXEC) != 0 || pipe2(resp, O_CLOEXEC) != 0) {
        return Status::IOError("pipe2() failed");
      }
      const std::string shard_flag = "--shard=" + std::to_string(k) + "/" +
                                     std::to_string(num_shards);
      const pid_t pid = fork();
      if (pid < 0) return Status::IOError("fork() failed");
      if (pid == 0) {
        // Child: pipes become stdio (dup2 clears CLOEXEC), stderr is
        // inherited so shard logs land in the router's stderr stream.
        dup2(req[0], STDIN_FILENO);
        dup2(resp[1], STDOUT_FILENO);
        std::vector<char*> argv;
        std::string argv0 = "/proc/self/exe";
        argv.push_back(argv0.data());
        std::vector<std::string> args = base_args;
        args.push_back(shard_flag);
        for (std::string& a : args) argv.push_back(a.data());
        argv.push_back(nullptr);
        execv("/proc/self/exe", argv.data());
        std::fprintf(stderr, "execv failed: %s\n", strerror(errno));
        _exit(127);
      }
      close(req[0]);
      close(resp[1]);
      auto child = std::make_unique<ChildProc>();
      child->pid = pid;
      child->in_fd = req[1];
      child->out = fdopen(resp[0], "r");
      if (child->out == nullptr) {
        close(resp[0]);
        return Status::IOError("fdopen() failed");
      }
      router->children_.push_back(std::move(child));
      // Block until the shard announces READY — the router must never
      // accept traffic a child cannot serve yet.
      Result<std::string> ready = router->ReadLine(k);
      if (!ready.ok() || ready->rfind("READY ", 0) != 0) {
        return Status::IOError(
            "shard " + std::to_string(k) + "/" + std::to_string(num_shards) +
            " failed to start" +
            (ready.ok() ? " (got '" + *ready + "')" : ""));
      }
      router->ready_.push_back(std::move(ready).value());
    }
    return router;
  }

  size_t num_shards() const { return children_.size(); }
  int32_t num_users() const { return num_users_; }
  const std::string& ready_info(size_t k) const { return ready_[k]; }

  size_t IndexFor(UserId user) const {
    if (user < 0 || user >= num_users_) return 0;
    return ShardForUser(user, children_.size());
  }

  /// One request/response round-trip with shard `k`.
  Result<std::string> Forward(size_t k, const std::string& line) {
    ChildProc& child = *children_[k];
    std::lock_guard<std::mutex> lock(child.mu);
    std::string msg = line;
    msg.push_back('\n');
    if (!WriteAll(child.in_fd, msg.data(), msg.size())) {
      return Status::IOError("shard " + std::to_string(k) + " write failed");
    }
    return ReadLineLocked(child, k);
  }

  /// One round-trip for a framed verb (METRICS/TRACE): reads the
  /// "OK <what> lines=<N>" header plus its N payload lines. A non-OK
  /// header comes back as a single-element vector.
  Result<std::vector<std::string>> ForwardMulti(size_t k,
                                                const std::string& line) {
    ChildProc& child = *children_[k];
    std::lock_guard<std::mutex> lock(child.mu);
    std::string msg = line;
    msg.push_back('\n');
    if (!WriteAll(child.in_fd, msg.data(), msg.size())) {
      return Status::IOError("shard " + std::to_string(k) + " write failed");
    }
    Result<std::string> header = ReadLineLocked(child, k);
    if (!header.ok()) return header.status();
    std::vector<std::string> out;
    out.push_back(*header);
    uint64_t lines = 0;
    if (header->rfind("OK ", 0) != 0) return out;
    if (!ParseFramedLineCount(*header, &lines)) {
      return Status::Internal("shard " + std::to_string(k) +
                              " returned malformed framed header: " + *header);
    }
    for (uint64_t i = 0; i < lines; ++i) {
      Result<std::string> payload = ReadLineLocked(child, k);
      if (!payload.ok()) return payload.status();
      out.push_back(std::move(payload).value());
    }
    return out;
  }

  /// Stops every child: stdin EOF first (clean drain + stats dump),
  /// escalating to SIGTERM/SIGKILL only if a child fails to exit.
  void Stop() {
    if (stopped_) return;
    stopped_ = true;
    for (auto& child : children_) {
      std::lock_guard<std::mutex> lock(child->mu);
      if (child->in_fd >= 0) close(child->in_fd);
      child->in_fd = -1;
      if (child->out != nullptr) fclose(child->out);
      child->out = nullptr;
    }
    for (auto& child : children_) {
      if (child->pid < 0) continue;
      if (!WaitFor(child->pid, 5000)) {
        kill(child->pid, SIGTERM);
        if (!WaitFor(child->pid, 2000)) {
          kill(child->pid, SIGKILL);
          waitpid(child->pid, nullptr, 0);
        }
      }
      child->pid = -1;
    }
  }

 private:
  ProcessRouter() = default;

  Result<std::string> ReadLine(size_t k) {
    ChildProc& child = *children_[k];
    std::lock_guard<std::mutex> lock(child.mu);
    return ReadLineLocked(child, k);
  }

  static Result<std::string> ReadLineLocked(ChildProc& child, size_t k) {
    char* buf = nullptr;
    size_t cap = 0;
    ssize_t len = getline(&buf, &cap, child.out);
    if (len < 0) {
      free(buf);
      return Status::IOError("shard " + std::to_string(k) + " exited");
    }
    while (len > 0 && (buf[len - 1] == '\n' || buf[len - 1] == '\r')) {
      buf[--len] = '\0';
    }
    std::string line(buf, static_cast<size_t>(len));
    free(buf);
    return line;
  }

  static bool WaitFor(pid_t pid, int timeout_ms) {
    const timespec tick{0, 10 * 1000 * 1000};  // 10 ms
    for (int waited = 0; waited <= timeout_ms; waited += 10) {
      if (waitpid(pid, nullptr, WNOHANG) == pid) return true;
      nanosleep(&tick, nullptr);
    }
    return false;
  }

  std::vector<std::unique_ptr<ChildProc>> children_;
  std::vector<std::string> ready_;
  int32_t num_users_ = 0;
  bool stopped_ = false;
};

// ---------------------------------------------------------------------------
// Shared per-process serving state. Exactly one topology member is set:
// `router` (in-process shards, the default), `child` (a --shard=k/N
// partition server), or `procs` (the multi-process fan-out).

struct Server {
  std::unique_ptr<ShardRouter> router;
  std::unique_ptr<ServiceShard> child;
  std::unique_ptr<ProcessRouter> procs;
  SessionRegistry sessions;
  std::unique_ptr<ArtifactWatcher> watcher;

  bool local() const { return procs == nullptr; }
  int32_t num_users() const {
    return child ? child->num_users() : router->num_users();
  }
  int32_t num_items() const {
    return child ? child->num_items() : router->num_items();
  }
  int default_n() const {
    return child ? child->default_n() : router->default_n();
  }
  uint64_t version() const {
    return child ? child->version() : router->max_version();
  }
  std::string source() const {
    return child ? child->source() : router->source();
  }
  ServeStats stats() const {
    return child ? child->stats() : router->stats();
  }
  Status TopNInto(UserId user, int n, std::span<const ItemId> exclusions,
                  std::vector<ItemId>* out, uint64_t* served_version,
                  RequestTrace* trace = nullptr) {
    return child
               ? child->TopNInto(user, n, exclusions, out, served_version,
                                 trace)
               : router->TopNInto(user, n, exclusions, out, served_version,
                                  trace);
  }
};

// Merged metrics snapshot for the *local* part of `server`: the
// process-global registry (frontend, watcher, data sweeps, and — for
// topologies configured with a null ServiceConfig registry — the serve
// instruments too) plus any distinct per-shard registries.
MetricsSnapshot LocalMetricsSnapshot(const Server& server) {
  if (server.router) return server.router->SnapshotMetrics();
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  if (server.child != nullptr &&
      server.child->metrics_registry() != &MetricsRegistry::Global()) {
    snap.MergeFrom(server.child->metrics_registry()->Snapshot());
  }
  return snap;
}

// Full-topology metrics snapshot: the local snapshot, plus — in the
// multi-process topology — every child scraped over the METRICSNAP verb
// and merged in (the merge is exact, so the router's exposition equals
// one process having served everything).
Result<MetricsSnapshot> GatherMetrics(Server& server) {
  MetricsSnapshot snap = LocalMetricsSnapshot(server);
  if (server.procs == nullptr) return snap;
  static constexpr std::string_view kPrefix = "OK metricsnap ";
  for (size_t k = 0; k < server.procs->num_shards(); ++k) {
    Result<std::string> response = server.procs->Forward(k, "METRICSNAP");
    if (!response.ok()) return response.status();
    if (response->rfind(kPrefix, 0) != 0) {
      return Status::Internal("shard " + std::to_string(k) +
                              " returned malformed metricsnap: " + *response);
    }
    Result<MetricsSnapshot> child =
        MetricsSnapshot::Parse(std::string_view(*response).substr(kPrefix.size()));
    if (!child.ok()) return child.status();
    snap.MergeFrom(*child);
  }
  return snap;
}

// Extracts the decimal value of `key=` from a response line; false when
// the key is absent or malformed.
bool ParseResponseU64(const std::string& response, const std::string& key,
                      uint64_t* out) {
  const std::string needle = key + "=";
  size_t pos = 0;
  while ((pos = response.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || response[pos - 1] == ' ') {
      const size_t start = pos + needle.size();
      size_t end = start;
      uint64_t value = 0;
      while (end < response.size() && response[end] >= '0' &&
             response[end] <= '9') {
        value = value * 10 + static_cast<uint64_t>(response[end] - '0');
        ++end;
      }
      if (end == start) return false;
      *out = value;
      return true;
    }
    pos += needle.size();
  }
  return false;
}

// Publishes `path` to every shard regardless of topology. On success
// `max_version` receives the highest resulting snapshot version.
Status PublishPath(Server& server, const std::string& path,
                   uint64_t* max_version) {
  if (server.child) {
    GANC_RETURN_NOT_OK(server.child->Publish(path));
    if (max_version != nullptr) *max_version = server.child->version();
    return Status::OK();
  }
  if (server.router) {
    return server.router->Publish(path, max_version);
  }
  uint64_t max_v = 0;
  for (size_t k = 0; k < server.procs->num_shards(); ++k) {
    Result<std::string> response =
        server.procs->Forward(k, "PUBLISH path=" + path);
    if (!response.ok()) return response.status();
    if (response->rfind("ERR ", 0) == 0) {
      return Status::Internal("publish failed on shard " + std::to_string(k) +
                              "/" + std::to_string(server.procs->num_shards()) +
                              ": " + response->substr(4));
    }
    uint64_t v = 0;
    if (ParseResponseU64(*response, "version", &v) && v > max_v) max_v = v;
  }
  if (max_version != nullptr) *max_version = max_v;
  return Status::OK();
}

// Handles one request line in the multi-process topology: TOPN(V) and
// CONSUME forward verbatim to the owning shard (so responses — errors
// included — are byte-identical to that shard answering directly);
// control verbs fan out or answer locally.
std::string HandleLineMulti(Server& server, const ServeRequest& req,
                            const std::string& line, bool* quit) {
  ProcessRouter& procs = *server.procs;
  switch (req.command) {
    case ServeCommand::kTopN:
    case ServeCommand::kTopNV:
    case ServeCommand::kConsume: {
      Result<std::string> response =
          procs.Forward(procs.IndexFor(req.user), line);
      if (!response.ok()) return FormatError(response.status().message());
      return *response;
    }
    case ServeCommand::kPublish: {
      uint64_t max_v = 0;
      if (Status s = PublishPath(server, req.path, &max_v); !s.ok()) {
        return FormatError(s.message());
      }
      return FormatOk("version=" + std::to_string(max_v) +
                      " shards=" + std::to_string(procs.num_shards()));
    }
    case ServeCommand::kVersion: {
      std::string versions;
      for (size_t k = 0; k < procs.num_shards(); ++k) {
        Result<std::string> response = procs.Forward(k, "VERSION");
        if (!response.ok()) return FormatError(response.status().message());
        if (procs.num_shards() == 1) return *response;
        uint64_t v = 0;
        if (!ParseResponseU64(*response, "version", &v)) {
          return FormatError("shard " + std::to_string(k) +
                             " returned malformed version: " + *response);
        }
        if (!versions.empty()) versions.push_back(',');
        versions += std::to_string(v);
      }
      return FormatOk("versions=" + versions);
    }
    case ServeCommand::kShards:
      return FormatOk("shards=" + std::to_string(procs.num_shards()) +
                      " mode=multiprocess users=" +
                      std::to_string(procs.num_users()));
    case ServeCommand::kStats: {
      // Sum per-shard counters; mean_fill recombines exactly because
      // mean_fill_k * batches_k is shard k's batched-request count.
      uint64_t requests = 0, cache_hits = 0, store_hits = 0, live = 0,
               batches = 0;
      double batched = 0.0;
      for (size_t k = 0; k < procs.num_shards(); ++k) {
        Result<std::string> response = procs.Forward(k, "STATS");
        if (!response.ok()) return FormatError(response.status().message());
        uint64_t v = 0;
        if (ParseResponseU64(*response, "requests", &v)) requests += v;
        if (ParseResponseU64(*response, "cache_hits", &v)) cache_hits += v;
        if (ParseResponseU64(*response, "store_hits", &v)) store_hits += v;
        if (ParseResponseU64(*response, "live", &v)) live += v;
        if (ParseResponseU64(*response, "batches", &v)) {
          batches += v;
          const size_t pos = response->find("mean_fill=");
          if (pos != std::string::npos) {
            batched += strtod(response->c_str() + pos + 10, nullptr) *
                       static_cast<double>(v);
          }
        }
      }
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "requests=%llu cache_hits=%llu store_hits=%llu "
                    "live=%llu batches=%llu mean_fill=%.2f",
                    static_cast<unsigned long long>(requests),
                    static_cast<unsigned long long>(cache_hits),
                    static_cast<unsigned long long>(store_hits),
                    static_cast<unsigned long long>(live),
                    static_cast<unsigned long long>(batches),
                    batches == 0 ? 0.0 : batched / static_cast<double>(batches));
      return FormatOk(buf);
    }
    case ServeCommand::kMetrics: {
      Result<MetricsSnapshot> snap = GatherMetrics(server);
      if (!snap.ok()) return FormatError(snap.status().message());
      return FramedResponse("metrics", snap->RenderExposition());
    }
    case ServeCommand::kMetricSnap: {
      Result<MetricsSnapshot> snap = GatherMetrics(server);
      if (!snap.ok()) return FormatError(snap.status().message());
      return FormatOk("metricsnap " + snap->Serialize());
    }
    case ServeCommand::kTrace: {
      // The router's own ring holds frontend timelines (parse/respond
      // only — the work happens in the children); each child appends
      // its shard-attributed timelines after it.
      const int count = req.n == 0 ? 16 : req.n;
      std::string payload;
      for (const RequestTrace& t :
           TraceRing::Global().MostRecent(static_cast<size_t>(count))) {
        payload += FormatTraceLine(t);
        payload.push_back('\n');
      }
      for (size_t k = 0; k < procs.num_shards(); ++k) {
        Result<std::vector<std::string>> lines =
            procs.ForwardMulti(k, "TRACE n=" + std::to_string(count));
        if (!lines.ok()) return FormatError(lines.status().message());
        if (lines->empty() || (*lines)[0].rfind("OK ", 0) != 0) {
          return FormatError("shard " + std::to_string(k) +
                             " trace dump failed");
        }
        for (size_t i = 1; i < lines->size(); ++i) {
          payload += (*lines)[i];
          payload.push_back('\n');
        }
      }
      return FramedResponse("traces", payload);
    }
    case ServeCommand::kPing:
      return FormatOk("pong");
    case ServeCommand::kQuit:
      *quit = true;
      return FormatOk("bye");
  }
  return FormatError("unreachable");
}

// Handles one request line; returns the response (no trailing newline;
// framed responses carry embedded newlines). Sets *quit for QUIT. A
// sampled request's `trace` (may be null) is stamped through parse and
// the service layers; the caller owns commit.
std::string HandleLine(Server& server, const std::string& line, bool* quit,
                       RequestTrace* trace = nullptr) {
  const FrontendInstruments& fi = Frontend();
  fi.lines->Increment();
  const uint64_t parse_start = MonotonicNowNs();
  Result<ServeRequest> parsed = ParseServeRequest(line);
  const uint64_t parse_end = MonotonicNowNs();
  fi.parse_ns->Observe(parse_end - parse_start);
  if (trace != nullptr) trace->Stamp(TraceStage::kParse, parse_end);
  if (!parsed.ok()) {
    fi.parse_errors->Increment();
    return FormatError(parsed.status().message());
  }
  ServeRequest& req = *parsed;
  if (!server.local()) return HandleLineMulti(server, req, line, quit);
  switch (req.command) {
    case ServeCommand::kTopN:
    case ServeCommand::kTopNV: {
      std::vector<ItemId> exclusions;
      std::span<const ItemId> excl = req.items;
      if (!req.session.empty()) {
        server.sessions.CollectExclusions(req.session, req.user, req.items,
                                          &exclusions);
        excl = exclusions;
      }
      std::vector<ItemId> items;
      uint64_t version = 0;
      if (Status s = server.TopNInto(req.user, req.n, excl, &items, &version,
                                     trace);
          !s.ok()) {
        return FormatError(s.message());
      }
      const int n = req.n == 0 ? server.default_n() : req.n;
      return req.command == ServeCommand::kTopNV
                 ? FormatVersionedTopNResponse(req.user, n, version, items)
                 : FormatTopNResponse(req.user, n, items);
    }
    case ServeCommand::kConsume: {
      for (const ItemId i : req.items) {
        if (i < 0 || i >= server.num_items()) {
          return FormatError("consumed item id out of range");
        }
      }
      if (req.user < 0 || req.user >= server.num_users()) {
        return FormatError("user id out of range");
      }
      server.sessions.MarkConsumed(req.session, req.user, req.items);
      return FormatOk("consumed=" + std::to_string(req.items.size()));
    }
    case ServeCommand::kPublish: {
      uint64_t max_v = 0;
      if (Status s = PublishPath(server, req.path, &max_v); !s.ok()) {
        return FormatError(s.message());
      }
      if (server.router && server.router->num_shards() > 1) {
        return FormatOk(
            "version=" + std::to_string(max_v) +
            " shards=" + std::to_string(server.router->num_shards()));
      }
      return FormatOk("version=" + std::to_string(max_v) +
                      " source=" + server.source());
    }
    case ServeCommand::kVersion: {
      if (server.router && server.router->num_shards() > 1) {
        std::string versions;
        for (const uint64_t v : server.router->versions()) {
          if (!versions.empty()) versions.push_back(',');
          versions += std::to_string(v);
        }
        return FormatOk("versions=" + versions);
      }
      return FormatOk("version=" + std::to_string(server.version()) +
                      " source=" + server.source());
    }
    case ServeCommand::kShards: {
      if (server.child) {
        const ShardSpec spec = server.child->spec();
        return FormatOk("shard=" + std::to_string(spec.index) + "/" +
                        std::to_string(spec.num_shards) +
                        " users=" + std::to_string(server.num_users()) +
                        " version=" + std::to_string(server.version()));
      }
      return FormatOk("shards=" + std::to_string(server.router->num_shards()) +
                      " mode=inprocess users=" +
                      std::to_string(server.num_users()));
    }
    case ServeCommand::kStats: {
      const ServeStats s = server.stats();
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "requests=%llu cache_hits=%llu store_hits=%llu "
                    "live=%llu batches=%llu mean_fill=%.2f",
                    static_cast<unsigned long long>(s.requests),
                    static_cast<unsigned long long>(s.cache_hits),
                    static_cast<unsigned long long>(s.store_hits),
                    static_cast<unsigned long long>(s.live_scored),
                    static_cast<unsigned long long>(s.batches),
                    s.MeanBatchFill());
      return FormatOk(buf);
    }
    case ServeCommand::kMetrics:
      return FramedResponse("metrics",
                            LocalMetricsSnapshot(server).RenderExposition());
    case ServeCommand::kMetricSnap:
      return FormatOk("metricsnap " + LocalMetricsSnapshot(server).Serialize());
    case ServeCommand::kTrace: {
      const int count = req.n == 0 ? 16 : req.n;
      std::string payload;
      for (const RequestTrace& t :
           TraceRing::Global().MostRecent(static_cast<size_t>(count))) {
        payload += FormatTraceLine(t);
        payload.push_back('\n');
      }
      return FramedResponse("traces", payload);
    }
    case ServeCommand::kPing:
      return FormatOk("pong");
    case ServeCommand::kQuit:
      *quit = true;
      return FormatOk("bye");
  }
  return FormatError("unreachable");
}

// Wraps HandleLine with the sampled trace ring and the per-line
// instruments: every input path (stdin and each TCP connection) funnels
// through here, drawing seq numbers from one process-wide counter so
// sampling is deterministic in the request arrival order.
std::string HandleRequest(Server& server, const std::string& line,
                          bool* quit) {
  TraceRing& ring = TraceRing::Global();
  const uint64_t seq =
      g_request_seq.fetch_add(1, std::memory_order_relaxed);
  std::unique_ptr<RequestTrace> trace;
  if (ring.ShouldSample(seq)) trace = ring.Begin(seq);
  const uint64_t start_ns = MonotonicNowNs();
  std::string response = HandleLine(server, line, quit, trace.get());
  const uint64_t end_ns = MonotonicNowNs();
  Frontend().line_ns->Observe(end_ns - start_ns);
  if (trace != nullptr) {
    trace->Stamp(TraceStage::kRespond, end_ns);
    ring.Commit(std::move(trace));
  }
  return response;
}

// One live TCP connection. `mu` serializes the socket's close against
// the shutdown path: the serving thread fcloses under it, StopListener
// shutdown()s under it, so a shutdown can never hit a recycled fd and
// an idle client can never block server exit.
struct Connection {
  std::mutex mu;
  int fd = -1;
  bool closed = false;
  std::thread thread;
};

// Serves one TCP connection until EOF/QUIT. Reads are buffered through
// a FILE*, responses go out with raw write() — one stdio stream must
// not interleave reads and writes on a socket.
void ServeConnection(Server& server, Connection& conn) {
  FILE* in = fdopen(conn.fd, "r");
  if (in == nullptr) {
    std::lock_guard<std::mutex> lock(conn.mu);
    close(conn.fd);
    conn.closed = true;
    return;
  }
  char* line = nullptr;
  size_t cap = 0;
  ssize_t len;
  bool quit = false;
  while (!quit && (len = getline(&line, &cap, in)) != -1) {
    while (len > 0 && (line[len - 1] == '\n' || line[len - 1] == '\r')) {
      line[--len] = '\0';
    }
    std::string response = HandleRequest(
        server, std::string(line, static_cast<size_t>(len)), &quit);
    response.push_back('\n');
    if (!WriteAll(conn.fd, response.data(), response.size())) break;
  }
  free(line);
  std::lock_guard<std::mutex> lock(conn.mu);
  fclose(in);  // closes conn.fd
  conn.closed = true;
}

// TCP listener state shared with the accept thread.
struct Listener {
  int fd = -1;
  std::thread accept_thread;
  std::mutex mu;
  std::vector<std::unique_ptr<Connection>> connections;
  std::atomic<bool> stopping{false};
};

// Binds 127.0.0.1:port (0 = ephemeral); returns the bound port or an
// error.
Result<int> StartListener(Listener& listener, Server& server, int port) {
  listener.fd = socket(AF_INET, SOCK_STREAM, 0);
  if (listener.fd < 0) return Status::IOError("socket() failed");
  const int one = 1;
  setsockopt(listener.fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (bind(listener.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::IOError("bind() failed: " + std::string(strerror(errno)));
  }
  if (listen(listener.fd, 16) < 0) {
    return Status::IOError("listen() failed");
  }
  socklen_t addr_len = sizeof(addr);
  if (getsockname(listener.fd, reinterpret_cast<sockaddr*>(&addr),
                  &addr_len) < 0) {
    return Status::IOError("getsockname() failed");
  }
  const int bound = ntohs(addr.sin_port);
  listener.accept_thread = std::thread([&listener, &server] {
    for (;;) {
      // poll() on {listener, stop pipe} instead of blocking straight
      // into accept(2): a SIGTERM wakes this thread immediately even
      // when no client ever connects again (the old accept-blocked
      // loop could only be unblocked by the listener close racing the
      // signal handler's context).
      pollfd fds[2] = {{listener.fd, POLLIN, 0}, {g_stop_pipe[0], POLLIN, 0}};
      const nfds_t nfds = g_stop_pipe[0] >= 0 ? 2 : 1;
      const int rc = poll(fds, nfds, -1);
      if (rc < 0) {
        if (errno == EINTR && g_stop_requested == 0 &&
            !listener.stopping.load()) {
          continue;
        }
        return;
      }
      if (nfds == 2 && (fds[1].revents & (POLLIN | POLLERR | POLLHUP))) {
        return;  // stop requested
      }
      if (listener.stopping.load()) return;
      if ((fds[0].revents & POLLIN) == 0) return;  // listener closed
      const int fd = accept(listener.fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // listener closed during shutdown
      }
      if (listener.stopping.load() || g_stop_requested != 0) {
        close(fd);
        return;
      }
      // Each reply leaves in one write, so Nagle's algorithm can only
      // hold it back until the client's delayed ACK (tens of ms).
      const int nodelay = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
      std::lock_guard<std::mutex> lock(listener.mu);
      // Reap finished connections so a long-running server holds
      // resources proportional to *concurrent* clients, not total ones.
      std::erase_if(listener.connections,
                    [](const std::unique_ptr<Connection>& c) {
                      std::lock_guard<std::mutex> conn_lock(c->mu);
                      if (!c->closed) return false;
                      c->thread.join();
                      return true;
                    });
      auto conn = std::make_unique<Connection>();
      conn->fd = fd;
      Connection& ref = *conn;
      ref.thread =
          std::thread([&server, &ref] { ServeConnection(server, ref); });
      listener.connections.push_back(std::move(conn));
    }
  });
  return bound;
}

void StopListener(Listener& listener) {
  if (listener.fd < 0) return;
  listener.stopping.store(true);
  shutdown(listener.fd, SHUT_RDWR);
  close(listener.fd);
  if (listener.accept_thread.joinable()) listener.accept_thread.join();
  std::lock_guard<std::mutex> lock(listener.mu);
  for (const std::unique_ptr<Connection>& conn : listener.connections) {
    // Unblock serving threads stuck in getline() on idle clients; the
    // per-connection mutex guarantees the fd has not been recycled.
    std::lock_guard<std::mutex> conn_lock(conn->mu);
    if (!conn->closed) shutdown(conn->fd, SHUT_RDWR);
  }
  for (const std::unique_ptr<Connection>& conn : listener.connections) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

// Shutdown report: one topology/uptime header, then the same metrics
// text exposition the METRICS verb serves — one renderer, one format,
// whether scraped live or read off a dead server's stderr. Must run
// while children are still alive (it scrapes them over METRICSNAP).
void DumpStats(Server& server, double uptime_ms) {
  std::string topology;
  if (server.procs) {
    topology = std::to_string(server.procs->num_shards()) +
               " shards, multiprocess";
  } else if (server.child) {
    const ShardSpec spec = server.child->spec();
    topology = "shard " + std::to_string(spec.index) + "/" +
               std::to_string(spec.num_shards);
  } else {
    topology = std::to_string(server.router->num_shards()) +
               " in-process shard(s)";
  }
  std::fprintf(stderr, "--- ganc_serve shutdown (%s, %.1f ms up, %zu "
               "sessions) ---\n",
               topology.c_str(), uptime_ms, server.sessions.num_sessions());
  Result<MetricsSnapshot> snap = GatherMetrics(server);
  if (!snap.ok()) {
    std::fprintf(stderr, "metrics: %s\n", snap.status().ToString().c_str());
    return;
  }
  std::fputs(snap->RenderExposition().c_str(), stderr);
}

// Parses --shard=k/N. Returns false on malformed input.
bool ParseShardSpec(const std::string& text, ShardSpec* spec) {
  const size_t slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= text.size()) {
    return false;
  }
  char* end = nullptr;
  const unsigned long index = strtoul(text.c_str(), &end, 10);
  if (end != text.c_str() + slash) return false;
  const unsigned long total = strtoul(text.c_str() + slash + 1, &end, 10);
  if (*end != '\0' || total == 0 || index >= total) return false;
  spec->index = index;
  spec->num_shards = total;
  return true;
}

// Rebuilds the flag list a --shard=k/N child needs: the snapshot/data/
// service flags pass through verbatim; topology, port, and watcher
// flags are the router's own business.
std::vector<std::string> ChildArgs(const Flags& flags) {
  static const char* kForward[] = {
      "dataset",       "ratings-file",  "delimiter",
      "skip-header",   "dataset-cache", "kappa",
      "seed",          "model",         "pipeline",
      "store",         "workers",       "batch-wait-us",
      "cache-capacity", "default-n",    "unbatched",
      "factor-precision", "mmap"};
  std::vector<std::string> args;
  for (const char* name : kForward) {
    if (!flags.Has(name)) continue;
    const std::string value = flags.GetString(name, "");
    args.push_back(value.empty() ? "--" + std::string(name)
                                 : "--" + std::string(name) + "=" + value);
  }
  return args;
}

int Run(const Flags& flags) {
  const std::string model_path = flags.GetString("model", "");
  const std::string pipeline_path = flags.GetString("pipeline", "");
  if ((model_path.empty() == pipeline_path.empty())) {
    std::fprintf(stderr,
                 "exactly one of --model / --pipeline is required\n");
    Usage();
    return 2;
  }
  auto kappa = flags.GetDouble("kappa", 0.5);
  auto seed = flags.GetInt("seed", 42);
  auto port_flag = flags.GetInt("port", -1);
  auto workers = flags.GetInt("workers", 1);
  auto batch_wait = flags.GetInt("batch-wait-us", 200);
  auto cache_capacity = flags.GetInt("cache-capacity", 4096);
  auto default_n = flags.GetInt("default-n", 10);
  auto num_shards = flags.GetInt("shards", 1);
  auto watch_interval = flags.GetInt("watch-interval-ms", 1000);
  if (!kappa.ok() || !seed.ok() || !port_flag.ok() || !workers.ok() ||
      !batch_wait.ok() || !cache_capacity.ok() || !default_n.ok() ||
      !num_shards.ok() || !watch_interval.ok() || *cache_capacity < 0 ||
      *port_flag > 65535 || *num_shards < 1 || *watch_interval < 1) {
    std::fprintf(stderr, "bad numeric flag\n");
    return 2;
  }
  const bool multiprocess = flags.GetBool("multiprocess", false);
  const std::string shard_flag = flags.GetString("shard", "");
  ShardSpec child_spec;
  if (!shard_flag.empty() && !ParseShardSpec(shard_flag, &child_spec)) {
    std::fprintf(stderr, "bad --shard=%s (want k/N with k < N)\n",
                 shard_flag.c_str());
    return 2;
  }
  if (!shard_flag.empty() && (*num_shards != 1 || multiprocess)) {
    std::fprintf(stderr, "--shard is a child mode; it excludes --shards/"
                         "--multiprocess\n");
    return 2;
  }
  if (multiprocess && *num_shards < 2) {
    std::fprintf(stderr, "--multiprocess requires --shards >= 2\n");
    return 2;
  }

  // The shared resolver guarantees the serving process binds the same
  // data the training run did for the same flags.
  Result<RatingDataset> dataset = LoadDatasetFromFlags(flags);
  if (!dataset.ok()) {
    std::fprintf(stderr, "load: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  // kappa = 1 means "train on everything": serve the loaded dataset
  // directly instead of rebuilding it through the splitter. Besides
  // skipping an O(nnz) copy, this is the path that keeps a mapped
  // --dataset-cache zero-copy — a split rebuild would materialize the
  // whole thing eagerly.
  RatingDataset train;
  if (*kappa == 1.0) {
    train = std::move(*dataset);
  } else {
    Result<TrainTestSplit> split = PerUserRatioSplit(
        *dataset,
        {.train_ratio = *kappa, .seed = static_cast<uint64_t>(*seed)});
    if (!split.ok()) {
      std::fprintf(stderr, "split: %s\n", split.status().ToString().c_str());
      return 1;
    }
    train = std::move(split->train);
  }

  ServiceConfig config;
  config.num_workers = static_cast<int>(*workers);
  config.max_batch_wait_us = static_cast<int>(*batch_wait);
  config.cache_capacity = static_cast<size_t>(*cache_capacity);
  config.micro_batching = !flags.GetBool("unbatched", false);
  config.default_n = static_cast<int>(*default_n);
  Result<FactorPrecision> precision = ParseFactorPrecision(
      flags.GetString("factor-precision", "fp64"));
  if (!precision.ok()) {
    std::fprintf(stderr, "%s\n", precision.status().ToString().c_str());
    return 2;
  }
  config.factor_precision = *precision;
  config.mmap_artifacts = flags.GetBool("mmap", true);

  const SnapshotKind kind =
      model_path.empty() ? SnapshotKind::kPipeline : SnapshotKind::kModel;
  const std::string& artifact_path =
      model_path.empty() ? pipeline_path : model_path;

  InstallStopHandlers();

  WallTimer up_timer;
  Server server;
  if (multiprocess) {
    Result<std::unique_ptr<ProcessRouter>> procs = ProcessRouter::Spawn(
        ChildArgs(flags), static_cast<size_t>(*num_shards),
        train.num_users());
    if (!procs.ok()) {
      std::fprintf(stderr, "spawn: %s\n", procs.status().ToString().c_str());
      return 1;
    }
    server.procs = std::move(procs).value();
    for (size_t k = 0; k < server.procs->num_shards(); ++k) {
      std::fprintf(stderr, "router: %s\n",
                   server.procs->ready_info(k).c_str());
    }
  } else if (!shard_flag.empty()) {
    Result<std::unique_ptr<ServiceShard>> shard =
        ServiceShard::Load(kind, artifact_path, train, child_spec, config);
    if (!shard.ok()) {
      std::fprintf(stderr, "snapshot: %s\n",
                   shard.status().ToString().c_str());
      return 1;
    }
    server.child = std::move(shard).value();
  } else {
    Result<std::unique_ptr<ShardRouter>> router =
        ShardRouter::Load(kind, artifact_path, train,
                          static_cast<size_t>(*num_shards), config);
    if (!router.ok()) {
      std::fprintf(stderr, "snapshot: %s\n",
                   router.status().ToString().c_str());
      return 1;
    }
    server.router = std::move(router).value();
  }

  const std::string store_path = flags.GetString("store", "");
  if (!store_path.empty() && server.local()) {
    Result<TopNStore> store =
        TopNStore::LoadFileAuto(store_path, config.mmap_artifacts);
    if (!store.ok()) {
      std::fprintf(stderr, "store: %s\n", store.status().ToString().c_str());
      return 1;
    }
    auto shared = std::make_shared<const TopNStore>(std::move(store).value());
    const Status attached = server.child ? server.child->AttachStore(shared)
                                         : server.router->AttachStore(shared);
    if (!attached.ok()) {
      std::fprintf(stderr, "store: %s\n", attached.ToString().c_str());
      return 1;
    }
  }

  if (server.local()) {
    std::fprintf(
        stderr,
        "serving %s (%s, snapshot v%llu) in %.1f ms; %d users, %d items\n",
        server.source().c_str(),
        server.child
            ? ("shard " + std::to_string(server.child->spec().index) + "/" +
               std::to_string(server.child->spec().num_shards))
                  .c_str()
            : (std::to_string(server.router->num_shards()) + " shard(s)")
                  .c_str(),
        static_cast<unsigned long long>(server.version()),
        up_timer.ElapsedMillis(), server.num_users(), server.num_items());
  } else {
    std::fprintf(stderr, "routing %d users across %zu shard processes\n",
                 server.procs->num_users(), server.procs->num_shards());
  }

  if (flags.GetBool("watch", false)) {
    server.watcher = std::make_unique<ArtifactWatcher>(
        artifact_path,
        [&server](const std::string& path) {
          uint64_t max_v = 0;
          const Status s = PublishPath(server, path, &max_v);
          if (s.ok()) {
            std::fprintf(stderr, "watch: published %s (version %llu)\n",
                         path.c_str(),
                         static_cast<unsigned long long>(max_v));
          } else {
            std::fprintf(stderr, "watch: rejected %s: %s\n", path.c_str(),
                         s.ToString().c_str());
          }
          return s;
        },
        static_cast<int>(*watch_interval));
    server.watcher->Start();
  }

  const bool daemon = flags.GetBool("daemon", false);
  if (daemon && *port_flag < 0) {
    std::fprintf(stderr, "--daemon requires --port\n");
    return 2;
  }
  Listener listener;
  if (*port_flag >= 0) {
    Result<int> bound = StartListener(listener, server,
                                      static_cast<int>(*port_flag));
    if (!bound.ok()) {
      std::fprintf(stderr, "listen: %s\n", bound.status().ToString().c_str());
      return 1;
    }
    std::printf("LISTENING port=%d\n", *bound);
    std::fflush(stdout);
  }

  // Child shards announce readiness on stdout — the parent router (and
  // the subprocess tests) block on this line before sending traffic.
  if (server.child) {
    const ShardSpec spec = server.child->spec();
    std::printf("READY shard=%zu/%zu version=%llu source=%s\n", spec.index,
                spec.num_shards,
                static_cast<unsigned long long>(server.version()),
                server.source().c_str());
    std::fflush(stdout);
  }

  // stdin loop on the main thread.
  char* line = nullptr;
  size_t cap = 0;
  ssize_t len;
  bool quit = false;
  while (!quit && g_stop_requested == 0 &&
         (len = getline(&line, &cap, stdin)) != -1) {
    while (len > 0 && (line[len - 1] == '\n' || line[len - 1] == '\r')) {
      line[--len] = '\0';
    }
    const std::string response = HandleRequest(
        server, std::string(line, static_cast<size_t>(len)), &quit);
    std::printf("%s\n", response.c_str());
    std::fflush(stdout);
  }
  free(line);

  // Daemon mode (--daemon): stdin EOF does not stop the TCP listener —
  // the launch environment may close stdin outright (systemd,
  // containers) — serving continues until SIGINT/SIGTERM. A stdin QUIT
  // still shuts down immediately, and without --daemon EOF keeps its
  // pipe-friendly meaning: drain requests, shut down.
  if (!quit && daemon && listener.fd >= 0) {
    while (g_stop_requested == 0) {
      if (g_stop_pipe[0] >= 0) {
        pollfd pfd{g_stop_pipe[0], POLLIN, 0};
        poll(&pfd, 1, 500);
      } else {
        const timespec tick{0, 100 * 1000 * 1000};  // 100 ms
        nanosleep(&tick, nullptr);
      }
    }
  }

  if (server.watcher) server.watcher->Stop();
  StopListener(listener);
  // Metrics first: the shutdown report scrapes child processes, so they
  // must still be running here.
  DumpStats(server, up_timer.ElapsedMillis());
  if (server.procs) server.procs->Stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> known = {
      "dataset",        "ratings-file", "delimiter",   "skip-header",
      "dataset-cache",  "kappa",        "seed",        "model",
      "pipeline",       "store",        "port",        "workers",
      "batch-wait-us",  "cache-capacity", "default-n", "unbatched",
      "factor-precision", "daemon",     "mmap",        "shards",
      "multiprocess",   "shard",        "watch",       "watch-interval-ms",
      "help"};
  Result<Flags> flags = Flags::Parse(argc, argv, known);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    Usage();
    return 2;
  }
  if (flags->GetBool("help", false)) {
    Usage();
    return 0;
  }
  if (!flags->positional().empty()) {
    std::fprintf(stderr, "ganc_serve takes no positional arguments\n");
    Usage();
    return 2;
  }
  return Run(*flags);
}
