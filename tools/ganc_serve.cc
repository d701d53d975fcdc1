// ganc_serve: the online serving frontend.
//
// Loads a trained artifact into the serving tier and answers requests
// over the newline-delimited protocol (src/serve/protocol.h, grammar in
// docs/SERVING.md) on stdin/stdout and, with --port, on a POSIX TCP
// socket (one thread per connection). Every line, from stdin or any
// connection, is answered by one serve/frontend.h Frontend — the same
// engine `ganc_cli replay` drives — which owns the topology, the
// session registry and the per-line instruments. This file is flags,
// the read loop and the listener. Dependency free: nothing beyond the
// C++ standard library and POSIX.
//
//   ganc_cli cache-dataset --dataset=tiny --out=tiny.gdc
//   ganc_cli train --dataset-cache=tiny.gdc --arec=psvd10 --seed=7 \
//            --save-model=psvd10.gam
//   ganc_serve --dataset-cache=tiny.gdc --seed=7 --model=psvd10.gam \
//              --default-n=5 [--port=0] [--store=head.gts] [--shards=3]
//
// Topologies:
//   * default            one in-process shard.
//   * --shards=N         N in-process ServiceShards behind a ShardRouter;
//                        users are partitioned by the stable shard hash.
//   * --shards=N --multiprocess
//                        forks N `ganc_serve --shard=k/N` children of
//                        this same binary (serve/process_router.h) and
//                        forwards to them over pipes speaking this very
//                        protocol (each child prints READY on stdout
//                        before the router starts serving).
//   * --shard=k/N        child mode: serve only partition k (requests
//                        for users owned by other shards are rejected).
//
// Zero-downtime swap: the PUBLISH verb (and --watch, which polls the
// artifact path for stable changes) loads a replacement artifact in the
// background, validates its dataset fingerprint, and swaps the
// per-shard snapshot — in-flight requests finish on the old snapshot,
// the version-keyed result cache invalidates implicitly, no request is
// dropped.
//
// The process serves stdin until EOF or a QUIT line, then dumps the
// metrics exposition to stderr. `--port=0` binds an ephemeral port; the
// assigned port is announced on stdout as "LISTENING port=<p>" before
// request processing starts (the subprocess tests key on this).
// `--daemon` detaches the lifetime from stdin for TCP-only deployments
// (systemd/containers close stdin at launch): the listener serves until
// SIGINT/SIGTERM, which also shut down cleanly with the stats dump.
// Stop signals are delivered through a self-pipe so a thread blocked in
// accept(2) exits promptly.

#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
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
#include <string_view>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "data/loader.h"
#include "data/split.h"
#include "recommender/factor_kernels.h"
#include "serve/frontend.h"
#include "serve/process_router.h"
#include "serve/protocol.h"
#include "serve/service_shard.h"
#include "serve/shard_router.h"
#include "serve/snapshot_swap.h"
#include "serve/topn_store.h"
#include "util/flags.h"
#include "util/metrics.h"
#include "util/timer.h"

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
      "    [--mmap=true]      (open dataset-cache/model/store\n"
      "                        artifacts as file mappings;\n"
      "                        --mmap=false reads them into memory.\n"
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
// every poller sees it readable forever after. The flag is read by the
// stdin loop, every connection thread and the accept thread, so it is a
// lock-free atomic, which a handler may store to.
std::atomic<bool> g_stop_requested{false};
static_assert(std::atomic<bool>::is_always_lock_free);
int g_stop_pipe[2] = {-1, -1};

void HandleStopSignal(int /*sig*/) {
  g_stop_requested.store(true);
  if (g_stop_pipe[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = write(g_stop_pipe[1], &byte, 1);
  }
}

// Installs the stop handler *without* SA_RESTART: a read blocked
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

// Reads the next line of `in` into `line` without its newline, keeping
// at most kMaxRequestLineBytes and discarding the rest of a longer line
// through its newline (*too_long is then set). Returns false at EOF
// with nothing read, or when a read fails (a stop signal's EINTR).
bool ReadRequestLine(FILE* in, std::string* line, bool* too_long) {
  line->clear();
  *too_long = false;
  int c;
  flockfile(in);
  while ((c = getc_unlocked(in)) != EOF && c != '\n') {
    if (line->size() < kMaxRequestLineBytes) {
      line->push_back(static_cast<char>(c));
    } else {
      *too_long = true;
    }
  }
  const bool failed = c == EOF && ferror_unlocked(in) != 0;
  funlockfile(in);
  return !failed && (c != EOF || !line->empty() || *too_long);
}

// The one read loop, for stdin and every TCP connection: answers each
// line of `in` through the Frontend and writes the reply to `out_fd`
// until EOF, QUIT, a failed write or a stop signal. Reads are buffered
// through the FILE*, replies leave with raw write() in one piece (one
// stdio stream must not interleave reads and writes on a socket).
// Returns true when the peer sent QUIT.
bool ServeLines(Frontend& frontend, FILE* in, int out_fd) {
  static const std::string kTooLong =
      FormatError("request line exceeds " +
                  std::to_string(kMaxRequestLineBytes) + " bytes") +
      "\n";
  std::string line;
  bool too_long = false;
  bool quit = false;
  while (!quit && !g_stop_requested.load() &&
         ReadRequestLine(in, &line, &too_long)) {
    std::string response =
        too_long ? kTooLong : frontend.Handle(line, &quit) + "\n";
    if (!WriteAll(out_fd, response.data(), response.size())) break;
  }
  return quit;
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

// Serves one TCP connection until EOF/QUIT.
void ServeConnection(Frontend& frontend, Connection& conn) {
  FILE* in = fdopen(conn.fd, "r");
  if (in != nullptr) ServeLines(frontend, in, conn.fd);
  std::lock_guard<std::mutex> lock(conn.mu);
  if (in != nullptr) {
    fclose(in);  // closes conn.fd
  } else {
    close(conn.fd);
  }
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
Result<int> StartListener(Listener& listener, Frontend& frontend, int port) {
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
  listener.accept_thread = std::thread([&listener, &frontend] {
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
        if (errno == EINTR && !g_stop_requested.load() &&
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
      if (listener.stopping.load() || g_stop_requested.load()) {
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
          std::thread([&frontend, &ref] { ServeConnection(frontend, ref); });
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
    // Unblock serving threads stuck reading idle clients; the
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
void DumpStats(Frontend& frontend, double uptime_ms) {
  std::fprintf(stderr, "--- ganc_serve shutdown (%s, %.1f ms up, %zu "
               "sessions) ---\n",
               frontend.Describe().c_str(), uptime_ms,
               frontend.num_sessions());
  Result<MetricsSnapshot> snap = frontend.GatherMetrics();
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

// The in-process topology: all `num_shards` shards, or — for a
// --shard=k/N child (`spec` non-null) — just partition k.
Result<std::unique_ptr<ShardRouter>> LoadRouter(
    SnapshotKind kind, const std::string& path, const RatingDataset& train,
    const ShardSpec* spec, size_t num_shards, const ServiceConfig& config) {
  if (spec == nullptr) {
    return ShardRouter::Load(kind, path, train, num_shards, config);
  }
  Result<std::unique_ptr<ServiceShard>> shard =
      ServiceShard::Load(kind, path, train, *spec, config);
  if (!shard.ok()) return shard.status();
  return ShardRouter::ForPartition(std::move(shard).value());
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
  std::unique_ptr<Frontend> frontend;
  if (multiprocess) {
    Result<std::unique_ptr<ProcessRouter>> procs = ProcessRouter::Spawn(
        "/proc/self/exe", ChildArgs(flags), static_cast<size_t>(*num_shards),
        train.num_users());
    if (!procs.ok()) {
      std::fprintf(stderr, "spawn: %s\n", procs.status().ToString().c_str());
      return 1;
    }
    for (size_t k = 0; k < (*procs)->num_shards(); ++k) {
      std::fprintf(stderr, "router: %s\n", (*procs)->ready_info(k).c_str());
    }
    std::fprintf(stderr, "routing %d users across %zu shard processes\n",
                 (*procs)->num_users(), (*procs)->num_shards());
    frontend = std::make_unique<Frontend>(std::move(procs).value());
  } else {
    Result<std::unique_ptr<ShardRouter>> router = LoadRouter(
        kind, artifact_path, train, shard_flag.empty() ? nullptr : &child_spec,
        static_cast<size_t>(*num_shards), config);
    if (!router.ok()) {
      std::fprintf(stderr, "snapshot: %s\n",
                   router.status().ToString().c_str());
      return 1;
    }
    const std::string store_path = flags.GetString("store", "");
    if (!store_path.empty()) {
      Result<TopNStore> store =
          TopNStore::LoadFileAuto(store_path, config.mmap_artifacts);
      Status attached = store.status();
      if (store.ok()) {
        attached = (*router)->AttachStore(
            std::make_shared<const TopNStore>(std::move(store).value()));
      }
      if (!attached.ok()) {
        std::fprintf(stderr, "store: %s\n", attached.ToString().c_str());
        return 1;
      }
    }
    frontend = std::make_unique<Frontend>(std::move(router).value());
    const ShardRouter& r = *frontend->router();
    std::fprintf(
        stderr,
        "serving %s (%s, snapshot v%llu) in %.1f ms; %d users, %d items\n",
        r.source().c_str(), frontend->Describe().c_str(),
        static_cast<unsigned long long>(r.max_version()),
        up_timer.ElapsedMillis(), r.num_users(), r.num_items());
  }

  std::unique_ptr<ArtifactWatcher> watcher;
  if (flags.GetBool("watch", false)) {
    watcher = std::make_unique<ArtifactWatcher>(
        artifact_path,
        [&frontend](const std::string& path) {
          uint64_t max_v = 0;
          const Status s = frontend->Publish(path, &max_v);
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
    watcher->Start();
  }

  const bool daemon = flags.GetBool("daemon", false);
  if (daemon && *port_flag < 0) {
    std::fprintf(stderr, "--daemon requires --port\n");
    return 2;
  }
  Listener listener;
  if (*port_flag >= 0) {
    Result<int> bound = StartListener(listener, *frontend,
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
  if (!shard_flag.empty()) {
    const ShardRouter& r = *frontend->router();
    std::printf("READY shard=%zu/%zu version=%llu kernel=%s source=%s\n",
                child_spec.index, child_spec.num_shards,
                static_cast<unsigned long long>(r.max_version()),
                KernelVariantName(ActiveKernelVariant()), r.source().c_str());
    std::fflush(stdout);
  }

  const bool quit = ServeLines(*frontend, stdin, STDOUT_FILENO);

  // Daemon mode (--daemon): stdin EOF does not stop the TCP listener —
  // the launch environment may close stdin outright (systemd,
  // containers) — serving continues until SIGINT/SIGTERM. A stdin QUIT
  // still shuts down immediately, and without --daemon EOF keeps its
  // pipe-friendly meaning: drain requests, shut down.
  if (!quit && daemon && listener.fd >= 0) {
    while (!g_stop_requested.load()) {
      if (g_stop_pipe[0] >= 0) {
        pollfd pfd{g_stop_pipe[0], POLLIN, 0};
        poll(&pfd, 1, 500);
      } else {
        const timespec tick{0, 100 * 1000 * 1000};  // 100 ms
        nanosleep(&tick, nullptr);
      }
    }
  }

  if (watcher) watcher->Stop();
  StopListener(listener);
  // Metrics first: the shutdown report scrapes child processes, so they
  // must still be running here.
  DumpStats(*frontend, up_timer.ElapsedMillis());
  if (frontend->procs() != nullptr) frontend->procs()->Stop();
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
