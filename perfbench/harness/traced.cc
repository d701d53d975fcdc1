#include "harness/traced.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>

#include "core/coverage.h"
#include "core/ganc.h"
#include "core/pipeline.h"
#include "data/dataset.h"
#include "data/split.h"
#include "recommender/model_io.h"
#include "recommender/psvd.h"
#include "recommender/recommender.h"
#include "recommender/rsvd.h"
#include "recommender/scoring_context.h"
#include "serve/protocol.h"
#include "serve/recommendation_service.h"
#include "serve/result_cache.h"
#include "serve/serve_metrics.h"
#include "serve/service_shard.h"
#include "serve/session_overlay.h"
#include "serve/shard_router.h"
#include "serve/topn_store.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace perfbench {

using ganc::ItemId;
using ganc::UserId;

namespace {

// The memory budget of the traced row-window sweep and fit: the
// train-outofcore workload's `--train-memory-budget=16` (MiB).
constexpr int64_t kTrainBudgetBytes = int64_t{16} << 20;

double MsSince(uint64_t start_ns) {
  return static_cast<double>(MonoNs() - start_ns) / 1e6;
}

/// The trainer `ganc_cli train --arec=<arec>` builds.
std::unique_ptr<ganc::Recommender> MakeTrainer(const std::string& arec) {
  if (arec == "rsvd") {
    return std::make_unique<ganc::RsvdRecommender>(ganc::RsvdConfig{.use_biases = true});
  }
  return std::make_unique<ganc::PsvdRecommender>(
      ganc::PsvdConfig{.num_factors = arec == "psvd100" ? 100 : 10});
}

/// Factor count of the trainer `MakeTrainer(arec)` builds.
int32_t FactorsOf(const std::string& arec) {
  if (arec == "rsvd") return ganc::RsvdConfig{}.num_factors;
  return arec == "psvd100" ? 100 : 10;
}

/// The serving snapshot, loaded the way ganc_serve loads it.
struct Snapshot {
  ganc::RatingDataset train;
  std::unique_ptr<ganc::Recommender> model;
  std::unique_ptr<ganc::GancPipeline> pipeline;
  std::unique_ptr<ganc::CoverageModel> coverage;
  ganc::MetricsRegistry registry;
  std::unique_ptr<ganc::DomainAccountant> domain;
};

bool Load(const DataOptions& d, Snapshot* s, std::map<std::string, double>* v,
          std::string* error) {
  uint64_t t = MonoNs();
  ganc::Result<ganc::RatingDataset> data =
      ganc::RatingDataset::LoadFileAuto(d.dataset_cache, /*prefer_mmap=*/true);
  if (!data.ok()) {
    *error = "dataset: " + data.status().ToString();
    return false;
  }
  (*v)["data.open_ms"] = MsSince(t);
  t = MonoNs();
  if (d.kappa == 1.0) {
    s->train = std::move(data).value();
  } else {
    if (!data->EnsureResident().ok()) {
      *error = "dataset: residency failed";
      return false;
    }
    ganc::Result<ganc::TrainTestSplit> split = ganc::PerUserRatioSplit(
        *data, {.train_ratio = d.kappa, .seed = d.split_seed});
    if (!split.ok()) {
      *error = "split: " + split.status().ToString();
      return false;
    }
    s->train = std::move(split->train);
  }
  if (!s->train.EnsureResident().ok()) {
    *error = "dataset: residency failed";
    return false;
  }
  (*v)["data.resident_ms"] = MsSince(t);

  t = MonoNs();
  if (!d.model.empty()) {
    ganc::Result<std::unique_ptr<ganc::Recommender>> m =
        ganc::LoadModelFileAuto(d.model, /*prefer_mmap=*/true, &s->train);
    if (!m.ok()) {
      *error = "model: " + m.status().ToString();
      return false;
    }
    s->model = std::move(m).value();
  } else {
    ganc::Result<std::unique_ptr<ganc::GancPipeline>> p =
        ganc::GancPipeline::LoadFile(d.pipeline, s->train, 1);
    if (!p.ok()) {
      *error = "pipeline: " + p.status().ToString();
      return false;
    }
    s->pipeline = std::move(p).value();
    s->coverage = ganc::MakeCoverage(s->pipeline->coverage_kind(), s->train,
                                     s->pipeline->seed());
  }
  (*v)["model.load_ms"] = MsSince(t);

  ganc::Result<std::unique_ptr<ganc::DomainAccountant>> acct =
      ganc::DomainAccountant::Create(s->train, s->registry, 0);
  if (!acct.ok()) {
    *error = "domain: " + acct.status().ToString();
    return false;
  }
  s->domain = std::move(acct).value();
  return true;
}

/// One pass over `ops` through the serving layers in ganc_serve's order
/// (frontend parse, route, cache lookup, kernel, select or GANC
/// re-rank, cache insert, domain accounting, format), with a fresh
/// cache. Even-numbered requests record spans into `traced`, odd ones
/// run with spans off, so both halves see the same host state; their
/// summed wall times go to elapsed_ns[1] and elapsed_ns[0].
void Replay(Snapshot& s, const std::vector<Op>& ops, size_t shards, SpanLog& traced,
            uint64_t elapsed_ns[2]) {
  ganc::ServeResultCache cache(4096, 8);
  ganc::ScoringContext ctx;
  SpanLog off(false);
  std::vector<ItemId> out;
  const size_t ni = static_cast<size_t>(s.train.num_items());
  size_t sink = 0;
  elapsed_ns[0] = elapsed_ns[1] = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    SpanLog& log = i % 2 == 0 ? traced : off;
    const uint64_t t0 = MonoNs();
    const uint32_t rid = static_cast<uint32_t>(i);
    const std::string line = RequestLine(ops[i]);
    const int32_t root = log.Begin("request", -1, rid);
    int32_t sp = log.Begin("protocol.parse", root, rid);
    ganc::Result<ganc::ServeRequest> req = ganc::ParseServeRequest(line);
    log.End(sp);
    if (!req.ok()) {
      log.End(root);
      continue;
    }
    sp = log.Begin("router.route", root, rid);
    sink += ganc::ShardForUser(req->user, shards);
    log.End(sp);
    const int n = req->n;
    const ganc::ServeResultCache::Key key{req->user, n, ganc::ExclusionFingerprint({}), 1};
    sp = log.Begin("cache.lookup", root, rid);
    const bool hit = cache.Lookup(key, &out);
    log.End(sp);
    if (!hit) {
      std::vector<UserId>& users = ctx.BatchUsers();
      users.assign(1, req->user);
      const std::span<double> scores = ctx.BatchScores(ni);
      sp = log.Begin("kernel", root, rid);
      if (s.model != nullptr) {
        s.model->ScoreBatchInto(users, scores);
      } else {
        s.pipeline->scorer().ScoreBatchInto(users, scores);
      }
      log.End(sp);
      if (s.model != nullptr) {
        sp = log.Begin("select", root, rid);
        const std::vector<ganc::ScoredItem>& top = ganc::SelectTopKUnrated(
            scores, s.train, req->user, static_cast<size_t>(n), ctx, {});
        out.clear();
        for (const ganc::ScoredItem& si : top) out.push_back(si.item);
        log.End(sp);
      } else {
        sp = log.Begin("rerank", root, rid);
        s.train.UnratedItemsInto(req->user, &ctx.Candidates());
        ganc::GreedyTopNForUserInto(
            scores, s.pipeline->theta()[static_cast<size_t>(req->user)],
            *s.coverage, req->user, ctx.Candidates(), n, ctx, out);
        log.End(sp);
      }
      sp = log.Begin("cache.insert", root, rid);
      cache.Insert(key, out);
      log.End(sp);
    }
    sp = log.Begin("service.domain", root, rid);
    s.domain->Record(out);
    log.End(sp);
    sp = log.Begin("protocol.format", root, rid);
    const std::string response = ganc::FormatTopNResponse(req->user, n, out);
    log.End(sp);
    sink += response.size();
    log.End(root);
    elapsed_ns[i % 2 == 0 ? 1 : 0] += MonoNs() - t0;
  }
  if (sink == 1) std::fputc(' ', stderr);  // keep the work observable
}

/// Kernel cost per user at batch width 8 over the schedule's users.
double KernelB8(Snapshot& s, const std::vector<Op>& ops) {
  ganc::ScoringContext ctx;
  const size_t ni = static_cast<size_t>(s.train.num_items());
  std::vector<UserId> users;
  for (const Op& op : ops) {
    users.push_back(op.user);
    if (users.size() >= 512) break;
  }
  const size_t batches = users.size() / 8;
  if (batches == 0) return 0.0;
  const std::span<double> scores = ctx.BatchScores(8 * ni);
  const uint64_t t0 = MonoNs();
  for (size_t b = 0; b < batches; ++b) {
    const std::span<const UserId> block(users.data() + 8 * b, 8);
    if (s.model != nullptr) {
      s.model->ScoreBatchInto(block, scores);
    } else {
      s.pipeline->scorer().ScoreBatchInto(block, scores);
    }
  }
  return static_cast<double>(MonoNs() - t0) / static_cast<double>(8 * batches);
}

/// Median pipe round trip to a real `--shard=0/N` child for users it
/// owns, minus the median in-process ServiceShard::TopNInto for the same
/// users: the cost of the process boundary itself, in microseconds. Each
/// user is asked twice and only the second, a result-cache hit, is
/// timed, so scoring time and its jitter stay out of the difference. The
/// first kIpcWarm users warm each side up and are not timed.
constexpr size_t kIpcWarm = 100;

double IpcRttUs(const TraceOptions& o, const ganc::RatingDataset& train,
                const std::vector<Op>& ops) {
  const size_t shards = static_cast<size_t>(o.shards);
  std::vector<UserId> users;
  std::set<UserId> seen;
  for (const Op& op : ops) {
    if (ganc::ShardForUser(op.user, shards) == 0 && seen.insert(op.user).second) {
      users.push_back(op.user);
    }
    if (users.size() >= kIpcWarm + 200) break;
  }
  if (users.size() <= kIpcWarm) return 0.0;
  const int n = o.mix.n;

  int req[2], resp[2];
  if (pipe2(req, O_CLOEXEC) != 0 || pipe2(resp, O_CLOEXEC) != 0) return 0.0;
  std::vector<std::string> args = {o.serve_bin};
  args.insert(args.end(), o.child_args.begin(), o.child_args.end());
  args.push_back("--shard=0/" + std::to_string(shards));
  std::vector<char*> argv;  // built before fork: the child only dups and execs
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    dup2(req[0], STDIN_FILENO);
    dup2(resp[1], STDOUT_FILENO);
    const int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) dup2(devnull, STDERR_FILENO);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(req[0]);
  close(resp[1]);
  if (pid < 0) {
    close(req[1]);
    close(resp[0]);
    return 0.0;
  }
  FILE* in = fdopen(resp[0], "r");
  std::vector<double> rtt;
  char* line = nullptr;
  size_t cap = 0;
  bool ready = in != nullptr && getline(&line, &cap, in) > 0 &&
               std::string(line).rfind("READY ", 0) == 0;
  for (size_t i = 0; ready && i < 2 * users.size(); ++i) {
    const std::string msg = RequestLine({0, users[i / 2], n}) + "\n";
    const uint64_t t = MonoNs();
    if (write(req[1], msg.data(), msg.size()) != static_cast<ssize_t>(msg.size()) ||
        getline(&line, &cap, in) <= 0) {
      ready = false;
      break;
    }
    if (i % 2 == 1 && i / 2 >= kIpcWarm) {
      rtt.push_back(static_cast<double>(MonoNs() - t) / 1e3);
    }
  }
  free(line);
  close(req[1]);  // EOF: the child drains and exits
  if (in != nullptr) {
    fclose(in);
  } else {
    close(resp[0]);
  }
  waitpid(pid, nullptr, 0);
  if (!ready) return 0.0;

  const ganc::SnapshotKind kind = o.data.model.empty()
                                      ? ganc::SnapshotKind::kPipeline
                                      : ganc::SnapshotKind::kModel;
  ganc::ServiceConfig config;
  config.default_n = n;
  ganc::Result<std::unique_ptr<ganc::ServiceShard>> shard = ganc::ServiceShard::Load(
      kind, o.data.model.empty() ? o.data.pipeline : o.data.model, train,
      ganc::ShardSpec{0, shards}, config);
  if (!shard.ok()) return 0.0;
  std::vector<double> local;
  std::vector<ItemId> out;
  uint64_t version = 0;
  for (size_t i = 0; i < 2 * users.size(); ++i) {
    const uint64_t t = MonoNs();
    if (!(*shard)->TopNInto(users[i / 2], n, {}, &out, &version).ok()) return 0.0;
    if (i % 2 == 1 && i / 2 >= kIpcWarm) {
      local.push_back(static_cast<double>(MonoNs() - t) / 1e3);
    }
  }
  return Quantile(rtt, 0.5) - Quantile(local, 0.5);
}

/// The top-N store layer, which no benchmarked workload serves from, and
/// the snapshot swap. A store for the 1000 most active users is built
/// through the snapshot's own live path, saved and loaded back
/// (store.load_ms), and attached to an in-process one-shard ShardRouter
/// of the workload's artifact (micro-batching off, so each live answer
/// costs one scoring). 200 head users are asked before and after three
/// PUBLISHes of the same artifact (swap.publish_ms, the median); the
/// share answered from the store is store.hit_ratio before and
/// store.hit_ratio.after_publish after. `ListFor` over all head users
/// gives store.list_ns. Outside the replay, so the ledger never counts it.
void ProbeStoreAndPublish(const TraceOptions& o, Snapshot& s,
                          std::map<std::string, double>* v) {
  const ganc::SnapshotKind kind = s.model != nullptr ? ganc::SnapshotKind::kModel
                                                     : ganc::SnapshotKind::kPipeline;
  const std::string& artifact = s.model != nullptr ? o.data.model : o.data.pipeline;
  const int n = o.mix.n;
  const std::vector<UserId> head = ganc::HeadUsersByActivity(s.train, 1000);
  if (head.size() < 200) return;
  ganc::ServiceConfig config;
  config.micro_batching = false;
  ganc::Result<std::unique_ptr<ganc::RecommendationService>> service =
      s.model != nullptr ? ganc::RecommendationService::Create(*s.model, s.train, config)
                         : ganc::RecommendationService::Create(*s.pipeline, s.train, config);
  const std::string path = o.scratch_dir + "/probe_store.gts";
  ganc::Result<ganc::TopNStore> built =
      service.ok() ? (*service)->BuildStore(head, n)
                   : ganc::Result<ganc::TopNStore>(service.status());
  if (!built.ok() || !built->SaveFile(path).ok()) return;
  uint64_t t = MonoNs();
  ganc::Result<ganc::TopNStore> loaded =
      ganc::TopNStore::LoadFileAuto(path, /*prefer_mmap=*/true);
  (*v)["store.load_ms"] = MsSince(t);
  std::remove(path.c_str());
  if (!loaded.ok()) return;
  const auto store = std::make_shared<const ganc::TopNStore>(std::move(loaded).value());

  size_t sink = 0;
  constexpr int kPasses = 10;
  t = MonoNs();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const UserId u : head) sink += store->ListFor(u).size();
  }
  (*v)["store.list_ns"] = static_cast<double>(MonoNs() - t) /
                          static_cast<double>(kPasses * head.size());
  if (sink == 1) std::fputc(' ', stderr);  // keep the work observable

  ganc::Result<std::unique_ptr<ganc::ShardRouter>> router =
      ganc::ShardRouter::Load(kind, artifact, s.train, 1, config);
  if (!router.ok() || !(*router)->AttachStore(store).ok()) return;
  std::vector<ItemId> out;
  const auto store_share = [&]() {
    const uint64_t before = (*router)->stats().store_hits;
    for (size_t i = 0; i < 200; ++i) {
      if (!(*router)->TopNInto(head[i], n, {}, &out).ok()) return -1.0;
    }
    return static_cast<double>((*router)->stats().store_hits - before) / 200.0;
  };
  (*v)["store.hit_ratio"] = store_share();
  std::vector<double> publish_ms;
  for (int i = 0; i < 3; ++i) {
    t = MonoNs();
    if (!(*router)->Publish(artifact).ok()) return;
    publish_ms.push_back(MsSince(t));
  }
  (*v)["swap.publish_ms"] = Quantile(publish_ms, 0.5);
  (*v)["store.hit_ratio.after_publish"] = store_share();
}

/// The session layer, which no benchmarked workload uses: one session
/// per replayed request's user consumes two items, then its exclusions
/// are collected.
void ProbeSessions(const std::vector<Op>& ops, std::map<std::string, double>* v) {
  if (ops.empty()) return;
  ganc::SessionRegistry sessions;
  std::vector<ItemId> excl;
  uint64_t mark = 0, collect = 0;
  for (const Op& op : ops) {
    const UserId u = op.user;
    const std::string session = std::to_string(u);
    const ItemId items[2] = {u % 64, (u / 64) % 64};
    uint64_t t = MonoNs();
    sessions.MarkConsumed(session, u, items);
    mark += MonoNs() - t;
    t = MonoNs();
    sessions.CollectExclusions(session, u, {}, &excl);
    collect += MonoNs() - t;
  }
  const double count = static_cast<double>(ops.size());
  (*v)["session.mark_ns"] = static_cast<double>(mark) / count;
  (*v)["session.collect_ns"] = static_cast<double>(collect) / count;
}

/// Training layers on the workload's train split: epoch time through the
/// epoch callback (a trainer without epochs counts its whole fit as one),
/// the artifact save, and one compute-free budgeted row-window sweep.
void TrainLayers(const TraceOptions& o, ganc::RatingDataset& train,
                 std::map<std::string, double>* v) {
  const int64_t budget = kTrainBudgetBytes;
  train.set_train_budget_bytes(budget);
  uint64_t t = MonoNs();
  int64_t windows = 0;
  const ganc::Status swept = train.SweepRowWindows(
      budget, 1, [&](const ganc::RowWindow&) {
        ++windows;
        return ganc::Status::OK();
      });
  (*v)["data.sweep_ms"] = swept.ok() ? MsSince(t) : 0.0;
  (*v)["data.sweep_windows"] = static_cast<double>(windows);

  std::unique_ptr<ganc::Recommender> rec = MakeTrainer(o.arec);
  std::unique_ptr<ganc::ThreadPool> pool;
  if (o.train_threads != 1) {
    pool = std::make_unique<ganc::ThreadPool>(static_cast<size_t>(o.train_threads));
  }
  std::vector<double> epochs;
  uint64_t epoch_start = MonoNs();
  rec->SetEpochCallback([&](int32_t, int32_t) {
    epochs.push_back(MsSince(epoch_start));
    epoch_start = MonoNs();
  });
  t = MonoNs();
  const bool fitted = rec->Fit(train, pool.get()).ok();
  const double fit_ms = MsSince(t);
  if (epochs.empty()) epochs.push_back(fit_ms);
  (*v)["train.epoch_ms"] = fitted ? Quantile(epochs, 0.5) : 0.0;
  const std::string path = o.scratch_dir + "/trace_model.gam";
  t = MonoNs();
  const bool saved = fitted && ganc::SaveModelFile(*rec, path).ok();
  (*v)["train.save_ms"] = saved ? MsSince(t) : 0.0;
  std::remove(path.c_str());
}

}  // namespace

bool RunTraced(const TraceOptions& o, TraceReport* report, std::string* error) {
  Snapshot s;
  if (!Load(o.data, &s, &report->values, error)) return false;
  std::vector<Op> ops;
  for (int r = 1; r <= o.rounds; ++r) {
    const std::vector<Op> round =
        MakeSchedule(o.mix, o.rate, o.seconds, PhaseSeed(o.seed, "low" + std::to_string(r)));
    ops.insert(ops.end(), round.begin(), round.end());
  }
  const size_t shards = static_cast<size_t>(std::max(o.shards, 1));

  // One warm-up pass faults the mapped model and dataset in; the
  // measured pass traces every other request.
  uint64_t elapsed_ns[2];
  SpanLog warm(false);
  Replay(s, ops, shards, warm, elapsed_ns);
  SpanLog on(true);
  Replay(s, ops, shards, on, elapsed_ns);
  report->requests = (ops.size() + 1) / 2;
  report->traced_ns =
      static_cast<double>(elapsed_ns[1]) / static_cast<double>(report->requests);
  report->untraced_ns = static_cast<double>(elapsed_ns[0]) /
                        static_cast<double>(std::max<size_t>(ops.size() / 2, 1));
  report->layers = SummarizeLayers(on.spans());

  const double items = static_cast<double>(s.train.num_items());
  const double factors = static_cast<double>(FactorsOf(o.arec));
  // Bytes a single-user score pass reads, from the table sizes: item
  // factors and item biases, plus the user's factor row.
  report->values["kernel.bytes_per_user"] = items * (factors * 8 + 8) + factors * 8;
  report->values["kernel.ns_per_user.b8"] = KernelB8(s, ops);
  report->values["ipc.rtt_us"] =
      o.serve_bin.empty() ? 0.0 : IpcRttUs(o, s.train, ops);
  ProbeStoreAndPublish(o, s, &report->values);
  ProbeSessions(ops, &report->values);
  TrainLayers(o, s.train, &report->values);
  return true;
}

Ledger BuildLedger(const TraceReport& report, const TimedRun& timed) {
  Ledger ledger;
  ledger.client_us = timed.client_us;
  ledger.Add("frontend.io", timed.client_us - timed.line_us);
  const double requests = static_cast<double>(std::max<uint64_t>(report.requests, 1));
  for (const char* name : {"protocol.parse", "router.route", "cache.lookup", "kernel",
                           "select", "rerank", "cache.insert", "service.domain",
                           "protocol.format", "request"}) {
    const auto it = report.layers.find(name);
    const double total_ns = it == report.layers.end() ? 0.0 : it->second.total_ns;
    const std::string row = std::string(name) == "request" ? "request.glue" : name;
    ledger.Add(row, total_ns / requests / 1e3);
  }
  ledger.Add("batcher.wait", timed.wait_us * timed.live_share);
  const auto ipc = report.values.find("ipc.rtt_us");
  ledger.Add("ipc.rtt", ipc == report.values.end() ? 0.0 : std::max(0.0, ipc->second));
  return ledger;
}

}  // namespace perfbench
