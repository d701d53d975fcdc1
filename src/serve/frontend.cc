#include "serve/frontend.h"

#include <cstdio>
#include <span>
#include <utility>

namespace ganc {

std::string FormatStats(const MetricsSnapshot& snap) {
  const auto count = [&](const char* name) {
    return std::to_string(snap.CounterValue(name));
  };
  const uint64_t batches = snap.CounterValue("serve_batches_total");
  char mean_fill[32];
  std::snprintf(mean_fill, sizeof(mean_fill), "%.2f",
                batches == 0 ? 0.0
                             : static_cast<double>(snap.CounterValue(
                                   "serve_batched_requests_total")) /
                                   static_cast<double>(batches));
  return FormatOk("requests=" + count("serve_requests_total") +
                  " cache_hits=" + count("serve_cache_hits_total") +
                  " store_hits=" + count("serve_store_hits_total") +
                  " live=" + count("serve_live_scored_total") +
                  " batches=" + std::to_string(batches) +
                  " mean_fill=" + mean_fill);
}

Frontend::Frontend(std::unique_ptr<ShardRouter> router)
    : router_(std::move(router)),
      instruments_(ResolveInstruments(*router_->shard(0).metrics_registry())) {}

Frontend::Frontend(std::unique_ptr<ProcessRouter> procs)
    : procs_(std::move(procs)),
      instruments_(ResolveInstruments(MetricsRegistry::Global())) {}

Frontend::Instruments Frontend::ResolveInstruments(MetricsRegistry& r) {
  Instruments in;
  in.lines =
      r.GetCounter("serve_lines_total", "Request lines received by the frontend.");
  in.parse_errors = r.GetCounter("serve_parse_errors_total",
                                 "Request lines rejected by the parser.");
  in.parse_ns =
      r.GetHistogram("serve_parse_ns", "Protocol parse latency, nanoseconds.");
  in.line_ns = r.GetHistogram(
      "serve_line_ns",
      "Full line handling latency (parse through response formatting), "
      "nanoseconds.");
  return in;
}

std::string Frontend::Handle(std::string_view line, bool* quit) {
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  instruments_.lines->Increment();
  // One arrival sequence per Frontend, shared by every caller, drives
  // deterministic sampling in request arrival order.
  TraceRing& ring = TraceRing::Global();
  const uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
  std::unique_ptr<RequestTrace> trace;
  if (ring.ShouldSample(seq)) trace = ring.Begin(seq);
  const uint64_t start_ns = MonotonicNowNs();
  std::string response = Dispatch(line, trace.get(), quit);
  const uint64_t end_ns = MonotonicNowNs();
  instruments_.line_ns->Observe(end_ns - start_ns);
  if (trace != nullptr) {
    trace->Stamp(TraceStage::kRespond, end_ns);
    ring.Commit(std::move(trace));
  }
  return response;
}

std::string Frontend::Dispatch(std::string_view line, RequestTrace* trace,
                               bool* quit) {
  const uint64_t parse_start = MonotonicNowNs();
  Result<ServeRequest> parsed = ParseServeRequest(line);
  const uint64_t parse_end = MonotonicNowNs();
  instruments_.parse_ns->Observe(parse_end - parse_start);
  if (trace != nullptr) trace->Stamp(TraceStage::kParse, parse_end);
  if (!parsed.ok()) {
    instruments_.parse_errors->Increment();
    return FormatError(parsed.status().message());
  }
  const ServeRequest& req = *parsed;
  switch (req.command) {
    case ServeCommand::kTopN:
    case ServeCommand::kTopNV:
    case ServeCommand::kConsume: {
      if (procs_ == nullptr) {
        return req.command == ServeCommand::kConsume ? Consume(req)
                                                     : TopN(req, trace);
      }
      // Verbatim: the owning child parses the line and answers it, so
      // its reply (errors included) is byte-identical to an in-process
      // shard's.
      Result<std::string> reply =
          procs_->Forward(procs_->IndexFor(req.user), std::string(line));
      return reply.ok() ? std::move(reply).value()
                        : FormatError(reply.status().message());
    }
    case ServeCommand::kPublish: {
      uint64_t version = 0;
      if (Status s = Publish(req.path, &version); !s.ok()) {
        return FormatError(s.message());
      }
      return FormatOk("version=" + std::to_string(version) +
                      (num_shards() > 1
                           ? " shards=" + std::to_string(num_shards())
                           : " source=" + router_->source()));
    }
    case ServeCommand::kVersion: {
      Result<std::vector<uint64_t>> versions =
          procs_ ? procs_->Versions()
                 : Result<std::vector<uint64_t>>(router_->versions());
      if (!versions.ok()) return FormatError(versions.status().message());
      if (versions->size() == 1) {
        return FormatOk("version=" + std::to_string(versions->front()) +
                        " source=" + router_->source());
      }
      std::string list;
      for (const uint64_t v : *versions) {
        if (!list.empty()) list.push_back(',');
        list += std::to_string(v);
      }
      return FormatOk("versions=" + list);
    }
    case ServeCommand::kShards: {
      if (partition()) {
        const ShardSpec spec = router_->shard(0).spec();
        return FormatOk("shard=" + std::to_string(spec.index) + "/" +
                        std::to_string(spec.num_shards) +
                        " users=" + std::to_string(router_->num_users()) +
                        " version=" + std::to_string(router_->max_version()));
      }
      return FormatOk(
          "shards=" + std::to_string(num_shards()) +
          (procs_ ? " mode=multiprocess users=" : " mode=inprocess users=") +
          std::to_string(procs_ ? procs_->num_users() : router_->num_users()));
    }
    case ServeCommand::kStats:
    case ServeCommand::kMetrics:
    case ServeCommand::kMetricSnap: {
      Result<MetricsSnapshot> snap = GatherMetrics();
      if (!snap.ok()) return FormatError(snap.status().message());
      if (req.command == ServeCommand::kStats) return FormatStats(*snap);
      if (req.command == ServeCommand::kMetrics) {
        return FramedResponse("metrics", snap->RenderExposition());
      }
      return FormatOk("metricsnap " + snap->Serialize());
    }
    case ServeCommand::kTrace:
      return Traces(req.n == 0 ? 16 : req.n);
    case ServeCommand::kPing:
      return FormatOk("pong");
    case ServeCommand::kQuit:
      *quit = true;
      return FormatOk("bye");
  }
  return FormatError("unreachable");
}

std::string Frontend::TopN(const ServeRequest& req, RequestTrace* trace) {
  std::vector<ItemId> exclusions;
  std::span<const ItemId> excl = req.items;
  if (!req.session.empty()) {
    sessions_.CollectExclusions(req.session, req.user, req.items, &exclusions);
    excl = exclusions;
  }
  std::vector<ItemId> items;
  uint64_t version = 0;
  if (Status s =
          router_->TopNInto(req.user, req.n, excl, &items, &version, trace);
      !s.ok()) {
    return FormatError(s.message());
  }
  const int n = req.n == 0 ? router_->default_n() : req.n;
  return req.command == ServeCommand::kTopNV
             ? FormatVersionedTopNResponse(req.user, n, version, items)
             : FormatTopNResponse(req.user, n, items);
}

std::string Frontend::Consume(const ServeRequest& req) {
  for (const ItemId i : req.items) {
    if (i < 0 || i >= router_->num_items()) {
      return FormatError("consumed item id out of range");
    }
  }
  if (req.user < 0 || req.user >= router_->num_users()) {
    return FormatError("user id out of range");
  }
  sessions_.MarkConsumed(req.session, req.user, req.items);
  return FormatOk("consumed=" + std::to_string(req.items.size()));
}

// The router's own ring holds the timelines of lines it handled; in the
// multi-process topology (where the ring has parse/respond only) each
// child's shard-attributed timelines follow.
std::string Frontend::Traces(int count) {
  std::string payload;
  for (const RequestTrace& t :
       TraceRing::Global().MostRecent(static_cast<size_t>(count))) {
    payload += FormatTraceLine(t);
    payload.push_back('\n');
  }
  for (size_t k = 0; procs_ != nullptr && k < procs_->num_shards(); ++k) {
    Result<std::vector<std::string>> lines =
        procs_->ForwardFramed(k, "TRACE n=" + std::to_string(count));
    if (!lines.ok()) return FormatError(lines.status().message());
    for (const std::string& l : *lines) {
      payload += l;
      payload.push_back('\n');
    }
  }
  return FramedResponse("traces", payload);
}

Status Frontend::Publish(const std::string& path, uint64_t* max_version) {
  return procs_ ? procs_->Publish(path, max_version)
                : router_->Publish(path, max_version);
}

Result<MetricsSnapshot> Frontend::GatherMetrics() {
  if (router_ != nullptr) return router_->SnapshotMetrics();
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  GANC_RETURN_NOT_OK(procs_->MergeMetrics(&snap));
  return snap;
}

std::string Frontend::Describe() const {
  if (procs_ != nullptr) {
    return std::to_string(procs_->num_shards()) + " shards, multiprocess";
  }
  if (partition()) {
    const ShardSpec spec = router_->shard(0).spec();
    return "shard " + std::to_string(spec.index) + "/" +
           std::to_string(spec.num_shards);
  }
  return std::to_string(router_->num_shards()) + " in-process shard(s)";
}

size_t Frontend::num_shards() const {
  return procs_ ? procs_->num_shards() : router_->num_shards();
}

}  // namespace ganc
