#include "serve/shard_router.h"

#include <algorithm>
#include <utility>

namespace ganc {

namespace {

// Re-wraps `s` with a context prefix, preserving its code (the
// Status(code, msg) constructor is private by design).
Status Prefixed(const Status& s, const std::string& prefix) {
  const std::string msg = prefix + s.message();
  switch (s.code()) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(msg);
    case StatusCode::kNotFound:
      return Status::NotFound(msg);
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(msg);
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(msg);
    case StatusCode::kIOError:
      return Status::IOError(msg);
    case StatusCode::kNotImplemented:
      return Status::NotImplemented(msg);
    case StatusCode::kInternal:
      break;
  }
  return Status::Internal(msg);
}

}  // namespace

ShardRouter::ShardRouter(std::vector<std::unique_ptr<ServiceShard>> shards)
    : shards_(std::move(shards)), num_users_(shards_[0]->num_users()) {}

Result<std::unique_ptr<ShardRouter>> ShardRouter::Load(
    SnapshotKind kind, const std::string& path, const RatingDataset& train,
    size_t num_shards, ServiceConfig config) {
  if (num_shards == 0) {
    return Status::InvalidArgument("shard count must be >= 1");
  }
  std::vector<std::unique_ptr<ServiceShard>> shards;
  shards.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    Result<std::unique_ptr<ServiceShard>> shard = ServiceShard::Load(
        kind, path, train, ShardSpec{i, num_shards}, config);
    if (!shard.ok()) return shard.status();
    shards.push_back(std::move(shard).value());
  }
  return std::unique_ptr<ShardRouter>(new ShardRouter(std::move(shards)));
}

Result<std::unique_ptr<ShardRouter>> ShardRouter::FromShards(
    std::vector<std::unique_ptr<ServiceShard>> shards) {
  if (shards.empty()) {
    return Status::InvalidArgument("router needs at least one shard");
  }
  for (size_t i = 0; i < shards.size(); ++i) {
    if (shards[i] == nullptr) {
      return Status::InvalidArgument("null shard at position " +
                                     std::to_string(i));
    }
    const ShardSpec spec = shards[i]->spec();
    if (spec.index != i || spec.num_shards != shards.size()) {
      return Status::InvalidArgument(
          "shard at position " + std::to_string(i) + " has spec " +
          std::to_string(spec.index) + "/" + std::to_string(spec.num_shards) +
          ", expected " + std::to_string(i) + "/" +
          std::to_string(shards.size()));
    }
  }
  return std::unique_ptr<ShardRouter>(new ShardRouter(std::move(shards)));
}

Result<std::unique_ptr<ShardRouter>> ShardRouter::ForPartition(
    std::unique_ptr<ServiceShard> shard) {
  if (shard == nullptr) {
    return Status::InvalidArgument("router needs at least one shard");
  }
  std::vector<std::unique_ptr<ServiceShard>> shards;
  shards.push_back(std::move(shard));
  return std::unique_ptr<ShardRouter>(new ShardRouter(std::move(shards)));
}

Status ShardRouter::Publish(const std::string& path, uint64_t* max_version) {
  uint64_t max_v = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Status status = shards_[i]->Publish(path);
    if (!status.ok()) {
      const ShardSpec spec = shards_[i]->spec();
      return Prefixed(status, "publish failed on shard " +
                                  std::to_string(spec.index) + "/" +
                                  std::to_string(spec.num_shards) + ": ");
    }
    const uint64_t v = shards_[i]->version();
    if (v > max_v) max_v = v;
  }
  if (max_version != nullptr) *max_version = max_v;
  return Status::OK();
}

Status ShardRouter::AttachStore(
    const std::shared_ptr<const TopNStore>& store) {
  for (auto& shard : shards_) {
    GANC_RETURN_NOT_OK(shard->AttachStore(store));
  }
  return Status::OK();
}

std::vector<uint64_t> ShardRouter::versions() const {
  std::vector<uint64_t> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) out.push_back(shard->version());
  return out;
}

uint64_t ShardRouter::max_version() const {
  uint64_t max_v = 0;
  for (const auto& shard : shards_) {
    const uint64_t v = shard->version();
    if (v > max_v) max_v = v;
  }
  return max_v;
}

ServeStats ShardRouter::stats() const {
  ServeStats total;
  for (const auto& shard : shards_) total.Accumulate(shard->stats());
  return total;
}

MetricsSnapshot ShardRouter::SnapshotMetrics() const {
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  std::vector<const MetricsRegistry*> seen{&MetricsRegistry::Global()};
  for (const auto& shard : shards_) {
    const MetricsRegistry* registry = shard->metrics_registry();
    if (std::find(seen.begin(), seen.end(), registry) != seen.end()) continue;
    seen.push_back(registry);
    snap.MergeFrom(registry->Snapshot());
  }
  return snap;
}

SwapCounters ShardRouter::swap_counters() const {
  SwapCounters total;
  for (const auto& shard : shards_) {
    const SwapCounters c = shard->swap_counters();
    total.published += c.published;
    total.rejected += c.rejected;
  }
  return total;
}

}  // namespace ganc
