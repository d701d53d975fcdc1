// ServiceShard: one user-partition of the serving tier, with
// zero-downtime snapshot swap.
//
// A shard wraps everything PR 5 called "the service" — snapshot, result
// cache, precomputed-store segment, micro-batcher — as one swappable
// unit behind a stable ownership contract: the shard owns a
// std::shared_ptr<RecommendationService> guarded by a mutex, and every
// request pins (copies) the pointer once at entry, so a request runs
// start-to-finish against exactly one snapshot no matter how many
// Publish calls land mid-flight. Publish loads the replacement artifact
// in the background (same train set, fingerprint validated by the
// artifact loader), swaps the pointer under the same mutex — a
// critical section of one shared_ptr copy or swap, which a sanitizer
// can see, unlike libstdc++'s lock-bit atomic<shared_ptr> — and parks
// the old service until its last in-flight request releases it — the
// old MicroBatcher's destructor drains its queue, so no request is
// dropped, and the version-keyed result cache (serve/result_cache.h)
// invalidates implicitly because the replacement service carries a
// fresh snapshot_version. Nothing on the request path takes the publish
// lock.
//
// Sharding: ownership is ShardForUser(user) == spec.index, a fixed
// splitmix64-style hash of the user id. The hash is a persisted
// contract — transcripts, store segments, and the multi-process router
// all assume the same user lands on the same shard across runs and
// restarts — so its golden values are pinned by
// tests/serve/shard_router_test.cc and it must never change.
//
// On publish the attached store segment is dropped, not re-attached: a
// store records only (fingerprint, source name), which cannot
// distinguish a retrained model with the same name, so silently
// re-attaching could serve stale lists as fresh ones. Callers that want
// store acceleration after a swap attach a new segment explicitly.

#ifndef GANC_SERVE_SERVICE_SHARD_H_
#define GANC_SERVE_SERVICE_SHARD_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "serve/recommendation_service.h"
#include "serve/topn_store.h"
#include "util/status.h"

namespace ganc {

/// Stable user -> shard map (splitmix64 finalizer over the id). This is
/// a persisted contract shared by in-process routing, the multi-process
/// router, and per-shard store segments; golden values are pinned in
/// tests/serve/shard_router_test.cc. Requires num_shards >= 1.
inline size_t ShardForUser(UserId user, size_t num_shards) {
  uint64_t x = static_cast<uint64_t>(static_cast<uint32_t>(user));
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<size_t>(x % static_cast<uint64_t>(num_shards));
}

/// What kind of artifact a shard (re)loads on Publish.
enum class SnapshotKind {
  kModel,     ///< .gam — RecommendationService::LoadModelService
  kPipeline,  ///< .gap — RecommendationService::LoadPipelineService
};

/// This shard's slot in the partition.
struct ShardSpec {
  size_t index = 0;
  size_t num_shards = 1;
};

/// Monotonic swap counters.
struct SwapCounters {
  uint64_t published = 0;  ///< successful snapshot swaps
  uint64_t rejected = 0;   ///< failed publishes (old snapshot kept)
};

class ServiceShard {
 public:
  /// Loads the initial snapshot from `path` and wraps it as shard
  /// `spec`. `train` must outlive the shard (Publish reloads against
  /// it, and the artifact loaders validate its fingerprint).
  static Result<std::unique_ptr<ServiceShard>> Load(
      SnapshotKind kind, const std::string& path, const RatingDataset& train,
      ShardSpec spec, ServiceConfig config);

  /// Wraps an already-constructed service (in-process benches and tests
  /// that train rather than load). Publish still works: it loads the
  /// replacement from the published path with `kind`/`config`.
  static Result<std::unique_ptr<ServiceShard>> Adopt(
      std::unique_ptr<RecommendationService> service, SnapshotKind kind,
      const RatingDataset& train, ShardSpec spec, ServiceConfig config);

  /// Answers one request against the snapshot current at entry. When
  /// `served_version` is non-null it receives the snapshot_version of
  /// the service that computed the list — the attribution the
  /// swap-under-load tests key on. In-range users this shard does not
  /// own are rejected (misrouted request); out-of-range users fall
  /// through to the service so the error text matches an unsharded
  /// deployment byte-for-byte.
  Status TopNInto(UserId user, int n, std::span<const ItemId> exclusions,
                  std::vector<ItemId>* out,
                  uint64_t* served_version = nullptr,
                  RequestTrace* trace = nullptr);

  /// Loads the artifact at `path` (fingerprint-validated against the
  /// bound train set), then atomically swaps it in. On failure the old
  /// snapshot keeps serving untouched. Serialized against concurrent
  /// Publish calls; never blocks the request path.
  Status Publish(const std::string& path);

  /// Attaches this shard's segment of a precomputed top-N store: with
  /// one shard the store is attached whole, otherwise a filtered copy
  /// holding only owned users is built (same fingerprint/source/top_n,
  /// so the service-side validity checks still apply).
  Status AttachStore(const std::shared_ptr<const TopNStore>& store);

  /// True when `user` hashes to this shard (single-shard owns everyone).
  bool OwnsUser(UserId user) const {
    return spec_.num_shards <= 1 ||
           ShardForUser(user, spec_.num_shards) == spec_.index;
  }

  ShardSpec spec() const { return spec_; }
  /// Version / source of the snapshot serving right now.
  uint64_t version() const { return Pin()->snapshot_version(); }
  std::string source() const { return Pin()->source(); }
  int32_t num_users() const { return num_users_; }
  int32_t num_items() const { return Pin()->num_items(); }
  int default_n() const { return config_.default_n; }

  /// Lifetime totals: the live snapshot's counters plus every retired
  /// snapshot's (exact — a retired service's stats are folded in once
  /// its last request completes).
  ServeStats stats() const;
  SwapCounters swap_counters() const;

  /// Registry the live snapshot's instruments resolve from — stable
  /// across Publish (the replacement service inherits the shard's
  /// configured registry), so counters are monotonic per shard. Routers
  /// dedupe their metrics merge on this pointer.
  MetricsRegistry* metrics_registry() const {
    return Pin()->metrics_registry();
  }

 private:
  ServiceShard(std::unique_ptr<RecommendationService> service,
               SnapshotKind kind, const RatingDataset& train, ShardSpec spec,
               ServiceConfig config);

  std::shared_ptr<RecommendationService> Pin() const {
    std::lock_guard<std::mutex> lock(service_mu_);
    return service_;
  }

  /// Folds retired services whose last pin has been released into
  /// `retired_stats_` and drops them. Called under `retired_mu_`.
  void PruneRetiredLocked() const;

  const SnapshotKind kind_;
  const RatingDataset* train_;
  const ShardSpec spec_;
  const ServiceConfig config_;
  const int32_t num_users_;

  mutable std::mutex service_mu_;  ///< guards the service_ pointer only
  std::shared_ptr<RecommendationService> service_;

  mutable std::mutex publish_mu_;  ///< serializes Publish (load + swap)
  uint64_t published_ = 0;
  uint64_t rejected_ = 0;

  mutable std::mutex retired_mu_;
  mutable std::vector<std::shared_ptr<RecommendationService>> retired_;
  mutable ServeStats retired_stats_;
};

}  // namespace ganc

#endif  // GANC_SERVE_SERVICE_SHARD_H_
