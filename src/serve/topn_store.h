// Precomputed top-N store: offline-materialized recommendation lists for
// head users, serialized as artifact kind 4 (see docs/FORMATS.md).
//
// Real request traffic is popularity-skewed over users too: a small head
// of active users generates most requests. Precomputing their default
// top-N offline turns those requests into one O(1) flat-array slice at
// serve time. Storage is flat and offset-indexed — one offsets array of
// num_users + 1 entries over one contiguous item array (the same layout
// ItemSimilarityIndex uses) — so lookup is two loads, users outside the
// store simply own an empty slice, and a request for n smaller than the
// stored list length is answered by the list's prefix (top-N selection
// is best-first, so every prefix of a stored list is itself exact).
//
// A store is only valid against the exact snapshot it was built from:
// it records the train-set fingerprint and the source (model or
// pipeline) name, and RecommendationService::AttachStore refuses a
// mismatch, mirroring the model-artifact rebinding rules.

#ifndef GANC_SERVE_TOPN_STORE_H_
#define GANC_SERVE_TOPN_STORE_H_

#include <cstdint>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "util/serialize.h"
#include "util/status.h"

namespace ganc {

/// Immutable flat store of per-user precomputed top-N lists. The flat
/// arrays are exposed through spans that either view owned vectors
/// (FromLists) or borrow from a loaded artifact's bytes (Load): over a
/// file mapping, cold-open validates offsets in O(users) and pages
/// lists in on first request. Move-only: the spans alias owned heap
/// buffers or the shared artifact bytes.
class TopNStore {
 public:
  TopNStore() = default;
  TopNStore(TopNStore&&) noexcept = default;
  TopNStore& operator=(TopNStore&&) noexcept = default;
  TopNStore(const TopNStore&) = delete;
  TopNStore& operator=(const TopNStore&) = delete;

  /// Assembles a store from (user, list) pairs. `lists` need not cover
  /// every user and may arrive in any order; ids must be unique and in
  /// [0, num_users), every list at most `top_n` long with item ids in
  /// [0, num_items).
  static Result<TopNStore> FromLists(
      int32_t num_users, int32_t num_items, int32_t top_n,
      uint64_t train_fingerprint, std::string source,
      std::span<const std::pair<UserId, std::vector<ItemId>>> lists);

  /// The precomputed list of `u`, best-first; empty when `u` is not in
  /// the store. Borrowed from the store.
  std::span<const ItemId> ListFor(UserId u) const {
    const size_t uu = static_cast<size_t>(u);
    return items_view_.subspan(offsets_view_[uu],
                               offsets_view_[uu + 1] - offsets_view_[uu]);
  }

  int32_t num_users() const { return num_users_; }
  int32_t num_items() const { return num_items_; }
  /// The list length the store was built for (requests with n larger
  /// than this must fall back to live scoring).
  int32_t top_n() const { return top_n_; }
  uint64_t train_fingerprint() const { return train_fingerprint_; }
  /// Name of the model / pipeline the lists were computed with.
  const std::string& source() const { return source_; }
  /// Users with a non-empty precomputed list.
  size_t num_lists() const { return num_lists_; }
  /// Total stored item ids.
  size_t total_items() const { return items_view_.size(); }
  /// True when the flat arrays are borrowed from a file mapping.
  bool IsMapped() const {
    return source_bytes_ != nullptr && source_bytes_->mapped();
  }

  /// Serializes the store as a kind-4 artifact (docs/FORMATS.md).
  Status Save(std::ostream& os) const;
  Status SaveFile(const std::string& path) const;

  /// Restores a store written by Save as a zero-copy view over the
  /// reader's bytes. Offsets (monotone, list lengths) are validated
  /// before any state is returned; item ids are range-checked too
  /// unless the bytes are a file mapping (stored ids are only ever
  /// emitted, never indexed, so the mapped cold path stays O(users)).
  static Result<TopNStore> Load(ArtifactReader& r);

  /// Load from a file path, mapped when `prefer_mmap` (and the platform
  /// can map files), read() into memory otherwise.
  static Result<TopNStore> LoadFileAuto(const std::string& path,
                                        bool prefer_mmap);

 private:
  void BindOwnedViews() {
    offsets_view_ = offsets_;
    items_view_ = items_;
  }

  int32_t num_users_ = 0;
  int32_t num_items_ = 0;
  int32_t top_n_ = 0;
  uint64_t train_fingerprint_ = 0;
  std::string source_;
  size_t num_lists_ = 0;
  // Owned storage (empty when the views borrow artifact bytes).
  std::vector<uint64_t> offsets_;
  std::vector<ItemId> items_;
  // num_users_ + 1 offsets over the flattened user-major lists.
  std::span<const uint64_t> offsets_view_;
  std::span<const ItemId> items_view_;
  std::shared_ptr<const ArtifactBytes> source_bytes_;
};

/// The `count` most active users of `train` (ties broken by smaller id),
/// returned ascending by id — the natural head-user set to precompute.
/// count >= num_users (or 0) selects everyone.
std::vector<UserId> HeadUsersByActivity(const RatingDataset& train,
                                        size_t count);

}  // namespace ganc

#endif  // GANC_SERVE_TOPN_STORE_H_
