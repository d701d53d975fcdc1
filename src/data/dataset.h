// Sparse user-item rating data model (Section II-A of the paper).
//
// A RatingDataset stores a bag of (user, item, rating) observations plus
// the per-user and per-item inverted indexes the algorithms need:
//   I_u^R : items rated by user u          -> ItemsOf(u)
//   U_i^R : users who rated item i         -> UsersOf(i)
//   f_i^R : popularity of item i in train  -> Popularity(i)
// Users and items are dense 0-based ids; loaders remap external ids.
//
// Storage is flat CSR (row offsets + one contiguous (item, value)
// array), exposed through spans. The spans either view owned vectors
// (builder: everything materialized and validated up front) or borrow
// straight out of a v3 dataset cache's bytes (Load / LoadFileAuto,
// over a file mapping or a read() buffer): cold-start then touches
// O(users) bytes — dims, offsets, fingerprint — and, when mapped, user
// rows page in on demand. The CSC item index and the insertion-order
// ratings() vector are derived data; a loaded dataset materializes them
// lazily in EnsureResident(), which also performs the O(nnz) row
// validation.
//
// Most consumers never need residency: every Fit, the row-oriented
// accessors (ItemsOf/Activity/HasRating/GetRating/UnratedItems*),
// GlobalMeanRating, PopularityVector, Fingerprint, and the chunked
// SweepRowWindows iterator all work straight off the borrowed rows. Only
// the APIs documented "Requires residency" below — ratings(), UsersOf,
// Popularity, and the ratio splitters built on them — go through
// EnsureResident() first; the store-backed serving path never does.
//
// Out-of-core training sweeps rows in budgeted windows: PlanRowWindows
// partitions the user range so each window's row payload fits a byte
// budget, and SweepRowWindows validates + visits each window and then
// drops its mapped pages, so a full epoch over a mapped dataset larger
// than memory peaks at roughly the budget. set_train_budget_bytes records
// the caller's budget on the dataset for trainers to pick up.

#ifndef GANC_DATA_DATASET_H_
#define GANC_DATA_DATASET_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "util/serialize.h"
#include "util/status.h"

namespace ganc {

using UserId = int32_t;
using ItemId = int32_t;

/// One observed interaction: user u gave item i the value `rating`.
struct Rating {
  UserId user = 0;
  ItemId item = 0;
  float value = 0.0f;
};

/// An (item, rating) pair inside one user's profile. The in-memory
/// layout doubles as the v3 wire layout of the dataset-cache rows
/// section on little-endian hosts (see docs/FORMATS.md).
struct ItemRating {
  ItemId item = 0;
  float value = 0.0f;
};
static_assert(sizeof(ItemRating) == 8);

/// A (user, rating) pair inside one item's audience.
struct UserRating {
  UserId user = 0;
  float value = 0.0f;
};

/// One window of consecutive CSR user rows, planned by PlanRowWindows.
struct RowWindow {
  UserId begin = 0;  ///< first user in the window
  UserId end = 0;    ///< one past the last user
  int64_t nnz = 0;   ///< ratings in [begin, end)
};

/// Immutable sparse rating matrix with CSR-style per-user and CSC-style
/// per-item views. Construct through RatingDatasetBuilder or the binary
/// cache loader. Move-only: the CSR spans alias either owned heap
/// buffers (which transfer on move) or shared artifact bytes.
class RatingDataset {
 public:
  RatingDataset();
  ~RatingDataset();
  RatingDataset(RatingDataset&&) noexcept;
  RatingDataset& operator=(RatingDataset&&) noexcept;
  RatingDataset(const RatingDataset&) = delete;
  RatingDataset& operator=(const RatingDataset&) = delete;

  int32_t num_users() const { return num_users_; }
  int32_t num_items() const { return num_items_; }
  int64_t num_ratings() const { return nnz_; }

  /// Fraction of the full matrix that is observed, in [0,1].
  double Density() const;

  /// All observations in insertion order. Requires residency (loaded
  /// datasets: EnsureResident() first).
  const std::vector<Rating>& ratings() const { return ratings_; }

  /// Items rated by `u`, ascending by item id.
  std::span<const ItemRating> ItemsOf(UserId u) const {
    const size_t uu = static_cast<size_t>(u);
    const size_t begin = static_cast<size_t>(user_offsets_view_[uu]);
    const size_t end = static_cast<size_t>(user_offsets_view_[uu + 1]);
    return rows_view_.subspan(begin, end - begin);
  }

  /// Users who rated `i`, ascending by user id. Requires residency.
  std::span<const UserRating> UsersOf(ItemId i) const {
    const size_t ii = static_cast<size_t>(i);
    const size_t begin = static_cast<size_t>(item_offsets_[ii]);
    const size_t end = static_cast<size_t>(item_offsets_[ii + 1]);
    return {item_cols_.data() + begin, end - begin};
  }

  /// Number of train observations of item i (f_i^R = |U_i^R|).
  /// Requires residency.
  int32_t Popularity(ItemId i) const {
    const size_t ii = static_cast<size_t>(i);
    return static_cast<int32_t>(item_offsets_[ii + 1] - item_offsets_[ii]);
  }

  /// Popularity of every item as a dense vector indexed by item id.
  /// Computed by a budgeted row sweep: works on loaded datasets without
  /// residency, and counts are exact integers either way.
  std::vector<double> PopularityVector() const;

  /// CSR offset of user u's row, for u in [0, num_users]:
  /// RowStart(u + 1) - RowStart(u) == Activity(u). Lets trainers map a
  /// global row position back to its user with a binary search (the
  /// blocked BPR sampler) without materializing anything.
  uint64_t RowStart(UserId u) const {
    return user_offsets_view_[static_cast<size_t>(u)];
  }

  /// Number of items user u rated (|I_u^R|, "user activity").
  int32_t Activity(UserId u) const {
    const size_t uu = static_cast<size_t>(u);
    return static_cast<int32_t>(user_offsets_view_[uu + 1] -
                                user_offsets_view_[uu]);
  }

  /// True when user u has rated item i (binary search in the user's row).
  bool HasRating(UserId u, ItemId i) const;

  /// Rating of u on i, or error when unobserved.
  Result<float> GetRating(UserId u, ItemId i) const;

  /// Mean of all rating values; 0 for an empty dataset. Computed by a
  /// budgeted row sweep in CSR (user-major) order, so loaded datasets
  /// need no residency and the result is independent of the budget.
  double GlobalMeanRating() const;

  /// All item ids NOT rated by u, ascending: the "all unseen train items"
  /// candidate set from which every top-N set is drawn.
  std::vector<ItemId> UnratedItems(UserId u) const;

  /// Allocation-free variant: overwrites `*out` with the unrated items of
  /// `u`, reusing its capacity (the batched scoring path's candidate
  /// generation).
  void UnratedItemsInto(UserId u, std::vector<ItemId>* out) const;

  /// For a loaded dataset: validates every row (strictly item-ascending,
  /// ids in range — the checks the builder runs up front) and
  /// materializes the CSC item index and ratings() order, exactly once.
  /// Returns the cached validation error on corrupt row data. No-op
  /// (always OK) for built datasets. Thread-safe.
  Status EnsureResident() const;

  /// True when the CSR rows are borrowed from a file mapping (not from
  /// a read() buffer).
  bool IsMapped() const;

  /// True when the derived in-core structures (ratings(), the CSC item
  /// index) exist: always for built datasets, and only after
  /// EnsureResident() for loaded ones. Regression tests use this to
  /// assert that out-of-core paths never materialize the full matrix.
  bool ResidencyMaterialized() const {
    return borrowed_ == nullptr || !item_offsets_.empty();
  }

  /// Advisory residency budget (bytes of row payload) for trainers that
  /// sweep this dataset; 0 (default) means unbounded — a single window.
  /// The budget shapes paging only, never results: fits are bit-equal
  /// for every budget.
  void set_train_budget_bytes(int64_t bytes) { train_budget_bytes_ = bytes; }
  int64_t train_budget_bytes() const { return train_budget_bytes_; }

  /// Partitions users into consecutive windows whose row payload
  /// (nnz * sizeof(ItemRating)) fits `budget_bytes`. Windows are unions
  /// of whole `align_users`-sized user blocks so trainers can keep a
  /// budget-independent block decomposition; every window holds at
  /// least one block even when that block alone exceeds the budget.
  /// budget_bytes <= 0 yields one window spanning all users.
  std::vector<RowWindow> PlanRowWindows(int64_t budget_bytes,
                                        int32_t align_users = 1) const;

  /// Runs `fn` over each planned window in ascending user order. For a
  /// loaded dataset this validates the window's rows on first touch
  /// (the same strictly-ascending/in-range checks EnsureResident runs);
  /// over a file mapping it also releases the window's pages after `fn`
  /// returns, so the sweep's resident footprint stays near the budget.
  /// Stops at the first non-OK status. Built datasets just iterate.
  Status SweepRowWindows(
      int64_t budget_bytes, int32_t align_users,
      const std::function<Status(const RowWindow&)>& fn) const;

  /// Serializes the dataset as a binary CSR cache (see docs/FORMATS.md):
  /// per-user row offsets, one contiguous (item id, value) rows array,
  /// the original observation order, and the content fingerprint,
  /// checksummed per section. Written once after the text loader; Load
  /// then skips parsing, id remapping, sorting, and validation on every
  /// subsequent run.
  Status SaveBinary(std::ostream& os) const;

  /// SaveBinary to a file path (overwrites).
  Status SaveBinaryFile(const std::string& path) const;

  /// Restores a dataset written by SaveBinary as a zero-copy view over
  /// the reader's bytes: O(users) validation and resident memory up
  /// front. The result is exactly the saved dataset: same dimensions,
  /// same ratings() order, same per-user and per-item indexes — so
  /// anything downstream (splits, SGD epoch order, scoring) is
  /// bit-identical to running from the text source. Fails on bad magic,
  /// an unsupported version, checksum mismatch, truncation, or
  /// inconsistent CSR offsets; corrupt row contents surface from
  /// EnsureResident() or the first sweep.
  static Result<RatingDataset> Load(ArtifactReader& r);

  /// Load from a file path, mapped when `prefer_mmap` (and the platform
  /// can map files), read() into memory otherwise.
  static Result<RatingDataset> LoadFileAuto(const std::string& path,
                                            bool prefer_mmap);

  /// Stable 64-bit content fingerprint: FNV-1a over the dimensions and
  /// the canonical per-user (item, value) stream. Artifacts that borrow
  /// the train dataset at load time (KNN/RP3b models, pipeline state)
  /// store it and refuse rebinding to different data — e.g. the same
  /// corpus split with a different seed. Insensitive to observation
  /// order (two datasets with equal indexes fingerprint equally). For
  /// datasets loaded from a cache this returns the stored fingerprint
  /// without touching the rows.
  uint64_t Fingerprint() const;

 private:
  friend class RatingDatasetBuilder;

  struct BorrowedState;

  /// Points the views at the owned vectors (built datasets).
  void BindOwnedViews();
  /// O(nnz) structural checks + CSC/ratings build (EnsureResident).
  Status ValidateRowsAndIndex() const;
  /// Row checks (in range, strictly item-ascending) for users in
  /// [begin, end) — the per-window slice of ValidateRowsAndIndex's
  /// validation pass.
  Status ValidateRowRange(UserId begin, UserId end) const;

  int32_t num_users_ = 0;
  int32_t num_items_ = 0;
  int64_t nnz_ = 0;
  /// Advisory trainer residency budget; not part of the dataset value
  /// (ignored by Save/Fingerprint/comparisons).
  int64_t train_budget_bytes_ = 0;
  /// Stored fingerprint from a cache; 0 = compute on demand.
  uint64_t fingerprint_ = 0;

  // Owned CSR storage (empty when the views borrow artifact bytes).
  std::vector<uint64_t> user_offsets_;
  std::vector<ItemRating> user_rows_;
  // Derived data: owned, lazily materialized for loaded datasets
  // (mutable is confined to the EnsureResident() critical section).
  mutable std::vector<Rating> ratings_;
  mutable std::vector<uint64_t> item_offsets_;
  mutable std::vector<UserRating> item_cols_;

  // CSR views: into the owned vectors or into the artifact bytes.
  std::span<const uint64_t> user_offsets_view_;
  std::span<const ItemRating> rows_view_;
  // Loaded only: CSR-position -> ratings() index (empty = identity).
  std::span<const uint64_t> order_view_;

  // Loaded only: the bytes keepalive plus lazy residency state.
  std::unique_ptr<BorrowedState> borrowed_;
};

/// Streams a v3 dataset cache to disk one user row at a time, without
/// ever materializing a RatingDataset — the O(users)-memory path the
/// 1M-user synthetic scale generator writes through. Usage:
///
///   auto w = DatasetCacheStreamWriter::Create(os, users, items, counts);
///   for (UserId u = 0; u < users; ++u) w->AppendRow(row_of(u));
///   w->Finish();
///
/// `row_counts` fixes every row length up front (it becomes the offsets
/// section, which precedes the rows in the file). Rows must arrive in
/// user order, strictly item-ascending, with exactly the declared
/// length. Appended rows are hashed incrementally, so the stored
/// fingerprint section matches RatingDataset::Fingerprint() of the
/// loaded cache; rows arrive in CSR order, so the observation-order
/// section is the identity (stored empty). The resulting file is
/// byte-identical to SaveBinaryFile of the equivalent in-memory dataset.
class DatasetCacheStreamWriter {
 public:
  /// Validates dimensions/counts and writes everything up to the first
  /// rows byte. `os` must outlive the writer.
  static Result<std::unique_ptr<DatasetCacheStreamWriter>> Create(
      std::ostream& os, int32_t num_users, int32_t num_items,
      std::span<const uint64_t> row_counts);

  ~DatasetCacheStreamWriter();

  /// Appends the next user's row (validated against the declared count).
  Status AppendRow(std::span<const ItemRating> row);

  /// Closes the rows section and writes order, fingerprint, and the end
  /// marker. Required: without it the artifact is truncated.
  Status Finish();

  int64_t nnz() const { return nnz_; }

 private:
  DatasetCacheStreamWriter(std::ostream& os, int32_t num_users,
                           int32_t num_items,
                           std::vector<uint64_t> row_counts);

  class ArtifactWriterHolder;

  int32_t num_users_;
  int32_t num_items_;
  int64_t nnz_ = 0;
  UserId next_user_ = 0;
  std::vector<uint64_t> row_counts_;
  Fnv1aHasher fingerprint_;
  std::unique_ptr<ArtifactWriterHolder> writer_;
};

/// Accumulates observations, then finalizes the indexes.
class RatingDatasetBuilder {
 public:
  /// Fixes the universe sizes |U| and |I| up front. Ids outside the range
  /// are rejected at Add time.
  RatingDatasetBuilder(int32_t num_users, int32_t num_items);

  /// Adds one observation. Duplicate (u, i) pairs are rejected at Build.
  Status Add(UserId user, ItemId item, float value);

  /// Number of observations added so far.
  int64_t size() const { return static_cast<int64_t>(ratings_.size()); }

  /// Validates (no duplicate pairs) and builds the dataset.
  Result<RatingDataset> Build() &&;

 private:
  int32_t num_users_;
  int32_t num_items_;
  std::vector<Rating> ratings_;
};

}  // namespace ganc

#endif  // GANC_DATA_DATASET_H_
