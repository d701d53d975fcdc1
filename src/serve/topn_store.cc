#include "serve/topn_store.h"

#include <algorithm>
#include <utility>

#include "util/serialize.h"

namespace ganc {

namespace {

// Top-N store artifact section ids (kind kTopNStore; see docs/FORMATS.md).
constexpr uint32_t kStoreMetaSection = 1;
constexpr uint32_t kStoreOffsetsSection = 2;
constexpr uint32_t kStoreItemsSection = 3;

// Shared invariant check behind FromLists and Load: offsets must form a
// valid flat store for the declared dimensions. The per-item id range
// scan is O(total items) and is skipped over a file mapping (stored ids
// are only ever emitted, never used as indices), keeping the mapped
// cold path O(users) regardless of file size.
Status ValidateFlat(int32_t num_users, int32_t num_items, int32_t top_n,
                    std::span<const uint64_t> offsets,
                    std::span<const ItemId> items, bool scan_items) {
  if (num_users < 0 || num_items < 0 || top_n <= 0) {
    return Status::InvalidArgument("top-N store has invalid dimensions");
  }
  if (offsets.size() != static_cast<size_t>(num_users) + 1 ||
      offsets.front() != 0 || offsets.back() != items.size()) {
    return Status::InvalidArgument("top-N store offsets are inconsistent");
  }
  for (size_t u = 0; u < static_cast<size_t>(num_users); ++u) {
    if (offsets[u + 1] < offsets[u] ||
        offsets[u + 1] - offsets[u] > static_cast<uint64_t>(top_n)) {
      return Status::InvalidArgument(
          "top-N store list lengths are inconsistent");
    }
  }
  if (scan_items) {
    for (const ItemId i : items) {
      if (i < 0 || i >= num_items) {
        return Status::InvalidArgument("top-N store item id out of range");
      }
    }
  }
  return Status::OK();
}

size_t CountLists(std::span<const uint64_t> offsets) {
  size_t lists = 0;
  for (size_t u = 0; u + 1 < offsets.size(); ++u) {
    if (offsets[u + 1] > offsets[u]) ++lists;
  }
  return lists;
}

}  // namespace

Result<TopNStore> TopNStore::FromLists(
    int32_t num_users, int32_t num_items, int32_t top_n,
    uint64_t train_fingerprint, std::string source,
    std::span<const std::pair<UserId, std::vector<ItemId>>> lists) {
  if (num_users < 0 || num_items < 0 || top_n <= 0) {
    return Status::InvalidArgument("top-N store needs positive dimensions");
  }
  std::vector<const std::vector<ItemId>*> by_user(
      static_cast<size_t>(num_users), nullptr);
  for (const auto& [user, list] : lists) {
    if (user < 0 || user >= num_users) {
      return Status::InvalidArgument("top-N store user id out of range");
    }
    if (by_user[static_cast<size_t>(user)] != nullptr) {
      return Status::InvalidArgument("duplicate user in top-N store input");
    }
    by_user[static_cast<size_t>(user)] = &list;
  }
  TopNStore store;
  store.num_users_ = num_users;
  store.num_items_ = num_items;
  store.top_n_ = top_n;
  store.train_fingerprint_ = train_fingerprint;
  store.source_ = std::move(source);
  store.offsets_.assign(static_cast<size_t>(num_users) + 1, 0);
  size_t total = 0;
  for (const auto& [user, list] : lists) total += list.size();
  store.items_.reserve(total);
  for (size_t u = 0; u < static_cast<size_t>(num_users); ++u) {
    store.offsets_[u] = store.items_.size();
    if (by_user[u] != nullptr) {
      store.items_.insert(store.items_.end(), by_user[u]->begin(),
                          by_user[u]->end());
    }
  }
  store.offsets_.back() = store.items_.size();
  GANC_RETURN_NOT_OK(ValidateFlat(num_users, num_items, top_n, store.offsets_,
                                  store.items_, /*scan_items=*/true));
  store.num_lists_ = CountLists(store.offsets_);
  store.BindOwnedViews();
  return store;
}

Status TopNStore::Save(std::ostream& os) const {
  if (offsets_view_.empty()) {
    return Status::FailedPrecondition("cannot save an empty top-N store");
  }
  ArtifactWriter w(os);
  GANC_RETURN_NOT_OK(w.WriteHeader(ArtifactKind::kTopNStore, 0));

  PayloadWriter meta;
  meta.WriteI32(num_users_);
  meta.WriteI32(num_items_);
  meta.WriteI32(top_n_);
  meta.WriteU64(train_fingerprint_);
  meta.WriteString(source_);
  GANC_RETURN_NOT_OK(w.WriteSection(kStoreMetaSection, meta));

  PayloadWriter offsets;
  offsets.WriteVecRaw(offsets_view_.data(), offsets_view_.size());
  GANC_RETURN_NOT_OK(w.WriteSection(kStoreOffsetsSection, offsets));

  PayloadWriter items;
  items.WriteVecRaw(items_view_.data(), items_view_.size());
  GANC_RETURN_NOT_OK(w.WriteSection(kStoreItemsSection, items));
  return w.Finish();
}

Status TopNStore::SaveFile(const std::string& path) const {
  return WriteArtifactFile(path, [&](std::ostream& os) { return Save(os); });
}

Result<TopNStore> TopNStore::Load(ArtifactReader& r) {
  Result<ArtifactHeader> header = r.ReadHeader();
  if (!header.ok()) return header.status();
  GANC_RETURN_NOT_OK(ExpectArtifact(*header, ArtifactKind::kTopNStore, 0));

  Result<ArtifactReader::Section> meta = r.ReadSectionExpect(kStoreMetaSection);
  if (!meta.ok()) return meta.status();
  TopNStore store;
  PayloadReader mr(meta->payload());
  GANC_RETURN_NOT_OK(mr.ReadI32(&store.num_users_));
  GANC_RETURN_NOT_OK(mr.ReadI32(&store.num_items_));
  GANC_RETURN_NOT_OK(mr.ReadI32(&store.top_n_));
  GANC_RETURN_NOT_OK(mr.ReadU64(&store.train_fingerprint_));
  GANC_RETURN_NOT_OK(mr.ReadString(&store.source_));
  GANC_RETURN_NOT_OK(mr.ExpectEnd());

  Result<ArtifactReader::Section> offsets =
      r.ReadSectionExpect(kStoreOffsetsSection);
  if (!offsets.ok()) return offsets.status();
  PayloadReader orr(offsets->payload());
  GANC_RETURN_NOT_OK(orr.BorrowVec(&store.offsets_view_));
  GANC_RETURN_NOT_OK(orr.ExpectEnd());

  Result<ArtifactReader::Section> items =
      r.ReadSectionExpect(kStoreItemsSection);
  if (!items.ok()) return items.status();
  PayloadReader ir(items->payload());
  GANC_RETURN_NOT_OK(ir.BorrowVec(&store.items_view_));
  GANC_RETURN_NOT_OK(ir.ExpectEnd());
  GANC_RETURN_NOT_OK(ExpectEndOfArtifact(r));

  GANC_RETURN_NOT_OK(ValidateFlat(store.num_users_, store.num_items_,
                                  store.top_n_, store.offsets_view_,
                                  store.items_view_,
                                  /*scan_items=*/!r.source()->mapped()));
  store.num_lists_ = CountLists(store.offsets_view_);
  store.source_bytes_ = r.source();
  return store;
}

Result<TopNStore> TopNStore::LoadFileAuto(const std::string& path,
                                          bool prefer_mmap) {
  Result<ArtifactReader> r = OpenArtifact(path, prefer_mmap);
  if (!r.ok()) return r.status();
  return Load(*r);
}

std::vector<UserId> HeadUsersByActivity(const RatingDataset& train,
                                        size_t count) {
  const size_t n_users = static_cast<size_t>(train.num_users());
  std::vector<UserId> users(n_users);
  for (size_t u = 0; u < n_users; ++u) users[u] = static_cast<UserId>(u);
  if (count == 0 || count >= n_users) return users;
  std::partial_sort(users.begin(), users.begin() + static_cast<ptrdiff_t>(count),
                    users.end(), [&](UserId a, UserId b) {
                      const int32_t aa = train.Activity(a);
                      const int32_t ab = train.Activity(b);
                      if (aa != ab) return aa > ab;
                      return a < b;
                    });
  users.resize(count);
  std::sort(users.begin(), users.end());
  return users;
}

}  // namespace ganc
