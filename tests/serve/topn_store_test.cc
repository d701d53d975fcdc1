// TopNStore: flat layout, round-trip fidelity, and rejection of corrupt
// or mismatched artifacts.

#include "serve/topn_store.h"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "recommender/pop.h"
#include "util/serialize.h"

namespace ganc {
namespace {

using UserLists = std::vector<std::pair<UserId, std::vector<ItemId>>>;

TopNStore MakeStore() {
  const UserLists lists = {
      {2, {5, 1, 9}},
      {0, {7}},
      {4, {0, 3}},
  };
  Result<TopNStore> store =
      TopNStore::FromLists(/*num_users=*/6, /*num_items=*/10, /*top_n=*/3,
                           /*train_fingerprint=*/0xfeedULL, "Pop", lists);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

TEST(TopNStoreTest, FromListsIndexesByUser) {
  const TopNStore store = MakeStore();
  EXPECT_EQ(store.num_users(), 6);
  EXPECT_EQ(store.num_items(), 10);
  EXPECT_EQ(store.top_n(), 3);
  EXPECT_EQ(store.num_lists(), 3u);
  EXPECT_EQ(store.total_items(), 6u);
  const std::span<const ItemId> u2 = store.ListFor(2);
  EXPECT_EQ(std::vector<ItemId>(u2.begin(), u2.end()),
            (std::vector<ItemId>{5, 1, 9}));
  EXPECT_EQ(store.ListFor(0).size(), 1u);
  EXPECT_TRUE(store.ListFor(1).empty());
  EXPECT_TRUE(store.ListFor(5).empty());
}

TEST(TopNStoreTest, FromListsRejectsBadInput) {
  // User id out of range.
  UserLists bad_user = {{9, {1}}};
  EXPECT_FALSE(TopNStore::FromLists(6, 10, 3, 0, "Pop", bad_user).ok());
  // Duplicate user.
  UserLists dup = {{1, {1}}, {1, {2}}};
  EXPECT_FALSE(TopNStore::FromLists(6, 10, 3, 0, "Pop", dup).ok());
  // List longer than top_n.
  UserLists long_list = {{1, {1, 2, 3, 4}}};
  EXPECT_FALSE(TopNStore::FromLists(6, 10, 3, 0, "Pop", long_list).ok());
  // Item id out of range.
  UserLists bad_item = {{1, {10}}};
  EXPECT_FALSE(TopNStore::FromLists(6, 10, 3, 0, "Pop", bad_item).ok());
}

TEST(TopNStoreTest, SaveLoadRoundTripIsExact) {
  const TopNStore store = MakeStore();
  std::ostringstream os(std::ios::binary);
  ASSERT_TRUE(store.Save(os).ok());
  ArtifactReader r(ArtifactBytes::Copy(os.str()));
  Result<TopNStore> loaded = TopNStore::Load(r);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_users(), store.num_users());
  EXPECT_EQ(loaded->num_items(), store.num_items());
  EXPECT_EQ(loaded->top_n(), store.top_n());
  EXPECT_EQ(loaded->train_fingerprint(), store.train_fingerprint());
  EXPECT_EQ(loaded->source(), store.source());
  EXPECT_EQ(loaded->num_lists(), store.num_lists());
  for (UserId u = 0; u < store.num_users(); ++u) {
    const std::span<const ItemId> a = store.ListFor(u);
    const std::span<const ItemId> b = loaded->ListFor(u);
    EXPECT_EQ(std::vector<ItemId>(a.begin(), a.end()),
              std::vector<ItemId>(b.begin(), b.end()));
  }
}

TEST(TopNStoreTest, RejectsCorruptionEverywhere) {
  const TopNStore store = MakeStore();
  std::ostringstream os(std::ios::binary);
  ASSERT_TRUE(store.Save(os).ok());
  const std::string bytes = os.str();
  // Flipping any single byte must be caught by magic/version/kind
  // validation or a section checksum — never produce a store.
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x5a);
    ArtifactReader r(ArtifactBytes::Copy(corrupt));
    EXPECT_FALSE(TopNStore::Load(r).ok()) << "byte " << pos;
  }
  // Truncation at every length.
  for (size_t len = 0; len < bytes.size(); ++len) {
    ArtifactReader r(ArtifactBytes::Copy(bytes.substr(0, len)));
    EXPECT_FALSE(TopNStore::Load(r).ok()) << "len " << len;
  }
}

TEST(TopNStoreTest, RejectsWrongArtifactKind) {
  SyntheticSpec spec = TinySpec();
  auto data = GenerateSynthetic(spec);
  ASSERT_TRUE(data.ok());
  PopRecommender pop;
  ASSERT_TRUE(pop.Fit(*data).ok());
  std::ostringstream os(std::ios::binary);
  ASSERT_TRUE(pop.Save(os).ok());
  ArtifactReader r(ArtifactBytes::Copy(os.str()));
  Result<TopNStore> loaded = TopNStore::Load(r);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("kind mismatch"),
            std::string::npos);
}

TEST(TopNStoreTest, HeadUsersByActivityPicksMostActive) {
  SyntheticSpec spec = TinySpec();
  auto data = GenerateSynthetic(spec);
  ASSERT_TRUE(data.ok());
  const std::vector<UserId> all = HeadUsersByActivity(*data, 0);
  EXPECT_EQ(all.size(), static_cast<size_t>(data->num_users()));
  const std::vector<UserId> head = HeadUsersByActivity(*data, 5);
  ASSERT_EQ(head.size(), 5u);
  EXPECT_TRUE(std::is_sorted(head.begin(), head.end()));
  // Every selected user is at least as active as every excluded one.
  int32_t min_head = INT32_MAX;
  for (const UserId u : head) min_head = std::min(min_head, data->Activity(u));
  for (UserId u = 0; u < data->num_users(); ++u) {
    if (std::find(head.begin(), head.end(), u) == head.end()) {
      EXPECT_LE(data->Activity(u), min_head);
    }
  }
}

}  // namespace
}  // namespace ganc
