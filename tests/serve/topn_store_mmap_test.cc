// Loaded top-N store: through the file mapping and through a read()
// buffer, LoadFileAuto must serve exactly the saved lists, validate
// offsets before handing out any view, and reject corruption and
// truncation with typed errors.

#include "serve/topn_store.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace ganc {
namespace {

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string FileBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(os.good());
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A store over 40 users with varied list lengths (including absent
// users and one empty-but-present shape via a short list).
TopNStore MakeStore() {
  std::vector<std::pair<UserId, std::vector<ItemId>>> lists;
  for (UserId u = 0; u < 40; u += 3) {
    std::vector<ItemId> items;
    for (int32_t k = 0; k < (u % 7) + 1; ++k) {
      items.push_back((u * 13 + k * 5) % 90);
    }
    lists.emplace_back(u, std::move(items));
  }
  auto store = TopNStore::FromLists(40, 90, 8, /*train_fingerprint=*/0xABCD,
                                    "psvd10", lists);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

void ExpectSameLists(const TopNStore& a, const TopNStore& b) {
  ASSERT_EQ(a.num_users(), b.num_users());
  ASSERT_EQ(a.num_items(), b.num_items());
  ASSERT_EQ(a.top_n(), b.top_n());
  ASSERT_EQ(a.train_fingerprint(), b.train_fingerprint());
  ASSERT_EQ(a.source(), b.source());
  ASSERT_EQ(a.num_lists(), b.num_lists());
  ASSERT_EQ(a.total_items(), b.total_items());
  for (UserId u = 0; u < a.num_users(); ++u) {
    const auto la = a.ListFor(u);
    const auto lb = b.ListFor(u);
    ASSERT_EQ(la.size(), lb.size()) << "user " << u;
    for (size_t k = 0; k < la.size(); ++k) {
      ASSERT_EQ(la[k], lb[k]) << "user " << u << " pos " << k;
    }
  }
}

TEST(TopNStoreMmapTest, EachByteSourceServesTheSavedLists) {
  const TopNStore original = MakeStore();
  const std::string path = TestPath("store_mmap.gts");
  ASSERT_TRUE(original.SaveFile(path).ok());

  for (const bool prefer_mmap : {true, false}) {
    SCOPED_TRACE(prefer_mmap ? "mapped" : "read()");
    auto loaded = TopNStore::LoadFileAuto(path, prefer_mmap);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->IsMapped(), prefer_mmap);
    ExpectSameLists(original, *loaded);
    // Users not in the store own an empty slice either way.
    EXPECT_TRUE(loaded->ListFor(1).empty());
  }
  std::remove(path.c_str());
}

TEST(TopNStoreMmapTest, TruncationAtEveryCutIsATypedError) {
  const TopNStore original = MakeStore();
  const std::string path = TestPath("store_full.gts");
  ASSERT_TRUE(original.SaveFile(path).ok());
  const std::string bytes = FileBytes(path);
  const std::string cut_path = TestPath("store_cut.gts");
  for (size_t cut = 0; cut < bytes.size(); cut += 5) {
    WriteFileBytes(cut_path, bytes.substr(0, cut));
    for (const bool prefer_mmap : {true, false}) {
      EXPECT_FALSE(TopNStore::LoadFileAuto(cut_path, prefer_mmap).ok())
          << "cut " << cut << " slipped through";
    }
  }
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

TEST(TopNStoreMmapTest, CorruptOffsetsRejectedBeforeAnyLookup) {
  const TopNStore original = MakeStore();
  const std::string path = TestPath("store_corrupt.gts");
  ASSERT_TRUE(original.SaveFile(path).ok());
  std::string bytes = FileBytes(path);
  // Flip one byte at a time across the whole file: either source
  // refuses the artifact or — never — serves different lists.
  int rejections = 0;
  const std::string bad_path = TestPath("store_bad.gts");
  for (size_t i = 0; i < bytes.size(); i += 3) {
    std::string corrupt = bytes;
    corrupt[i] ^= 0x5A;
    WriteFileBytes(bad_path, corrupt);
    for (const bool prefer_mmap : {true, false}) {
      auto loaded = TopNStore::LoadFileAuto(bad_path, prefer_mmap);
      if (!loaded.ok()) {
        ++rejections;
        continue;
      }
      // Survivors must still be structurally sound and
      // fingerprint-gated; a changed fingerprint or source string is the
      // acceptable case.
      for (UserId u = 0; u < loaded->num_users(); ++u) {
        const auto list = loaded->ListFor(u);
        for (ItemId item : list) {
          ASSERT_GE(item, 0) << "byte " << i;
          ASSERT_LT(item, loaded->num_items()) << "byte " << i;
        }
      }
    }
  }
  // The store artifact is small, so every section is checksum-covered:
  // the vast majority of flips must be outright rejections.
  EXPECT_GT(rejections, 0);
  std::remove(path.c_str());
  std::remove(bad_path.c_str());
}

}  // namespace
}  // namespace ganc
