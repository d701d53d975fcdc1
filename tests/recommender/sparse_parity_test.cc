// Golden parity suite for the sparse-model fast path: the inverted-index
// similarity builders (recommender/sparse_similarity.h) must reproduce
// the seed hash-map builders bit-for-bit — neighbour ids, float sims,
// and order, across sampled and unsampled configs — and the threaded
// sweep must save byte-identical artifacts to the serial one. The
// reference implementations below are verbatim copies of the seed
// algorithms (PR 3, commit 4f5789d) kept as executable specification.

#include "recommender/sparse_similarity.h"

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "recommender/item_knn.h"
#include "recommender/item_similarity.h"
#include "recommender/random_walk.h"
#include "recommender/scoring_context.h"
#include "recommender/user_knn.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ganc {
namespace {

RatingDataset MakeData() {
  SyntheticSpec spec = TinySpec();
  spec.num_users = 120;
  spec.num_items = 220;
  spec.mean_activity = 22.0;
  auto ds = GenerateSynthetic(spec);
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

// --- Seed reference: item-item cosine via per-pair hash maps. ---

std::vector<std::vector<ItemNeighbor>> ReferenceItemLists(
    const RatingDataset& train, int32_t num_neighbors, int32_t max_profile,
    uint64_t seed) {
  const int32_t num_items = train.num_items();
  std::vector<double> norms(static_cast<size_t>(num_items), 0.0);
  for (const Rating& r : train.ratings()) {
    norms[static_cast<size_t>(r.item)] +=
        static_cast<double>(r.value) * static_cast<double>(r.value);
  }
  for (double& n : norms) n = std::sqrt(n);

  Rng rng(seed);
  std::vector<std::unordered_map<ItemId, double>> dots(
      static_cast<size_t>(num_items));
  for (UserId u = 0; u < train.num_users(); ++u) {
    const auto full_row = train.ItemsOf(u);
    std::vector<ItemRating> row(full_row.begin(), full_row.end());
    if (static_cast<int32_t>(row.size()) > max_profile) {
      rng.Shuffle(&row);
      row.resize(static_cast<size_t>(max_profile));
    }
    for (size_t a = 0; a < row.size(); ++a) {
      for (size_t b = a + 1; b < row.size(); ++b) {
        const double contrib = static_cast<double>(row[a].value) *
                               static_cast<double>(row[b].value);
        const ItemId lo = std::min(row[a].item, row[b].item);
        const ItemId hi = std::max(row[a].item, row[b].item);
        dots[static_cast<size_t>(lo)][hi] += contrib;
      }
    }
  }

  std::vector<std::vector<ItemNeighbor>> all(static_cast<size_t>(num_items));
  for (ItemId lo = 0; lo < num_items; ++lo) {
    for (const auto& [hi, dot] : dots[static_cast<size_t>(lo)]) {
      const double denom =
          norms[static_cast<size_t>(lo)] * norms[static_cast<size_t>(hi)];
      if (denom <= 0.0) continue;
      const float sim = static_cast<float>(dot / denom);
      if (sim <= 0.0f) continue;
      all[static_cast<size_t>(lo)].push_back({hi, sim});
      all[static_cast<size_t>(hi)].push_back({lo, sim});
    }
  }
  const size_t k = static_cast<size_t>(std::max(num_neighbors, 0));
  for (ItemId i = 0; i < num_items; ++i) {
    auto& cand = all[static_cast<size_t>(i)];
    std::sort(cand.begin(), cand.end(),
              [](const ItemNeighbor& a, const ItemNeighbor& b) {
                if (a.sim != b.sim) return a.sim > b.sim;
                return a.item < b.item;
              });
    if (cand.size() > k) cand.resize(k);
  }
  return all;
}

// --- Seed reference: user-user KNN fit + scoring. ---

struct ReferenceUserKnn {
  std::vector<double> user_mean;
  std::vector<std::vector<std::pair<UserId, float>>> neighbors;
};

ReferenceUserKnn ReferenceUserFit(const RatingDataset& train,
                                  int32_t num_neighbors, int32_t max_audience,
                                  uint64_t seed) {
  const int32_t num_users = train.num_users();
  ReferenceUserKnn ref;
  ref.user_mean.assign(static_cast<size_t>(num_users), 0.0);
  std::vector<double> norms(static_cast<size_t>(num_users), 0.0);
  for (UserId u = 0; u < num_users; ++u) {
    const auto& row = train.ItemsOf(u);
    if (row.empty()) continue;
    double acc = 0.0;
    for (const ItemRating& ir : row) acc += ir.value;
    ref.user_mean[static_cast<size_t>(u)] =
        acc / static_cast<double>(row.size());
    for (const ItemRating& ir : row) {
      const double c = ir.value - ref.user_mean[static_cast<size_t>(u)];
      norms[static_cast<size_t>(u)] += c * c;
    }
    norms[static_cast<size_t>(u)] = std::sqrt(norms[static_cast<size_t>(u)]);
  }

  Rng rng(seed);
  std::vector<std::unordered_map<UserId, double>> dots(
      static_cast<size_t>(num_users));
  for (ItemId i = 0; i < train.num_items(); ++i) {
    const auto full_col = train.UsersOf(i);
    std::vector<UserRating> col(full_col.begin(), full_col.end());
    if (static_cast<int32_t>(col.size()) > max_audience) {
      rng.Shuffle(&col);
      col.resize(static_cast<size_t>(max_audience));
    }
    for (size_t a = 0; a < col.size(); ++a) {
      const double ca =
          col[a].value - ref.user_mean[static_cast<size_t>(col[a].user)];
      for (size_t b = a + 1; b < col.size(); ++b) {
        const double cb =
            col[b].value - ref.user_mean[static_cast<size_t>(col[b].user)];
        const UserId lo = std::min(col[a].user, col[b].user);
        const UserId hi = std::max(col[a].user, col[b].user);
        dots[static_cast<size_t>(lo)][hi] += ca * cb;
      }
    }
  }

  std::vector<std::vector<std::pair<UserId, float>>> all(
      static_cast<size_t>(num_users));
  for (UserId lo = 0; lo < num_users; ++lo) {
    for (const auto& [hi, dot] : dots[static_cast<size_t>(lo)]) {
      const double denom =
          norms[static_cast<size_t>(lo)] * norms[static_cast<size_t>(hi)];
      if (denom <= 0.0) continue;
      const float sim = static_cast<float>(dot / denom);
      if (sim <= 0.0f) continue;
      all[static_cast<size_t>(lo)].emplace_back(hi, sim);
      all[static_cast<size_t>(hi)].emplace_back(lo, sim);
    }
  }
  ref.neighbors.assign(static_cast<size_t>(num_users), {});
  const size_t k = static_cast<size_t>(num_neighbors);
  for (UserId u = 0; u < num_users; ++u) {
    auto& cand = all[static_cast<size_t>(u)];
    std::sort(cand.begin(), cand.end(),
              [](const std::pair<UserId, float>& a,
                 const std::pair<UserId, float>& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
              });
    if (cand.size() > k) cand.resize(k);
    ref.neighbors[static_cast<size_t>(u)] = std::move(cand);
  }
  return ref;
}

std::vector<double> ReferenceUserScore(const ReferenceUserKnn& ref,
                                       const RatingDataset& train, UserId u) {
  std::vector<double> out(static_cast<size_t>(train.num_items()), 0.0);
  for (const auto& [s, sim] : ref.neighbors[static_cast<size_t>(u)]) {
    const double mean = ref.user_mean[static_cast<size_t>(s)];
    for (const ItemRating& ir : train.ItemsOf(s)) {
      out[static_cast<size_t>(ir.item)] +=
          static_cast<double>(sim) * (static_cast<double>(ir.value) - mean);
    }
  }
  return out;
}

// --- Seed reference: the RP3b walk over the dataset's row vectors. ---

std::vector<double> ReferenceWalkScore(const RatingDataset& train, double beta,
                                       int32_t max_coraters, UserId u) {
  std::vector<double> out(static_cast<size_t>(train.num_items()), 0.0);
  const auto& row = train.ItemsOf(u);
  if (row.empty()) return out;
  std::vector<double> mass(static_cast<size_t>(train.num_users()), 0.0);
  std::vector<std::pair<UserId, double>> coraters;
  const double start = 1.0 / static_cast<double>(row.size());
  for (const ItemRating& ir : row) {
    const auto& audience = train.UsersOf(ir.item);
    if (audience.empty()) continue;
    const double share = start / static_cast<double>(audience.size());
    for (const UserRating& ur : audience) {
      if (ur.user == u) continue;
      double& m = mass[static_cast<size_t>(ur.user)];
      if (m == 0.0) coraters.emplace_back(ur.user, 0.0);
      m += share;
    }
  }
  for (auto& [s, w] : coraters) w = mass[static_cast<size_t>(s)];
  const auto heavier = [](const std::pair<UserId, double>& a,
                          const std::pair<UserId, double>& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  };
  if (static_cast<int32_t>(coraters.size()) > max_coraters) {
    std::nth_element(coraters.begin(), coraters.begin() + max_coraters - 1,
                     coraters.end(), heavier);
    coraters.resize(static_cast<size_t>(max_coraters));
  }
  for (const auto& [s, w] : coraters) {
    const auto& srow = train.ItemsOf(s);
    if (srow.empty()) continue;
    const double share = w / static_cast<double>(srow.size());
    for (const ItemRating& ir : srow) {
      out[static_cast<size_t>(ir.item)] += share;
    }
  }
  for (size_t i = 0; i < out.size(); ++i) {
    if (out[i] > 0.0) {
      out[i] /= std::pow(
          static_cast<double>(
              std::max(train.Popularity(static_cast<ItemId>(i)), 1)),
          beta);
    }
  }
  return out;
}

std::string SaveToString(const Recommender& model) {
  std::ostringstream os(std::ios::binary);
  EXPECT_TRUE(model.Save(os).ok());
  return os.str();
}

// The inverted-index sweep must reproduce the seed hash-map builder
// bit-for-bit: same neighbour ids, same float similarities, same order.
TEST(SparseParityTest, ItemSimilarityMatchesSeedBuilderBitwise) {
  const RatingDataset train = MakeData();
  struct Config {
    int32_t k;
    int32_t max_profile;
    uint64_t seed;
  };
  // Unsampled, truncation-heavy, and sampled (max_profile far below the
  // mean activity of 22, so the RNG path is exercised on most users).
  for (const Config cfg : {Config{50, 512, 31}, Config{5, 512, 31},
                           Config{10, 8, 3}, Config{10, 15, 99}}) {
    const auto ref =
        ReferenceItemLists(train, cfg.k, cfg.max_profile, cfg.seed);
    const ItemSimilarityIndex index(train, cfg.k, cfg.max_profile, cfg.seed);
    ASSERT_EQ(index.num_items(), train.num_items());
    for (ItemId i = 0; i < train.num_items(); ++i) {
      const auto got = index.NeighborsOf(i);
      const auto& want = ref[static_cast<size_t>(i)];
      ASSERT_EQ(got.size(), want.size())
          << "item " << i << " k=" << cfg.k << " mp=" << cfg.max_profile;
      for (size_t n = 0; n < want.size(); ++n) {
        ASSERT_EQ(got[n].item, want[n].item) << "item " << i << " pos " << n;
        ASSERT_EQ(got[n].sim, want[n].sim) << "item " << i << " pos " << n;
      }
    }
  }
}

// UserKNN's fitted state is pinned through bitwise score equality (the
// scores are a function of the neighbour lists and means) across
// sampled and unsampled configs.
TEST(SparseParityTest, UserKnnScoresMatchSeedImplementationBitwise) {
  const RatingDataset train = MakeData();
  struct Config {
    int32_t k;
    int32_t max_audience;
    uint64_t seed;
  };
  for (const Config cfg : {Config{50, 512, 33}, Config{10, 512, 33},
                           Config{10, 6, 5}, Config{25, 12, 77}}) {
    const ReferenceUserKnn ref =
        ReferenceUserFit(train, cfg.k, cfg.max_audience, cfg.seed);
    UserKnnRecommender knn({.num_neighbors = cfg.k,
                            .max_audience = cfg.max_audience,
                            .seed = cfg.seed});
    ASSERT_TRUE(knn.Fit(train).ok());
    for (UserId u = 0; u < train.num_users(); ++u) {
      const std::vector<double> want = ReferenceUserScore(ref, train, u);
      const std::vector<double> got = knn.ScoreAll(u);
      ASSERT_EQ(got, want) << "user " << u << " k=" << cfg.k << " ma="
                           << cfg.max_audience;
    }
  }
}

// The CSR walk graph must not change a single bit of the RP3b walk.
TEST(SparseParityTest, RandomWalkCsrGraphMatchesSeedWalkBitwise) {
  const RatingDataset train = MakeData();
  RandomWalkRecommender rp3b({.beta = 0.4, .max_coraters = 30});
  ASSERT_TRUE(rp3b.Fit(train).ok());
  for (UserId u = 0; u < train.num_users(); ++u) {
    const std::vector<double> want = ReferenceWalkScore(train, 0.4, 30, u);
    const std::vector<double> got = rp3b.ScoreAll(u);
    ASSERT_EQ(got, want) << "user " << u;
  }
}

// Threaded fits shard the sweep but must merge deterministically: the
// saved artifact has to be byte-identical to the serial fit's.
TEST(SparseParityTest, ThreadedFitSavesByteIdenticalArtifacts) {
  const RatingDataset train = MakeData();
  ThreadPool pool(4);
  {
    ItemKnnRecommender serial({.num_neighbors = 10, .max_profile = 8});
    ItemKnnRecommender threaded({.num_neighbors = 10, .max_profile = 8});
    ASSERT_TRUE(serial.Fit(train).ok());
    ASSERT_TRUE(threaded.Fit(train, &pool).ok());
    EXPECT_EQ(SaveToString(serial), SaveToString(threaded));
  }
  {
    UserKnnRecommender serial({.num_neighbors = 10, .max_audience = 6});
    UserKnnRecommender threaded({.num_neighbors = 10, .max_audience = 6});
    ASSERT_TRUE(serial.Fit(train).ok());
    ASSERT_TRUE(threaded.Fit(train, &pool).ok());
    EXPECT_EQ(SaveToString(serial), SaveToString(threaded));
  }
  // The similarity index itself, with and without a pool.
  const ItemSimilarityIndex a(train, 10, 512, 31, nullptr);
  const ItemSimilarityIndex b(train, 10, 512, 31, &pool);
  ASSERT_EQ(a.num_items(), b.num_items());
  for (ItemId i = 0; i < a.num_items(); ++i) {
    const auto na = a.NeighborsOf(i);
    const auto nb = b.NeighborsOf(i);
    ASSERT_EQ(na.size(), nb.size());
    for (size_t n = 0; n < na.size(); ++n) {
      ASSERT_EQ(na[n].item, nb[n].item);
      ASSERT_EQ(na[n].sim, nb[n].sim);
    }
  }
}

// The default Fit(train, pool) overload ignores the pool: models without
// a parallel fit stay usable through the pool-aware entry point.
TEST(SparseParityTest, DefaultPoolOverloadFallsBackToSerialFit) {
  const RatingDataset train = MakeData();
  ThreadPool pool(2);
  RandomWalkRecommender a;
  RandomWalkRecommender b;
  ASSERT_TRUE(a.Fit(train).ok());
  ASSERT_TRUE(b.Fit(train, &pool).ok());
  EXPECT_EQ(a.ScoreAll(3), b.ScoreAll(3));
}

// Batch-vs-single parity for the three sparse models' dedicated
// ScoreBatchInto overrides, across full, sub-block, and ragged batches.
TEST(SparseParityTest, SparseModelBatchScoringMatchesSingleBitwise) {
  const RatingDataset train = MakeData();
  const size_t ni = static_cast<size_t>(train.num_items());
  std::vector<std::unique_ptr<Recommender>> models;
  models.push_back(std::make_unique<ItemKnnRecommender>(
      ItemKnnConfig{.num_neighbors = 10}));
  models.push_back(std::make_unique<UserKnnRecommender>(
      UserKnnConfig{.num_neighbors = 10}));
  models.push_back(std::make_unique<RandomWalkRecommender>());
  for (auto& model : models) {
    ASSERT_TRUE(model->Fit(train).ok()) << model->name();
    ScoringContext ctx;
    std::vector<double> single(ni);
    for (const size_t batch_size : {1u, 7u, 8u, 64u}) {
      for (const UserId first : {0, 97}) {
        std::vector<UserId> users;
        for (size_t b = 0; b < batch_size; ++b) {
          users.push_back(
              static_cast<UserId>((static_cast<size_t>(first) + b) %
                                  static_cast<size_t>(train.num_users())));
        }
        const std::span<double> batch = ctx.BatchScores(batch_size * ni);
        model->ScoreBatchInto(users, batch);
        for (size_t b = 0; b < batch_size; ++b) {
          model->ScoreInto(users[b], single);
          const std::span<const double> row = batch.subspan(b * ni, ni);
          for (size_t i = 0; i < ni; ++i) {
            ASSERT_EQ(single[i], row[i])
                << model->name() << " batch " << batch_size << " user "
                << users[b] << " item " << i;
          }
        }
      }
    }
  }
}

// The id-sorted lookup view must agree with a linear scan of the
// best-first lists for every pair — present or absent.
TEST(SparseParityTest, SimilarityLookupMatchesLinearScan) {
  const RatingDataset train = MakeData();
  const ItemSimilarityIndex index(train, 10, 512, 31);
  for (ItemId i = 0; i < train.num_items(); ++i) {
    for (ItemId j = 0; j < train.num_items(); ++j) {
      float scanned = 0.0f;
      for (const ItemNeighbor& nb : index.NeighborsOf(i)) {
        if (nb.item == j) {
          scanned = nb.sim;
          break;
        }
      }
      ASSERT_EQ(index.Similarity(i, j), scanned) << i << "," << j;
    }
  }
}

// KNN artifacts survive a save -> load round trip onto flat storage with
// bit-identical scoring (the persistence suite covers every model; this
// pins the flat-CSR rebind paths specifically, threaded fit included).
TEST(SparseParityTest, KnnArtifactsRoundTripFromThreadedFit) {
  const RatingDataset train = MakeData();
  ThreadPool pool(3);
  {
    ItemKnnRecommender fitted({.num_neighbors = 10, .max_profile = 8});
    ASSERT_TRUE(fitted.Fit(train, &pool).ok());
    ArtifactReader r(ArtifactBytes::Copy(SaveToString(fitted)));
    ItemKnnRecommender loaded;
    ASSERT_TRUE(loaded.Load(r, &train).ok());
    for (UserId u = 0; u < train.num_users(); u += 7) {
      ASSERT_EQ(fitted.ScoreAll(u), loaded.ScoreAll(u)) << "user " << u;
    }
  }
  {
    UserKnnRecommender fitted({.num_neighbors = 10, .max_audience = 6});
    ASSERT_TRUE(fitted.Fit(train, &pool).ok());
    ArtifactReader r(ArtifactBytes::Copy(SaveToString(fitted)));
    UserKnnRecommender loaded;
    ASSERT_TRUE(loaded.Load(r, &train).ok());
    for (UserId u = 0; u < train.num_users(); u += 7) {
      ASSERT_EQ(fitted.ScoreAll(u), loaded.ScoreAll(u)) << "user " << u;
    }
  }
}

}  // namespace
}  // namespace ganc
