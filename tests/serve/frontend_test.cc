// Frontend suite: the one request engine answers an edge transcript
// identically in every topology — in-process with 1 and 3 shards, and
// (when the ganc_serve binary is built) a 3-child ProcessRouter — except
// for the documented topology lines (PUBLISH, VERSION, SHARDS). STATS is
// exact over merged shards, Handle is safe from many threads at once,
// and every shard child runs the spawning process's kernel variant.

#include "serve/frontend.h"

#include <memory>
#include <regex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "recommender/factor_kernels.h"
#include "recommender/model_io.h"
#include "recommender/psvd.h"
#include "serve/recommendation_service.h"
#include "serve/service_shard.h"

namespace ganc {
namespace {

RatingDataset MakeTrain(uint64_t seed) {
  SyntheticSpec spec = TinySpec();
  spec.num_users = 50;
  spec.num_items = 90;
  spec.mean_activity = 16.0;
  spec.seed = seed;
  auto ds = GenerateSynthetic(spec);
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

std::string SaveModel(const RatingDataset& train, const std::string& path) {
  PsvdRecommender model(PsvdConfig{.num_factors = 8});
  EXPECT_TRUE(model.Fit(train).ok());
  EXPECT_TRUE(SaveModelFile(model, path).ok());
  return path;
}

class FrontendTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    train_ = new RatingDataset(MakeTrain(11));
    const std::string dir = testing::TempDir();
    cache_ = new std::string(dir + "/frontend_test.gdc");
    ASSERT_TRUE(train_->SaveBinaryFile(*cache_).ok());
    model_ = new std::string(SaveModel(*train_, dir + "/frontend_test.gam"));
    // Same shape, different ratings: PUBLISH must refuse it.
    mismatch_ = new std::string(
        SaveModel(MakeTrain(12), dir + "/frontend_test_mismatch.gam"));
  }

  // Runs once per suite (ProcessFrontendTest inherits the set-up).
  static void TearDownTestSuite() {
    delete train_;
    delete cache_;
    delete model_;
    delete mismatch_;
    train_ = nullptr;
    cache_ = model_ = mismatch_ = nullptr;
  }

  /// An in-process Frontend over `num_shards` shards. Each gets its own
  /// metrics registry, so no count leaks between Frontends (or into the
  /// process-global registry a ProcessRouter's merge reads).
  static std::unique_ptr<Frontend> InProcess(size_t num_shards) {
    ServiceConfig config;
    config.default_n = 5;
    config.metrics = std::make_shared<MetricsRegistry>();
    auto router = ShardRouter::Load(SnapshotKind::kModel, *model_, *train_,
                                    num_shards, config);
    EXPECT_TRUE(router.ok()) << router.status().ToString();
    return std::make_unique<Frontend>(std::move(router).value());
  }

  static std::vector<std::string> Run(Frontend& frontend,
                                      const std::vector<std::string>& lines) {
    std::vector<std::string> replies;
    for (const std::string& line : lines) {
      bool quit = false;
      replies.push_back(frontend.Handle(line, &quit));
    }
    return replies;
  }

  static std::vector<std::string> EdgeTranscript() {
    return {"",
            "CONSUME session=s user=1 items=999999",
            "CONSUME session=s user=1 items=-5",
            "CONSUME session=s user=1 items=0,1",
            "TOPN user=1 session=s",
            "TOPNV user=1 n=3 session=s",
            "FETCH user=1",
            "PUBLISH path=" + *mismatch_,
            "VERSION",
            "SHARDS",
            "STATS",
            "TOPN user=2 n=4\r",
            "TOPN user=999999",
            "PING"};
  }
  // Positions of the topology lines in EdgeTranscript().
  static constexpr size_t kPublish = 7, kVersion = 8, kShards = 9;

  /// The replies with the topology lines dropped and TOPNV's snapshot
  /// version (a process-wide ticket) masked.
  static std::vector<std::string> TopologyFree(std::vector<std::string> r) {
    r.erase(r.begin() + kPublish, r.begin() + kShards + 1);
    for (std::string& line : r) {
      line = std::regex_replace(line, std::regex(" version=[0-9]+ "),
                                " version=V ");
    }
    return r;
  }

  static RatingDataset* train_;
  static std::string* cache_;
  static std::string* model_;
  static std::string* mismatch_;
};

RatingDataset* FrontendTest::train_ = nullptr;
std::string* FrontendTest::cache_ = nullptr;
std::string* FrontendTest::model_ = nullptr;
std::string* FrontendTest::mismatch_ = nullptr;

TEST_F(FrontendTest, EdgeTranscriptAnswersAlikeInProcess) {
  const std::vector<std::string> one = Run(*InProcess(1), EdgeTranscript());
  const std::vector<std::string> three = Run(*InProcess(3), EdgeTranscript());
  ASSERT_EQ(one.size(), EdgeTranscript().size());

  EXPECT_EQ(one[0], "ERR empty request line");
  EXPECT_EQ(one[1], "ERR consumed item id out of range");
  EXPECT_EQ(one[2], "ERR consumed item id out of range");
  EXPECT_EQ(one[3], "OK consumed=2");
  EXPECT_EQ(one[4].rfind("OK user=1 n=5 items=", 0), 0u) << one[4];
  EXPECT_EQ(one[5].rfind("OK user=1 n=3 version=", 0), 0u) << one[5];
  EXPECT_EQ(one[6], "ERR unknown command 'FETCH'");
  EXPECT_EQ(one[10],
            "OK requests=2 cache_hits=0 store_hits=0 live=2 batches=2 "
            "mean_fill=1.00");
  EXPECT_EQ(one[11].rfind("OK user=2 n=4 items=", 0), 0u) << one[11];
  EXPECT_EQ(one[12], "ERR user id 999999 out of range");
  EXPECT_EQ(one[13], "OK pong");
  // The session's consumed items are excluded from its lists.
  for (const std::string& item : {"=0,", ",0,", "=1,", ",1,"}) {
    EXPECT_EQ(one[4].find(item), std::string::npos) << one[4];
  }

  // Topology lines: one shard names its source, three shards name the
  // layout.
  EXPECT_EQ(one[kPublish].rfind("ERR publish failed on shard 0/1: ", 0), 0u)
      << one[kPublish];
  EXPECT_EQ(three[kPublish],
            "ERR publish failed on shard 0/3: " +
                one[kPublish].substr(one[kPublish].find(": ") + 2));
  EXPECT_TRUE(std::regex_match(one[kVersion],
                               std::regex("OK version=[0-9]+ source=PSVD8")))
      << one[kVersion];
  EXPECT_TRUE(std::regex_match(three[kVersion],
                               std::regex("OK versions=[0-9]+,[0-9]+,[0-9]+")))
      << three[kVersion];
  EXPECT_EQ(one[kShards], "OK shards=1 mode=inprocess users=50");
  EXPECT_EQ(three[kShards], "OK shards=3 mode=inprocess users=50");

  EXPECT_EQ(TopologyFree(three), TopologyFree(one));
}

TEST_F(FrontendTest, PublishAndVersionFollowTheShardCount) {
  std::unique_ptr<Frontend> one = InProcess(1);
  std::unique_ptr<Frontend> three = InProcess(3);
  const std::string publish = "PUBLISH path=" + *model_;
  EXPECT_TRUE(std::regex_match(
      Run(*one, {publish})[0], std::regex("OK version=[0-9]+ source=PSVD8")));
  EXPECT_TRUE(std::regex_match(Run(*three, {publish})[0],
                               std::regex("OK version=[0-9]+ shards=3")));
}

TEST(FormatStatsTest, MeanFillIsExactOverMergedShards) {
  // Per-shard (batches, batched requests). Recombining each shard's
  // rounded mean_fill=%.2f (1.00, 1.00, 2.00) gives 402/401 -> 1.00;
  // the exact value is 404/401 -> 1.01.
  const std::pair<uint64_t, uint64_t> shards[] = {{200, 201}, {200, 201},
                                                  {1, 2}};
  MetricsSnapshot merged;
  for (const auto& [batches, batched] : shards) {
    MetricsRegistry registry;
    registry.GetCounter("serve_requests_total", "")->Increment(batched);
    registry.GetCounter("serve_live_scored_total", "")->Increment(batched);
    registry.GetCounter("serve_batches_total", "")->Increment(batches);
    registry.GetCounter("serve_batched_requests_total", "")->Increment(batched);
    merged.MergeFrom(registry.Snapshot());
  }
  EXPECT_EQ(FormatStats(merged),
            "OK requests=404 cache_hits=0 store_hits=0 live=404 batches=401 "
            "mean_fill=1.01");
  EXPECT_EQ(FormatStats(MetricsSnapshot{}),
            "OK requests=0 cache_hits=0 store_hits=0 live=0 batches=0 "
            "mean_fill=0.00");
}

TEST_F(FrontendTest, ConcurrentHandleMatchesSerialReplies) {
  // Reference lists from a quiet Frontend.
  std::vector<std::string> requests;
  for (int u = 0; u < 50; ++u) {
    requests.push_back("TOPN user=" + std::to_string(u) + " n=5");
  }
  const std::vector<std::string> expected = Run(*InProcess(1), requests);

  // Four threads share one 3-shard Frontend: lists, per-thread
  // sessions, scrapes, and PUBLISHes of the same artifact (which swap
  // every shard's snapshot under the readers but serve identical bits).
  std::unique_ptr<Frontend> frontend = InProcess(3);
  constexpr int kThreads = 4;
  std::vector<std::vector<std::string>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      bool quit = false;
      const std::string session = "t" + std::to_string(t);
      for (size_t i = 0; i < requests.size(); ++i) {
        got[t].push_back(frontend->Handle(requests[i], &quit));
        if (i % 10 == 0) {
          frontend->Handle("CONSUME session=" + session + " user=1 items=2",
                           &quit);
          frontend->Handle("TOPN user=1 session=" + session, &quit);
          frontend->Handle(t == 0 ? "PUBLISH path=" + *model_ : "STATS",
                           &quit);
          frontend->Handle(t == 1 ? "METRICS" : "VERSION", &quit);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], expected) << t;

  // STATS counts every list exactly: 50 + 5 session lists per thread.
  bool quit = false;
  const std::string stats = frontend->Handle("STATS", &quit);
  EXPECT_EQ(stats.rfind("OK requests=" + std::to_string(kThreads * 55) + " ",
                        0),
            0u)
      << stats;
  EXPECT_EQ(frontend->num_sessions(), static_cast<size_t>(kThreads));
}

#if defined(GANC_SERVE_BINARY)

class ProcessFrontendTest : public FrontendTest {
 protected:
  static Result<std::unique_ptr<ProcessRouter>> Spawn() {
    return ProcessRouter::Spawn(GANC_SERVE_BINARY,
                                {"--dataset-cache=" + *cache_, "--kappa=1",
                                 "--model=" + *model_, "--default-n=5"},
                                3, train_->num_users());
  }
};

TEST_F(ProcessFrontendTest, EdgeTranscriptMatchesInProcess) {
  auto procs = Spawn();
  ASSERT_TRUE(procs.ok()) << procs.status().ToString();
  Frontend multi(std::move(procs).value());
  const std::vector<std::string> got = Run(multi, EdgeTranscript());
  const std::vector<std::string> three = Run(*InProcess(3), EdgeTranscript());
  const std::vector<std::string> one = Run(*InProcess(1), EdgeTranscript());

  // Each child answers from its own process, so every version is 1.
  EXPECT_EQ(got[kPublish], three[kPublish]);
  EXPECT_EQ(got[kVersion], "OK versions=1,1,1");
  EXPECT_EQ(got[kShards], "OK shards=3 mode=multiprocess users=50");
  // STATS is merged from the children's exact counters.
  EXPECT_EQ(got[10], one[10]);
  EXPECT_EQ(TopologyFree(got), TopologyFree(one));
  EXPECT_EQ(Run(multi, {"PUBLISH path=" + *model_})[0],
            "OK version=2 shards=3");
}

TEST_F(ProcessFrontendTest, ChildrenRunTheRoutersKernelVariant) {
  // Pin this process to scalar, which no child's own probe would pick
  // on a SIMD host: every child must report it on its READY line.
  ASSERT_TRUE(ForceKernelVariant(KernelVariant::kScalar).ok());
  auto procs = Spawn();
  ResetKernelDispatch();
  ASSERT_TRUE(procs.ok()) << procs.status().ToString();
  for (size_t k = 0; k < (*procs)->num_shards(); ++k) {
    EXPECT_NE((*procs)->ready_info(k).find(" kernel=scalar "),
              std::string::npos)
        << (*procs)->ready_info(k);
  }
}

TEST_F(ProcessFrontendTest, ConcurrentHandleAcrossChildren) {
  auto procs = Spawn();
  ASSERT_TRUE(procs.ok()) << procs.status().ToString();
  Frontend multi(std::move(procs).value());
  std::vector<std::string> requests;
  for (int u = 0; u < 50; ++u) {
    requests.push_back("TOPN user=" + std::to_string(u) + " n=5");
  }
  const std::vector<std::string> expected = Run(*InProcess(1), requests);
  std::vector<std::vector<std::string>> got(3);
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      bool quit = false;
      for (const std::string& r : requests) {
        got[t].push_back(multi.Handle(r, &quit));
      }
      multi.Handle("STATS", &quit);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < 3; ++t) EXPECT_EQ(got[t], expected) << t;
}

#else

TEST(ProcessFrontendTest, SkippedWithoutServeBinary) {
  GTEST_SKIP() << "ganc_serve binary not built";
}

#endif  // GANC_SERVE_BINARY

}  // namespace
}  // namespace ganc
