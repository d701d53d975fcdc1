// ScoringContext one-thread-for-life ownership: the context binds to the
// first thread that borrows a buffer, a second thread touching it is a
// contract violation that debug builds catch with an abort (the serving
// scheduler's one-context-per-worker rule rides on this).

#include "recommender/scoring_context.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace ganc {
namespace {

TEST(ScoringContextOwnerTest, SameThreadReuseIsFine) {
  ScoringContext ctx;
  (void)ctx.Scores(16);
  (void)ctx.BatchScores(64);
  (void)ctx.Candidates();
  (void)ctx.TopK();
  (void)ctx.Flags();
  (void)ctx.Indices();
  (void)ctx.BatchUsers();
  (void)ctx.Buffer(3, 8);
  (void)ctx.Items(2);
  SUCCEED();
}

// RbtReranker holds Items(1) while it asks for Items(2): a slot must
// keep its address when a later call adds slots.
TEST(ScoringContextOwnerTest, ItemSlotsKeepTheirAddressWhenSlotsAreAdded) {
  ScoringContext ctx;
  std::vector<ItemId>& head = ctx.Candidates();
  head.assign({3, 1, 4});
  std::vector<ItemId>* slots[4] = {&head};
  for (size_t slot = 1; slot < 4; ++slot) slots[slot] = &ctx.Items(slot * 8);
  for (size_t slot = 1; slot < 4; ++slot) {
    EXPECT_EQ(slots[slot], &ctx.Items(slot * 8)) << "slot " << slot * 8;
  }
  EXPECT_EQ(&head, &ctx.Candidates());
  EXPECT_EQ(head, (std::vector<ItemId>{3, 1, 4}));
}

TEST(ScoringContextOwnerTest, BindsToFirstUsingThreadNotConstructor) {
  // Constructing on one thread and using on another is allowed — the
  // chunked parallel loops construct per-chunk contexts wherever the
  // closure object lives and use them on the worker.
  ScoringContext ctx;
  std::thread worker([&ctx] {
    (void)ctx.Scores(8);
    (void)ctx.TopK();
  });
  worker.join();
  SUCCEED();
}

TEST(ScoringContextOwnerTest, SecondThreadAccessDiesInDebugBuilds) {
#ifdef NDEBUG
  GTEST_SKIP() << "ownership is asserted only in debug builds";
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ScoringContext ctx;
  (void)ctx.Scores(8);  // bind to this thread
  EXPECT_DEATH(
      {
        std::thread other([&ctx] { (void)ctx.Scores(8); });
        other.join();
      },
      "ScoringContext");
#endif
}

TEST(ScoringContextOwnerTest, EachWorkerOwningItsOwnContextIsSafe) {
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([] {
      ScoringContext ctx;
      for (int i = 0; i < 100; ++i) {
        (void)ctx.Scores(32);
        (void)ctx.TopK();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  SUCCEED();
}

}  // namespace
}  // namespace ganc
