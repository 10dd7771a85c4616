// Degenerate-input coverage for the score reduce tree — the merge the
// cluster coordinator leans on every batch. The interesting inputs are
// exactly the ones a cluster produces: a single shard (no merge at all),
// per-shard partials whose dirty vertex sets are disjoint (each shard owns
// a contiguous source range, so their contributions touch different
// vertices), partials of different vbc lengths (a shard that grew the
// graph mid-batch), and the serial-vs-pooled fold agreeing bit for bit.

#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <vector>

#include "bc/bc_types.h"
#include "graph/graph.h"
#include "parallel/score_reduce.h"
#include "parallel/thread_pool.h"

namespace sobc {
namespace {

BcScores MakePartial(std::initializer_list<double> vbc,
                     std::initializer_list<std::pair<EdgeKey, double>> ebc) {
  BcScores scores;
  scores.vbc.assign(vbc);
  for (const auto& [key, value] : ebc) scores.ebc[key] = value;
  return scores;
}

std::vector<BcScores*> Pointers(std::vector<BcScores>* partials) {
  std::vector<BcScores*> out;
  for (BcScores& p : *partials) out.push_back(&p);
  return out;
}

TEST(ScoreReduceTest, ZeroPartialsIsANoOp) {
  std::vector<BcScores*> empty;
  // Must not crash or dereference; no merge means no critical path.
  EXPECT_EQ(TreeReduceScores(nullptr, empty), 0.0);
  ThreadPool pool(2);
  EXPECT_EQ(TreeReduceScores(&pool, empty), 0.0);
  EXPECT_TRUE(empty.empty());
}

TEST(ScoreReduceTest, SingleShardIsUntouched) {
  std::vector<BcScores> partials;
  partials.push_back(MakePartial({1.0, 2.5, 0.0}, {{EdgeKey{0, 1}, 3.0}}));
  auto pointers = Pointers(&partials);
  ThreadPool pool(2);
  TreeReduceScores(&pool, pointers);
  EXPECT_EQ(partials[0].vbc, (std::vector<double>{1.0, 2.5, 0.0}));
  ASSERT_EQ(partials[0].ebc.size(), 1u);
  EXPECT_EQ(partials[0].ebc.at(EdgeKey{0, 1}), 3.0);
}

TEST(ScoreReduceTest, DisjointDirtySetsConcatenateExactly) {
  // Three shards, each contributing to vertices/edges the others never
  // touch — the cluster's steady state. The merged result must be the
  // exact union: no contribution lost, none double-counted, and sums of
  // disjoint (one-sided) values are exact in floating point.
  std::vector<BcScores> partials;
  partials.push_back(
      MakePartial({1.0, 2.0, 0.0, 0.0, 0.0, 0.0}, {{EdgeKey{0, 1}, 7.0}}));
  partials.push_back(
      MakePartial({0.0, 0.0, 3.0, 4.0, 0.0, 0.0}, {{EdgeKey{2, 3}, 8.0}}));
  partials.push_back(
      MakePartial({0.0, 0.0, 0.0, 0.0, 5.0, 6.0}, {{EdgeKey{4, 5}, 9.0}}));
  auto pointers = Pointers(&partials);
  TreeReduceScores(nullptr, pointers);
  EXPECT_EQ(partials[0].vbc,
            (std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0, 6.0}));
  ASSERT_EQ(partials[0].ebc.size(), 3u);
  EXPECT_EQ(partials[0].ebc.at(EdgeKey{0, 1}), 7.0);
  EXPECT_EQ(partials[0].ebc.at(EdgeKey{2, 3}), 8.0);
  EXPECT_EQ(partials[0].ebc.at(EdgeKey{4, 5}), 9.0);
}

TEST(ScoreReduceTest, ShorterPartialGrowsToTheWidestVbc) {
  // A shard that saw a vertex-growing update reports a longer vbc than
  // one that has not published since; the merge must widen, not truncate.
  std::vector<BcScores> partials;
  partials.push_back(MakePartial({1.0}, {}));
  partials.push_back(MakePartial({0.5, 2.0, 3.0}, {}));
  auto pointers = Pointers(&partials);
  TreeReduceScores(nullptr, pointers);
  EXPECT_EQ(partials[0].vbc, (std::vector<double>{1.5, 2.0, 3.0}));
}

TEST(ScoreReduceTest, PooledTreeMatchesSerialFold) {
  // 7 shards (odd, forces uneven rounds) with overlapping contributions;
  // tree order must not change the result vs. the serial left fold,
  // bit for bit — every merge is an add of the same addends per slot in
  // the same round structure regardless of pool scheduling.
  auto build = [] {
    std::vector<BcScores> partials;
    for (std::size_t s = 0; s < 7; ++s) {
      BcScores p;
      p.vbc.assign(16, 0.0);
      for (std::size_t v = 0; v < 16; ++v) {
        p.vbc[v] = static_cast<double>((s * 31 + v * 7) % 13) * 0.25;
      }
      p.ebc[EdgeKey{0, static_cast<VertexId>(s + 1)}] = 1.0;
      p.ebc[EdgeKey{1, 2}] = static_cast<double>(s);
      partials.push_back(std::move(p));
    }
    return partials;
  };
  std::vector<BcScores> serial = build();
  auto serial_ptrs = Pointers(&serial);
  EXPECT_GE(TreeReduceScores(nullptr, serial_ptrs), 0.0);

  std::vector<BcScores> pooled = build();
  auto pooled_ptrs = Pointers(&pooled);
  ThreadPool pool(4);
  EXPECT_GE(TreeReduceScores(&pool, pooled_ptrs), 0.0);

  ASSERT_EQ(serial[0].vbc.size(), pooled[0].vbc.size());
  for (std::size_t v = 0; v < serial[0].vbc.size(); ++v) {
    // The tree re-associates additions, so allow one ulp-scale slack;
    // with these values both orders are exact anyway.
    EXPECT_DOUBLE_EQ(serial[0].vbc[v], pooled[0].vbc[v]) << "vertex " << v;
  }
  ASSERT_EQ(serial[0].ebc.size(), pooled[0].ebc.size());
  for (const auto& [key, value] : serial[0].ebc) {
    EXPECT_DOUBLE_EQ(value, pooled[0].ebc.at(key)) << "(" << key.u << ","
                                                   << key.v << ")";
  }
}

}  // namespace
}  // namespace sobc
