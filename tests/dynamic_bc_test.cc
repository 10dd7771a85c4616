// Framework-level API tests: persistence (checkpoint/resume), score files,
// option validation, the sampled estimator at zero updates, and the top-k
// utilities.

#include "bc/dynamic_bc.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "analysis/top_k.h"
#include "bc/brandes.h"
#include "bc/score_io.h"
#include "common/rng.h"
#include "gen/social_generator.h"
#include "gen/stream_generators.h"
#include "graph/graph.h"
#include "graph/graph_io.h"
#include "test_util.h"

namespace sobc {
namespace {

using testutil::ExpectScoresNear;
using testutil::RandomConnectedGraph;

constexpr double kTol = 1e-7;

class PersistenceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const auto& p : paths_) std::remove(p.c_str());
  }
  std::string TempPath(const std::string& name) {
    std::string p = ::testing::TempDir() + "/sobc_persist_" + name;
    paths_.push_back(p);
    return p;
  }
  std::vector<std::string> paths_;
};

TEST_F(PersistenceTest, ScoreFileRoundTrip) {
  Rng rng(71);
  Graph g = RandomConnectedGraph(20, 20, &rng);
  const BcScores original = ComputeBrandes(g);
  const std::string path = TempPath("scores.bin");
  ASSERT_TRUE(WriteScores(original, path).ok());
  auto loaded = ReadScores(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectScoresNear(original, *loaded, 0.0, "score file round trip");
}

TEST_F(PersistenceTest, ReadScoresRejectsGarbage) {
  const std::string path = TempPath("garbage.bin");
  FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("not a score file", f);
  std::fclose(f);
  EXPECT_FALSE(ReadScores(path).ok());
  EXPECT_FALSE(ReadScores(TempPath("missing.bin")).ok());
}

TEST_F(PersistenceTest, TsvExportContainsAllElements) {
  Rng rng(72);
  Graph g = RandomConnectedGraph(10, 5, &rng);
  const BcScores scores = ComputeBrandes(g);
  const std::string path = TempPath("scores.tsv");
  ASSERT_TRUE(WriteScoresTsv(scores, path).ok());
  std::ifstream in(path);
  std::string line;
  std::size_t vertex_lines = 0;
  std::size_t edge_lines = 0;
  while (std::getline(in, line)) {
    if (line.rfind("v\t", 0) == 0) ++vertex_lines;
    if (line.rfind("e\t", 0) == 0) ++edge_lines;
  }
  EXPECT_EQ(vertex_lines, g.NumVertices());
  EXPECT_EQ(edge_lines, scores.ebc.size());
}

TEST_F(PersistenceTest, CheckpointAndResumeContinuesExactly) {
  Rng rng(73);
  Graph g = RandomConnectedGraph(24, 24, &rng);
  const std::string store_path = TempPath("bd.bin");
  const std::string scores_path = TempPath("ckpt_scores.bin");
  const std::string graph_path = TempPath("ckpt_graph.txt");

  EdgeStream before = MixedUpdateStream(g, 8, 0.4, &rng);
  Graph checkpoint_graph;
  {
    DynamicBcOptions options;
    options.variant = BcVariant::kOutOfCore;
    options.storage_path = store_path;
    auto bc = DynamicBc::Create(g, options);
    ASSERT_TRUE(bc.ok()) << bc.status().ToString();
    ASSERT_TRUE((*bc)->ApplyAll(before).ok());
    ASSERT_TRUE((*bc)->Checkpoint(scores_path).ok());
    ASSERT_TRUE(WriteEdgeList((*bc)->graph(), graph_path).ok());
    checkpoint_graph = (*bc)->graph();
  }  // the process "restarts" here

  auto reloaded_graph = ReadEdgeList(graph_path);
  ASSERT_TRUE(reloaded_graph.ok());
  DynamicBcOptions options;
  options.variant = BcVariant::kOutOfCore;
  options.storage_path = store_path;
  auto resumed = DynamicBc::Resume(*reloaded_graph, options, scores_path);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

  // Scores at resume match a fresh recompute of the checkpointed graph.
  ExpectScoresNear(ComputeBrandes(checkpoint_graph), (*resumed)->scores(),
                   kTol, "resume state");

  // And the framework keeps updating exactly from there.
  EdgeStream after = MixedUpdateStream((*resumed)->graph(), 6, 0.4, &rng);
  for (const EdgeUpdate& update : after) {
    ASSERT_TRUE((*resumed)->Apply(update).ok());
    ExpectScoresNear(ComputeBrandes((*resumed)->graph()),
                     (*resumed)->scores(), kTol, "post-resume update");
    if (::testing::Test::HasFailure()) return;
  }
}

TEST_F(PersistenceTest, ResumeRejectsMismatchedGraph) {
  Rng rng(74);
  Graph g = RandomConnectedGraph(12, 10, &rng);
  const std::string store_path = TempPath("bd2.bin");
  const std::string scores_path = TempPath("scores2.bin");
  {
    DynamicBcOptions options;
    options.variant = BcVariant::kOutOfCore;
    options.storage_path = store_path;
    auto bc = DynamicBc::Create(g, options);
    ASSERT_TRUE(bc.ok());
    ASSERT_TRUE((*bc)->Checkpoint(scores_path).ok());
  }
  Graph wrong = RandomConnectedGraph(15, 10, &rng);  // different n
  DynamicBcOptions options;
  options.variant = BcVariant::kOutOfCore;
  options.storage_path = store_path;
  auto resumed = DynamicBc::Resume(wrong, options, scores_path);
  EXPECT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(PersistenceTest, ResumeRequiresOutOfCoreVariant) {
  Graph g;
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  auto resumed = DynamicBc::Resume(g, DynamicBcOptions{}, "/nope");
  EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PersistenceTest, CheckpointOnMemoryVariantFailsCleanly) {
  Graph g;
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  auto bc = DynamicBc::Create(g, DynamicBcOptions{});
  ASSERT_TRUE(bc.ok());
  // The score file is still written (useful by itself)...
  const std::string path = TempPath("mem_scores.bin");
  // ...but the call reports that BD durability is absent.
  EXPECT_EQ((*bc)->Checkpoint(path).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(ReadScores(path).ok());
}

// ---------------------------------------------------------------------------
// Option validation
// ---------------------------------------------------------------------------

TEST(DynamicBcOptionsTest, RejectsNegativeThreads) {
  Graph g;
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  DynamicBcOptions options;
  options.num_threads = -2;
  EXPECT_EQ(DynamicBc::Create(g, options).status().code(),
            StatusCode::kInvalidArgument);
  options.variant = BcVariant::kOutOfCore;
  options.storage_path = ::testing::TempDir() + "/sobc_negative_threads.bd";
  EXPECT_EQ(DynamicBc::Resume(g, options, options.storage_path + ".scores")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  options.num_threads = 0;  // hardware concurrency
  auto bc = DynamicBc::Create(g, options);
  ASSERT_TRUE(bc.ok()) << bc.status().ToString();
  EXPECT_GE((*bc)->num_threads(), 1);
  bc->reset();
  std::remove(options.storage_path.c_str());
}

// ---------------------------------------------------------------------------
// Sampled estimator before any update: Step 1 over k seeded sources,
// published n/k-scaled (DESIGN.md §15)
// ---------------------------------------------------------------------------

BcScores SampledEstimate(const Graph& g, std::size_t k, std::uint64_t seed) {
  DynamicBcOptions options;
  options.approx_samples = k;
  options.approx_seed = seed;
  auto bc = DynamicBc::Create(g, options);
  EXPECT_TRUE(bc.ok()) << bc.status().ToString();
  return bc.ok() ? (*bc)->EstimatedScores() : BcScores{};
}

// k = n samples every source with scale 1. Step 1 sweeps them in slot
// order with the per-source kernel, so sums match the batched Brandes
// sweep up to summation order (last-bit differences), not bit for bit.
TEST(SampledEstimateTest, FullSampleIsExact) {
  Rng rng(75);
  Graph g = RandomConnectedGraph(25, 30, &rng);
  ExpectScoresNear(ComputeBrandes(g), SampledEstimate(g, 25, 75), kTol,
                   "full sample");
}

TEST(SampledEstimateTest, EstimateTracksExactRanking) {
  Rng rng(76);
  SocialGraphParams params;
  params.edges_per_vertex = 4;
  Graph g = GenerateSocialGraph(300, params, &rng);
  const BcScores exact = ComputeBrandes(g);
  const BcScores approx = SampledEstimate(g, 100, 76);
  // A third of the sources recovers most of the top-10 leaderboard.
  EXPECT_GT(TopKOverlap(exact.vbc, approx.vbc, 10), 0.4);
  // Total mass is preserved in expectation; allow generous slack.
  double exact_total = 0.0;
  double approx_total = 0.0;
  for (double v : exact.vbc) exact_total += v;
  for (double v : approx.vbc) approx_total += v;
  EXPECT_NEAR(approx_total / exact_total, 1.0, 0.25);
}

TEST(SampledEstimateTest, MoreSourcesReduceError) {
  Rng rng(77);
  SocialGraphParams params;
  params.edges_per_vertex = 4;
  Graph g = GenerateSocialGraph(200, params, &rng);
  const BcScores exact = ComputeBrandes(g);
  auto mean_abs_error = [&](std::size_t k) {
    const BcScores approx = SampledEstimate(g, k, 123);
    double err = 0.0;
    for (std::size_t v = 0; v < exact.vbc.size(); ++v) {
      err += std::abs(exact.vbc[v] - approx.vbc[v]);
    }
    return err / static_cast<double>(exact.vbc.size());
  };
  EXPECT_LT(mean_abs_error(150), mean_abs_error(15));
}

TEST(SampledEstimateTest, RejectsEmptyAndHandlesTinyGraphs) {
  // No source to sample from: the approx mode refuses by design.
  DynamicBcOptions options;
  options.approx_samples = 4;
  EXPECT_EQ(DynamicBc::Create(Graph{}, options).status().code(),
            StatusCode::kInvalidArgument);
  // k above n clamps to every source.
  Graph tiny;
  ASSERT_TRUE(tiny.AddEdge(0, 1).ok());
  auto bc = DynamicBc::Create(tiny, options);
  ASSERT_TRUE(bc.ok()) << bc.status().ToString();
  EXPECT_EQ((*bc)->sample_sources().size(), 2u);
  EXPECT_EQ((*bc)->EstimatedScores().vbc.size(), 2u);
}

// ---------------------------------------------------------------------------
// Top-k utilities
// ---------------------------------------------------------------------------

TEST(TopKTest, OrdersByScoreThenId) {
  const std::vector<double> vbc = {5.0, 9.0, 9.0, 1.0};
  const auto top = TopKVertices(vbc, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].first, 1u);
  EXPECT_EQ(top[1].first, 2u);
  EXPECT_EQ(top[2].first, 0u);
}

TEST(TopKTest, KLargerThanInputIsClamped) {
  const auto top = TopKVertices({1.0, 2.0}, 10);
  EXPECT_EQ(top.size(), 2u);
}

TEST(TopKTest, TopEdges) {
  EbcMap ebc;
  ebc[EdgeKey{0, 1}] = 3.0;
  ebc[EdgeKey{1, 2}] = 7.0;
  ebc[EdgeKey{2, 3}] = 5.0;
  const auto top = TopKEdges(ebc, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, (EdgeKey{1, 2}));
  EXPECT_EQ(top[1].first, (EdgeKey{2, 3}));
}

TEST(TopKTest, OverlapBoundsAndIdentity) {
  const std::vector<double> a = {4.0, 3.0, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(TopKOverlap(a, a, 2), 1.0);
  const std::vector<double> b = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(TopKOverlap(a, b, 2), 0.0);  // disjoint top-2
  EXPECT_DOUBLE_EQ(TopKOverlap({}, {}, 3), 1.0);
}

}  // namespace
}  // namespace sobc
