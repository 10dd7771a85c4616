#include "server/bc_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bc/brandes.h"
#include "bc/dynamic_bc.h"
#include "common/rng.h"
#include "gen/stream_generators.h"
#include "tests/test_util.h"

namespace sobc {
namespace {

using testutil::ExpectScoresNear;
using testutil::RandomConnectedGraph;

constexpr double kTol = 1e-7;

// --- DynamicBc::ApplyBatch --------------------------------------------------

TEST(ApplyBatch, MatchesPerUpdateApply) {
  Rng rng(11);
  const Graph base = RandomConnectedGraph(40, 25, &rng);
  EdgeStream stream = MixedUpdateStream(base, 30, 0.4, &rng);

  auto batched = DynamicBc::Create(base, {});
  ASSERT_TRUE(batched.ok());
  auto sequential = DynamicBc::Create(base, {});
  ASSERT_TRUE(sequential.ok());

  // Same stream, applied in chunks of 7 vs one at a time.
  for (std::size_t i = 0; i < stream.size(); i += 7) {
    const std::size_t end = std::min(stream.size(), i + 7);
    ASSERT_TRUE((*batched)
                    ->ApplyBatch({stream.data() + i, end - i})
                    .ok());
  }
  ASSERT_TRUE((*sequential)->ApplyAll(stream).ok());

  ExpectScoresNear((*sequential)->scores(), (*batched)->scores(), kTol,
                   "batched vs sequential");
  EXPECT_EQ((*batched)->graph().NumEdges(), (*sequential)->graph().NumEdges());
}

TEST(ApplyBatch, GrowsVerticesOnceForTheWholeBatch) {
  Graph g;
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  auto bc = DynamicBc::Create(g, {});
  ASSERT_TRUE(bc.ok());
  // Two updates introduce vertices 5 and then 9; growth must cover both.
  const std::vector<EdgeUpdate> batch = {{1, 5, EdgeOp::kAdd, 0.0},
                                         {5, 9, EdgeOp::kAdd, 0.0}};
  ASSERT_TRUE((*bc)->ApplyBatch(batch).ok());
  EXPECT_EQ((*bc)->graph().NumVertices(), 10u);
  ExpectScoresNear(ComputeBrandes((*bc)->graph()), (*bc)->scores(), kTol,
                   "grown batch");
}

TEST(ApplyBatch, RemovedEdgeResidueIsErasedButReAddedEdgeSurvives) {
  Rng rng(5);
  const Graph base = RandomConnectedGraph(20, 15, &rng);
  auto bc = DynamicBc::Create(base, {});
  ASSERT_TRUE(bc.ok());
  const EdgeKey victim = base.Edges().front();
  // Remove an edge for good: its ebc entry must vanish.
  const std::vector<EdgeUpdate> removal = {
      {victim.u, victim.v, EdgeOp::kRemove, 0.0}};
  ASSERT_TRUE((*bc)->ApplyBatch(removal).ok());
  EXPECT_EQ((*bc)->scores().ebc.count(victim), 0u);
  // Remove and re-add inside one batch: the entry must survive with the
  // correct (unchanged) score.
  const EdgeKey churn = (*bc)->graph().Edges().front();
  const std::vector<EdgeUpdate> bounce = {
      {churn.u, churn.v, EdgeOp::kRemove, 0.0},
      {churn.u, churn.v, EdgeOp::kAdd, 0.0}};
  ASSERT_TRUE((*bc)->ApplyBatch(bounce).ok());
  EXPECT_EQ((*bc)->scores().ebc.count(churn), 1u);
  ExpectScoresNear(ComputeBrandes((*bc)->graph()), (*bc)->scores(), kTol,
                   "bounced edge");
}

// --- BcService --------------------------------------------------------------

TEST(BcService, ServesExactScoresAfterDrain) {
  Rng rng(23);
  const Graph base = RandomConnectedGraph(50, 30, &rng);
  EdgeStream stream = MixedUpdateStream(base, 60, 0.35, &rng);

  BcServiceOptions options;
  options.queue.max_batch = 8;
  auto service = BcService::Create(base, options);
  ASSERT_TRUE(service.ok());

  const auto initial = (*service)->snapshot();
  EXPECT_EQ(initial->epoch, 0u);
  EXPECT_EQ(initial->stream_position, 0u);
  ExpectScoresNear(ComputeBrandes(base),
                   BcScores{initial->vbc, initial->ebc}, kTol, "epoch 0");

  EXPECT_EQ((*service)->SubmitAll(stream), stream.size());
  ASSERT_TRUE((*service)->Drain().ok());

  const auto snap = (*service)->snapshot();
  EXPECT_EQ(snap->stream_position, stream.size());
  EXPECT_GE(snap->epoch, 1u);

  // Readers must see exactly what the offline framework computes.
  Graph replayed = base;
  for (const EdgeUpdate& update : stream) {
    ASSERT_TRUE(ApplyToGraph(&replayed, update).ok());
  }
  EXPECT_EQ(snap->num_edges, replayed.NumEdges());
  ExpectScoresNear(ComputeBrandes(replayed), BcScores{snap->vbc, snap->ebc},
                   kTol, "drained");

  // Leaderboards were precomputed against the same scores.
  ASSERT_FALSE(snap->top_vertices.empty());
  std::vector<double> vbc = snap->vbc;
  std::sort(vbc.begin(), vbc.end(), std::greater<double>());
  EXPECT_NEAR(snap->top_vertices.front().second, vbc.front(), kTol);

  const ServeMetricsSnapshot metrics = (*service)->metrics();
  EXPECT_EQ(metrics.received, stream.size());
  EXPECT_EQ(metrics.applied + metrics.coalesced, stream.size());
  EXPECT_EQ(metrics.published_stream_position, stream.size());
  EXPECT_EQ(metrics.epoch_lag, 0u);
  EXPECT_EQ(metrics.dropped, 0u);
  ASSERT_TRUE((*service)->Stop().ok());
}

TEST(BcService, CoalescesChurnBeforeTheEngine) {
  Rng rng(7);
  const Graph base = RandomConnectedGraph(30, 20, &rng);
  // Toggle a pool of 3 edges 64 times: most batches collapse massively.
  EdgeStream stream = ChurnStream(base, 64, 3, &rng);
  ASSERT_EQ(stream.size(), 64u);

  BcServiceOptions options;
  options.queue.max_batch = 64;
  options.queue.batch_latency_budget_seconds = 0.05;
  auto service = BcService::Create(base, options);
  ASSERT_TRUE(service.ok());
  EXPECT_EQ((*service)->SubmitAll(stream), stream.size());
  ASSERT_TRUE((*service)->Drain().ok());

  const ServeMetricsSnapshot metrics = (*service)->metrics();
  EXPECT_EQ(metrics.applied + metrics.coalesced, 64u);
  EXPECT_GT(metrics.coalesced, 0u);

  // Correctness is untouched by coalescing.
  Graph replayed = base;
  for (const EdgeUpdate& update : stream) {
    ASSERT_TRUE(ApplyToGraph(&replayed, update).ok());
  }
  const auto snap = (*service)->snapshot();
  ExpectScoresNear(ComputeBrandes(replayed), BcScores{snap->vbc, snap->ebc},
                   kTol, "coalesced churn");
  ASSERT_TRUE((*service)->Stop().ok());
}

// A batch that coalesces to nothing still takes an epoch, but it runs no
// source passes: the engine counters describe applied updates only.
TEST(BcService, CoalescedAwayBatchAddsNoSourcePasses) {
  Rng rng(5);
  const Graph base = RandomConnectedGraph(20, 10, &rng);
  std::vector<VertexId> absent;
  for (VertexId v = 1; absent.size() < 2; ++v) {
    if (!base.HasEdge(0, v)) absent.push_back(v);
  }
  BcServiceOptions options;
  options.queue.max_batch = 2;  // each pair below drains as one batch
  options.queue.batch_latency_budget_seconds = 5.0;
  auto service = BcService::Create(base, options);
  ASSERT_TRUE(service.ok());

  const EdgeStream stream = {{0, absent[0], EdgeOp::kAdd, 0.0},
                             {0, absent[1], EdgeOp::kAdd, 0.0},
                             {0, absent[0], EdgeOp::kRemove, 0.0},
                             {0, absent[0], EdgeOp::kAdd, 0.0}};
  ASSERT_EQ((*service)->SubmitAll(stream), stream.size());
  ASSERT_TRUE((*service)->Drain().ok());
  const ServeMetricsSnapshot metrics = (*service)->metrics();
  EXPECT_EQ(metrics.batches, 2u);
  EXPECT_EQ(metrics.applied, 2u);
  EXPECT_EQ(metrics.coalesced, 2u);
  EXPECT_EQ(metrics.sources_total, base.NumVertices() * metrics.applied);
  ASSERT_TRUE((*service)->Stop().ok());
}

TEST(BcService, LeaderboardOnlySnapshotsSkipTheEdgeMap) {
  Rng rng(3);
  const Graph base = RandomConnectedGraph(20, 10, &rng);
  BcServiceOptions options;
  options.snapshot_edge_scores = false;
  options.top_k = 4;
  auto service = BcService::Create(base, options);
  ASSERT_TRUE(service.ok());
  const auto snap = (*service)->snapshot();
  EXPECT_TRUE(snap->ebc.empty());
  EXPECT_EQ(snap->top_edges.size(), 4u);
  EXPECT_EQ(snap->top_vertices.size(), 4u);
  ASSERT_TRUE((*service)->Stop().ok());
}

TEST(BcService, SubmitAfterStopIsRejected) {
  Rng rng(9);
  const Graph base = RandomConnectedGraph(10, 5, &rng);
  auto service = BcService::Create(base, {});
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Stop().ok());
  EXPECT_FALSE((*service)->Submit({0, 5, EdgeOp::kAdd, 0.0}));
  EXPECT_EQ((*service)->metrics().dropped, 1u);
}

TEST(BcService, WriterErrorSurfacesThroughDrain) {
  Graph g;
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  auto service = BcService::Create(g, {});
  ASSERT_TRUE(service.ok());
  EXPECT_EQ((*service)->health(), ServiceHealth::kHealthy);
  // (0,2) is not an edge: the removal fails inside the writer thread.
  EXPECT_TRUE((*service)->Submit({0, 2, EdgeOp::kRemove, 0.0}));
  EXPECT_FALSE((*service)->Drain().ok());
  EXPECT_FALSE((*service)->Stop().ok());
  // A failed writer stops accepting updates and lands on the terminal
  // rung of the health ladder with the cause recorded.
  EXPECT_FALSE((*service)->Submit({0, 2, EdgeOp::kAdd, 0.0}));
  EXPECT_EQ((*service)->health(), ServiceHealth::kReadOnly);
  EXPECT_FALSE((*service)->last_error().ok());
}

TEST(BcService, MetricsJsonCarriesTheHealthAndIoFields) {
  Rng rng(31);
  const Graph base = RandomConnectedGraph(20, 12, &rng);
  auto service = BcService::Create(base, {});
  ASSERT_TRUE(service.ok());
  const ServeMetricsSnapshot metrics = (*service)->metrics();
  EXPECT_EQ(metrics.health, "healthy");
  EXPECT_EQ(metrics.health_state, 0u);
  EXPECT_TRUE(metrics.last_error.empty());
  const std::string json = metrics.ToJson();
  // The operator-facing contract of docs/OPERATIONS.md: dashboards key on
  // these names.
  for (const char* key :
       {"\"health\": \"healthy\"", "\"health_state\": 0",
        "\"checkpoints_suspended\": 0", "\"writer_stalled\": 0",
        "\"last_error\": \"\"", "\"io_retries\": ", "\"io_retries_exhausted\": ",
        "\"io_faults_injected\": ", "\"wal_last_durable_epoch\": "}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key
                                                 << " in " << json;
  }
  ASSERT_TRUE((*service)->Stop().ok());
}

TEST(BcService, MetricsJsonEscapesTheErrorString) {
  ServeMetricsSnapshot snap;
  snap.last_error = "a \"quoted\\path\"\nwith\tcontrol\x01" "chars";
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"last_error\": \"a \\\"quoted\\\\path\\\"\\nwith"
                      "\\tcontrol\\u0001chars\""),
            std::string::npos)
      << json;
}

TEST(BcService, WatchdogOnlyRunsWhenConfigured) {
  Rng rng(33);
  const Graph base = RandomConnectedGraph(12, 6, &rng);
  // Default options: no watchdog, hook-free batches, Drain blocks until
  // published — writer_stalled can never be set.
  auto service = BcService::Create(base, {});
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Submit({0, 7, EdgeOp::kAdd, 0.0}));
  ASSERT_TRUE((*service)->Drain().ok());
  EXPECT_EQ((*service)->metrics().writer_stalled, 0u);
  ASSERT_TRUE((*service)->Stop().ok());
}

}  // namespace
}  // namespace sobc
