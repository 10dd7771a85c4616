// The paper's MapReduce embodiment (Section 5, Fig. 4) realized as the
// source-major apply lanes of DynamicBc: lane counts from 1 to more lanes
// than vertices against the serial framework, the per-lane cluster timing
// record, and the online replay harness that consumes it.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <string>

#include "bc/brandes.h"
#include "bc/dynamic_bc.h"
#include "common/rng.h"
#include "gen/stream_generators.h"
#include "graph/graph.h"
#include "parallel/online_scheduler.h"
#include "parallel/thread_pool.h"
#include "test_util.h"

namespace sobc {
namespace {

using testutil::ExpectScoresNear;
using testutil::RandomConnectedGraph;

constexpr double kTol = 1e-7;

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, ParallelForCoversIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  ParallelFor(&pool, 100, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(PartitionedStoreTest, EnforcesRange) {
  InMemoryBdStore store(PredMode::kScanNeighbors, 5, 10);
  SourceBcData data;
  data.Resize(20);
  data.d[7] = 0;
  data.sigma[7] = 1;
  ASSERT_TRUE(store.PutInitial(7, std::move(data)).ok());
  EXPECT_EQ(store.source_begin(), 5u);
  EXPECT_EQ(store.source_end(), 10u);
  SourceView view;
  EXPECT_TRUE(store.View(7, &view).ok());
  EXPECT_FALSE(store.View(3, &view).ok());
  EXPECT_FALSE(store.View(12, &view).ok());
  SourceBcData other;
  other.Resize(20);
  EXPECT_EQ(store.PutInitial(11, std::move(other)).code(),
            StatusCode::kOutOfRange);
}

TEST(PartitionedStoreTest, OpenEndedPartitionAdoptsNewSources) {
  InMemoryBdStore store(PredMode::kScanNeighbors, 2, kInvalidVertex);
  SourceBcData data;
  data.Resize(4);
  data.d[2] = 0;
  data.sigma[2] = 1;
  ASSERT_TRUE(store.PutInitial(2, std::move(data)).ok());
  SourceBcData data3;
  data3.Resize(4);
  ASSERT_TRUE(store.PutInitial(3, std::move(data3)).ok());
  ASSERT_TRUE(store.Grow(6).ok());
  EXPECT_EQ(store.source_end(), 6u);
  SourceView view;
  ASSERT_TRUE(store.View(5, &view).ok());
  EXPECT_EQ(view.d[5], 0u);
  EXPECT_EQ(view.sigma[5], 1u);
}

TEST(TimingTest, CumulativeAndWall) {
  ParallelUpdateTiming timing;
  timing.lane_seconds = {0.5, 2.0, 1.0};
  timing.reduce_seconds = 0.25;
  EXPECT_DOUBLE_EQ(timing.CumulativeSeconds(), 3.75);
  EXPECT_DOUBLE_EQ(timing.ModeledWallSeconds(), 2.25);
}

struct ParallelCase {
  int lanes;
  BcVariant variant;
  const char* name;
};

class ParallelEquivalenceTest : public ::testing::TestWithParam<ParallelCase> {
};

TEST_P(ParallelEquivalenceTest, MatchesSequentialFramework) {
  const ParallelCase& param = GetParam();
  Rng rng(314);
  Graph g = RandomConnectedGraph(30, 40, &rng);
  EdgeStream stream = MixedUpdateStream(g, 15, 0.4, &rng);

  DynamicBcOptions options;
  options.num_threads = param.lanes;
  options.variant = param.variant;
  std::string store_path;
  if (param.variant == BcVariant::kOutOfCore) {
    store_path = ::testing::TempDir() + "/sobc_parallel_" + param.name + ".bd";
    options.storage_path = store_path;
  }
  auto parallel = DynamicBc::Create(g, options);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ASSERT_EQ((*parallel)->num_threads(), param.lanes);
  auto sequential = DynamicBc::Create(g, DynamicBcOptions{});
  ASSERT_TRUE(sequential.ok());

  ExpectScoresNear((*sequential)->scores(), (*parallel)->scores(), kTol,
                   std::string(param.name) + " after init");
  for (const EdgeUpdate& update : stream) {
    ASSERT_TRUE((*parallel)->Apply(update).ok());
    ASSERT_TRUE((*sequential)->Apply(update).ok());
    EXPECT_EQ((*parallel)->last_timing().lane_seconds.size(),
              static_cast<std::size_t>(param.lanes));
  }
  ExpectScoresNear((*sequential)->scores(), (*parallel)->scores(), kTol,
                   std::string(param.name) + " after stream");
  const UpdateStats stats = (*parallel)->last_update_stats();
  EXPECT_EQ(stats.sources_total, (*parallel)->graph().NumVertices());
  parallel->reset();
  if (!store_path.empty()) std::remove(store_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Partitions, ParallelEquivalenceTest,
    ::testing::Values(ParallelCase{1, BcVariant::kMemory, "p1"},
                      ParallelCase{3, BcVariant::kMemory, "p3"},
                      ParallelCase{8, BcVariant::kMemory, "p8"},
                      ParallelCase{64, BcVariant::kMemory, "p64_more_than_n"},
                      ParallelCase{4, BcVariant::kOutOfCore, "p4_disk"}),
    [](const ::testing::TestParamInfo<ParallelCase>& info) {
      return std::string(info.param.name);
    });

TEST(LaneTest, NewVertexGrowsAllPartitions) {
  Rng rng(7);
  Graph g = RandomConnectedGraph(12, 8, &rng);
  DynamicBcOptions options;
  options.num_threads = 3;
  auto parallel = DynamicBc::Create(g, options);
  ASSERT_TRUE(parallel.ok());
  ASSERT_TRUE((*parallel)->Apply({2, 15, EdgeOp::kAdd}).ok());
  EXPECT_EQ((*parallel)->graph().NumVertices(), 16u);
  BcScores expected = ComputeBrandes((*parallel)->graph());
  ExpectScoresNear(expected, (*parallel)->scores(), kTol, "growth");
}

// The cluster model reads one CPU time per lane, for one-update Apply and
// multi-update ApplyBatch alike; the slowest lane can never exceed the sum.
TEST(LaneTest, TimingCoversEveryLane) {
  Rng rng(9);
  Graph g = RandomConnectedGraph(40, 50, &rng);
  const EdgeStream stream = MixedUpdateStream(g, 20, 0.4, &rng);
  DynamicBcOptions options;
  options.num_threads = 3;
  auto bc = DynamicBc::Create(g, options);
  ASSERT_TRUE(bc.ok());
  auto expect_lanes_timed = [&](const char* what) {
    const ParallelUpdateTiming& timing = (*bc)->last_timing();
    EXPECT_EQ(timing.lane_seconds.size(),
              static_cast<std::size_t>((*bc)->num_threads()))
        << what;
    // Every lane at least patches its graph and prefilters.
    for (const double s : timing.lane_seconds) EXPECT_GT(s, 0.0) << what;
    EXPECT_GE(timing.reduce_seconds, 0.0) << what;
    EXPECT_GT(timing.CumulativeSeconds(), 0.0) << what;
    EXPECT_LE(timing.ModeledWallSeconds(), timing.CumulativeSeconds())
        << what;
  };
  ASSERT_TRUE((*bc)->Apply(stream.front()).ok());
  expect_lanes_timed("Apply");
  ASSERT_TRUE(
      (*bc)->ApplyBatch(std::span<const EdgeUpdate>(stream).subspan(1)).ok());
  expect_lanes_timed("ApplyBatch");
}

// ---------------------------------------------------------------------------
// Online scheduler
// ---------------------------------------------------------------------------

TEST(OnlineSchedulerTest, NoMissesWhenFast) {
  const std::vector<double> arrivals = {0.0, 10.0, 20.0, 30.0};
  const std::vector<double> processing = {1.0, 1.0, 1.0, 1.0};
  const OnlineReplayResult r = SimulateQueue(arrivals, processing);
  EXPECT_EQ(r.total_updates, 4u);
  EXPECT_EQ(r.deadline_updates, 3u);
  EXPECT_EQ(r.missed, 0u);
  EXPECT_DOUBLE_EQ(r.missed_fraction, 0.0);
}

TEST(OnlineSchedulerTest, SlowProcessingMissesDeadlines) {
  const std::vector<double> arrivals = {0.0, 1.0, 2.0};
  const std::vector<double> processing = {5.0, 5.0, 5.0};
  const OnlineReplayResult r = SimulateQueue(arrivals, processing);
  EXPECT_EQ(r.missed, 2u);
  EXPECT_DOUBLE_EQ(r.missed_fraction, 1.0);
  // First update finishes at 5 (deadline 1, late 4); second starts at 5,
  // finishes at 10 (deadline 2, late 8): average 6.
  EXPECT_DOUBLE_EQ(r.avg_delay_seconds, 6.0);
}

TEST(OnlineSchedulerTest, QueueBacklogPropagates) {
  const std::vector<double> arrivals = {0.0, 1.0, 100.0};
  const std::vector<double> processing = {3.0, 0.5, 0.5};
  const OnlineReplayResult r = SimulateQueue(arrivals, processing);
  // Update 0 misses (finish 3 > 1). Update 1 waits until 3, finishes 3.5,
  // well before 100. Update 2 has no deadline.
  EXPECT_EQ(r.missed, 1u);
  EXPECT_DOUBLE_EQ(r.avg_delay_seconds, 2.0);
}

TEST(OnlineSchedulerTest, CapacityModelMath) {
  // tU = tS*n/p + tM
  EXPECT_DOUBLE_EQ(ModeledUpdateSeconds(0.01, 1000, 10, 0.5), 1.5);
  // p' > tS*n/(tI - tM): 0.01*1000/(2.5-0.5) = 5 -> need 6.
  EXPECT_EQ(RequiredMappers(0.01, 1000, 2.5, 0.5), 6);
  // Serial merge part alone exceeds the deadline.
  EXPECT_EQ(RequiredMappers(0.01, 1000, 0.4, 0.5), 0);
}

TEST(OnlineSchedulerTest, MoreMappersReduceModeledUpdateTime) {
  const double t1 = ModeledUpdateSeconds(0.002, 5000, 1, 0.01);
  const double t10 = ModeledUpdateSeconds(0.002, 5000, 10, 0.01);
  const double t100 = ModeledUpdateSeconds(0.002, 5000, 100, 0.01);
  EXPECT_GT(t1, t10);
  EXPECT_GT(t10, t100);
}

TEST(OnlineSchedulerTest, ReplayOnlineEndToEnd) {
  Rng rng(55);
  Graph g = RandomConnectedGraph(25, 20, &rng);
  EdgeStream stream = RandomAdditionStream(g, 8, &rng);
  StampArrivalTimes(&stream, {std::log(10.0), 0.5}, 0.0, &rng);

  DynamicBcOptions options;
  options.num_threads = 2;
  auto bc = DynamicBc::Create(g, options);
  ASSERT_TRUE(bc.ok());
  auto result = ReplayOnline(bc->get(), stream);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_updates, stream.size());
  EXPECT_EQ(result->update_seconds.size(), stream.size());
  EXPECT_EQ(result->inter_arrival_seconds.size(), stream.size() - 1);
  // Tiny graph, 10-second gaps: nothing should be late.
  EXPECT_EQ(result->missed, 0u);
}

TEST(OnlineSchedulerTest, ReplayRejectsUnsortedTimestamps) {
  Rng rng(56);
  Graph g = RandomConnectedGraph(10, 5, &rng);
  EdgeStream stream = RandomAdditionStream(g, 2, &rng);
  ASSERT_EQ(stream.size(), 2u);
  stream[0].timestamp = 5.0;
  stream[1].timestamp = 1.0;
  auto bc = DynamicBc::Create(g, DynamicBcOptions{});
  ASSERT_TRUE(bc.ok());
  EXPECT_FALSE(ReplayOnline(bc->get(), stream).ok());
}

}  // namespace
}  // namespace sobc
