// End-to-end coverage of the cluster embodiment (DESIGN.md §13): a real
// ClusterCoordinator over real in-process ShardWorkers on loopback TCP,
// differentially verified against the single-process BcService on the
// same stream. The acceptance bar of the distributed-serving PR: N ∈
// {1, 2, 4} shards must match the single process within 1e-7 on add/remove
// churn — including a shard crash + checkpoint/WAL rejoin mid-stream —
// plus the failure ladder over the wire: chaos-transport partitions heal
// through the bounded reconnect path, an exhausted retry budget takes the
// coordinator read-only (snapshots keep serving), and a Degraded shard
// degrades the coordinator.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bc/brandes.h"
#include "cluster/chaos_transport.h"
#include "cluster/coordinator.h"
#include "cluster/shard_worker.h"
#include "cluster/transport.h"
#include "cluster/wire.h"
#include "common/fault_io.h"
#include "common/io.h"
#include "common/rng.h"
#include "gen/stream_generators.h"
#include "graph/graph.h"
#include "server/bc_service.h"
#include "tests/test_util.h"
#include "tests/testlib/scenarios.h"

namespace sobc {
namespace {

namespace fs = std::filesystem;

using testutil::ExpectScoresNear;
using testutil::RandomConnectedGraph;

constexpr double kTol = 1e-7;

/// Polls `cond` every 5ms until true or the timeout lapses.
bool WaitFor(const std::function<bool()>& cond, double timeout_seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return cond();
}

class ClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/sobc_cluster_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override {
    Io::Install(nullptr);
    fs::remove_all(root_);
  }

  ShardWorkerOptions WorkerOptions(std::size_t index, std::size_t count) {
    ShardWorkerOptions options;
    options.shard_index = index;
    options.shard_count = count;
    options.poll_seconds = 0.02;
    return options;
  }

  ClusterCoordinatorOptions CoordinatorOptions() {
    ClusterCoordinatorOptions options;
    // Small batches so a stream spans many epochs — the replay window,
    // resync, and merge paths all see real multi-epoch traffic.
    options.queue.max_batch = 8;
    options.queue.batch_latency_budget_seconds = 0.002;
    options.reconnect_backoff_seconds = 0.02;
    return options;
  }

  /// The single-process truth: the same stream through one BcService.
  std::shared_ptr<const ScoreSnapshot> ReferenceSnapshot(
      const Graph& base, const EdgeStream& stream) {
    BcServiceOptions options;
    options.queue.max_batch = 8;
    auto service = BcService::Create(Graph(base), options);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    EXPECT_EQ((*service)->SubmitAll(stream), stream.size());
    EXPECT_TRUE((*service)->Drain().ok());
    auto snap = (*service)->snapshot();
    EXPECT_TRUE((*service)->Stop().ok());
    return snap;
  }

  std::string root_;
};

// --- the acceptance differential --------------------------------------------

TEST_F(ClusterTest, ShardedClusterMatchesSingleProcessOnChurn) {
  const auto [base, stream] = testlib::ChurnScenario(
      /*seed=*/41, /*n=*/30, /*extra_edges=*/24, /*updates=*/60);
  const auto reference = ReferenceSnapshot(base, stream);

  for (std::size_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    TcpTransport transport;
    std::vector<std::unique_ptr<ShardWorker>> workers;
    std::vector<std::string> addresses;
    for (std::size_t i = 0; i < shards; ++i) {
      auto worker = ShardWorker::Start(Graph(base), &transport, "127.0.0.1:0",
                                       WorkerOptions(i, shards));
      ASSERT_TRUE(worker.ok()) << worker.status().ToString();
      addresses.push_back((*worker)->address());
      workers.push_back(std::move(*worker));
    }

    auto coordinator = ClusterCoordinator::Connect(
        Graph(base), addresses, &transport, CoordinatorOptions());
    ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();

    // The bring-up snapshot is the merged Step-1 truth at epoch 0.
    const auto bringup = (*coordinator)->snapshot();
    EXPECT_EQ(bringup->epoch, 0u);
    ExpectScoresNear(ComputeBrandes(base),
                     BcScores{bringup->vbc, bringup->ebc}, kTol,
                     std::to_string(shards) + "-shard bring-up");

    EXPECT_EQ((*coordinator)->SubmitAll(stream), stream.size());
    ASSERT_TRUE((*coordinator)->Drain().ok())
        << (*coordinator)->last_error().ToString();

    const auto snap = (*coordinator)->snapshot();
    EXPECT_EQ(snap->stream_position, stream.size());
    EXPECT_EQ((*coordinator)->final_position(), stream.size());
    EXPECT_EQ((*coordinator)->health(), ServiceHealth::kHealthy);
    ExpectScoresNear(BcScores{reference->vbc, reference->ebc},
                     BcScores{snap->vbc, snap->ebc}, kTol,
                     std::to_string(shards) + "-shard cluster");
    EXPECT_EQ(snap->num_vertices, reference->num_vertices);
    EXPECT_EQ(snap->num_edges, reference->num_edges);
    // The shards' MS-BFS counters reach the coordinator's metrics, as a
    // single process's reach its own (each shard's prefilter folds at
    // least once per applied update).
    EXPECT_GT((*coordinator)->metrics().msbfs_batches, 0u);

    // Epochs advanced in lockstep on every shard.
    for (const ShardStatus& status : (*coordinator)->shard_status()) {
      EXPECT_EQ(status.epoch, (*coordinator)->final_epoch());
      EXPECT_EQ(status.health, ServiceHealth::kHealthy);
      EXPECT_EQ(status.reconnects, 0u);
    }

    EXPECT_TRUE((*coordinator)->Stop().ok());
    // The clean shutdown reached every worker; Wait returns promptly.
    for (auto& worker : workers) {
      worker->Wait();
      EXPECT_TRUE(worker->Stop().ok());
    }
  }
}

TEST_F(ClusterTest, ShardCrashAndCheckpointRejoinMidStreamStillConverges) {
  const auto [base, stream] = testlib::ChurnScenario(
      /*seed=*/42, /*n=*/28, /*extra_edges=*/20, /*updates=*/48);
  const auto reference = ReferenceSnapshot(base, stream);

  TcpTransport transport;
  const std::size_t shards = 2;
  std::vector<std::unique_ptr<ShardWorker>> workers;
  std::vector<std::string> addresses;
  std::vector<ShardWorkerOptions> worker_options;
  for (std::size_t i = 0; i < shards; ++i) {
    ShardWorkerOptions options = WorkerOptions(i, shards);
    // Durable shards: the crashed one recovers from its base checkpoint +
    // WAL tail, exactly the process-kill path.
    const std::string tag = root_ + "/s" + std::to_string(i);
    options.service.durability.wal_dir = tag + "_wal";
    options.service.durability.checkpoint_dir = tag + "_cp";
    auto worker = ShardWorker::Start(Graph(base), &transport, "127.0.0.1:0",
                                     options);
    ASSERT_TRUE(worker.ok()) << worker.status().ToString();
    addresses.push_back((*worker)->address());
    workers.push_back(std::move(*worker));
    worker_options.push_back(options);
  }

  ClusterCoordinatorOptions options = CoordinatorOptions();
  options.shard_retry_seconds = 8.0;
  auto coordinator = ClusterCoordinator::Connect(Graph(base), addresses,
                                                 &transport, options);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();

  const std::size_t half = stream.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    ASSERT_TRUE((*coordinator)->Submit(stream[i]));
  }
  ASSERT_TRUE((*coordinator)->Drain().ok());

  // Crash shard 1 the hard way: no clean shutdown, no final checkpoint.
  workers[1]->Halt();
  // Restart it on the same address from its durable state. The rejoin is
  // wire-driven: the handshake reports the recovered epoch and the
  // coordinator resends what the crash lost from its replay window.
  RecoveryInfo info;
  auto restarted = ShardWorker::Recover(&transport, addresses[1],
                                        worker_options[1], &info);
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  EXPECT_TRUE(restarted->get()->range() == workers[1]->range());
  workers[1] = std::move(*restarted);

  for (std::size_t i = half; i < stream.size(); ++i) {
    ASSERT_TRUE((*coordinator)->Submit(stream[i]));
  }
  ASSERT_TRUE((*coordinator)->Drain().ok())
      << (*coordinator)->last_error().ToString();
  EXPECT_EQ((*coordinator)->health(), ServiceHealth::kHealthy);

  const auto snap = (*coordinator)->snapshot();
  EXPECT_EQ(snap->stream_position, stream.size());
  ExpectScoresNear(BcScores{reference->vbc, reference->ebc},
                   BcScores{snap->vbc, snap->ebc}, kTol,
                   "crash+rejoin cluster");

  const std::vector<ShardStatus> status = (*coordinator)->shard_status();
  ASSERT_EQ(status.size(), shards);
  EXPECT_GE(status[1].reconnects, 1u) << "the crash must have been healed "
                                         "through the reconnect path";
  EXPECT_EQ(status[1].epoch, (*coordinator)->final_epoch());
  EXPECT_EQ(status[0].reconnects, 0u);

  EXPECT_TRUE((*coordinator)->Stop().ok());
  for (auto& worker : workers) EXPECT_TRUE(worker->Stop().ok());
}

// --- failure ladder over the wire -------------------------------------------

TEST_F(ClusterTest, PartitionedShardHealsThroughBoundedReconnects) {
  const auto [base, stream] = testlib::ChurnScenario(
      /*seed=*/43, /*n=*/26, /*extra_edges=*/18, /*updates=*/48);
  const auto reference = ReferenceSnapshot(base, stream);

  TcpTransport inner;
  ChaosTransport chaos(&inner);
  const std::size_t shards = 2;
  std::vector<std::unique_ptr<ShardWorker>> workers;
  std::vector<std::string> addresses;
  for (std::size_t i = 0; i < shards; ++i) {
    auto worker = ShardWorker::Start(Graph(base), &inner, "127.0.0.1:0",
                                     WorkerOptions(i, shards));
    ASSERT_TRUE(worker.ok()) << worker.status().ToString();
    addresses.push_back((*worker)->address());
    workers.push_back(std::move(*worker));
  }

  // Every connection the coordinator makes to shard 0 dies after 3 frames
  // — repeated partitions mid-replication. Bring-up (hello + fetch = 2
  // frames) fits under the break; each replication connection then loses
  // its first ack and each reconnect makes at least one epoch of progress
  // (handshake + one resend/fetch fit under the break), so replication
  // keeps converging through the faults. The plan is armed before Connect
  // because ChaosTransport binds a plan to connections made after SetPlan.
  ChaosPlan plan;
  plan.drop_after_sends = 3;
  chaos.SetPlan(addresses[0], plan);

  ClusterCoordinatorOptions options = CoordinatorOptions();
  options.shard_retry_seconds = 8.0;
  auto coordinator = ClusterCoordinator::Connect(Graph(base), addresses,
                                                 &chaos, options);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();

  EXPECT_EQ((*coordinator)->SubmitAll(stream), stream.size());
  ASSERT_TRUE((*coordinator)->Drain().ok())
      << (*coordinator)->last_error().ToString();
  EXPECT_EQ((*coordinator)->health(), ServiceHealth::kHealthy);

  const auto snap = (*coordinator)->snapshot();
  EXPECT_EQ(snap->stream_position, stream.size());
  ExpectScoresNear(BcScores{reference->vbc, reference->ebc},
                   BcScores{snap->vbc, snap->ebc}, kTol,
                   "partitioned cluster");

  const std::vector<ShardStatus> status = (*coordinator)->shard_status();
  EXPECT_GE(status[0].reconnects, 1u);
  EXPECT_EQ(status[1].reconnects, 0u);

  // Heal the plan so shutdown reaches shard 0 cleanly.
  chaos.SetPlan(addresses[0], ChaosPlan{});
  (void)(*coordinator)->Stop();
  for (auto& worker : workers) EXPECT_TRUE(worker->Stop().ok());
}

TEST_F(ClusterTest, ExhaustedRetryBudgetTakesTheCoordinatorReadOnly) {
  const auto [base, stream] = testlib::ChurnScenario(
      /*seed=*/44, /*n=*/24, /*extra_edges=*/16, /*updates=*/32);

  TcpTransport transport;
  const std::size_t shards = 2;
  std::vector<std::unique_ptr<ShardWorker>> workers;
  std::vector<std::string> addresses;
  for (std::size_t i = 0; i < shards; ++i) {
    auto worker = ShardWorker::Start(Graph(base), &transport, "127.0.0.1:0",
                                     WorkerOptions(i, shards));
    ASSERT_TRUE(worker.ok()) << worker.status().ToString();
    addresses.push_back((*worker)->address());
    workers.push_back(std::move(*worker));
  }

  ClusterCoordinatorOptions options = CoordinatorOptions();
  options.shard_ack_timeout_seconds = 1.0;
  options.shard_retry_seconds = 0.5;
  options.connect_timeout_seconds = 0.5;
  auto coordinator = ClusterCoordinator::Connect(Graph(base), addresses,
                                                 &transport, options);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();

  const std::size_t half = stream.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    ASSERT_TRUE((*coordinator)->Submit(stream[i]));
  }
  ASSERT_TRUE((*coordinator)->Drain().ok());
  const auto last_good = (*coordinator)->snapshot();

  // Kill shard 0 and never bring it back: the per-batch recovery loop
  // burns its whole retry budget on refused connects, and the coordinator
  // goes read-only instead of hanging.
  workers[0]->Halt();
  for (std::size_t i = half; i < stream.size(); ++i) {
    (void)(*coordinator)->Submit(stream[i]);
  }
  const Status drain = (*coordinator)->Drain();
  EXPECT_FALSE(drain.ok());
  EXPECT_EQ((*coordinator)->health(), ServiceHealth::kReadOnly);
  EXPECT_FALSE((*coordinator)->last_error().ok());

  // Read-only, not down: the last published merge still serves, and new
  // submissions are rejected fast.
  const auto snap = (*coordinator)->snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_GE(snap->stream_position, last_good->stream_position);
  EXPECT_FALSE((*coordinator)->Submit(stream[0]));

  const ServeMetricsSnapshot metrics = (*coordinator)->metrics();
  EXPECT_EQ(metrics.health, "readonly");
  EXPECT_FALSE(metrics.last_error.empty());

  EXPECT_FALSE((*coordinator)->Stop().ok());
  EXPECT_TRUE(workers[1]->Stop().ok());
}

// The cluster twin of BcService.CoalescedAwayBatchAddsNoSourcePasses: an
// empty batch replicates (epochs advance in lockstep), but no shard
// reports source passes for it.
TEST_F(ClusterTest, CoalescedAwayBatchAddsNoSourcePasses) {
  Rng rng(46);
  const Graph base = RandomConnectedGraph(24, 16, &rng);
  std::vector<VertexId> absent;
  for (VertexId v = 1; absent.size() < 2; ++v) {
    if (!base.HasEdge(0, v)) absent.push_back(v);
  }
  TcpTransport transport;
  const std::size_t shards = 2;
  std::vector<std::unique_ptr<ShardWorker>> workers;
  std::vector<std::string> addresses;
  for (std::size_t i = 0; i < shards; ++i) {
    auto worker = ShardWorker::Start(Graph(base), &transport, "127.0.0.1:0",
                                     WorkerOptions(i, shards));
    ASSERT_TRUE(worker.ok()) << worker.status().ToString();
    addresses.push_back((*worker)->address());
    workers.push_back(std::move(*worker));
  }
  ClusterCoordinatorOptions options = CoordinatorOptions();
  options.queue.max_batch = 2;  // each pair below drains as one batch
  options.queue.batch_latency_budget_seconds = 5.0;
  auto coordinator = ClusterCoordinator::Connect(Graph(base), addresses,
                                                 &transport, options);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();

  const EdgeStream updates = {{0, absent[0], EdgeOp::kAdd, 0.0},
                              {0, absent[1], EdgeOp::kAdd, 0.0},
                              {0, absent[0], EdgeOp::kRemove, 0.0},
                              {0, absent[0], EdgeOp::kAdd, 0.0}};
  ASSERT_EQ((*coordinator)->SubmitAll(updates), updates.size());
  ASSERT_TRUE((*coordinator)->Drain().ok());
  const ServeMetricsSnapshot metrics = (*coordinator)->metrics();
  EXPECT_EQ(metrics.batches, 2u);
  EXPECT_EQ(metrics.applied, 2u);
  EXPECT_EQ(metrics.sources_total, base.NumVertices() * metrics.applied);
  for (auto& worker : workers) {
    EXPECT_EQ(worker->service()->final_epoch(), 2u);
  }
  EXPECT_TRUE((*coordinator)->Stop().ok());
  for (auto& worker : workers) EXPECT_TRUE(worker->Stop().ok());
}

// The coordinator twin of BcService.WriterErrorSurfacesThroughDrain: a
// batch the engine would reject dies on the coordinator's replica, so no
// shard ever sees (or logs) its epoch (DESIGN.md §13).
TEST_F(ClusterTest, PoisonBatchStopsAtTheCoordinator) {
  const auto [base, stream] = testlib::ChurnScenario(
      /*seed=*/45, /*n=*/24, /*extra_edges=*/16, /*updates=*/16);

  TcpTransport transport;
  const std::size_t shards = 2;
  std::vector<std::unique_ptr<ShardWorker>> workers;
  std::vector<std::string> addresses;
  for (std::size_t i = 0; i < shards; ++i) {
    auto worker = ShardWorker::Start(Graph(base), &transport, "127.0.0.1:0",
                                     WorkerOptions(i, shards));
    ASSERT_TRUE(worker.ok()) << worker.status().ToString();
    addresses.push_back((*worker)->address());
    workers.push_back(std::move(*worker));
  }
  auto coordinator = ClusterCoordinator::Connect(
      Graph(base), addresses, &transport, CoordinatorOptions());
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  ASSERT_EQ((*coordinator)->SubmitAll(stream), stream.size());
  ASSERT_TRUE((*coordinator)->Drain().ok());
  const std::uint64_t good_epoch = (*coordinator)->final_epoch();
  for (auto& worker : workers) {
    ASSERT_EQ(worker->service()->final_epoch(), good_epoch);
  }

  // Replay the stream on a copy to find a pair that is not an edge now.
  Graph current(base);
  for (const EdgeUpdate& update : stream) {
    ASSERT_TRUE(ApplyToGraph(&current, update).ok());
  }
  VertexId u = 0;
  VertexId v = 1;
  while (current.HasEdge(u, v)) ++v;
  ASSERT_LT(v, current.NumVertices());

  EXPECT_TRUE((*coordinator)->Submit({u, v, EdgeOp::kRemove, 0.0}));
  EXPECT_FALSE((*coordinator)->Drain().ok());
  EXPECT_EQ((*coordinator)->health(), ServiceHealth::kReadOnly);
  EXPECT_FALSE((*coordinator)->last_error().ok());
  EXPECT_FALSE((*coordinator)->Submit(stream[0]));
  EXPECT_EQ((*coordinator)->final_epoch(), good_epoch);
  for (auto& worker : workers) {
    EXPECT_EQ(worker->service()->final_epoch(), good_epoch);
    EXPECT_EQ(worker->service()->health(), ServiceHealth::kHealthy);
  }
  EXPECT_FALSE((*coordinator)->Stop().ok());
  for (auto& worker : workers) EXPECT_TRUE(worker->Stop().ok());
}

TEST_F(ClusterTest, DegradedShardDegradesTheCoordinator) {
  const auto [base, stream] = testlib::ChurnScenario(
      /*seed=*/45, /*n=*/26, /*extra_edges=*/18, /*updates=*/40);
  const auto reference = ReferenceSnapshot(base, stream);

  TcpTransport transport;
  const std::size_t shards = 2;
  std::vector<std::unique_ptr<ShardWorker>> workers;
  std::vector<std::string> addresses;
  for (std::size_t i = 0; i < shards; ++i) {
    ShardWorkerOptions options = WorkerOptions(i, shards);
    const std::string tag = root_ + "/s" + std::to_string(i);
    options.service.durability.wal_dir = tag + "_wal";
    // Only shard 0's checkpoint dir carries the fault filter substring, so
    // the process-global fault Io hits exactly one shard.
    options.service.durability.checkpoint_dir =
        tag + (i == 0 ? "_faultckpt" : "_cp");
    options.service.durability.checkpoint_every_updates = 8;
    options.service.durability.wal_fsync_every = 0;
    auto worker = ShardWorker::Start(Graph(base), &transport, "127.0.0.1:0",
                                     options);
    ASSERT_TRUE(worker.ok()) << worker.status().ToString();
    addresses.push_back((*worker)->address());
    workers.push_back(std::move(*worker));
  }

  auto coordinator = ClusterCoordinator::Connect(Graph(base), addresses,
                                                 &transport,
                                                 CoordinatorOptions());
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();

  {
    // Armed after bring-up: the next background checkpoint under shard 0's
    // checkpoint dir hits ENOSPC and degrades that shard; the degradation
    // must ride the next ack to the coordinator.
    FaultInjectingIo fault(*FaultSchedule::Parse("fsync~faultckpt@1=ENOSPC"));
    Io::Install(&fault);

    const std::size_t half = stream.size() / 2;
    for (std::size_t i = 0; i < half; ++i) {
      ASSERT_TRUE((*coordinator)->Submit(stream[i]));
    }
    ASSERT_TRUE((*coordinator)->Drain().ok());
    // Let shard 0's background checkpoint fail, then drive more batches so
    // its session observes the failure and acks with degraded health.
    (void)workers[0]->service()->QuiesceCheckpoints();
    for (std::size_t i = half; i < stream.size(); ++i) {
      ASSERT_TRUE((*coordinator)->Submit(stream[i]))
          << "a degraded cluster must keep accepting updates";
    }
    ASSERT_TRUE((*coordinator)->Drain().ok())
        << (*coordinator)->last_error().ToString();
    // Both shards' background checkpoint threads run through the
    // process-global Io; they must be idle before the fault Io dies.
    for (auto& worker : workers) (void)worker->service()->QuiesceCheckpoints();
    Io::Install(nullptr);
  }

  EXPECT_EQ(workers[0]->service()->health(), ServiceHealth::kDegraded);
  EXPECT_EQ((*coordinator)->health(), ServiceHealth::kDegraded);
  EXPECT_FALSE((*coordinator)->last_error().ok());

  const std::vector<ShardStatus> status = (*coordinator)->shard_status();
  EXPECT_EQ(status[0].health, ServiceHealth::kDegraded);
  EXPECT_EQ(status[1].health, ServiceHealth::kHealthy);

  // Degraded serving stayed correct the whole time.
  const auto snap = (*coordinator)->snapshot();
  EXPECT_EQ(snap->stream_position, stream.size());
  ExpectScoresNear(BcScores{reference->vbc, reference->ebc},
                   BcScores{snap->vbc, snap->ebc}, kTol, "degraded cluster");
  const ServeMetricsSnapshot metrics = (*coordinator)->metrics();
  EXPECT_EQ(metrics.health, "degraded");

  (void)(*coordinator)->Stop();
  for (auto& worker : workers) (void)worker->Stop();
}

// --- bring-up validation and the exactly-once contract ----------------------

TEST_F(ClusterTest, ConnectRefusesAnIncompleteShardRoster) {
  Rng rng(46);
  const Graph base = RandomConnectedGraph(20, 12, &rng);
  TcpTransport transport;
  // Two workers that each believe they are half of a 2-shard cluster...
  std::vector<std::unique_ptr<ShardWorker>> workers;
  std::vector<std::string> addresses;
  for (std::size_t i = 0; i < 2; ++i) {
    auto worker = ShardWorker::Start(Graph(base), &transport, "127.0.0.1:0",
                                     WorkerOptions(i, 2));
    ASSERT_TRUE(worker.ok()) << worker.status().ToString();
    addresses.push_back((*worker)->address());
    workers.push_back(std::move(*worker));
  }
  // ...must be refused when the coordinator was only given one of them:
  // the shard map would not tile the source space.
  auto partial = ClusterCoordinator::Connect(
      Graph(base), {addresses[0]}, &transport, CoordinatorOptions());
  EXPECT_FALSE(partial.ok());

  // And a graph that does not match what the shards were started with is
  // refused at the handshake, before any batch flows.
  Graph other = RandomConnectedGraph(21, 12, &rng);
  auto mismatched = ClusterCoordinator::Connect(
      std::move(other), addresses, &transport, CoordinatorOptions());
  EXPECT_FALSE(mismatched.ok());

  for (auto& worker : workers) EXPECT_TRUE(worker->Stop().ok());
}

TEST_F(ClusterTest, ReplicatedApplyIsExactlyOnceUnderRetries) {
  const auto [base, stream] = testlib::ChurnScenario(
      /*seed=*/47, /*n=*/16, /*extra_edges=*/10, /*updates=*/6,
      /*remove_fraction=*/0.0);

  BcServiceOptions options;
  options.replicated = true;
  auto service = BcService::Create(Graph(base), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  // Replicated mode has no internal coalescing point; Submit rejects.
  EXPECT_FALSE((*service)->Submit(stream[0]));

  std::span<const EdgeUpdate> all(stream);
  ASSERT_TRUE((*service)->ApplyReplicatedBatch(1, 3, all.subspan(0, 3)).ok());
  EXPECT_EQ((*service)->final_epoch(), 1u);
  const auto after_first = (*service)->snapshot();

  // A duplicate delivery (the coordinator lost the ack and resent) is a
  // silent no-op: same epoch, same published scores.
  ASSERT_TRUE((*service)->ApplyReplicatedBatch(1, 3, all.subspan(0, 3)).ok());
  EXPECT_EQ((*service)->final_epoch(), 1u);
  EXPECT_EQ((*service)->snapshot()->stream_position,
            after_first->stream_position);

  // A gap is refused — the coordinator must backfill epoch 2 first.
  const Status gap = (*service)->ApplyReplicatedBatch(3, 6, all.subspan(3));
  EXPECT_FALSE(gap.ok());
  EXPECT_EQ(gap.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ((*service)->final_epoch(), 1u);

  // The contiguous next epoch lands normally after the refused gap.
  ASSERT_TRUE((*service)->ApplyReplicatedBatch(2, 6, all.subspan(3)).ok());
  EXPECT_EQ((*service)->final_epoch(), 2u);
  EXPECT_EQ((*service)->final_position(), 6u);
  EXPECT_EQ((*service)->health(), ServiceHealth::kHealthy);
  EXPECT_TRUE((*service)->Stop().ok());
}

// --- coordinator failover ---------------------------------------------------

// The tentpole acceptance: hard-kill the primary at 10 different points in
// the stream; every trial the warm standby must take over, resume exactly
// where its tailed window stands (no lost and no duplicated epochs — the
// shards' dedupe + gap refusal make the reconciliation exactly-once), and
// finish the stream to the same scores as the single process.
TEST_F(ClusterTest, CoordinatorFailoverAtRandomKillPoints) {
  const auto [base, stream] = testlib::ChurnScenario(
      /*seed=*/48, /*n=*/24, /*extra_edges=*/18, /*updates=*/40);
  Rng rng(48);  // kill-point schedule only; the scenario is seed-complete
  const auto reference = ReferenceSnapshot(base, stream);

  for (int trial = 0; trial < 10; ++trial) {
    SCOPED_TRACE("trial=" + std::to_string(trial));
    TcpTransport transport;
    const std::size_t shards = 2;
    std::vector<std::unique_ptr<ShardWorker>> workers;
    std::vector<std::string> addresses;
    for (std::size_t i = 0; i < shards; ++i) {
      auto worker = ShardWorker::Start(Graph(base), &transport, "127.0.0.1:0",
                                       WorkerOptions(i, shards));
      ASSERT_TRUE(worker.ok()) << worker.status().ToString();
      addresses.push_back((*worker)->address());
      workers.push_back(std::move(*worker));
    }

    ClusterCoordinatorOptions options = CoordinatorOptions();
    options.standby_listen = "127.0.0.1:0";
    options.heartbeat_interval_seconds = 0.05;
    options.lease_timeout_seconds = 1.0;
    options.shard_retry_seconds = 8.0;
    auto primary = ClusterCoordinator::Connect(Graph(base), addresses,
                                               &transport, options);
    ASSERT_TRUE(primary.ok()) << primary.status().ToString();
    ASSERT_FALSE((*primary)->standby_address().empty());

    auto standby = ClusterCoordinator::Standby(
        Graph(base), addresses, &transport, (*primary)->standby_address(),
        options);
    ASSERT_TRUE(standby.ok()) << standby.status().ToString();
    ASSERT_TRUE(WaitFor([&] { return (*primary)->standby_attached(); }, 10.0))
        << "standby never finished catching up";
    EXPECT_EQ((*standby)->role(),
              ClusterCoordinator::Role::kStandbyTailing);
    // A standby that has not taken over serves nothing and accepts nothing.
    EXPECT_EQ((*standby)->snapshot(), nullptr);
    EXPECT_FALSE((*standby)->Submit(stream[0]));

    // The kill point: a different published position each trial. The
    // primary dies crash-shaped — no shutdown frames — so the standby sees
    // the feed go silent and the shards see EOF.
    const std::size_t kill_at = 1 + rng.Next() % stream.size();
    EXPECT_EQ((*primary)->SubmitAll(stream), stream.size());
    ASSERT_TRUE(WaitFor(
        [&] { return (*primary)->final_position() >= kill_at; }, 20.0))
        << "primary never published position " << kill_at;
    (*primary)->Halt();

    const Status active = (*standby)->WaitUntilActive(30.0);
    ASSERT_TRUE(active.ok()) << active.ToString();
    EXPECT_EQ((*standby)->role(), ClusterCoordinator::Role::kStandbyActive);

    // Replicate-before-fanout: the standby's resume point can never be
    // behind anything the primary published.
    const std::uint64_t resume = (*standby)->final_position();
    EXPECT_GE(resume, kill_at);
    ASSERT_LE(resume, stream.size());
    for (std::size_t i = resume; i < stream.size(); ++i) {
      ASSERT_TRUE((*standby)->Submit(stream[i]));
    }
    ASSERT_TRUE((*standby)->Drain().ok())
        << (*standby)->last_error().ToString();

    const auto snap = (*standby)->snapshot();
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->stream_position, stream.size());
    EXPECT_EQ((*standby)->final_position(), stream.size());
    EXPECT_EQ((*standby)->health(), ServiceHealth::kHealthy);
    ExpectScoresNear(BcScores{reference->vbc, reference->ebc},
                     BcScores{snap->vbc, snap->ebc}, kTol,
                     "failover trial " + std::to_string(trial));

    // No shard lost or double-counted an epoch across the takeover.
    for (const ShardStatus& status : (*standby)->shard_status()) {
      EXPECT_EQ(status.epoch, (*standby)->final_epoch());
    }
    const ServeMetricsSnapshot metrics = (*standby)->metrics();
    EXPECT_EQ(metrics.failovers, 1u);
    EXPECT_GE(metrics.failover_gap_seconds, 0.0);

    EXPECT_TRUE((*standby)->Stop().ok());
    for (auto& worker : workers) {
      worker->Wait();
      EXPECT_TRUE(worker->Stop().ok());
    }
  }
}

// --- live rebalancing --------------------------------------------------------

// Split a shard in half while the stream keeps flowing, then merge it
// back, and at both waypoints the merged scores must match the
// single-process truth — the double-apply window and the atomic
// map-version commit never lose or double-count a batch.
TEST_F(ClusterTest, LiveSplitAndMergeUnderLoadMatchDifferential) {
  const auto [base, stream] = testlib::ChurnScenario(
      /*seed=*/49, /*n=*/30, /*extra_edges=*/24, /*updates=*/60);
  const auto reference = ReferenceSnapshot(base, stream);
  const std::size_t third = stream.size() / 3;
  const EdgeStream prefix(stream.begin(), stream.begin() + 2 * third);
  const auto mid_reference = ReferenceSnapshot(base, prefix);

  TcpTransport transport;
  const std::size_t shards = 2;
  std::vector<std::unique_ptr<ShardWorker>> workers;
  std::vector<std::string> addresses;
  for (std::size_t i = 0; i < shards; ++i) {
    auto worker = ShardWorker::Start(Graph(base), &transport, "127.0.0.1:0",
                                     WorkerOptions(i, shards));
    ASSERT_TRUE(worker.ok()) << worker.status().ToString();
    addresses.push_back((*worker)->address());
    workers.push_back(std::move(*worker));
  }

  ClusterCoordinatorOptions options = CoordinatorOptions();
  options.shard_retry_seconds = 8.0;
  auto coordinator = ClusterCoordinator::Connect(Graph(base), addresses,
                                                 &transport, options);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();

  for (std::size_t i = 0; i < third; ++i) {
    ASSERT_TRUE((*coordinator)->Submit(stream[i]));
  }
  ASSERT_TRUE((*coordinator)->Drain().ok());

  // An empty worker waiting for the image; the split blocks until the
  // migration committed while the feeder keeps the stream flowing — some
  // batches MUST ride the double-apply window.
  auto recipient = ShardWorker::AwaitMigration(&transport, "127.0.0.1:0",
                                               WorkerOptions(0, 1));
  ASSERT_TRUE(recipient.ok()) << recipient.status().ToString();
  std::thread feeder([&] {
    for (std::size_t i = third; i < 2 * third; ++i) {
      EXPECT_TRUE((*coordinator)->Submit(stream[i]));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const Status split = (*coordinator)->SplitShard(0, (*recipient)->address());
  feeder.join();
  ASSERT_TRUE(split.ok()) << split.ToString();
  ASSERT_TRUE((*coordinator)->Drain().ok())
      << (*coordinator)->last_error().ToString();

  {
    const std::vector<ShardStatus> status = (*coordinator)->shard_status();
    ASSERT_EQ(status.size(), 3u);
    for (const ShardStatus& shard : status) {
      EXPECT_FALSE(shard.joining) << "the commit must clear the handoff";
      EXPECT_EQ(shard.epoch, (*coordinator)->final_epoch());
    }
    EXPECT_EQ(status[1].address, (*recipient)->address());
    const auto snap = (*coordinator)->snapshot();
    EXPECT_EQ(snap->stream_position, prefix.size());
    ExpectScoresNear(BcScores{mid_reference->vbc, mid_reference->ebc},
                     BcScores{snap->vbc, snap->ebc}, kTol,
                     "post-split cluster");
    const ServeMetricsSnapshot metrics = (*coordinator)->metrics();
    EXPECT_EQ(metrics.migrations_started, 1u);
    EXPECT_EQ(metrics.migrations_completed, 1u);
    EXPECT_EQ(metrics.shard_map_version, 2u);
  }

  // Merge the split pair back under load: the survivor rescopes to the
  // union range and the recipient retires, again without a publication
  // landing between the rescope and the roster change.
  std::thread feeder2([&] {
    for (std::size_t i = 2 * third; i < stream.size(); ++i) {
      EXPECT_TRUE((*coordinator)->Submit(stream[i]));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const Status merged = (*coordinator)->MergeShards(0);
  feeder2.join();
  ASSERT_TRUE(merged.ok()) << merged.ToString();
  ASSERT_TRUE((*coordinator)->Drain().ok())
      << (*coordinator)->last_error().ToString();

  const auto snap = (*coordinator)->snapshot();
  EXPECT_EQ(snap->stream_position, stream.size());
  EXPECT_EQ((*coordinator)->health(), ServiceHealth::kHealthy);
  ExpectScoresNear(BcScores{reference->vbc, reference->ebc},
                   BcScores{snap->vbc, snap->ebc}, kTol,
                   "post-merge cluster");
  const std::vector<ShardStatus> status = (*coordinator)->shard_status();
  ASSERT_EQ(status.size(), 2u);
  for (const ShardStatus& shard : status) {
    EXPECT_EQ(shard.epoch, (*coordinator)->final_epoch());
  }
  EXPECT_EQ((*coordinator)->metrics().shard_map_version, 3u);

  EXPECT_TRUE((*coordinator)->Stop().ok());
  // The merge retired the recipient with a clean shutdown.
  (*recipient)->Wait();
  EXPECT_TRUE((*recipient)->Stop().ok());
  for (auto& worker : workers) EXPECT_TRUE(worker->Stop().ok());
}

// --- shard-map versioning over the wire --------------------------------------

// Every range-carrying control frame must be refused when its map version
// is not strictly newer than what the shard already applied — a replayed
// plan or a delayed duplicate cannot silently re-cut ranges.
TEST_F(ClusterTest, StaleShardMapVersionIsRefusedOnEveryRangeFrame) {
  Rng rng(50);
  const Graph base = RandomConnectedGraph(20, 14, &rng);
  TcpTransport transport;
  auto worker = ShardWorker::Start(Graph(base), &transport, "127.0.0.1:0",
                                   WorkerOptions(0, 1));
  ASSERT_TRUE(worker.ok()) << worker.status().ToString();

  auto conn = transport.Connect((*worker)->address(), 5.0);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  const auto round_trip = [&](const std::string& frame) {
    Status sent = (*conn)->SendFrame(frame);
    EXPECT_TRUE(sent.ok()) << sent.ToString();
    std::string payload;
    Status received = (*conn)->RecvFrame(&payload, 10.0);
    EXPECT_TRUE(received.ok()) << received.ToString();
    return payload;
  };

  HelloMsg hello;
  hello.num_vertices = base.NumVertices();
  hello.num_edges = base.NumEdges();
  hello.directed = base.directed();
  {
    auto ack = DecodeHelloAck(round_trip(EncodeHello(hello)));
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    EXPECT_EQ(ack->map_version, 0u) << "a fresh worker was never told";
  }

  // Version 1 against a never-told worker is strictly newer: applied.
  SplitRangeMsg shrink;
  shrink.map_version = 1;
  shrink.range = ShardRange{0, static_cast<VertexId>(base.NumVertices() / 2)};
  {
    auto ack = DecodeReplicateAck(round_trip(EncodeSplitRange(shrink)));
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    EXPECT_TRUE(ack->ok) << ack->message;
  }
  {
    auto ack = DecodeHelloAck(round_trip(EncodeHello(hello)));
    ASSERT_TRUE(ack.ok());
    EXPECT_EQ(ack->map_version, 1u) << "the applied version must stick";
  }

  // The same version replayed — and an older one — are stale on every
  // range-carrying message type.
  {
    auto ack = DecodeReplicateAck(round_trip(EncodeSplitRange(shrink)));
    ASSERT_TRUE(ack.ok());
    EXPECT_FALSE(ack->ok);
    EXPECT_NE(ack->message.find("stale shard-map version"), std::string::npos)
        << ack->message;
  }
  MergeRangeMsg expand;
  expand.map_version = 1;
  expand.range = ShardRange{};  // full open-ended range
  {
    auto ack = DecodeReplicateAck(round_trip(EncodeMergeRange(expand)));
    ASSERT_TRUE(ack.ok());
    EXPECT_FALSE(ack->ok);
    EXPECT_NE(ack->message.find("stale shard-map version"), std::string::npos)
        << ack->message;
  }
  MigrateBeginMsg donate;
  donate.epoch = 0;  // matches, so the version check is what refuses
  donate.map_version = 1;
  donate.range = shrink.range;
  donate.recipient_address = "127.0.0.1:1";
  {
    auto ack = DecodeReplicateAck(round_trip(EncodeMigrateBegin(donate)));
    ASSERT_TRUE(ack.ok());
    EXPECT_FALSE(ack->ok);
    EXPECT_NE(ack->message.find("stale shard-map version"), std::string::npos)
        << ack->message;
  }

  // A strictly newer version still lands after the refusals.
  expand.map_version = 2;
  {
    auto ack = DecodeReplicateAck(round_trip(EncodeMergeRange(expand)));
    ASSERT_TRUE(ack.ok());
    EXPECT_TRUE(ack->ok) << ack->message;
  }
  EXPECT_TRUE((*worker)->range().open_ended());

  EXPECT_TRUE((*worker)->Stop().ok());
}

// --- chaos: duplication and delay --------------------------------------------

// A retransmitting path delivers every coordinator frame twice; the
// shard-side epoch dedupe must absorb the duplicates — each one acked,
// none applied twice.
TEST_F(ClusterTest, DuplicatedApplyFramesAreIdempotentOverTheWire) {
  const auto [base, stream] = testlib::ChurnScenario(
      /*seed=*/51, /*n=*/18, /*extra_edges=*/12, /*updates=*/6,
      /*remove_fraction=*/0.0);

  TcpTransport inner;
  ChaosTransport chaos(&inner);
  auto worker = ShardWorker::Start(Graph(base), &inner, "127.0.0.1:0",
                                   WorkerOptions(0, 1));
  ASSERT_TRUE(worker.ok()) << worker.status().ToString();

  ChaosPlan plan;
  plan.duplicate_sends = 8;  // every frame this test sends goes out twice
  chaos.SetPlan((*worker)->address(), plan);
  auto conn = chaos.Connect((*worker)->address(), 5.0);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();

  const auto recv = [&] {
    std::string payload;
    Status received = (*conn)->RecvFrame(&payload, 10.0);
    EXPECT_TRUE(received.ok()) << received.ToString();
    return payload;
  };

  HelloMsg hello;
  hello.num_vertices = base.NumVertices();
  hello.num_edges = base.NumEdges();
  hello.directed = base.directed();
  ASSERT_TRUE((*conn)->SendFrame(EncodeHello(hello)).ok());
  // The duplicated Hello earns two identical acks.
  auto ack1 = DecodeHelloAck(recv());
  auto ack2 = DecodeHelloAck(recv());
  ASSERT_TRUE(ack1.ok() && ack2.ok());
  EXPECT_EQ(ack1->epoch, ack2->epoch);

  ApplyMsg apply;
  apply.epoch = 1;
  apply.stream_position = 3;
  apply.updates.assign(stream.begin(), stream.begin() + 3);
  ASSERT_TRUE((*conn)->SendFrame(EncodeApply(apply)).ok());
  auto first = DecodeApplyAck(recv());
  auto duplicate = DecodeApplyAck(recv());
  ASSERT_TRUE(first.ok() && duplicate.ok());
  EXPECT_TRUE(first->ok) << first->message;
  EXPECT_TRUE(duplicate->ok) << "the duplicate must be a silent no-op, not "
                                "an error: " << duplicate->message;
  EXPECT_EQ(first->epoch, 1u);
  EXPECT_EQ(duplicate->epoch, 1u);
  // Same cumulative partial on both acks: the duplicate applied nothing.
  ExpectScoresNear(first->partial, duplicate->partial, 0.0,
                   "duplicated apply ack");
  EXPECT_EQ((*worker)->service()->final_epoch(), 1u);
  EXPECT_EQ((*worker)->service()->final_position(), 3u);

  // The next real epoch still lands exactly once after the duplicates.
  apply.epoch = 2;
  apply.stream_position = 6;
  apply.updates.assign(stream.begin() + 3, stream.end());
  ASSERT_TRUE((*conn)->SendFrame(EncodeApply(apply)).ok());
  auto next = DecodeApplyAck(recv());
  auto next_duplicate = DecodeApplyAck(recv());
  ASSERT_TRUE(next.ok() && next_duplicate.ok());
  EXPECT_TRUE(next->ok && next_duplicate->ok);
  EXPECT_EQ((*worker)->service()->final_epoch(), 2u);
  EXPECT_EQ((*worker)->service()->final_position(), 6u);

  EXPECT_TRUE((*worker)->Stop().ok());
}

// A slow link (per-frame send delay) must change nothing but latency: the
// cluster converges to the exact single-process scores with no reconnects.
TEST_F(ClusterTest, DelayedFramesOnlySlowTheClusterNotItsAnswers) {
  const auto [base, stream] = testlib::ChurnScenario(
      /*seed=*/52, /*n=*/24, /*extra_edges=*/16, /*updates=*/24);
  const auto reference = ReferenceSnapshot(base, stream);

  TcpTransport inner;
  ChaosTransport chaos(&inner);
  const std::size_t shards = 2;
  std::vector<std::unique_ptr<ShardWorker>> workers;
  std::vector<std::string> addresses;
  for (std::size_t i = 0; i < shards; ++i) {
    auto worker = ShardWorker::Start(Graph(base), &inner, "127.0.0.1:0",
                                     WorkerOptions(i, shards));
    ASSERT_TRUE(worker.ok()) << worker.status().ToString();
    addresses.push_back((*worker)->address());
    workers.push_back(std::move(*worker));
  }

  ChaosPlan plan;
  plan.send_delay_seconds = 0.002;
  chaos.SetPlan(addresses[0], plan);

  auto coordinator = ClusterCoordinator::Connect(Graph(base), addresses,
                                                 &chaos,
                                                 CoordinatorOptions());
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  EXPECT_EQ((*coordinator)->SubmitAll(stream), stream.size());
  ASSERT_TRUE((*coordinator)->Drain().ok())
      << (*coordinator)->last_error().ToString();

  const auto snap = (*coordinator)->snapshot();
  EXPECT_EQ(snap->stream_position, stream.size());
  ExpectScoresNear(BcScores{reference->vbc, reference->ebc},
                   BcScores{snap->vbc, snap->ebc}, kTol, "delayed cluster");
  for (const ShardStatus& status : (*coordinator)->shard_status()) {
    EXPECT_EQ(status.reconnects, 0u) << "delay is not a failure";
  }

  EXPECT_TRUE((*coordinator)->Stop().ok());
  for (auto& worker : workers) EXPECT_TRUE(worker->Stop().ok());
}

}  // namespace
}  // namespace sobc
