// Differential coverage for the source-major parallel apply and the
// affected-source prefilter (DESIGN.md §9): for every storage variant
// (MP/MO/DO) and every stream shape the paper distinguishes (additions,
// removals, disconnections, vertex growth), the framework must produce —
// after every single update, and after every multi-update batch — scores
// identical (up to floating-point summation order) whether the source loop
// runs serially, serially without the prefilter, or split across 2, 4 or 8
// lanes. From-scratch Brandes is the independent referee at every step.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bc/brandes.h"
#include "bc/dynamic_bc.h"
#include "common/rng.h"
#include "gen/stream_generators.h"
#include "graph/csr_view.h"
#include "tests/test_util.h"
#include "tests/testlib/scenarios.h"

namespace sobc {
namespace {

using testutil::ExpectScoresNear;
using testutil::RandomConnectedGraph;
using testutil::RandomGraph;

constexpr double kTol = 1e-7;

struct ApplyConfig {
  BcVariant variant = BcVariant::kMemory;
  int threads = 1;
  bool prefilter = true;
  // Storage-engine axes (DO only): record codec and async prefetch. The
  // tiny cache forces eviction traffic through the shared hot-record
  // cache even at test scale.
  RecordCodecId codec = RecordCodecId::kRaw;
  bool prefetch = false;
};

std::string ConfigName(const ApplyConfig& config) {
  std::string name;
  switch (config.variant) {
    case BcVariant::kMemory: name = "mo"; break;
    case BcVariant::kMemoryPredecessors: name = "mp"; break;
    case BcVariant::kOutOfCore: name = "do"; break;
  }
  name += "_t" + std::to_string(config.threads);
  if (!config.prefilter) name += "_noprefilter";
  if (config.variant == BcVariant::kOutOfCore) {
    name += std::string("_") + RecordCodecName(config.codec);
    if (config.prefetch) name += "_prefetch";
  }
  return name;
}

std::unique_ptr<DynamicBc> MakeBc(const Graph& graph,
                                  const ApplyConfig& config,
                                  const std::string& label) {
  DynamicBcOptions options;
  options.variant = config.variant;
  options.num_threads = config.threads;
  options.prefilter = config.prefilter;
  if (config.variant == BcVariant::kOutOfCore) {
    options.storage_path = ::testing::TempDir() + "/parallel_apply_" + label +
                           "_" + ConfigName(config) + ".bd";
    std::remove(options.storage_path.c_str());
    options.store_codec = config.codec;
    options.prefetch = config.prefetch;
    options.cache_mb = 1;
  }
  auto bc = DynamicBc::Create(graph, options);
  EXPECT_TRUE(bc.ok()) << bc.status().ToString();
  return bc.ok() ? std::move(*bc) : nullptr;
}

/// Replays `stream` under every configuration, holding each one to the
/// from-scratch answer after every single update.
void RunDifferential(const Graph& base, const EdgeStream& stream,
                     const std::string& label) {
  const std::vector<ApplyConfig> configs = {
      {BcVariant::kMemory, 1, true},
      {BcVariant::kMemory, 1, false},
      {BcVariant::kMemory, 2, true},
      {BcVariant::kMemory, 8, true},
      {BcVariant::kMemoryPredecessors, 2, true},
      {BcVariant::kMemoryPredecessors, 8, true},
      {BcVariant::kOutOfCore, 2, true},
      {BcVariant::kOutOfCore, 8, true},
      // The storage engine's axes: both codecs, with the async prefetcher
      // feeding the shared cache under the sharded drain.
      {BcVariant::kOutOfCore, 2, true, RecordCodecId::kDelta, false},
      {BcVariant::kOutOfCore, 8, true, RecordCodecId::kDelta, true},
      {BcVariant::kOutOfCore, 8, true, RecordCodecId::kRaw, true},
      {BcVariant::kOutOfCore, 1, true, RecordCodecId::kDelta, true},
  };
  std::vector<std::unique_ptr<DynamicBc>> frameworks;
  for (const ApplyConfig& config : configs) {
    frameworks.push_back(MakeBc(base, config, label));
    ASSERT_NE(frameworks.back(), nullptr);
  }

  Graph replay = base;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(ApplyToGraph(&replay, stream[i]).ok());
    const BcScores expected = ComputeBrandes(replay);
    for (std::size_t c = 0; c < configs.size(); ++c) {
      ASSERT_TRUE(frameworks[c]->Apply(stream[i]).ok())
          << label << " " << ConfigName(configs[c]) << " update " << i;
      ExpectScoresNear(expected, frameworks[c]->scores(), kTol,
                       label + " " + ConfigName(configs[c]) + " update " +
                           std::to_string(i));
      // The skipped/no-level-change/structural partition of the per-source
      // passes must stay exhaustive whichever path produced it.
      const UpdateStats& stats = frameworks[c]->last_update_stats();
      EXPECT_EQ(stats.sources_total, replay.NumVertices())
          << label << " " << ConfigName(configs[c]);
      EXPECT_EQ(stats.sources_total,
                stats.sources_skipped + stats.sources_non_structural +
                    stats.sources_structural)
          << label << " " << ConfigName(configs[c]);
      EXPECT_LE(stats.sources_prefiltered, stats.sources_skipped);
      if (!configs[c].prefilter) {
        EXPECT_EQ(stats.sources_prefiltered, 0u);
      }
    }
  }
}

TEST(ParallelApply, AdditionStreamAllVariants) {
  Rng rng(1001);
  const Graph base = RandomConnectedGraph(36, 24, &rng);
  const EdgeStream stream = RandomAdditionStream(base, 10, &rng);
  ASSERT_EQ(stream.size(), 10u);
  RunDifferential(base, stream, "additions");
}

TEST(ParallelApply, RemovalStreamAllVariants) {
  Rng rng(1002);
  const Graph base = RandomConnectedGraph(36, 28, &rng);
  const EdgeStream stream = RandomRemovalStream(base, 10, &rng);
  ASSERT_EQ(stream.size(), 10u);
  RunDifferential(base, stream, "removals");
}

constexpr VertexId kHalf = 14;

/// Two dense-ish clusters of kHalf vertices joined by the single bridge
/// (0, kHalf).
Graph TwoClusterGraph(Rng* rng) {
  Graph base;
  base.EnsureVertex(2 * kHalf - 1);
  for (VertexId v = 1; v < kHalf; ++v) {
    EXPECT_TRUE(base.AddEdge(static_cast<VertexId>(rng->Uniform(v)), v).ok());
    EXPECT_TRUE(base.AddEdge(kHalf + static_cast<VertexId>(rng->Uniform(v)),
                             kHalf + v)
                    .ok());
  }
  for (int i = 0; i < 8; ++i) {
    const auto u = static_cast<VertexId>(rng->Uniform(kHalf));
    const auto v = static_cast<VertexId>(rng->Uniform(kHalf));
    if (u != v) (void)base.AddEdge(u, v);
    const auto x = kHalf + static_cast<VertexId>(rng->Uniform(kHalf));
    const auto y = kHalf + static_cast<VertexId>(rng->Uniform(kHalf));
    if (x != y) (void)base.AddEdge(x, y);
  }
  EXPECT_TRUE(base.AddEdge(0, kHalf).ok());
  return base;
}

TEST(ParallelApply, DisconnectionStreamAllVariants) {
  // The stream cuts the bridge (splitting a component off — Section 4.5),
  // keeps churning each side, then heals the cut.
  Rng rng(1003);
  const Graph base = TwoClusterGraph(&rng);

  EdgeStream stream;
  stream.push_back({3, kHalf + 3, EdgeOp::kAdd, 0.0});
  stream.push_back({3, kHalf + 3, EdgeOp::kRemove, 0.0});
  stream.push_back({0, kHalf, EdgeOp::kRemove, 0.0});  // disconnects
  stream.push_back({1, 5, EdgeOp::kAdd, 0.0});
  stream.push_back({kHalf + 1, kHalf + 5, EdgeOp::kAdd, 0.0});
  stream.push_back({2, kHalf + 7, EdgeOp::kAdd, 0.0});  // re-joins
  stream.push_back({2, kHalf + 7, EdgeOp::kRemove, 0.0});
  stream.push_back({0, kHalf, EdgeOp::kAdd, 0.0});
  RunDifferential(base, stream, "disconnection");
}

TEST(ParallelApply, DirectedMixedStream) {
  Rng rng(1004);
  const Graph base = RandomGraph(30, 70, &rng, /*directed=*/true);
  const EdgeStream stream = MixedUpdateStream(base, 12, 0.4, &rng);
  RunDifferential(base, stream, "directed");
}

TEST(ParallelApply, PrefilterSkipsSourcesWithoutChangingScores) {
  Rng rng(1005);
  const Graph base = RandomConnectedGraph(40, 60, &rng);
  const EdgeStream stream = RandomAdditionStream(base, 8, &rng);

  DynamicBcOptions with;
  with.prefilter = true;
  DynamicBcOptions without;
  without.prefilter = false;
  auto a = DynamicBc::Create(base, with);
  auto b = DynamicBc::Create(base, without);
  ASSERT_TRUE(a.ok() && b.ok());

  UpdateStats totals;
  for (const EdgeUpdate& update : stream) {
    ASSERT_TRUE((*a)->Apply(update).ok());
    ASSERT_TRUE((*b)->Apply(update).ok());
    // The prefilter must skip exactly the sources the engine's BD probe
    // would have skipped — no more (scores would drift), no fewer (the
    // engine skip count would stay positive).
    EXPECT_EQ((*a)->last_update_stats().sources_skipped,
              (*b)->last_update_stats().sources_skipped);
    EXPECT_EQ((*a)->last_update_stats().sources_prefiltered,
              (*a)->last_update_stats().sources_skipped);
    totals.Merge((*a)->last_update_stats());
  }
  EXPECT_GT(totals.sources_prefiltered, 0u);
  ExpectScoresNear((*b)->scores(), (*a)->scores(), kTol, "prefilter on/off");
}

TEST(ParallelApply, AdjacencyListFallbackMatchesUnderThreads) {
  // use_csr=false routes prefilter BFS and repair kernels through the
  // pointer-chasing GraphAdjacency provider; the sharded drain must not
  // care which provider it monomorphized against.
  const auto [base, stream] = testlib::ChurnScenario(
      /*seed=*/1008, /*n=*/28, /*extra_edges=*/30, /*updates=*/12,
      /*remove_fraction=*/0.4);

  DynamicBcOptions options;
  options.use_csr = false;
  options.num_threads = 4;
  auto bc = DynamicBc::Create(base, options);
  ASSERT_TRUE(bc.ok());
  Graph replay = base;
  for (const EdgeUpdate& update : stream) {
    ASSERT_TRUE(ApplyToGraph(&replay, update).ok());
    ASSERT_TRUE((*bc)->Apply(update).ok());
  }
  ExpectScoresNear(ComputeBrandes(replay), (*bc)->scores(), kTol,
                   "adjacency fallback");
}

TEST(ParallelApply, BatchedParallelApplyMatchesPerUpdate) {
  const auto [base, stream] = testlib::ChurnScenario(
      /*seed=*/1006, /*n=*/32, /*extra_edges=*/40, /*updates=*/24,
      /*remove_fraction=*/0.35);

  DynamicBcOptions serial;
  auto expected = DynamicBc::Create(base, serial);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE((*expected)->ApplyAll(stream).ok());

  DynamicBcOptions parallel;
  parallel.num_threads = 8;
  auto batched = DynamicBc::Create(base, parallel);
  ASSERT_TRUE(batched.ok());
  for (std::size_t i = 0; i < stream.size(); i += 5) {
    const std::size_t take = std::min<std::size_t>(5, stream.size() - i);
    ASSERT_TRUE((*batched)->ApplyBatch({stream.data() + i, take}).ok());
  }
  ExpectScoresNear((*expected)->scores(), (*batched)->scores(), kTol,
                   "batched parallel");
}

/// Replays `stream` in ApplyBatch calls of 1, 7 and 64 updates under 2, 4
/// and 8 lanes of every variant, holding each framework to from-scratch
/// Brandes after every batch and every lane replica to the batch's final
/// graph.
void RunBatchDifferential(const Graph& base, const EdgeStream& stream,
                          const std::string& label) {
  for (const std::size_t batch : {1, 7, 64}) {
    std::vector<ApplyConfig> configs;
    for (const int threads : {2, 4, 8}) {
      configs.push_back({BcVariant::kMemory, threads});
      configs.push_back({BcVariant::kMemoryPredecessors, threads});
      configs.push_back({BcVariant::kOutOfCore, threads, true,
                         threads == 4 ? RecordCodecId::kDelta
                                      : RecordCodecId::kRaw,
                         /*prefetch=*/true});
    }
    const std::string tag = label + "_b" + std::to_string(batch);
    std::vector<std::unique_ptr<DynamicBc>> frameworks;
    for (const ApplyConfig& config : configs) {
      frameworks.push_back(MakeBc(base, config, tag));
      ASSERT_NE(frameworks.back(), nullptr);
    }
    Graph replay = base;
    for (std::size_t i = 0; i < stream.size(); i += batch) {
      const std::span<const EdgeUpdate> updates(
          stream.data() + i, std::min(batch, stream.size() - i));
      // Every update's source loop covers the whole (possibly grown)
      // vertex set, split across lanes or not.
      std::uint64_t sources = 0;
      for (const EdgeUpdate& update : updates) {
        ASSERT_TRUE(ApplyToGraph(&replay, update).ok());
        sources += replay.NumVertices();
      }
      const BcScores expected = ComputeBrandes(replay);
      const std::vector<EdgeKey> edges = replay.Edges();
      for (std::size_t c = 0; c < configs.size(); ++c) {
        const std::string where = tag + " " + ConfigName(configs[c]) +
                                  " batch at " + std::to_string(i);
        DynamicBc& bc = *frameworks[c];
        ASSERT_TRUE(bc.ApplyBatch(updates).ok()) << where;
        ExpectScoresNear(expected, bc.scores(), kTol, where);
        EXPECT_EQ(bc.last_update_stats().sources_total, sources) << where;
        ASSERT_EQ(bc.num_threads(), configs[c].threads);
        for (int lane = 0; lane < bc.num_threads(); ++lane) {
          const Graph& g = bc.lane_graph(static_cast<std::size_t>(lane));
          EXPECT_EQ(g.Edges(), edges) << where << " lane " << lane;
          EXPECT_EQ(g.NumVertices(), replay.NumVertices()) << where;
          EXPECT_LE(g.csr().stats().builds, 1u) << where << " lane " << lane;
        }
      }
    }
  }
}

TEST(ParallelApply, MultiUpdateBatchesAllVariants) {
  Rng rng(1010);
  const Graph base = TwoClusterGraph(&rng);
  const VertexId fresh = 2 * kHalf;  // first id beyond the base graph
  EdgeStream stream = {
      {3, kHalf + 3, EdgeOp::kAdd, 0.0},     // add, then remove in the
      {3, kHalf + 3, EdgeOp::kRemove, 0.0},  // same batch
      {0, kHalf, EdgeOp::kRemove, 0.0},      // cuts the only bridge
      {1, fresh, EdgeOp::kAdd, 0.0},         // grows mid-batch
      {fresh, fresh + 1, EdgeOp::kAdd, 0.0},
      {kHalf + 2, fresh + 3, EdgeOp::kAdd, 0.0},  // leaves fresh+2 isolated
      {2, kHalf + 7, EdgeOp::kAdd, 0.0},          // re-joins
  };
  Graph tracked = base;
  for (const EdgeUpdate& update : stream) {
    ASSERT_TRUE(ApplyToGraph(&tracked, update).ok());
  }
  // Churn with removals (some of which disconnect the sparse new tail),
  // then more growth inside the second 64-update batch.
  for (const EdgeUpdate& update : MixedUpdateStream(tracked, 60, 0.45, &rng)) {
    ASSERT_TRUE(ApplyToGraph(&tracked, update).ok());
    stream.push_back(update);
  }
  stream.push_back({2, kHalf + 7,
                    tracked.HasEdge(2, kHalf + 7) ? EdgeOp::kRemove
                                                  : EdgeOp::kAdd,
                    0.0});
  stream.push_back({5, fresh + 5, EdgeOp::kAdd, 0.0});
  RunBatchDifferential(base, stream, "batches");
}

TEST(ParallelApply, MultiUpdateBatchesFewerVerticesThanLanes) {
  Graph base;
  ASSERT_TRUE(base.AddEdge(0, 1).ok());
  ASSERT_TRUE(base.AddEdge(1, 2).ok());
  const EdgeStream stream = {
      {0, 2, EdgeOp::kAdd, 0.0},    {1, 2, EdgeOp::kRemove, 0.0},
      {2, 3, EdgeOp::kAdd, 0.0},    {3, 4, EdgeOp::kAdd, 0.0},
      {0, 1, EdgeOp::kRemove, 0.0}, {4, 5, EdgeOp::kAdd, 0.0},
      {1, 5, EdgeOp::kAdd, 0.0},    {0, 2, EdgeOp::kRemove, 0.0},
      {0, 2, EdgeOp::kAdd, 0.0},    {6, 9, EdgeOp::kAdd, 0.0},
      {5, 9, EdgeOp::kAdd, 0.0},    {2, 3, EdgeOp::kRemove, 0.0},
  };
  RunBatchDifferential(base, stream, "tiny");
}

TEST(ParallelApply, BatchStatsMatchSerial) {
  // Lanes partition the sources, so every per-source counter of a batch
  // must add up to exactly the serial framework's, whatever the variant.
  const auto [base, stream] = testlib::ChurnScenario(
      /*seed=*/1011, /*n=*/40, /*extra_edges=*/50, /*updates=*/192,
      /*remove_fraction=*/0.4);
  for (const BcVariant variant :
       {BcVariant::kMemory, BcVariant::kMemoryPredecessors,
        BcVariant::kOutOfCore}) {
    for (const bool prefilter : {true, false}) {
      const ApplyConfig serial_config{variant, 1, prefilter};
      const ApplyConfig lanes_config{variant, 4, prefilter};
      auto serial = MakeBc(base, serial_config, "stats");
      auto lanes = MakeBc(base, lanes_config, "stats");
      ASSERT_NE(serial, nullptr);
      ASSERT_NE(lanes, nullptr);
      for (std::size_t i = 0; i < stream.size(); i += 64) {
        const std::span<const EdgeUpdate> updates(
            stream.data() + i, std::min<std::size_t>(64, stream.size() - i));
        ASSERT_TRUE(serial->ApplyBatch(updates).ok());
        ASSERT_TRUE(lanes->ApplyBatch(updates).ok());
        const UpdateStats& a = serial->last_update_stats();
        const UpdateStats& b = lanes->last_update_stats();
        const std::string where = ConfigName(lanes_config) + " batch at " +
                                  std::to_string(i);
        EXPECT_EQ(a.sources_total, b.sources_total) << where;
        EXPECT_EQ(a.sources_skipped, b.sources_skipped) << where;
        EXPECT_EQ(a.sources_prefiltered, b.sources_prefiltered) << where;
        EXPECT_EQ(a.sources_non_structural, b.sources_non_structural)
            << where;
        EXPECT_EQ(a.sources_structural, b.sources_structural) << where;
        EXPECT_EQ(a.sources_disconnected, b.sources_disconnected) << where;
      }
      ExpectScoresNear(serial->scores(), lanes->scores(), kTol,
                       "stats " + ConfigName(lanes_config));
    }
  }
}

TEST(ParallelApply, PrefilterKernelCountedOncePerUpdate) {
  // Directed additions out of vertices nobody reaches: the only affected
  // source is the tail itself, so the engine never batches and every
  // MS-BFS batch is a prefilter endpoint fold. All lanes run that fold;
  // it must count once per update, as on the serial framework.
  Graph base(/*directed=*/true);
  for (VertexId v = 10; v + 1 < 30; ++v) {
    ASSERT_TRUE(base.AddEdge(v, v + 1).ok());
  }
  EdgeStream stream;
  for (VertexId root = 0; root < 10; ++root) {
    stream.push_back({root, static_cast<VertexId>(10 + 2 * root), EdgeOp::kAdd,
                      0.0});
  }
  for (const int threads : {1, 4}) {
    DynamicBcOptions options;
    options.num_threads = threads;
    auto bc = DynamicBc::Create(base, options);
    ASSERT_TRUE(bc.ok());
    ASSERT_TRUE((*bc)->ApplyBatch(stream).ok());
    EXPECT_EQ((*bc)->last_update_stats().msbfs_batches, stream.size())
        << threads << " lanes";
  }
}

TEST(ParallelApply, MsBfsScratchIsReusedAcrossParallelDrains) {
  // The MS-BFS scratch (every lane's engine and prefilter 2-lane fold)
  // must stop allocating once the lanes are warmed: lane slabs
  // and frontier masks are sized to the vertex count, which this stream
  // never grows, so steady-state traversal has to reuse the same backing
  // memory. This is the same sharded path the TSAN job exercises — a
  // fresh allocation here would also be a racing one.
  Rng rng(1009);
  const Graph base = RandomConnectedGraph(48, 80, &rng);
  const EdgeStream warmup = MixedUpdateStream(base, 6, 0.4, &rng);

  DynamicBcOptions options;
  options.num_threads = 4;
  auto bc = DynamicBc::Create(base, options);
  ASSERT_TRUE(bc.ok());
  Graph replay = base;
  for (const EdgeUpdate& update : warmup) {
    ASSERT_TRUE(ApplyToGraph(&replay, update).ok());
    ASSERT_TRUE((*bc)->Apply(update).ok());
  }
  const std::uint64_t warmed = (*bc)->MsBfsScratchAllocations();
  EXPECT_GT(warmed, 0u) << "warmup never reached the MS-BFS kernel";

  const EdgeStream steady = MixedUpdateStream(replay, 10, 0.4, &rng);
  for (const EdgeUpdate& update : steady) {
    ASSERT_TRUE(ApplyToGraph(&replay, update).ok());
    ASSERT_TRUE((*bc)->Apply(update).ok());
  }
  EXPECT_EQ((*bc)->MsBfsScratchAllocations(), warmed)
      << "MS-BFS scratch allocated during steady-state drains";
  ExpectScoresNear(ComputeBrandes(replay), (*bc)->scores(), kTol,
                   "scratch reuse");

  // The serving shape: 64-update batches, each lane walking the whole
  // batch over its own replica. Neither the lanes' scratch nor their
  // replicas' CsrViews may be rebuilt in steady state.
  auto apply_batches = [&](std::size_t count) {
    for (std::size_t b = 0; b < count; ++b) {
      const EdgeStream batch = MixedUpdateStream(replay, 64, 0.4, &rng);
      for (const EdgeUpdate& update : batch) {
        ASSERT_TRUE(ApplyToGraph(&replay, update).ok());
      }
      ASSERT_TRUE((*bc)->ApplyBatch(batch).ok());
    }
  };
  apply_batches(2);
  const std::uint64_t batch_warmed = (*bc)->MsBfsScratchAllocations();
  apply_batches(4);
  EXPECT_EQ((*bc)->MsBfsScratchAllocations(), batch_warmed)
      << "MS-BFS scratch allocated during steady-state batches";
  for (std::size_t lane = 0; lane < 4; ++lane) {
    EXPECT_LE((*bc)->lane_graph(lane).csr().stats().builds, 1u)
        << "lane " << lane;
  }
  ExpectScoresNear(ComputeBrandes(replay), (*bc)->scores(), kTol,
                   "scratch reuse, batched");
}

TEST(ParallelApply, VertexGrowthWithParallelDiskStore) {
  // New vertices arriving mid-stream force the store to grow past its
  // reserved capacity (rebuild + swap for the DO variant) while apply
  // workers hold per-worker handles — the handle-invalidation path.
  Rng rng(1007);
  const Graph base = RandomConnectedGraph(20, 14, &rng);

  for (const RecordCodecId codec :
       {RecordCodecId::kRaw, RecordCodecId::kDelta}) {
    DynamicBcOptions options;
    options.variant = BcVariant::kOutOfCore;
    options.storage_path = ::testing::TempDir() +
                           "/parallel_apply_growth_" +
                           RecordCodecName(codec) + ".bd";
    options.num_threads = 4;
    options.store_codec = codec;
    std::remove(options.storage_path.c_str());
    auto bc = DynamicBc::Create(base, options);
    ASSERT_TRUE(bc.ok()) << bc.status().ToString();

    Graph replay = base;
    for (VertexId fresh = 20; fresh < 44; ++fresh) {
      const EdgeUpdate update{static_cast<VertexId>(fresh % 7), fresh,
                              EdgeOp::kAdd, 0.0};
      ASSERT_TRUE(ApplyToGraph(&replay, update).ok());
      ASSERT_TRUE((*bc)->Apply(update).ok()) << "vertex " << fresh;
    }
    ExpectScoresNear(ComputeBrandes(replay), (*bc)->scores(), kTol,
                     std::string("disk growth under parallel apply, ") +
                         RecordCodecName(codec));
  }
}

TEST(ParallelApply, CoordinatorStoreReadsAreFreshAfterParallelDrain) {
  // The DO drain writes BD records through per-worker handles only; the
  // coordinator's own handle still holds the record Step 1 cached last
  // (the highest source). A public store() read of that source after a
  // parallel Apply must see the post-update values, not the cache.
  Graph base;
  constexpr VertexId kN = 10;
  for (VertexId v = 0; v + 1 < kN; ++v) {
    ASSERT_TRUE(base.AddEdge(v, v + 1).ok());  // path 0-1-...-9
  }
  DynamicBcOptions options;
  options.variant = BcVariant::kOutOfCore;
  options.storage_path = ::testing::TempDir() + "/parallel_apply_fresh.bd";
  options.num_threads = 2;
  std::remove(options.storage_path.c_str());
  auto bc = DynamicBc::Create(base, options);
  ASSERT_TRUE(bc.ok()) << bc.status().ToString();

  // Closing the ring drops d(9, 0) from 9 to 1 and d(9, 1) from 8 to 2.
  ASSERT_TRUE((*bc)->Apply({kN - 1, 0, EdgeOp::kAdd, 0.0}).ok());
  Distance d0 = 0;
  Distance d1 = 0;
  ASSERT_TRUE((*bc)->store()->PeekDistances(kN - 1, 0, 1, &d0, &d1).ok());
  EXPECT_EQ(d0, 1u);
  EXPECT_EQ(d1, 2u);
}

}  // namespace
}  // namespace sobc
