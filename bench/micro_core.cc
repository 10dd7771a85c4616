// Microbenchmarks (google-benchmark) for the core building blocks: Brandes
// sweeps, incremental updates, the out-of-core store, generators and graph
// analytics. These are engineering benchmarks, not paper reproductions —
// use them to catch regressions in the hot paths.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/connected_components.h"
#include "analysis/graph_stats.h"
#include "bc/bd_store_disk.h"
#include "bc/brandes.h"
#include "bc/dynamic_bc.h"
#include "common/env.h"
#include "common/rng.h"
#include "gen/social_generator.h"
#include "gen/stream_generators.h"
#include "graph/csr_view.h"
#include "graph/graph.h"
#include "graph/msbfs.h"
#include "server/score_snapshot.h"
#include "server/update_queue.h"

namespace sobc {
namespace {

Graph MakeSocial(std::size_t n) {
  Rng rng(42);
  return GenerateSocialGraph(n, SocialGraphParams::PaperDefaults(), &rng);
}

/// Full BFS from `s`, returning the number of visited vertices. This is the
/// traversal shape every hot path shares (Brandes search phase, incremental
/// repair, analysis sweeps).
std::size_t BfsSweep(const CsrView& adj, VertexId s,
                     std::vector<Distance>* dist,
                     std::vector<VertexId>* queue) {
  std::fill(dist->begin(), dist->end(), kUnreachable);
  queue->clear();
  (*dist)[s] = 0;
  queue->push_back(s);
  for (std::size_t head = 0; head < queue->size(); ++head) {
    const VertexId v = (*queue)[head];
    for (VertexId w : adj.OutNeighbors(v)) {
      if ((*dist)[w] == kUnreachable) {
        (*dist)[w] = (*dist)[v] + 1;
        queue->push_back(w);
      }
    }
  }
  return queue->size();
}

void BM_TraversalSweep(benchmark::State& state) {
  const Graph g = MakeSocial(static_cast<std::size_t>(state.range(0)));
  std::vector<Distance> dist(g.NumVertices());
  std::vector<VertexId> queue;
  VertexId s = 0;
  std::size_t visited = 0;
  for (auto _ : state) {
    visited += BfsSweep(g.csr(), s, &dist, &queue);
    s = static_cast<VertexId>((s + 1) % g.NumVertices());
  }
  benchmark::DoNotOptimize(visited);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.NumEdges()));
}
BENCHMARK(BM_TraversalSweep)->Arg(1024)->Arg(4096)->Arg(16384)->Arg(65536);

// ---------------------------------------------------------------------------
// Bit-parallel MS-BFS (DESIGN.md §14): one 64-lane batch vs the 64 scalar
// sweeps it replaces, and the direction-optimizing switch on/off. Both
// report items_per_second in edges * sources so the pair is comparable.
// ---------------------------------------------------------------------------

void BM_ScalarBfs64Sources(benchmark::State& state) {
  const Graph g = MakeSocial(static_cast<std::size_t>(state.range(0)));
  const CsrView& adj = g.csr();
  std::vector<Distance> dist(g.NumVertices());
  std::vector<VertexId> queue;
  VertexId s = 0;
  for (auto _ : state) {
    std::size_t visited = 0;
    for (std::size_t i = 0; i < MsBfsScratch::kLanes; ++i) {
      visited += BfsSweep(adj, s, &dist, &queue);
      s = static_cast<VertexId>((s + 1) % g.NumVertices());
    }
    benchmark::DoNotOptimize(visited);
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(MsBfsScratch::kLanes * g.NumEdges()));
}
BENCHMARK(BM_ScalarBfs64Sources)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_MsBfs64Sources(benchmark::State& state) {
  const Graph g = MakeSocial(static_cast<std::size_t>(state.range(0)));
  const bool direction_optimizing = state.range(1) != 0;
  const CsrView& adj = g.csr();
  const std::size_t n = g.NumVertices();
  MsBfsScratch scratch;
  scratch.ReserveLanes(n);
  std::vector<VertexId> sources(MsBfsScratch::kLanes);
  std::vector<Distance*> dist(MsBfsScratch::kLanes);
  for (std::size_t i = 0; i < dist.size(); ++i) {
    dist[i] = scratch.LaneDistances(i);
  }
  MsBfsOptions options;
  options.direction_optimizing = direction_optimizing;
  VertexId s = 0;
  for (auto _ : state) {
    for (VertexId& src : sources) {
      src = s;
      s = static_cast<VertexId>((s + 1) % n);
    }
    MsBfsRun(adj, std::span<const VertexId>(sources), /*reverse=*/false,
             options, &scratch, std::span<Distance* const>(dist));
    benchmark::DoNotOptimize(dist[0][0]);
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(MsBfsScratch::kLanes * g.NumEdges()));
  state.SetLabel(direction_optimizing ? "direction-optimizing" : "top-down");
}
BENCHMARK(BM_MsBfs64Sources)->ArgsProduct({{1024, 4096, 16384}, {0, 1}});

/// Incremental-update throughput through the full engine pipeline on the
/// synthetic social workload. Reported `items_per_second` is updates/s
/// (one add + one remove = 2).
void BM_IncrementalUpdate(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto bc = DynamicBc::Create(MakeSocial(n), DynamicBcOptions{});
  if (!bc.ok()) {
    state.SkipWithError("create failed");
    return;
  }
  Rng rng(7);
  const std::size_t stream_edges = static_cast<std::size_t>(
      GetEnvInt("SOBC_BENCH_EDGES", 64));
  EdgeStream candidates =
      RandomAdditionStream((*bc)->graph(), stream_edges, &rng);
  if (candidates.empty()) {
    state.SkipWithError("no candidate edges (SOBC_BENCH_EDGES too small?)");
    return;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const EdgeUpdate& e = candidates[i % candidates.size()];
    ++i;
    if (!(*bc)->Apply({e.u, e.v, EdgeOp::kAdd}).ok() ||
        !(*bc)->Apply({e.u, e.v, EdgeOp::kRemove}).ok()) {
      state.SkipWithError("apply failed");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_IncrementalUpdate)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(8192)
    ->Unit(benchmark::kMillisecond);

void BM_BrandesSingleSource(benchmark::State& state) {
  const Graph g = MakeSocial(static_cast<std::size_t>(state.range(0)));
  SourceBcData data;
  VertexId s = 0;
  for (auto _ : state) {
    BrandesSingleSource(g, s, BrandesOptions{}, &data, nullptr);
    s = static_cast<VertexId>((s + 1) % g.NumVertices());
    benchmark::DoNotOptimize(data.delta.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.NumEdges()));
}
BENCHMARK(BM_BrandesSingleSource)->Arg(256)->Arg(1024)->Arg(4096);

void BM_BrandesFull(benchmark::State& state) {
  const Graph g = MakeSocial(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    BcScores scores = ComputeBrandes(g);
    benchmark::DoNotOptimize(scores.vbc.data());
  }
}
BENCHMARK(BM_BrandesFull)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_IncrementalAddRemoveRoundTrip(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Graph g = MakeSocial(n);
  auto bc = DynamicBc::Create(g, DynamicBcOptions{});
  if (!bc.ok()) {
    state.SkipWithError("create failed");
    return;
  }
  Rng rng(7);
  EdgeStream candidates = RandomAdditionStream(g, 64, &rng);
  std::size_t i = 0;
  for (auto _ : state) {
    const EdgeUpdate& e = candidates[i % candidates.size()];
    ++i;
    if (!(*bc)->Apply({e.u, e.v, EdgeOp::kAdd}).ok() ||
        !(*bc)->Apply({e.u, e.v, EdgeOp::kRemove}).ok()) {
      state.SkipWithError("apply failed");
      return;
    }
  }
  state.SetLabel("add+remove per iteration");
}
BENCHMARK(BM_IncrementalAddRemoveRoundTrip)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_DiskStoreViewApply(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::string path = "/tmp/sobc_micro_store.bin";
  auto store = DiskBdStore::Create(path, n);
  if (!store.ok()) {
    state.SkipWithError("store create failed");
    return;
  }
  SourceView view;
  VertexId s = 0;
  std::vector<BdPatch> patch = {BdPatch{0, 1, 2, 3.0}};
  for (auto _ : state) {
    if (!(*store)->View(s, &view).ok()) {
      state.SkipWithError("view failed");
      return;
    }
    patch[0].vertex = s;
    if (!(*store)->Apply(s, patch, {}).ok()) {
      state.SkipWithError("apply failed");
      return;
    }
    s = static_cast<VertexId>((s + 1) % n);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(18 * n));
  std::remove(path.c_str());
}
BENCHMARK(BM_DiskStoreViewApply)->Arg(512)->Arg(2048);

// ---------------------------------------------------------------------------
// Serving-layer building blocks (src/server). End-to-end serve numbers with
// concurrent readers live in bench/serve_bench.cc (BENCH_serve.json); these
// isolate the pieces.
// ---------------------------------------------------------------------------

/// Batched vs per-update apply on a same-pool churn stream: state.range(1)
/// is the batch size handed to DynamicBc::ApplyBatch (1 = the sequential
/// baseline shape). items_per_second counts updates.
void BM_ServeBatchApply(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t batch_size = static_cast<std::size_t>(state.range(1));
  Graph g = MakeSocial(n);
  Rng rng(17);
  // Even-length toggle chains return the graph to its base state every
  // full pass, so iterating the stream repeatedly stays applicable.
  EdgeStream stream = ChurnStream(g, 64, 8, &rng);
  if (stream.size() % 2 != 0) stream.pop_back();
  if (stream.empty()) {
    state.SkipWithError("no churn stream");
    return;
  }
  // A full pass must end with every pool edge back to absent; ChurnStream
  // guarantees per-edge alternation but not even per-edge counts, so close
  // the chains: append the complement of any edge left present.
  {
    Graph probe = g;
    for (const EdgeUpdate& e : stream) (void)ApplyToGraph(&probe, e);
    for (const EdgeKey& key : probe.Edges()) {
      if (!g.HasEdge(key.u, key.v)) {
        stream.push_back({key.u, key.v, EdgeOp::kRemove, 0.0});
      }
    }
  }
  auto bc = DynamicBc::Create(std::move(g), {});
  if (!bc.ok()) {
    state.SkipWithError("create failed");
    return;
  }
  std::size_t pos = 0;
  std::size_t updates = 0;
  for (auto _ : state) {
    const std::size_t take = std::min(batch_size, stream.size() - pos);
    if (!(*bc)->ApplyBatch({stream.data() + pos, take}).ok()) {
      state.SkipWithError("apply failed");
      return;
    }
    updates += take;
    pos += take;
    if (pos == stream.size()) pos = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(updates));
}
BENCHMARK(BM_ServeBatchApply)
    ->ArgsProduct({{1024, 4096}, {1, 16, 64}})
    ->Unit(benchmark::kMillisecond);

/// Cost of one publication: score-column copy plus top-k precompute —
/// what every drained batch pays so that readers never scan.
void BM_SnapshotPublish(benchmark::State& state) {
  const Graph g = MakeSocial(static_cast<std::size_t>(state.range(0)));
  const BcScores scores = ComputeBrandes(g);
  std::uint64_t epoch = 0;
  for (auto _ : state) {
    ++epoch;
    auto snap = BuildSnapshot(g, scores, epoch, epoch, /*top_k=*/16,
                              /*with_edge_scores=*/true);
    benchmark::DoNotOptimize(snap->top_vertices.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotPublish)->Arg(1024)->Arg(4096)->Arg(16384);

/// Queue round-trip with coalescing on a maximally churny sequence.
void BM_UpdateQueueChurnBatch(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  UpdateQueueOptions options;
  options.capacity = batch;
  options.max_batch = batch;
  UpdateQueue queue(options);
  DrainedBatch drained;
  std::size_t consumed = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) {
      queue.Push({static_cast<VertexId>(i % 8), static_cast<VertexId>(100),
                  (i / 8) % 2 == 0 ? EdgeOp::kAdd : EdgeOp::kRemove, 0.0});
    }
    if (!queue.PopBatch(&drained)) {
      state.SkipWithError("queue closed unexpectedly");
      return;
    }
    consumed += drained.consumed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(consumed));
}
BENCHMARK(BM_UpdateQueueChurnBatch)->Arg(64)->Arg(256);

void BM_SocialGenerator(benchmark::State& state) {
  for (auto _ : state) {
    Graph g = MakeSocial(static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(g.NumEdges());
  }
}
BENCHMARK(BM_SocialGenerator)->Arg(1024)->Arg(4096);

void BM_ComponentLabels(benchmark::State& state) {
  const Graph g = MakeSocial(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto labels = ComponentLabels(g);
    benchmark::DoNotOptimize(labels.data());
  }
}
BENCHMARK(BM_ComponentLabels)->Arg(1024)->Arg(4096);

void BM_AverageClustering(benchmark::State& state) {
  const Graph g = MakeSocial(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(AverageClustering(g));
  }
}
BENCHMARK(BM_AverageClustering)->Arg(1024)->Arg(4096);

}  // namespace
}  // namespace sobc

BENCHMARK_MAIN();
