#include "bc/brandes.h"

#include <algorithm>
#include <span>
#include <vector>

#include "common/logging.h"
#include "graph/csr_view.h"

namespace sobc {

namespace {

/// The single-source kernel over the graph's packed adjacency arena.
void BrandesSingleSourceImpl(const CsrView& adj, VertexId s,
                             const BrandesOptions& options, SourceBcData* data,
                             BcScores* scores) {
  const std::size_t n = adj.NumVertices();
  SOBC_CHECK(s < n);
  data->Resize(n);
  const bool use_preds = options.pred_mode == PredMode::kPredecessorLists;
  if (use_preds) {
    data->preds.assign(n, {});
  } else {
    data->preds.clear();
  }

  std::vector<Distance>& d = data->d;
  std::vector<PathCount>& sigma = data->sigma;
  std::vector<double>& delta = data->delta;

  // Search phase: BFS discovering the shortest-path DAG rooted at s.
  std::vector<VertexId> order;  // vertices in BFS (non-decreasing d) order
  order.reserve(64);
  d[s] = 0;
  sigma[s] = 1;
  order.push_back(s);
  for (std::size_t head = 0; head < order.size(); ++head) {
    const VertexId v = order[head];
    for (VertexId w : adj.OutNeighbors(v)) {
      if (d[w] == kUnreachable) {
        d[w] = d[v] + 1;
        order.push_back(w);
      }
      if (d[w] == d[v] + 1) {
        sigma[w] += sigma[v];
        if (use_preds) data->preds[w].push_back(v);
      }
    }
  }

  // Dependency accumulation phase: walk the DAG bottom-up. Without
  // predecessor lists, predecessors of w are recovered by scanning w's
  // in-neighbors one level up (the paper's memory optimization).
  for (std::size_t i = order.size(); i-- > 1;) {
    const VertexId w = order[i];
    const double coeff = (1.0 + delta[w]) / static_cast<double>(sigma[w]);
    auto contribute = [&](VertexId v) {
      const double c = static_cast<double>(sigma[v]) * coeff;
      delta[v] += c;
      if (scores != nullptr && options.compute_ebc) {
        scores->ebc[adj.MakeKey(v, w)] += c;
      }
    };
    if (use_preds) {
      for (VertexId v : data->preds[w]) contribute(v);
    } else {
      for (VertexId v : adj.InNeighbors(w)) {
        if (d[v] + 1 == d[w]) contribute(v);
      }
    }
    if (scores != nullptr) scores->vbc[w] += delta[w];
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Batched rebuild path (DESIGN.md §14): the multi-source entry points run
// their searches 64 sources at a time through the MS-BFS kernel, then finish
// each source from its distance column. The finish is deliberately not a
// replay of the queue BFS: with distances known, BFS order is just a
// counting sort by level, and both the sigma pass and the dependency sweep
// become linear walks over one contiguous slab — no queue, no visited
// bitmap, and the per-level segments are exactly the slabs the dependency
// sweep consumes.
// ---------------------------------------------------------------------------

namespace {

/// Scratch shared by every source of one batched compute call.
struct BatchScratch {
  MsBfsScratch msbfs;
  std::vector<VertexId> sources;
  std::vector<Distance*> dist;
  std::vector<VertexId> order;        // reached vertices, (level, id) order
  std::vector<std::size_t> cursor;    // per-level slab cursors
  std::vector<EdgeScoreMap::value_type> ebc_slab;
};

/// Completes one source whose distance column `data->d` a MS-BFS batch
/// already filled: level-ordered sigma recount, then the dependency sweep,
/// with ebc contributions staged into a contiguous slab and committed in
/// one EdgeScoreMap::AddAll probe loop.
void FinishSourceFromDistances(const CsrView& adj, VertexId s,
                               const BrandesOptions& options,
                               BatchScratch* scratch, SourceBcData* data,
                               BcScores* scores) {
  const std::size_t n = adj.NumVertices();
  const std::vector<Distance>& d = data->d;
  const bool use_preds = options.pred_mode == PredMode::kPredecessorLists;
  if (use_preds) {
    data->preds.assign(n, {});
  } else {
    data->preds.clear();
  }

  // Counting sort by level. Any level-respecting order is a valid BFS
  // order — sigma sums over the settled previous level, delta over the
  // next — so vertices within a level come out in ascending id.
  std::vector<std::size_t>& cursor = scratch->cursor;
  cursor.clear();
  for (VertexId v = 0; v < n; ++v) {
    const Distance dv = d[v];
    if (dv == kUnreachable) continue;
    if (dv >= cursor.size()) cursor.resize(dv + 1, 0);
    ++cursor[dv];
  }
  std::size_t reached = 0;
  for (std::size_t& c : cursor) {
    const std::size_t count = c;
    c = reached;
    reached += count;
  }
  std::vector<VertexId>& order = scratch->order;
  order.resize(reached);
  for (VertexId v = 0; v < n; ++v) {
    if (d[v] != kUnreachable) order[cursor[d[v]]++] = v;
  }

  // Sigma pass: one forward walk of the slab. Predecessor recovery scans
  // in-neighbors one level up, so MP-mode lists come out in adjacency
  // order (a valid DAG predecessor order, like any other).
  std::vector<PathCount>& sigma = data->sigma;
  sigma[s] = 1;
  for (std::size_t i = 1; i < order.size(); ++i) {
    const VertexId w = order[i];
    const Distance dw = d[w];
    PathCount sw = 0;
    for (VertexId v : adj.InNeighbors(w)) {
      if (d[v] + 1 == dw) {
        sw += sigma[v];
        if (use_preds) data->preds[w].push_back(v);
      }
    }
    sigma[w] = sw;
  }

  // Dependency sweep: the same slab walked backward. Edge contributions
  // are staged contiguously and committed in one batched probe loop
  // instead of a random hash probe per DAG edge.
  std::vector<double>& delta = data->delta;
  const bool ebc = scores != nullptr && options.compute_ebc;
  std::vector<EdgeScoreMap::value_type>& slab = scratch->ebc_slab;
  slab.clear();
  for (std::size_t i = order.size(); i-- > 1;) {
    const VertexId w = order[i];
    const double coeff = (1.0 + delta[w]) / static_cast<double>(sigma[w]);
    auto contribute = [&](VertexId v) {
      const double c = static_cast<double>(sigma[v]) * coeff;
      delta[v] += c;
      if (ebc) slab.push_back({adj.MakeKey(v, w), c});
    };
    if (use_preds) {
      for (VertexId v : data->preds[w]) contribute(v);
    } else {
      for (VertexId v : adj.InNeighbors(w)) {
        if (d[v] + 1 == d[w]) contribute(v);
      }
    }
    if (scores != nullptr) scores->vbc[w] += delta[w];
  }
  if (ebc) scores->ebc.AddAll(slab);
}

/// Drives [begin, end) through the kernel in 64-lane batches; `sink` takes
/// each finished source's data (the store path moves it out, the
/// compute-only path leaves it for reuse).
template <class Sink>
Status RunBatched(const CsrView& adj, VertexId begin, VertexId end,
                  const BrandesOptions& options, BcScores* scores,
                  Sink&& sink) {
  const std::size_t n = adj.NumVertices();
  BatchScratch scratch;
  std::vector<SourceBcData> lanes(
      std::min<std::size_t>(MsBfsScratch::kLanes, end - begin));
  for (VertexId batch = begin; batch < end;
       batch += static_cast<VertexId>(MsBfsScratch::kLanes)) {
    const std::size_t count =
        std::min<std::size_t>(MsBfsScratch::kLanes, end - batch);
    scratch.sources.clear();
    scratch.dist.clear();
    for (std::size_t i = 0; i < count; ++i) {
      lanes[i].Resize(n);
      scratch.sources.push_back(batch + static_cast<VertexId>(i));
      scratch.dist.push_back(lanes[i].d.data());
    }
    MsBfsRun(adj, std::span<const VertexId>(scratch.sources),
             /*reverse=*/false, options.msbfs, &scratch.msbfs,
             std::span<Distance* const>(scratch.dist));
    for (std::size_t i = 0; i < count; ++i) {
      const VertexId s = batch + static_cast<VertexId>(i);
      FinishSourceFromDistances(adj, s, options, &scratch, &lanes[i], scores);
      SOBC_RETURN_NOT_OK(sink(s, &lanes[i]));
    }
  }
  return Status::OK();
}

}  // namespace

void BrandesSingleSource(const Graph& graph, VertexId s,
                         const BrandesOptions& options, SourceBcData* data,
                         BcScores* scores) {
  BrandesSingleSourceImpl(graph.csr(), s, options, data, scores);
}

void ComputeBrandesRange(const Graph& graph, VertexId begin, VertexId end,
                         const BrandesOptions& options, BcScores* scores) {
  const std::size_t n = graph.NumVertices();
  if (scores->vbc.size() < n) scores->vbc.resize(n, 0.0);
  if (options.use_msbfs && end > begin && end - begin > 1) {
    auto discard = [](VertexId, SourceBcData*) { return Status::OK(); };
    (void)RunBatched(graph.csr(), begin, end, options, scores, discard);
    return;
  }
  SourceBcData data;
  for (VertexId s = begin; s < end; ++s) {
    BrandesSingleSource(graph, s, options, &data, scores);
  }
}

BcScores ComputeBrandes(const Graph& graph, const BrandesOptions& options) {
  BcScores scores;
  scores.vbc.assign(graph.NumVertices(), 0.0);
  ComputeBrandesRange(graph, 0, static_cast<VertexId>(graph.NumVertices()),
                      options, &scores);
  return scores;
}

Status InitializeFromScratch(const Graph& graph, const BrandesOptions& options,
                             BdStore* store, BcScores* scores,
                             VertexId source_begin, VertexId source_limit) {
  const std::size_t n = graph.NumVertices();
  // vbc spans every vertex even for a partition: entries are partial sums
  // over the owned sources, dense so shard partials merge elementwise.
  scores->vbc.assign(n, 0.0);
  scores->ebc.clear();
  const auto begin = static_cast<VertexId>(
      std::min<std::size_t>(source_begin, n));
  const auto end = static_cast<VertexId>(std::min<std::size_t>(
      source_limit == kInvalidVertex ? n : source_limit, n));
  if (options.use_msbfs && end > begin && end - begin > 1) {
    auto put = [store](VertexId s, SourceBcData* data) {
      return store->PutInitial(s, std::move(*data));
    };
    return RunBatched(graph.csr(), begin, end, options, scores, put);
  }
  for (VertexId s = begin; s < end; ++s) {
    SourceBcData data;
    BrandesSingleSource(graph, s, options, &data, scores);
    SOBC_RETURN_NOT_OK(store->PutInitial(s, std::move(data)));
  }
  return Status::OK();
}

}  // namespace sobc
