#include "bc/source_prefilter.h"

#include <algorithm>

#include "graph/csr_view.h"

namespace sobc {

// Distances *to* the root: a plain BFS for undirected graphs, a BFS over
// in-edges for directed ones (so dist[s] = d(s, root) in the original
// orientation — the quantity the skip test of Section 3.1 is stated in).
template <class Adj>
void SourcePrefilter::Bfs(const Adj& adj, VertexId root,
                          std::vector<Distance>* dist) {
  const std::size_t n = adj.NumVertices();
  dist->assign(n, kUnreachable);
  (*dist)[root] = 0;
  queue_.clear();
  queue_.push_back(root);
  const bool reverse = adj.directed();
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const VertexId x = queue_[head];
    const Distance next = (*dist)[x] + 1;
    for (VertexId w : reverse ? adj.InNeighbors(x) : adj.OutNeighbors(x)) {
      if ((*dist)[w] == kUnreachable) {
        (*dist)[w] = next;
        queue_.push_back(w);
      }
    }
  }
}

template <class Adj>
void SourcePrefilter::Run(const Adj& adj, const EdgeUpdate& update,
                          VertexId begin, VertexId end,
                          std::vector<VertexId>* dirty) {
  const std::size_t n = adj.NumVertices();
  last_stats_ = MsBfsStats{};
  if (use_msbfs_) {
    // One 2-lane MS-BFS fills d(·,u) and d(·,v) in a single adjacency
    // pass. The reverse flag reproduces the directed orientation of the
    // scalar fill below; distances (integers) come out bit-identical, so
    // the skip set — and the equivalence proof it rests on — is unchanged.
    du_.resize(n);
    dv_.resize(n);
    const VertexId endpoints[2] = {update.u, update.v};
    Distance* lanes[2] = {du_.data(), dv_.data()};
    MsBfsRun(adj, std::span<const VertexId>(endpoints), adj.directed(),
             msbfs_options_, &scratch_, std::span<Distance* const>(lanes),
             &last_stats_);
  } else {
    Bfs(adj, update.u, &du_);
    Bfs(adj, update.v, &dv_);
  }
  dirty->clear();
  if (adj.directed()) {
    // Affected iff s reaches u and d(s,v) > d(s,u): for additions that
    // means d(s,v) == d(s,u) + 1 through the new edge; for removals that
    // the lost edge carried shortest paths (d_old(s,v) was d(s,u) + 1).
    for (VertexId s = begin; s < end; ++s) {
      if (du_[s] != kUnreachable && dv_[s] > du_[s]) dirty->push_back(s);
    }
  } else {
    // Proposition 3.1: equal endpoint distances (including both
    // unreachable) mean no shortest path from s crosses the edge.
    for (VertexId s = begin; s < end; ++s) {
      if (du_[s] != dv_[s]) dirty->push_back(s);
    }
  }
}

Status SourcePrefilter::Build(const Graph& graph, const EdgeUpdate& update,
                              bool use_csr, VertexId begin, VertexId end,
                              std::vector<VertexId>* dirty) {
  const std::size_t n = graph.NumVertices();
  if (update.u >= n || update.v >= n) {
    return Status::InvalidArgument(
        "prefilter endpoints outside the graph (apply the update first)");
  }
  end = static_cast<VertexId>(std::min<std::size_t>(end, n));
  begin = std::min(begin, end);
  if (use_csr) {
    Run(graph.csr(), update, begin, end, dirty);
  } else {
    Run(GraphAdjacency(graph), update, begin, end, dirty);
  }
  return Status::OK();
}

}  // namespace sobc
