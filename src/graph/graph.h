#ifndef SOBC_GRAPH_GRAPH_H_
#define SOBC_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "graph/csr_view.h"

namespace sobc {

/// A mutable graph supporting the edge-by-edge evolution the framework
/// processes (Section 3 of the paper).
///
/// * Undirected mode keeps a single neighbor list per vertex.
/// * Directed mode keeps out-neighbor and in-neighbor lists; the search
///   phase of the algorithms follows out-links and the backtracking phase
///   in-links, as the paper prescribes.
///
/// Self-loops and parallel edges are rejected with InvalidArgument /
/// AlreadyExists. Vertices are created implicitly by AddEdge, or explicitly
/// with EnsureVertex.
///
/// The neighbor lists live in one CsrView the graph owns by value (see
/// csr_view.h): every accessor below reads it and every mutator patches it
/// in O(degree). A span from OutNeighbors/InNeighbors is invalidated by any
/// later mutation of the graph, whichever vertex it touches (DESIGN.md §6).
class Graph {
 public:
  explicit Graph(bool directed = false) : csr_(directed) {}
  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  /// A moved-from graph reads as valid-but-empty, edge count included.
  Graph(Graph&& other) noexcept;
  Graph& operator=(Graph&& other) noexcept;

  /// Reconstructs a graph from explicit adjacency lists — the
  /// order-preserving checkpoint format (graph_io.h WriteAdjacency).
  /// Neighbor-list ORDER is semantically significant downstream: traversal
  /// order fixes the floating-point summation order of the incremental
  /// engine, so a bit-identical recovery must restore the lists verbatim,
  /// not just the edge set. `in` must be empty for undirected graphs and
  /// parallel to `out` for directed ones; entries are bounds-checked.
  static Result<Graph> FromAdjacency(bool directed,
                                     std::vector<std::vector<VertexId>> out,
                                     std::vector<std::vector<VertexId>> in);

  bool directed() const { return csr_.directed(); }
  std::size_t NumVertices() const { return csr_.NumVertices(); }
  std::size_t NumEdges() const { return num_edges_; }

  /// Grows the vertex set so that `id` is valid. Returns true if the vertex
  /// was newly created.
  bool EnsureVertex(VertexId id);

  /// Adds edge (u, v), implicitly creating missing endpoints.
  Status AddEdge(VertexId u, VertexId v);

  /// Removes edge (u, v). Endpoints stay in the graph even at degree zero.
  Status RemoveEdge(VertexId u, VertexId v);

  bool HasEdge(VertexId u, VertexId v) const;
  bool HasVertex(VertexId id) const { return id < NumVertices(); }

  /// Neighbors reachable by following an edge out of v (search direction).
  /// For undirected graphs this is simply v's neighbor list.
  std::span<const VertexId> OutNeighbors(VertexId v) const {
    return csr_.OutNeighbors(v);
  }

  /// Neighbors with an edge into v (backtracking direction). Equal to
  /// OutNeighbors for undirected graphs.
  std::span<const VertexId> InNeighbors(VertexId v) const {
    return csr_.InNeighbors(v);
  }

  std::size_t OutDegree(VertexId v) const { return csr_.OutDegree(v); }
  std::size_t InDegree(VertexId v) const { return csr_.InDegree(v); }

  /// Total degree: out+in for directed graphs, plain degree otherwise.
  std::size_t Degree(VertexId v) const {
    return directed() ? OutDegree(v) + InDegree(v) : OutDegree(v);
  }

  /// Invokes fn(u, v) for every edge once (canonical orientation for
  /// undirected graphs: u < v). Templated so the callback inlines into the
  /// scan — no std::function indirection per edge. `fn` must not mutate
  /// the graph.
  template <class Fn>
  void ForEachEdge(Fn&& fn) const {
    const bool directed = csr_.directed();
    for (VertexId u = 0; u < NumVertices(); ++u) {
      for (VertexId v : csr_.OutNeighbors(u)) {
        if (directed || u < v) fn(u, v);
      }
    }
  }

  /// All edges in canonical orientation, sorted.
  std::vector<EdgeKey> Edges() const;

  /// Canonical key for an edge of this graph.
  EdgeKey MakeKey(VertexId u, VertexId v) const { return csr_.MakeKey(u, v); }

  /// The adjacency store itself — what the traversal kernels take.
  const CsrView& csr() const { return csr_; }

 private:
  std::size_t num_edges_ = 0;
  CsrView csr_;
};

}  // namespace sobc

#endif  // SOBC_GRAPH_GRAPH_H_
