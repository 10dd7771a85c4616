#include "graph/graph.h"

#include <algorithm>
#include <string>
#include <utility>

namespace sobc {

Graph::Graph(Graph&& other) noexcept
    : num_edges_(std::exchange(other.num_edges_, 0)),
      csr_(std::move(other.csr_)) {}

Graph& Graph::operator=(Graph&& other) noexcept {
  if (this == &other) return *this;
  num_edges_ = std::exchange(other.num_edges_, 0);
  csr_ = std::move(other.csr_);
  return *this;
}

Result<Graph> Graph::FromAdjacency(bool directed,
                                   std::vector<std::vector<VertexId>> out,
                                   std::vector<std::vector<VertexId>> in) {
  const std::size_t n = out.size();
  if (directed ? in.size() != n : !in.empty()) {
    return Status::InvalidArgument(
        "in-lists must parallel out-lists for directed graphs and be "
        "absent for undirected ones");
  }
  std::size_t half_edges = 0;
  auto check_lists = [n](const std::vector<std::vector<VertexId>>& lists,
                         std::size_t* degree_sum) {
    for (const auto& list : lists) {
      *degree_sum += list.size();
      for (VertexId v : list) {
        if (v >= n) return false;
      }
    }
    return true;
  };
  if (!check_lists(out, &half_edges)) {
    return Status::InvalidArgument("adjacency entry out of range");
  }
  if (directed) {
    std::size_t in_sum = 0;
    if (!check_lists(in, &in_sum)) {
      return Status::InvalidArgument("adjacency entry out of range");
    }
    if (in_sum != half_edges) {
      return Status::InvalidArgument(
          "in/out adjacency lists disagree on the edge count");
    }
  } else if (half_edges % 2 != 0) {
    return Status::InvalidArgument(
        "undirected adjacency lists hold an odd number of endpoints");
  }
  Graph graph(directed);
  graph.num_edges_ = directed ? half_edges : half_edges / 2;
  graph.csr_.Build(out, in);
  return graph;
}

bool Graph::EnsureVertex(VertexId id) {
  if (id < NumVertices()) return false;
  csr_.Grow(std::size_t{id} + 1);
  return true;
}

Status Graph::AddEdge(VertexId u, VertexId v) {
  if (u == v) {
    return Status::InvalidArgument("self-loops are not supported: " +
                                   std::to_string(u));
  }
  EnsureVertex(std::max(u, v));
  if (HasEdge(u, v)) {
    return Status::AlreadyExists("edge (" + std::to_string(u) + "," +
                                 std::to_string(v) + ") already present");
  }
  csr_.AddEdge(u, v);
  ++num_edges_;
  return Status::OK();
}

Status Graph::RemoveEdge(VertexId u, VertexId v) {
  if (u >= NumVertices() || v >= NumVertices() || !csr_.RemoveEdge(u, v)) {
    return Status::NotFound("edge (" + std::to_string(u) + "," +
                            std::to_string(v) + ") not present");
  }
  --num_edges_;
  return Status::OK();
}

bool Graph::HasEdge(VertexId u, VertexId v) const {
  if (u >= NumVertices() || v >= NumVertices()) return false;
  const auto list = csr_.OutNeighbors(u);
  return std::find(list.begin(), list.end(), v) != list.end();
}

std::vector<EdgeKey> Graph::Edges() const {
  std::vector<EdgeKey> edges;
  edges.reserve(num_edges_);
  ForEachEdge([&edges](VertexId u, VertexId v) { edges.push_back({u, v}); });
  std::sort(edges.begin(), edges.end());
  return edges;
}

}  // namespace sobc
