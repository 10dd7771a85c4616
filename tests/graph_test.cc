#include <gtest/gtest.h>

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/edge_stream.h"
#include "graph/graph.h"
#include "graph/graph_io.h"

namespace sobc {
namespace {

TEST(GraphTest, StartsEmpty) {
  Graph g;
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_FALSE(g.directed());
}

TEST(GraphTest, AddEdgeCreatesVertices) {
  Graph g;
  ASSERT_TRUE(g.AddEdge(0, 5).ok());
  EXPECT_EQ(g.NumVertices(), 6u);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_TRUE(g.HasEdge(0, 5));
  EXPECT_TRUE(g.HasEdge(5, 0));  // undirected symmetry
}

TEST(GraphTest, RejectsSelfLoop) {
  Graph g;
  EXPECT_EQ(g.AddEdge(3, 3).code(), StatusCode::kInvalidArgument);
}

TEST(GraphTest, RejectsDuplicateEdge) {
  Graph g;
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_EQ(g.AddEdge(0, 1).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(g.AddEdge(1, 0).code(), StatusCode::kAlreadyExists);
}

TEST(GraphTest, RemoveEdge) {
  Graph g;
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  ASSERT_TRUE(g.RemoveEdge(2, 1).ok());
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_FALSE(g.HasEdge(1, 2));
  EXPECT_EQ(g.RemoveEdge(1, 2).code(), StatusCode::kNotFound);
}

TEST(GraphTest, DegreeUndirected) {
  Graph g;
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(0, 2).ok());
  EXPECT_EQ(g.Degree(0), 2u);
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.InDegree(0), 2u);
}

TEST(GraphTest, DirectedEdgesAreAsymmetric) {
  Graph g(/*directed=*/true);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
  EXPECT_EQ(g.OutDegree(0), 1u);
  EXPECT_EQ(g.InDegree(1), 1u);
  EXPECT_EQ(g.InDegree(0), 0u);
  // The reverse edge is a distinct edge.
  ASSERT_TRUE(g.AddEdge(1, 0).ok());
  EXPECT_EQ(g.NumEdges(), 2u);
}

TEST(GraphTest, DirectedRemoveOnlyRemovesOrientation) {
  Graph g(/*directed=*/true);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 0).ok());
  ASSERT_TRUE(g.RemoveEdge(0, 1).ok());
  EXPECT_FALSE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
}

TEST(GraphTest, InOutNeighborsDirected) {
  Graph g(/*directed=*/true);
  ASSERT_TRUE(g.AddEdge(0, 2).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  auto in = g.InNeighbors(2);
  EXPECT_EQ(in.size(), 2u);
  EXPECT_EQ(g.OutNeighbors(2).size(), 0u);
}

TEST(GraphTest, ForEachEdgeVisitsOnce) {
  Graph g;
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  ASSERT_TRUE(g.AddEdge(0, 2).ok());
  int count = 0;
  g.ForEachEdge([&count](VertexId u, VertexId v) {
    EXPECT_LT(u, v);
    ++count;
  });
  EXPECT_EQ(count, 3);
}

TEST(GraphTest, EdgesSortedCanonical) {
  Graph g;
  ASSERT_TRUE(g.AddEdge(2, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 0).ok());
  auto edges = g.Edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], (EdgeKey{0, 1}));
  EXPECT_EQ(edges[1], (EdgeKey{1, 2}));
}

TEST(GraphTest, EnsureVertexGrows) {
  Graph g;
  EXPECT_TRUE(g.EnsureVertex(3));
  EXPECT_FALSE(g.EnsureVertex(3));
  EXPECT_EQ(g.NumVertices(), 4u);
  EXPECT_EQ(g.Degree(3), 0u);
}

TEST(EdgeKeyTest, UndirectedCanonical) {
  EXPECT_EQ(EdgeKey::Undirected(5, 2), (EdgeKey{2, 5}));
  EXPECT_EQ(EdgeKey::Undirected(2, 5), (EdgeKey{2, 5}));
}

TEST(EdgeKeyTest, HashDistinguishesOrientation) {
  EdgeKeyHash h;
  EXPECT_NE(h({1, 2}), h({2, 1}));
}

TEST(EdgeStreamTest, InterArrivalTimes) {
  EdgeStream s = {{0, 1, EdgeOp::kAdd, 10.0},
                  {1, 2, EdgeOp::kAdd, 12.5},
                  {2, 3, EdgeOp::kRemove, 20.0}};
  auto gaps = InterArrivalTimes(s);
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_DOUBLE_EQ(gaps[0], 2.5);
  EXPECT_DOUBLE_EQ(gaps[1], 7.5);
}

TEST(EdgeStreamTest, InterArrivalOfShortStreams) {
  EXPECT_TRUE(InterArrivalTimes({}).empty());
  EXPECT_TRUE(InterArrivalTimes({{0, 1, EdgeOp::kAdd, 1.0}}).empty());
}

class GraphIoTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const auto& p : paths_) std::remove(p.c_str());
  }
  std::string TempPath(const std::string& name) {
    std::string p = ::testing::TempDir() + "/sobc_" + name;
    paths_.push_back(p);
    return p;
  }
  std::vector<std::string> paths_;
};

TEST_F(GraphIoTest, EdgeListRoundTrip) {
  Graph g;
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  ASSERT_TRUE(g.AddEdge(0, 3).ok());
  const std::string path = TempPath("edges.txt");
  ASSERT_TRUE(WriteEdgeList(g, path).ok());
  auto loaded = ReadEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumVertices(), 4u);
  EXPECT_EQ(loaded->NumEdges(), 3u);
  EXPECT_EQ(loaded->Edges(), g.Edges());
}

TEST_F(GraphIoTest, ReadSkipsCommentsAndDuplicates) {
  const std::string path = TempPath("dirty.txt");
  FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("# comment\n% other comment\n0 1\n0 1\n1 1\n1 2\n", f);
  std::fclose(f);
  auto loaded = ReadEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumEdges(), 2u);  // dup and self-loop dropped
}

TEST_F(GraphIoTest, ReadMissingFileFails) {
  auto loaded = ReadEdgeList("/nonexistent/sobc/file.txt");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST_F(GraphIoTest, AdjacencyRoundTripAfterRelocationAndCompaction) {
  for (const bool directed : {false, true}) {
    Graph g(directed);
    Rng rng(directed ? 5 : 6);
    // Additions on 600 vertices push every block through several
    // relocations (abandoning enough arena to compact); the removals make
    // swap-erase reorder lists before and after.
    for (int step = 0; step < 12000; ++step) {
      const auto u = static_cast<VertexId>(rng.Uniform(600));
      const auto v = static_cast<VertexId>(rng.Uniform(600));
      if (u == v) continue;
      if (g.HasEdge(u, v) && rng.Uniform(4) == 0) {
        ASSERT_TRUE(g.RemoveEdge(u, v).ok());
      } else {
        (void)g.AddEdge(u, v);
      }
    }
    ASSERT_GT(g.csr().stats().relocations, 0u);
    ASSERT_GT(g.csr().stats().compactions, 0u);
    const std::string path =
        TempPath(directed ? "churn_directed.adj" : "churn.adj");
    ASSERT_TRUE(WriteAdjacency(g, path).ok());
    auto loaded = ReadAdjacency(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->directed(), directed);
    EXPECT_EQ(loaded->NumEdges(), g.NumEdges());
    ASSERT_EQ(loaded->NumVertices(), g.NumVertices());
    auto as_vector = [](std::span<const VertexId> s) {
      return std::vector<VertexId>(s.begin(), s.end());
    };
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      EXPECT_EQ(as_vector(loaded->OutNeighbors(v)),
                as_vector(g.OutNeighbors(v)))
          << "out-list of " << v << (directed ? " (directed)" : "");
      EXPECT_EQ(as_vector(loaded->InNeighbors(v)),
                as_vector(g.InNeighbors(v)))
          << "in-list of " << v << (directed ? " (directed)" : "");
    }
  }
}

TEST_F(GraphIoTest, StreamRoundTrip) {
  EdgeStream s = {{0, 1, EdgeOp::kAdd, 1.5}, {4, 2, EdgeOp::kRemove, 2.25}};
  const std::string path = TempPath("stream.txt");
  ASSERT_TRUE(WriteEdgeStream(s, path).ok());
  auto loaded = ReadEdgeStream(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, s);
}

}  // namespace
}  // namespace sobc
