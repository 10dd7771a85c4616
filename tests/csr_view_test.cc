#include "graph/csr_view.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bc/brandes.h"
#include "bc/dynamic_bc.h"
#include "common/rng.h"
#include "gen/social_generator.h"
#include "gen/stream_generators.h"
#include "graph/graph.h"
#include "tests/test_util.h"

namespace sobc {
namespace {

/// A plain vector-of-lists adjacency stepped in lock-step with a Graph,
/// implementing the store's order contract independently: an addition
/// appends, a removal moves the list's last entry into the hole.
struct ReferenceAdjacency {
  explicit ReferenceAdjacency(const Graph& g) : directed(g.directed()) {
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      const auto o = g.OutNeighbors(v);
      out.emplace_back(o.begin(), o.end());
      if (directed) {
        const auto i = g.InNeighbors(v);
        in.emplace_back(i.begin(), i.end());
      }
    }
  }

  /// Backtracking-direction lists: `out` itself for undirected graphs.
  const std::vector<std::vector<VertexId>>& InLists() const {
    return directed ? in : out;
  }

  void Grow(std::size_t n) {
    if (out.size() < n) out.resize(n);
    if (directed && in.size() < n) in.resize(n);
  }

  static void Erase(std::vector<VertexId>* list, VertexId x) {
    const auto it = std::find(list->begin(), list->end(), x);
    ASSERT_NE(it, list->end());
    *it = list->back();
    list->pop_back();
  }

  /// Applies the same mutation to `g` and to the reference.
  void Add(Graph* g, VertexId u, VertexId v) {
    const bool present = g->HasEdge(u, v);
    const Status st = g->AddEdge(u, v);
    Grow(std::size_t{std::max(u, v)} + 1);
    if (present) {
      EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
      return;
    }
    ASSERT_TRUE(st.ok()) << st.ToString();
    out[u].push_back(v);
    (directed ? in[v] : out[v]).push_back(u);
  }

  void Remove(Graph* g, VertexId u, VertexId v) {
    ASSERT_TRUE(g->RemoveEdge(u, v).ok());
    Erase(&out[u], v);
    Erase(directed ? &in[v] : &out[v], u);
  }

  bool directed;
  std::vector<std::vector<VertexId>> out;
  std::vector<std::vector<VertexId>> in;  // directed graphs only
};

/// The store must present exactly the reference's lists, order included,
/// vertex by vertex, in both directions.
void ExpectMatchesReference(const Graph& graph, const ReferenceAdjacency& ref) {
  const CsrView& view = graph.csr();
  ASSERT_EQ(view.NumVertices(), ref.out.size());
  EXPECT_EQ(view.directed(), ref.directed);
  for (VertexId v = 0; v < view.NumVertices(); ++v) {
    const auto out = view.OutNeighbors(v);
    const auto in = view.InNeighbors(v);
    EXPECT_EQ(std::vector<VertexId>(out.begin(), out.end()), ref.out[v])
        << "out-neighbors of " << v;
    EXPECT_EQ(std::vector<VertexId>(in.begin(), in.end()), ref.InLists()[v])
        << "in-neighbors of " << v;
    EXPECT_EQ(view.OutDegree(v), ref.out[v].size());
    EXPECT_EQ(view.InDegree(v), ref.InLists()[v].size());
  }
}

/// Random add/remove churn over `span` vertex ids, mirrored into `ref`.
void Churn(Graph* g, ReferenceAdjacency* ref, Rng* rng, int steps,
           std::uint64_t span, std::uint64_t remove_one_in) {
  for (int step = 0; step < steps; ++step) {
    const auto u = static_cast<VertexId>(rng->Uniform(span));
    const auto v = static_cast<VertexId>(rng->Uniform(span));
    if (u == v) continue;
    if (g->HasEdge(u, v) && rng->Uniform(remove_one_in) == 0) {
      ref->Remove(g, u, v);
    } else {
      ref->Add(g, u, v);  // AlreadyExists must leave both untouched
    }
  }
}

TEST(CsrViewTest, FromAdjacencyLoadsListsVerbatim) {
  std::vector<std::vector<VertexId>> out = {{2, 1}, {0}, {0, 3}, {2}};
  auto g = Graph::FromAdjacency(false, out, {});
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  const ReferenceAdjacency ref(*g);
  EXPECT_EQ(ref.out, out);
  EXPECT_EQ(g->NumEdges(), 3u);
  EXPECT_EQ(g->csr().stats().builds, 1u);
}

TEST(CsrViewTest, EdgeByEdgeGraphIsNeverBulkLoaded) {
  Rng rng(11);
  const Graph g = GenerateSocialGraph(200, SocialGraphParams{}, &rng);
  EXPECT_EQ(g.csr().stats().builds, 0u);
  EXPECT_EQ(g.csr().stats().patches, g.NumEdges());
}

TEST(CsrViewTest, MutationsMatchReferenceAfterRandomAddRemoveStream) {
  Rng rng(23);
  Graph g = GenerateSocialGraph(120, SocialGraphParams{}, &rng);
  ReferenceAdjacency ref(g);
  Churn(&g, &ref, &rng, 400, 140, 2);
  ExpectMatchesReference(g, ref);
  EXPECT_EQ(g.csr().stats().builds, 0u);
  EXPECT_GT(g.csr().stats().patches, 0u);
}

TEST(CsrViewTest, MutationsMatchReferenceDirected) {
  Rng rng(31);
  Graph g(/*directed=*/true);
  ReferenceAdjacency ref(g);
  Churn(&g, &ref, &rng, 300, 60, 3);
  ExpectMatchesReference(g, ref);
  EXPECT_EQ(g.csr().stats().builds, 0u);
}

TEST(CsrViewTest, MovedFromGraphReadsEmpty) {
  Graph g;
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  Graph h = std::move(g);
  EXPECT_EQ(h.NumEdges(), 1u);
  // Moved-from graph is valid-but-empty: no vertices, no edges, and its
  // store agrees.
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_EQ(g.csr().NumVertices(), g.NumVertices());
  Graph g2;
  ASSERT_TRUE(g2.AddEdge(2, 3).ok());
  h = std::move(g2);
  EXPECT_EQ(g2.NumEdges(), 0u);
  EXPECT_EQ(g2.csr().NumVertices(), g2.NumVertices());
  EXPECT_TRUE(h.csr().OutNeighbors(2).size() == 1);
  // A moved-from graph accepts new edges like a fresh one.
  ASSERT_TRUE(g.AddEdge(4, 5).ok());
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(CsrViewTest, GrowThenAddStartsFromEmptyBlock) {
  Graph g;
  ReferenceAdjacency ref(g);
  ref.Add(&g, 0, 1);
  ref.Add(&g, 40, 41);  // implicit growth
  EXPECT_EQ(std::vector<VertexId>(g.csr().OutNeighbors(40).begin(),
                                  g.csr().OutNeighbors(40).end()),
            (std::vector<VertexId>{41}));
  EXPECT_TRUE(g.csr().OutNeighbors(20).empty());
  ExpectMatchesReference(g, ref);
}

TEST(CsrViewTest, RelocationsPreserveNeighborsUnderHeavyChurnOnOneVertex) {
  Graph g;
  g.EnsureVertex(300);
  ReferenceAdjacency ref(g);
  // Hammer vertex 0 so its block overflows its slack repeatedly.
  for (VertexId v = 1; v <= 300; ++v) ref.Add(&g, 0, v);
  EXPECT_GT(g.csr().stats().relocations, 0u);
  EXPECT_EQ(g.csr().OutDegree(0), 300u);
  ExpectMatchesReference(g, ref);
}

TEST(CsrViewTest, CompactionPreservesNeighborOrder) {
  for (const bool directed : {false, true}) {
    Graph g(directed);
    ReferenceAdjacency ref(g);
    Rng rng(directed ? 41 : 43);
    // Every vertex's block relocates 0 -> 4 -> 8 -> 16 under this much
    // churn, which abandons over a third of the arena.
    Churn(&g, &ref, &rng, 12000, 600, 4);
    EXPECT_GT(g.csr().stats().relocations, 0u) << directed;
    EXPECT_GT(g.csr().stats().compactions, 0u) << directed;
    ExpectMatchesReference(g, ref);
  }
}

/// End-to-end: on the CSR path, incremental scores after a random
/// add/remove stream must match a fresh Brandes recompute — for all three
/// variants (MP / MO / DO).
class CsrEndToEndTest : public ::testing::TestWithParam<BcVariant> {};

TEST_P(CsrEndToEndTest, IncrementalMatchesFreshBrandes) {
  Rng rng(77);
  Graph g = GenerateSocialGraph(60, SocialGraphParams{}, &rng);

  DynamicBcOptions options;
  options.variant = GetParam();
  if (options.variant == BcVariant::kOutOfCore) {
    options.storage_path = ::testing::TempDir() + "/csr_e2e_store.bin";
  }
  auto bc = DynamicBc::Create(g, options);
  ASSERT_TRUE(bc.ok()) << bc.status().ToString();

  Rng stream_rng(78);
  for (int step = 0; step < 60; ++step) {
    const auto u = static_cast<VertexId>(stream_rng.Uniform(70));
    const auto v = static_cast<VertexId>(stream_rng.Uniform(70));
    if (u == v) continue;
    const Graph& cur = (*bc)->graph();
    if (cur.HasVertex(u) && cur.HasVertex(v) && cur.HasEdge(u, v) &&
        stream_rng.Uniform(2) == 0) {
      ASSERT_TRUE((*bc)->Apply({u, v, EdgeOp::kRemove}).ok());
    } else if (!(cur.HasVertex(u) && cur.HasVertex(v) && cur.HasEdge(u, v))) {
      ASSERT_TRUE((*bc)->Apply({u, v, EdgeOp::kAdd}).ok());
    }
  }

  // Edge-by-edge mutation only: nothing ever bulk-loads the store.
  EXPECT_EQ((*bc)->graph().csr().stats().builds, 0u);

  const BcScores fresh = ComputeBrandes((*bc)->graph());
  testutil::ExpectScoresNear(fresh, (*bc)->scores(), 1e-6, "csr end-to-end");
}

INSTANTIATE_TEST_SUITE_P(AllVariants, CsrEndToEndTest,
                         ::testing::Values(BcVariant::kMemoryPredecessors,
                                           BcVariant::kMemory,
                                           BcVariant::kOutOfCore));

}  // namespace
}  // namespace sobc
