// Reproduces Figure 7: scaling of the parallel engine for edge additions.
//   (a,b) strong scaling — fixed workload (100/200/300 added edges), the
//         per-edge wall-clock time drops almost linearly with mappers;
//   (c,d) weak scaling — workload grows with the mapper count (constant
//         ratio r of edges per mapper), the total computation time stays
//         flat.
//
// Wall-clock is the modeled cluster time (slowest mapper + reduce), which
// is what a shared-nothing deployment would observe. Each mapper is one
// apply lane of DynamicBc, timed on its thread's CPU clock, so the model
// holds with more mappers than cores (DESIGN.md substitution 3).

#include <cstdio>
#include <vector>

#include "bench_util.h"

namespace sobc {
namespace {

// Median modeled wall seconds per edge when applying `stream` with p
// mappers (median rather than mean: one unusually heavy structural edge
// would otherwise dominate a cell).
double WallPerEdge(const Graph& graph, const EdgeStream& stream, int mappers) {
  DynamicBcOptions options;
  options.num_threads = mappers;
  auto bc = DynamicBc::Create(graph, options);
  if (!bc.ok()) return -1.0;
  std::vector<double> walls;
  for (const EdgeUpdate& update : stream) {
    if (!(*bc)->Apply(update).ok()) return -1.0;
    walls.push_back((*bc)->last_timing().ModeledWallSeconds());
  }
  return Summary(walls).Median();
}

int Run() {
  bench::ScaleNote();
  Rng rng(7);

  const std::vector<int> mappers =
      UsePaperScale() ? std::vector<int>{1, 10, 100}
                      : std::vector<int>{1, 2, 4, 8, 16};
  const std::vector<std::size_t> sizes = {bench::SyntheticSizes()[1],
                                          bench::SyntheticSizes()[2]};

  bench::Banner("Figure 7 (a,b): strong scaling, wall-clock per added edge");
  for (std::size_t n : sizes) {
    Graph g = BuildProfileGraph(SyntheticSocialProfile(n), n, &rng);
    std::printf("\ngraph %zu vertices / %zu edges\n", g.NumVertices(),
                g.NumEdges());
    std::printf("%8s", "mappers");
    const std::vector<std::size_t> workloads = {10, 20, 30};
    for (std::size_t w : workloads) std::printf("  %5zu-edges", w);
    std::printf("\n");
    // One stream per workload, reused across mapper counts.
    std::vector<EdgeStream> streams;
    for (std::size_t w : workloads) {
      streams.push_back(RandomAdditionStream(g, w, &rng));
    }
    for (int p : mappers) {
      std::printf("%8d", p);
      for (const EdgeStream& stream : streams) {
        std::printf("  %10.4fs", WallPerEdge(g, stream, p));
      }
      std::printf("\n");
    }
  }

  bench::Banner(
      "Figure 7 (c,d): weak scaling, total time at constant edges/mapper");
  // Keep >=250 sources per mapper: with fewer, the slowest mapper is
  // dominated by one or two expensive sources and the cluster model's
  // max-over-mappers floor hides the scaling (the paper's configuration
  // keeps ~1000 sources per mapper for the same reason).
  const std::vector<int> weak_mappers =
      UsePaperScale() ? mappers : std::vector<int>{1, 2, 4, 8};
  for (std::size_t n : sizes) {
    Graph g = BuildProfileGraph(SyntheticSocialProfile(n), n, &rng);
    std::printf("\ngraph %zu vertices / %zu edges\n", g.NumVertices(),
                g.NumEdges());
    std::printf("%8s", "mappers");
    const std::vector<int> ratios = {2, 4, 6};
    for (int r : ratios) std::printf("      r=%d", r);
    std::printf("\n");
    // All cells draw nested prefixes of one master stream so a row compares
    // like workloads; the median per-edge time keeps one unusually heavy
    // edge from skewing a cell.
    const std::size_t max_edges =
        static_cast<std::size_t>(weak_mappers.back()) * ratios.back();
    const EdgeStream master = RandomAdditionStream(g, max_edges, &rng);
    for (int p : weak_mappers) {
      std::printf("%8d", p);
      for (int r : ratios) {
        const std::size_t edges = static_cast<std::size_t>(p) * r;
        const EdgeStream stream(master.begin(), master.begin() + edges);
        const double per_edge = WallPerEdge(g, stream, p);
        // Total modeled computation time for the whole workload.
        std::printf(" %7.3fs", per_edge * static_cast<double>(edges));
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\n# paper reference (Fig. 7): (a,b) near-linear drop with mappers"
      " regardless of\n"
      "# workload; (c,d) flat rows — constant time when workload/mappers"
      " is constant.\n"
      "# note: at laptop scale the slowest-mapper floor (a few hundred"
      " sources each)\n"
      "# caps both trends earlier than the paper's 1000-sources-per-mapper"
      " setup.\n");
  return 0;
}

}  // namespace
}  // namespace sobc

int main() { return sobc::Run(); }
