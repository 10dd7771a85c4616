// Reproduces Figure 6: CDF of the speedup over Brandes when the framework
// runs on the parallel (MapReduce-style) engine — panels (a)/(b) synthetic
// graphs, (c)/(d) real stand-ins, for additions and removals.
//
// As in the paper, one mapper serves ~1000 sources, and the comparison is
// Brandes' single run time versus the *cumulative* execution time across
// mappers (sum of mapper times + reduce). Each mapper is one apply lane of
// DynamicBc, timed on its thread's CPU clock (DESIGN.md substitution 3).
//
// Shape to look for: median speedup rises from the smallest synthetic size,
// then drops again at the largest; removals track additions closely;
// facebook/wikielections high, amazon lowest.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

namespace sobc {
namespace {

int SourcesPerMapper() {
  return static_cast<int>(GetEnvInt("SOBC_SOURCES_PER_MAPPER", 1000));
}

int RunCase(const std::string& name, const Graph& graph, double brandes,
            const EdgeStream& stream, const char* panel) {
  DynamicBcOptions options;
  options.num_threads = std::max<int>(
      1, static_cast<int>(graph.NumVertices()) / SourcesPerMapper());
  auto bc = DynamicBc::Create(graph, options);
  if (!bc.ok()) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(),
                 bc.status().ToString().c_str());
    return 1;
  }
  std::vector<double> speedups;
  for (const EdgeUpdate& update : stream) {
    if (!(*bc)->Apply(update).ok()) return 1;
    speedups.push_back(brandes / (*bc)->last_timing().CumulativeSeconds());
  }
  const Summary summary(speedups);
  std::printf("\n%s %s (p=%d mappers) speedup CDF (median %.0f):\n",
              name.c_str(), panel, options.num_threads, summary.Median());
  std::printf("%s", RenderCdf(summary, 9).c_str());
  return 0;
}

int RunDataset(const std::string& name, const Graph& graph, Rng* rng) {
  const double brandes = bench::TimeBrandes(graph);
  const std::size_t edges = bench::StreamEdges(20);
  EdgeStream additions = RandomAdditionStream(graph, edges, rng);
  EdgeStream removals = RandomRemovalStream(graph, edges, rng);
  if (RunCase(name, graph, brandes, additions, "additions") != 0) return 1;
  return RunCase(name, graph, brandes, removals, "removals");
}

int Run() {
  bench::ScaleNote();
  bench::Banner(
      "Figure 6: speedup CDFs on the parallel engine (a,b synthetic; "
      "c,d real)");

  Rng rng(6);
  for (std::size_t n : bench::SyntheticSizes()) {
    Graph g = BuildProfileGraph(SyntheticSocialProfile(n), n, &rng);
    if (RunDataset("synthetic" + std::to_string(n), g, &rng) != 0) return 1;
  }
  for (const DatasetProfile& profile : RealGraphProfiles()) {
    Graph g = BuildProfileGraph(profile, bench::ProfileScale(profile), &rng);
    if (RunDataset(profile.name, g, &rng) != 0) return 1;
  }
  std::printf(
      "\n# paper reference (Fig. 6): synthetic medians ~10 (1k) -> ~50"
      " (100k) -> ~10 (1000k);\n"
      "# removals slightly above additions; fb median ~66 add / ~102 rem,"
      " amazon ~4 / ~3.\n");
  return 0;
}

}  // namespace
}  // namespace sobc

int main() { return sobc::Run(); }
