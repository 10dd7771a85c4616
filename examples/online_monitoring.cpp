// Online monitoring: keep betweenness centrality fresh on an evolving
// social graph whose edges arrive in real time (Sections 5.3-5.4 of the
// paper). Demonstrates the source-major apply lanes as the paper's
// MapReduce mappers, the online replay harness, and the capacity model
// that sizes the cluster.
//
// Run:  ./online_monitoring [vertices] [stream_edges]

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bc/dynamic_bc.h"
#include "common/rng.h"
#include "common/stats.h"
#include "gen/social_generator.h"
#include "gen/stream_generators.h"
#include "parallel/online_scheduler.h"

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 600;
  const std::size_t updates =
      argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 40;

  sobc::Rng rng(2024);
  sobc::Graph graph =
      sobc::GenerateSocialGraph(n, sobc::SocialGraphParams::PaperDefaults(),
                                &rng);
  std::printf("social graph: %zu vertices, %zu edges\n", graph.NumVertices(),
              graph.NumEdges());

  // A bursty arrival process; the framework must keep up edge by edge.
  sobc::EdgeStream stream =
      sobc::RandomAdditionStream(graph, updates, &rng);
  sobc::StampArrivalTimes(&stream, {std::log(0.05), 1.5}, 0.0, &rng);

  for (const int mappers : {1, 4}) {
    sobc::DynamicBcOptions options;
    options.num_threads = mappers;  // one apply lane per mapper
    auto bc = sobc::DynamicBc::Create(graph, options);
    if (!bc.ok()) {
      std::fprintf(stderr, "Create: %s\n", bc.status().ToString().c_str());
      return 1;
    }
    auto replay = sobc::ReplayOnline(bc->get(), stream);
    if (!replay.ok()) {
      std::fprintf(stderr, "Replay: %s\n",
                   replay.status().ToString().c_str());
      return 1;
    }
    const sobc::Summary times(replay->update_seconds);
    std::printf(
        "p=%2d mappers: median update %.4fs, missed %zu/%zu deadlines "
        "(%.1f%%), avg delay %.3fs\n",
        mappers, times.Median(), replay->missed, replay->deadline_updates,
        100.0 * replay->missed_fraction, replay->avg_delay_seconds);

    // Capacity planning (Section 5.3): how many machines would keep every
    // update on time at this arrival rate?
    const double ts_per_source =
        times.Median() / static_cast<double>(graph.NumVertices());
    const sobc::Summary gaps(replay->inter_arrival_seconds);
    const int needed = sobc::RequiredMappers(
        ts_per_source, graph.NumVertices(), gaps.Median(), 1e-4);
    if (needed > 0) {
      std::printf("  capacity model: p' = %d mappers for median gap %.3fs\n",
                  needed, gaps.Median());
    }
  }
  return 0;
}
