// Parallel-apply benchmark: the speedup curve of the source-major apply
// (W lanes each walking a whole batch over its own share of the sources,
// DESIGN.md §9) on a churn-heavy stream, plus the prefilter's skip-rate on
// a non-structural (addition) stream. Emits BENCH_parallel_apply.json so
// the trajectory is tracked across commits (CI runs it on every push).
//
// Two wall-clock accountings are reported, as everywhere in this repo, both
// from the same runs (DynamicBc with num_threads = w, fed kServeBatch-update
// ApplyBatch calls, the batch shape the serving layer's writer drains):
//   measured — real threads on this machine's cores. Meaningful only when
//              the machine actually has w cores; CI gates it only there.
//   modeled  — the cluster accounting of DESIGN.md substitution 3: each
//              lane is one of the paper's mappers, timed on its thread's
//              CPU clock, and a batch's wall is its slowest lane plus the
//              reduce (ParallelUpdateTiming::ModeledWallSeconds). This is
//              the accounting Figures 6-8 use, and the one comparable
//              across heterogeneous CI machines; CI gates it at 4 lanes.
//
// The report also carries the kernel-level MS-BFS number (`msbfs_speedup`):
// one 64-lane bit-parallel batch vs the 64 per-source scalar sweeps it
// replaces, on the same graph — the win every traversal hot path inherits.
// CI gates it at >= 2x alongside the modeled and measured @4 gates.
//
// Env knobs: SOBC_PAR_VERTICES (default 600), SOBC_PAR_UPDATES (default
// 240), SOBC_PAR_POOL (churn pool size, default vertices/64, min 8),
// SOBC_PAR_MAX_THREADS (default 8, curve is 1,2,4,..,max),
// SOBC_PAR_MSBFS_ROUNDS (64-source batches per side, default 8),
// SOBC_PAR_OUT (default BENCH_parallel_apply.json).

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bc/dynamic_bc.h"
#include "common/env.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/timer.h"
#include "gen/social_generator.h"
#include "gen/stream_generators.h"
#include "graph/csr_view.h"
#include "graph/msbfs.h"

namespace sobc {
namespace {

struct CurvePoint {
  int threads = 1;
  double seconds = 0.0;
  double speedup = 1.0;
};

/// Updates per ApplyBatch call of the measured runs: the serving layer's
/// typical coalesced batch (`sobc_cli serve --batch=64`).
constexpr std::size_t kServeBatch = 64;

/// Interleaved rounds of both curves; each point is their median.
constexpr int kMeasuredRounds = 5;

/// Wall seconds of one run, and the modeled cluster seconds the lanes'
/// timings add up to over the same batches.
struct ApplyRun {
  double wall_seconds = 0.0;
  double modeled_seconds = 0.0;
};

ApplyRun RunApply(const Graph& graph, const EdgeStream& stream, int threads,
                  bool prefilter, UpdateStats* totals = nullptr) {
  DynamicBcOptions options;
  options.num_threads = threads;
  options.prefilter = prefilter;
  auto bc = DynamicBc::Create(graph, options);
  if (!bc.ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 bc.status().ToString().c_str());
    std::exit(1);
  }
  ApplyRun run;
  WallTimer timer;
  for (std::size_t i = 0; i < stream.size(); i += kServeBatch) {
    const std::span<const EdgeUpdate> batch(
        stream.data() + i, std::min(kServeBatch, stream.size() - i));
    if (Status st = (*bc)->ApplyBatch(batch); !st.ok()) {
      std::fprintf(stderr, "apply failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    run.modeled_seconds += (*bc)->last_timing().ModeledWallSeconds();
    if (totals != nullptr) totals->Merge((*bc)->last_update_stats());
  }
  run.wall_seconds = timer.Seconds();
  return run;
}

/// One 64-lane MS-BFS batch vs the 64 per-source scalar sweeps it
/// replaces, on the bench graph, repeated `rounds` times over a rolling
/// source window. This is the kernel-level win the traversal hot paths
/// (prefilter, structural re-BFS, full rebuilds) inherit; the CI gate
/// keys on its speedup.
struct MsBfsComparison {
  std::size_t rounds = 0;
  double scalar_seconds = 0.0;
  double msbfs_seconds = 0.0;
  double speedup = 0.0;
};

MsBfsComparison CompareMsBfsToScalar(const Graph& graph, std::size_t rounds) {
  const CsrView& adj = graph.csr();
  const std::size_t n = graph.NumVertices();
  MsBfsComparison result;
  result.rounds = rounds;

  std::vector<VertexId> sources(MsBfsScratch::kLanes);
  auto fill_sources = [&](std::size_t round) {
    for (std::size_t i = 0; i < sources.size(); ++i) {
      sources[i] = static_cast<VertexId>((round * sources.size() + i) % n);
    }
  };

  {
    std::vector<Distance> dist(n);
    std::vector<VertexId> queue;
    queue.reserve(n);
    WallTimer timer;
    for (std::size_t r = 0; r < rounds; ++r) {
      fill_sources(r);
      for (const VertexId s : sources) {
        std::fill(dist.begin(), dist.end(), kUnreachable);
        queue.clear();
        dist[s] = 0;
        queue.push_back(s);
        for (std::size_t head = 0; head < queue.size(); ++head) {
          const VertexId v = queue[head];
          for (const VertexId w : adj.OutNeighbors(v)) {
            if (dist[w] == kUnreachable) {
              dist[w] = dist[v] + 1;
              queue.push_back(w);
            }
          }
        }
      }
    }
    result.scalar_seconds = timer.Seconds();
  }

  {
    MsBfsScratch scratch;
    scratch.ReserveLanes(n);
    std::vector<Distance*> dist(MsBfsScratch::kLanes);
    for (std::size_t i = 0; i < dist.size(); ++i) {
      dist[i] = scratch.LaneDistances(i);
    }
    WallTimer timer;
    for (std::size_t r = 0; r < rounds; ++r) {
      fill_sources(r);
      MsBfsRun(adj, std::span<const VertexId>(sources), /*reverse=*/false,
               MsBfsOptions{}, &scratch, std::span<Distance* const>(dist));
    }
    result.msbfs_seconds = timer.Seconds();
  }

  result.speedup = result.msbfs_seconds > 0
                       ? result.scalar_seconds / result.msbfs_seconds
                       : 0.0;
  return result;
}

int Main() {
  const auto n =
      static_cast<std::size_t>(GetEnvInt("SOBC_PAR_VERTICES", 600));
  const auto updates =
      static_cast<std::size_t>(GetEnvInt("SOBC_PAR_UPDATES", 240));
  const auto pool = static_cast<std::size_t>(GetEnvInt(
      "SOBC_PAR_POOL", static_cast<int>(std::max<std::size_t>(8, n / 64))));
  const int max_threads =
      static_cast<int>(GetEnvInt("SOBC_PAR_MAX_THREADS", 8));
  const std::string out_path =
      GetEnvString("SOBC_PAR_OUT", "BENCH_parallel_apply.json");

  Rng rng(4242);
  const Graph graph =
      GenerateSocialGraph(n, SocialGraphParams::PaperDefaults(), &rng);
  // The serving layer's worst case: structural add/remove toggles over a
  // small edge pool, so most updates touch a large affected region.
  const EdgeStream churn = ChurnStream(graph, updates, pool, &rng);
  // The prefilter's best case: plain additions, where a large fraction of
  // sources sees equal endpoint distances (Proposition 3.1) and skips.
  const EdgeStream additions = RandomAdditionStream(graph, updates / 2, &rng);
  std::printf("parallel apply bench: %zu vertices, %zu edges, %zu churn "
              "updates (pool %zu), %zu addition updates\n",
              graph.NumVertices(), graph.NumEdges(), churn.size(), pool,
              additions.size());

  std::vector<int> thread_counts;
  for (int t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);

  // Measured and modeled curves (churn workload, 64-update batches): each
  // point is the median of kMeasuredRounds rounds, each round running every
  // thread count once, so host noise and warm-up hit every point alike
  // instead of skewing whichever ran first.
  std::vector<std::vector<double>> walls(thread_counts.size());
  std::vector<std::vector<double>> models(thread_counts.size());
  for (int round = 0; round < kMeasuredRounds; ++round) {
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      const ApplyRun run = RunApply(graph, churn, thread_counts[i], true);
      walls[i].push_back(run.wall_seconds);
      models[i].push_back(run.modeled_seconds);
    }
  }
  auto curve = [&](const std::vector<std::vector<double>>& samples,
                   const char* label) {
    std::vector<CurvePoint> points;
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      CurvePoint point;
      point.threads = thread_counts[i];
      point.seconds = Summary(samples[i]).Median();
      point.speedup = points.empty() ? 1.0
                                     : points.front().seconds / point.seconds;
      std::printf("%s t=%d: %.3fs (%.2fx)\n", label, point.threads,
                  point.seconds, point.speedup);
      points.push_back(point);
    }
    return points;
  };
  const std::vector<CurvePoint> measured = curve(walls, "measured");
  const std::vector<CurvePoint> modeled = curve(models, "modeled ");

  // Kernel-level MS-BFS win: one 64-lane batch vs 64 scalar sweeps.
  const auto msbfs_rounds =
      static_cast<std::size_t>(GetEnvInt("SOBC_PAR_MSBFS_ROUNDS", 8));
  const MsBfsComparison msbfs = CompareMsBfsToScalar(graph, msbfs_rounds);
  std::printf("msbfs: %zu rounds of 64 sources, batched %.3fs vs scalar "
              "%.3fs (%.2fx)\n",
              msbfs.rounds, msbfs.msbfs_seconds, msbfs.scalar_seconds,
              msbfs.speedup);

  // Prefilter skip-rate and serial win on the non-structural stream.
  UpdateStats totals;
  const double serial_with =
      RunApply(graph, additions, 1, true, &totals).wall_seconds;
  const double serial_without =
      RunApply(graph, additions, 1, false).wall_seconds;
  const double skip_rate =
      totals.sources_total > 0
          ? static_cast<double>(totals.sources_prefiltered) /
                static_cast<double>(totals.sources_total)
          : 0.0;
  std::printf("prefilter on additions: %llu/%llu sources skipped (%.1f%%), "
              "serial %.3fs with vs %.3fs without (%.2fx)\n",
              static_cast<unsigned long long>(totals.sources_prefiltered),
              static_cast<unsigned long long>(totals.sources_total),
              100.0 * skip_rate, serial_with, serial_without,
              serial_with > 0 ? serial_without / serial_with : 0.0);

  double speedup_4_measured = 0.0;
  double speedup_4_modeled = 0.0;
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    if (thread_counts[i] != 4) continue;
    speedup_4_measured = measured[i].speedup;
    speedup_4_modeled = modeled[i].speedup;
  }

  std::string json = "{\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"bench\": \"parallel_apply\",\n"
                "  \"vertices\": %zu,\n  \"edges\": %zu,\n"
                "  \"churn_updates\": %zu,\n  \"churn_pool\": %zu,\n"
                "  \"addition_updates\": %zu,\n"
                "  \"measured_batch\": %zu,\n"
                "  \"hardware_threads\": %u,\n",
                graph.NumVertices(), graph.NumEdges(), churn.size(), pool,
                additions.size(), kServeBatch,
                std::thread::hardware_concurrency());
  json += buf;
  json += "  \"measured\": [\n";
  for (std::size_t i = 0; i < measured.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"threads\": %d, \"wall_seconds\": %.6f, "
                  "\"speedup\": %.4f}%s\n",
                  measured[i].threads, measured[i].seconds,
                  measured[i].speedup,
                  i + 1 < measured.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n  \"modeled\": [\n";
  for (std::size_t i = 0; i < modeled.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"workers\": %d, \"modeled_wall_seconds\": %.6f, "
                  "\"speedup\": %.4f}%s\n",
                  modeled[i].threads, modeled[i].seconds,
                  modeled[i].speedup, i + 1 < modeled.size() ? "," : "");
    json += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "  ],\n"
                "  \"speedup_at_4_threads_measured\": %.4f,\n"
                "  \"speedup_at_4_threads_modeled\": %.4f,\n"
                "  \"msbfs\": {\n"
                "    \"rounds\": %zu,\n"
                "    \"scalar_seconds\": %.6f,\n"
                "    \"msbfs_seconds\": %.6f\n  },\n"
                "  \"msbfs_speedup\": %.4f,\n"
                "  \"prefilter\": {\n"
                "    \"sources_total\": %llu,\n"
                "    \"sources_prefiltered\": %llu,\n"
                "    \"skip_rate\": %.4f,\n"
                "    \"serial_seconds_with\": %.6f,\n"
                "    \"serial_seconds_without\": %.6f\n  }\n}\n",
                speedup_4_measured, speedup_4_modeled, msbfs.rounds,
                msbfs.scalar_seconds, msbfs.msbfs_seconds, msbfs.speedup,
                static_cast<unsigned long long>(totals.sources_total),
                static_cast<unsigned long long>(totals.sources_prefiltered),
                skip_rate, serial_with, serial_without);
  json += buf;

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace sobc

int main() { return sobc::Main(); }
