// sobc command-line tool: run the online-betweenness framework on edge-list
// files without writing any code.
//
// Usage:
//   sobc_cli scores <graph.txt> [--directed] [--out=scores.tsv]
//       Exact betweenness (Brandes) of an edge-list graph.
//   sobc_cli stream <graph.txt> <stream.txt> [--directed] [--variant=mo|mp|do]
//            [--store=bd.bin] [--store-codec=raw|delta] [--cache-mb=M]
//            [--no-prefetch] [--out=scores.tsv] [--top=K] [--threads=T]
//            [--no-prefilter] [--no-msbfs] [--do-switch-threshold=A]
//            [--approx=K --epsilon=E]
//       Step 1 + incremental replay of an update stream ("+ u v t" /
//       "- u v t" lines; see WriteEdgeStream), printing per-update stats
//       (including the prefilter skip-rate and the MS-BFS kernel report)
//       and the final top-K elements.
//       --threads splits the sources into T apply lanes, each walking
//       every batch over its own share (0 = hardware concurrency). The
//       storage flags tune the DO engine: record codec, shared hot-record
//       cache budget, async prefetch.
//       --no-msbfs pins every traversal to the per-source scalar BFS;
//       --do-switch-threshold=A tunes the direction-optimizing alpha
//       (<= 0 pins the kernel top-down). --approx=K runs the sampled
//       approximation (DESIGN.md §15): BD state is maintained for K
//       seeded sample sources only and published scores are n/K-scaled
//       estimates; --epsilon=E (in (0,1), default 0.1) tightens the
//       drift controller that triggers adaptive resampling, and --seed
//       pins the sampling schedule.
//   sobc_cli stats <graph.txt> [--directed] [--store=bd.bin]
//       Dataset statistics (the Table 2 columns). With --store, also the
//       store file's footprint — file bytes, encoded vs decoded bytes per
//       source, compression ratio, cache occupancy — the numbers that size
//       --cache-mb.
//   sobc_cli generate <profile-or-kind> <vertices> [--seed=S]
//            [--out=graph.txt] [--stream=N] [--stream-out=stream.txt]
//       Synthesize a dataset: a named profile ("facebook", "amazon", ...,
//       see dataset_profiles.h), "social", or "tree". Optionally also emit
//       a timestamped stream of N additions for the stream command.
//   sobc_cli serve <graph.txt> [--directed] [--stream=file|--updates=N]
//            [--churn=F] [--readers=R] [--batch=B] [--budget-ms=M]
//            [--queue-cap=C] [--no-coalesce] [--threads=T] [--no-prefilter]
//            [--no-msbfs] [--do-switch-threshold=A] [--approx=K --epsilon=E]
//            [--variant=mo|mp|do] [--store=bd.bin] [--store-codec=raw|delta]
//            [--cache-mb=M] [--no-prefetch] [--top=K] [--seed=S]
//            [--json=report.json] [--wal-dir=D] [--checkpoint-dir=D]
//            [--checkpoint-every=N] [--checkpoint-interval=S] [--fsync=N]
//            [--fault-schedule=SPEC]
//       Live serving loop (src/server): a writer thread drains coalesced
//       batches — fanning each batch's source work across T apply workers
//       — while R reader threads query top-k snapshots lock-free; prints
//       (and optionally writes as JSON) the serve metrics, prefilter
//       skip-rate and MS-BFS kernel counters included. --variant=do serves out of core; the store is
//       flushed at shutdown, so it can be inspected with `stats --store`.
//       --wal-dir makes the deployment durable: every accepted batch is
//       logged before apply (fdatasync every --fsync batches; 0 = never)
//       and checkpoints commit every N updates / S seconds. A killed
//       durable serve is restarted with `recover`. --fault-schedule arms
//       deterministic I/O fault injection after bring-up (grammar in
//       common/fault_io.h, e.g. "fdatasync@2=EIO,fsync~ckpt%0.5=ENOSPC");
//       serve exits non-zero when the service ends a run degraded or
//       read-only, printing the health state and the writer's final
//       status.
//   sobc_cli recover --wal-dir=D [--checkpoint-dir=D] [--store=live.bd]
//            [--threads=T] [--no-prefilter] [--cache-mb=M] [--no-prefetch]
//            [--top=K] [--out=scores.tsv] [--json=report.json]
//       Crash/restart recovery: loads the newest usable checkpoint,
//       replays the WAL tail (truncating a torn final frame), prints the
//       recovered epoch/position and top-K, then commits a clean-shutdown
//       checkpoint. The storage variant comes from the checkpoint
//       manifest; tuning flags still apply.
//   sobc_cli shard <graph> --listen=HOST:PORT --shard-index=I --shards=N
//            [--directed] [--variant=mo|mp|do] [--store=f.bd] [--threads=T]
//            [--no-prefilter] [--wal-dir=D] [--checkpoint-dir=D]
//            [--checkpoint-every=N] [--checkpoint-interval=S] [--fsync=N]
//            [--kill-after=N]
//       One cluster shard worker: runs a replicated BcService scoped to
//       source partition I of N (its own BD store, WAL, checkpoints) and
//       serves the coordinator protocol on the listen address until the
//       coordinator sends shutdown. With --recover (and no graph
//       argument) the shard restarts from its checkpoint + WAL tail and
//       rejoins over the wire; --kill-after=N hard-kills the process
//       after N WAL appends (the cluster smoke's crash lever).
//   sobc_cli cluster <graph> --shards=H:P,H:P,... [--directed]
//            [--stream=file|--updates=N] [--churn=F] [--batch=B]
//            [--budget-ms=M] [--queue-cap=C] [--no-coalesce] [--top=K]
//            [--seed=S] [--retry-seconds=S] [--pace-ms=M] [--json=report.json]
//            [--standby-listen=H:P] [--standby-of=H:P]
//            [--split=I --split-recipient=H:P] [--merge=I]
//       The cluster head: connects to already-listening shard workers,
//       replicates the (deterministically generated or file-loaded)
//       update stream to every shard, merges the acked score partials,
//       and prints the same metrics + top-K block as `serve` — the
//       differential the cluster smoke compares against a single-process
//       run. Shards are sent a clean shutdown at the end. --pace-ms
//       spaces submissions out so failures can land mid-stream.
//       --standby-listen arms the warm-standby feed (the resolved address
//       is printed); a second cluster process started with --standby-of
//       and the SAME graph/stream flags tails that feed and, if the
//       primary dies, takes over the shard roster and finishes the stream
//       to the same final block. --split migrates the upper half of shard
//       I's range to a `shard --await-migration` worker at the recipient
//       address midway through the stream, --merge folds shard I+1 back
//       into shard I — both without restarting the coordinator.
//
// Exit code 0 on success; errors go to stderr.

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "analysis/graph_stats.h"
#include "analysis/top_k.h"
#include "bc/bd_store_disk.h"
#include "cluster/coordinator.h"
#include "cluster/shard_worker.h"
#include "cluster/transport.h"
#include "bc/brandes.h"
#include "bc/dynamic_bc.h"
#include "bc/score_io.h"
#include "common/fault_io.h"
#include "common/flag_parse.h"
#include "common/io.h"
#include "common/rng.h"
#include "common/timer.h"
#include "gen/dataset_profiles.h"
#include "gen/generators.h"
#include "gen/social_generator.h"
#include "gen/stream_generators.h"
#include "graph/graph_io.h"
#include "server/bc_service.h"

namespace sobc {
namespace {

struct CliArgs {
  std::vector<std::string> positional;
  bool directed = false;
  std::string variant = "mo";
  std::string store_path;
  std::string out_path;
  std::string stream_out_path;
  std::string stream_file;
  std::string json_path;
  std::size_t top = 10;
  std::size_t stream_edges = 0;
  std::uint64_t seed = 1;
  // apply-path threading (stream replay and serve writer; 0 = hardware)
  int threads = 1;
  bool prefilter = true;
  // bit-parallel MS-BFS traversal kernel (stream + serve; default on)
  bool msbfs = true;
  double do_switch_threshold = 14.0;
  // sampled approximation (stream + serve + recover; 0 = exact)
  std::size_t approx_samples = 0;
  double epsilon = 0.1;
  // out-of-core storage engine
  std::string store_codec = "raw";
  std::size_t cache_mb = 64;
  bool prefetch = true;
  // serve options
  std::size_t serve_updates = 10000;
  double churn = 0.5;
  int readers = 2;
  std::size_t batch = 64;
  double budget_ms = 1.0;
  std::size_t queue_cap = 4096;
  bool coalesce = true;
  // durability (serve + recover)
  std::string wal_dir;
  std::string checkpoint_dir;
  std::size_t fsync_every = 1;
  std::size_t checkpoint_every = 0;
  double checkpoint_interval = 0.0;
  std::size_t kill_after = 0;
  // fault injection (serve): armed after bring-up, see CmdServe
  std::string fault_schedule;
  // cluster (shard + cluster commands)
  std::string listen;
  std::size_t shard_index = 0;
  // shard: the worker count; cluster: a comma-separated address list
  std::string shards_spec;
  bool recover_mode = false;
  double retry_seconds = 10.0;
  // cluster failover + live rebalancing
  std::string standby_listen;   // primary: arm the standby feed here
  std::string standby_of;       // run as warm standby of this feed address
  double pace_ms = 0.0;         // sleep between submitted updates
  long split_index = -1;        // split this shard's range mid-stream...
  std::string split_recipient;  // ...migrating to this awaiting worker
  long merge_index = -1;        // merge shard I+1 into shard I mid-stream
  bool await_migration = false; // shard: start empty, wait for the image
};

/// Upper bound on --threads. Every apply lane holds a graph replica, so a
/// typo such as --threads=40000 would exhaust memory before doing any work.
constexpr int kMaxThreads = 1024;

bool ParseArgs(int argc, char** argv, CliArgs* args) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--directed") {
      args->directed = true;
    } else if (arg.rfind("--variant=", 0) == 0) {
      args->variant = arg.substr(10);
    } else if (arg.rfind("--store=", 0) == 0) {
      args->store_path = arg.substr(8);
    } else if (arg.rfind("--out=", 0) == 0) {
      args->out_path = arg.substr(6);
    } else if (arg.rfind("--top=", 0) == 0) {
      auto value = ParseUint64(arg.substr(6));
      if (!value.ok()) {
        std::fprintf(stderr, "--top: expected a non-negative count: %s\n",
                     value.status().ToString().c_str());
        return false;
      }
      args->top = static_cast<std::size_t>(*value);
    } else if (arg.rfind("--seed=", 0) == 0) {
      args->seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--stream=", 0) == 0) {
      // For generate this is a count; for serve it can also be a file.
      // Only an all-digits value is a count, so filenames like
      // "10k_updates.txt" route to the file branch.
      const std::string value = arg.substr(9);
      const bool numeric =
          !value.empty() &&
          std::all_of(value.begin(), value.end(), [](unsigned char c) {
            return std::isdigit(c) != 0;
          });
      if (numeric) {
        args->stream_edges = std::strtoul(value.c_str(), nullptr, 10);
      } else {
        args->stream_file = value;
      }
    } else if (arg.rfind("--stream-out=", 0) == 0) {
      args->stream_out_path = arg.substr(13);
    } else if (arg.rfind("--updates=", 0) == 0) {
      args->serve_updates = std::strtoul(arg.c_str() + 10, nullptr, 10);
    } else if (arg.rfind("--churn=", 0) == 0) {
      args->churn = std::strtod(arg.c_str() + 8, nullptr);
    } else if (arg.rfind("--readers=", 0) == 0) {
      args->readers = static_cast<int>(std::strtol(arg.c_str() + 10, nullptr, 10));
    } else if (arg.rfind("--batch=", 0) == 0) {
      args->batch = std::strtoul(arg.c_str() + 8, nullptr, 10);
    } else if (arg.rfind("--budget-ms=", 0) == 0) {
      args->budget_ms = std::strtod(arg.c_str() + 12, nullptr);
    } else if (arg.rfind("--queue-cap=", 0) == 0) {
      args->queue_cap = std::strtoul(arg.c_str() + 12, nullptr, 10);
    } else if (arg.rfind("--threads=", 0) == 0) {
      auto value = ParseUint64(arg.substr(10));
      if (!value.ok() || *value > kMaxThreads) {
        std::fprintf(stderr,
                     "--threads: expected a thread count in [0, %d] "
                     "(0 = hardware): %s\n",
                     kMaxThreads,
                     value.ok() ? arg.substr(10).c_str()
                                : value.status().ToString().c_str());
        return false;
      }
      args->threads = static_cast<int>(*value);
    } else if (arg == "--no-prefilter") {
      args->prefilter = false;
    } else if (arg == "--msbfs") {
      args->msbfs = true;
    } else if (arg == "--no-msbfs") {
      args->msbfs = false;
    } else if (arg.rfind("--do-switch-threshold=", 0) == 0) {
      auto value = ParseFiniteDouble(arg.substr(22));
      if (!value.ok()) {
        std::fprintf(stderr, "--do-switch-threshold: %s\n",
                     value.status().ToString().c_str());
        return false;
      }
      args->do_switch_threshold = *value;
    } else if (arg.rfind("--approx=", 0) == 0) {
      auto value = ParseUint64(arg.substr(9));
      if (!value.ok() || *value == 0) {
        std::fprintf(stderr,
                     "--approx: expected a positive sample count: %s\n",
                     value.ok() ? "got 0"
                                : value.status().ToString().c_str());
        return false;
      }
      args->approx_samples = static_cast<std::size_t>(*value);
    } else if (arg.rfind("--epsilon=", 0) == 0) {
      auto value = ParseFiniteDouble(arg.substr(10));
      if (!value.ok() || *value <= 0.0 || *value >= 1.0) {
        std::fprintf(
            stderr, "--epsilon: expected a finite value in (0, 1): %s\n",
            value.ok() ? arg.substr(10).c_str()
                       : value.status().ToString().c_str());
        return false;
      }
      args->epsilon = *value;
    } else if (arg.rfind("--store-codec=", 0) == 0) {
      args->store_codec = arg.substr(14);
    } else if (arg.rfind("--cache-mb=", 0) == 0) {
      args->cache_mb = std::strtoul(arg.c_str() + 11, nullptr, 10);
    } else if (arg == "--prefetch") {
      args->prefetch = true;
    } else if (arg == "--no-prefetch") {
      args->prefetch = false;
    } else if (arg == "--no-coalesce") {
      args->coalesce = false;
    } else if (arg.rfind("--wal-dir=", 0) == 0) {
      args->wal_dir = arg.substr(10);
    } else if (arg.rfind("--checkpoint-dir=", 0) == 0) {
      args->checkpoint_dir = arg.substr(17);
    } else if (arg.rfind("--fsync=", 0) == 0) {
      args->fsync_every = std::strtoul(arg.c_str() + 8, nullptr, 10);
    } else if (arg.rfind("--checkpoint-every=", 0) == 0) {
      args->checkpoint_every = std::strtoul(arg.c_str() + 19, nullptr, 10);
    } else if (arg.rfind("--checkpoint-interval=", 0) == 0) {
      args->checkpoint_interval = std::strtod(arg.c_str() + 22, nullptr);
    } else if (arg.rfind("--kill-after=", 0) == 0) {
      args->kill_after = std::strtoul(arg.c_str() + 13, nullptr, 10);
    } else if (arg.rfind("--fault-schedule=", 0) == 0) {
      args->fault_schedule = arg.substr(17);
    } else if (arg.rfind("--listen=", 0) == 0) {
      args->listen = arg.substr(9);
    } else if (arg.rfind("--shard-index=", 0) == 0) {
      args->shard_index = std::strtoul(arg.c_str() + 14, nullptr, 10);
    } else if (arg.rfind("--shards=", 0) == 0) {
      args->shards_spec = arg.substr(9);
    } else if (arg == "--recover") {
      args->recover_mode = true;
    } else if (arg.rfind("--retry-seconds=", 0) == 0) {
      args->retry_seconds = std::strtod(arg.c_str() + 16, nullptr);
    } else if (arg.rfind("--standby-listen=", 0) == 0) {
      args->standby_listen = arg.substr(17);
    } else if (arg.rfind("--standby-of=", 0) == 0) {
      args->standby_of = arg.substr(13);
    } else if (arg.rfind("--pace-ms=", 0) == 0) {
      args->pace_ms = std::strtod(arg.c_str() + 10, nullptr);
    } else if (arg.rfind("--split=", 0) == 0) {
      args->split_index = std::strtol(arg.c_str() + 8, nullptr, 10);
    } else if (arg.rfind("--split-recipient=", 0) == 0) {
      args->split_recipient = arg.substr(18);
    } else if (arg.rfind("--merge=", 0) == 0) {
      args->merge_index = std::strtol(arg.c_str() + 8, nullptr, 10);
    } else if (arg == "--await-migration") {
      args->await_migration = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      args->json_path = arg.substr(7);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    } else {
      args->positional.push_back(arg);
    }
  }
  return true;
}

void PrintTop(const BcScores& scores, std::size_t k) {
  std::printf("top-%zu vertices by betweenness:\n", k);
  for (const auto& [v, score] : TopKVertices(scores.vbc, k)) {
    std::printf("  %8u  %14.3f\n", v, score);
  }
  std::printf("top-%zu edges by betweenness:\n", k);
  for (const auto& [e, score] : TopKEdges(scores.ebc, k)) {
    std::printf("  (%u,%u)  %14.3f\n", e.u, e.v, score);
  }
}

/// Copies the storage-engine flags onto a DynamicBcOptions; false (with a
/// message) for an unknown codec name.
bool ApplyStorageFlags(const CliArgs& args, DynamicBcOptions* options) {
  auto codec = ParseRecordCodec(args.store_codec);
  if (!codec.ok()) {
    std::fprintf(stderr, "%s\n", codec.status().ToString().c_str());
    return false;
  }
  options->store_codec = *codec;
  options->cache_mb = args.cache_mb;
  options->prefetch = args.prefetch;
  return true;
}

/// The per-store footprint block of `stats --store` and the DO replay
/// summary: what a record costs on disk vs decoded, and how the cache and
/// prefetcher behaved — the numbers that size --cache-mb.
void PrintStoreFootprint(DiskBdStore& store) {
  auto fp = store.Footprint();
  if (!fp.ok()) {
    std::fprintf(stderr, "footprint: %s\n", fp.status().ToString().c_str());
    return;
  }
  const double raw_bytes = static_cast<double>(fp->raw_record_bytes);
  std::printf(
      "store %s: codec=%s, %llu sources x %llu vertices\n",
      store.path().c_str(), RecordCodecName(fp->codec),
      static_cast<unsigned long long>(fp->live_records),
      static_cast<unsigned long long>(fp->num_vertices));
  std::printf(
      "  file: %.1f MiB logical, %.1f MiB on disk (slots are sparse)\n",
      fp->file_logical_bytes / 1048576.0,
      fp->file_physical_bytes / 1048576.0);
  std::printf(
      "  encoded: %.1f bytes/source (raw fixed-width would be %.1f, "
      "ratio %.2f); decoded record: %.1f KiB\n",
      fp->bytes_per_source, raw_bytes, fp->compression_ratio,
      fp->decoded_record_bytes / 1024.0);
  std::printf(
      "  cache: %.1f / %.1f MiB resident (%llu records), hit rate %.1f%% "
      "(%llu hits, %llu misses, %llu evictions)\n",
      fp->cache.bytes / 1048576.0, fp->cache.capacity_bytes / 1048576.0,
      static_cast<unsigned long long>(fp->cache.entries),
      100.0 * fp->cache.HitRate(),
      static_cast<unsigned long long>(fp->cache.hits),
      static_cast<unsigned long long>(fp->cache.misses),
      static_cast<unsigned long long>(fp->cache.evictions));
  if (fp->cache.oversize_rejects > 0 && fp->cache.capacity_bytes > 0) {
    std::printf(
        "  WARNING: one decoded record exceeds a cache shard's budget "
        "(%llu inserts rejected) — the cache is effectively off; raise "
        "--cache-mb to at least %.0f\n",
        static_cast<unsigned long long>(fp->cache.oversize_rejects),
        fp->min_viable_cache_bytes / 1048576.0 + 1.0);
  }
  const DiskIoStats io = store.io_stats();
  std::printf(
      "  io: %.1f MiB read, %.1f MiB written (%llu record loads, %llu "
      "record writes)\n",
      io.bytes_read / 1048576.0, io.bytes_written / 1048576.0,
      static_cast<unsigned long long>(io.records_loaded),
      static_cast<unsigned long long>(io.records_written));
  if (store.prefetch_enabled()) {
    const PrefetchStats pf = store.prefetch_stats();
    std::printf(
        "  prefetch: %llu fetched ahead, %llu already cached, %llu "
        "dropped, %.3fs background read time\n",
        static_cast<unsigned long long>(pf.fetched),
        static_cast<unsigned long long>(pf.already_cached),
        static_cast<unsigned long long>(pf.dropped), pf.fetch_seconds);
  }
}

int MaybeWrite(const BcScores& scores, const std::string& out_path) {
  if (out_path.empty()) return 0;
  if (Status st = WriteScoresTsv(scores, out_path); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

int CmdScores(const CliArgs& args) {
  auto graph = ReadEdgeList(args.positional[0], args.directed);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  WallTimer timer;
  const BcScores scores = ComputeBrandes(*graph);
  std::printf("Brandes on %zu vertices / %zu edges: %.3fs\n",
              graph->NumVertices(), graph->NumEdges(), timer.Seconds());
  PrintTop(scores, args.top);
  return MaybeWrite(scores, args.out_path);
}

int CmdStream(const CliArgs& args) {
  auto graph = ReadEdgeList(args.positional[0], args.directed);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  auto stream = ReadEdgeStream(args.positional[1]);
  if (!stream.ok()) {
    std::fprintf(stderr, "%s\n", stream.status().ToString().c_str());
    return 1;
  }
  DynamicBcOptions options;
  if (args.variant == "mp") {
    options.variant = BcVariant::kMemoryPredecessors;
  } else if (args.variant == "do") {
    options.variant = BcVariant::kOutOfCore;
    options.storage_path =
        args.store_path.empty() ? args.positional[0] + ".bd" : args.store_path;
  } else if (args.variant != "mo") {
    std::fprintf(stderr, "unknown variant %s (mo|mp|do)\n",
                 args.variant.c_str());
    return 1;
  }
  options.num_threads = args.threads;
  options.prefilter = args.prefilter;
  options.msbfs = args.msbfs;
  options.do_switch_threshold = args.do_switch_threshold;
  options.approx_samples = args.approx_samples;
  options.approx_epsilon = args.epsilon;
  options.approx_seed = args.seed;
  if (!ApplyStorageFlags(args, &options)) return 1;
  WallTimer init_timer;
  auto bc = DynamicBc::Create(std::move(*graph), options);
  if (!bc.ok()) {
    std::fprintf(stderr, "%s\n", bc.status().ToString().c_str());
    return 1;
  }
  std::printf("step 1 done in %.3fs (%zu vertices, %zu edges, %s, "
              "%d apply threads)\n",
              init_timer.Seconds(), (*bc)->graph().NumVertices(),
              (*bc)->graph().NumEdges(), args.variant.c_str(),
              (*bc)->num_threads());
  if ((*bc)->approx()) {
    std::printf(
        "sampled approximation: %zu sources (scale %.2f, epsilon %.3g, "
        "seed %llu) — printed scores are estimates\n",
        (*bc)->sample_sources().size(), (*bc)->approx_scale(), args.epsilon,
        static_cast<unsigned long long>(args.seed));
  }

  WallTimer stream_timer;
  UpdateStats totals;
  for (const EdgeUpdate& update : *stream) {
    if (Status st = (*bc)->Apply(update); !st.ok()) {
      std::fprintf(stderr, "update (%u,%u): %s\n", update.u, update.v,
                   st.ToString().c_str());
      return 1;
    }
    totals.Merge((*bc)->last_update_stats());
  }
  const double seconds = stream_timer.Seconds();
  std::printf(
      "applied %zu updates in %.3fs (%.2f ms/update); per-source passes: "
      "%llu skipped (%llu by prefilter, %.1f%%), %llu no-level-change, "
      "%llu structural\n",
      stream->size(), seconds,
      stream->empty() ? 0.0 : 1e3 * seconds / stream->size(),
      static_cast<unsigned long long>(totals.sources_skipped),
      static_cast<unsigned long long>(totals.sources_prefiltered),
      totals.sources_total > 0
          ? 100.0 * static_cast<double>(totals.sources_prefiltered) /
                static_cast<double>(totals.sources_total)
          : 0.0,
      static_cast<unsigned long long>(totals.sources_non_structural),
      static_cast<unsigned long long>(totals.sources_structural));
  std::printf("msbfs kernel: %s; %llu batches, %llu bottom-up levels\n",
              args.msbfs ? "on" : "off",
              static_cast<unsigned long long>(totals.msbfs_batches),
              static_cast<unsigned long long>(totals.bottom_up_levels));
  if ((*bc)->approx()) {
    const ApproxStatus approx = (*bc)->approx_status();
    std::printf(
        "approx: sample epoch %llu, %llu resample rounds, %llu source "
        "swaps, drift %.3f\n",
        static_cast<unsigned long long>(approx.sample_epoch),
        static_cast<unsigned long long>(approx.resample_rounds),
        static_cast<unsigned long long>(approx.source_swaps), approx.drift);
  }
  if (DiskBdStore* disk = (*bc)->disk_store()) {
    PrintStoreFootprint(*disk);
  }
  // EstimatedScores applies the n/k extrapolation in approx mode (and is
  // a plain copy in exact mode), so stdout and --out always speak
  // betweenness units, never raw sampled sums.
  const BcScores published = (*bc)->EstimatedScores();
  PrintTop(published, args.top);
  return MaybeWrite(published, args.out_path);
}

/// The update stream `serve` and `cluster` run: loaded from --stream=file,
/// or generated deterministically from (--updates, --churn, --seed) — the
/// same flags produce the same stream in both commands, which is what
/// makes the cluster-vs-single-process differential smoke meaningful.
/// False (with a message on stderr) on failure.
bool BuildServeStream(const CliArgs& args, const Graph& graph,
                      EdgeStream* stream) {
  if (!args.stream_file.empty()) {
    auto loaded = ReadEdgeStream(args.stream_file);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return false;
    }
    *stream = std::move(*loaded);
  } else {
    // Churn-heavy synthetic stream: a mixed add/remove prefix followed by
    // a same-edge-pool churn tail (--churn fraction of the updates). The
    // tail is generated against the post-prefix graph so every element
    // stays applicable in order.
    if (args.churn < 0.0 || args.churn > 1.0) {
      std::fprintf(stderr, "--churn must be in [0, 1]\n");
      return false;
    }
    Rng rng(args.seed);
    const std::size_t churn_count =
        static_cast<std::size_t>(args.churn * args.serve_updates);
    *stream = MixedUpdateStream(graph, args.serve_updates - churn_count, 0.3,
                                &rng);
    Graph scratch = graph;
    for (const EdgeUpdate& update : *stream) {
      if (!ApplyToGraph(&scratch, update).ok()) {
        std::fprintf(stderr, "internal: generated prefix not applicable\n");
        return false;
      }
    }
    EdgeStream churn = ChurnStream(
        scratch, churn_count,
        std::max<std::size_t>(8, scratch.NumVertices() / 64), &rng);
    stream->insert(stream->end(), churn.begin(), churn.end());
  }
  if (stream->empty()) {
    std::fprintf(stderr, "empty update stream\n");
    return false;
  }
  return true;
}

int CmdServe(const CliArgs& args) {
  auto graph = ReadEdgeList(args.positional[0], args.directed);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  EdgeStream stream;
  if (!BuildServeStream(args, *graph, &stream)) return 1;

  BcServiceOptions options;
  options.queue.capacity = args.queue_cap;
  options.queue.max_batch = args.batch;
  options.queue.batch_latency_budget_seconds = args.budget_ms / 1e3;
  options.queue.coalesce = args.coalesce;
  options.top_k = args.top;
  options.bc.num_threads = args.threads;
  options.bc.prefilter = args.prefilter;
  options.bc.msbfs = args.msbfs;
  options.bc.do_switch_threshold = args.do_switch_threshold;
  options.bc.approx_samples = args.approx_samples;
  options.bc.approx_epsilon = args.epsilon;
  options.bc.approx_seed = args.seed;
  options.durability.wal_dir = args.wal_dir;
  options.durability.checkpoint_dir = args.checkpoint_dir;
  options.durability.wal_fsync_every = args.fsync_every;
  options.durability.checkpoint_every_updates = args.checkpoint_every;
  options.durability.checkpoint_interval_seconds = args.checkpoint_interval;
  options.durability.kill_after_appends = args.kill_after;
  if (args.variant == "mp") {
    options.bc.variant = BcVariant::kMemoryPredecessors;
  } else if (args.variant == "do") {
    options.bc.variant = BcVariant::kOutOfCore;
    options.bc.storage_path =
        args.store_path.empty() ? args.positional[0] + ".bd" : args.store_path;
  } else if (args.variant != "mo") {
    std::fprintf(stderr, "unknown variant %s (mo|mp|do)\n",
                 args.variant.c_str());
    return 1;
  }
  if (!ApplyStorageFlags(args, &options.bc)) return 1;
  WallTimer init_timer;
  auto service = BcService::Create(std::move(*graph), options);
  if (!service.ok()) {
    std::fprintf(stderr, "%s\n", service.status().ToString().c_str());
    return 1;
  }
  std::printf("step 1 done in %.3fs; serving with batch=%zu budget=%.1fms "
              "coalesce=%s readers=%d apply-threads=%d prefilter=%s "
              "msbfs=%s\n",
              init_timer.Seconds(), args.batch, args.budget_ms,
              args.coalesce ? "on" : "off", args.readers, args.threads,
              args.prefilter ? "on" : "off", args.msbfs ? "on" : "off");
  if (!args.fault_schedule.empty()) {
    auto schedule = FaultSchedule::Parse(args.fault_schedule);
    if (!schedule.ok()) {
      std::fprintf(stderr, "%s\n", schedule.status().ToString().c_str());
      return 2;
    }
    // Armed only now, after bring-up, so the schedule's counts target
    // serving I/O, not Create's initial checkpoint. Deliberately leaked:
    // the process-global Io must outlive every later syscall.
    auto* fault_io = new FaultInjectingIo(std::move(*schedule));
    Io::Install(fault_io);
    std::printf("fault injection armed: %s\n",
                fault_io->schedule().ToString().c_str());
  }

  // Reader threads hammer the snapshot head with top-k queries while the
  // writer refreshes — the concurrent scenario the subsystem exists for.
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<bool> reader_ok{true};
  std::vector<std::thread> readers;
  for (int r = 0; r < args.readers; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        const auto snap = (*service)->snapshot();
        if (snap->epoch < last_epoch) reader_ok.store(false);
        last_epoch = snap->epoch;
        if (!snap->top_vertices.empty() &&
            snap->top_vertices.front().second < 0.0) {
          reader_ok.store(false);  // keeps the reads from optimizing away
        }
        reads.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
      }
    });
  }

  WallTimer serve_timer;
  const std::size_t accepted = (*service)->SubmitAll(stream);
  const Status drain_status = (*service)->Drain();
  const double serve_seconds = serve_timer.Seconds();
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  if (!drain_status.ok()) {
    std::fprintf(stderr, "serve failed: %s\n",
                 drain_status.ToString().c_str());
    const Status final_status = (*service)->Stop();
    std::fprintf(stderr, "service health: %s; writer status: %s\n",
                 ServiceHealthName((*service)->health()),
                 final_status.ToString().c_str());
    return 1;
  }
  if (Status st = (*service)->Stop(); !st.ok()) {
    std::fprintf(stderr, "%s\nservice health: %s\n", st.ToString().c_str(),
                 ServiceHealthName((*service)->health()));
    return 1;
  }
  if ((*service)->health() != ServiceHealth::kHealthy) {
    // Degraded or read-only at shutdown is an operator-visible failure
    // even when every accepted update drained: checkpoints were lost or
    // the writer died after the drain target was met.
    std::fprintf(stderr, "service health: %s (%s)\n",
                 ServiceHealthName((*service)->health()),
                 (*service)->last_error().ToString().c_str());
    return 1;
  }
  // Stop() flushed the store; the footprint below reflects the serve run.
  if (DiskBdStore* disk = (*service)->framework()->disk_store()) {
    PrintStoreFootprint(*disk);
  }
  if (!reader_ok.load()) {
    std::fprintf(stderr, "reader observed a non-monotonic epoch\n");
    return 1;
  }

  const ServeMetricsSnapshot metrics = (*service)->metrics();
  std::printf(
      "served %zu/%zu updates in %.3fs (%.0f updates/s): applied %llu, "
      "coalesced %llu (%.1f%%), dropped %llu, %llu publishes\n",
      accepted, stream.size(), serve_seconds,
      serve_seconds > 0 ? accepted / serve_seconds : 0.0,
      static_cast<unsigned long long>(metrics.applied),
      static_cast<unsigned long long>(metrics.coalesced),
      metrics.received > 0 ? 100.0 * metrics.coalesced / metrics.received
                           : 0.0,
      static_cast<unsigned long long>(metrics.dropped),
      static_cast<unsigned long long>(metrics.publishes));
  std::printf(
      "prefilter skipped %llu of %llu source passes (%.1f%%)\n",
      static_cast<unsigned long long>(metrics.sources_prefiltered),
      static_cast<unsigned long long>(metrics.sources_total),
      metrics.sources_total > 0
          ? 100.0 * static_cast<double>(metrics.sources_prefiltered) /
                static_cast<double>(metrics.sources_total)
          : 0.0);
  std::printf("msbfs kernel: %s; %llu batches, %llu bottom-up levels\n",
              args.msbfs ? "on" : "off",
              static_cast<unsigned long long>(metrics.msbfs_batches),
              static_cast<unsigned long long>(metrics.bottom_up_levels));
  if (metrics.approx_samples > 0) {
    std::printf(
        "approx: %llu samples (epoch %llu), %llu resample rounds, %llu "
        "source swaps, drift %.3f — published scores are estimates\n",
        static_cast<unsigned long long>(metrics.approx_samples),
        static_cast<unsigned long long>(metrics.approx_sample_epoch),
        static_cast<unsigned long long>(metrics.approx_resamples),
        static_cast<unsigned long long>(metrics.approx_source_swaps),
        metrics.approx_drift);
  }
  std::printf(
      "latency p50 %.3fms p99 %.3fms; batch apply p50 %.3fms p99 %.3fms; "
      "%llu snapshot reads across %d readers\n",
      1e3 * metrics.p50_update_latency_seconds,
      1e3 * metrics.p99_update_latency_seconds,
      1e3 * metrics.p50_batch_apply_seconds,
      1e3 * metrics.p99_batch_apply_seconds,
      static_cast<unsigned long long>(reads.load()), args.readers);
  if (!args.wal_dir.empty()) {
    std::printf(
        "wal: %llu appends, %.1f KiB, %llu syncs, %llu rotations; "
        "checkpoints: %llu written, %llu skipped, last epoch %llu "
        "(%.3fs background write time)\n",
        static_cast<unsigned long long>(metrics.wal_appends),
        metrics.wal_bytes / 1024.0,
        static_cast<unsigned long long>(metrics.wal_syncs),
        static_cast<unsigned long long>(metrics.wal_rotations),
        static_cast<unsigned long long>(metrics.checkpoints_written),
        static_cast<unsigned long long>(metrics.checkpoints_skipped),
        static_cast<unsigned long long>(metrics.last_checkpoint_epoch),
        metrics.checkpoint_write_seconds);
  }

  const auto snap = (*service)->snapshot();
  std::printf("final epoch %llu at stream position %llu\n",
              static_cast<unsigned long long>(snap->epoch),
              static_cast<unsigned long long>(snap->stream_position));
  PrintTop(BcScores{snap->vbc, snap->ebc}, args.top);

  if (!args.json_path.empty()) {
    std::FILE* f = std::fopen(args.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", metrics.ToJson().c_str());
    std::fclose(f);
    std::printf("wrote %s\n", args.json_path.c_str());
  }
  return 0;
}

int CmdRecover(const CliArgs& args) {
  if (args.wal_dir.empty()) {
    std::fprintf(stderr, "recover requires --wal-dir=DIR\n");
    return 2;
  }
  BcServiceOptions options;
  options.queue.capacity = args.queue_cap;
  options.queue.max_batch = args.batch;
  options.queue.batch_latency_budget_seconds = args.budget_ms / 1e3;
  options.queue.coalesce = args.coalesce;
  options.top_k = args.top;
  options.bc.num_threads = args.threads;
  options.bc.prefilter = args.prefilter;
  options.bc.msbfs = args.msbfs;
  options.bc.do_switch_threshold = args.do_switch_threshold;
  // --approx on recover asserts the deployment being recovered was a
  // sampled one (BcService::Recover fails if the checkpoint disagrees);
  // the sample set itself always comes from the checkpoint blob.
  options.bc.approx_samples = args.approx_samples;
  options.bc.approx_epsilon = args.epsilon;
  options.bc.approx_seed = args.seed;
  // For the out-of-core variant this is where the checkpointed store is
  // installed as the live file (default: <checkpoint-dir>/live.bd).
  options.bc.storage_path = args.store_path;
  if (!ApplyStorageFlags(args, &options.bc)) return 1;
  options.durability.wal_dir = args.wal_dir;
  options.durability.checkpoint_dir = args.checkpoint_dir;
  options.durability.wal_fsync_every = args.fsync_every;
  options.durability.checkpoint_every_updates = args.checkpoint_every;
  options.durability.checkpoint_interval_seconds = args.checkpoint_interval;

  RecoveryInfo info;
  auto service = BcService::Recover(options, &info);
  if (!service.ok()) {
    std::fprintf(stderr, "recover failed: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "recovered from checkpoint epoch %llu (position %llu, variant %s) "
      "in %.3fs\n",
      static_cast<unsigned long long>(info.manifest_epoch),
      static_cast<unsigned long long>(info.manifest_stream_position),
      info.variant.c_str(), info.load_seconds);
  std::printf(
      "replayed %llu wal batches / %llu updates in %.3fs (%llu torn bytes "
      "truncated)\n",
      static_cast<unsigned long long>(info.replayed_batches),
      static_cast<unsigned long long>(info.replayed_updates),
      info.replay_seconds, static_cast<unsigned long long>(info.torn_bytes));
  if (info.poisoned_batches > 0) {
    std::printf(
        "amputated a poisoned final batch (%llu rejected updates) — the "
        "update that killed the previous writer; state is the last "
        "published one\n",
        static_cast<unsigned long long>(info.poisoned_updates));
  }
  const auto snap = (*service)->snapshot();
  std::printf("serving at epoch %llu, stream position %llu\n",
              static_cast<unsigned long long>(snap->epoch),
              static_cast<unsigned long long>(snap->stream_position));
  PrintTop(BcScores{snap->vbc, snap->ebc}, args.top);
  // Stop commits the clean-shutdown checkpoint, so the next start (or the
  // next recover) replays nothing.
  if (Status st = (*service)->Stop(); !st.ok()) {
    std::fprintf(stderr, "%s\nservice health: %s\n", st.ToString().c_str(),
                 ServiceHealthName((*service)->health()));
    return 1;
  }
  if ((*service)->health() != ServiceHealth::kHealthy) {
    std::fprintf(stderr, "service health: %s (%s)\n",
                 ServiceHealthName((*service)->health()),
                 (*service)->last_error().ToString().c_str());
    return 1;
  }
  std::printf("clean-shutdown checkpoint committed at epoch %llu\n",
              static_cast<unsigned long long>(info.recovered_epoch));
  if (const int rc = MaybeWrite(BcScores{snap->vbc, snap->ebc},
                                args.out_path);
      rc != 0) {
    return rc;
  }
  if (!args.json_path.empty()) {
    std::FILE* f = std::fopen(args.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
      return 1;
    }
    std::fprintf(
        f,
        "{\"manifest_epoch\": %llu, \"manifest_stream_position\": %llu, "
        "\"variant\": \"%s\", \"replayed_batches\": %llu, "
        "\"replayed_updates\": %llu, \"torn_bytes\": %llu, "
        "\"poisoned_batches\": %llu, \"poisoned_updates\": %llu, "
        "\"recovered_epoch\": %llu, \"recovered_stream_position\": %llu, "
        "\"load_seconds\": %.9g, \"replay_seconds\": %.9g}\n",
        static_cast<unsigned long long>(info.manifest_epoch),
        static_cast<unsigned long long>(info.manifest_stream_position),
        info.variant.c_str(),
        static_cast<unsigned long long>(info.replayed_batches),
        static_cast<unsigned long long>(info.replayed_updates),
        static_cast<unsigned long long>(info.torn_bytes),
        static_cast<unsigned long long>(info.poisoned_batches),
        static_cast<unsigned long long>(info.poisoned_updates),
        static_cast<unsigned long long>(info.recovered_epoch),
        static_cast<unsigned long long>(info.recovered_stream_position),
        info.load_seconds, info.replay_seconds);
    std::fclose(f);
    std::printf("wrote %s\n", args.json_path.c_str());
  }
  return 0;
}

/// The BcServiceOptions a shard worker runs with, from the same flags
/// `serve` uses (variant, storage engine, durability, threading).
bool BuildShardServiceOptions(const CliArgs& args, BcServiceOptions* options,
                              const std::string& default_store) {
  options->top_k = args.top;
  options->bc.num_threads = args.threads;
  options->bc.prefilter = args.prefilter;
  options->bc.msbfs = args.msbfs;
  options->bc.do_switch_threshold = args.do_switch_threshold;
  if (args.variant == "mp") {
    options->bc.variant = BcVariant::kMemoryPredecessors;
  } else if (args.variant == "do") {
    options->bc.variant = BcVariant::kOutOfCore;
    options->bc.storage_path =
        args.store_path.empty() ? default_store : args.store_path;
  } else if (args.variant != "mo") {
    std::fprintf(stderr, "unknown variant %s (mo|mp|do)\n",
                 args.variant.c_str());
    return false;
  }
  if (args.recover_mode) {
    // Recover takes the variant from the manifest; --store names where
    // the checkpointed BD file is installed (empty = default).
    options->bc.storage_path = args.store_path;
  }
  if (!ApplyStorageFlags(args, &options->bc)) return false;
  options->durability.wal_dir = args.wal_dir;
  options->durability.checkpoint_dir = args.checkpoint_dir;
  options->durability.wal_fsync_every = args.fsync_every;
  options->durability.checkpoint_every_updates = args.checkpoint_every;
  options->durability.checkpoint_interval_seconds = args.checkpoint_interval;
  options->durability.kill_after_appends = args.kill_after;
  return true;
}

int CmdShard(const CliArgs& args) {
  if (args.await_migration) {
    if (args.listen.empty()) {
      std::fprintf(stderr,
                   "shard --await-migration requires --listen=HOST:PORT\n");
      return 2;
    }
  } else if (args.listen.empty() || args.shards_spec.empty()) {
    std::fprintf(stderr,
                 "shard requires --listen=HOST:PORT, --shard-index=I and "
                 "--shards=N\n");
    return 2;
  }
  const std::size_t shard_count =
      args.await_migration ? 1
                           : std::strtoul(args.shards_spec.c_str(), nullptr,
                                          10);
  if (shard_count == 0 || args.shard_index >= shard_count) {
    std::fprintf(stderr, "--shard-index=%zu outside --shards=%s\n",
                 args.shard_index, args.shards_spec.c_str());
    return 2;
  }
  ShardWorkerOptions options;
  options.shard_index = args.shard_index;
  options.shard_count = shard_count;
  const std::string default_store =
      args.await_migration
          ? "joining.bd"
          : (args.positional.empty()
                 ? "shard" + std::to_string(args.shard_index) + ".bd"
                 : args.positional[0] + ".shard" +
                       std::to_string(args.shard_index) + ".bd");
  if (!BuildShardServiceOptions(args, &options.service, default_store)) {
    return 2;
  }
  static TcpTransport transport;
  Result<std::unique_ptr<ShardWorker>> worker =
      Status::InvalidArgument("unreachable");
  if (args.await_migration) {
    // An empty recipient: slot, range, and base state all arrive with the
    // first donor's migration offer (a coordinator --split names us).
    worker = ShardWorker::AwaitMigration(&transport, args.listen, options);
  } else if (args.recover_mode) {
    if (args.wal_dir.empty()) {
      std::fprintf(stderr, "shard --recover requires --wal-dir=DIR\n");
      return 2;
    }
    RecoveryInfo info;
    worker = ShardWorker::Recover(&transport, args.listen, options, &info);
    if (worker.ok()) {
      std::printf(
          "shard %zu/%zu recovered from checkpoint epoch %llu; replayed "
          "%llu wal batches to epoch %llu\n",
          args.shard_index, shard_count,
          static_cast<unsigned long long>(info.manifest_epoch),
          static_cast<unsigned long long>(info.replayed_batches),
          static_cast<unsigned long long>(info.recovered_epoch));
    }
  } else {
    auto graph = ReadEdgeList(args.positional[0], args.directed);
    if (!graph.ok()) {
      std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
      return 1;
    }
    worker = ShardWorker::Start(std::move(*graph), &transport, args.listen,
                                options);
  }
  if (!worker.ok()) {
    std::fprintf(stderr, "shard: %s\n", worker.status().ToString().c_str());
    return 1;
  }
  if (args.await_migration) {
    std::printf("shard awaiting migration on %s\n",
                (*worker)->address().c_str());
  } else {
    const ShardRange range = (*worker)->range();
    std::printf("shard %zu/%zu serving sources [%u, %s) on %s\n",
                args.shard_index, shard_count, range.begin,
                range.open_ended() ? "end"
                                   : std::to_string(range.end).c_str(),
                (*worker)->address().c_str());
  }
  std::fflush(stdout);
  (*worker)->Wait();
  const Status st = (*worker)->Stop();
  if ((*worker)->service() == nullptr) {
    // An await-migration worker stopped before any donor showed up.
    std::printf("shard stopped before any migration arrived\n");
    return st.ok() ? 0 : 1;
  }
  const ServiceHealth health = (*worker)->service()->health();
  std::printf("shard %zu stopped at epoch %llu (health: %s)\n",
              args.shard_index,
              static_cast<unsigned long long>(
                  (*worker)->service()->final_epoch()),
              ServiceHealthName(health));
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  return health == ServiceHealth::kHealthy ? 0 : 1;
}

/// Submits stream[begin, end) to the coordinator, sleeping --pace-ms
/// between updates so a failover smoke can kill the primary mid-stream
/// with work still in flight.
std::size_t SubmitPaced(ClusterCoordinator* coordinator,
                        const EdgeStream& stream, std::size_t begin,
                        std::size_t end, double pace_ms) {
  std::size_t accepted = 0;
  for (std::size_t i = begin; i < end; ++i) {
    if (!coordinator->Submit(stream[i])) break;
    ++accepted;
    if (pace_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(pace_ms));
    }
  }
  return accepted;
}

/// The shared tail of every cluster run (primary or post-takeover
/// standby): per-shard status, the final snapshot + top-K block the smoke
/// byte-compares, optional score/JSON dumps, and the health-based exit
/// code.
int PrintClusterTail(ClusterCoordinator* coordinator, const CliArgs& args) {
  for (const ShardStatus& shard : coordinator->shard_status()) {
    std::printf(
        "  shard %s: sources [%u, %s), epoch %llu, health %s, "
        "%llu reconnects, %llu resent batches\n",
        shard.address.c_str(), shard.range.begin,
        shard.range.open_ended() ? "end"
                                 : std::to_string(shard.range.end).c_str(),
        static_cast<unsigned long long>(shard.epoch),
        ServiceHealthName(shard.health),
        static_cast<unsigned long long>(shard.reconnects),
        static_cast<unsigned long long>(shard.resent_batches));
  }

  const auto snap = coordinator->snapshot();
  std::printf("final epoch %llu at stream position %llu\n",
              static_cast<unsigned long long>(snap->epoch),
              static_cast<unsigned long long>(snap->stream_position));
  PrintTop(BcScores{snap->vbc, snap->ebc}, args.top);
  if (const int rc = MaybeWrite(BcScores{snap->vbc, snap->ebc}, args.out_path);
      rc != 0) {
    return rc;
  }
  if (!args.json_path.empty()) {
    std::FILE* f = std::fopen(args.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", coordinator->metrics().ToJson().c_str());
    std::fclose(f);
    std::printf("wrote %s\n", args.json_path.c_str());
  }
  if (coordinator->health() != ServiceHealth::kHealthy) {
    std::fprintf(stderr, "coordinator health: %s (%s)\n",
                 ServiceHealthName(coordinator->health()),
                 coordinator->last_error().ToString().c_str());
    return 1;
  }
  return 0;
}

/// The warm-standby flow of `cluster --standby-of`: tail the primary's
/// feed, and either exit quietly when the primary stops cleanly or take
/// over — resume the deterministic stream at the replicated position and
/// finish it to the same final block a never-failed run prints.
int CmdClusterStandby(const CliArgs& args,
                      const std::vector<std::string>& addresses, Graph graph,
                      const EdgeStream& stream,
                      const ClusterCoordinatorOptions& options) {
  static TcpTransport transport;
  auto standby = ClusterCoordinator::Standby(std::move(graph), addresses,
                                             &transport, args.standby_of,
                                             options);
  if (!standby.ok()) {
    std::fprintf(stderr, "standby bring-up: %s\n",
                 standby.status().ToString().c_str());
    return 1;
  }
  std::printf("standby tailing %s\n", args.standby_of.c_str());
  std::fflush(stdout);

  bool announced = false;
  while ((*standby)->role() == ClusterCoordinator::Role::kStandbyTailing) {
    if (!announced && (*standby)->standby_attached()) {
      announced = true;
      std::printf("standby attached to primary (epoch %llu)\n",
                  static_cast<unsigned long long>((*standby)->final_epoch()));
      std::fflush(stdout);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const Status active = (*standby)->WaitUntilActive(60.0);
  if ((*standby)->role() == ClusterCoordinator::Role::kStandbyFinished) {
    std::printf("primary stopped cleanly; standby exiting\n");
    return 0;
  }
  if (!active.ok()) {
    std::fprintf(stderr, "standby failed: %s\n", active.ToString().c_str());
    return 1;
  }

  const ServeMetricsSnapshot at_takeover = (*standby)->metrics();
  std::printf("standby took over at epoch %llu (gap %.0f ms)\n",
              static_cast<unsigned long long>((*standby)->final_epoch()),
              1e3 * at_takeover.failover_gap_seconds);
  std::fflush(stdout);

  // The stream is deterministic (same seed/file as the primary), so the
  // replicated position tells us exactly where to resume.
  const std::size_t resume =
      static_cast<std::size_t>((*standby)->final_position());
  if (resume > stream.size()) {
    std::fprintf(stderr,
                 "replicated position %zu is beyond the %zu-update stream — "
                 "the standby was started with different stream flags than "
                 "the primary\n",
                 resume, stream.size());
    return 1;
  }
  SubmitPaced(standby->get(), stream, resume, stream.size(), args.pace_ms);
  if (Status drained = (*standby)->Drain(); !drained.ok()) {
    std::fprintf(stderr, "standby drain: %s\n", drained.ToString().c_str());
    (void)(*standby)->Stop();
    return 1;
  }
  const int rc = PrintClusterTail(standby->get(), args);
  if (Status stopped = (*standby)->Stop(); !stopped.ok()) {
    std::fprintf(stderr, "%s\n", stopped.ToString().c_str());
    return 1;
  }
  return rc;
}

int CmdCluster(const CliArgs& args) {
  if (args.shards_spec.empty()) {
    std::fprintf(stderr, "cluster requires --shards=HOST:PORT,HOST:PORT,...\n");
    return 2;
  }
  std::vector<std::string> addresses;
  for (std::size_t start = 0; start <= args.shards_spec.size();) {
    std::size_t comma = args.shards_spec.find(',', start);
    if (comma == std::string::npos) comma = args.shards_spec.size();
    if (comma > start) {
      addresses.push_back(args.shards_spec.substr(start, comma - start));
    }
    start = comma + 1;
  }
  if (addresses.empty()) {
    std::fprintf(stderr, "no shard addresses in --shards\n");
    return 2;
  }
  auto graph = ReadEdgeList(args.positional[0], args.directed);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  EdgeStream stream;
  if (!BuildServeStream(args, *graph, &stream)) return 1;

  ClusterCoordinatorOptions options;
  options.queue.capacity = args.queue_cap;
  options.queue.max_batch = args.batch;
  options.queue.batch_latency_budget_seconds = args.budget_ms / 1e3;
  options.queue.coalesce = args.coalesce;
  options.top_k = args.top;
  options.shard_retry_seconds = args.retry_seconds;
  options.standby_listen = args.standby_listen;
  if (!args.standby_of.empty()) {
    return CmdClusterStandby(args, addresses, std::move(*graph), stream,
                             options);
  }

  static TcpTransport transport;
  WallTimer connect_timer;
  auto coordinator = ClusterCoordinator::Connect(std::move(*graph), addresses,
                                                 &transport, options);
  if (!coordinator.ok()) {
    std::fprintf(stderr, "cluster bring-up: %s\n",
                 coordinator.status().ToString().c_str());
    return 1;
  }
  std::printf("cluster up in %.3fs: %zu shards, epoch %llu\n",
              connect_timer.Seconds(), (*coordinator)->num_shards(),
              static_cast<unsigned long long>((*coordinator)->final_epoch()));
  if (!(*coordinator)->standby_address().empty()) {
    std::printf("standby feed on %s\n",
                (*coordinator)->standby_address().c_str());
  }
  std::fflush(stdout);

  // A requested live rebalance cuts the stream in half so the split/merge
  // runs with updates still flowing on both sides of the commit.
  const bool rebalance = args.split_index >= 0 || args.merge_index >= 0;
  const std::size_t first_leg = rebalance ? stream.size() / 2 : stream.size();
  WallTimer serve_timer;
  std::size_t accepted =
      SubmitPaced(coordinator->get(), stream, 0, first_leg, args.pace_ms);
  if (args.split_index >= 0) {
    if (args.split_recipient.empty()) {
      std::fprintf(stderr, "--split requires --split-recipient=HOST:PORT\n");
      (void)(*coordinator)->Stop();
      return 2;
    }
    const Status split = (*coordinator)->SplitShard(
        static_cast<std::size_t>(args.split_index), args.split_recipient);
    if (!split.ok()) {
      std::fprintf(stderr, "split failed: %s\n", split.ToString().c_str());
      (void)(*coordinator)->Stop();
      return 1;
    }
    std::printf("split shard %ld: now %zu shards (map v%llu)\n",
                args.split_index, (*coordinator)->num_shards(),
                static_cast<unsigned long long>(
                    (*coordinator)->metrics().shard_map_version));
    std::fflush(stdout);
  }
  if (args.merge_index >= 0) {
    const Status merged = (*coordinator)->MergeShards(
        static_cast<std::size_t>(args.merge_index));
    if (!merged.ok()) {
      std::fprintf(stderr, "merge failed: %s\n", merged.ToString().c_str());
      (void)(*coordinator)->Stop();
      return 1;
    }
    std::printf("merged shard %ld into %ld: now %zu shards (map v%llu)\n",
                args.merge_index + 1, args.merge_index,
                (*coordinator)->num_shards(),
                static_cast<unsigned long long>(
                    (*coordinator)->metrics().shard_map_version));
    std::fflush(stdout);
  }
  accepted += SubmitPaced(coordinator->get(), stream, first_leg,
                          stream.size(), args.pace_ms);
  const Status drain_status = (*coordinator)->Drain();
  const double serve_seconds = serve_timer.Seconds();
  if (!drain_status.ok()) {
    std::fprintf(stderr, "cluster failed: %s\n",
                 drain_status.ToString().c_str());
    (void)(*coordinator)->Stop();
    std::fprintf(stderr, "coordinator health: %s\n",
                 ServiceHealthName((*coordinator)->health()));
    return 1;
  }

  const ServeMetricsSnapshot metrics = (*coordinator)->metrics();
  std::printf(
      "replicated %zu/%zu updates in %.3fs (%.0f updates/s): applied %llu, "
      "coalesced %llu, %llu publishes\n",
      accepted, stream.size(), serve_seconds,
      serve_seconds > 0 ? accepted / serve_seconds : 0.0,
      static_cast<unsigned long long>(metrics.applied),
      static_cast<unsigned long long>(metrics.coalesced),
      static_cast<unsigned long long>(metrics.publishes));
  std::printf(
      "latency p50 %.3fms p99 %.3fms; batch replicate+merge p50 %.3fms "
      "p99 %.3fms\n",
      1e3 * metrics.p50_update_latency_seconds,
      1e3 * metrics.p99_update_latency_seconds,
      1e3 * metrics.p50_batch_apply_seconds,
      1e3 * metrics.p99_batch_apply_seconds);
  const int rc = PrintClusterTail(coordinator->get(), args);
  const Status stop_status = (*coordinator)->Stop();
  if (!stop_status.ok()) {
    std::fprintf(stderr, "%s\n", stop_status.ToString().c_str());
    return 1;
  }
  return rc;
}

int CmdStats(const CliArgs& args) {
  auto graph = ReadEdgeList(args.positional[0], args.directed);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  Rng rng(1);
  const std::size_t n = graph->NumVertices();
  const GraphStats stats = ComputeGraphStats(
      *graph, &rng, n > 20000 ? 8000 : 0, n > 2000 ? 200 : 0);
  std::printf("|V| %zu  |E| %zu  AD %.2f  CC %.4f  ED %.2f\n", stats.vertices,
              stats.edges, stats.average_degree, stats.clustering,
              stats.effective_diameter);
  if (!args.store_path.empty()) {
    auto store = DiskBdStore::Open(args.store_path);
    if (!store.ok()) {
      std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
      return 1;
    }
    PrintStoreFootprint(**store);
  }
  return 0;
}

int CmdGenerate(const CliArgs& args) {
  const std::string& kind = args.positional[0];
  const std::size_t n = std::strtoul(args.positional[1].c_str(), nullptr, 10);
  if (n == 0) {
    std::fprintf(stderr, "vertex count must be positive\n");
    return 1;
  }
  Rng rng(args.seed);
  Graph graph;
  ArrivalProcess arrivals;
  if (const DatasetProfile* profile = FindProfile(kind)) {
    graph = BuildProfileGraph(*profile, n, &rng);
    arrivals = profile->arrivals;
  } else if (kind == "social") {
    graph = GenerateSocialGraph(n, SocialGraphParams::PaperDefaults(), &rng);
  } else if (kind == "tree") {
    graph = GenerateRandomTree(n, &rng);
  } else {
    std::fprintf(stderr,
                 "unknown kind '%s' (profile name, 'social', or 'tree')\n",
                 kind.c_str());
    return 1;
  }
  const std::string out =
      args.out_path.empty() ? kind + ".txt" : args.out_path;
  if (Status st = WriteEdgeList(graph, out); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %zu vertices, %zu edges\n", out.c_str(),
              graph.NumVertices(), graph.NumEdges());
  if (args.stream_edges > 0) {
    EdgeStream stream = RandomAdditionStream(graph, args.stream_edges, &rng);
    StampArrivalTimes(&stream, arrivals, 0.0, &rng);
    const std::string stream_out = args.stream_out_path.empty()
                                       ? kind + ".stream.txt"
                                       : args.stream_out_path;
    if (Status st = WriteEdgeStream(stream, stream_out); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s: %zu timestamped additions\n", stream_out.c_str(),
                stream.size());
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: sobc_cli scores <graph> [--directed] [--out=f.tsv] "
               "[--top=K]\n"
               "       sobc_cli stream <graph> <stream> [--directed] "
               "[--variant=mo|mp|do] [--store=f.bd] "
               "[--store-codec=raw|delta] [--cache-mb=M] [--no-prefetch] "
               "[--out=f.tsv] [--top=K] [--threads=T] [--no-prefilter] "
               "[--no-msbfs] [--do-switch-threshold=A] "
               "[--approx=K --epsilon=E]\n"
               "       sobc_cli stats <graph> [--directed] [--store=f.bd]\n"
               "       sobc_cli generate <profile|social|tree> <vertices> "
               "[--seed=S] [--out=g.txt] [--stream=N] [--stream-out=s.txt]\n"
               "       sobc_cli serve <graph> [--directed] "
               "[--stream=file|--updates=N] [--churn=F] [--readers=R] "
               "[--batch=B] [--budget-ms=M] [--queue-cap=C] [--no-coalesce] "
               "[--threads=T] [--no-prefilter] [--no-msbfs] "
               "[--do-switch-threshold=A] [--approx=K --epsilon=E] "
               "[--variant=mo|mp|do] "
               "[--store=f.bd] [--store-codec=raw|delta] [--cache-mb=M] "
               "[--no-prefetch] [--top=K] [--seed=S] [--json=report.json] "
               "[--wal-dir=D] [--checkpoint-dir=D] [--checkpoint-every=N] "
               "[--checkpoint-interval=S] [--fsync=N] "
               "[--fault-schedule=SPEC]\n"
               "       sobc_cli recover --wal-dir=D [--checkpoint-dir=D] "
               "[--store=live.bd] [--threads=T] [--no-prefilter] "
               "[--cache-mb=M] [--no-prefetch] [--approx=K] [--top=K] "
               "[--out=f.tsv] [--json=report.json]\n"
               "       sobc_cli shard <graph> --listen=H:P --shard-index=I "
               "--shards=N [--directed] [--variant=mo|mp|do] [--store=f.bd] "
               "[--threads=T] [--no-prefilter] [--wal-dir=D] "
               "[--checkpoint-dir=D] [--checkpoint-every=N] "
               "[--checkpoint-interval=S] [--fsync=N] [--kill-after=N]\n"
               "       sobc_cli shard --recover --wal-dir=D --listen=H:P "
               "--shard-index=I --shards=N [--checkpoint-dir=D] "
               "[--store=live.bd] [--threads=T]\n"
               "       sobc_cli shard --await-migration --listen=H:P "
               "[--variant=mo|mp|do] [--store=f.bd] [--threads=T] "
               "[--wal-dir=D] [--checkpoint-dir=D]\n"
               "       sobc_cli cluster <graph> --shards=H:P,H:P,... "
               "[--directed] [--stream=file|--updates=N] [--churn=F] "
               "[--batch=B] [--budget-ms=M] [--queue-cap=C] [--no-coalesce] "
               "[--top=K] [--seed=S] [--retry-seconds=S] [--pace-ms=M] "
               "[--standby-listen=H:P] [--split=I --split-recipient=H:P] "
               "[--merge=I] [--out=f.tsv] [--json=report.json]\n"
               "       sobc_cli cluster <graph> --shards=H:P,H:P,... "
               "--standby-of=H:P [same stream flags as the primary]\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  CliArgs args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  const std::string command = argv[1];
  if (command == "scores" && args.positional.size() == 1) {
    return CmdScores(args);
  }
  if (command == "stream" && args.positional.size() == 2) {
    return CmdStream(args);
  }
  if (command == "stats" && args.positional.size() == 1) {
    return CmdStats(args);
  }
  if (command == "serve" && args.positional.size() == 1) {
    return CmdServe(args);
  }
  if (command == "recover" && args.positional.empty()) {
    return CmdRecover(args);
  }
  if (command == "shard" &&
      (args.positional.size() == 1 ||
       ((args.recover_mode || args.await_migration) &&
        args.positional.empty()))) {
    return CmdShard(args);
  }
  if (command == "cluster" && args.positional.size() == 1) {
    return CmdCluster(args);
  }
  if (command == "generate" && args.positional.size() == 2) {
    return CmdGenerate(args);
  }
  return Usage();
}

}  // namespace
}  // namespace sobc

int main(int argc, char** argv) { return sobc::Main(argc, argv); }
