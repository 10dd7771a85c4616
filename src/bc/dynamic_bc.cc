#include "bc/dynamic_bc.h"

#include <algorithm>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "bc/bd_store_disk.h"
#include "bc/score_io.h"
#include "common/timer.h"
#include "parallel/score_reduce.h"

namespace sobc {

namespace {

Result<int> ResolveThreads(int requested) {
  if (requested < 0) {
    return Status::InvalidArgument("num_threads must be >= 0 (0 = hardware)");
  }
  if (requested > 0) return requested;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return hw > 0 ? hw : 2;
}

DiskBdStoreOptions MakeDiskOptions(const DynamicBcOptions& options) {
  DiskBdStoreOptions disk;
  disk.codec = options.store_codec;
  disk.cache_bytes = options.cache_mb << 20;
  disk.prefetch = options.prefetch;
  return disk;
}

/// Sources an out-of-core lane hints ahead of the slab it is about to
/// compute — the double-buffer depth of the prefetch pipeline.
constexpr std::size_t kPrefetchSlab = 128;

/// Sample-state sidecar written beside the score file by Checkpoint() in
/// approx mode (the CLI resume path; the service path carries the blob in
/// its checkpoint manifest instead).
constexpr char kApproxSidecarSuffix[] = ".approx";

MsBfsOptions MakeMsBfsOptions(const DynamicBcOptions& options) {
  MsBfsOptions msbfs;
  msbfs.direction_optimizing = options.do_switch_threshold > 0.0;
  if (msbfs.direction_optimizing) msbfs.alpha = options.do_switch_threshold;
  return msbfs;
}

}  // namespace

double ParallelUpdateTiming::CumulativeSeconds() const {
  double total = reduce_seconds;
  for (const double s : lane_seconds) total += s;
  return total;
}

double ParallelUpdateTiming::ModeledWallSeconds() const {
  double slowest = 0.0;
  for (const double s : lane_seconds) slowest = std::max(slowest, s);
  return slowest + reduce_seconds;
}

void DynamicBc::InitLanes(PredMode pred_mode) {
  const auto w = static_cast<std::size_t>(options_.num_threads);
  const MsBfsOptions msbfs = MakeMsBfsOptions(options_);
  lanes_.resize(w);
  for (std::size_t i = 0; i < w; ++i) {
    Lane& lane = lanes_[i];
    lane.engine = IncrementalEngine(pred_mode);
    lane.engine.ConfigureMsBfs(options_.msbfs, msbfs);
    lane.prefilter.ConfigureMsBfs(options_.msbfs, msbfs);
    if (i > 0) lane.replica = std::make_unique<Graph>(graph_);
  }
  if (w > 1) pool_ = std::make_unique<ThreadPool>(w - 1);
}

Result<std::unique_ptr<DynamicBc>> DynamicBc::Create(
    Graph graph, const DynamicBcOptions& options) {
  const std::size_t n = graph.NumVertices();
  std::unique_ptr<BdStore> store;
  PredMode pred_mode = PredMode::kScanNeighbors;
  const Result<int> threads = ResolveThreads(options.num_threads);
  if (!threads.ok()) return threads.status();
  if (options.source_end != kInvalidVertex &&
      options.source_end < options.source_begin) {
    return Status::InvalidArgument("source_end precedes source_begin");
  }
  // The sampled mode owns the whole source universe by construction: its
  // estimates are scaled sums over a uniform draw from every vertex, which
  // a scoped partition would bias. Cluster shards therefore stay exact.
  std::unique_ptr<OnlineApproxState> approx;
  // A restore blob alone activates the mode (the recovery path knows it is
  // rebuilding a sampled deployment from the blob, not from flag values).
  if (options.approx_samples > 0 || !options.approx_restore_blob.empty()) {
    if (options.source_begin != 0 || options.source_end != kInvalidVertex) {
      return Status::InvalidArgument(
          "sampled approximation requires the full source range; scoped "
          "shards must run exact");
    }
    if (!options.approx_restore_blob.empty()) {
      auto restored = OnlineApproxState::Restore(options.approx_restore_blob);
      if (!restored.ok()) return restored.status();
      approx = std::move(*restored);
      for (const VertexId id : approx->samples().ids()) {
        if (id >= n) {
          return Status::FailedPrecondition(
              "restored sample set references vertex " + std::to_string(id) +
              " beyond the graph");
        }
      }
      approx->mutable_samples()->GrowPopulation(n);
    } else {
      OnlineApproxOptions aopts;
      aopts.num_samples = options.approx_samples;
      aopts.epsilon = options.approx_epsilon;
      aopts.seed = options.approx_seed;
      aopts.max_swaps_per_batch = options.approx_max_swaps_per_batch;
      auto fresh = OnlineApproxState::Fresh(aopts, n);
      if (!fresh.ok()) return fresh.status();
      approx = std::move(*fresh);
    }
  }
  // In approx mode the backing store holds one record per sample slot,
  // [0, k) — the adapter translates global sampled ids to slots — so the
  // BD footprint is O(k * n) wherever exact mode pays O(n^2).
  const VertexId store_begin =
      approx ? 0 : options.source_begin;
  const VertexId store_limit =
      approx ? static_cast<VertexId>(approx->samples().size())
             : options.source_end;
  switch (options.variant) {
    case BcVariant::kMemoryPredecessors:
      pred_mode = PredMode::kPredecessorLists;
      store = std::make_unique<InMemoryBdStore>(pred_mode, store_begin,
                                                store_limit);
      break;
    case BcVariant::kMemory:
      store = std::make_unique<InMemoryBdStore>(pred_mode, store_begin,
                                                store_limit);
      break;
    case BcVariant::kOutOfCore: {
      if (options.storage_path.empty()) {
        return Status::InvalidArgument(
            "kOutOfCore variant needs a storage_path");
      }
      auto disk = DiskBdStore::Create(
          options.storage_path, n, options.vertex_capacity, store_begin,
          store_limit, MakeDiskOptions(options));
      if (!disk.ok()) return disk.status();
      store = std::move(*disk);
      break;
    }
  }
  DynamicBcOptions resolved = options;
  resolved.num_threads = *threads;
  auto bc = std::unique_ptr<DynamicBc>(
      new DynamicBc(std::move(graph), std::move(store), resolved));
  if (approx != nullptr) {
    bc->approx_ = std::move(approx);
    bc->disk_root_ = dynamic_cast<DiskBdStore*>(bc->store_.get());
    bc->store_ = std::make_unique<SampledBdStore>(
        std::move(bc->store_), &bc->approx_->samples());
  } else {
    bc->disk_root_ = dynamic_cast<DiskBdStore*>(bc->store_.get());
  }
  bc->InitLanes(pred_mode);
  BrandesOptions brandes;
  brandes.pred_mode = pred_mode;
  brandes.use_msbfs = options.msbfs;
  brandes.msbfs = MakeMsBfsOptions(options);
  if (bc->approx_ != nullptr) {
    SOBC_RETURN_NOT_OK(bc->InitializeSampled(brandes));
  } else {
    SOBC_RETURN_NOT_OK(InitializeFromScratch(
        bc->graph_, brandes, bc->store_.get(), &bc->scores_,
        options.source_begin, options.source_end));
  }
  return bc;
}

Status DynamicBc::InitializeSampled(const BrandesOptions& brandes) {
  // Step 1 of the sampled mode: one sweep per sampled source, accumulated
  // unscaled into the maintained sums. Sample ids are scattered across the
  // id space, so this runs the per-source kernel rather than the
  // contiguous-range MS-BFS batcher — k sweeps, not n.
  const std::size_t n = graph_.NumVertices();
  scores_.vbc.assign(n, 0.0);
  scores_.ebc.clear();
  for (const VertexId s : approx_->samples().ids()) {
    SourceBcData data;
    BrandesSingleSource(graph_, s, brandes, &data, &scores_);
    SOBC_RETURN_NOT_OK(store_->PutInitial(s, std::move(data)));
  }
  return Status::OK();
}

Result<std::unique_ptr<DynamicBc>> DynamicBc::Resume(
    Graph graph, const DynamicBcOptions& options,
    const std::string& scores_path) {
  if (options.variant != BcVariant::kOutOfCore) {
    return Status::InvalidArgument("Resume requires the out-of-core variant");
  }
  const Result<int> threads = ResolveThreads(options.num_threads);
  if (!threads.ok()) return threads.status();
  auto disk = DiskBdStore::Open(options.storage_path, MakeDiskOptions(options));
  if (!disk.ok()) return disk.status();
  if ((*disk)->num_vertices() != graph.NumVertices()) {
    return Status::FailedPrecondition(
        "store holds " + std::to_string((*disk)->num_vertices()) +
        " vertices but the graph has " +
        std::to_string(graph.NumVertices()) +
        "; pass the graph saved at checkpoint time");
  }
  auto scores = ReadScores(scores_path);
  if (!scores.ok()) return scores.status();
  if (scores->vbc.size() != graph.NumVertices()) {
    return Status::FailedPrecondition(
        "score file does not match the graph's vertex count");
  }
  // Sample state travels beside the scores: the service recovery path
  // hands the checkpoint's blob through the options; the CLI path reads
  // the sidecar Checkpoint() wrote. Its presence decides the mode — an
  // approx deployment can only resume approx (the store holds k slots,
  // not n records).
  std::string approx_blob = options.approx_restore_blob;
  if (approx_blob.empty()) {
    std::ifstream sidecar(scores_path + kApproxSidecarSuffix,
                          std::ios::binary);
    if (sidecar) {
      std::ostringstream buffer;
      buffer << sidecar.rdbuf();
      approx_blob = buffer.str();
    }
  }
  if (approx_blob.empty() && options.approx_samples > 0) {
    return Status::FailedPrecondition(
        "no sample state found beside the score file; the checkpoint was "
        "written by an exact deployment");
  }
  std::unique_ptr<OnlineApproxState> approx;
  if (!approx_blob.empty()) {
    auto restored = OnlineApproxState::Restore(approx_blob);
    if (!restored.ok()) return restored.status();
    approx = std::move(*restored);
  }
  DynamicBcOptions resolved = options;
  resolved.num_threads = *threads;
  if (approx != nullptr) {
    const auto k = static_cast<VertexId>(approx->samples().size());
    if ((*disk)->source_begin() != 0 || (*disk)->source_limit() != k) {
      return Status::FailedPrecondition(
          "store slot range does not match the checkpointed sample set");
    }
    for (const VertexId id : approx->samples().ids()) {
      if (id >= graph.NumVertices()) {
        return Status::FailedPrecondition(
            "restored sample set references vertex " + std::to_string(id) +
            " beyond the graph");
      }
    }
    approx->mutable_samples()->GrowPopulation(graph.NumVertices());
    resolved.source_begin = 0;
    resolved.source_end = kInvalidVertex;
    resolved.approx_samples = approx->samples().size();
    resolved.approx_epsilon = approx->options().epsilon;
    resolved.approx_seed = approx->options().seed;
    resolved.approx_max_swaps_per_batch =
        approx->options().max_swaps_per_batch;
  } else {
    // The store header is authoritative for the partition: a resumed shard
    // must scope its source loop exactly as the deployment that wrote the
    // file did, whatever the caller passed.
    resolved.source_begin = (*disk)->source_begin();
    resolved.source_end = (*disk)->source_limit();
  }
  auto bc = std::unique_ptr<DynamicBc>(
      new DynamicBc(std::move(graph), std::move(*disk), resolved));
  bc->disk_root_ = dynamic_cast<DiskBdStore*>(bc->store_.get());
  if (approx != nullptr) {
    bc->approx_ = std::move(approx);
    bc->store_ = std::make_unique<SampledBdStore>(
        std::move(bc->store_), &bc->approx_->samples());
  }
  bc->InitLanes(PredMode::kScanNeighbors);
  bc->scores_ = std::move(*scores);
  return bc;
}

Status DynamicBc::Checkpoint(const std::string& scores_path) {
  SOBC_RETURN_NOT_OK(WriteScores(scores_, scores_path));
  if (approx_ != nullptr) {
    // The sidecar makes the sample state part of every score checkpoint;
    // Resume refuses approx stores without it, so the pair stays atomic
    // enough for the CLI path (the service path carries the blob inside
    // its manifest-committed checkpoint instead).
    const std::string path = scores_path + kApproxSidecarSuffix;
    std::ofstream sidecar(path, std::ios::binary | std::ios::trunc);
    const std::string blob = approx_->Serialize();
    sidecar.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    if (!sidecar.good()) {
      return Status::IOError("cannot write sample state sidecar: " + path);
    }
    sidecar.close();
  }
  if (disk_root_ == nullptr) {
    return Status::FailedPrecondition(
        "Checkpoint is only durable with the out-of-core variant");
  }
  return store_->Flush();
}

Status DynamicBc::RestoreScores(BcScores scores) {
  if (scores.vbc.size() != graph_.NumVertices()) {
    return Status::InvalidArgument(
        "restored scores cover " + std::to_string(scores.vbc.size()) +
        " vertices but the graph has " +
        std::to_string(graph_.NumVertices()));
  }
  scores_ = std::move(scores);
  return Status::OK();
}

std::uint64_t DynamicBc::MsBfsScratchAllocations() const {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) {
    total += lane.engine.msbfs_scratch().allocation_events() +
             lane.prefilter.scratch().allocation_events();
  }
  return total;
}

Status DynamicBc::Apply(const EdgeUpdate& update) {
  return ApplyBatch({&update, 1});
}

Status DynamicBc::ApplyAll(const EdgeStream& stream) {
  for (const EdgeUpdate& update : stream) {
    SOBC_RETURN_NOT_OK(Apply(update));
  }
  return Status::OK();
}

Status DynamicBc::ApplyBatch(std::span<const EdgeUpdate> batch) {
  last_stats_ = UpdateStats{};
  if (batch.empty()) return Status::OK();
  // Pay the growth once, sized by the whole batch: records of vertices a
  // later update introduces sit untouched (Grow initializes them as
  // isolated sources) until their AddEdge brings them into the source loop
  // — indistinguishable from growing immediately before that update.
  std::size_t needed = graph_.NumVertices();
  for (const EdgeUpdate& update : batch) {
    const std::size_t top =
        static_cast<std::size_t>(std::max(update.u, update.v)) + 1;
    needed = std::max(needed, top);
  }
  if (needed > store_->num_vertices()) {
    // Grow quiesces the prefetcher, swaps the file if capacity demands it,
    // and retires every cached record via the cache generation — the
    // root and lane handles all revalidate on their next read, so
    // no handle needs telling (the old InvalidateCache protocol).
    SOBC_RETURN_NOT_OK(store_->Grow(needed));
  }
  if (scores_.vbc.size() < needed) scores_.vbc.resize(needed, 0.0);
  SOBC_RETURN_NOT_OK(PrepareLanes(graph_.NumVertices()));
  last_timing_.lane_seconds.assign(lanes_.size(), 0.0);
  // Source-major: every lane walks the whole batch over its own share, so
  // the batch is the only synchronisation point.
  if (pool_ != nullptr) {
    for (std::size_t i = 1; i < lanes_.size(); ++i) {
      pool_->Submit([this, i, batch, needed] { RunLane(i, batch, needed); });
    }
  }
  RunLane(0, batch, needed);
  if (pool_ != nullptr) pool_->Wait();
  // Lane 0 wrote scores_ directly; the other partials fold into it in one
  // tree reduce. Partials of a failed batch still land: the updates before
  // the first failure are applied on every lane.
  std::vector<BcScores*> partials = {&scores_};
  const Lane* failed = nullptr;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    Lane& lane = lanes_[i];
    if (i > 0) partials.push_back(&lane.partial);
    last_stats_.Merge(lane.stats);
    if (!lane.status.ok() &&
        (failed == nullptr || lane.failed_at < failed->failed_at)) {
      failed = &lane;
    }
  }
  last_timing_.reduce_seconds = TreeReduceScores(pool_.get(), partials);
  if (failed != nullptr) return failed->status;
  // A net-removed edge's ebc entry holds only floating-point residue.
  for (const EdgeUpdate& update : batch) {
    if (update.op == EdgeOp::kRemove && !graph_.HasEdge(update.u, update.v)) {
      scores_.ebc.erase(graph_.MakeKey(update.u, update.v));
    }
  }
  if (approx_ != nullptr) {
    // Drift accounting + at most max_swaps_per_batch resampling swaps,
    // after the batch's repairs landed (swap sweeps must run on the
    // current graph for the subtract-then-replace arithmetic to hold).
    SOBC_RETURN_NOT_OK(approx_->AfterBatch(graph_, last_stats_,
                                           SweepOptions(), store_.get(),
                                           &scores_));
  }
  return Status::OK();
}

BrandesOptions DynamicBc::SweepOptions() const {
  BrandesOptions brandes;
  brandes.pred_mode = lanes_[0].engine.pred_mode();
  brandes.use_msbfs = options_.msbfs;
  brandes.msbfs = MakeMsBfsOptions(options_);
  return brandes;
}

BcScores DynamicBc::EstimatedScores() const {
  BcScores estimates = scores_;
  const double scale = approx_scale();
  if (scale != 1.0) {
    for (double& value : estimates.vbc) value *= scale;
    for (auto& [key, value] : estimates.ebc) value *= scale;
  }
  return estimates;
}

Status DynamicBc::PrepareLanes(std::size_t n) {
  const std::size_t w = lanes_.size();
  // Equal contiguous shares of the owned sources as of the batch start,
  // split the way ShardMap splits shards; the last lane keeps the owned
  // range's end, so vertices the batch grows have an owner. In approx
  // mode the shares are sample slots.
  std::uint64_t first = 0;
  std::uint64_t count = 0;
  VertexId last_end = options_.source_end;
  if (approx_ != nullptr) {
    count = approx_->samples().size();
    last_end = static_cast<VertexId>(count);
  } else {
    first = options_.source_begin;
    const std::uint64_t limit =
        options_.source_end == kInvalidVertex
            ? n
            : std::min<std::uint64_t>(options_.source_end, n);
    count = limit > first ? limit - first : 0;
  }
  for (std::size_t i = 0; i < w; ++i) {
    Lane& lane = lanes_[i];
    lane.begin = static_cast<VertexId>(first + i * count / w);
    lane.end = i + 1 == w ? last_end
                          : static_cast<VertexId>(first + (i + 1) * count / w);
    if (i == 0 || disk_root_ == nullptr) continue;
    if (lane.disk_store == nullptr ||
        lane.disk_store->num_vertices() != store_->num_vertices()) {
      // Fresh or stale (a Grow changed the layout or swapped the backing
      // file): reopen onto the current file. OpenShared keeps every lane
      // on the root's record cache and epochs, which is what lets handles
      // read each other's writes without any invalidation call. In approx
      // mode each lane gets its own slot-translating adapter over its
      // handle (the adapter is stateless past the shared SampleSet).
      auto handle = disk_root_->OpenShared();
      if (!handle.ok()) return handle.status();
      if (approx_ != nullptr) {
        lane.disk_store = std::make_unique<SampledBdStore>(
            std::move(*handle), &approx_->samples());
      } else {
        lane.disk_store = std::move(*handle);
      }
    }
  }
  return Status::OK();
}

void DynamicBc::RunLane(std::size_t i, std::span<const EdgeUpdate> batch,
                        std::size_t needed) {
  Lane& lane = lanes_[i];
  Graph& graph = i == 0 ? graph_ : *lane.replica;
  // CPU time, not wall time: with more lanes than cores a lane's wall time
  // includes waiting for a core, which a machine of its own would not.
  const double start = ThreadCpuSeconds();
  lane.stats = UpdateStats{};
  lane.status = Status::OK();
  lane.failed_at = batch.size();
  if (i > 0) {
    lane.partial.vbc.assign(needed, 0.0);
    lane.partial.ebc.clear();
  }
  for (std::size_t k = 0; k < batch.size(); ++k) {
    // A rejected update is rejected identically on every lane (the graphs
    // are equal), so all of them stop on the same update.
    if (Status st = ApplyToGraph(&graph, batch[k]); !st.ok()) {
      if (lane.status.ok()) {
        lane.status = std::move(st);
        lane.failed_at = k;
      }
      break;
    }
    // After a store error the lane still steps its graph, keeping every
    // lane's graph equal to graph_.
    if (!lane.status.ok()) continue;
    if (Status st = ApplyLaneUpdate(i, graph, batch[k]); !st.ok()) {
      lane.status = std::move(st);
      lane.failed_at = k;
    }
  }
  last_timing_.lane_seconds[i] = ThreadCpuSeconds() - start;
}

Status DynamicBc::ApplyLaneUpdate(std::size_t i, const Graph& graph,
                                  const EdgeUpdate& update) {
  Lane& lane = lanes_[i];
  const std::size_t n = graph.NumVertices();
  std::vector<VertexId>& worklist = lane.worklist;
  // The lane's share as of this update: a source range clipped to the
  // vertices that exist, or a span of sample slots in approx mode (whose
  // prefilter scan covers every vertex). Sources outside it belong to other
  // lanes (or, on a scoped framework, to other shards) and never enter this
  // lane's worklist or stats.
  std::span<const VertexId> samples;
  VertexId lo = 0;
  auto hi = static_cast<VertexId>(n);
  if (approx_ != nullptr) {
    samples = approx_->samples().ids().subspan(lane.begin,
                                               lane.end - lane.begin);
  } else {
    lo = static_cast<VertexId>(std::min<std::size_t>(lane.begin, n));
    hi = static_cast<VertexId>(std::min<std::size_t>(lane.end, n));
  }
  const std::size_t owned = approx_ != nullptr ? samples.size() : hi - lo;
  if (options_.prefilter) {
    SOBC_RETURN_NOT_OK(lane.prefilter.Build(graph, update, lo, hi, &worklist));
    if (i == 0) {
      // Every lane runs the same 2-lane endpoint fold; it counts once per
      // update toward the kernel totals, beside the engine's batches.
      lane.stats.msbfs_batches += lane.prefilter.last_stats().batches;
      lane.stats.bottom_up_levels +=
          lane.prefilter.last_stats().bottom_up_levels;
    }
    if (approx_ != nullptr) {
      FilterToSlots(approx_->samples(), lane.begin, lane.end, &worklist);
    }
    // Prefiltered sources are skipped sources that never paid a BD probe;
    // they count into the same totals so the skipped/non-structural/
    // structural partition of sources_total still adds up (to the owned
    // partition size, not the full vertex count, on a shard).
    const auto skipped = static_cast<std::uint64_t>(owned - worklist.size());
    lane.stats.sources_total += skipped;
    lane.stats.sources_skipped += skipped;
    lane.stats.sources_prefiltered += skipped;
  } else if (approx_ != nullptr) {
    // Without the prefilter the engine probes BD[s] per source, so the
    // worklist is simply the lane's sampled sources, in stable slot order.
    worklist.assign(samples.begin(), samples.end());
  } else {
    worklist.resize(owned);
    std::iota(worklist.begin(), worklist.end(), lo);
  }
  BcScores* scores = i == 0 ? &scores_ : &lane.partial;
  BdStore* store = i == 0 || lane.disk_store == nullptr
                       ? store_.get()
                       : lane.disk_store.get();
  // Double-buffered out-of-core drain: hint the next slab before computing
  // the current one, so the background reader decodes records while the
  // engine repairs the previous slab. Hints go through store_ (the root
  // owns the prefetcher; in approx mode its adapter translates sampled ids
  // to slots first).
  const std::span<const VertexId> all = worklist;
  const bool prefetch = disk_root_ != nullptr &&
                        disk_root_->prefetch_enabled() &&
                        all.size() > kPrefetchSlab;
  const std::size_t slab = prefetch ? kPrefetchSlab : all.size();
  if (prefetch) store_->Hint(all.first(slab));
  for (std::size_t off = 0; off < all.size(); off += slab) {
    const std::size_t count = std::min(slab, all.size() - off);
    const std::size_t next = off + count;
    if (prefetch && next < all.size()) {
      store_->Hint(all.subspan(next, std::min(slab, all.size() - next)));
    }
    SOBC_RETURN_NOT_OK(lane.engine.ApplyUpdateForSources(
        graph, update, all.subspan(off, count), store, scores, &lane.stats));
  }
  return Status::OK();
}

double DynamicBc::EdgeScore(VertexId u, VertexId v) const {
  const auto it = scores_.ebc.find(graph_.MakeKey(u, v));
  return it == scores_.ebc.end() ? 0.0 : it->second;
}

}  // namespace sobc
