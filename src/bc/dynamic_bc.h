#ifndef SOBC_BC_DYNAMIC_BC_H_
#define SOBC_BC_DYNAMIC_BC_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bc/bc_types.h"
#include "bc/bd_store.h"
#include "bc/brandes.h"
#include "bc/incremental.h"
#include "bc/online_approx.h"
#include "bc/source_prefilter.h"
#include "common/status.h"
#include "graph/edge_stream.h"
#include "graph/graph.h"
#include "parallel/thread_pool.h"
#include "storage/record_codec.h"

namespace sobc {

class DiskBdStore;

/// Execution variants benchmarked in the paper (Section 6.1, Fig. 5).
enum class BcVariant {
  kMemoryPredecessors,  // MP: in memory, with predecessor lists
  kMemory,              // MO: in memory, neighbor scan
  kOutOfCore,           // DO: on disk, neighbor scan
};

/// Per-deployment configuration of the framework: which storage variant
/// runs, how its out-of-core engine is tuned, and how each update's
/// source loop is driven (CSR, prefilter, lane count).
struct DynamicBcOptions {
  BcVariant variant = BcVariant::kMemory;
  /// Backing file for the kOutOfCore variant.
  std::string storage_path;
  /// Extra vertex capacity reserved in the out-of-core file so new vertices
  /// do not force a rebuild.
  std::size_t vertex_capacity = 0;
  /// Record codec of the out-of-core store file: kRaw is the paper's
  /// fixed-width layout, kDelta the compressed one (storage/record_codec.h).
  /// Recorded in the file header at Create; Resume follows the header.
  RecordCodecId store_codec = RecordCodecId::kRaw;
  /// Shared hot-record cache budget of the out-of-core store, in MiB; every
  /// lane handle of the file shares it (0 disables caching).
  std::size_t cache_mb = 64;
  /// Decode upcoming dirty-source records into the shared cache on a
  /// background thread, overlapping read-ahead with compute (out-of-core
  /// only; see storage/prefetcher.h).
  bool prefetch = true;
  /// Traverse via the graph's packed CsrView snapshot (default). The
  /// adjacency-list path remains selectable so the CSR win stays
  /// measurable (bench/micro_core.cc).
  bool use_csr = true;
  /// Lanes of the source-major apply (DESIGN.md §9): each lane owns an
  /// equal contiguous share of the sources and steps a private graph
  /// replica through every update of a batch; the lanes' score partials
  /// reduce once per batch. 1 keeps the loop on the calling thread; 0
  /// resolves to the hardware concurrency; negative is InvalidArgument.
  /// Lanes may outnumber cores: each lane's time is its own thread's CPU
  /// time (last_timing()). Results are identical to the serial loop up to
  /// floating-point summation order.
  int num_threads = 1;
  /// Skip unaffected sources via two endpoint BFS traversals before the
  /// source loop (Proposition 3.1 evaluated graph-side; see
  /// source_prefilter.h). Off = probe BD[s] per source, the paper's
  /// original discipline — kept selectable so the win stays measurable.
  bool prefilter = true;
  /// Drive the traversal hot paths — the endpoint prefilter, the engine's
  /// structural re-BFS batches, and the Step-1 rebuild — through the
  /// bit-parallel MS-BFS kernel (graph/msbfs.h, DESIGN.md §14). Off =
  /// per-source scalar BFS everywhere, the paper's original discipline.
  bool msbfs = true;
  /// Direction-optimizing switch threshold (Beamer's alpha): a BFS level
  /// expands bottom-up once frontier_edges * alpha exceeds the unexplored
  /// edge count. <= 0 pins the kernel top-down.
  double do_switch_threshold = 14.0;
  /// Contiguous source partition [source_begin, source_end) this framework
  /// owns — one shard's share of the cluster embodiment (Section 5.2). The
  /// default owns every source. A scoped framework stores BD[s] and
  /// accumulates score *partials* only for its owned sources; summing the
  /// partials across a covering set of shards reproduces the full scores.
  /// source_end == kInvalidVertex keeps the partition open-ended, adopting
  /// every source the graph grows (give this to the last shard so new
  /// vertex ids always have an owner).
  VertexId source_begin = 0;
  VertexId source_end = kInvalidVertex;
  /// Online sampled approximation (DESIGN.md §15): maintain BD[s] for only
  /// this many seeded uniformly sampled sources through the exact
  /// incremental machinery and publish n/k-scaled estimates, with drift
  /// tracking and adaptive resampling. 0 (the default) = exact mode.
  /// Incompatible with a scoped source partition — shards stay exact.
  std::size_t approx_samples = 0;
  /// Accuracy target epsilon in (0, 1) of the approx mode: the drift
  /// ledger starts a resampling round when its staleness estimate reaches
  /// this bound (see OnlineApproxState).
  double approx_epsilon = 0.1;
  /// Seed of the approx sampling schedule (initial draw + replacements).
  std::uint64_t approx_seed = 42;
  /// Source swaps a resampling round performs per applied batch (approx
  /// mode; the latency-amortization knob).
  std::size_t approx_max_swaps_per_batch = 4;
  /// Serialized OnlineApproxState to restore instead of drawing fresh —
  /// the recovery path hands the checkpointed sample state through here.
  /// Empty = fresh draw from approx_seed.
  std::string approx_restore_blob;
};

/// Timing of one Apply/ApplyBatch in the paper's cluster accounting
/// (DESIGN.md substitution 3). Each lane is one of the paper's mappers:
/// its seconds are the thread CPU time it spent stepping its graph,
/// prefiltering and repairing its share of the batch, which is what the
/// lane would take on a machine of its own however many lanes share this
/// host's cores.
///   cumulative   = sum over lanes + reduce — what Figure 6 compares
///                  against single-machine Brandes;
///   modeled wall = slowest lane + reduce — wall clock of a p-machine
///                  cluster, which drives Figures 7-8 and Table 5.
struct ParallelUpdateTiming {
  std::vector<double> lane_seconds;
  /// Critical path of the tree reduce that folds the lane partials, on the
  /// same thread CPU clock (TreeReduceScores).
  double reduce_seconds = 0.0;

  double CumulativeSeconds() const;
  double ModeledWallSeconds() const;
};

/// The full framework of Figure 1: Step 1 runs Brandes once to build BD[s]
/// for every source; Step 2 applies stream updates one edge at a time,
/// keeping vertex and edge betweenness exact after every update.
///
/// Typical use:
///
///   auto bc = DynamicBc::Create(graph, {});
///   for (const EdgeUpdate& e : stream) bc->Apply(e);
///   double score = bc->vbc()[v];
///
/// With options.num_threads = W > 1 every Apply/ApplyBatch runs
/// source-major: W lanes, each owning 1/W of the sources, walk the whole
/// batch in parallel (per update: prefilter over the lane's share, then the
/// engine over its dirty sources), and the lane partials are reduced once
/// when the batch ends. The batch, not the update, is the unit of
/// synchronisation. Each lane is one mapper of the paper's MapReduce
/// embodiment (Section 5, Fig. 4); last_timing() reports them per lane.
/// The caller-facing contract is unchanged and all public methods must
/// still be called from one thread at a time.
class DynamicBc {
 public:
  /// Builds the framework over `graph` (Step 1, O(nm)).
  static Result<std::unique_ptr<DynamicBc>> Create(
      Graph graph, const DynamicBcOptions& options);

  /// Reopens a checkpointed out-of-core deployment: the BD structures come
  /// from the existing store file at options.storage_path and the scores
  /// from `scores_path`, skipping the O(nm) Step 1 entirely. `graph` must
  /// be the graph state at checkpoint time (persist it with
  /// WriteEdgeList). Only valid for BcVariant::kOutOfCore.
  static Result<std::unique_ptr<DynamicBc>> Resume(
      Graph graph, const DynamicBcOptions& options,
      const std::string& scores_path);

  /// Persists the current scores (binary sidecar) and flushes the store,
  /// making Resume possible after a restart. The graph itself is
  /// checkpointed separately with WriteEdgeList.
  Status Checkpoint(const std::string& scores_path);

  /// Replaces the maintained scores wholesale. The recovery path of the
  /// in-memory variants installs checkpointed scores over a freshly
  /// initialized framework: Create rebuilt the BD structures with Brandes,
  /// but the scores must be the checkpoint's (they already include every
  /// pre-checkpoint update). vbc must match the graph's vertex count.
  Status RestoreScores(BcScores scores);

  /// Applies one edge addition or removal (Step 2). New endpoint ids grow
  /// the vertex set automatically, entering with zero betweenness.
  Status Apply(const EdgeUpdate& update);

  /// Applies a whole stream in order.
  Status ApplyAll(const EdgeStream& stream);

  /// Applies one (typically coalesced) batch in a single call — the unit
  /// the serving layer's writer thread drains from its update queue.
  /// Score-equivalent to calling Apply per element, but store growth,
  /// score resizing, and engine scratch sizing are paid once per batch.
  /// last_update_stats() afterwards covers the whole batch. On a rejected
  /// update (e.g. removing an absent edge) the graph and scores reflect
  /// exactly the updates before it; after a store error the BD state is
  /// not trustworthy and the deployment must recover from a checkpoint.
  Status ApplyBatch(std::span<const EdgeUpdate> batch);

  const Graph& graph() const { return graph_; }
  const std::vector<double>& vbc() const { return scores_.vbc; }
  const EbcMap& ebc() const { return scores_.ebc; }
  const BcScores& scores() const { return scores_; }

  /// Edge betweenness of (u, v); zero when the edge is absent.
  double EdgeScore(VertexId u, VertexId v) const;

  /// Counters for the most recent Apply call.
  const UpdateStats& last_update_stats() const { return last_stats_; }

  /// Apply lanes in use (1 when serial).
  int num_threads() const { return static_cast<int>(lanes_.size()); }

  /// Per-lane and reduce timing of the most recent Apply/ApplyBatch.
  const ParallelUpdateTiming& last_timing() const { return last_timing_; }

  /// The graph lane `i` traverses: graph() for lane 0, the lane's private
  /// replica otherwise. Test hook for the replica contract — every replica
  /// equals graph() between batches and is patched, never rebuilt.
  const Graph& lane_graph(std::size_t i) const {
    return i == 0 ? graph_ : *lanes_[i].replica;
  }

  /// Capacity-growth events summed over every MS-BFS scratch the framework
  /// owns (each lane's engine and prefilter). Test hook for the reuse
  /// guarantee: once the lanes are warmed this must stop moving —
  /// steady-state traversal allocates nothing.
  std::uint64_t MsBfsScratchAllocations() const;

  BdStore* store() { return store_.get(); }

  /// The out-of-core storage engine behind this framework, or null for the
  /// in-memory variants. In approx mode store() is the slot-translating
  /// sample adapter; this reaches through it to the actual disk store
  /// (footprint reports, checkpoint byte copies).
  DiskBdStore* disk_store() { return disk_root_; }

  /// Whether this framework maintains sampled estimates instead of exact
  /// scores.
  bool approx() const { return approx_ != nullptr; }
  /// Estimate scale factor n/k applied at publish time (1.0 in exact mode).
  double approx_scale() const {
    return approx_ == nullptr ? 1.0 : approx_->scale(graph_.NumVertices());
  }
  /// The current sampled source ids (empty in exact mode). Slot order is
  /// stable across updates; entries change only via resampling swaps.
  std::span<const VertexId> sample_sources() const {
    return approx_ == nullptr ? std::span<const VertexId>()
                              : approx_->samples().ids();
  }
  /// Progress gauges of the approximation (zeros in exact mode).
  ApproxStatus approx_status() const {
    return approx_ == nullptr ? ApproxStatus{} : approx_->status();
  }
  /// Serialized sample state for the checkpoint protocol ("" exact).
  std::string SerializeApproxState() const {
    return approx_ == nullptr ? std::string() : approx_->Serialize();
  }

  /// The published estimates: scores() scaled by n/k. In exact mode this
  /// is a plain copy of scores(). The maintained sums themselves stay
  /// unscaled so incremental repairs and checkpoint round trips never
  /// compound a changing scale into them.
  BcScores EstimatedScores() const;

 private:
  /// One lane of the source-major apply. Lane 0 steps graph_ and writes
  /// scores_ and store_ directly, so the serial framework is the one-lane
  /// case; lanes >= 1 own a graph replica (O(m), patched in O(degree) like
  /// graph_, never rebuilt), a score partial, and for the out-of-core
  /// variant a private store handle. BD columns of distinct sources never
  /// alias, so lanes run without a single lock.
  struct Lane {
    std::unique_ptr<Graph> replica;       // lanes >= 1
    std::unique_ptr<BdStore> disk_store;  // lanes >= 1, kOutOfCore only
    IncrementalEngine engine;
    SourcePrefilter prefilter;
    BcScores partial;                     // lanes >= 1
    std::vector<VertexId> worklist;
    UpdateStats stats;
    /// This batch's share: source ids [begin, end) in exact mode (end may be
    /// kInvalidVertex on the last lane, adopting grown vertices), sample
    /// slots [begin, end) in approx mode.
    VertexId begin = 0;
    VertexId end = 0;
    /// First failure of this batch and the batch index it hit.
    Status status;
    std::size_t failed_at = 0;
  };

  DynamicBc(Graph graph, std::unique_ptr<BdStore> store,
            const DynamicBcOptions& options)
      : options_(options),
        graph_(std::move(graph)),
        store_(std::move(store)) {}

  /// Builds the lanes (replicas, engines, pool) and applies the MS-BFS
  /// configuration to every engine and prefilter. Called once the graph's
  /// CsrView exists, so replicas copy it instead of building their own.
  void InitLanes(PredMode pred_mode);
  /// Step 1 of the approx mode: sweeps each sampled source into the
  /// maintained sums and its BD slot.
  Status InitializeSampled(const BrandesOptions& brandes);
  /// Brandes configuration matching the engine, for resampling sweeps.
  BrandesOptions SweepOptions() const;
  /// Splits the owned sources across the lanes for a batch whose graph
  /// starts with `n` vertices, and reopens lane store handles a Grow made
  /// stale.
  Status PrepareLanes(std::size_t n);
  /// Steps lane `i` through the batch, its partial zeroed to `needed`
  /// vertices first; records the lane's first failure and its CPU seconds.
  void RunLane(std::size_t i, std::span<const EdgeUpdate> batch,
               std::size_t needed);
  /// One update's prefilter and engine pass over lane `i`'s share; `graph`
  /// already reflects the update.
  Status ApplyLaneUpdate(std::size_t i, const Graph& graph,
                         const EdgeUpdate& update);

  DynamicBcOptions options_;
  Graph graph_;
  ParallelUpdateTiming last_timing_;
  /// Sample bookkeeping + drift ledger of the approx mode; null when
  /// exact. Declared before store_: the sampled store adapter holds a
  /// pointer into the SampleSet, so the set must outlive it.
  std::unique_ptr<OnlineApproxState> approx_;
  std::unique_ptr<BdStore> store_;
  /// store_ downcast when the variant is out-of-core (hint/prefetch entry
  /// points live on the disk store); null otherwise.
  DiskBdStore* disk_root_ = nullptr;
  BcScores scores_;
  UpdateStats last_stats_;

  std::vector<Lane> lanes_;
  /// Runs lanes 1..W-1 while the calling thread runs lane 0; null when
  /// serial.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace sobc

#endif  // SOBC_BC_DYNAMIC_BC_H_
