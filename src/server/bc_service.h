#ifndef SOBC_SERVER_BC_SERVICE_H_
#define SOBC_SERVER_BC_SERVICE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "bc/dynamic_bc.h"
#include "common/status.h"
#include "graph/edge_stream.h"
#include "graph/graph.h"
#include "server/score_snapshot.h"
#include "server/serve_metrics.h"
#include "server/update_queue.h"
#include "server/writer_pipeline.h"
#include "storage/checkpoint.h"
#include "storage/wal.h"

namespace sobc {

/// Durability of the serving layer (DESIGN.md §11). With a wal_dir set,
/// the writer thread logs every drained batch to a CRC-framed write-ahead
/// log *before* applying it, and periodically commits checkpoints (graph +
/// scores + flushed BD store for the out-of-core variant) so a crashed or
/// restarted deployment resumes from the last checkpoint plus a WAL-tail
/// replay instead of an O(nm) from-scratch recompute.
struct DurabilityOptions {
  /// Directory of the write-ahead log. Empty disables durability (the
  /// PR-2 behavior: all serving state dies with the process).
  std::string wal_dir;
  /// Checkpoint directory; defaults to <wal_dir>/checkpoints.
  std::string checkpoint_dir;
  /// fdatasync the log every N appended batches. 1 (default) makes every
  /// accepted batch power-loss durable before it is applied; 0 leaves
  /// syncing to the OS (process crashes still lose nothing — the page
  /// cache survives them — but power loss can cost the unsynced tail).
  std::size_t wal_fsync_every = 1;
  /// Commit a checkpoint once this many raw stream updates were consumed
  /// since the last one (0 = no op-count trigger).
  std::size_t checkpoint_every_updates = 0;
  /// Commit a checkpoint once this much wall time passed since the last
  /// one (0 = no interval trigger). Either trigger alone suffices.
  double checkpoint_interval_seconds = 0.0;
  /// Checkpoints kept on disk; older ones are pruned after each commit.
  std::size_t retain_checkpoints = 2;
  /// Crash-injection hook for tests and the CI recovery smoke: the writer
  /// calls _exit(137) right after this many WAL appends (0 = off) —
  /// a hard kill at the most adversarial point, mid-stream with the apply
  /// for the logged batch never run.
  std::size_t kill_after_appends = 0;

  bool enabled() const { return !wal_dir.empty(); }
};

/// What BcService::Recover found and did — surfaced by `sobc_cli recover`
/// and asserted by the crash-injection tests.
struct RecoveryInfo {
  /// Checkpoint the recovery started from.
  std::uint64_t manifest_epoch = 0;
  std::uint64_t manifest_stream_position = 0;
  std::string variant;
  /// WAL tail replayed on top of it.
  std::uint64_t replayed_batches = 0;
  std::uint64_t replayed_updates = 0;
  /// Bytes discarded from a torn final segment (crash mid-append).
  std::uint64_t torn_bytes = 0;
  /// A poisoned final record — a batch the engine deterministically
  /// rejects (bad client update, e.g. adding an existing edge), which is
  /// what killed the live writer — was amputated from the log. Its
  /// effects were never published, so the recovered state is still
  /// exactly the live run's last published state.
  std::uint64_t poisoned_batches = 0;
  std::uint64_t poisoned_updates = 0;
  /// Serving state after replay: the epoch/position the uninterrupted run
  /// had published for this prefix.
  std::uint64_t recovered_epoch = 0;
  std::uint64_t recovered_stream_position = 0;
  double load_seconds = 0.0;
  double replay_seconds = 0.0;
};

/// Everything a serving deployment is configured with: the framework
/// underneath, the queue in front of it, snapshot shape, and durability.
struct BcServiceOptions {
  /// Storage variant and traversal options of the underlying framework.
  DynamicBcOptions bc;
  /// Queue depth, batch size, latency budget, coalescing, drop policy.
  /// `directed` is overwritten from the graph.
  UpdateQueueOptions queue;
  /// Leaderboard length precomputed into every snapshot.
  std::size_t top_k = 16;
  /// Copy the full edge-betweenness map into each snapshot (EdgeScore
  /// queries at any key). Disable to publish scores + leaderboards only,
  /// which trims per-publish copying on edge-dense graphs.
  bool snapshot_edge_scores = true;
  /// Write-ahead log + checkpointing; off by default.
  DurabilityOptions durability;
  /// Watchdog: flag the writer as stalled when one batch (WAL append +
  /// apply + publish) exceeds this many seconds, so Drain() reports the
  /// hang instead of blocking forever. 0 disables the watchdog.
  double writer_stall_timeout_seconds = 0.0;
  /// Test hook, called by the writer thread at the start of every batch
  /// (before the WAL append). Lets fault tests deterministically stall or
  /// observe the writer; never set in production.
  std::function<void()> writer_batch_hook;
  /// Shard-worker (cluster) mode: no internal writer or watchdog thread.
  /// Batches arrive pre-coalesced from the coordinator connection through
  /// ApplyReplicatedBatch, which runs the exact writer-loop sequence
  /// (log-before-apply, publish, checkpoint policy) on the caller's
  /// thread. Submit rejects — the coordinator's queue is the only
  /// coalescing point, so every shard sees the same batch boundaries.
  bool replicated = false;
  /// Replicated mode only: the absolute epoch/position this service's
  /// initial state corresponds to. A freshly sharded deployment starts at
  /// 0; a migration recipient joins at the donor's cut (DESIGN.md §13),
  /// so its first ApplyReplicatedBatch epoch is replicated_base_epoch+1.
  /// Create publishes the initial snapshot at this epoch and, when
  /// durable, starts the WAL at epoch+1.
  std::uint64_t replicated_base_epoch = 0;
  std::uint64_t replicated_base_position = 0;
};

/// The concurrent serving layer over the online framework (DESIGN.md §8):
/// one writer thread owns the graph, the BD store, and the incremental
/// engine, draining coalesced batches from a bounded update queue; readers
/// on any thread query immutable epoch-stamped snapshots and never block
/// on a running refresh.
///
///   auto service = BcService::Create(std::move(graph), {});
///   service->Submit({u, v, EdgeOp::kAdd, now});        // any thread
///   auto snap = service->snapshot();                   // any thread
///   for (auto& [vertex, score] : snap->top_vertices) ...
///
/// Lifecycle: Create runs Step 1 (Brandes) synchronously and publishes the
/// epoch-0 snapshot before the writer starts. Stop() (or destruction)
/// closes the queue, drains what was accepted, and joins the writer. After
/// a writer error the service stops accepting updates and Drain/Stop
/// return the failure.
class BcService : private ApplyBackend, private WriterPipeline {
 public:
  static Result<std::unique_ptr<BcService>> Create(
      Graph graph, const BcServiceOptions& options);

  /// Rebuilds a durable deployment after a crash or restart: loads the
  /// newest usable checkpoint from options.durability, replays the WAL
  /// tail through the same batch-apply machinery the live writer uses
  /// (truncating a torn final frame), and resumes serving at the epoch and
  /// stream position the uninterrupted run had published. The storage
  /// variant comes from the manifest; tuning fields of options.bc
  /// (threads, prefilter, cache, codec is header-ruled) still apply. For
  /// the out-of-core variant the checkpointed store is byte-copied to
  /// options.bc.storage_path (default <checkpoint_dir>/live.bd), which
  /// makes serial-apply recovery bit-identical to the uninterrupted run.
  static Result<std::unique_ptr<BcService>> Recover(
      const BcServiceOptions& options, RecoveryInfo* info = nullptr);

  ~BcService();

  BcService(const BcService&) = delete;
  BcService& operator=(const BcService&) = delete;

  /// The writer pipeline's surface (writer_pipeline.h): Submit (refused in
  /// replicated mode, where no writer runs), SubmitAll, Drain, the latest
  /// snapshot(), final_epoch()/final_position(), submitted(), and the
  /// health ladder's health()/last_error().
  using WriterPipeline::Drain;
  using WriterPipeline::final_epoch;
  using WriterPipeline::final_position;
  using WriterPipeline::health;
  using WriterPipeline::last_error;
  using WriterPipeline::snapshot;
  using WriterPipeline::Submit;
  using WriterPipeline::SubmitAll;
  using WriterPipeline::submitted;

  /// Stops accepting updates, drains accepted ones, joins the writer, and
  /// commits the clean-shutdown checkpoint. Idempotent; returns the
  /// writer's terminal status.
  Status Stop();

  /// Crash-shaped stop for tests: shuts the service down WITHOUT the
  /// clean-shutdown checkpoint, so the next Recover exercises the real
  /// checkpoint + WAL-tail path exactly as after a process kill (the WAL
  /// already holds every applied batch — log-before-apply).
  void Halt();

  /// Replicated-mode apply (options.replicated only; one caller thread —
  /// the shard's coordinator session). Runs one coalesced batch through
  /// the writer pipeline's batch step under the coordinator's epoch
  /// numbering: `epoch` must be exactly final_epoch()+1 and
  /// `stream_position` the coordinator's raw-update position after the
  /// batch. Exactly-once under retries: a duplicate delivery (epoch <= the
  /// current epoch) is a silent OK no-op, a gap is FailedPrecondition (the
  /// coordinator must backfill from its replay window), and any WAL/apply
  /// failure takes the shard ReadOnly and sticks as last_error().
  Status ApplyReplicatedBatch(std::uint64_t epoch,
                              std::uint64_t stream_position,
                              std::span<const EdgeUpdate> updates);

  /// Replicated mode only (same single-caller discipline as
  /// ApplyReplicatedBatch): re-scopes this shard's owned source range to
  /// [begin, end) at the CURRENT epoch — the commit step of a live range
  /// migration (DESIGN.md §13). Because exact maintenance keeps the
  /// framework's state equal to a from-scratch build on the current graph,
  /// the rescope reruns scoped Step 1 over a copy of that graph, which IS
  /// the exact partial for the new range at this epoch; the snapshot is
  /// republished at the unchanged epoch/position so no publication ever
  /// mixes two maps. When durable, a post-rescope checkpoint is forced so
  /// recovery rebuilds the new scope (its failure degrades, not fails).
  /// Unimplemented for the out-of-core variant — re-bootstrap such a
  /// shard from a checkpoint instead.
  Status RescopeSourceRange(VertexId begin, VertexId end);

  /// The pipeline's metrics plus the WAL and checkpoint writers' stats.
  ServeMetricsSnapshot metrics() const;

  /// Blocks until no checkpoint job is in flight and returns the first
  /// background checkpoint error, if any. Observers (benches, operators
  /// snapshotting the checkpoint dir) call this for a stable directory;
  /// later batches may trigger new checkpoints as usual. No-op without
  /// durability.
  Status QuiesceCheckpoints() {
    return checkpointer_ != nullptr ? checkpointer_->WaitIdle()
                                    : Status::OK();
  }

  /// The underlying framework — for post-mortem inspection (store
  /// footprint, checkpoint). Safe to touch only after Stop() returned;
  /// while the service runs, the writer thread owns it. In replicated
  /// mode there is no writer thread: the single ApplyReplicatedBatch
  /// caller (the shard's session loop) owns it and may read it between
  /// applies — that is how a shard serializes its score partials.
  DynamicBc* framework() { return bc_.get(); }

  /// The resolved options this service runs with. Recover rewrites the
  /// variant and source partition from the manifest; a restarted shard
  /// reads its recovered partition back from here.
  const BcServiceOptions& options() const { return options_; }

 private:
  BcService(std::unique_ptr<DynamicBc> bc, const BcServiceOptions& options);

  /// Shared tail of Create and Recover: publishes the starting epoch,
  /// starts durability (WAL segments from epoch+1) and, outside
  /// replicated mode, the writer.
  Status BringUp(std::uint64_t epoch, std::uint64_t position,
                 bool initial_checkpoint);

  // The local ApplyBackend: log-before-apply to the WAL, the engine's
  // batched apply, and the checkpoint policy after each publish.
  Status Log(std::uint64_t epoch, std::uint64_t position,
             std::span<const EdgeUpdate> updates) override;
  Status Apply(std::uint64_t epoch, std::uint64_t position,
               std::span<const EdgeUpdate> updates,
               UpdateStats* counters) override;
  std::shared_ptr<const ScoreSnapshot> Snapshot(
      std::uint64_t epoch, std::uint64_t position) override;
  Status AfterPublish(std::uint64_t epoch, std::uint64_t position,
                      std::uint64_t consumed) override;

  /// Durability plumbing shared by Create and Recover: checkpoint writer +
  /// WAL writer, with the first WAL segment starting at `next_epoch`.
  /// With `initial_checkpoint` (Create only) it first refuses a reused
  /// checkpoint dir, then commits the base-epoch checkpoint BEFORE the
  /// first WAL segment exists — the crash-safe bring-up order.
  Status StartDurability(std::uint64_t next_epoch, bool initial_checkpoint);
  /// Captures graph/scores (and, out of core, a flushed byte copy of the
  /// BD store) into a checkpoint job — the only part of checkpointing the
  /// writer thread pays for; serialization runs on the checkpoint thread.
  Result<CheckpointWriter::Job> CaptureCheckpointJob(std::uint64_t epoch,
                                                     std::uint64_t position);
  /// Evaluates the op-count/interval policy and hands a captured job to
  /// the background writer (writer thread only).
  Status MaybeCheckpoint(std::uint64_t epoch, std::uint64_t position);

  BcServiceOptions options_;
  /// Owned by the writer thread once it starts; other threads must only
  /// touch it again after the writer has been joined.
  std::unique_ptr<DynamicBc> bc_;

  // Durability state (null / zero when options_.durability is off).
  // wal_ is owned by the writer thread once it starts; checkpointer_ has
  // its own thread and is touched from the writer (Enqueue) and Stop
  // (WriteNow/WaitIdle) only after the writer joined. Checkpoints are
  // suspended once the health ladder leaves Healthy.
  std::unique_ptr<WalWriter> wal_;
  std::unique_ptr<CheckpointWriter> checkpointer_;
  /// Raw updates consumed since the last checkpoint trigger + its stamp
  /// (writer thread only).
  std::uint64_t updates_since_checkpoint_ = 0;
  double last_checkpoint_stamp_ = 0.0;
  bool final_checkpoint_done_ = false;  // Stop() idempotence
};

}  // namespace sobc

#endif  // SOBC_SERVER_BC_SERVICE_H_
