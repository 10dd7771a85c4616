#ifndef SOBC_CLUSTER_COORDINATOR_H_
#define SOBC_CLUSTER_COORDINATOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bc/incremental.h"
#include "cluster/shard_map.h"
#include "cluster/transport.h"
#include "cluster/wire.h"
#include "common/status.h"
#include "graph/edge_stream.h"
#include "graph/graph.h"
#include "parallel/thread_pool.h"
#include "server/score_snapshot.h"
#include "server/serve_metrics.h"
#include "server/update_queue.h"
#include "server/writer_pipeline.h"

namespace sobc {

/// Tuning of the replicating coordinator: the queue in front of it,
/// snapshot shape (mirroring BcServiceOptions), and the wire-level
/// failure-handling budgets.
struct ClusterCoordinatorOptions {
  /// Queue depth, batching, coalescing — the cluster's single coalescing
  /// point, so every shard applies identical batch boundaries.
  /// `directed` is overwritten from the graph.
  UpdateQueueOptions queue;
  std::size_t top_k = 16;
  bool snapshot_edge_scores = true;
  /// Replicated batches kept for resending to a shard that crashed and
  /// rejoined behind the cluster epoch. A shard further behind than the
  /// window cannot be resynced live and must be re-bootstrapped from a
  /// fresher checkpoint copy.
  std::size_t replay_window_batches = 1024;
  /// Per-shard watchdog: how long one shard may sit on a batch (send to
  /// ack) before the coordinator declares it stalled and reconnects.
  double shard_ack_timeout_seconds = 30.0;
  /// Total budget for bringing one failed shard back (reconnect +
  /// re-handshake + resend) before the coordinator gives up and goes
  /// read-only. The bounded-retry half of the failure story: a flapping
  /// shard costs at most this much wall time per batch. Also the budget a
  /// takeover spends per shard reconciling the roster.
  double shard_retry_seconds = 10.0;
  /// Pause between reconnect attempts within the retry budget.
  double reconnect_backoff_seconds = 0.05;
  double connect_timeout_seconds = 5.0;
  /// Threads for the partial-score merge tree. 0 = pick automatically
  /// (serial for tiny clusters, a small pool once the tree has real
  /// parallelism).
  std::size_t merge_threads = 0;
  /// Warm-standby feed: non-empty makes Connect listen here (port 0
  /// resolves) and stream every replicated batch to an attached standby
  /// coordinator BEFORE the shard fan-out — the ordering that makes
  /// takeover reconciliation exactly-once (the standby's epoch is never
  /// behind any shard's once attached; DESIGN.md §13). Empty = no feed.
  std::string standby_listen;
  /// Primary -> standby heartbeat cadence while the feed is idle.
  double heartbeat_interval_seconds = 0.5;
  /// Standby-side lease: silence on the primary feed longer than this is
  /// a dead primary and triggers takeover. Must comfortably exceed the
  /// heartbeat interval. The standby reads the clock through LeaseClock,
  /// so tests script expiry deterministically.
  double lease_timeout_seconds = 3.0;
  /// Budget for the blocking halves of a live rebalance: the donor's
  /// image stream + the recipient's scoped Step 1 (split), or the
  /// surviving shard's rescope rebuild (merge).
  double migrate_timeout_seconds = 120.0;
};

/// Per-shard observability, surfaced next to the serve metrics.
struct ShardStatus {
  std::string address;
  ShardRange range;
  std::uint64_t epoch = 0;
  ServiceHealth health = ServiceHealth::kHealthy;
  /// Times this shard's connection was re-established (watchdog trips,
  /// crashes, partitions).
  std::uint64_t reconnects = 0;
  /// Replayed batches resent to this shard after rejoins.
  std::uint64_t resent_batches = 0;
  /// True while this shard is the recipient of an in-flight migration:
  /// it double-applies every batch but its partial is not merged until
  /// the map-version commit.
  bool joining = false;
};

/// The cluster head (DESIGN.md §13): runs the same writer pipeline as
/// BcService (Submit/snapshot/Drain, the health ladder), but its apply
/// backend replicates every coalesced batch to every shard worker over the
/// wire, collects per-shard cumulative score partials from the acks, and
/// merges them through the score_reduce tree into the published snapshot.
///
/// Failure handling is the PR-6 health ladder stretched over the wire:
/// a Degraded shard degrades the coordinator; a stalled or disconnected
/// shard trips the per-shard ack watchdog and is reconnected +
/// resynced from the replay window within a bounded retry budget; a
/// ReadOnly shard — or a retry budget exhausted — takes the coordinator
/// read-only (snapshots keep serving, Submit rejects). Exactly-once per
/// shard comes from the shards' epoch dedupe: the coordinator may deliver
/// a batch twice (lost ack), never skip one (a gap is refused and
/// backfilled from the window).
///
/// The coordinator itself is no longer a single point of failure: a
/// warm standby (Standby) tails the primary's replay window over the
/// replicate feed and, when the primary's lease expires, re-handshakes
/// the shard roster, reconciles each shard's last-acked epoch against
/// its own window, and resumes publication (WaitUntilActive). Live
/// rebalancing (SplitShard/MergeShards) re-cuts the source partition
/// under a versioned shard map without stopping the stream.
class ClusterCoordinator : private ApplyBackend, private WriterPipeline {
 public:
  /// Where this coordinator stands in the failover protocol. A Connect
  /// coordinator is kPrimary for life; a Standby one starts tailing and
  /// ends in exactly one of the three terminal states.
  enum class Role {
    kPrimary,
    kStandbyTailing,
    kStandbyActive,    // took over; full primary surface
    kStandbyFinished,  // primary stopped cleanly; nothing to take over
    kStandbyFailed,    // tail or takeover failed terminally
  };

  /// Brings up the cluster head over already-listening shard workers:
  /// connects to every address, handshakes (protocol version, graph
  /// signature, shard-map tiling, equal epochs), fetches and merges the
  /// initial partials, and publishes the bring-up snapshot before the
  /// writer starts. `graph` is the coordinator's replica — it must be the
  /// same graph every shard was started with.
  static Result<std::unique_ptr<ClusterCoordinator>> Connect(
      Graph graph, const std::vector<std::string>& shard_addresses,
      Transport* transport, const ClusterCoordinatorOptions& options);

  /// Brings up a warm standby: connects to the primary's standby feed
  /// (options.standby_listen on the primary; its resolved address), reads
  /// the bootstrap frame, validates the graph replica against the
  /// primary's bring-up signature, and starts tailing the replicated
  /// batch stream. `shard_addresses` is the roster a takeover will
  /// re-handshake — it must match the primary's. Submit/Drain reject
  /// until WaitUntilActive reports a takeover.
  static Result<std::unique_ptr<ClusterCoordinator>> Standby(
      Graph graph, const std::vector<std::string>& shard_addresses,
      Transport* transport, const std::string& primary_address,
      const ClusterCoordinatorOptions& options);

  ~ClusterCoordinator();

  ClusterCoordinator(const ClusterCoordinator&) = delete;
  ClusterCoordinator& operator=(const ClusterCoordinator&) = delete;

  /// The writer pipeline's surface, as on BcService: Submit (refused on a
  /// standby until its takeover completed), SubmitAll, Drain (everything
  /// accepted is replicated, acked by every shard, merged and published),
  /// the latest merged snapshot() (null on a standby that has not taken
  /// over — an empty placeholder would masquerade as a real epoch-0
  /// publication), final_epoch()/final_position(), health()/last_error().
  using WriterPipeline::Drain;
  using WriterPipeline::final_epoch;
  using WriterPipeline::final_position;
  using WriterPipeline::health;
  using WriterPipeline::last_error;
  using WriterPipeline::snapshot;
  using WriterPipeline::Submit;
  using WriterPipeline::SubmitAll;

  /// Stops accepting updates, drains, joins the writer, and sends every
  /// shard — and an attached standby — a clean shutdown (the standby
  /// finishes without taking over). Idempotent.
  Status Stop();

  /// Crash-shaped stop for tests: kills the writer mid-queue and drops
  /// every connection WITHOUT shutdown frames, which is exactly what the
  /// roster observes when the process dies — shards see EOF and
  /// re-accept, an attached standby sees silence and takes over.
  void Halt();

  /// Standby only: blocks until the tail resolves — OK once this
  /// coordinator took over as primary; FailedPrecondition when the
  /// primary stopped cleanly (nothing to take over); the terminal error
  /// when the tail or takeover failed; IOError on timeout.
  Status WaitUntilActive(double timeout_seconds);

  Role role() const { return role_.load(std::memory_order_acquire); }

  /// Primary: 1 while a standby is attached (caught up and receiving the
  /// batch feed). Standby: 1 once its own catch-up completed.
  bool standby_attached() const {
    return standby_attached_.load(std::memory_order_acquire) != 0;
  }

  /// Resolved address of the standby feed ("" when standby_listen was
  /// empty) — what an operator passes to `--standby-of`.
  const std::string& standby_address() const { return standby_address_; }

  /// Live rebalance (active coordinator only; blocks until committed):
  /// splits shard `donor_index`'s source range in half, migrating the
  /// upper half to the AwaitMigration worker at `recipient_address`. The
  /// stream keeps flowing: after the checkpoint-consistent image ships,
  /// batches double-apply on donor and recipient until the atomic
  /// map-version commit rescopes the donor. Refused while a standby is
  /// attached or another rebalance is in flight.
  Status SplitShard(std::size_t donor_index,
                    const std::string& recipient_address);

  /// Live rebalance: merges shard `left_index+1`'s range into shard
  /// `left_index` (which rescopes to the union) and retires the right
  /// shard. Single writer turn — atomic under the map-version bump.
  Status MergeShards(std::size_t left_index);

  /// The pipeline's metrics plus the cluster-plane counters.
  ServeMetricsSnapshot metrics() const;
  /// Wire-side view of every shard (address, range, epoch, health,
  /// reconnect/resend counters), coherent as of the last published batch.
  std::vector<ShardStatus> shard_status() const;
  std::size_t num_shards() const {
    std::lock_guard<std::mutex> lock(mu_);
    return shard_status_.size();
  }

 private:
  struct Shard {
    std::string address;
    std::uint32_t index = 0;
    /// Identity the shard process reported at its LAST handshake; a
    /// reconnect must reproduce it exactly. reported_count is per-shard
    /// (not shards_.size()): after a split the roster holds workers
    /// started for different counts, all legitimately part of this
    /// cluster.
    std::uint32_t reported_count = 0;
    ShardRange range;
    std::unique_ptr<Connection> conn;
    std::uint64_t epoch = 0;
    std::uint8_t health = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t resent_batches = 0;
    /// Migration recipient before the commit: in the Apply fan-out,
    /// excluded from the merge.
    bool joining = false;
  };
  /// One replicated batch retained for resending (contiguous epochs; the
  /// front is the oldest epoch still live-resyncable).
  struct WindowEntry {
    std::uint64_t epoch = 0;
    std::uint64_t stream_position = 0;
    std::vector<EdgeUpdate> updates;
  };
  /// One blocking rebalance call parked for the writer thread to execute
  /// between batches.
  struct ControlRequest {
    enum class Kind { kSplit, kMerge };
    Kind kind = Kind::kSplit;
    std::size_t index = 0;
    std::string recipient_address;
    Status result;
    bool done = false;
  };
  /// Writer-owned state of the in-flight split migration.
  struct Migration {
    bool active = false;
    std::size_t donor = 0;
    std::size_t joining = 0;
    std::uint64_t new_version = 0;
    ShardRange donor_new_range;
    std::uint64_t double_applied = 0;
    Status joining_status;
    ControlRequest* request = nullptr;
  };

  ClusterCoordinator(Graph graph, const ClusterCoordinatorOptions& options);

  /// Hello/HelloAck over an open connection.
  static Result<HelloAckMsg> Handshake(Connection* conn, const Graph& graph,
                                       double timeout_seconds);
  /// The roster entry a handshake describes: identity, range, epoch and
  /// health as the shard reported them. Callers validate `hello` first
  /// and attach the connection themselves.
  static Shard ShardFromHello(const std::string& address,
                              const HelloAckMsg& hello);

  // The replicated ApplyBackend. Apply validates the batch against and
  // advances the replica (a poison batch dies here, before any shard sees
  // its epoch), pushes it to the window and standby feed, fans it out,
  // and merges the non-joining partials. Rebalance control runs at batch
  // boundaries and the migration commit after each publish or idle tick;
  // the writer's exit aborts both.
  Status Apply(std::uint64_t epoch, std::uint64_t position,
               std::span<const EdgeUpdate> updates,
               UpdateStats* counters) override;
  std::shared_ptr<const ScoreSnapshot> Snapshot(
      std::uint64_t epoch, std::uint64_t position) override;
  Status AfterPublish(std::uint64_t epoch, std::uint64_t position,
                      std::uint64_t consumed) override;
  void AtBoundary(std::uint64_t epoch, std::uint64_t position,
                  bool idle) override;
  void OnWriterExit(const Status& status) override;

  /// Replicates one batch (already applied to the replica graph, pushed
  /// to the window, and shipped to the standby) to every shard and
  /// collects acked partials into `partials` and the acks' source and
  /// MS-BFS counters, summed over shards, into `totals`. Any shard failure
  /// is retried through RecoverShard within the budget; a terminal failure
  /// comes back as the status. A failing JOINING shard never fails the
  /// batch — it aborts the migration (migration_.joining_status).
  Status ReplicateBatch(std::uint64_t epoch, std::uint64_t stream_position,
                        std::span<const EdgeUpdate> updates,
                        std::vector<BcScores>* partials, UpdateStats* totals);
  /// Bounded-retry recovery of one shard to `target_epoch`: reconnect,
  /// re-handshake, resend the missed window epochs (the shard dedupes
  /// duplicates), and return the ack of the target epoch.
  Status RecoverShard(Shard* shard, std::uint64_t target_epoch,
                      ApplyAckMsg* final_ack);
  /// Resends window epochs (after_epoch, through_epoch] to a rejoining
  /// shard, one Apply/ApplyAck round trip each, counting them on `shard`;
  /// `ack` ends as the last ack. Stops early (OK) at an ack the shard
  /// refused (ack->ok false); transport and decode failures are the
  /// status. The caller checks the window covers the range.
  Status ResendWindow(Connection* conn, std::uint64_t after_epoch,
                      std::uint64_t through_epoch, Shard* shard,
                      ApplyAckMsg* ack);
  /// Processes an ack's health byte: Degraded shard -> Degraded
  /// coordinator; ReadOnly shard -> terminal error (returned).
  Status PropagateShardHealth(const Shard& shard, std::uint8_t health);
  /// Bring-up and takeover: sizes the merge pool for shards_, merges the
  /// fetched partials_, and publishes (epoch, position) as the base.
  void BringUp(std::uint64_t epoch, std::uint64_t position);
  /// Merges partials_ through the score_reduce tree into partials_[0].
  void MergePartials();

  /// --- standby feed (primary side; acceptor thread) ---
  void StandbyAcceptorLoop();
  /// Bootstraps + catches one standby connection up from the window,
  /// attaches it (writer takes over batch replication), then heartbeats
  /// until the connection breaks or the coordinator stops.
  void ServeStandby(std::unique_ptr<Connection> conn);
  /// Ships one window entry over the feed and awaits its ack.
  Status ReplicateEntryTo(Connection* conn, const WindowEntry& entry);
  /// Pushes the batch into the window (trimming) and ships it to an
  /// attached standby, detaching the standby on failure. The batch-stream
  /// owner calls it: the writer, or a standby's tail before takeover.
  void PushWindowAndReplicate(WindowEntry entry);

  /// --- standby side (tail thread) ---
  void TailLoop();
  /// Lease expired or the feed died: reconcile the roster and become the
  /// primary. Runs on the tail thread; on success starts the writer.
  void Takeover(std::uint64_t epoch, std::uint64_t position,
                const std::string& reason);
  /// Connects + handshakes the roster, resyncs lagging shards from the
  /// window, fetches the partials at (epoch, position).
  Status ReconcileShards(std::uint64_t epoch, std::uint64_t position,
                         std::vector<Shard>* roster,
                         std::vector<BcScores>* partials);
  void FailStandby(const Status& why);

  /// --- rebalance (writer thread) ---
  /// Parks `request` for the writer and blocks until it completes.
  Status RunControl(ControlRequest* request);
  void RunPendingControl(std::uint64_t epoch, std::uint64_t position);
  Status BeginSplit(ControlRequest* request, std::uint64_t epoch,
                    std::uint64_t position);
  Status ExecuteMerge(ControlRequest* request);
  /// Commits the in-flight migration (donor rescope + map-version bump)
  /// once at least one batch double-applied, or unconditionally on an
  /// idle tick.
  void MaybeCommitMigration(bool idle);
  void AbortMigration(const Status& why);
  void CompleteControl(ControlRequest* request, Status result);
  /// Fails a parked request when the writer can no longer run it.
  void FailPendingControl(const Status& why);
  /// Sends one control frame and awaits its ReplicateAck within
  /// migrate_timeout_seconds.
  Status ControlRoundTrip(Connection* conn, const std::string& frame,
                          ReplicateAckMsg* ack);

  /// Stop (clean) and Halt: joins the tail and the writer (draining the
  /// queue only when clean), then closes the standby feed and the roster.
  Status Shutdown(bool clean);
  /// Rebuilds shard_status_ from shards_ (mu_ held).
  void RefreshShardStatusLocked();

  ClusterCoordinatorOptions options_;
  /// The coordinator's graph replica — advanced batch-by-batch in the
  /// same order the shards advance theirs, and the snapshot's vertex/edge
  /// counts. Owned by the writer thread once it starts (on a standby: the
  /// tail thread until takeover, the writer after).
  Graph graph_;
  Transport* transport_ = nullptr;
  std::vector<Shard> shards_;
  std::unique_ptr<ThreadPool> merge_pool_;
  /// Per-shard partials of the batch in flight (writer-owned); after
  /// MergePartials, partials_[0] is the merged map the snapshot reads.
  std::vector<BcScores> partials_;

  /// Replay window: contiguous epochs, bounded by
  /// options_.replay_window_batches. Mutated only by the batch-stream
  /// owner (writer, or the standby tail before takeover), but read by the
  /// standby acceptor during catch-up — every mutation and catch-up scan
  /// holds standby_mu_.
  std::deque<WindowEntry> window_;

  /// Where a standby's bootstrap starts: this coordinator's bring-up (or
  /// takeover) epoch and position.
  std::uint64_t base_epoch_ = 0;
  std::uint64_t base_position_ = 0;
  /// Graph signature at bring-up, carried by the standby bootstrap frame
  /// (the standby's replica must equal the primary's bring-up replica).
  std::uint64_t boot_vertices_ = 0;
  std::uint64_t boot_edges_ = 0;
  bool boot_directed_ = false;

  mutable std::mutex mu_;  // stopped_, role waits, shard status copy
  std::condition_variable role_cv_;
  bool stopped_ = false;
  /// Coherent copy of shards_ wire state for shard_status(), refreshed by
  /// the writer after each batch (shards_ itself is writer-owned).
  std::vector<ShardStatus> shard_status_;

  /// --- standby feed state (primary) ---
  std::unique_ptr<Listener> standby_listener_;
  std::string standby_address_;
  std::mutex standby_mu_;  // window_ mutations + standby_conn_
  std::unique_ptr<Connection> standby_conn_;
  std::thread standby_acceptor_;
  std::atomic<bool> acceptor_stop_{false};

  /// --- standby (tail) state ---
  std::atomic<Role> role_{Role::kPrimary};
  std::vector<std::string> shard_addresses_;
  std::unique_ptr<Connection> primary_conn_;
  std::thread tail_thread_;
  std::atomic<bool> tail_stop_{false};
  Status standby_status_;  // terminal tail/takeover error (mu_)

  /// --- rebalance state ---
  std::mutex control_mu_;
  std::condition_variable control_cv_;
  ControlRequest* pending_control_ = nullptr;
  Migration migration_;  // writer-owned
  std::atomic<bool> migration_active_{false};
  /// Shard-map generation: 1 at bring-up, +1 per committed split/merge.
  /// The plain copy is the writer's working value; the atomic mirrors it
  /// for metrics().
  std::uint64_t map_version_plain_ = 1;
  std::atomic<std::uint64_t> map_version_{0};

  /// --- cluster-plane metrics ---
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<double> failover_gap_seconds_{0.0};
  std::atomic<std::uint64_t> standby_attached_{0};
  std::atomic<std::uint64_t> replicated_batches_{0};
  std::atomic<std::uint64_t> migrations_started_{0};
  std::atomic<std::uint64_t> migrations_completed_{0};
  std::atomic<std::uint64_t> migration_lag_batches_{0};
};

}  // namespace sobc

#endif  // SOBC_CLUSTER_COORDINATOR_H_
