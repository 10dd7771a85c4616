#ifndef SOBC_SERVER_SERVE_METRICS_H_
#define SOBC_SERVER_SERVE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace sobc {

/// One coherent reading of the serving counters. Counters are monotonic;
/// quantiles cover the retained latency samples. The writer-side fields
/// come from ServeMetrics::Read; received/dropped/epoch_lag are filled by
/// WriterPipeline::metrics() from the queue's own stats (the single source of
/// truth for push accounting).
struct ServeMetricsSnapshot {
  /// Version of the JSON object ToJson emits, as its `schema_version`
  /// field — bumped whenever a key is added, renamed, or removed, so
  /// dashboards can detect a schema they don't understand instead of
  /// silently charting missing keys as zero. (v1 predates the field.)
  /// metrics_schema_test pins the emitted key set against the documented
  /// table in docs/OPERATIONS.md §3; changing either side alone fails it.
  /// (v3 added the cluster failover/migration keys; v4 the MS-BFS kernel
  /// counters; v5 the sampled-approximation gauges.)
  static constexpr std::uint64_t kSchemaVersion = 5;

  std::uint64_t received = 0;   // accepted into the queue
  std::uint64_t dropped = 0;    // rejected by backpressure
  std::uint64_t applied = 0;    // reached the engine, post-coalescing
  std::uint64_t coalesced = 0;  // collapsed away before the engine
  std::uint64_t batches = 0;
  std::uint64_t publishes = 0;

  /// Latest published epoch and its stream position; the queue lag
  /// `received - published_stream_position` is how far reads trail writes.
  std::uint64_t publish_epoch = 0;
  std::uint64_t published_stream_position = 0;
  std::uint64_t epoch_lag = 0;

  /// Per-source accounting of the apply path, summed over every applied
  /// batch: how many source passes the updates implied in total and how
  /// many the endpoint-BFS prefilter eliminated without a BD probe
  /// (Proposition 3.1). Their ratio — emitted as prefilter_skip_rate in
  /// the JSON — is the skip-rate `sobc_cli serve` surfaces.
  std::uint64_t sources_total = 0;
  std::uint64_t sources_prefiltered = 0;

  /// Bit-parallel MS-BFS accounting, summed over every applied batch:
  /// kernel batches run (prefilter 2-lane folds plus the engine's 64-lane
  /// structural batches) and how many of their BFS levels the
  /// direction-optimizing heuristic expanded bottom-up. Both stay zero
  /// when the deployment runs with --no-msbfs.
  std::uint64_t msbfs_batches = 0;
  std::uint64_t bottom_up_levels = 0;

  /// Durability-side counters, filled by BcService::metrics() from the
  /// WAL writer's and checkpoint writer's own stats (all zero when the
  /// service runs without a wal_dir). wal_appends counts logged batches;
  /// checkpoints_skipped counts triggers dropped because the previous
  /// checkpoint was still being written.
  std::uint64_t wal_appends = 0;
  std::uint64_t wal_appended_updates = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t wal_syncs = 0;
  std::uint64_t wal_rotations = 0;
  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoints_skipped = 0;
  std::uint64_t checkpoints_failed = 0;
  std::uint64_t last_checkpoint_epoch = 0;
  double checkpoint_write_seconds = 0.0;
  /// Newest epoch the WAL has confirmed durable via a successful
  /// fdatasync; freezes after a failed sync (fsyncgate — see WalWriter).
  std::uint64_t wal_last_durable_epoch = 0;

  /// Health of the serving layer (ServiceHealth as an int:
  /// 0 healthy, 1 degraded, 2 read-only) plus the operator-facing detail:
  /// whether checkpointing is suspended, whether the watchdog flagged the
  /// writer as stalled, and the error that drove the last transition
  /// ("" while healthy). `health` is the state as a string for humans.
  std::uint64_t health_state = 0;
  std::uint64_t checkpoints_suspended = 0;
  std::uint64_t writer_stalled = 0;
  std::string health = "healthy";
  std::string last_error;

  /// Process-wide transient-I/O accounting (see IoCounters): syscalls
  /// retried after EINTR/EAGAIN, retry budgets exhausted, and faults the
  /// injection layer fired (0 outside fault-injection runs).
  std::uint64_t io_retries = 0;
  std::uint64_t io_retries_exhausted = 0;
  std::uint64_t io_faults_injected = 0;

  /// Cluster-plane counters, filled by ClusterCoordinator::metrics()
  /// (all zero for a single-process service). `failovers` counts standby
  /// takeovers this process performed; `failover_gap_seconds` is the
  /// detect-to-first-publish gap of the most recent one.
  /// `standby_attached` is 1 while a standby tails this primary's replay
  /// window, and `replicated_batches` counts batches shipped over (or
  /// tailed from) the standby feed. The migration trio tracks live
  /// rebalances: started/completed counts plus the double-apply lag of
  /// the in-flight one (batches applied on both donor and recipient
  /// while the handoff is open — 0 when no migration is running).
  /// `shard_map_version` is the current map generation (0 outside
  /// cluster mode, 1 at bring-up, +1 per committed split/merge).
  std::uint64_t failovers = 0;
  double failover_gap_seconds = 0.0;
  std::uint64_t standby_attached = 0;
  std::uint64_t replicated_batches = 0;
  std::uint64_t migrations_started = 0;
  std::uint64_t migrations_completed = 0;
  std::uint64_t migration_lag_batches = 0;
  std::uint64_t shard_map_version = 0;

  /// Sampled-approximation gauges (DESIGN.md §15), filled by
  /// BcService::metrics() from the engine's ApproxStatus after each batch.
  /// All zero for an exact deployment (approx_samples == 0 is the
  /// "approximation off" signal). `approx_drift` is the current drift
  /// ledger value — the estimate of accumulated staleness the resampling
  /// policy compares against epsilon; `approx_sample_epoch` increments
  /// when a resampling round completes, so dashboards can correlate
  /// estimate jumps with sample-set generations.
  std::uint64_t approx_samples = 0;
  std::uint64_t approx_sample_epoch = 0;
  std::uint64_t approx_resamples = 0;
  std::uint64_t approx_source_swaps = 0;
  double approx_drift = 0.0;

  /// Submit-to-publish latency per consumed update (coalesced ones
  /// included — their effect was published even if they never ran).
  double p50_update_latency_seconds = 0.0;
  double p99_update_latency_seconds = 0.0;
  /// Apply time per batch: the backend's apply call alone (the engine in
  /// a single process; replica patch, fan-out and merge on a cluster head).
  double p50_batch_apply_seconds = 0.0;
  double p99_batch_apply_seconds = 0.0;

  /// The snapshot as one JSON object (the BENCH_serve.json building block).
  std::string ToJson() const;
};

/// Thread-safe observability for the writer side of the serving layer:
/// one entry per applied batch (push-side accounting lives in
/// UpdateQueueStats). Counter reads are lock-free; the latency reservoirs
/// keep the most recent samples (bounded ring) under a mutex the writer
/// touches once per batch.
class ServeMetrics {
 public:
  static constexpr std::size_t kMaxSamples = 1 << 14;

  /// One applied batch, about to be published: `applied` post-coalescing
  /// updates, `coalesced` collapsed away, apply time, per-consumed-update
  /// submit-to-publish latencies, and the batch's source-pass accounting
  /// (total vs. prefilter-eliminated).
  void RecordBatch(std::size_t applied, std::size_t coalesced,
                   double apply_seconds,
                   std::span<const double> update_latencies,
                   std::uint64_t sources_total = 0,
                   std::uint64_t sources_prefiltered = 0,
                   std::uint64_t msbfs_batches = 0,
                   std::uint64_t bottom_up_levels = 0);

  ServeMetricsSnapshot Read() const;

  /// Moves the publication cursor (bring-up and every batch), so epoch
  /// lag reads correctly before the first batch too. Counters (publishes,
  /// batches) are untouched — RecordBatch counts this process's work.
  void RecordPublication(std::uint64_t epoch, std::uint64_t stream_position);

  /// Publishes the approximation gauges after a batch (no-op values for
  /// exact deployments are fine — zeros read as "approximation off").
  void RecordApprox(std::uint64_t samples, std::uint64_t sample_epoch,
                    std::uint64_t resamples, std::uint64_t source_swaps,
                    double drift);

 private:
  static void PushSample(std::vector<double>* ring, std::size_t* next,
                         double value);

  std::atomic<std::uint64_t> applied_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> publishes_{0};
  std::atomic<std::uint64_t> publish_epoch_{0};
  std::atomic<std::uint64_t> published_stream_position_{0};
  std::atomic<std::uint64_t> sources_total_{0};
  std::atomic<std::uint64_t> sources_prefiltered_{0};
  std::atomic<std::uint64_t> msbfs_batches_{0};
  std::atomic<std::uint64_t> bottom_up_levels_{0};
  std::atomic<std::uint64_t> approx_samples_{0};
  std::atomic<std::uint64_t> approx_sample_epoch_{0};
  std::atomic<std::uint64_t> approx_resamples_{0};
  std::atomic<std::uint64_t> approx_source_swaps_{0};
  std::atomic<double> approx_drift_{0.0};

  mutable std::mutex sample_mu_;
  std::vector<double> latency_samples_;
  std::size_t latency_next_ = 0;
  std::vector<double> batch_samples_;
  std::size_t batch_next_ = 0;
};

}  // namespace sobc

#endif  // SOBC_SERVER_SERVE_METRICS_H_
