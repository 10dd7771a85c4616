#ifndef SOBC_SERVER_WRITER_PIPELINE_H_
#define SOBC_SERVER_WRITER_PIPELINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "bc/incremental.h"
#include "common/status.h"
#include "graph/edge_stream.h"
#include "server/score_snapshot.h"
#include "server/serve_metrics.h"
#include "server/update_queue.h"

namespace sobc {

/// The serving layer's health ladder (docs/OPERATIONS.md "Failure modes &
/// health states"). Transitions are one-way within a process: a Degraded
/// service never self-heals to Healthy (the condition that degraded it —
/// a failed checkpoint, ENOSPC — needs operator action), and ReadOnly is
/// terminal (the writer is dead; snapshots still serve, Submit rejects).
enum class ServiceHealth : int {
  kHealthy = 0,
  /// Checkpointing failed or is impossible (ENOSPC) here or on a shard:
  /// checkpoints are suspended, serving continues WAL-only, and the queue
  /// capacity is halved so backpressure bites earlier while durability is
  /// reduced.
  kDegraded = 1,
  /// The writer is dead (WAL append/sync/rotate failure, engine or shard
  /// apply failure). Published snapshots remain readable forever; Submit
  /// fails fast; Drain/Stop report the terminal error.
  kReadOnly = 2,
};

/// The state name as emitted in ServeMetrics JSON ("healthy" | "degraded"
/// | "readonly").
const char* ServiceHealthName(ServiceHealth health);

/// The apply stage of the writer pipeline: the one step that differs
/// between a single process (the local engine, with its WAL and
/// checkpoints) and a cluster head (replicated fan-out plus the merge).
/// Every method runs on the thread that runs the batch.
class ApplyBackend {
 public:
  /// Makes the batch recoverable before any of its effects exist (the
  /// local write-ahead log). An error is terminal.
  virtual Status Log(std::uint64_t /*epoch*/, std::uint64_t /*position*/,
                     std::span<const EdgeUpdate> /*updates*/) {
    return Status::OK();
  }
  /// Applies one coalesced batch as `epoch`, ending at raw-stream
  /// `position`, and fills the batch's source and MS-BFS counters. An empty
  /// (coalesced-away) batch still advances the epoch. The pipeline times
  /// this call alone as the batch's apply span. An error is terminal.
  virtual Status Apply(std::uint64_t epoch, std::uint64_t position,
                       std::span<const EdgeUpdate> updates,
                       UpdateStats* counters) = 0;
  /// The snapshot of the state the last Apply (or bring-up) produced.
  virtual std::shared_ptr<const ScoreSnapshot> Snapshot(
      std::uint64_t epoch, std::uint64_t position) = 0;
  /// Runs once the batch is published; `consumed` counts the raw updates
  /// it covered. An error is terminal.
  virtual Status AfterPublish(std::uint64_t /*epoch*/,
                              std::uint64_t /*position*/,
                              std::uint64_t /*consumed*/) {
    return Status::OK();
  }
  /// Writer thread, at every batch boundary before the batch applies, and
  /// on every idle tick (`idle`: no update arrived within the tick).
  virtual void AtBoundary(std::uint64_t /*epoch*/, std::uint64_t /*position*/,
                          bool /*idle*/) {}
  /// Writer thread, once, as it exits: `status` is the terminal error, or
  /// OK when the queue closed cleanly.
  virtual void OnWriterExit(const Status& /*status*/) {}

 protected:
  ~ApplyBackend() = default;
};

/// One writer pipeline for both serving modes (DESIGN.md §8): a bounded
/// update queue drained by a single writer thread through
/// pop → backend Log/Apply → publish → metrics → notify → AfterPublish,
/// plus the publication state, the health ladder, the stall watchdog and
/// the Submit/Drain surface. BcService runs it over the local engine,
/// ClusterCoordinator over the replicated fan-out.
///
/// Lifecycle: bring-up Publishes the starting epoch, Start spawns the
/// writer (until then Submit refuses and Drain fails), Stop closes the
/// queue, drains what was accepted and joins. A pipeline that is never
/// started can still run batches on the caller's thread (RunBatch) — a
/// replicated shard does.
class WriterPipeline {
 public:
  /// `backend` must outlive the pipeline's writer. `stall_timeout_seconds`
  /// > 0 starts a watchdog with the writer that flags a batch running
  /// longer, so Drain reports the hang instead of blocking. `batch_hook`
  /// (tests only) runs at the start of every batch.
  WriterPipeline(const UpdateQueueOptions& queue, ApplyBackend* backend,
                 double stall_timeout_seconds = 0.0,
                 std::function<void()> batch_hook = {});
  ~WriterPipeline();

  WriterPipeline(const WriterPipeline&) = delete;
  WriterPipeline& operator=(const WriterPipeline&) = delete;

  /// Spawns the writer (and watchdog), continuing from the last Publish.
  void Start();

  /// Closes the queue, lets the writer drain everything accepted, and
  /// joins it. Idempotent; returns the terminal status.
  Status Stop();

  /// Crash-shaped Stop: the writer exits after the batch in flight and
  /// leaves the rest of the queue unapplied.
  void Abandon();

  /// Enqueues one update (any thread). Blocks under backpressure unless
  /// the queue drops; returns false when dropped, before Start, or once
  /// the pipeline is read-only.
  bool Submit(const EdgeUpdate& update);

  /// Submits a whole stream in order; returns how many were accepted.
  std::size_t SubmitAll(const EdgeStream& stream);

  /// Blocks until everything accepted so far is published, the writer
  /// failed or exited, or the watchdog flagged a stall.
  Status Drain();

  /// Runs one batch on the caller's thread: Log, timed Apply, publish,
  /// metrics, AfterPublish. `enqueue_stamps` (SteadyNowSeconds, one per
  /// consumed update) become submit-to-publish latencies. A failure is
  /// terminal: the queue closes, the pipeline goes ReadOnly, and the error
  /// sticks for Drain/Stop. The writer thread runs every batch through
  /// here; a replicated shard calls it directly.
  Status RunBatch(std::uint64_t epoch, std::uint64_t position,
                  std::span<const EdgeUpdate> updates, std::uint64_t consumed,
                  std::vector<double>* enqueue_stamps);

  /// The single publication point: makes `snapshot` readable and advances
  /// final_epoch()/final_position() and the metrics cursor. Bring-up
  /// publishes the starting state here before Start; a null snapshot seeds
  /// the position without a servable snapshot (a tailing standby).
  void Publish(std::shared_ptr<const ScoreSnapshot> snapshot,
               std::uint64_t epoch, std::uint64_t position);

  /// Healthy -> Degraded (one-way; no-op from Degraded/ReadOnly, so the
  /// first cause wins): halves the queue capacity and records `why`.
  void EnterDegraded(const Status& why);
  /// Any state -> ReadOnly; `why` becomes last_error().
  void EnterReadOnly(const Status& why);
  /// Records `why` as the terminal status Drain/Stop return, unless one is
  /// already recorded.
  void RecordTerminal(const Status& why);

  /// The latest published snapshot; null while the latest Publish carried
  /// none. Wait-free with respect to refresh work.
  std::shared_ptr<const ScoreSnapshot> snapshot() const {
    return snapshots_.Acquire();
  }
  /// Published epoch of the newest snapshot (any thread).
  std::uint64_t final_epoch() const {
    std::lock_guard<std::mutex> lock(mu_);
    return final_epoch_;
  }
  /// Raw-stream position of the newest snapshot (any thread).
  std::uint64_t final_position() const {
    return published_position_.load(std::memory_order_acquire);
  }
  /// Updates accepted into the queue so far.
  std::uint64_t submitted() const { return queue_.stats().received; }

  /// Current position on the health ladder (any thread).
  ServiceHealth health() const {
    return static_cast<ServiceHealth>(
        health_.load(std::memory_order_acquire));
  }
  /// The error behind the last health transition; OK while healthy.
  Status last_error() const {
    std::lock_guard<std::mutex> lock(mu_);
    return health_error_;
  }
  /// True once the writer exited (or Stop ran without one).
  bool writer_done() const {
    std::lock_guard<std::mutex> lock(mu_);
    return writer_done_;
  }

  /// Writer-side metrics merged with the queue's push accounting and the
  /// health ladder; the durability and cluster fields stay zero.
  ServeMetricsSnapshot metrics() const;
  /// The writer-side recorder, for gauges a backend records per batch.
  ServeMetrics& serve_metrics() { return metrics_; }

 private:
  void WriterLoop();
  void WatchdogLoop();
  /// Closes the queue and joins the writer and watchdog.
  void JoinThreads();

  ApplyBackend* const backend_;
  const double stall_timeout_seconds_;
  const std::function<void()> batch_hook_;

  UpdateQueue queue_;
  SnapshotStore snapshots_;
  ServeMetrics metrics_;
  std::atomic<bool> started_{false};
  std::atomic<bool> abandoned_{false};
  std::atomic<std::uint64_t> published_position_{0};
  std::atomic<int> health_{static_cast<int>(ServiceHealth::kHealthy)};

  mutable std::mutex mu_;  // guards the fields below and Drain waits
  std::condition_variable publish_cv_;
  std::uint64_t final_epoch_ = 0;
  /// Published position at Start: Drain targets and epoch lag count the
  /// queue's accepted updates from here.
  std::uint64_t base_position_ = 0;
  Status writer_status_;
  bool writer_done_ = false;
  Status health_error_;

  // Stall watchdog. batch_started_ holds the SteadyNowSeconds stamp of
  // the batch in flight (0 = idle); writer_stalled_ flips under mu_ so
  // Drain's wait sees it.
  std::atomic<double> batch_started_{0.0};
  std::atomic<bool> writer_stalled_{false};
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
  std::thread watchdog_;

  std::thread writer_;
};

}  // namespace sobc

#endif  // SOBC_SERVER_WRITER_PIPELINE_H_
