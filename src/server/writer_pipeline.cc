#include "server/writer_pipeline.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/io.h"
#include "common/timer.h"

namespace sobc {

namespace {

/// How long the writer waits for an update before an idle tick, which
/// lets a backend run boundary work (rebalance control) on a quiet stream.
constexpr double kIdleTickSeconds = 0.05;

}  // namespace

const char* ServiceHealthName(ServiceHealth health) {
  switch (health) {
    case ServiceHealth::kHealthy:
      return "healthy";
    case ServiceHealth::kDegraded:
      return "degraded";
    case ServiceHealth::kReadOnly:
      return "readonly";
  }
  return "healthy";
}

WriterPipeline::WriterPipeline(const UpdateQueueOptions& queue,
                               ApplyBackend* backend,
                               double stall_timeout_seconds,
                               std::function<void()> batch_hook)
    : backend_(backend),
      stall_timeout_seconds_(stall_timeout_seconds),
      batch_hook_(std::move(batch_hook)),
      queue_(queue) {}

WriterPipeline::~WriterPipeline() { JoinThreads(); }

void WriterPipeline::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    base_position_ = published_position_.load(std::memory_order_acquire);
  }
  started_.store(true, std::memory_order_release);
  if (stall_timeout_seconds_ > 0) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
  writer_ = std::thread([this] { WriterLoop(); });
}

void WriterPipeline::JoinThreads() {
  queue_.Close();
  if (writer_.joinable()) writer_.join();
  {
    std::lock_guard<std::mutex> lock(watchdog_mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    writer_done_ = true;
  }
  publish_cv_.notify_all();
}

Status WriterPipeline::Stop() {
  JoinThreads();
  std::lock_guard<std::mutex> lock(mu_);
  return writer_status_;
}

void WriterPipeline::Abandon() {
  abandoned_.store(true, std::memory_order_release);
  JoinThreads();
}

bool WriterPipeline::Submit(const EdgeUpdate& update) {
  if (!started_.load(std::memory_order_acquire)) return false;
  // Fail fast once the writer is dead: no producer should block (or even
  // take the queue lock chain) to learn the pipeline is read-only.
  if (health() == ServiceHealth::kReadOnly) return false;
  return queue_.Push(update);
}

std::size_t WriterPipeline::SubmitAll(const EdgeStream& stream) {
  std::size_t accepted = 0;
  for (const EdgeUpdate& update : stream) {
    if (Submit(update)) ++accepted;
  }
  return accepted;
}

void WriterPipeline::WriterLoop() {
  std::uint64_t epoch = final_epoch();
  std::uint64_t position = final_position();
  DrainedBatch batch;
  Status status;
  for (;;) {
    const UpdateQueue::PopResult popped =
        queue_.PopBatchFor(&batch, kIdleTickSeconds);
    if (popped == UpdateQueue::PopResult::kClosed ||
        abandoned_.load(std::memory_order_acquire)) {
      break;
    }
    const bool idle = popped == UpdateQueue::PopResult::kTimeout;
    backend_->AtBoundary(epoch, position, idle);
    if (idle) continue;
    status = RunBatch(epoch + 1, position + batch.consumed, batch.updates,
                      batch.consumed, &batch.enqueue_seconds);
    if (!status.ok()) break;
    ++epoch;
    position += batch.consumed;
  }
  backend_->OnWriterExit(status);
  {
    std::lock_guard<std::mutex> lock(mu_);
    writer_done_ = true;
  }
  publish_cv_.notify_all();
}

Status WriterPipeline::RunBatch(std::uint64_t epoch, std::uint64_t position,
                                std::span<const EdgeUpdate> updates,
                                std::uint64_t consumed,
                                std::vector<double>* enqueue_stamps) {
  // Stamp before the hook: a hook that stalls (the watchdog tests) must
  // count against the batch it delays.
  batch_started_.store(SteadyNowSeconds(), std::memory_order_relaxed);
  if (batch_hook_) batch_hook_();
  UpdateStats counters;
  double apply_seconds = 0.0;
  Status status = backend_->Log(epoch, position, updates);
  if (status.ok()) {
    WallTimer apply_timer;
    status = backend_->Apply(epoch, position, updates, &counters);
    apply_seconds = apply_timer.Seconds();
  }
  if (status.ok()) {
    std::shared_ptr<const ScoreSnapshot> snapshot =
        backend_->Snapshot(epoch, position);
    // Latency is submit-to-publish: the moment a consumed update's effect
    // (possibly "no effect", for coalesced churn) became readable.
    const double now = SteadyNowSeconds();
    for (double& stamp : *enqueue_stamps) stamp = now - stamp;
    metrics_.RecordBatch(updates.size(), consumed - updates.size(),
                         apply_seconds, *enqueue_stamps,
                         counters.sources_total, counters.sources_prefiltered,
                         counters.msbfs_batches, counters.bottom_up_levels);
    Publish(std::move(snapshot), epoch, position);
    status = backend_->AfterPublish(epoch, position, consumed);
  }
  batch_started_.store(0.0, std::memory_order_relaxed);
  if (!status.ok()) {
    // Terminal: the queue closes so blocked producers unblock, the ladder
    // goes ReadOnly, and Drain/Stop report the cause.
    queue_.Close();
    EnterReadOnly(status);
    RecordTerminal(status);
  }
  return status;
}

void WriterPipeline::Publish(std::shared_ptr<const ScoreSnapshot> snapshot,
                             std::uint64_t epoch, std::uint64_t position) {
  snapshots_.Publish(std::move(snapshot));
  metrics_.RecordPublication(epoch, position);
  {
    // The store must happen under mu_ so a Drain caller between its
    // predicate check and its sleep cannot miss this publication.
    std::lock_guard<std::mutex> lock(mu_);
    final_epoch_ = epoch;
    published_position_.store(position, std::memory_order_release);
  }
  publish_cv_.notify_all();
}

Status WriterPipeline::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!started_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "the writer has not started; nothing to drain");
  }
  const std::uint64_t target = base_position_ + queue_.stats().received;
  publish_cv_.wait(lock, [&] {
    return writer_done_ || !writer_status_.ok() ||
           writer_stalled_.load(std::memory_order_acquire) ||
           published_position_.load(std::memory_order_acquire) >= target;
  });
  if (!writer_status_.ok()) return writer_status_;
  if (published_position_.load(std::memory_order_acquire) >= target) {
    return Status::OK();
  }
  if (writer_stalled_.load(std::memory_order_acquire)) {
    // The watchdog flagged a batch exceeding the stall timeout. Drain
    // surfaces the hang instead of joining it; the stall can still
    // resolve (the flag clears and a later Drain succeeds).
    return Status::Internal("writer stalled: a batch has exceeded the " +
                            std::to_string(stall_timeout_seconds_) +
                            "s stall timeout");
  }
  return Status::FailedPrecondition(
      "writer exited before draining every accepted update");
}

void WriterPipeline::EnterDegraded(const Status& why) {
  int expected = static_cast<int>(ServiceHealth::kHealthy);
  if (!health_.compare_exchange_strong(
          expected, static_cast<int>(ServiceHealth::kDegraded),
          std::memory_order_acq_rel)) {
    return;  // already degraded or read-only; first cause wins
  }
  // Less durability, less exposure: with checkpoints gone the WAL tail is
  // all the recovery there is, so let backpressure bite earlier.
  queue_.SetCapacity(std::max<std::size_t>(1, queue_.capacity() / 2));
  std::lock_guard<std::mutex> lock(mu_);
  health_error_ = why;
}

void WriterPipeline::EnterReadOnly(const Status& why) {
  health_.store(static_cast<int>(ServiceHealth::kReadOnly),
                std::memory_order_release);
  std::lock_guard<std::mutex> lock(mu_);
  // The terminal error supersedes a degraded-mode cause.
  health_error_ = why;
}

void WriterPipeline::RecordTerminal(const Status& why) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (writer_status_.ok()) writer_status_ = why;
  }
  publish_cv_.notify_all();
}

void WriterPipeline::WatchdogLoop() {
  const double timeout = stall_timeout_seconds_;
  const auto poll =
      std::chrono::duration<double>(std::clamp(timeout / 4.0, 0.001, 0.05));
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lock, poll, [this] { return watchdog_stop_; });
    if (watchdog_stop_) break;
    const double started = batch_started_.load(std::memory_order_relaxed);
    const bool stalled =
        started > 0.0 && SteadyNowSeconds() - started >= timeout;
    if (stalled != writer_stalled_.load(std::memory_order_relaxed)) {
      {
        // Under mu_ so a Drain caller between predicate and sleep cannot
        // miss the flag flip.
        std::lock_guard<std::mutex> guard(mu_);
        writer_stalled_.store(stalled, std::memory_order_release);
      }
      publish_cv_.notify_all();
    }
  }
}

ServeMetricsSnapshot WriterPipeline::metrics() const {
  ServeMetricsSnapshot snap = metrics_.Read();
  const UpdateQueueStats queue_stats = queue_.stats();
  snap.received = queue_stats.received;
  snap.dropped = queue_stats.dropped;
  const ServiceHealth current_health = health();
  snap.health_state = static_cast<std::uint64_t>(current_health);
  snap.health = ServiceHealthName(current_health);
  // Off the Healthy rung nothing checkpoints any more: Degraded suspends
  // checkpoints (here or on a shard), ReadOnly has no writer left.
  snap.checkpoints_suspended =
      current_health != ServiceHealth::kHealthy ? 1 : 0;
  snap.writer_stalled =
      writer_stalled_.load(std::memory_order_acquire) ? 1 : 0;
  std::uint64_t base_position = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    base_position = base_position_;
    if (!health_error_.ok()) snap.last_error = health_error_.ToString();
  }
  const std::uint64_t received_absolute = base_position + queue_stats.received;
  snap.epoch_lag = received_absolute > snap.published_stream_position
                       ? received_absolute - snap.published_stream_position
                       : 0;
  const IoCounters io = ReadIoCounters();
  snap.io_retries = io.retries;
  snap.io_retries_exhausted = io.retries_exhausted;
  snap.io_faults_injected = io.faults_injected;
  return snap;
}

}  // namespace sobc
