#include "server/writer_pipeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sobc {
namespace {

EdgeUpdate Add(VertexId u, VertexId v) { return {u, v, EdgeOp::kAdd, 0.0}; }
EdgeUpdate Remove(VertexId u, VertexId v) {
  return {u, v, EdgeOp::kRemove, 0.0};
}

/// A backend that records every batch it is handed, can hold Apply at a
/// gate, and can fail one epoch.
class FakeBackend : public ApplyBackend {
 public:
  struct Batch {
    std::uint64_t epoch = 0;
    std::uint64_t position = 0;
    std::size_t updates = 0;
  };

  Status Apply(std::uint64_t epoch, std::uint64_t position,
               std::span<const EdgeUpdate> updates,
               UpdateStats* counters) override {
    std::unique_lock<std::mutex> lock(mu_);
    in_apply_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return !gated_; });
    in_apply_ = false;
    if (epoch == fail_epoch_) return Status::InvalidArgument("poisoned");
    batches_.push_back({epoch, position, updates.size()});
    counters->sources_total = updates.size();
    return Status::OK();
  }

  std::shared_ptr<const ScoreSnapshot> Snapshot(
      std::uint64_t epoch, std::uint64_t position) override {
    auto snapshot = std::make_shared<ScoreSnapshot>();
    snapshot->epoch = epoch;
    snapshot->stream_position = position;
    return snapshot;
  }

  void OnWriterExit(const Status& status) override {
    std::lock_guard<std::mutex> lock(mu_);
    exit_status_ = status;
    exited_ = true;
  }

  void Gate() {
    std::lock_guard<std::mutex> lock(mu_);
    gated_ = true;
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      gated_ = false;
    }
    cv_.notify_all();
  }
  void WaitInApply() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return in_apply_; });
  }
  void FailAt(std::uint64_t epoch) {
    std::lock_guard<std::mutex> lock(mu_);
    fail_epoch_ = epoch;
  }
  std::vector<Batch> batches() const {
    std::lock_guard<std::mutex> lock(mu_);
    return batches_;
  }
  bool exited() const {
    std::lock_guard<std::mutex> lock(mu_);
    return exited_;
  }
  Status exit_status() const {
    std::lock_guard<std::mutex> lock(mu_);
    return exit_status_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool gated_ = false;
  bool in_apply_ = false;
  std::uint64_t fail_epoch_ = 0;
  std::vector<Batch> batches_;
  bool exited_ = false;
  Status exit_status_;
};

TEST(WriterPipeline, EpochAndPositionAdvanceOnEveryBatchEvenCoalescedAway) {
  FakeBackend backend;
  UpdateQueueOptions queue;
  // Hold each batch open until it has two updates, so each pair below
  // drains as one batch.
  queue.max_batch = 2;
  queue.batch_latency_budget_seconds = 5.0;
  WriterPipeline pipeline(queue, &backend);
  pipeline.Start();

  // An add and its removal collapse to nothing, yet the batch still takes
  // an epoch and consumes both raw updates.
  ASSERT_TRUE(pipeline.Submit(Add(1, 2)));
  ASSERT_TRUE(pipeline.Submit(Remove(1, 2)));
  ASSERT_TRUE(pipeline.Drain().ok());
  EXPECT_EQ(pipeline.final_epoch(), 1u);
  EXPECT_EQ(pipeline.final_position(), 2u);

  ASSERT_TRUE(pipeline.Submit(Add(3, 4)));
  ASSERT_TRUE(pipeline.Submit(Add(5, 6)));
  ASSERT_TRUE(pipeline.Drain().ok());
  EXPECT_EQ(pipeline.final_epoch(), 2u);
  EXPECT_EQ(pipeline.final_position(), 4u);
  EXPECT_EQ(pipeline.snapshot()->epoch, 2u);
  EXPECT_EQ(pipeline.snapshot()->stream_position, 4u);

  const std::vector<FakeBackend::Batch> batches = backend.batches();
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].epoch, 1u);
  EXPECT_EQ(batches[0].position, 2u);
  EXPECT_EQ(batches[0].updates, 0u);
  EXPECT_EQ(batches[1].epoch, 2u);
  EXPECT_EQ(batches[1].position, 4u);
  EXPECT_EQ(batches[1].updates, 2u);

  const ServeMetricsSnapshot metrics = pipeline.metrics();
  EXPECT_EQ(metrics.batches, 2u);
  EXPECT_EQ(metrics.publishes, 2u);
  EXPECT_EQ(metrics.applied, 2u);
  EXPECT_EQ(metrics.coalesced, 2u);
  EXPECT_EQ(metrics.sources_total, 2u);
  EXPECT_EQ(metrics.publish_epoch, 2u);
  EXPECT_EQ(metrics.epoch_lag, 0u);
  EXPECT_TRUE(pipeline.Stop().ok());
  EXPECT_TRUE(backend.exited());
  EXPECT_TRUE(backend.exit_status().ok());
}

TEST(WriterPipeline, DrainBlocksUntilPublication) {
  FakeBackend backend;
  WriterPipeline pipeline({}, &backend);
  pipeline.Start();
  backend.Gate();
  ASSERT_TRUE(pipeline.Submit(Add(1, 2)));
  backend.WaitInApply();

  std::atomic<bool> drained{false};
  Status drain_status;
  std::thread drainer([&] {
    drain_status = pipeline.Drain();
    drained.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(drained.load());
  EXPECT_EQ(pipeline.final_position(), 0u);

  backend.Release();
  drainer.join();
  EXPECT_TRUE(drain_status.ok()) << drain_status.ToString();
  // Drain returned only once the batch was readable.
  EXPECT_EQ(pipeline.final_position(), 1u);
  EXPECT_EQ(pipeline.snapshot()->stream_position, 1u);
  EXPECT_TRUE(pipeline.Stop().ok());
}

TEST(WriterPipeline, BackendErrorIsTerminal) {
  FakeBackend backend;
  backend.FailAt(2);
  WriterPipeline pipeline({}, &backend);
  pipeline.Start();
  ASSERT_TRUE(pipeline.Submit(Add(1, 2)));
  ASSERT_TRUE(pipeline.Drain().ok());
  ASSERT_TRUE(pipeline.Submit(Add(3, 4)));

  const Status drained = pipeline.Drain();
  EXPECT_EQ(drained.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(pipeline.health(), ServiceHealth::kReadOnly);
  EXPECT_EQ(pipeline.last_error().code(), StatusCode::kInvalidArgument);
  // The failed epoch was never published.
  EXPECT_EQ(pipeline.final_epoch(), 1u);
  EXPECT_EQ(pipeline.snapshot()->epoch, 1u);
  EXPECT_FALSE(pipeline.Submit(Add(5, 6)));
  EXPECT_EQ(pipeline.Stop().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(pipeline.Drain().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(backend.exit_status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(pipeline.metrics().health, "readonly");
}

TEST(WriterPipeline, DegradedIsOneWayFirstCauseWinsAndHalvesCapacityOnce) {
  FakeBackend backend;
  UpdateQueueOptions queue;
  queue.capacity = 8;
  queue.drop_when_full = true;
  queue.coalesce = false;
  WriterPipeline pipeline(queue, &backend);
  pipeline.Start();
  // Park the writer inside a batch so the queue only fills.
  backend.Gate();
  ASSERT_TRUE(pipeline.Submit(Add(0, 1)));
  backend.WaitInApply();

  pipeline.EnterDegraded(Status::IOError("first"));
  pipeline.EnterDegraded(Status::IOError("second"));
  EXPECT_EQ(pipeline.health(), ServiceHealth::kDegraded);
  EXPECT_EQ(pipeline.last_error().message(), "first");
  std::size_t accepted = 0;
  for (VertexId v = 10; v < 30; ++v) {
    if (pipeline.Submit(Add(v, v + 1))) ++accepted;
  }
  EXPECT_EQ(accepted, 4u);  // 8 halved once, not twice
  EXPECT_EQ(pipeline.metrics().checkpoints_suspended, 1u);

  pipeline.EnterReadOnly(Status::Internal("dead"));
  pipeline.EnterDegraded(Status::IOError("late"));
  EXPECT_EQ(pipeline.health(), ServiceHealth::kReadOnly);
  EXPECT_EQ(pipeline.last_error().message(), "dead");
  backend.Release();
  EXPECT_TRUE(pipeline.Stop().ok());
}

TEST(WriterPipeline, BringUpPublishSeedsTheStartingPosition) {
  FakeBackend backend;
  WriterPipeline pipeline({}, &backend);
  // Before Start nothing is accepted and there is nothing to drain.
  EXPECT_FALSE(pipeline.Submit(Add(1, 2)));
  EXPECT_FALSE(pipeline.Drain().ok());

  // A position-only publication (a tailing standby) serves no snapshot.
  pipeline.Publish(nullptr, 3, 20);
  EXPECT_EQ(pipeline.snapshot(), nullptr);
  EXPECT_EQ(pipeline.final_position(), 20u);

  pipeline.Publish(backend.Snapshot(7, 42), 7, 42);
  EXPECT_EQ(pipeline.final_epoch(), 7u);
  EXPECT_EQ(pipeline.final_position(), 42u);
  EXPECT_EQ(pipeline.snapshot()->epoch, 7u);
  ServeMetricsSnapshot metrics = pipeline.metrics();
  EXPECT_EQ(metrics.publish_epoch, 7u);
  EXPECT_EQ(metrics.published_stream_position, 42u);
  EXPECT_EQ(metrics.publishes, 0u);

  pipeline.Start();
  ASSERT_TRUE(pipeline.Submit(Add(1, 2)));
  ASSERT_TRUE(pipeline.Submit(Add(2, 3)));
  ASSERT_TRUE(pipeline.Drain().ok());
  EXPECT_GT(pipeline.final_epoch(), 7u);
  EXPECT_EQ(pipeline.final_position(), 44u);
  const std::vector<FakeBackend::Batch> batches = backend.batches();
  ASSERT_FALSE(batches.empty());
  EXPECT_EQ(batches.front().epoch, 8u);
  EXPECT_EQ(batches.back().position, 44u);
  metrics = pipeline.metrics();
  EXPECT_EQ(metrics.published_stream_position, 44u);
  EXPECT_EQ(metrics.epoch_lag, 0u);
  EXPECT_TRUE(pipeline.Stop().ok());
}

}  // namespace
}  // namespace sobc
