#ifndef SOBC_PARALLEL_THREAD_POOL_H_
#define SOBC_PARALLEL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sobc {

/// Fixed-size worker pool. Tasks are opaque closures; Wait() blocks until
/// the queue drains and every in-flight task finishes. Each framework keeps
/// one pool for its lifetime: DynamicBc submits one task per apply lane per
/// batch (DESIGN.md §9), plus the merges of each tree-reduce round.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void Submit(std::function<void()> task);

  /// Blocks until all submitted tasks have completed.
  void Wait();

  std::size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;
  bool shutting_down_ = false;
  std::vector<std::thread> threads_;
};

/// Runs fn(i) for i in [0, count) across the pool, blocking until done.
/// Takes the callback by template parameter: each worker invokes fn
/// directly instead of through a std::function thunk, so the only type
/// erasure left is the queued task closure itself.
template <class Fn>
void ParallelFor(ThreadPool* pool, std::size_t count, Fn&& fn) {
  for (std::size_t i = 0; i < count; ++i) {
    pool->Submit([&fn, i] { fn(i); });
  }
  pool->Wait();
}

}  // namespace sobc

#endif  // SOBC_PARALLEL_THREAD_POOL_H_
