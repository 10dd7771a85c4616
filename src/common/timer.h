#ifndef SOBC_COMMON_TIMER_H_
#define SOBC_COMMON_TIMER_H_

#include <time.h>

#include <chrono>
#include <cstdint>

namespace sobc {

/// Monotonic wall-clock stopwatch. Starts on construction; Restart() resets.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  /// Elapsed time since construction/Restart, in seconds.
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed time in microseconds.
  std::int64_t Micros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// CPU seconds consumed so far by the calling thread. Differences of two
/// reads time work on one thread independently of how many other threads
/// share the cores.
inline double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace sobc

#endif  // SOBC_COMMON_TIMER_H_
