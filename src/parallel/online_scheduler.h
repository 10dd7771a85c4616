#ifndef SOBC_PARALLEL_ONLINE_SCHEDULER_H_
#define SOBC_PARALLEL_ONLINE_SCHEDULER_H_

#include <cstddef>
#include <vector>

#include "bc/dynamic_bc.h"
#include "common/status.h"
#include "graph/edge_stream.h"

namespace sobc {

/// Outcome of replaying a timestamped update stream against the framework
/// (Section 5.3 / Section 6.2, Figure 8 and Table 5). An update is "on
/// time" when its betweenness refresh finishes before the next update
/// arrives (tU < tI); otherwise it is missed and its delay is how far past
/// that deadline the refresh completed.
struct OnlineReplayResult {
  std::size_t total_updates = 0;
  std::size_t deadline_updates = 0;  // updates that had a next arrival
  std::size_t missed = 0;
  double missed_fraction = 0.0;
  double avg_delay_seconds = 0.0;  // mean lateness over missed updates
  /// Per-update processing time (modeled p-machine wall clock, one mapper
  /// per apply lane).
  std::vector<double> update_seconds;
  /// Per-update inter-arrival gap to the next update (one shorter).
  std::vector<double> inter_arrival_seconds;
};

/// Incremental form of the miss/delay accounting shared by SimulateQueue
/// and the live serving drain (src/server): feed each update's arrival and
/// completion time in arrival order. An update's deadline is the *next*
/// update's arrival, so update i is settled when Record(i+1) supplies it;
/// the last update has no deadline and is never counted missed.
class DeadlineAccounting {
 public:
  /// Records one update. `arrival` values must be non-decreasing across
  /// calls; `finish` is when its betweenness refresh completed.
  void Record(double arrival, double finish);

  /// Accounting over everything recorded so far (update_seconds is left
  /// empty — processing times belong to the caller's clock model).
  OnlineReplayResult Result() const;

 private:
  bool has_pending_ = false;
  double pending_arrival_ = 0.0;
  double pending_finish_ = 0.0;
  double total_delay_ = 0.0;
  OnlineReplayResult acc_;
};

/// Replays `stream` through `bc` one update at a time, charging each update
/// its modeled cluster wall clock (ParallelUpdateTiming, one machine per
/// apply lane) and queueing work like the deployed system would: an update
/// cannot start before the previous one finished. Stream timestamps must be
/// non-decreasing.
Result<OnlineReplayResult> ReplayOnline(DynamicBc* bc,
                                        const EdgeStream& stream);

/// Computes the miss/delay accounting alone from known per-update
/// processing times and arrival timestamps (used by tests and by the
/// what-if capacity planner below).
OnlineReplayResult SimulateQueue(const std::vector<double>& arrivals,
                                 const std::vector<double>& processing);

/// The capacity model of Section 5.3: with average per-source time tS,
/// merge time tM and n sources, p machines produce an update in
/// tU = tS * n / p + tM.
double ModeledUpdateSeconds(double ts_per_source, std::size_t n, int mappers,
                            double tm_merge);

/// Minimum number of machines needed to keep tU below the inter-arrival
/// time tI (p' > tS * n / (tI - tM)); returns 0 when tI <= tM, i.e. the
/// serial part alone already misses the deadline (Section 5.3's caveat).
int RequiredMappers(double ts_per_source, std::size_t n,
                    double inter_arrival_seconds, double tm_merge);

}  // namespace sobc

#endif  // SOBC_PARALLEL_ONLINE_SCHEDULER_H_
