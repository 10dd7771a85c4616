#include "parallel/online_scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace sobc {

void DeadlineAccounting::Record(double arrival, double finish) {
  ++acc_.total_updates;
  if (has_pending_) {
    // The previous update's deadline is this arrival (tU < tI rule).
    ++acc_.deadline_updates;
    acc_.inter_arrival_seconds.push_back(arrival - pending_arrival_);
    if (pending_finish_ > arrival) {
      ++acc_.missed;
      total_delay_ += pending_finish_ - arrival;
    }
  }
  has_pending_ = true;
  pending_arrival_ = arrival;
  pending_finish_ = finish;
}

OnlineReplayResult DeadlineAccounting::Result() const {
  OnlineReplayResult result = acc_;
  if (result.deadline_updates > 0) {
    result.missed_fraction = static_cast<double>(result.missed) /
                             static_cast<double>(result.deadline_updates);
  }
  if (result.missed > 0) {
    result.avg_delay_seconds =
        total_delay_ / static_cast<double>(result.missed);
  }
  return result;
}

OnlineReplayResult SimulateQueue(const std::vector<double>& arrivals,
                                 const std::vector<double>& processing) {
  DeadlineAccounting accounting;
  double finish_prev = arrivals.empty() ? 0.0 : arrivals.front();
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const double start = std::max(arrivals[i], finish_prev);
    const double finish = start + processing[i];
    finish_prev = finish;
    accounting.Record(arrivals[i], finish);
  }
  OnlineReplayResult result = accounting.Result();
  result.update_seconds = processing;
  return result;
}

Result<OnlineReplayResult> ReplayOnline(DynamicBc* bc,
                                        const EdgeStream& stream) {
  std::vector<double> arrivals;
  std::vector<double> processing;
  arrivals.reserve(stream.size());
  processing.reserve(stream.size());
  double prev = stream.empty() ? 0.0 : stream.front().timestamp;
  for (const EdgeUpdate& update : stream) {
    if (update.timestamp < prev) {
      return Status::InvalidArgument(
          "stream timestamps must be non-decreasing");
    }
    prev = update.timestamp;
    SOBC_RETURN_NOT_OK(bc->Apply(update));
    arrivals.push_back(update.timestamp);
    processing.push_back(bc->last_timing().ModeledWallSeconds());
  }
  return SimulateQueue(arrivals, processing);
}

double ModeledUpdateSeconds(double ts_per_source, std::size_t n, int mappers,
                            double tm_merge) {
  if (mappers <= 0) return std::numeric_limits<double>::infinity();
  return ts_per_source * static_cast<double>(n) / mappers + tm_merge;
}

int RequiredMappers(double ts_per_source, std::size_t n,
                    double inter_arrival_seconds, double tm_merge) {
  const double budget = inter_arrival_seconds - tm_merge;
  if (budget <= 0.0) return 0;  // serial part alone blows the deadline
  const double p = ts_per_source * static_cast<double>(n) / budget;
  return static_cast<int>(std::floor(p)) + 1;
}

}  // namespace sobc
