#include "parallel/score_reduce.h"

#include <algorithm>

#include "common/timer.h"

namespace sobc {

double TreeReduceScores(ThreadPool* pool, std::span<BcScores*> partials) {
  const std::size_t p = partials.size();
  if (p <= 1) return 0.0;
  if (pool == nullptr || p == 2) {
    const double start = ThreadCpuSeconds();
    for (std::size_t i = 1; i < p; ++i) partials[0]->Merge(*partials[i]);
    return ThreadCpuSeconds() - start;
  }
  double critical = 0.0;
  std::vector<std::size_t> left;
  std::vector<double> seconds;
  for (std::size_t stride = 1; stride < p; stride *= 2) {
    // Round: partials[i] absorbs partials[i + stride] for every even
    // multiple i of 2*stride; pairs are disjoint, so they merge in
    // parallel.
    left.clear();
    for (std::size_t i = 0; i + stride < p; i += 2 * stride) {
      left.push_back(i);
    }
    seconds.assign(left.size(), 0.0);
    auto merge = [&](std::size_t k) {
      const double start = ThreadCpuSeconds();
      partials[left[k]]->Merge(*partials[left[k] + stride]);
      seconds[k] = ThreadCpuSeconds() - start;
    };
    if (left.size() == 1) {
      merge(0);
    } else {
      ParallelFor(pool, left.size(), merge);
    }
    critical += *std::max_element(seconds.begin(), seconds.end());
  }
  return critical;
}

}  // namespace sobc
