#ifndef SOBC_PARALLEL_SCORE_REDUCE_H_
#define SOBC_PARALLEL_SCORE_REDUCE_H_

#include <span>

#include "bc/bc_types.h"
#include "parallel/thread_pool.h"

namespace sobc {

/// Folds partials[1..] into *partials[0] with a binary reduction tree:
/// ceil(log2(p)) rounds of pairwise BcScores::Merge, the merges of each
/// round running concurrently on the pool. A serial left fold touches
/// partial 0's (large, cache-cold) vbc array p-1 times on one thread; the
/// tree does the same total work but its rounds halve the survivor count,
/// so the drain's reduce step stops being the serial tail Amdahl charges
/// against every added worker. With a null pool the fold degrades to the
/// serial loop.
///
/// Returns the fold's critical path in thread CPU seconds: per round, the
/// slowest merge (the whole fold when it runs serially). That is the
/// reduce's wall clock on a cluster with a reducer per pair, however many
/// pool threads share this host's cores (DESIGN.md substitution 3).
double TreeReduceScores(ThreadPool* pool, std::span<BcScores*> partials);

}  // namespace sobc

#endif  // SOBC_PARALLEL_SCORE_REDUCE_H_
