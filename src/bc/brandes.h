#ifndef SOBC_BC_BRANDES_H_
#define SOBC_BC_BRANDES_H_

#include <cstdint>

#include "bc/bc_types.h"
#include "bc/bd_store.h"
#include "common/status.h"
#include "graph/graph.h"
#include "graph/msbfs.h"

namespace sobc {

/// Options for the Brandes baseline (Section 2).
struct BrandesOptions {
  /// MP variant builds and backtracks over predecessor lists; MO/DO scan
  /// neighbors and filter by level (the paper's memory optimization).
  PredMode pred_mode = PredMode::kScanNeighbors;
  /// Also accumulate edge betweenness (Brandes 2008 variant, Section 3).
  bool compute_ebc = true;
  /// Multi-source entry points (ComputeBrandesRange, InitializeFromScratch)
  /// run their searches 64 sources at a time through the bit-parallel
  /// MS-BFS kernel, then finish each source with a level-ordered sigma pass
  /// and dependency sweep over a contiguous BFS-order slab (DESIGN.md §14).
  /// Distances and sigmas are identical to the per-source search; delta/ebc
  /// doubles may differ in the last ulps (summation order).
  bool use_msbfs = true;
  MsBfsOptions msbfs;
};

/// Runs one source's BFS and dependency accumulation. Fills `data`
/// (distance/sigma/delta per vertex, plus predecessor lists in MP mode) and,
/// when `scores` is non-null, adds this source's dependency contributions to
/// the vertex and edge betweenness sums.
///
/// `sources_begin..` contributions follow the ordered-pair convention (see
/// BcScores). Works for directed and undirected graphs.
void BrandesSingleSource(const Graph& graph, VertexId s,
                         const BrandesOptions& options, SourceBcData* data,
                         BcScores* scores);

/// Computes exact betweenness centrality of every vertex (and edge, unless
/// disabled) by running BrandesSingleSource from every vertex. O(nm) time.
BcScores ComputeBrandes(const Graph& graph, const BrandesOptions& options = {});

/// Computes betweenness for the range of sources [begin, end) only,
/// accumulating partial sums into `scores` (used by the parallel engine).
void ComputeBrandesRange(const Graph& graph, VertexId begin, VertexId end,
                         const BrandesOptions& options, BcScores* scores);

/// Step 1 of the framework (Figure 1): runs Brandes once per owned source
/// and stores BD[s] into `store`, accumulating score partials into
/// `scores`. The default range covers every source; a shard worker passes
/// its partition [source_begin, source_limit) and gets the per-shard
/// partial sums of the parallel embodiment (Section 5.2) — summing the
/// partials over a covering set of shards reproduces the full scores.
/// source_limit == kInvalidVertex means "through the last vertex".
Status InitializeFromScratch(const Graph& graph, const BrandesOptions& options,
                             BdStore* store, BcScores* scores,
                             VertexId source_begin = 0,
                             VertexId source_limit = kInvalidVertex);

}  // namespace sobc

#endif  // SOBC_BC_BRANDES_H_
