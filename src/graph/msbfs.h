#ifndef SOBC_GRAPH_MSBFS_H_
#define SOBC_GRAPH_MSBFS_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "bc/bc_types.h"
#include "common/logging.h"
#include "graph/csr_view.h"

namespace sobc {

/// Tuning knobs of the bit-parallel multi-source BFS (DESIGN.md §14).
struct MsBfsOptions {
  /// Switch between top-down and bottom-up frontier expansion per level
  /// (Beamer-style direction optimization). Off = always top-down, which
  /// is what the scalar BFS the kernel replaces effectively did.
  bool direction_optimizing = true;
  /// Top-down -> bottom-up when the frontier's outgoing edges exceed
  /// unexplored_edges / alpha: the frontier is dense enough that scanning
  /// the unvisited side and asking "does any parent reach me?" touches
  /// fewer edges than pushing the whole frontier outward. Exposed as
  /// `--do-switch-threshold`; larger values switch later.
  double alpha = 14.0;
  /// Bottom-up -> top-down when the frontier shrinks below n / beta
  /// (the tail levels, where scanning every unvisited vertex is waste).
  double beta = 24.0;
};

/// Per-run observability: one `batches` tick per kernel invocation, plus
/// how many levels ran in each direction (the serve layer surfaces
/// msbfs_batches / bottom_up_levels).
struct MsBfsStats {
  std::uint64_t batches = 0;
  std::uint64_t top_down_levels = 0;
  std::uint64_t bottom_up_levels = 0;

  void Merge(const MsBfsStats& other) {
    batches += other.batches;
    top_down_levels += other.top_down_levels;
    bottom_up_levels += other.bottom_up_levels;
  }
};

/// Reusable scratch of the MS-BFS kernel: per-vertex visited/frontier
/// bit-masks plus the frontier worklists, sized once per graph and reused
/// across batches and updates (each apply worker owns one instance — the
/// kernel itself never allocates after the first Reserve at a given n).
/// Members are kernel-owned; callers treat them as opaque and only read
/// the accessors.
struct MsBfsScratch {
  /// Lanes per batch: one bit of a uint64_t word per concurrent source.
  static constexpr std::size_t kLanes = 64;

  /// Grows (never shrinks) every buffer to an n-vertex graph and clears
  /// the per-run state. Counts real capacity growth in allocation_events.
  void Reserve(std::size_t n);

  /// Also sizes the internal per-lane distance slab (lanes * n entries)
  /// for callers that do not keep their own per-source distance arrays
  /// (the incremental engine's batched structural path).
  void ReserveLanes(std::size_t n);

  /// Pointer to the slab row of `lane` (valid after ReserveLanes).
  Distance* LaneDistances(std::size_t lane) {
    return lane_dist_.data() + lane * lane_n_;
  }

  /// Number of times any internal buffer actually grew its capacity.
  /// Steady-state batches at a fixed graph size must not move this — the
  /// TSAN-exercised parallel apply asserts it stays flat across updates.
  std::uint64_t allocation_events() const { return allocation_events_; }

  // -- kernel-owned state --
  std::vector<std::uint64_t> visit_;  // lanes that have discovered v
  std::vector<std::uint64_t> front_;  // lanes whose frontier holds v
  std::vector<std::uint64_t> next_;   // lanes discovering v this level
  std::vector<VertexId> frontier_;
  std::vector<VertexId> next_frontier_;
  std::vector<Distance> lane_dist_;
  std::size_t lane_n_ = 0;
  std::uint64_t allocation_events_ = 0;
};

/// Bit-parallel multi-source BFS (Then et al., VLDB'14 style): one pass
/// over the adjacency advances up to 64 traversals at once, with one
/// uint64_t visited/frontier mask per vertex, plus direction-optimizing
/// top-down/bottom-up switching for the dense middle levels.
///
/// `sources[i]` is lane i; `dist[i]` must point to an n-entry array that
/// receives lane i's exact hop distances (kUnreachable where the lane
/// never arrives). Distances are integers, so they are bit-identical to a
/// scalar BFS from the same source whatever the traversal order — the
/// property the prefilter's skip-set proof rides on (DESIGN.md §14).
///
/// `reverse` traverses InNeighbors instead of OutNeighbors — the directed
/// prefilter's "distances *to* the root" orientation. Undirected graphs
/// are insensitive to it.
inline void MsBfsRun(const CsrView& adj, std::span<const VertexId> sources,
                     bool reverse, const MsBfsOptions& options,
                     MsBfsScratch* scratch, std::span<Distance* const> dist,
                     MsBfsStats* stats = nullptr) {
  const std::size_t n = adj.NumVertices();
  const std::size_t lanes = sources.size();
  SOBC_CHECK(lanes > 0 && lanes <= MsBfsScratch::kLanes);
  SOBC_CHECK(dist.size() == lanes);
  scratch->Reserve(n);

  auto forward = [&](VertexId v) {
    return reverse ? adj.InNeighbors(v) : adj.OutNeighbors(v);
  };
  auto backward = [&](VertexId v) {
    return reverse ? adj.OutNeighbors(v) : adj.InNeighbors(v);
  };
  auto forward_degree = [&](VertexId v) {
    return reverse ? adj.InDegree(v) : adj.OutDegree(v);
  };

  for (std::size_t i = 0; i < lanes; ++i) {
    std::fill_n(dist[i], n, kUnreachable);
  }

  std::vector<std::uint64_t>& visit = scratch->visit_;
  std::vector<std::uint64_t>& front = scratch->front_;
  std::vector<std::uint64_t>& next = scratch->next_;
  std::vector<VertexId>& frontier = scratch->frontier_;
  std::vector<VertexId>& next_frontier = scratch->next_frontier_;

  const std::uint64_t full =
      lanes == MsBfsScratch::kLanes ? ~0ULL : (1ULL << lanes) - 1;

  // Level 0: duplicate sources simply share their vertex's mask bits.
  frontier.clear();
  for (std::size_t i = 0; i < lanes; ++i) {
    const VertexId s = sources[i];
    SOBC_CHECK(s < n);
    const std::uint64_t bit = 1ULL << i;
    if (visit[s] == 0) frontier.push_back(s);
    visit[s] |= bit;
    front[s] |= bit;
    dist[i][s] = 0;
  }

  // The direction heuristic's edge budget: how much of the graph the
  // union of the traversals has not yet pulled through the frontier.
  std::uint64_t unexplored = 0;
  for (VertexId v = 0; v < n; ++v) unexplored += forward_degree(v);

  bool top_down = true;
  Distance level = 0;
  while (!frontier.empty()) {
    std::uint64_t frontier_edges = 0;
    for (VertexId u : frontier) frontier_edges += forward_degree(u);
    if (options.direction_optimizing) {
      if (top_down &&
          static_cast<double>(frontier_edges) * options.alpha >
              static_cast<double>(unexplored)) {
        top_down = false;
      } else if (!top_down &&
                 static_cast<double>(frontier.size()) * options.beta <
                     static_cast<double>(n)) {
        top_down = true;
      }
    }
    ++level;
    next_frontier.clear();
    if (top_down) {
      if (stats != nullptr) ++stats->top_down_levels;
      for (const VertexId u : frontier) {
        const std::uint64_t f = front[u];
        for (const VertexId w : forward(u)) {
          const std::uint64_t diff = f & ~visit[w];
          if (diff == 0) continue;
          if (next[w] == 0) next_frontier.push_back(w);
          next[w] |= diff;
        }
      }
    } else {
      if (stats != nullptr) ++stats->bottom_up_levels;
      for (VertexId w = 0; w < n; ++w) {
        const std::uint64_t missing = full & ~visit[w];
        if (missing == 0) continue;
        std::uint64_t acc = 0;
        for (const VertexId v : backward(w)) {
          acc |= front[v];
          if ((acc & missing) == missing) break;
        }
        const std::uint64_t gained = acc & missing;
        if (gained != 0) {
          next[w] = gained;
          next_frontier.push_back(w);
        }
      }
    }
    unexplored -= std::min<std::uint64_t>(unexplored, frontier_edges);
    for (const VertexId u : frontier) front[u] = 0;
    frontier.swap(next_frontier);
    for (const VertexId w : frontier) {
      std::uint64_t m = next[w];
      next[w] = 0;
      front[w] = m;
      visit[w] |= m;
      while (m != 0) {
        const int b = std::countr_zero(m);
        m &= m - 1;
        dist[b][w] = level;
      }
    }
  }

  // Leave the masks clean for the next batch: one linear pass over the two
  // word arrays (the frontier lists are already empty). memset-shaped, so
  // it costs far less than the traversal it follows.
  std::fill(visit.begin(), visit.begin() + static_cast<std::ptrdiff_t>(n), 0);
  std::fill(front.begin(), front.begin() + static_cast<std::ptrdiff_t>(n), 0);

  if (stats != nullptr) ++stats->batches;
}

/// Canonical BFS-tree parents derived from a finished distance array: the
/// minimum-id backward neighbor one level up (kInvalidVertex for the source
/// and for unreached vertices). Deterministic in the distances alone, so
/// batched and scalar kernels agree exactly — the contract msbfs_test pins.
inline void MsBfsCanonicalParents(const CsrView& adj, bool reverse,
                                  std::span<const Distance> dist,
                                  std::vector<VertexId>* parent) {
  const std::size_t n = adj.NumVertices();
  parent->assign(n, kInvalidVertex);
  for (VertexId v = 0; v < n; ++v) {
    const Distance d = dist[v];
    if (d == kUnreachable || d == 0) continue;
    VertexId best = kInvalidVertex;
    const auto parents = reverse ? adj.OutNeighbors(v) : adj.InNeighbors(v);
    for (const VertexId u : parents) {
      if (dist[u] + 1 == d && (best == kInvalidVertex || u < best)) best = u;
    }
    (*parent)[v] = best;
  }
}

}  // namespace sobc

#endif  // SOBC_GRAPH_MSBFS_H_
