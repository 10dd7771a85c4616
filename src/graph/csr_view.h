#ifndef SOBC_GRAPH_CSR_VIEW_H_
#define SOBC_GRAPH_CSR_VIEW_H_

#include <cstdint>
#include <span>
#include <vector>

namespace sobc {

/// Dense vertex identifier; vertices are 0..NumVertices()-1.
using VertexId = std::uint32_t;

inline constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);

/// An edge key. For undirected graphs the canonical form has u <= v so the
/// same key is produced regardless of insertion order; for directed graphs
/// the key is (source, target) as-is.
struct EdgeKey {
  VertexId u = kInvalidVertex;
  VertexId v = kInvalidVertex;

  /// Canonical undirected key (endpoints sorted).
  static EdgeKey Undirected(VertexId a, VertexId b) {
    return a <= b ? EdgeKey{a, b} : EdgeKey{b, a};
  }

  friend bool operator==(const EdgeKey&, const EdgeKey&) = default;
  friend bool operator<(const EdgeKey& a, const EdgeKey& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  }
};

/// Canonical key for an edge of a graph with the given orientation mode.
inline EdgeKey MakeEdgeKey(bool directed, VertexId u, VertexId v) {
  return directed ? EdgeKey{u, v} : EdgeKey::Undirected(u, v);
}

/// Hash functor for EdgeKey-keyed hash maps.
struct EdgeKeyHash {
  std::size_t operator()(const EdgeKey& e) const {
    // Splittable 64-bit mix of the packed endpoints.
    std::uint64_t x =
        (static_cast<std::uint64_t>(e.u) << 32) | static_cast<std::uint64_t>(e.v);
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ULL;
    x ^= x >> 33;
    return static_cast<std::size_t>(x);
  }
};

/// The adjacency store of a Graph: one contiguous neighbor arena per
/// direction plus a {begin, count} slot pair per vertex, so the traversal
/// hot paths (Brandes sweeps, incremental repair, analysis BFS) walk flat
/// memory instead of pointer-chasing per-vertex lists. A Graph owns exactly
/// one, by value, and validates every mutation before forwarding it here.
///
/// Mutation is O(degree) per edge:
///   * every vertex block carries slack capacity, so most additions write
///     in place;
///   * a full block relocates to the end of the arena with doubled capacity
///     when it overflows (amortized O(1) slots per addition);
///   * removal swap-erases within the block;
///   * when a third of the arena is dead (abandoned blocks), one
///     compaction pass rewrites it — amortized O(1) per mutation, and the
///     only operation that moves blocks of untouched vertices.
/// Neighbor order is part of the contract (DESIGN.md §6): an addition
/// appends, a removal moves the block's last entry into the hole, and
/// relocation and compaction copy blocks verbatim.
///
/// Spans returned by OutNeighbors/InNeighbors are invalidated by *any*
/// mutation of the store — an addition may grow, and so move, the whole
/// arena.
///
/// Thread safety: concurrent readers are safe; any mutation must be
/// exclusive. Each DynamicBc apply lane steps its own graph replica
/// (DESIGN.md §9), so no store is read while another thread mutates it.
class CsrView {
 public:
  /// Observability counters; `builds` counts bulk loads (Build), which no
  /// edge-by-edge mutation ever triggers.
  struct Stats {
    std::uint64_t builds = 0;       // bulk loads from explicit lists
    std::uint64_t patches = 0;      // O(degree) edge mutations applied
    std::uint64_t relocations = 0;  // vertex blocks moved for headroom
    std::uint64_t compactions = 0;  // arena garbage-collection passes
  };

  explicit CsrView(bool directed = false) : directed_(directed) {}

  /// Replaces the contents with the given lists, copied verbatim with
  /// per-vertex slack. `in` is ignored for undirected views and must be
  /// parallel to `out` for directed ones; entries must be < out.size().
  void Build(std::span<const std::vector<VertexId>> out,
             std::span<const std::vector<VertexId>> in);

  const Stats& stats() const { return stats_; }

  std::size_t NumVertices() const { return out_.slots.size(); }
  bool directed() const { return directed_; }
  EdgeKey MakeKey(VertexId u, VertexId v) const {
    return MakeEdgeKey(directed_, u, v);
  }

  /// Neighbors reachable by following an edge out of v (search direction).
  std::span<const VertexId> OutNeighbors(VertexId v) const {
    const Slot& s = out_.slots[v];
    return {out_.arena.data() + s.begin, s.count};
  }

  /// Neighbors with an edge into v (backtracking direction). Equal to
  /// OutNeighbors for undirected graphs.
  std::span<const VertexId> InNeighbors(VertexId v) const {
    const Arena& a = directed_ ? in_ : out_;
    const Slot& s = a.slots[v];
    return {a.arena.data() + s.begin, s.count};
  }

  std::size_t OutDegree(VertexId v) const { return out_.slots[v].count; }
  std::size_t InDegree(VertexId v) const {
    return directed_ ? in_.slots[v].count : out_.slots[v].count;
  }

  // --- mutation API -------------------------------------------------------
  // Graph calls these from its own mutators after validating the edge; each
  // is O(degree) of the touched endpoints (amortized for the
  // relocation/compaction share).

  /// Grows the vertex set to `n` vertices; new vertices start isolated.
  void Grow(std::size_t n);

  /// Appends edge (u, v). Endpoints must exist and the edge must be absent.
  void AddEdge(VertexId u, VertexId v);

  /// Swap-erases edge (u, v); returns false (and changes nothing) when the
  /// edge is absent.
  bool RemoveEdge(VertexId u, VertexId v);

 private:
  /// Hot per-vertex metadata: one 8-byte pair so a traversal touches a
  /// single cache line for block lookup. Capacity lives in a separate
  /// (cold) array — it is only read on mutation.
  struct Slot {
    std::uint32_t begin = 0;
    std::uint32_t count = 0;
  };
  struct Arena {
    std::vector<VertexId> arena;
    std::vector<Slot> slots;
    std::vector<std::uint32_t> cap;  // block capacity, mutation-only
    std::size_t dead = 0;            // slots abandoned by relocations
  };

  void ArenaAdd(Arena* a, VertexId u, VertexId v);
  bool ArenaRemove(Arena* a, VertexId u, VertexId v);
  void Relocate(Arena* a, VertexId u, std::uint32_t new_cap);
  void MaybeCompact(Arena* a);

  bool directed_ = false;
  Stats stats_;
  Arena out_;
  Arena in_;  // used only when directed_
};

}  // namespace sobc

#endif  // SOBC_GRAPH_CSR_VIEW_H_
