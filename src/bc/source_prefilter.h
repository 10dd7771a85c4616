#ifndef SOBC_BC_SOURCE_PREFILTER_H_
#define SOBC_BC_SOURCE_PREFILTER_H_

#include <vector>

#include "bc/bc_types.h"
#include "common/status.h"
#include "graph/edge_stream.h"
#include "graph/graph.h"
#include "graph/msbfs.h"

namespace sobc {

/// Affected-source prefilter (Proposition 3.1, turned inside out).
///
/// The per-source skip test — d(s,u) == d(s,v) for undirected graphs — is
/// normally answered by peeking at BD[s], i.e. one store probe per source
/// and, for the out-of-core variant, one positioned read per skipped
/// source. But the same distances are available from the *other* end: two
/// BFS traversals from the update endpoints compute d(u,s) and d(v,s) for
/// every s at once (reverse BFS for directed graphs), so the whole skip set
/// falls out of O(n + m) work per update without touching a single BD
/// column. What remains is a compact dirty-source worklist — the unit the
/// parallel apply shards across workers.
///
/// The two endpoint traversals run as one 2-lane MS-BFS call (msbfs.h) by
/// default: one pass over the adjacency fills d(·,u) and d(·,v) together,
/// halving the cache traffic of the filter. Distances are integers, so the
/// skip set is bit-identical to the two-pass scalar fill whichever kernel
/// runs — the equivalence proof of DESIGN.md §9 is untouched (§14).
///
/// The filter runs against the graph *after* the update has been applied to
/// it (the state every engine entry point already requires). Equivalence
/// with the engine's old-distance skip test is an invariant, not luck — see
/// DESIGN.md §9 for the four-case proof sketch. In short, for undirected
/// graphs d_new(s,u) == d_new(s,v) iff d_old(s,u) == d_old(s,v), and for
/// directed graphs "affected" is exactly d_new(s,u) finite and
/// d_new(s,v) > d_new(s,u), for additions and removals alike.
///
/// Not thread-safe; each apply lane owns one and runs it once per update
/// over its share of the sources.
class SourcePrefilter {
 public:
  /// Fills `dirty` (ascending) with every source in [begin, end) (clipped
  /// to the graph) that the update may affect — one apply lane's share.
  /// `graph` must already reflect the update (edge present for additions,
  /// absent for removals). The endpoint traversals still cover the whole
  /// graph; only the collection scan narrows.
  Status Build(const Graph& graph, const EdgeUpdate& update, VertexId begin,
               VertexId end, std::vector<VertexId>* dirty);

  /// Same over every source. Kept only for perfbench/driver.cc, whose
  /// serial decomposition still passes the retired traversal selector:
  /// `true` (the graph's CsrView, the one adjacency there is) is the only
  /// accepted value; `false` is InvalidArgument.
  Status Build(const Graph& graph, const EdgeUpdate& update, bool csr,
               std::vector<VertexId>* dirty) {
    if (!csr) {
      return Status::InvalidArgument(
          "the prefilter always traverses the graph's CsrView");
    }
    return Build(graph, update, 0, kInvalidVertex, dirty);
  }

  /// Selects the traversal kernel: 2-lane MS-BFS (default) or the scalar
  /// two-pass baseline, with the direction-switch tuning to use.
  void ConfigureMsBfs(bool enabled, const MsBfsOptions& options) {
    use_msbfs_ = enabled;
    msbfs_options_ = options;
  }

  /// Kernel counters of the most recent Build (zeroed per call; empty when
  /// the scalar path ran).
  const MsBfsStats& last_stats() const { return last_stats_; }

  /// The reusable 2-lane scratch — exposed so tests can assert the
  /// steady-state allocation-free guarantee.
  const MsBfsScratch& scratch() const { return scratch_; }

 private:
  void Run(const CsrView& adj, const EdgeUpdate& update, VertexId begin,
           VertexId end, std::vector<VertexId>* dirty);
  void Bfs(const CsrView& adj, VertexId root, std::vector<Distance>* dist);

  bool use_msbfs_ = true;
  MsBfsOptions msbfs_options_;
  MsBfsStats last_stats_;
  MsBfsScratch scratch_;

  // Scratch reused across updates: d(·,u), d(·,v) and the BFS queue.
  std::vector<Distance> du_;
  std::vector<Distance> dv_;
  std::vector<VertexId> queue_;
};

}  // namespace sobc

#endif  // SOBC_BC_SOURCE_PREFILTER_H_
