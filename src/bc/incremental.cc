#include "bc/incremental.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "graph/csr_view.h"

namespace sobc {

namespace {

/// True when a vertex at distance dp is a DAG predecessor of one at dx
/// (both reachable and exactly one level apart). Written with explicit
/// finiteness guards: kUnreachable+1 would wrap.
bool IsPredLevel(Distance dp, Distance dx) {
  return dp != kUnreachable && dx != kUnreachable && dp + 1 == dx;
}

constexpr std::uint32_t kNoPredPatch = static_cast<std::uint32_t>(-1);

}  // namespace

void IncrementalEngine::EnsureScratch(std::size_t n) {
  if (overlay_.size() >= n) return;
  stamp_.resize(n, 0);
  overlay_.resize(n);
  orphan_.resize(n);
  if (repair_q_.size() < n + 1) repair_q_.resize(n + 1);
  if (lq_.size() < n + 1) lq_.resize(n + 1);
  if (orphan_q_.size() < n + 1) orphan_q_.resize(n + 1);
}

void IncrementalEngine::BeginSource() {
  if (epoch_ == static_cast<std::uint32_t>(-1)) {
    std::fill(stamp_.begin(), stamp_.end(), 0);
    for (OrphanMark& o : orphan_) o.stamp = 0;
    epoch_ = 0;
  }
  ++epoch_;
  for (Distance level : repair_used_) repair_q_[level].clear();
  for (Distance level : lq_used_) lq_[level].clear();
  for (Distance level : orphan_used_) orphan_q_[level].clear();
  repair_used_.clear();
  lq_used_.clear();
  orphan_used_.clear();
  unreachable_.clear();
  touched_list_.clear();
  moved_list_.clear();
  stale_seen_.clear();
  patches_.clear();
  pred_patches_.clear();
  repair_max_ = 0;
  lq_max_ = 0;
}

void IncrementalEngine::Touch(const SourceContext& cx, VertexId v,
                              std::uint8_t state) {
  SOBC_DCHECK(!IsTouched(v));
  stamp_[v] = epoch_;
  overlay_[v].state = state;
  overlay_[v].d = cx.view.d[v];
  overlay_[v].sigma = cx.view.sigma[v];
  overlay_[v].delta = cx.view.delta[v];
  overlay_[v].pred_idx = kNoPredPatch;
  touched_list_.push_back(v);
}

void IncrementalEngine::PullUp(const SourceContext& cx, VertexId v) {
  Touch(cx, v, kUp);
  // Pulled vertices keep their distance; they can only be old-reachable
  // fringe predecessors, so the level is always finite.
  SOBC_DCHECK(cx.view.d[v] != kUnreachable);
  PushLq(v, cx.view.d[v]);
}

void IncrementalEngine::PushRepair(VertexId v, Distance level) {
  SOBC_DCHECK(level < repair_q_.size());
  if (repair_q_[level].empty()) repair_used_.push_back(level);
  repair_q_[level].push_back(v);
  repair_max_ = std::max(repair_max_, level);
}

void IncrementalEngine::PushLq(VertexId v, Distance level) {
  if (level == kUnreachable) {
    unreachable_.push_back(v);
    return;
  }
  SOBC_DCHECK(level < lq_.size());
  if (lq_[level].empty()) lq_used_.push_back(level);
  lq_[level].push_back(v);
  lq_max_ = std::max(lq_max_, level);
}

int IncrementalEngine::OldRelation(const SourceContext& cx, VertexId a,
                                   VertexId b) const {
  // The freshly added edge carried no shortest paths before the update.
  if (cx.is_addition && MakeEdgeKey(cx.directed, a, b) == cx.update_key) {
    return 0;
  }
  const Distance da = cx.view.d[a];
  const Distance db = cx.view.d[b];
  if (IsPredLevel(da, db)) return 1;
  if (!cx.directed && IsPredLevel(db, da)) return -1;
  return 0;
}

int IncrementalEngine::NewRelation(const SourceContext& cx, VertexId a,
                                   VertexId b) const {
  const Distance da = EffD(cx, a);
  const Distance db = EffD(cx, b);
  if (IsPredLevel(da, db)) return 1;
  if (!cx.directed && IsPredLevel(db, da)) return -1;
  return 0;
}

// ---------------------------------------------------------------------------
// Phase 1 (removal): orphan classification, Section 4.3 / Alg. 6.
//
// A vertex is an orphan when every one of its old shortest paths crossed the
// removed edge; equivalently (by induction down the SPdag) uL is an orphan
// and a deeper vertex is an orphan iff all its DAG predecessors are orphans.
// Non-orphan candidates are the paper's pivots: they keep their distance but
// lose path counts, so they seed the sigma repair.
// ---------------------------------------------------------------------------
template <class Adj>
void IncrementalEngine::ClassifyOrphans(const Adj& adj,
                                        const SourceContext& cx) {
  const Distance root_level = cx.view.d[cx.u_low];
  SOBC_DCHECK(root_level != kUnreachable);

  auto mark = [&](VertexId v, std::uint8_t st) {
    orphan_[v].stamp = epoch_;
    orphan_[v].state = st;
  };
  auto is_orphan = [&](VertexId v) {
    return orphan_[v].stamp == epoch_ && orphan_[v].state == kOrphan;
  };

  mark(cx.u_low, kOrphan);
  moved_list_.push_back(cx.u_low);
  if (orphan_q_[root_level].empty()) orphan_used_.push_back(root_level);
  orphan_q_[root_level].push_back(cx.u_low);
  Distance max_level = root_level;

  // Level-synchronous sweep: all level-l orphans are classified while
  // processing level l-1, so the all-predecessors-orphan test at level l+1
  // only ever reads settled classifications.
  for (Distance level = root_level; level <= max_level; ++level) {
    if (level >= orphan_q_.size()) break;
    auto& bucket = orphan_q_[level];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const VertexId v = bucket[i];
      for (VertexId w : adj.OutNeighbors(v)) {
        if (orphan_[w].stamp == epoch_) continue;
        if (!IsPredLevel(cx.view.d[v], cx.view.d[w])) continue;
        bool all_orphan = true;
        for (VertexId u : adj.InNeighbors(w)) {
          if (IsPredLevel(cx.view.d[u], cx.view.d[w]) && !is_orphan(u)) {
            all_orphan = false;
            break;
          }
        }
        if (all_orphan) {
          mark(w, kOrphan);
          moved_list_.push_back(w);
          const Distance next = level + 1;
          if (orphan_q_[next].empty()) orphan_used_.push_back(next);
          orphan_q_[next].push_back(w);
          max_level = std::max(max_level, next);
        } else {
          // A pivot in the paper's terminology: distance intact, but the
          // orphaned predecessors take their path counts with them.
          mark(w, kSurvivor);
          Touch(cx, w, kPending);
          PushRepair(w, cx.view.d[w]);
        }
      }
    }
  }
}

// Seeds the re-BFS for orphans: each orphan's tentative new distance is one
// past its best surviving neighbor (the pivots of Def. 3.2). Orphans with no
// surviving neighbor stay unreachable unless relaxed through other orphans.
template <class Adj>
void IncrementalEngine::RepairDistancesRemoval(const Adj& adj,
                                               const SourceContext& cx) {
  for (VertexId v : moved_list_) {
    Touch(cx, v, kPending);
    overlay_[v].d = kUnreachable;
    overlay_[v].sigma = 0;
    overlay_[v].delta = 0.0;
  }
  for (VertexId v : moved_list_) {
    Distance best = kUnreachable;
    for (VertexId u : adj.InNeighbors(v)) {
      if (orphan_[u].stamp == epoch_ && orphan_[u].state == kOrphan) continue;
      const Distance du = cx.view.d[u];
      if (du == kUnreachable) continue;
      best = std::min(best, du + 1);
    }
    if (best != kUnreachable) {
      overlay_[v].d = best;
      PushRepair(v, best);
    }
  }
}

// ---------------------------------------------------------------------------
// Batched seeding (DESIGN.md §14): a MS-BFS batch already computed this
// source's final post-update distances, so instead of discovering the moved
// region through per-source relaxation the repair queues are seeded with
// final levels directly. RepairSigmas' relax conditions compare neighbor
// distances one level apart; against final BFS distances the triangle
// inequality makes them unsatisfiable, so the sweep degenerates to the pure
// sigma recount — same pops, same integer results, same touched set.
// ---------------------------------------------------------------------------

// Addition: the moved set is exactly {v : d_new(v) != d_old(v)} (additions
// only shrink distances). A flat two-column compare over the distance
// arrays — branch-light and auto-vectorizable — replaces the relax-BFS.
void IncrementalEngine::SeedMovedFromDistances(const SourceContext& cx,
                                               std::size_t n,
                                               const Distance* new_d) {
  // `n` is the adjacency's vertex count — the lane slab's extent. The BD
  // store may already hold columns for vertices a later update of the same
  // batch introduces (cx.view.n > n); those are isolated, hence unmoved.
  SOBC_DCHECK(n <= cx.view.n);
  const Distance* old_d = cx.view.d;
  for (VertexId v = 0; v < n; ++v) {
    if (new_d[v] == old_d[v]) continue;
    SOBC_DCHECK(new_d[v] != kUnreachable);
    Touch(cx, v, kPending);
    overlay_[v].d = new_d[v];
    moved_list_.push_back(v);
    PushRepair(v, new_d[v]);
  }
}

// Removal: the moved set is the orphan set ClassifyOrphans already found
// (a vertex's distance grows iff it lost every old shortest path); give
// each orphan its final distance — kUnreachable ones are the split-off
// component, settled by RepairSigmas' pending sweep exactly as before.
void IncrementalEngine::SeedOrphansFromDistances(const SourceContext& cx,
                                                 const Distance* new_d) {
  for (const VertexId v : moved_list_) {
    Touch(cx, v, kPending);
    overlay_[v].d = new_d[v];
    overlay_[v].sigma = 0;
    overlay_[v].delta = 0.0;
    if (new_d[v] != kUnreachable) PushRepair(v, new_d[v]);
  }
}

// ---------------------------------------------------------------------------
// Phase 2: sigma repair (and, folded in, the remaining distance relaxation).
//
// Level-ascending sweep with lazy queue deletion. Popping a vertex at its
// final level recounts its shortest paths from its (already settled)
// predecessors, classifies it as changed (DN) or untouched-in-value (UP),
// relaxes distance offers downward (addition: anyone closer via the new
// edge; removal: other orphans), and marks DAG successors dirty so sigma
// changes propagate.
// ---------------------------------------------------------------------------
template <class Adj>
void IncrementalEngine::RepairSigmas(const Adj& adj, const SourceContext& cx) {
  const bool mp = pred_mode_ == PredMode::kPredecessorLists;
  std::vector<VertexId> preds;
  for (Distance level = 0; level <= repair_max_; ++level) {
    auto& bucket = repair_q_[level];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const VertexId x = bucket[i];
      if (overlay_[x].state != kPending || overlay_[x].d != level) continue;  // stale
      // Recount shortest paths from current predecessors.
      PathCount sigma = 0;
      preds.clear();
      for (VertexId p : adj.InNeighbors(x)) {
        if (!IsPredLevel(EffD(cx, p), level)) continue;
        sigma += EffSigma(cx, p);
        if (mp) preds.push_back(p);
      }
      overlay_[x].sigma = sigma;
      const bool changed =
          overlay_[x].d != cx.view.d[x] || sigma != cx.view.sigma[x];
      overlay_[x].state = changed ? kDn : kUp;
      overlay_[x].delta = changed ? 0.0 : cx.view.delta[x];
      PushLq(x, level);
      if (mp) {
        overlay_[x].pred_idx = static_cast<std::uint32_t>(pred_patches_.size());
        pred_patches_.emplace_back(x, preds);
      }
      if (!changed) continue;
      for (VertexId w : adj.OutNeighbors(x)) {
        const Distance dw = EffD(cx, w);
        const bool relaxable =
            cx.is_addition
                ? dw > level + 1 || dw == kUnreachable
                : (orphan_[w].stamp == epoch_ &&
                   orphan_[w].state == kOrphan && overlay_[w].state == kPending &&
                   (dw == kUnreachable || dw > level + 1));
        if (relaxable) {
          // w rides along: it gets a strictly better (addition) or its
          // first finite (removal) distance through x.
          if (!IsTouched(w)) {
            Touch(cx, w, kPending);
            moved_list_.push_back(w);
          }
          SOBC_DCHECK(overlay_[w].state == kPending);
          overlay_[w].d = level + 1;
          PushRepair(w, level + 1);
        } else if (dw == level + 1) {
          // DAG successor: its path count inherits x's change.
          if (!IsTouched(w)) {
            Touch(cx, w, kPending);
            PushRepair(w, level + 1);
          }
        }
      }
    }
  }
  // Orphans never reached by the re-BFS form a split-off component
  // (Section 4.5, Alg. 10): unreachable, zero paths, zero dependency.
  for (VertexId v : moved_list_) {
    if (overlay_[v].state == kPending) {
      SOBC_DCHECK(overlay_[v].d == kUnreachable);
      overlay_[v].state = kDn;
      overlay_[v].sigma = 0;
      overlay_[v].delta = 0.0;
      PushLq(v, kUnreachable);
      if (mp) {
        overlay_[v].pred_idx = static_cast<std::uint32_t>(pred_patches_.size());
        pred_patches_.emplace_back(v, std::vector<VertexId>{});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Phase 3a: stale-edge prescan.
//
// Every edge incident to a touched vertex whose DAG relation changed (it
// carried shortest paths before but not after, or its direction flipped, or
// the two endpoints now sit on the same level — the cases of Fig. 3 /
// Alg. 5) has its old contribution subtracted here, before accumulation, so
// dependency bases are consistent when the descending sweep starts.
// ---------------------------------------------------------------------------
template <class Adj>
void IncrementalEngine::PreScanStaleEdges(const Adj& adj,
                                          const SourceContext& cx) {
  const std::size_t snapshot = touched_list_.size();
  auto check_edge = [&](VertexId a, VertexId b) {
    const int old_rel = OldRelation(cx, a, b);
    if (old_rel == 0 || old_rel == NewRelation(cx, a, b)) return;
    const EdgeKey key = MakeEdgeKey(cx.directed, a, b);
    if (!stale_seen_.insert(key).second) return;
    const VertexId p = old_rel > 0 ? a : b;  // old predecessor
    const VertexId q = old_rel > 0 ? b : a;  // old successor
    const double alpha = static_cast<double>(cx.view.sigma[p]) /
                         static_cast<double>(cx.view.sigma[q]) *
                         (1.0 + cx.view.delta[q]);
    cx.scores->ebc[key] -= alpha;
    if (!IsTouched(p)) PullUp(cx, p);
    if (overlay_[p].state != kDn) overlay_[p].delta -= alpha;
  };
  for (std::size_t i = 0; i < snapshot; ++i) {
    const VertexId x = touched_list_[i];
    for (VertexId y : adj.OutNeighbors(x)) check_edge(x, y);
    if (cx.directed) {
      for (VertexId y : adj.InNeighbors(x)) check_edge(y, x);
    }
  }
}

// ---------------------------------------------------------------------------
// Phase 3b: dependency re-accumulation (the LQ sweep of Alg. 2/4/7/9).
//
// Processes touched vertices deepest-first. DN vertices rebuild their
// dependency from scratch (all their successors are touched by
// construction); UP vertices start from the stored value and take
// new-minus-old corrections, so contributions of untouched successors stay
// embedded — the old-value-subtraction trick that keeps per-source work
// proportional to the affected region.
// ---------------------------------------------------------------------------
template <class Adj>
void IncrementalEngine::Accumulate(const Adj& adj, const SourceContext& cx,
                                   UpdateStats* stats) {
  const bool mp = pred_mode_ == PredMode::kPredecessorLists;

  if (!cx.is_addition) {
    // The removed edge is gone from the adjacency lists, so the prescan
    // cannot see it; subtract its old contribution explicitly
    // (Alg. 2 lines 11-13 / Alg. 7 line 16).
    const double alpha0 = static_cast<double>(cx.view.sigma[cx.u_high]) /
                          static_cast<double>(cx.view.sigma[cx.u_low]) *
                          (1.0 + cx.view.delta[cx.u_low]);
    cx.scores->ebc[cx.update_key] -= alpha0;
    if (!IsTouched(cx.u_high)) PullUp(cx, cx.u_high);
    if (overlay_[cx.u_high].state != kDn) overlay_[cx.u_high].delta -= alpha0;
  }

  PreScanStaleEdges(adj, cx);

  auto process = [&](VertexId x) {
    const Distance dx = overlay_[x].d;  // touched => overlay is authoritative
    if (dx != kUnreachable) {
      const double coeff = (1.0 + overlay_[x].delta) /
                           static_cast<double>(overlay_[x].sigma);
      auto contribute = [&](VertexId p) {
        if (!IsTouched(p)) PullUp(cx, p);
        const double c = static_cast<double>(EffSigma(cx, p)) * coeff;
        overlay_[p].delta += c;
        const EdgeKey key = MakeEdgeKey(cx.directed, p, x);
        double edge_delta = c;
        // Same-direction old contribution: new minus old, folded into one
        // map update (the ebc table is the hottest data structure of an
        // update; one probe here instead of two is measurable).
        if (IsPredLevel(cx.view.d[p], cx.view.d[x]) &&
            !(cx.is_addition && key == cx.update_key)) {
          const double alpha = static_cast<double>(cx.view.sigma[p]) /
                               static_cast<double>(cx.view.sigma[x]) *
                               (1.0 + cx.view.delta[x]);
          edge_delta -= alpha;
          if (overlay_[p].state == kUp) overlay_[p].delta -= alpha;
        }
        cx.scores->ebc[key] += edge_delta;
      };
      if (mp && overlay_[x].pred_idx != kNoPredPatch) {
        for (VertexId p : pred_patches_[overlay_[x].pred_idx].second) contribute(p);
      } else if (mp) {
        for (VertexId p : (*cx.view.preds)[x]) contribute(p);
      } else {
        for (VertexId p : adj.InNeighbors(x)) {
          if (IsPredLevel(EffD(cx, p), dx)) contribute(p);
        }
      }
    }
    if (x != cx.s) {
      cx.scores->vbc[x] += overlay_[x].delta - cx.view.delta[x];
    }
  };

  // Vertices cut off from the source carry no dependency any more; handle
  // them first (they are "deepest").
  for (std::size_t i = 0; i < unreachable_.size(); ++i) {
    process(unreachable_[i]);
  }
  for (Distance level = lq_max_ + 1; level-- > 0;) {
    auto& bucket = lq_[level];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      process(bucket[i]);
    }
  }
  stats->vertices_touched += touched_list_.size();
}

Status IncrementalEngine::EmitPatches(const SourceContext& cx, BdStore* store,
                                      UpdateStats* stats) {
  (void)stats;
  patches_.reserve(touched_list_.size());
  for (VertexId v : touched_list_) {
    patches_.push_back(BdPatch{v, overlay_[v].d, overlay_[v].sigma, overlay_[v].delta});
  }
  return store->Apply(cx.s, patches_, pred_patches_);
}

template <class Adj>
Status IncrementalEngine::RunForSource(const Adj& adj,
                                       const EdgeUpdate& update, VertexId s,
                                       BdStore* store, BcScores* scores,
                                       UpdateStats* stats, bool peeked,
                                       Distance peek_du, Distance peek_dv,
                                       const Distance* new_d) {
  const std::size_t n = adj.NumVertices();
  EnsureScratch(n);
  if (scores->vbc.size() < n) scores->vbc.resize(n, 0.0);
  ++stats->sources_total;

  const bool addition = update.op == EdgeOp::kAdd;
  Distance du = peek_du;
  Distance dv = peek_dv;
  if (!peeked) {
    SOBC_RETURN_NOT_OK(store->PeekDistances(s, update.u, update.v, &du, &dv));
  }

  // Case dispatch on the endpoint distances (Section 3.1). For undirected
  // graphs uH is the endpoint closer to the source; for directed graphs the
  // edge orientation fixes uH = u, uL = v.
  VertexId u_high;
  VertexId u_low;
  bool structural;
  if (adj.directed()) {
    u_high = update.u;
    u_low = update.v;
    if (du == kUnreachable) {
      ++stats->sources_skipped;
      return Status::OK();
    }
    if (addition) {
      if (dv != kUnreachable && dv <= du) {
        ++stats->sources_skipped;  // edge lies off every shortest path
        return Status::OK();
      }
      structural = dv == kUnreachable || dv > du + 1;
    } else {
      if (dv == kUnreachable || dv != du + 1) {
        ++stats->sources_skipped;  // removed edge carried no paths from s
        return Status::OK();
      }
      structural = true;  // refined below once uL's predecessors are known
    }
  } else {
    if (du == kUnreachable && dv == kUnreachable) {
      ++stats->sources_skipped;
      return Status::OK();
    }
    if (du == dv) {
      ++stats->sources_skipped;  // Proposition 3.1
      return Status::OK();
    }
    if (!addition && (du == kUnreachable || dv == kUnreachable)) {
      // Endpoints of an existing edge cannot differ in reachability.
      return Status::Internal("inconsistent BD distances for removed edge");
    }
    const bool u_closer = dv == kUnreachable || (du != kUnreachable && du < dv);
    u_high = u_closer ? update.u : update.v;
    u_low = u_closer ? update.v : update.u;
    const Distance dh = u_closer ? du : dv;
    const Distance dl = u_closer ? dv : du;
    structural = addition ? (dl == kUnreachable || dl > dh + 1) : true;
  }

  SourceContext cx;
  cx.directed = adj.directed();
  cx.s = s;
  cx.u_high = u_high;
  cx.u_low = u_low;
  cx.is_addition = addition;
  cx.update_key = MakeEdgeKey(cx.directed, update.u, update.v);
  cx.scores = scores;
  SOBC_RETURN_NOT_OK(store->View(s, &cx.view));

  BeginSource();

  if (!addition) {
    // Removal is structural only when uL lost its last DAG predecessor
    // (the edge itself is already gone from the adjacency lists).
    bool has_other_pred = false;
    for (VertexId p : adj.InNeighbors(u_low)) {
      if (IsPredLevel(cx.view.d[p], cx.view.d[u_low])) {
        has_other_pred = true;
        break;
      }
    }
    structural = !has_other_pred;
  }

  if (!structural) {
    ++stats->sources_non_structural;
    Touch(cx, u_low, kPending);
    PushRepair(u_low, cx.view.d[u_low]);
  } else if (addition) {
    ++stats->sources_structural;
    if (new_d != nullptr) {
      SeedMovedFromDistances(cx, n, new_d);
    } else {
      Touch(cx, u_low, kPending);
      overlay_[u_low].d = cx.view.d[u_high] + 1;
      moved_list_.push_back(u_low);
      PushRepair(u_low, overlay_[u_low].d);
    }
  } else {
    ++stats->sources_structural;
    ClassifyOrphans(adj, cx);
    if (new_d != nullptr) {
      SeedOrphansFromDistances(cx, new_d);
    } else {
      RepairDistancesRemoval(adj, cx);
    }
  }

  RepairSigmas(adj, cx);
  if (!unreachable_.empty()) ++stats->sources_disconnected;
  Accumulate(adj, cx, stats);
  return EmitPatches(cx, store, stats);
}

// Whether a source's repair should wait for a MS-BFS batch: every source
// whose repair may need new distances — structural additions (decidable
// from the peeked endpoint distances alone) and every non-skipped removal
// (structural-vs-not needs uL's predecessor scan, which runs after View;
// a removal that refines to non-structural simply ignores its lane).
static bool ShouldDeferForBatch(bool directed, bool addition, Distance du,
                                Distance dv) {
  if (directed) {
    if (du == kUnreachable) return false;  // skipped either way
    if (addition) return dv == kUnreachable || dv > du + 1;
    return dv == du + 1;
  }
  if (du == dv) return false;  // Proposition 3.1 skip (incl. both infinite)
  if (!addition) return true;
  const Distance dh = std::min(du, dv);
  const Distance dl = std::max(du, dv);
  return dl == kUnreachable || dl > dh + 1;
}

template <class Adj>
Status IncrementalEngine::RunForSourceSpan(const Adj& adj,
                                           const EdgeUpdate& update,
                                           std::span<const VertexId> sources,
                                           BdStore* store, BcScores* scores,
                                           UpdateStats* stats) {
  if (!msbfs_enabled_ || sources.size() < 2) {
    for (const VertexId s : sources) {
      SOBC_RETURN_NOT_OK(RunForSource(adj, update, s, store, scores, stats));
    }
    return Status::OK();
  }
  const bool addition = update.op == EdgeOp::kAdd;
  const bool directed = adj.directed();
  // Pass 1: classify on the peeked endpoint distances (the same store
  // probes the scalar loop pays); skipped and non-structural-addition
  // sources run to completion right here, structural candidates queue for
  // a shared traversal.
  deferred_.clear();
  for (const VertexId s : sources) {
    Distance du = kUnreachable;
    Distance dv = kUnreachable;
    SOBC_RETURN_NOT_OK(store->PeekDistances(s, update.u, update.v, &du, &dv));
    if (ShouldDeferForBatch(directed, addition, du, dv)) {
      deferred_.push_back({s, du, dv});
    } else {
      SOBC_RETURN_NOT_OK(RunForSource(adj, update, s, store, scores, stats,
                                      /*peeked=*/true, du, dv));
    }
  }
  if (deferred_.empty()) return Status::OK();
  // Pass 2: one bit-parallel MS-BFS per 64 deferred sources computes their
  // final post-update distances in a shared pass over the adjacency, then
  // each source's repair pipeline runs seeded with its lane.
  msbfs_scratch_.ReserveLanes(adj.NumVertices());
  for (std::size_t off = 0; off < deferred_.size();
       off += MsBfsScratch::kLanes) {
    const std::size_t lanes =
        std::min(MsBfsScratch::kLanes, deferred_.size() - off);
    batch_sources_.clear();
    batch_dist_.clear();
    for (std::size_t i = 0; i < lanes; ++i) {
      batch_sources_.push_back(deferred_[off + i].s);
      batch_dist_.push_back(msbfs_scratch_.LaneDistances(i));
    }
    MsBfsStats batch_stats;
    MsBfsRun(adj, std::span<const VertexId>(batch_sources_),
             /*reverse=*/false, msbfs_options_, &msbfs_scratch_,
             std::span<Distance* const>(batch_dist_), &batch_stats);
    stats->msbfs_batches += batch_stats.batches;
    stats->bottom_up_levels += batch_stats.bottom_up_levels;
    for (std::size_t i = 0; i < lanes; ++i) {
      const DeferredSource& ds = deferred_[off + i];
      SOBC_RETURN_NOT_OK(RunForSource(adj, update, ds.s, store, scores, stats,
                                      /*peeked=*/true, ds.du, ds.dv,
                                      msbfs_scratch_.LaneDistances(i)));
    }
  }
  return Status::OK();
}

Status IncrementalEngine::ApplyUpdateForSource(const Graph& graph,
                                               const EdgeUpdate& update,
                                               VertexId s, BdStore* store,
                                               BcScores* scores,
                                               UpdateStats* stats) {
  if (use_csr_) {
    return RunForSource(graph.csr(), update, s, store, scores, stats);
  }
  return RunForSource(GraphAdjacency(graph), update, s, store, scores, stats);
}

Status IncrementalEngine::ApplyUpdateForSources(
    const Graph& graph, const EdgeUpdate& update,
    std::span<const VertexId> sources, BdStore* store, BcScores* scores,
    UpdateStats* stats) {
  if (use_csr_) {
    return RunForSourceSpan(graph.csr(), update, sources, store, scores,
                            stats);
  }
  return RunForSourceSpan(GraphAdjacency(graph), update, sources, store,
                          scores, stats);
}

}  // namespace sobc
