#ifndef SOBC_BC_ONLINE_APPROX_H_
#define SOBC_BC_ONLINE_APPROX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bc/bc_types.h"
#include "bc/bd_store.h"
#include "bc/brandes.h"
#include "common/rng.h"
#include "common/status.h"
#include "graph/graph.h"

namespace sobc {

struct UpdateStats;

/// Configuration of the online sampled-approximation mode (DESIGN.md §15).
/// The framework maintains BD[s] for only `num_samples` uniformly sampled
/// sources through the exact incremental machinery and publishes scaled
/// estimates (n/k per maintained sum), following the source-sampling line
/// of Brandes-Pich and its online form in Bergamini et al. (1409.6241).
struct OnlineApproxOptions {
  /// Sample size k. 0 disables the mode (exact maintenance).
  std::size_t num_samples = 0;
  /// Target accuracy bound epsilon in (0, 1): the drift ledger triggers a
  /// resampling round once the tracked staleness estimate reaches it.
  double epsilon = 0.1;
  /// Seed of the sampling schedule: the initial draw and every replacement
  /// draw come from one deterministic generator, so equal seeds reproduce
  /// the same sample-set trajectory for the same update stream.
  std::uint64_t seed = 42;
  /// Source swaps an active resampling round performs per applied batch —
  /// the amortization knob that keeps serve latency flat while the set
  /// refreshes in the background of the update stream.
  std::size_t max_swaps_per_batch = 4;
};

/// The sampled source set: k distinct global vertex ids, each pinned to a
/// stable slot in [0, k). Slots are what the backing BD store is addressed
/// by, so a replacement draw overwrites exactly one record in place.
class SampleSet {
 public:
  /// Draws k distinct sources from [0, n) by partial Fisher-Yates. k is
  /// clamped to n.
  void DrawFresh(std::size_t n, std::size_t k, Rng* rng);

  /// Installs an explicit id list (restore path). Ids must be distinct.
  Status Restore(std::vector<VertexId> ids, std::size_t n);

  /// Extends the membership index to a grown vertex population.
  void GrowPopulation(std::size_t n);

  /// Replaces the source at `slot` with `id` (which must not be a member).
  void Replace(std::size_t slot, VertexId id);

  bool Contains(VertexId v) const {
    return v < slot_by_id_.size() && slot_by_id_[v] != kInvalidVertex;
  }
  /// Slot of a member id; kInvalidVertex when v is not sampled.
  VertexId SlotOf(VertexId v) const {
    return v < slot_by_id_.size() ? slot_by_id_[v] : kInvalidVertex;
  }
  VertexId IdAt(std::size_t slot) const { return ids_[slot]; }
  std::size_t size() const { return ids_.size(); }
  std::span<const VertexId> ids() const { return ids_; }
  /// Vertex population the membership index currently spans.
  std::size_t population() const { return slot_by_id_.size(); }

 private:
  std::vector<VertexId> ids_;          // slot -> global id
  std::vector<VertexId> slot_by_id_;   // global id -> slot (or invalid)
};

/// BdStore adapter that presents the full source universe while holding
/// records for the sampled sources only: global source ids are translated
/// to their sample slots before reaching the inner store, which is created
/// over the contiguous range [0, k). This is what lets the incremental
/// engine, the apply lanes, and the out-of-core prefetch path run completely
/// unchanged in approx mode — they keep addressing sources by global id —
/// while the store footprint drops from O(n) records to O(k).
class SampledBdStore : public BdStore {
 public:
  /// `samples` must outlive the adapter (the owning framework holds both).
  SampledBdStore(std::unique_ptr<BdStore> inner, const SampleSet* samples)
      : inner_(std::move(inner)), samples_(samples) {}

  std::size_t num_vertices() const override { return inner_->num_vertices(); }
  VertexId source_begin() const override { return 0; }
  VertexId source_end() const override {
    return static_cast<VertexId>(inner_->num_vertices());
  }
  PredMode pred_mode() const override { return inner_->pred_mode(); }

  Status View(VertexId s, SourceView* view) override;
  Status ViewBatch(std::span<const VertexId> sources,
                   std::vector<SourceView>* views) override;
  Status Apply(VertexId s, const std::vector<BdPatch>& patches,
               const PredPatchList& pred_patches) override;
  Status PeekDistances(VertexId s, VertexId a, VertexId b, Distance* da,
                       Distance* db) override;
  Status PutInitial(VertexId s, SourceBcData&& data) override;
  Status Grow(std::size_t new_n) override { return inner_->Grow(new_n); }
  void Hint(std::span<const VertexId> sources) override;
  Status Flush() override { return inner_->Flush(); }

  BdStore* inner() { return inner_.get(); }

 private:
  Status Slot(VertexId s, VertexId* slot) const;

  std::unique_ptr<BdStore> inner_;
  const SampleSet* samples_;
};

/// Progress gauges of the approximation, published through the serve
/// metrics (schema v5) and the CLI summaries.
struct ApproxStatus {
  std::size_t num_samples = 0;
  /// Increments each time a resampling round completes; snapshots carry it
  /// so readers can tell which sample generation produced an estimate.
  std::uint64_t sample_epoch = 0;
  std::uint64_t resample_rounds = 0;  // completed rounds
  std::uint64_t source_swaps = 0;     // total replacement draws applied
  double drift = 0.0;                 // current ledger value vs epsilon
  std::size_t pending_swaps = 0;      // remaining swaps of an active round
};

/// Drift ledger + adaptive-resampling policy + sample bookkeeping — the
/// state a sampled deployment carries alongside its BD store and scores.
///
/// The maintained estimate stays *exact for the current sample set* (the
/// incremental engine keeps each sampled BD[s] equal to a from-scratch
/// build), so estimation error has exactly two sources, and the ledger
/// tracks a proxy for each:
///
///   growth   vertices that arrived after the draw have zero inclusion
///            probability; the uncovered mass is 1 - n0/n where n0 is the
///            population at the last (re)draw.
///   churn    structural repairs reshape the sampled DAGs; after enough of
///            them the fixed set behaves like a stale stratification. The
///            ledger counts structural per-sample repairs against a horizon
///            of kChurnHorizon repairs per sample.
///
/// When the combined drift reaches epsilon, a resampling round starts:
/// ceil(k * min(1, drift)) replacement draws, amortized at
/// max_swaps_per_batch per applied batch. Each swap subtracts the departing
/// source's contribution with one from-scratch sweep (exact, by the
/// maintenance invariant), draws a non-member replacement, sweeps it into
/// the scores, and overwrites its slot's BD record. All inputs to the
/// trigger are deterministic sums, so serial and threaded deployments make
/// identical resampling decisions.
class OnlineApproxState {
 public:
  /// Structural repairs per sample that exhaust the churn term alone.
  static constexpr double kChurnHorizon = 64.0;

  /// Fresh draw over an n-vertex population.
  static Result<std::unique_ptr<OnlineApproxState>> Fresh(
      const OnlineApproxOptions& options, std::size_t n);

  /// Restores a serialized state (recovery path). The blob is
  /// authoritative for k, epsilon, and seed.
  static Result<std::unique_ptr<OnlineApproxState>> Restore(
      const std::string& blob);

  /// Serializes the full state (options, ledger, RNG, ids) into the binary
  /// blob the checkpoint carries as its samples file.
  std::string Serialize() const;

  /// Per-batch accounting and amortized resampling; the framework calls
  /// this at the end of ApplyBatch, after the updates landed. `store` is
  /// the slot-translating adapter and `scores` the maintained (unscaled)
  /// sample sums; `brandes` must match the engine configuration so swap
  /// sweeps produce records the incremental path can keep repairing.
  Status AfterBatch(const Graph& graph, const UpdateStats& stats,
                    const BrandesOptions& brandes, BdStore* store,
                    BcScores* scores);

  const OnlineApproxOptions& options() const { return options_; }
  const SampleSet& samples() const { return samples_; }
  SampleSet* mutable_samples() { return &samples_; }
  std::uint64_t sample_epoch() const { return sample_epoch_; }
  /// Estimate scale factor for an n-vertex graph: n / k.
  double scale(std::size_t n) const;
  double drift() const;
  ApproxStatus status() const;

 private:
  OnlineApproxState(const OnlineApproxOptions& options, std::size_t n)
      : options_(options), rng_(options.seed), population_at_draw_(n) {}

  /// Performs one replacement draw (see class comment).
  Status Swap(const Graph& graph, const BrandesOptions& brandes,
              BdStore* store, BcScores* scores);

  OnlineApproxOptions options_;
  SampleSet samples_;
  Rng rng_;
  std::uint64_t sample_epoch_ = 0;
  std::uint64_t resample_rounds_ = 0;
  std::uint64_t source_swaps_ = 0;
  /// Vertex population when the current sample generation was drawn (n0 of
  /// the growth term). Reset when a round completes.
  std::uint64_t population_at_draw_ = 0;
  /// Structural + disconnected source repairs accumulated since the last
  /// completed round (numerator of the churn term).
  std::uint64_t churn_repairs_ = 0;
  /// Remaining swaps of the active round; 0 = no round in flight.
  std::uint64_t pending_swaps_ = 0;
  /// Round-robin slot cursor: successive rounds refresh different slots,
  /// so every sample is eventually redrawn even at small round sizes.
  std::uint64_t swap_cursor_ = 0;
  // Scratch for the subtraction sweep (sized lazily).
  BcScores sweep_;
  SourceBcData sweep_data_;
};

/// Keeps in place only the sources of `worklist` whose sample slot lies in
/// [slot_begin, slot_end) — one apply lane's share of the sampled sources,
/// the approx counterpart of the exact mode's source range.
void FilterToSlots(const SampleSet& samples, VertexId slot_begin,
                   VertexId slot_end, std::vector<VertexId>* worklist);

}  // namespace sobc

#endif  // SOBC_BC_ONLINE_APPROX_H_
