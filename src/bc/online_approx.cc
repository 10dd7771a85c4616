#include "bc/online_approx.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "bc/incremental.h"

namespace sobc {

namespace {

constexpr std::uint64_t kBlobMagic = 0x5342'4341'5058'3131ULL;  // "SBCAPX11"
constexpr std::uint32_t kBlobVersion = 1;

void PutU32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

bool GetU32(const std::string& in, std::size_t* pos, std::uint32_t* v) {
  if (*pos + 4 > in.size()) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<std::uint32_t>(static_cast<unsigned char>(in[*pos + i]))
          << (8 * i);
  }
  *pos += 4;
  return true;
}

bool GetU64(const std::string& in, std::size_t* pos, std::uint64_t* v) {
  if (*pos + 8 > in.size()) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<std::uint64_t>(static_cast<unsigned char>(in[*pos + i]))
          << (8 * i);
  }
  *pos += 8;
  return true;
}

std::uint64_t DoubleBits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsToDouble(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// SampleSet

void SampleSet::DrawFresh(std::size_t n, std::size_t k, Rng* rng) {
  k = std::min(k, n);
  // Partial Fisher-Yates over the id universe: the first k swapped entries
  // are a uniform k-subset, drawn in O(n) setup + O(k) draws.
  std::vector<VertexId> pool(n);
  for (std::size_t i = 0; i < n; ++i) pool[i] = static_cast<VertexId>(i);
  ids_.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng->Uniform(n - i));
    std::swap(pool[i], pool[j]);
    ids_[i] = pool[i];
  }
  slot_by_id_.assign(n, kInvalidVertex);
  for (std::size_t slot = 0; slot < k; ++slot) {
    slot_by_id_[ids_[slot]] = static_cast<VertexId>(slot);
  }
}

Status SampleSet::Restore(std::vector<VertexId> ids, std::size_t n) {
  slot_by_id_.assign(n, kInvalidVertex);
  for (std::size_t slot = 0; slot < ids.size(); ++slot) {
    const VertexId id = ids[slot];
    if (id >= n) {
      return Status::FailedPrecondition(
          "sample id " + std::to_string(id) +
          " outside the restored vertex population");
    }
    if (slot_by_id_[id] != kInvalidVertex) {
      return Status::FailedPrecondition("duplicate sampled source id " +
                                        std::to_string(id));
    }
    slot_by_id_[id] = static_cast<VertexId>(slot);
  }
  ids_ = std::move(ids);
  return Status::OK();
}

void SampleSet::GrowPopulation(std::size_t n) {
  if (n > slot_by_id_.size()) slot_by_id_.resize(n, kInvalidVertex);
}

void SampleSet::Replace(std::size_t slot, VertexId id) {
  slot_by_id_[ids_[slot]] = kInvalidVertex;
  ids_[slot] = id;
  slot_by_id_[id] = static_cast<VertexId>(slot);
}

// ---------------------------------------------------------------------------
// SampledBdStore

Status SampledBdStore::Slot(VertexId s, VertexId* slot) const {
  *slot = samples_->SlotOf(s);
  if (*slot == kInvalidVertex) {
    return Status::InvalidArgument("source " + std::to_string(s) +
                                   " is not in the sampled set");
  }
  return Status::OK();
}

Status SampledBdStore::View(VertexId s, SourceView* view) {
  VertexId slot;
  SOBC_RETURN_NOT_OK(Slot(s, &slot));
  return inner_->View(slot, view);
}

Status SampledBdStore::ViewBatch(std::span<const VertexId> sources,
                                 std::vector<SourceView>* views) {
  // Local translation buffer: the shared (in-memory) adapter may serve
  // several drain workers at once, and a member scratch would race.
  std::vector<VertexId> slots(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    SOBC_RETURN_NOT_OK(Slot(sources[i], &slots[i]));
  }
  return inner_->ViewBatch(slots, views);
}

Status SampledBdStore::Apply(VertexId s, const std::vector<BdPatch>& patches,
                             const PredPatchList& pred_patches) {
  VertexId slot;
  SOBC_RETURN_NOT_OK(Slot(s, &slot));
  return inner_->Apply(slot, patches, pred_patches);
}

Status SampledBdStore::PeekDistances(VertexId s, VertexId a, VertexId b,
                                     Distance* da, Distance* db) {
  VertexId slot;
  SOBC_RETURN_NOT_OK(Slot(s, &slot));
  return inner_->PeekDistances(slot, a, b, da, db);
}

Status SampledBdStore::PutInitial(VertexId s, SourceBcData&& data) {
  VertexId slot;
  SOBC_RETURN_NOT_OK(Slot(s, &slot));
  return inner_->PutInitial(slot, std::move(data));
}

void SampledBdStore::Hint(std::span<const VertexId> sources) {
  std::vector<VertexId> slots;
  slots.reserve(sources.size());
  for (const VertexId s : sources) {
    const VertexId slot = samples_->SlotOf(s);
    if (slot != kInvalidVertex) slots.push_back(slot);
  }
  if (!slots.empty()) inner_->Hint(slots);
}

// ---------------------------------------------------------------------------
// OnlineApproxState

Result<std::unique_ptr<OnlineApproxState>> OnlineApproxState::Fresh(
    const OnlineApproxOptions& options, std::size_t n) {
  if (options.num_samples == 0) {
    return Status::InvalidArgument("approx mode needs num_samples >= 1");
  }
  if (!(options.epsilon > 0.0) || !(options.epsilon < 1.0) ||
      !std::isfinite(options.epsilon)) {
    return Status::InvalidArgument(
        "approx_epsilon must be a finite value in (0, 1)");
  }
  if (n == 0) {
    return Status::InvalidArgument(
        "cannot sample sources from an empty graph");
  }
  auto state = std::unique_ptr<OnlineApproxState>(
      new OnlineApproxState(options, n));
  state->samples_.DrawFresh(n, options.num_samples, &state->rng_);
  return state;
}

Result<std::unique_ptr<OnlineApproxState>> OnlineApproxState::Restore(
    const std::string& blob) {
  std::size_t pos = 0;
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  auto corrupt = [] {
    return Status::FailedPrecondition("approx sample state blob is corrupt");
  };
  if (!GetU64(blob, &pos, &magic) || magic != kBlobMagic) return corrupt();
  if (!GetU32(blob, &pos, &version) || version != kBlobVersion) {
    return Status::FailedPrecondition(
        "unsupported approx sample state version");
  }
  std::uint64_t k = 0, seed = 0, max_swaps = 0, epsilon_bits = 0;
  std::uint64_t sample_epoch = 0, rounds = 0, swaps = 0;
  std::uint64_t n0 = 0, churn = 0, pending = 0, cursor = 0;
  std::array<std::uint64_t, 4> rng_state = {0, 0, 0, 0};
  if (!GetU64(blob, &pos, &k) || !GetU64(blob, &pos, &epsilon_bits) ||
      !GetU64(blob, &pos, &seed) || !GetU64(blob, &pos, &max_swaps) ||
      !GetU64(blob, &pos, &sample_epoch) || !GetU64(blob, &pos, &rounds) ||
      !GetU64(blob, &pos, &swaps) || !GetU64(blob, &pos, &n0) ||
      !GetU64(blob, &pos, &churn) || !GetU64(blob, &pos, &pending) ||
      !GetU64(blob, &pos, &cursor)) {
    return corrupt();
  }
  for (auto& word : rng_state) {
    if (!GetU64(blob, &pos, &word)) return corrupt();
  }
  if (k == 0) return corrupt();
  std::vector<VertexId> ids(k);
  std::uint64_t max_id = 0;
  for (std::uint64_t i = 0; i < k; ++i) {
    std::uint32_t id = 0;
    if (!GetU32(blob, &pos, &id)) return corrupt();
    ids[i] = static_cast<VertexId>(id);
    max_id = std::max<std::uint64_t>(max_id, id);
  }
  if (pos != blob.size()) return corrupt();

  OnlineApproxOptions options;
  options.num_samples = static_cast<std::size_t>(k);
  options.epsilon = BitsToDouble(epsilon_bits);
  options.seed = seed;
  options.max_swaps_per_batch = static_cast<std::size_t>(max_swaps);
  auto state = std::unique_ptr<OnlineApproxState>(new OnlineApproxState(
      options, static_cast<std::size_t>(std::max(n0, max_id + 1))));
  SOBC_RETURN_NOT_OK(state->samples_.Restore(
      std::move(ids), static_cast<std::size_t>(std::max(n0, max_id + 1))));
  state->rng_.RestoreState(rng_state);
  state->sample_epoch_ = sample_epoch;
  state->resample_rounds_ = rounds;
  state->source_swaps_ = swaps;
  state->population_at_draw_ = n0;
  state->churn_repairs_ = churn;
  state->pending_swaps_ = pending;
  state->swap_cursor_ = cursor;
  return state;
}

std::string OnlineApproxState::Serialize() const {
  std::string blob;
  blob.reserve(12 + 11 * 8 + 4 * 8 + 4 * samples_.size());
  PutU64(&blob, kBlobMagic);
  PutU32(&blob, kBlobVersion);
  PutU64(&blob, static_cast<std::uint64_t>(samples_.size()));
  PutU64(&blob, DoubleBits(options_.epsilon));
  PutU64(&blob, options_.seed);
  PutU64(&blob, static_cast<std::uint64_t>(options_.max_swaps_per_batch));
  PutU64(&blob, sample_epoch_);
  PutU64(&blob, resample_rounds_);
  PutU64(&blob, source_swaps_);
  PutU64(&blob, population_at_draw_);
  PutU64(&blob, churn_repairs_);
  PutU64(&blob, pending_swaps_);
  PutU64(&blob, swap_cursor_);
  for (const std::uint64_t word : rng_.SaveState()) PutU64(&blob, word);
  for (const VertexId id : samples_.ids()) {
    PutU32(&blob, static_cast<std::uint32_t>(id));
  }
  return blob;
}

double OnlineApproxState::scale(std::size_t n) const {
  const std::size_t k = samples_.size();
  if (k == 0 || k >= n) return 1.0;
  return static_cast<double>(n) / static_cast<double>(k);
}

double OnlineApproxState::drift() const {
  const std::size_t n = samples_.population();
  const std::size_t k = samples_.size();
  if (k == 0) return 0.0;
  double growth = 0.0;
  if (n > population_at_draw_ && population_at_draw_ > 0) {
    growth = 1.0 - static_cast<double>(population_at_draw_) /
                       static_cast<double>(n);
  }
  const double churn = static_cast<double>(churn_repairs_) /
                       (static_cast<double>(k) * kChurnHorizon);
  return growth + churn;
}

ApproxStatus OnlineApproxState::status() const {
  ApproxStatus status;
  status.num_samples = samples_.size();
  status.sample_epoch = sample_epoch_;
  status.resample_rounds = resample_rounds_;
  status.source_swaps = source_swaps_;
  status.drift = drift();
  status.pending_swaps = static_cast<std::size_t>(pending_swaps_);
  return status;
}

Status OnlineApproxState::AfterBatch(const Graph& graph,
                                     const UpdateStats& stats,
                                     const BrandesOptions& brandes,
                                     BdStore* store, BcScores* scores) {
  const std::size_t n = graph.NumVertices();
  samples_.GrowPopulation(n);
  churn_repairs_ += stats.sources_structural + stats.sources_disconnected;
  // Trigger is evaluated from deterministic counters only (vertex counts
  // and summed per-source repair classifications), so serial and threaded
  // deployments start identical rounds at identical stream positions.
  if (pending_swaps_ == 0 && samples_.size() < n &&
      drift() >= options_.epsilon) {
    const double severity = std::min(1.0, drift());
    pending_swaps_ = static_cast<std::uint64_t>(std::ceil(
        severity * static_cast<double>(samples_.size())));
    if (pending_swaps_ == 0) pending_swaps_ = 1;
  }
  if (pending_swaps_ == 0) return Status::OK();
  std::uint64_t budget =
      std::max<std::uint64_t>(1, options_.max_swaps_per_batch);
  budget = std::min(budget, pending_swaps_);
  for (; budget > 0; --budget) {
    SOBC_RETURN_NOT_OK(Swap(graph, brandes, store, scores));
    --pending_swaps_;
    ++source_swaps_;
  }
  if (pending_swaps_ == 0) {
    // Round complete: this sample generation is drawn against the current
    // population, so both ledger terms restart from zero.
    ++sample_epoch_;
    ++resample_rounds_;
    population_at_draw_ = n;
    churn_repairs_ = 0;
  }
  return Status::OK();
}

Status OnlineApproxState::Swap(const Graph& graph,
                               const BrandesOptions& brandes, BdStore* store,
                               BcScores* scores) {
  const std::size_t n = graph.NumVertices();
  const std::size_t k = samples_.size();
  if (k >= n) return Status::OK();  // every source sampled; nothing to draw
  const std::size_t slot = static_cast<std::size_t>(swap_cursor_++ % k);
  const VertexId departing = samples_.IdAt(slot);
  // Replacement draw: rejection sampling against current membership, with a
  // deterministic forward scan as the fallback for dense sample sets. Both
  // paths consume RNG words in a state-only-dependent way, so the schedule
  // replays identically after recovery.
  VertexId arriving = kInvalidVertex;
  for (int attempt = 0; attempt < 64 && arriving == kInvalidVertex;
       ++attempt) {
    const auto v = static_cast<VertexId>(rng_.Uniform(n));
    if (!samples_.Contains(v)) arriving = v;
  }
  if (arriving == kInvalidVertex) {
    auto v = static_cast<VertexId>(rng_.Uniform(n));
    for (std::size_t step = 0; step < n; ++step) {
      if (!samples_.Contains(v)) {
        arriving = v;
        break;
      }
      v = (static_cast<std::size_t>(v) + 1 == n) ? 0 : v + 1;
    }
  }
  if (arriving == kInvalidVertex) {
    return Status::Internal("no replacement source available");
  }
  // Subtract the departing source's contribution with one from-scratch
  // sweep. This is exact (up to rounding) because incremental maintenance
  // keeps the maintained sums equal to from-scratch per-source sums on the
  // current graph — the invariant the differential tests pin.
  sweep_.vbc.assign(n, 0.0);
  sweep_.ebc.clear();
  BrandesSingleSource(graph, departing, brandes, &sweep_data_, &sweep_);
  for (std::size_t v = 0; v < n; ++v) scores->vbc[v] -= sweep_.vbc[v];
  for (const auto& [key, value] : sweep_.ebc) {
    const auto it = scores->ebc.find(key);
    if (it != scores->ebc.end()) it->second -= value;
  }
  // Swap the slot, then sweep the arrival directly into the maintained
  // sums and overwrite the slot's BD record (the store adapter translates
  // the new global id to the same slot).
  samples_.Replace(slot, arriving);
  BrandesSingleSource(graph, arriving, brandes, &sweep_data_, scores);
  return store->PutInitial(arriving, std::move(sweep_data_));
}

void FilterToSlots(const SampleSet& samples, VertexId slot_begin,
                   VertexId slot_end, std::vector<VertexId>* worklist) {
  // Non-members map to kInvalidVertex, which no slot range reaches.
  worklist->erase(std::remove_if(worklist->begin(), worklist->end(),
                                 [&](VertexId s) {
                                   const VertexId slot = samples.SlotOf(s);
                                   return slot < slot_begin ||
                                          slot >= slot_end;
                                 }),
                  worklist->end());
}

}  // namespace sobc
