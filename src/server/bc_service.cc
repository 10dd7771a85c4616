#include "server/bc_service.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "bc/bd_store_disk.h"
#include "common/io.h"
#include "common/timer.h"
#include "storage/record_codec.h"

namespace sobc {

namespace {

const char* VariantName(BcVariant variant) {
  switch (variant) {
    case BcVariant::kMemoryPredecessors:
      return "mp";
    case BcVariant::kMemory:
      return "mo";
    case BcVariant::kOutOfCore:
      return "do";
  }
  return "mo";
}

/// Estimate provenance for a publication: exact deployments get the
/// default tag, sampled ones their scale and sample-generation identity.
SnapshotEstimateInfo EstimateInfoOf(const DynamicBc& bc) {
  SnapshotEstimateInfo info;
  if (bc.approx()) {
    const ApproxStatus status = bc.approx_status();
    info.approximate = true;
    info.scale = bc.approx_scale();
    info.sample_count = status.num_samples;
    info.sample_epoch = status.sample_epoch;
  }
  return info;
}

}  // namespace

BcService::BcService(std::unique_ptr<DynamicBc> bc,
                     const BcServiceOptions& options)
    : WriterPipeline(options.queue, this,
                     options.writer_stall_timeout_seconds,
                     options.writer_batch_hook),
      options_(options),
      bc_(std::move(bc)) {}

Result<std::unique_ptr<BcService>> BcService::Create(
    Graph graph, const BcServiceOptions& options) {
  BcServiceOptions resolved = options;
  resolved.queue.directed = graph.directed();
  if (resolved.replicated && (resolved.bc.approx_samples > 0 ||
                              !resolved.bc.approx_restore_blob.empty())) {
    // Replicated shards are scoped partials by design; the sampled mode
    // owns the full source universe (DynamicBc enforces the same), and
    // mixing estimated partials into an exact merge would silently bias
    // the cluster's scores.
    return Status::InvalidArgument(
        "sampled approximation is a single-process mode; replicated "
        "shards must run exact");
  }
  auto bc = DynamicBc::Create(std::move(graph), resolved.bc);
  if (!bc.ok()) return bc.status();
  if (!resolved.replicated && (resolved.replicated_base_epoch != 0 ||
                               resolved.replicated_base_position != 0)) {
    return Status::InvalidArgument(
        "replicated_base_epoch/position require a replicated-mode service");
  }
  auto service = std::unique_ptr<BcService>(
      new BcService(std::move(*bc), resolved));
  if (resolved.durability.enabled()) {
    // Refuse pre-existing durable state in either directory: a log is
    // Recover's job, and stale higher-epoch manifests from a previous
    // deployment would win retention pruning and the fallback ladder.
    auto has_log = WalDirHasSegments(resolved.durability.wal_dir);
    if (!has_log.ok()) return has_log.status();
    if (*has_log) {
      return Status::FailedPrecondition(
          "wal dir " + resolved.durability.wal_dir +
          " already holds a log; Recover it or point at a fresh directory");
    }
  }
  // The base epoch is 0 for a fresh deployment, the donor's cut for a
  // migration recipient.
  SOBC_RETURN_NOT_OK(service->BringUp(resolved.replicated_base_epoch,
                                      resolved.replicated_base_position,
                                      /*initial_checkpoint=*/true));
  return service;
}

Result<std::unique_ptr<BcService>> BcService::Recover(
    const BcServiceOptions& options, RecoveryInfo* info) {
  BcServiceOptions resolved = options;
  DurabilityOptions& durability = resolved.durability;
  if (!durability.enabled()) {
    return Status::InvalidArgument("Recover requires durability.wal_dir");
  }
  if (durability.checkpoint_dir.empty()) {
    durability.checkpoint_dir = durability.wal_dir + "/checkpoints";
  }
  RecoveryInfo local_info;
  RecoveryInfo& out = info != nullptr ? *info : local_info;

  WallTimer load_timer;
  auto loaded = LoadLatestCheckpoint(durability.checkpoint_dir);
  if (!loaded.ok()) return loaded.status();
  const CheckpointManifest manifest = loaded->manifest;
  out.manifest_epoch = manifest.epoch;
  out.manifest_stream_position = manifest.stream_position;
  out.variant = manifest.variant;
  resolved.queue.directed = manifest.directed;
  // The manifest is authoritative for the source partition: a recovered
  // shard must rebuild the same scoped framework so its scores stay the
  // same per-shard partials it checkpointed.
  resolved.bc.source_begin = manifest.source_begin;
  resolved.bc.source_end = manifest.source_end;
  // The checkpointed sample-set state (empty for exact deployments) is
  // authoritative: the framework restores the exact sample ids, drift
  // ledger, and RNG trajectory the crashed run carried, so WAL replay
  // makes the same resampling decisions it did.
  resolved.bc.approx_restore_blob = loaded->samples_blob;
  if (loaded->samples_blob.empty() && resolved.bc.approx_samples > 0) {
    return Status::FailedPrecondition(
        "recovery requested sampled approximation but the checkpoint was "
        "written by an exact deployment; recover exact or redeploy fresh");
  }

  std::unique_ptr<DynamicBc> bc;
  if (manifest.variant == "do") {
    // Install the generation-stamped store copy as the live file and skip
    // Step 1 entirely; the byte-exact BD state is what makes serial-apply
    // recovery bit-identical to the uninterrupted run.
    resolved.bc.variant = BcVariant::kOutOfCore;
    if (resolved.bc.storage_path.empty()) {
      resolved.bc.storage_path = durability.checkpoint_dir + "/live.bd";
    }
    SOBC_RETURN_NOT_OK(CopyFile(loaded->store_path, resolved.bc.storage_path));
    auto resumed = DynamicBc::Resume(
        std::move(loaded->graph), resolved.bc,
        durability.checkpoint_dir + "/" + manifest.scores_file);
    if (!resumed.ok()) return resumed.status();
    bc = std::move(*resumed);
  } else if (manifest.variant == "mo" || manifest.variant == "mp") {
    // Warm restart: the O(nm) Step 1 rebuilds the in-memory BD structures
    // (they cannot outlive a process), but the checkpointed scores — which
    // include every pre-checkpoint update — replace the fresh ones, and
    // the WAL tail spares re-running the whole stream.
    resolved.bc.variant = manifest.variant == "mp"
                              ? BcVariant::kMemoryPredecessors
                              : BcVariant::kMemory;
    resolved.bc.storage_path.clear();
    auto created = DynamicBc::Create(std::move(loaded->graph), resolved.bc);
    if (!created.ok()) return created.status();
    SOBC_RETURN_NOT_OK((*created)->RestoreScores(std::move(loaded->scores)));
    bc = std::move(*created);
  } else {
    return Status::IOError("manifest names unknown variant '" +
                           manifest.variant + "'");
  }
  out.load_seconds = load_timer.Seconds();

  // Replay the WAL tail through the same batch-apply machinery the live
  // writer uses; each logged record reproduces exactly one publication of
  // the uninterrupted run. A torn final frame (crash mid-append) is
  // truncated away — its batch was never applied, let alone published.
  WallTimer replay_timer;
  auto replay = ReadWalForReplay(durability.wal_dir, manifest.epoch,
                                 /*truncate_torn_tail=*/true);
  if (!replay.ok()) return replay.status();
  out.torn_bytes = replay->torn_bytes;
  std::uint64_t epoch = manifest.epoch;
  std::uint64_t position = manifest.stream_position;
  for (std::size_t i = 0; i < replay->records.size(); ++i) {
    const WalRecord& record = replay->records[i];
    if (record.stream_position < position) {
      return Status::IOError("wal stream position regressed at epoch " +
                             std::to_string(record.epoch));
    }
    if (!record.updates.empty()) {
      if (Status st = bc->ApplyBatch(record.updates); !st.ok()) {
        const bool client_data_error =
            st.code() == StatusCode::kInvalidArgument ||
            st.code() == StatusCode::kNotFound ||
            st.code() == StatusCode::kAlreadyExists ||
            st.code() == StatusCode::kOutOfRange;
        if (client_data_error && i + 1 == replay->records.size()) {
          // The poisoned record that killed the live writer: logged (the
          // log-before-apply order), deterministically rejected by the
          // engine, never published. It must be the log's last record —
          // the writer died on it. Amputate it and re-enter recovery
          // from clean checkpoint state (this pass's framework applied
          // part of the batch before the rejection), preserving the
          // guarantee that recovery lands on the last PUBLISHED state.
          SOBC_RETURN_NOT_OK(TruncateWalSegment(
              durability.wal_dir, record.segment, record.frame_offset));
          const std::uint64_t poisoned_batches = out.poisoned_batches + 1;
          const std::uint64_t poisoned_updates =
              out.poisoned_updates + record.updates.size();
          bc.reset();  // release the live store before the re-entry reopens it
          if (info != nullptr) *info = RecoveryInfo{};  // re-entry refills
          auto recovered = Recover(options, info);
          if (recovered.ok() && info != nullptr) {
            info->poisoned_batches = poisoned_batches;
            info->poisoned_updates = poisoned_updates;
          }
          return recovered;
        }
        // Anything else — an internal/IO failure, or a rejected record
        // with valid history after it — is not a legal crash artifact.
        return st;
      }
    }
    epoch = record.epoch;
    position = record.stream_position;
    ++out.replayed_batches;
    out.replayed_updates += record.updates.size();
  }
  out.replay_seconds = replay_timer.Seconds();
  out.recovered_epoch = epoch;
  out.recovered_stream_position = position;

  auto service = std::unique_ptr<BcService>(
      new BcService(std::move(bc), resolved));
  // New appends land in a fresh segment starting right after the
  // recovered epoch; the replayed segments stay until a checkpoint covers
  // them (a second crash before then replays the same tail again).
  SOBC_RETURN_NOT_OK(
      service->BringUp(epoch, position, /*initial_checkpoint=*/false));
  return service;
}

Status BcService::BringUp(std::uint64_t epoch, std::uint64_t position,
                          bool initial_checkpoint) {
  // The starting scores are queryable before any update arrives, and
  // before the writer exists — no publication ever races with it.
  Publish(Snapshot(epoch, position), epoch, position);
  if (options_.durability.enabled()) {
    SOBC_RETURN_NOT_OK(StartDurability(epoch + 1, initial_checkpoint));
  }
  if (!options_.replicated) Start();
  return Status::OK();
}

Status BcService::StartDurability(std::uint64_t next_epoch,
                                  bool initial_checkpoint) {
  DurabilityOptions& durability = options_.durability;
  if (durability.checkpoint_dir.empty()) {
    durability.checkpoint_dir = durability.wal_dir + "/checkpoints";
  }
  if (initial_checkpoint) {
    auto has_checkpoints =
        CheckpointDirHasManifests(durability.checkpoint_dir);
    if (!has_checkpoints.ok()) return has_checkpoints.status();
    if (*has_checkpoints) {
      return Status::FailedPrecondition(
          "checkpoint dir " + durability.checkpoint_dir +
          " already holds checkpoints; Recover them or point at a fresh "
          "directory");
    }
  }
  checkpointer_ = std::make_unique<CheckpointWriter>(
      durability.checkpoint_dir, durability.wal_dir,
      durability.retain_checkpoints);
  if (initial_checkpoint) {
    // The initial checkpoint is what makes the WAL replayable at all (a
    // log without a base graph recovers nothing), and it must be durable
    // BEFORE the first WAL segment exists: a crash between the two leaves
    // state both Create (segments present) and Recover (no manifest)
    // would refuse. Committed synchronously, in the safe order.
    auto job = CaptureCheckpointJob(final_epoch(), final_position());
    if (!job.ok()) return job.status();
    SOBC_RETURN_NOT_OK(checkpointer_->WriteNow(std::move(*job)));
  }
  WalOptions wal_options;
  wal_options.fsync_every = durability.wal_fsync_every;
  auto wal = WalWriter::Open(durability.wal_dir, next_epoch, wal_options);
  if (!wal.ok()) return wal.status();
  wal_ = std::move(*wal);
  last_checkpoint_stamp_ = SteadyNowSeconds();
  return Status::OK();
}

Result<CheckpointWriter::Job> BcService::CaptureCheckpointJob(
    std::uint64_t epoch, std::uint64_t position) {
  CheckpointWriter::Job job;
  job.epoch = epoch;
  job.stream_position = position;
  job.graph = bc_->graph();
  job.scores = bc_->scores();
  job.variant = VariantName(options_.bc.variant);
  job.source_begin = options_.bc.source_begin;
  job.source_end = options_.bc.source_end;
  job.samples_blob = bc_->SerializeApproxState();
  if (options_.bc.variant == BcVariant::kOutOfCore) {
    // disk_store() is the root disk handle even in approx mode, where
    // store() is the slot-translating adapter wrapped around it.
    DiskBdStore* disk = bc_->disk_store();
    if (disk == nullptr) {
      return Status::Internal("out-of-core framework without a disk store");
    }
    // Flush makes the file the full BD state; nothing mutates it until
    // this capture returns (the writer is here, workers are parked), so
    // the byte copy is a consistent generation stamped by its epoch.
    SOBC_RETURN_NOT_OK(disk->Flush());
    job.store_file = "bd-" + std::to_string(epoch) + ".bin";
    job.store_codec = RecordCodecName(disk->codec());
    SOBC_RETURN_NOT_OK(CopyFile(disk->path(),
                                checkpointer_->dir() + "/" + job.store_file,
                                &job.store_crc));
  }
  return job;
}

Status BcService::MaybeCheckpoint(std::uint64_t epoch,
                                  std::uint64_t position) {
  const DurabilityOptions& durability = options_.durability;
  bool due = durability.checkpoint_every_updates > 0 &&
             updates_since_checkpoint_ >= durability.checkpoint_every_updates;
  if (!due && durability.checkpoint_interval_seconds > 0 &&
      SteadyNowSeconds() - last_checkpoint_stamp_ >=
          durability.checkpoint_interval_seconds) {
    due = true;
  }
  if (!due) return Status::OK();
  // Reset the policy clock even when the trigger is skipped, so a slow
  // in-flight checkpoint is not hammered with a capture per batch.
  updates_since_checkpoint_ = 0;
  last_checkpoint_stamp_ = SteadyNowSeconds();
  if (!checkpointer_->AdmitTrigger()) return Status::OK();
  auto job = CaptureCheckpointJob(epoch, position);
  if (!job.ok()) {
    // A failed capture (ENOSPC copying the BD store, a flush error) costs
    // this and future checkpoints, not serving: the engine state is
    // intact and the WAL keeps every batch recoverable. Degrade and move
    // on — WAL-only, checkpoints suspended.
    EnterDegraded(job.status());
    return Status::OK();
  }
  if (checkpointer_->Enqueue(std::move(*job))) {
    // Segment boundary aligned to the checkpoint: once its manifest is
    // durable, every earlier segment is fully covered and prunable. A
    // rotate failure stays fatal — it poisons or loses the WAL itself.
    SOBC_RETURN_NOT_OK(wal_->Rotate(epoch + 1));
  }
  return Status::OK();
}

BcService::~BcService() { (void)Stop(); }

ServeMetricsSnapshot BcService::metrics() const {
  ServeMetricsSnapshot snap = WriterPipeline::metrics();
  if (wal_ != nullptr) {
    const WalStats wal_stats = wal_->stats();
    snap.wal_appends = wal_stats.appends;
    snap.wal_appended_updates = wal_stats.appended_updates;
    snap.wal_bytes = wal_stats.bytes;
    snap.wal_syncs = wal_stats.syncs;
    snap.wal_rotations = wal_stats.rotations;
    snap.wal_last_durable_epoch = wal_stats.last_durable_epoch;
  }
  if (checkpointer_ != nullptr) {
    const CheckpointStats checkpoint_stats = checkpointer_->stats();
    snap.checkpoints_written = checkpoint_stats.written;
    snap.checkpoints_skipped = checkpoint_stats.skipped;
    snap.checkpoints_failed = checkpoint_stats.failed;
    snap.last_checkpoint_epoch = checkpoint_stats.last_epoch;
    snap.checkpoint_write_seconds = checkpoint_stats.write_seconds_total;
  }
  return snap;
}

Status BcService::Log(std::uint64_t epoch, std::uint64_t position,
                      std::span<const EdgeUpdate> updates) {
  if (wal_ == nullptr) return Status::OK();
  // Log-before-apply: by the time any effect of this batch can exist (in
  // memory or in the BD store file), the batch itself is already
  // recoverable. An empty coalesced-away batch still logs — replay must
  // reproduce its epoch and position.
  SOBC_RETURN_NOT_OK(wal_->Append(epoch, position, updates));
  if (options_.durability.kill_after_appends > 0 &&
      wal_->stats().appends >= options_.durability.kill_after_appends) {
    // Crash injection (tests, CI recovery smoke): die hard with the
    // logged batch never applied — the worst legal crash point.
    (void)wal_->Sync();
    std::_Exit(137);
  }
  return Status::OK();
}

Status BcService::Apply(std::uint64_t /*epoch*/, std::uint64_t /*position*/,
                        std::span<const EdgeUpdate> updates,
                        UpdateStats* counters) {
  if (!updates.empty()) {
    SOBC_RETURN_NOT_OK(bc_->ApplyBatch(updates));
    *counters = bc_->last_update_stats();
  }
  if (bc_->approx()) {
    const ApproxStatus approx = bc_->approx_status();
    serve_metrics().RecordApprox(approx.num_samples, approx.sample_epoch,
                                 approx.resample_rounds, approx.source_swaps,
                                 approx.drift);
  }
  return Status::OK();
}

std::shared_ptr<const ScoreSnapshot> BcService::Snapshot(
    std::uint64_t epoch, std::uint64_t position) {
  return BuildSnapshot(bc_->graph(), bc_->scores(), epoch, position,
                       options_.top_k, options_.snapshot_edge_scores,
                       EstimateInfoOf(*bc_));
}

Status BcService::AfterPublish(std::uint64_t epoch, std::uint64_t position,
                               std::uint64_t consumed) {
  if (checkpointer_ == nullptr) return Status::OK();
  // A background checkpoint that failed since the last batch degrades
  // the service (checkpoints suspended, WAL-only) without killing it.
  if (Status background = checkpointer_->PeekError(); !background.ok()) {
    EnterDegraded(background);
  }
  if (health() != ServiceHealth::kHealthy) return Status::OK();
  updates_since_checkpoint_ += consumed;
  return MaybeCheckpoint(epoch, position);
}

Status BcService::ApplyReplicatedBatch(std::uint64_t epoch,
                                       std::uint64_t stream_position,
                                       std::span<const EdgeUpdate> updates) {
  if (!options_.replicated) {
    return Status::FailedPrecondition(
        "ApplyReplicatedBatch requires a replicated-mode service");
  }
  if (health() == ServiceHealth::kReadOnly) {
    Status why = last_error();
    return why.ok() ? Status::FailedPrecondition("shard is read-only")
                    : why;
  }
  const std::uint64_t current = final_epoch();
  // Exactly-once under coordinator retries: a redelivered epoch was fully
  // applied (and logged) before — acknowledging it again is the idempotent
  // half of the delivery argument (DESIGN.md §13).
  if (epoch <= current) return Status::OK();
  if (epoch != current + 1) {
    return Status::FailedPrecondition(
        "replicated batch epoch " + std::to_string(epoch) +
        " leaves a gap after " + std::to_string(current) +
        "; resend the missing epochs first");
  }
  const std::uint64_t previous = final_position();
  const std::uint64_t consumed = std::max<std::uint64_t>(
      stream_position > previous ? stream_position - previous : 0,
      updates.size());
  // Latency on a shard is receive-to-publish (the coordinator owns the
  // submit-to-publish number; the queue lives there).
  std::vector<double> stamps(updates.size(), SteadyNowSeconds());
  return RunBatch(epoch, stream_position, updates, consumed, &stamps);
}

Status BcService::RescopeSourceRange(VertexId begin, VertexId end) {
  if (!options_.replicated) {
    return Status::FailedPrecondition(
        "RescopeSourceRange requires a replicated-mode service");
  }
  if (health() == ServiceHealth::kReadOnly) {
    Status why = last_error();
    return why.ok() ? Status::FailedPrecondition("shard is read-only") : why;
  }
  if (options_.bc.variant == BcVariant::kOutOfCore) {
    return Status::FailedPrecondition(
        "rescope an out-of-core shard by re-bootstrapping it from a "
        "checkpoint: its BD store file is scoped to the old range");
  }
  // Exact maintenance keeps the framework equal to a from-scratch build on
  // the current graph, so a scoped Step 1 over a copy of that graph IS the
  // exact partial for the new range at the current epoch (DESIGN.md §13).
  Graph graph = bc_->graph();
  options_.bc.source_begin = begin;
  options_.bc.source_end = end;
  auto rebuilt = DynamicBc::Create(std::move(graph), options_.bc);
  if (!rebuilt.ok()) return rebuilt.status();
  bc_ = std::move(*rebuilt);
  const std::uint64_t epoch = final_epoch();
  const std::uint64_t position = final_position();
  // Republished at the UNCHANGED epoch/position: no snapshot (and thus no
  // merged cluster epoch) is ever computed under two shard maps at once.
  Publish(Snapshot(epoch, position), epoch, position);
  if (checkpointer_ != nullptr) {
    // Force a checkpoint under the new scope so a crash after the commit
    // recovers the new range (the manifest is authoritative for the
    // partition). Its failure costs durability, not the rescope.
    Status background = checkpointer_->WaitIdle();
    if (!background.ok()) EnterDegraded(background);
    if (health() == ServiceHealth::kHealthy) {
      auto job = CaptureCheckpointJob(epoch, position);
      Status wrote = job.ok() ? checkpointer_->WriteNow(std::move(*job))
                              : job.status();
      if (!wrote.ok()) EnterDegraded(wrote);
    }
    updates_since_checkpoint_ = 0;
    last_checkpoint_stamp_ = SteadyNowSeconds();
  }
  return Status::OK();
}

void BcService::Halt() {
  // Skipping the clean-shutdown checkpoint leaves exactly what a kill
  // leaves behind: the last periodic checkpoint plus the WAL tail.
  final_checkpoint_done_ = true;
  (void)Stop();
}

Status BcService::Stop() {
  Status status = WriterPipeline::Stop();
  // The writer can no longer touch the framework; push the final BD state
  // to stable storage so a serve-mode out-of-core deployment is resumable
  // (no-op for the in-memory variants).
  if (Status flush = bc_->store()->Flush(); !flush.ok()) {
    RecordTerminal(flush);
    if (status.ok()) status = flush;
  }
  if (checkpointer_ != nullptr && !final_checkpoint_done_) {
    final_checkpoint_done_ = true;
    Status background = checkpointer_->WaitIdle();
    if (!background.ok()) EnterDegraded(background);
    Status final_status = background;
    if (status.ok() && background.ok() &&
        health() == ServiceHealth::kHealthy) {
      // A clean shutdown commits a checkpoint at the final epoch, so the
      // next start replays nothing. Suspended (degraded) services skip
      // it — whatever suspended checkpointing (ENOSPC) still holds, and
      // the WAL already covers every applied batch.
      auto job = CaptureCheckpointJob(final_epoch(), final_position());
      final_status = job.ok() ? checkpointer_->WriteNow(std::move(*job))
                              : job.status();
    }
    if (!final_status.ok()) {
      // A failed shutdown checkpoint leaves the next start replaying the
      // WAL tail — reduced durability, same ladder rung as any other
      // checkpoint failure.
      EnterDegraded(final_status);
      RecordTerminal(final_status);
      if (status.ok()) status = final_status;
    }
  }
  return status;
}

}  // namespace sobc
