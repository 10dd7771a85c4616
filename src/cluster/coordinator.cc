#include "cluster/coordinator.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "cluster/lease.h"
#include "common/io.h"
#include "parallel/score_reduce.h"

namespace sobc {

namespace {

ClusterCoordinatorOptions ResolveOptions(
    const ClusterCoordinatorOptions& options, const Graph& graph) {
  ClusterCoordinatorOptions resolved = options;
  resolved.queue.directed = graph.directed();
  resolved.replay_window_batches =
      std::max<std::size_t>(1, resolved.replay_window_batches);
  return resolved;
}

std::string ShardName(std::uint32_t index, const std::string& address) {
  return "shard " + std::to_string(index) + " (" + address + ")";
}

/// Receives one frame and requires it to be `want`; any transport error,
/// decode error, or other message type comes back as a status.
Status RecvExpect(Connection* conn, MsgType want, double timeout_seconds,
                  std::string* payload) {
  SOBC_RETURN_NOT_OK(conn->RecvFrame(payload, timeout_seconds));
  auto type = PeekType(*payload);
  SOBC_RETURN_NOT_OK(type.status());
  if (*type != want) {
    return Status::Internal(
        "protocol desync: expected message type " +
        std::to_string(static_cast<int>(want)) + ", got " +
        std::to_string(static_cast<int>(*type)));
  }
  return Status::OK();
}

void SleepSeconds(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

/// One Fetch/Partial round trip: the shard's cumulative partial at its
/// current epoch.
Result<PartialMsg> FetchPartial(Connection* conn, double timeout_seconds) {
  SOBC_RETURN_NOT_OK(conn->SendFrame(EncodeFetch()));
  std::string payload;
  SOBC_RETURN_NOT_OK(
      RecvExpect(conn, MsgType::kPartial, timeout_seconds, &payload));
  return DecodePartial(payload);
}

}  // namespace

ClusterCoordinator::ClusterCoordinator(
    Graph graph, const ClusterCoordinatorOptions& options)
    : WriterPipeline(ResolveOptions(options, graph).queue, this),
      options_(ResolveOptions(options, graph)),
      graph_(std::move(graph)) {
  boot_vertices_ = graph_.NumVertices();
  boot_edges_ = graph_.NumEdges();
  boot_directed_ = graph_.directed();
}

ClusterCoordinator::~ClusterCoordinator() { (void)Stop(); }

Result<HelloAckMsg> ClusterCoordinator::Handshake(Connection* conn,
                                                  const Graph& graph,
                                                  double timeout_seconds) {
  HelloMsg hello;
  hello.num_vertices = graph.NumVertices();
  hello.num_edges = graph.NumEdges();
  hello.directed = graph.directed();
  SOBC_RETURN_NOT_OK(conn->SendFrame(EncodeHello(hello)));
  std::string payload;
  SOBC_RETURN_NOT_OK(
      RecvExpect(conn, MsgType::kHelloAck, timeout_seconds, &payload));
  auto ack = DecodeHelloAck(payload);
  SOBC_RETURN_NOT_OK(ack.status());
  if (ack->protocol_version != kClusterProtocolVersion) {
    return Status::FailedPrecondition(
        "shard speaks cluster protocol v" +
        std::to_string(ack->protocol_version) + ", coordinator speaks v" +
        std::to_string(kClusterProtocolVersion));
  }
  return ack;
}

ClusterCoordinator::Shard ClusterCoordinator::ShardFromHello(
    const std::string& address, const HelloAckMsg& hello) {
  Shard shard;
  shard.address = address;
  shard.index = hello.shard_index;
  shard.reported_count = hello.shard_count;
  shard.range = hello.range;
  shard.epoch = hello.epoch;
  shard.health = hello.health;
  return shard;
}

Result<std::unique_ptr<ClusterCoordinator>> ClusterCoordinator::Connect(
    Graph graph, const std::vector<std::string>& shard_addresses,
    Transport* transport, const ClusterCoordinatorOptions& options) {
  if (transport == nullptr) {
    return Status::InvalidArgument("cluster coordinator needs a transport");
  }
  const std::size_t num_shards = shard_addresses.size();
  if (num_shards == 0) {
    return Status::InvalidArgument("a cluster needs at least one shard");
  }
  auto coordinator = std::unique_ptr<ClusterCoordinator>(
      new ClusterCoordinator(std::move(graph), options));
  coordinator->transport_ = transport;
  const ClusterCoordinatorOptions& resolved = coordinator->options_;

  // Handshake every shard; order the roster by the index each one
  // reports, not by the address list (an operator may list them in any
  // order — the shard map is what must tile).
  std::vector<Shard> roster(num_shards);
  std::vector<bool> seen(num_shards, false);
  std::uint64_t newest_map_version = 1;
  for (const std::string& address : shard_addresses) {
    auto conn =
        transport->Connect(address, resolved.connect_timeout_seconds);
    if (!conn.ok()) {
      return Status(conn.status().code(),
                    "connecting to shard " + address + ": " +
                        conn.status().message());
    }
    auto ack = Handshake(conn->get(), coordinator->graph_,
                         resolved.shard_ack_timeout_seconds);
    if (!ack.ok()) {
      return Status(ack.status().code(),
                    "handshake with shard " + address + ": " +
                        ack.status().message());
    }
    if (ack->shard_count != num_shards) {
      return Status::FailedPrecondition(
          "shard " + address + " was started for a " +
          std::to_string(ack->shard_count) + "-shard cluster, coordinator has " +
          std::to_string(num_shards) + " addresses");
    }
    if (ack->shard_index >= num_shards || seen[ack->shard_index]) {
      return Status::FailedPrecondition(
          "shard " + address + " reports index " +
          std::to_string(ack->shard_index) +
          ", which is out of range or already taken");
    }
    if (ack->num_vertices != coordinator->graph_.NumVertices() ||
        ack->num_edges != coordinator->graph_.NumEdges() ||
        ack->directed != coordinator->graph_.directed()) {
      return Status::FailedPrecondition(
          "graph signature mismatch with shard " + address +
          ": it serves a different graph than the coordinator's replica");
    }
    if (static_cast<ServiceHealth>(ack->health) ==
        ServiceHealth::kReadOnly) {
      return Status::FailedPrecondition(
          "shard " + address + " is read-only; restart it before bring-up");
    }
    newest_map_version = std::max(newest_map_version, ack->map_version);
    Shard shard = ShardFromHello(address, *ack);
    shard.conn = std::move(*conn);
    roster[ack->shard_index] = std::move(shard);
    seen[ack->shard_index] = true;
  }

  std::vector<ShardRange> ranges;
  ranges.reserve(num_shards);
  for (const Shard& shard : roster) ranges.push_back(shard.range);
  SOBC_RETURN_NOT_OK(
      ValidateShardMap(ranges, coordinator->graph_.NumVertices()));
  for (const Shard& shard : roster) {
    if (shard.epoch != roster[0].epoch) {
      return Status::FailedPrecondition(
          "shards disagree on the replicated epoch at bring-up (" +
          ShardName(shard.index, shard.address) + " is at epoch " +
          std::to_string(shard.epoch) + ", shard 0 at " +
          std::to_string(roster[0].epoch) +
          "); re-bootstrap them from one checkpoint set");
    }
  }
  coordinator->shards_ = std::move(roster);
  coordinator->map_version_plain_ = newest_map_version;
  coordinator->map_version_.store(newest_map_version,
                                  std::memory_order_release);

  // The bring-up merge: fetch every shard's current partial and publish
  // the epoch the cluster stands at before accepting any update.
  std::vector<BcScores>& partials = coordinator->partials_;
  partials.resize(num_shards);
  std::uint64_t base_epoch = coordinator->shards_[0].epoch;
  std::uint64_t base_position = 0;
  for (std::size_t i = 0; i < num_shards; ++i) {
    Shard& shard = coordinator->shards_[i];
    auto partial =
        FetchPartial(shard.conn.get(), resolved.shard_ack_timeout_seconds);
    SOBC_RETURN_NOT_OK(partial.status());
    if (partial->epoch != base_epoch) {
      return Status::FailedPrecondition(
          ShardName(shard.index, shard.address) +
          " moved between handshake and the bring-up fetch");
    }
    base_position = partial->stream_position;
    partials[i] = std::move(partial->partial);
    if (static_cast<ServiceHealth>(partial->health) ==
        ServiceHealth::kDegraded) {
      coordinator->EnterDegraded(Status::FailedPrecondition(
          ShardName(shard.index, shard.address) +
          " is degraded (checkpointing suspended shard-side)"));
    }
  }
  coordinator->BringUp(base_epoch, base_position);
  if (!resolved.standby_listen.empty()) {
    auto listener = transport->Listen(resolved.standby_listen);
    if (!listener.ok()) {
      return Status(listener.status().code(),
                    "listening for a standby on " + resolved.standby_listen +
                        ": " + listener.status().message());
    }
    coordinator->standby_address_ = (*listener)->address();
    coordinator->standby_listener_ = std::move(*listener);
    coordinator->standby_acceptor_ = std::thread(
        [raw = coordinator.get()] { raw->StandbyAcceptorLoop(); });
  }
  coordinator->Start();
  return coordinator;
}

Result<std::unique_ptr<ClusterCoordinator>> ClusterCoordinator::Standby(
    Graph graph, const std::vector<std::string>& shard_addresses,
    Transport* transport, const std::string& primary_address,
    const ClusterCoordinatorOptions& options) {
  if (transport == nullptr) {
    return Status::InvalidArgument("cluster standby needs a transport");
  }
  if (shard_addresses.empty()) {
    return Status::InvalidArgument("a cluster needs at least one shard");
  }
  auto coordinator = std::unique_ptr<ClusterCoordinator>(
      new ClusterCoordinator(std::move(graph), options));
  coordinator->transport_ = transport;
  coordinator->shard_addresses_ = shard_addresses;
  coordinator->role_.store(Role::kStandbyTailing, std::memory_order_release);

  auto conn = transport->Connect(primary_address,
                                 coordinator->options_.connect_timeout_seconds);
  if (!conn.ok()) {
    return Status(conn.status().code(),
                  "connecting to the primary's standby feed at " +
                      primary_address + ": " + conn.status().message());
  }
  std::string payload;
  const Status received =
      RecvExpect(conn->get(), MsgType::kReplicate,
                 coordinator->options_.shard_ack_timeout_seconds, &payload);
  if (!received.ok()) {
    return Status(received.code(), "waiting for the primary's bootstrap: " +
                                       received.message());
  }
  auto boot = DecodeReplicate(payload);
  SOBC_RETURN_NOT_OK(boot.status());
  if (boot->kind != ReplicateMsg::kBootstrap) {
    return Status::Internal(
        "primary sent a non-bootstrap frame to a fresh standby");
  }
  ReplicateAckMsg ack;
  ack.epoch = boot->epoch;
  if (boot->num_vertices != coordinator->graph_.NumVertices() ||
      boot->num_edges != coordinator->graph_.NumEdges() ||
      boot->directed != coordinator->graph_.directed()) {
    ack.ok = false;
    ack.message = "graph signature mismatch";
    (void)(*conn)->SendFrame(EncodeReplicateAck(ack));
    return Status::FailedPrecondition(
        "graph signature mismatch with the primary: the standby must be "
        "started with the primary's bring-up graph");
  }
  SOBC_RETURN_NOT_OK((*conn)->SendFrame(EncodeReplicateAck(ack)));

  coordinator->base_epoch_ = boot->epoch;
  coordinator->base_position_ = boot->stream_position;
  // Position only: a tailing standby has no servable snapshot.
  coordinator->Publish(nullptr, boot->epoch, boot->stream_position);
  coordinator->primary_conn_ = std::move(*conn);
  coordinator->tail_thread_ =
      std::thread([raw = coordinator.get()] { raw->TailLoop(); });
  return coordinator;
}

void ClusterCoordinator::RefreshShardStatusLocked() {
  shard_status_.clear();
  shard_status_.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    ShardStatus status;
    status.address = shard.address;
    status.range = shard.range;
    status.epoch = shard.epoch;
    status.health = static_cast<ServiceHealth>(shard.health);
    status.reconnects = shard.reconnects;
    status.resent_batches = shard.resent_batches;
    status.joining = shard.joining;
    shard_status_.push_back(std::move(status));
  }
}

std::vector<ShardStatus> ClusterCoordinator::shard_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shard_status_;
}

void ClusterCoordinator::BringUp(std::uint64_t epoch, std::uint64_t position) {
  // Merge pool: the reduce tree over p partials has floor(p/2)-way
  // parallelism in its first round; tiny clusters merge serially.
  if (options_.merge_threads > 0) {
    merge_pool_ = std::make_unique<ThreadPool>(options_.merge_threads);
  } else if (shards_.size() >= 4) {
    merge_pool_ = std::make_unique<ThreadPool>(shards_.size() / 2);
  }
  MergePartials();
  Publish(Snapshot(epoch, position), epoch, position);
  base_epoch_ = epoch;
  base_position_ = position;
  std::lock_guard<std::mutex> lock(mu_);
  RefreshShardStatusLocked();
}

void ClusterCoordinator::MergePartials() {
  std::vector<BcScores*> pointers;
  pointers.reserve(partials_.size());
  for (BcScores& partial : partials_) pointers.push_back(&partial);
  TreeReduceScores(merge_pool_.get(), pointers);
}

Status ClusterCoordinator::PropagateShardHealth(const Shard& shard,
                                                std::uint8_t health) {
  switch (static_cast<ServiceHealth>(health)) {
    case ServiceHealth::kHealthy:
      return Status::OK();
    case ServiceHealth::kDegraded:
      // The rung propagates: reduced durability anywhere in the cluster
      // is reduced durability of the cluster.
      EnterDegraded(Status::FailedPrecondition(
          ShardName(shard.index, shard.address) + " is degraded"));
      return Status::OK();
    case ServiceHealth::kReadOnly:
    default:
      return Status::FailedPrecondition(
          ShardName(shard.index, shard.address) +
          " is read-only — its writer is dead, so the cluster cannot "
          "advance");
  }
}

Status ClusterCoordinator::RecoverShard(Shard* shard,
                                        std::uint64_t target_epoch,
                                        ApplyAckMsg* final_ack) {
  const std::string who = ShardName(shard->index, shard->address);
  if (shard->conn != nullptr) {
    shard->conn->Close();
    shard->conn.reset();
  }
  const double deadline =
      SteadyNowSeconds() + options_.shard_retry_seconds;
  Status last_error = Status::IOError(who + " is unreachable");
  while (SteadyNowSeconds() < deadline) {
    SleepSeconds(options_.reconnect_backoff_seconds);
    auto conn = transport_->Connect(shard->address,
                                    options_.connect_timeout_seconds);
    if (!conn.ok()) {
      last_error = conn.status();
      continue;
    }
    auto hello = Handshake(conn->get(), graph_,
                           options_.shard_ack_timeout_seconds);
    if (!hello.ok()) {
      last_error = hello.status();
      continue;
    }
    if (hello->shard_index != shard->index ||
        hello->shard_count != shard->reported_count ||
        !(hello->range == shard->range)) {
      return Status::FailedPrecondition(
          who + " came back with a different identity or partition; "
          "re-bootstrap it from this cluster's checkpoints");
    }
    if (hello->map_version > map_version_plain_) {
      return Status::FailedPrecondition(
          who + " came back from shard-map version " +
          std::to_string(hello->map_version) +
          ", newer than the coordinator's " +
          std::to_string(map_version_plain_) +
          "; re-bootstrap the cluster from one checkpoint set");
    }
    if (static_cast<ServiceHealth>(hello->health) ==
        ServiceHealth::kReadOnly) {
      return Status::FailedPrecondition(
          who + " came back read-only; restart it from its checkpoint");
    }
    if (hello->epoch > target_epoch) {
      return Status::Internal(who + " is at epoch " +
                              std::to_string(hello->epoch) +
                              ", ahead of the coordinator's " +
                              std::to_string(target_epoch));
    }
    ApplyAckMsg ack;
    if (hello->epoch < target_epoch) {
      // Rejoin: resend every epoch it missed from the replay window.
      // Duplicates are safe (the shard dedupes by epoch) — only a gap
      // would be refused, and resending contiguously never leaves one.
      if (window_.empty() || window_.front().epoch > hello->epoch + 1) {
        return Status::FailedPrecondition(
            who + " recovered to epoch " + std::to_string(hello->epoch) +
            ", outside the coordinator's replay window (oldest " +
            std::to_string(window_.empty() ? target_epoch
                                           : window_.front().epoch) +
            "); re-bootstrap it from a fresher checkpoint copy");
      }
      const Status resent =
          ResendWindow(conn->get(), hello->epoch, target_epoch, shard, &ack);
      if (!resent.ok()) {
        last_error = resent;
        continue;
      }
      if (!ack.ok) {
        return Status(static_cast<StatusCode>(ack.status_code),
                      who + " failed during resync: " + ack.message);
      }
      if (ack.epoch != target_epoch) {
        last_error = Status::Internal(
            who + " acked epoch " + std::to_string(ack.epoch) +
            " instead of " + std::to_string(target_epoch));
        continue;
      }
    } else {
      // The shard already holds the target epoch — the batch landed and
      // only its ack was lost. Fetch the partial that ack carried.
      auto partial =
          FetchPartial(conn->get(), options_.shard_ack_timeout_seconds);
      if (!partial.ok()) {
        last_error = partial.status();
        continue;
      }
      if (partial->epoch != target_epoch) {
        last_error = Status::Internal(who + " moved during recovery");
        continue;
      }
      ack.epoch = partial->epoch;
      ack.stream_position = partial->stream_position;
      ack.health = partial->health;
      ack.partial = std::move(partial->partial);
    }
    shard->conn = std::move(*conn);
    ++shard->reconnects;
    *final_ack = std::move(ack);
    return Status::OK();
  }
  return Status::IOError(
      "retry budget (" + std::to_string(options_.shard_retry_seconds) +
      "s) exhausted bringing back " + who + ": " + last_error.message());
}

Status ClusterCoordinator::ResendWindow(Connection* conn,
                                        std::uint64_t after_epoch,
                                        std::uint64_t through_epoch,
                                        Shard* shard, ApplyAckMsg* ack) {
  for (std::uint64_t e = after_epoch + 1; e <= through_epoch; ++e) {
    const WindowEntry& entry = window_[e - window_.front().epoch];
    ApplyMsg msg;
    msg.epoch = entry.epoch;
    msg.stream_position = entry.stream_position;
    msg.updates = entry.updates;
    SOBC_RETURN_NOT_OK(conn->SendFrame(EncodeApply(msg)));
    std::string payload;
    SOBC_RETURN_NOT_OK(RecvExpect(conn, MsgType::kApplyAck,
                                  options_.shard_ack_timeout_seconds,
                                  &payload));
    auto decoded = DecodeApplyAck(payload);
    SOBC_RETURN_NOT_OK(decoded.status());
    *ack = std::move(*decoded);
    if (!ack->ok) return Status::OK();
    ++shard->resent_batches;
  }
  return Status::OK();
}

Status ClusterCoordinator::ReplicateBatch(
    std::uint64_t epoch, std::uint64_t stream_position,
    std::span<const EdgeUpdate> updates, std::vector<BcScores>* partials,
    UpdateStats* totals) {
  ApplyMsg msg;
  msg.epoch = epoch;
  msg.stream_position = stream_position;
  msg.updates.assign(updates.begin(), updates.end());
  const std::string frame = EncodeApply(msg);

  // Pipeline: every shard gets the frame before any ack is awaited, so
  // one slow shard overlaps the others' apply work. A joining migration
  // recipient is in the fan-out too — the double-apply window — but its
  // failures abort the migration instead of the batch, and its partial
  // is dropped before the merge (it owns nothing until the commit).
  std::vector<bool> sent(shards_.size(), false);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].conn != nullptr) {
      sent[i] = shards_[i].conn->SendFrame(frame).ok();
    }
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = shards_[i];
    ApplyAckMsg ack;
    bool have_ack = false;
    if (sent[i]) {
      std::string payload;
      if (RecvExpect(shard.conn.get(), MsgType::kApplyAck,
                     options_.shard_ack_timeout_seconds, &payload)
              .ok()) {
        auto decoded = DecodeApplyAck(payload);
        if (decoded.ok()) {
          ack = std::move(*decoded);
          have_ack = true;
        }
      }
    }
    if (shard.joining) {
      Status joining_status;
      if (!have_ack) {
        joining_status = Status::IOError(
            "migration recipient " + shard.address +
            " stopped answering during the double-apply window");
      } else if (!ack.ok) {
        joining_status =
            Status(static_cast<StatusCode>(ack.status_code),
                   "migration recipient " + shard.address +
                       " failed applying epoch " + std::to_string(epoch) +
                       ": " + ack.message);
      } else if (ack.epoch != epoch) {
        joining_status = Status::Internal(
            "migration recipient " + shard.address + " acked epoch " +
            std::to_string(ack.epoch) + " instead of " +
            std::to_string(epoch));
      } else if (static_cast<ServiceHealth>(ack.health) ==
                 ServiceHealth::kReadOnly) {
        joining_status = Status::FailedPrecondition(
            "migration recipient " + shard.address + " went read-only");
      }
      if (!joining_status.ok()) {
        migration_.joining_status = joining_status;
        continue;
      }
      shard.epoch = ack.epoch;
      shard.health = ack.health;
      ++migration_.double_applied;
      migration_lag_batches_.store(migration_.double_applied,
                                   std::memory_order_relaxed);
      (*partials)[i] = std::move(ack.partial);
      continue;
    }
    if (have_ack && !ack.ok) {
      if (static_cast<StatusCode>(ack.status_code) ==
          StatusCode::kFailedPrecondition) {
        // The shard refused an epoch gap — it is behind (crashed and
        // recovered to an older checkpoint). Resync it like a
        // disconnect.
        have_ack = false;
      } else {
        return Status(static_cast<StatusCode>(ack.status_code),
                      ShardName(shard.index, shard.address) +
                          " failed applying epoch " +
                          std::to_string(epoch) + ": " + ack.message);
      }
    }
    if (have_ack && ack.epoch != epoch) have_ack = false;
    if (!have_ack) {
      // Send failed, ack timed out / connection died, or the shard needs
      // a resync: the per-shard watchdog path, bounded by the retry
      // budget.
      SOBC_RETURN_NOT_OK(RecoverShard(&shard, epoch, &ack));
    }
    SOBC_RETURN_NOT_OK(PropagateShardHealth(shard, ack.health));
    shard.epoch = ack.epoch;
    shard.health = ack.health;
    totals->sources_total += ack.sources_total;
    totals->sources_prefiltered += ack.sources_prefiltered;
    totals->msbfs_batches += ack.msbfs_batches;
    totals->bottom_up_levels += ack.bottom_up_levels;
    (*partials)[i] = std::move(ack.partial);
  }
  return Status::OK();
}

Status ClusterCoordinator::ReplicateEntryTo(Connection* conn,
                                            const WindowEntry& entry) {
  ReplicateMsg msg;
  msg.kind = ReplicateMsg::kBatch;
  msg.epoch = entry.epoch;
  msg.stream_position = entry.stream_position;
  msg.updates = entry.updates;
  SOBC_RETURN_NOT_OK(conn->SendFrame(EncodeReplicate(msg)));
  std::string payload;
  SOBC_RETURN_NOT_OK(RecvExpect(conn, MsgType::kReplicateAck,
                                options_.shard_ack_timeout_seconds,
                                &payload));
  auto ack = DecodeReplicateAck(payload);
  SOBC_RETURN_NOT_OK(ack.status());
  if (!ack->ok) {
    return Status::FailedPrecondition(
        "standby refused epoch " + std::to_string(entry.epoch) + ": " +
        ack->message);
  }
  if (ack->epoch != entry.epoch) {
    return Status::Internal("standby acked epoch " +
                            std::to_string(ack->epoch) + " instead of " +
                            std::to_string(entry.epoch));
  }
  return Status::OK();
}

void ClusterCoordinator::PushWindowAndReplicate(WindowEntry entry) {
  std::lock_guard<std::mutex> lock(standby_mu_);
  window_.push_back(std::move(entry));
  while (window_.size() > options_.replay_window_batches) {
    window_.pop_front();
  }
  if (standby_conn_ == nullptr) return;
  // Replicate-before-fanout: the standby holds this epoch before any
  // shard sees it, so at takeover the standby's window is always long
  // enough to resync every shard (DESIGN.md §13). A standby failure
  // detaches it — the cluster keeps serving without its safety net.
  const Status sent = ReplicateEntryTo(standby_conn_.get(), window_.back());
  if (!sent.ok()) {
    standby_conn_->Close();
    standby_conn_.reset();
    standby_attached_.store(0, std::memory_order_release);
    return;
  }
  replicated_batches_.fetch_add(1, std::memory_order_relaxed);
}

void ClusterCoordinator::StandbyAcceptorLoop() {
  while (!acceptor_stop_.load(std::memory_order_acquire)) {
    auto conn = standby_listener_->Accept(0.1);
    if (!conn.ok()) continue;
    if (migration_active_.load(std::memory_order_acquire)) {
      // A catch-up would hand the standby a pre-split shard map; let it
      // retry once the rebalance committed.
      (*conn)->Close();
      continue;
    }
    ServeStandby(std::move(*conn));
  }
}

void ClusterCoordinator::ServeStandby(std::unique_ptr<Connection> conn) {
  {
    std::lock_guard<std::mutex> lock(standby_mu_);
    if (!window_.empty() && window_.front().epoch > base_epoch_ + 1) {
      // The window no longer reaches back to the bring-up point, so a
      // late standby cannot be caught up from here; it must be restarted
      // against a fresher primary.
      conn->Close();
      return;
    }
  }
  ReplicateMsg boot;
  boot.kind = ReplicateMsg::kBootstrap;
  boot.epoch = base_epoch_;
  boot.stream_position = base_position_;
  boot.num_vertices = boot_vertices_;
  boot.num_edges = boot_edges_;
  boot.directed = boot_directed_;
  if (!conn->SendFrame(EncodeReplicate(boot)).ok()) {
    conn->Close();
    return;
  }
  std::string payload;
  if (!RecvExpect(conn.get(), MsgType::kReplicateAck,
                  options_.shard_ack_timeout_seconds, &payload)
           .ok()) {
    conn->Close();
    return;
  }
  auto boot_ack = DecodeReplicateAck(payload);
  if (!boot_ack.ok() || !boot_ack->ok) {
    conn->Close();
    return;
  }

  // Catch-up: drain the window to the standby, re-scanning under the
  // lock until no entry is newer than what it holds, then attach while
  // still holding the lock — from that point the writer replicates each
  // batch itself, so there is no epoch the standby misses or sees twice.
  std::uint64_t sent_through = base_epoch_;
  for (;;) {
    std::vector<WindowEntry> pending;
    {
      std::lock_guard<std::mutex> lock(standby_mu_);
      if (!window_.empty() && window_.front().epoch > sent_through + 1) {
        // The writer outran the catch-up by a full window; give up.
        conn->Close();
        return;
      }
      for (const WindowEntry& entry : window_) {
        if (entry.epoch > sent_through) pending.push_back(entry);
      }
      if (pending.empty()) {
        standby_conn_ = std::move(conn);
        standby_attached_.store(1, std::memory_order_release);
        break;
      }
    }
    for (const WindowEntry& entry : pending) {
      if (!ReplicateEntryTo(conn.get(), entry).ok()) {
        conn->Close();
        return;
      }
      sent_through = entry.epoch;
      replicated_batches_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Heartbeats keep the standby's lease renewed through idle stretches;
  // batches (sent by the writer) renew it too. Heartbeats are never
  // acked — the writer is the connection's only reader after attach.
  while (!acceptor_stop_.load(std::memory_order_acquire)) {
    SleepSeconds(options_.heartbeat_interval_seconds);
    ReplicateMsg heartbeat;
    heartbeat.kind = ReplicateMsg::kHeartbeat;
    std::lock_guard<std::mutex> lock(standby_mu_);
    if (standby_conn_ == nullptr) return;  // writer detached it
    if (!standby_conn_->SendFrame(EncodeReplicate(heartbeat)).ok()) {
      standby_conn_->Close();
      standby_conn_.reset();
      standby_attached_.store(0, std::memory_order_release);
      return;
    }
  }
}

void ClusterCoordinator::TailLoop() {
  std::uint64_t epoch = base_epoch_;
  std::uint64_t position = base_position_;
  Lease lease(options_.lease_timeout_seconds);
  while (!tail_stop_.load(std::memory_order_acquire)) {
    std::string payload;
    const Status received = primary_conn_->RecvFrame(&payload, 0.1);
    if (!received.ok()) {
      if (IsTransportTimeout(received)) {
        if (lease.Expired()) {
          Takeover(epoch, position,
                   "primary lease expired after " +
                       std::to_string(lease.SilenceSeconds()) +
                       "s of silence");
          return;
        }
        continue;
      }
      Takeover(epoch, position,
               "primary feed died: " + received.message());
      return;
    }
    lease.Renew();
    auto type = PeekType(payload);
    if (!type.ok()) {
      Takeover(epoch, position,
               "garbled frame on the primary feed: " +
                   type.status().message());
      return;
    }
    if (*type == MsgType::kShutdown) {
      // Clean primary stop: nothing to take over.
      (void)primary_conn_->SendFrame(EncodeShutdownAck());
      primary_conn_->Close();
      {
        std::lock_guard<std::mutex> lock(mu_);
        role_.store(Role::kStandbyFinished, std::memory_order_release);
      }
      role_cv_.notify_all();
      return;
    }
    if (*type != MsgType::kReplicate) continue;
    auto msg = DecodeReplicate(payload);
    if (!msg.ok()) {
      FailStandby(msg.status());
      return;
    }
    if (msg->kind == ReplicateMsg::kHeartbeat) {
      standby_attached_.store(1, std::memory_order_release);
      continue;
    }
    if (msg->kind != ReplicateMsg::kBatch) continue;
    standby_attached_.store(1, std::memory_order_release);
    ReplicateAckMsg ack;
    ack.epoch = msg->epoch;
    if (msg->epoch <= epoch) {
      // Duplicate (the primary resent after losing our ack): already
      // applied — ack it again, apply nothing.
      (void)primary_conn_->SendFrame(EncodeReplicateAck(ack));
      continue;
    }
    if (msg->epoch != epoch + 1) {
      FailStandby(Status::FailedPrecondition(
          "gap in the standby feed: expected epoch " +
          std::to_string(epoch + 1) + ", got " +
          std::to_string(msg->epoch)));
      return;
    }
    Status applied;
    for (const EdgeUpdate& update : msg->updates) {
      applied = ApplyToGraph(&graph_, update);
      if (!applied.ok()) break;
    }
    if (!applied.ok()) {
      FailStandby(applied);
      return;
    }
    epoch = msg->epoch;
    position = msg->stream_position;
    PushWindowAndReplicate(
        WindowEntry{epoch, position, std::move(msg->updates)});
    replicated_batches_.fetch_add(1, std::memory_order_relaxed);
    (void)primary_conn_->SendFrame(EncodeReplicateAck(ack));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    role_.store(Role::kStandbyFinished, std::memory_order_release);
  }
  role_cv_.notify_all();
}

Status ClusterCoordinator::ReconcileShards(std::uint64_t epoch,
                                           std::uint64_t position,
                                           std::vector<Shard>* roster,
                                           std::vector<BcScores>* partials) {
  const std::size_t num_shards = shard_addresses_.size();
  roster->clear();
  roster->resize(num_shards);
  partials->assign(num_shards, BcScores{});
  std::vector<bool> seen(num_shards, false);
  std::uint64_t newest_map_version = 1;
  for (const std::string& address : shard_addresses_) {
    // The shard only notices the dead primary when its old connection
    // EOFs, so the first connect attempts may find it still serving the
    // corpse; retry within the per-shard budget.
    const double deadline = SteadyNowSeconds() + options_.shard_retry_seconds;
    Status last_error = Status::IOError("shard " + address +
                                        " is unreachable");
    bool done = false;
    while (!done && SteadyNowSeconds() < deadline) {
      SleepSeconds(options_.reconnect_backoff_seconds);
      auto conn =
          transport_->Connect(address, options_.connect_timeout_seconds);
      if (!conn.ok()) {
        last_error = conn.status();
        continue;
      }
      auto hello = Handshake(conn->get(), graph_,
                             options_.shard_ack_timeout_seconds);
      if (!hello.ok()) {
        last_error = hello.status();
        continue;
      }
      const std::string who = ShardName(hello->shard_index, address);
      if (hello->shard_index >= num_shards || seen[hello->shard_index]) {
        return Status::FailedPrecondition(
            who + " reports an index that is out of range or already "
                  "taken; the standby's shard list does not match the "
                  "roster");
      }
      if (static_cast<ServiceHealth>(hello->health) ==
          ServiceHealth::kReadOnly) {
        return Status::FailedPrecondition(
            who + " is read-only; restart it before failing over");
      }
      if (hello->epoch > epoch) {
        return Status::FailedPrecondition(
            "standby is behind the shard roster (" + who + " is at epoch " +
            std::to_string(hello->epoch) + ", standby at " +
            std::to_string(epoch) +
            "); it never finished catching up, so it cannot take over");
      }
      newest_map_version = std::max(newest_map_version, hello->map_version);
      Shard shard = ShardFromHello(address, *hello);
      if (hello->epoch < epoch) {
        // The shard missed the primary's final batches; the standby holds
        // them all (replicate-before-fanout), so resend from its window.
        // The shard's epoch dedupe + gap refusal make this exactly-once.
        if (window_.empty() || window_.front().epoch > hello->epoch + 1) {
          return Status::FailedPrecondition(
              who + " is at epoch " + std::to_string(hello->epoch) +
              ", outside the standby's replay window; re-bootstrap it "
              "from a fresher checkpoint copy");
        }
        ApplyAckMsg ack;
        SOBC_RETURN_NOT_OK(
            ResendWindow(conn->get(), hello->epoch, epoch, &shard, &ack));
        if (!ack.ok) {
          return Status(static_cast<StatusCode>(ack.status_code),
                        who + " failed during the takeover resync: " +
                            ack.message);
        }
        if (ack.epoch != epoch || ack.stream_position != position) {
          return Status::Internal(
              who + " resynced to (" + std::to_string(ack.epoch) + ", " +
              std::to_string(ack.stream_position) + "), expected (" +
              std::to_string(epoch) + ", " + std::to_string(position) +
              ")");
        }
        shard.epoch = ack.epoch;
        shard.health = ack.health;
        (*partials)[shard.index] = std::move(ack.partial);
      } else {
        // Already at the takeover epoch — its last ack was simply lost
        // with the primary. Fetch the partial that ack carried.
        auto partial =
            FetchPartial(conn->get(), options_.shard_ack_timeout_seconds);
        SOBC_RETURN_NOT_OK(partial.status());
        if (partial->epoch != epoch ||
            partial->stream_position != position) {
          return Status::Internal(who + " moved during the takeover");
        }
        shard.health = partial->health;
        (*partials)[shard.index] = std::move(partial->partial);
      }
      shard.conn = std::move(*conn);
      seen[shard.index] = true;
      const std::size_t slot = shard.index;
      (*roster)[slot] = std::move(shard);
      done = true;
    }
    if (!done) {
      return Status(last_error.code(),
                    "takeover retry budget (" +
                        std::to_string(options_.shard_retry_seconds) +
                        "s) exhausted reaching shard " + address + ": " +
                        last_error.message());
    }
  }
  std::vector<ShardRange> ranges;
  ranges.reserve(num_shards);
  for (const Shard& shard : *roster) ranges.push_back(shard.range);
  SOBC_RETURN_NOT_OK(ValidateShardMap(ranges, graph_.NumVertices()));
  map_version_plain_ = std::max<std::uint64_t>(1, newest_map_version);
  map_version_.store(map_version_plain_, std::memory_order_release);
  return Status::OK();
}

void ClusterCoordinator::Takeover(std::uint64_t epoch,
                                  std::uint64_t position,
                                  const std::string& reason) {
  const double detected_at = SteadyNowSeconds();
  if (primary_conn_ != nullptr) primary_conn_->Close();
  std::vector<Shard> roster;
  std::vector<BcScores> partials;
  const Status reconciled =
      ReconcileShards(epoch, position, &roster, &partials);
  if (!reconciled.ok()) {
    FailStandby(Status(reconciled.code(), "takeover (" + reason +
                                              ") failed: " +
                                              reconciled.message()));
    return;
  }
  shards_ = std::move(roster);
  partials_ = std::move(partials);
  BringUp(epoch, position);
  failovers_.store(1, std::memory_order_relaxed);
  failover_gap_seconds_.store(SteadyNowSeconds() - detected_at,
                              std::memory_order_relaxed);
  // The writer starts from the tail thread, so Stop/Halt must join the
  // tail before the writer. It runs before the role flips, so a caller
  // woken by WaitUntilActive can Submit and Drain at once.
  Start();
  {
    std::lock_guard<std::mutex> lock(mu_);
    role_.store(Role::kStandbyActive, std::memory_order_release);
  }
  role_cv_.notify_all();
}

void ClusterCoordinator::FailStandby(const Status& why) {
  EnterReadOnly(why);
  {
    std::lock_guard<std::mutex> lock(mu_);
    standby_status_ = why;
    role_.store(Role::kStandbyFailed, std::memory_order_release);
  }
  role_cv_.notify_all();
}

Status ClusterCoordinator::WaitUntilActive(double timeout_seconds) {
  std::unique_lock<std::mutex> lock(mu_);
  const bool resolved = role_cv_.wait_for(
      lock, std::chrono::duration<double>(timeout_seconds), [&] {
        return role_.load(std::memory_order_acquire) !=
               Role::kStandbyTailing;
      });
  if (!resolved) {
    return Status::IOError("standby is still tailing after " +
                           std::to_string(timeout_seconds) + "s");
  }
  switch (role_.load(std::memory_order_acquire)) {
    case Role::kStandbyActive:
      return Status::OK();
    case Role::kStandbyFinished:
      return Status::FailedPrecondition(
          "primary stopped cleanly; the standby never took over");
    case Role::kStandbyFailed:
      return standby_status_;
    case Role::kPrimary:
    default:
      return Status::FailedPrecondition("not a standby");
  }
}

Status ClusterCoordinator::Apply(std::uint64_t epoch, std::uint64_t position,
                                 std::span<const EdgeUpdate> updates,
                                 UpdateStats* counters) {
  // Validate against + advance the replica first: a poison batch (one the
  // engine deterministically rejects) dies here, on the coordinator,
  // before any shard ever sees its epoch.
  for (const EdgeUpdate& update : updates) {
    SOBC_RETURN_NOT_OK(ApplyToGraph(&graph_, update));
  }
  // Even a fully coalesced-away batch replicates: shard epochs and stream
  // positions must advance in lockstep with the coordinator's, or the
  // shards' WALs would replay to different positions. The window push and
  // the standby feed happen before the shard fan-out.
  PushWindowAndReplicate(WindowEntry{
      epoch, position, std::vector<EdgeUpdate>(updates.begin(), updates.end())});
  const std::size_t joining_index =
      migration_.active ? migration_.joining : shards_.size();
  partials_.assign(shards_.size(), BcScores{});
  SOBC_RETURN_NOT_OK(
      ReplicateBatch(epoch, position, updates, &partials_, counters));
  if (migration_.active && !migration_.joining_status.ok()) {
    AbortMigration(migration_.joining_status);
  }
  if (joining_index < partials_.size()) {
    // Until the commit the donor still owns the full range; merging the
    // recipient's double-applied partial would count the migrated sources
    // twice.
    partials_.erase(partials_.begin() +
                    static_cast<std::ptrdiff_t>(joining_index));
  }
  MergePartials();
  std::lock_guard<std::mutex> lock(mu_);
  RefreshShardStatusLocked();
  return Status::OK();
}

std::shared_ptr<const ScoreSnapshot> ClusterCoordinator::Snapshot(
    std::uint64_t epoch, std::uint64_t position) {
  return BuildSnapshot(graph_, partials_[0], epoch, position, options_.top_k,
                       options_.snapshot_edge_scores);
}

Status ClusterCoordinator::AfterPublish(std::uint64_t /*epoch*/,
                                        std::uint64_t /*position*/,
                                        std::uint64_t /*consumed*/) {
  MaybeCommitMigration(/*idle=*/false);
  return Status::OK();
}

void ClusterCoordinator::AtBoundary(std::uint64_t epoch,
                                    std::uint64_t position, bool idle) {
  // Rebalance requests run on the writer, between batches, so the shard
  // roster and map version only ever change at a batch boundary.
  RunPendingControl(epoch, position);
  if (idle) MaybeCommitMigration(/*idle=*/true);
}

void ClusterCoordinator::OnWriterExit(const Status& status) {
  if (migration_.active) {
    AbortMigration(status.ok()
                       ? Status::FailedPrecondition(
                             "coordinator stopped before the migration "
                             "committed")
                       : status);
  }
  FailPendingControl(
      status.ok() ? Status::FailedPrecondition(
                        "coordinator stopped before the rebalance ran")
                  : status);
}

Status ClusterCoordinator::SplitShard(std::size_t donor_index,
                                      const std::string& recipient_address) {
  ControlRequest request;
  request.kind = ControlRequest::Kind::kSplit;
  request.index = donor_index;
  request.recipient_address = recipient_address;
  return RunControl(&request);
}

Status ClusterCoordinator::MergeShards(std::size_t left_index) {
  ControlRequest request;
  request.kind = ControlRequest::Kind::kMerge;
  request.index = left_index;
  return RunControl(&request);
}

Status ClusterCoordinator::RunControl(ControlRequest* request) {
  const Role current = role();
  if (current != Role::kPrimary && current != Role::kStandbyActive) {
    return Status::FailedPrecondition(
        "only the active coordinator can rebalance");
  }
  bool stopped = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped = stopped_;
  }
  if (stopped || writer_done()) {
    return Status::FailedPrecondition("coordinator is stopped");
  }
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    if (pending_control_ != nullptr) {
      return Status::FailedPrecondition(
          "another rebalance is already in progress");
    }
    pending_control_ = request;
  }
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(control_mu_);
      if (control_cv_.wait_for(lock, std::chrono::milliseconds(100),
                               [&] { return request->done; })) {
        return request->result;
      }
    }
    if (writer_done()) {
      std::lock_guard<std::mutex> lock(control_mu_);
      if (request->done) return request->result;
      if (pending_control_ == request) pending_control_ = nullptr;
      return Status::FailedPrecondition(
          "coordinator writer exited before the rebalance ran");
    }
  }
}

void ClusterCoordinator::RunPendingControl(std::uint64_t epoch,
                                           std::uint64_t position) {
  ControlRequest* request = nullptr;
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    request = pending_control_;
  }
  if (request == nullptr || request == migration_.request) return;
  if (request->kind == ControlRequest::Kind::kSplit) {
    const Status begun = BeginSplit(request, epoch, position);
    if (!begun.ok()) {
      CompleteControl(request, begun);
    }
    // On success the request stays parked until the migration commits
    // (or aborts) — SplitShard returns only once the map version bumped.
  } else {
    CompleteControl(request, ExecuteMerge(request));
  }
}

Status ClusterCoordinator::ControlRoundTrip(Connection* conn,
                                            const std::string& frame,
                                            ReplicateAckMsg* ack) {
  if (conn == nullptr) {
    return Status::IOError("shard connection is down");
  }
  SOBC_RETURN_NOT_OK(conn->SendFrame(frame));
  std::string payload;
  SOBC_RETURN_NOT_OK(RecvExpect(conn, MsgType::kReplicateAck,
                                options_.migrate_timeout_seconds, &payload));
  auto decoded = DecodeReplicateAck(payload);
  SOBC_RETURN_NOT_OK(decoded.status());
  *ack = std::move(*decoded);
  return Status::OK();
}

Status ClusterCoordinator::BeginSplit(ControlRequest* request,
                                      std::uint64_t epoch,
                                      std::uint64_t position) {
  if (request->index >= shards_.size()) {
    return Status::InvalidArgument(
        "no shard " + std::to_string(request->index) + " to split (" +
        std::to_string(shards_.size()) + " shards)");
  }
  {
    std::lock_guard<std::mutex> lock(standby_mu_);
    if (standby_conn_ != nullptr) {
      return Status::FailedPrecondition(
          "rebalancing with a standby attached is not supported; detach "
          "the standby first (its shard list would go stale)");
    }
  }
  Shard& donor = shards_[request->index];
  const VertexId range_begin = donor.range.begin;
  const VertexId range_end = donor.range.open_ended()
                                 ? static_cast<VertexId>(graph_.NumVertices())
                                 : donor.range.end;
  if (range_end <= range_begin + 1) {
    return Status::FailedPrecondition(
        ShardName(donor.index, donor.address) +
        " owns fewer than two sources; nothing to split");
  }
  const VertexId mid = range_begin + (range_end - range_begin) / 2;
  const std::uint64_t new_version = map_version_plain_ + 1;

  MigrateBeginMsg offer;
  offer.epoch = epoch;
  offer.stream_position = position;
  offer.map_version = new_version;
  offer.range = ShardRange{mid, donor.range.end};  // keeps open-endedness
  offer.shard_index = donor.index + 1;
  offer.shard_count = static_cast<std::uint32_t>(shards_.size() + 1);
  offer.recipient_address = request->recipient_address;
  ReplicateAckMsg ack;
  SOBC_RETURN_NOT_OK(
      ControlRoundTrip(donor.conn.get(), EncodeMigrateBegin(offer), &ack));
  if (!ack.ok) {
    return Status::FailedPrecondition(
        ShardName(donor.index, donor.address) +
        " refused the migration: " + ack.message);
  }

  // The donor streamed its image and the recipient rebuilt + rescoped;
  // bring the recipient into the roster as a joining shard.
  auto conn = transport_->Connect(request->recipient_address,
                                  options_.connect_timeout_seconds);
  if (!conn.ok()) {
    return Status(conn.status().code(),
                  "connecting to migration recipient " +
                      request->recipient_address + ": " +
                      conn.status().message());
  }
  auto hello = Handshake(conn->get(), graph_,
                         options_.shard_ack_timeout_seconds);
  if (!hello.ok()) {
    return Status(hello.status().code(),
                  "handshake with migration recipient " +
                      request->recipient_address + ": " +
                      hello.status().message());
  }
  if (hello->epoch != epoch || !(hello->range == offer.range) ||
      hello->map_version != new_version ||
      hello->shard_index != offer.shard_index ||
      hello->shard_count != offer.shard_count) {
    return Status::Internal(
        "migration recipient " + request->recipient_address +
        " came up with the wrong identity (epoch " +
        std::to_string(hello->epoch) + ", map v" +
        std::to_string(hello->map_version) + ", shard " +
        std::to_string(hello->shard_index) + " of " +
        std::to_string(hello->shard_count) + ")");
  }
  // One fetch to pin its stream position to the cut point.
  auto partial = FetchPartial(conn->get(), options_.shard_ack_timeout_seconds);
  SOBC_RETURN_NOT_OK(partial.status());
  if (partial->epoch != epoch || partial->stream_position != position) {
    return Status::Internal("migration recipient " +
                            request->recipient_address +
                            " is not at the offered cut point");
  }

  Shard joining = ShardFromHello(request->recipient_address, *hello);
  joining.joining = true;
  joining.conn = std::move(*conn);

  migration_.active = true;
  migration_.donor = request->index;
  migration_.joining = request->index + 1;
  migration_.new_version = new_version;
  migration_.donor_new_range = ShardRange{range_begin, mid};
  migration_.double_applied = 0;
  migration_.joining_status = Status::OK();
  migration_.request = request;
  shards_.insert(shards_.begin() +
                     static_cast<std::ptrdiff_t>(request->index + 1),
                 std::move(joining));
  migration_active_.store(true, std::memory_order_release);
  migrations_started_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    RefreshShardStatusLocked();
  }
  return Status::OK();
}

void ClusterCoordinator::MaybeCommitMigration(bool idle) {
  if (!migration_.active) return;
  if (!migration_.joining_status.ok()) {
    AbortMigration(migration_.joining_status);
    return;
  }
  // Commit once the recipient proved it can follow the live stream (one
  // double-applied batch), or immediately when the stream is idle.
  if (!idle && migration_.double_applied == 0) return;
  Shard& donor = shards_[migration_.donor];
  SplitRangeMsg commit;
  commit.map_version = migration_.new_version;
  commit.range = migration_.donor_new_range;
  ReplicateAckMsg ack;
  Status committed =
      ControlRoundTrip(donor.conn.get(), EncodeSplitRange(commit), &ack);
  if (committed.ok() && !ack.ok) {
    committed = Status::FailedPrecondition(
        ShardName(donor.index, donor.address) +
        " refused the split commit: " + ack.message);
  }
  if (!committed.ok()) {
    AbortMigration(committed);
    return;
  }
  // The atomic cut: from the next batch on, the donor computes under the
  // narrowed range and the recipient's partial is merged — every epoch
  // is computed under exactly one shard map.
  donor.range = migration_.donor_new_range;
  donor.epoch = ack.epoch;
  shards_[migration_.joining].joining = false;
  map_version_plain_ = migration_.new_version;
  map_version_.store(map_version_plain_, std::memory_order_release);
  migrations_completed_.fetch_add(1, std::memory_order_relaxed);
  migration_lag_batches_.store(0, std::memory_order_relaxed);
  ControlRequest* request = migration_.request;
  migration_ = Migration{};
  migration_active_.store(false, std::memory_order_release);
  CompleteControl(request, Status::OK());
  {
    std::lock_guard<std::mutex> lock(mu_);
    RefreshShardStatusLocked();
  }
}

void ClusterCoordinator::AbortMigration(const Status& why) {
  if (!migration_.active) return;
  Shard& joining = shards_[migration_.joining];
  if (joining.conn != nullptr) joining.conn->Close();
  ControlRequest* request = migration_.request;
  shards_.erase(shards_.begin() +
                static_cast<std::ptrdiff_t>(migration_.joining));
  migration_ = Migration{};
  migration_active_.store(false, std::memory_order_release);
  migration_lag_batches_.store(0, std::memory_order_relaxed);
  CompleteControl(request,
                  Status(why.code(), "migration aborted: " + why.message()));
  {
    std::lock_guard<std::mutex> lock(mu_);
    RefreshShardStatusLocked();
  }
}

Status ClusterCoordinator::ExecuteMerge(ControlRequest* request) {
  const std::size_t left = request->index;
  if (left + 1 >= shards_.size()) {
    return Status::InvalidArgument(
        "merging shard " + std::to_string(left) + " needs a shard " +
        std::to_string(left + 1) + " to absorb (" +
        std::to_string(shards_.size()) + " shards)");
  }
  {
    std::lock_guard<std::mutex> lock(standby_mu_);
    if (standby_conn_ != nullptr) {
      return Status::FailedPrecondition(
          "rebalancing with a standby attached is not supported; detach "
          "the standby first (its shard list would go stale)");
    }
  }
  Shard& survivor = shards_[left];
  Shard& retiring = shards_[left + 1];
  MergeRangeMsg merge;
  merge.map_version = map_version_plain_ + 1;
  merge.range = ShardRange{survivor.range.begin, retiring.range.end};
  ReplicateAckMsg ack;
  SOBC_RETURN_NOT_OK(
      ControlRoundTrip(survivor.conn.get(), EncodeMergeRange(merge), &ack));
  if (!ack.ok) {
    return Status::FailedPrecondition(
        ShardName(survivor.index, survivor.address) +
        " refused the merge: " + ack.message);
  }
  // Single writer turn: the survivor already rescoped to the union, no
  // batch is published in between, so the next epoch merges the union
  // partial exactly once.
  survivor.range = merge.range;
  survivor.epoch = ack.epoch;
  if (retiring.conn != nullptr) {
    if (retiring.conn->SendFrame(EncodeShutdown()).ok()) {
      std::string payload;
      (void)retiring.conn->RecvFrame(&payload, 1.0);
    }
    retiring.conn->Close();
  }
  shards_.erase(shards_.begin() + static_cast<std::ptrdiff_t>(left + 1));
  map_version_plain_ = merge.map_version;
  map_version_.store(map_version_plain_, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
    RefreshShardStatusLocked();
  }
  return Status::OK();
}

void ClusterCoordinator::CompleteControl(ControlRequest* request,
                                         Status result) {
  if (request == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    request->result = std::move(result);
    request->done = true;
    if (pending_control_ == request) pending_control_ = nullptr;
  }
  control_cv_.notify_all();
}

void ClusterCoordinator::FailPendingControl(const Status& why) {
  ControlRequest* request = nullptr;
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    request = pending_control_;
    pending_control_ = nullptr;
    if (request != nullptr && !request->done) {
      request->result = why;
      request->done = true;
    }
  }
  control_cv_.notify_all();
}

Status ClusterCoordinator::Stop() { return Shutdown(/*clean=*/true); }

void ClusterCoordinator::Halt() { (void)Shutdown(/*clean=*/false); }

Status ClusterCoordinator::Shutdown(bool clean) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return WriterPipeline::Stop();
    stopped_ = true;
  }
  tail_stop_.store(true, std::memory_order_release);
  // The tail may be mid-takeover (it starts the writer): join it before
  // the writer so the writer thread is stable.
  if (tail_thread_.joinable()) tail_thread_.join();
  if (!clean) Abandon();
  const Status status = WriterPipeline::Stop();
  acceptor_stop_.store(true, std::memory_order_release);
  if (standby_acceptor_.joinable()) standby_acceptor_.join();
  if (standby_listener_ != nullptr) standby_listener_->Close();
  if (primary_conn_ != nullptr) primary_conn_->Close();
  // A clean stop sends kShutdown and awaits its ack: the standby finishes
  // instead of taking over, and every reachable shard's Wait() returns
  // (its own Stop commits the final checkpoint). Best effort — a dead
  // connection means the peer is already gone. A halt sends nothing: the
  // standby sees silence, its lease expires, and it takes over — the
  // whole point of the drill.
  const auto close = [clean](Connection* conn) {
    if (clean && conn->SendFrame(EncodeShutdown()).ok()) {
      std::string payload;
      (void)conn->RecvFrame(&payload, 1.0);
    }
    conn->Close();
  };
  {
    std::lock_guard<std::mutex> lock(standby_mu_);
    if (standby_conn_ != nullptr) {
      close(standby_conn_.get());
      standby_conn_.reset();
      standby_attached_.store(0, std::memory_order_release);
    }
  }
  FailPendingControl(Status::FailedPrecondition(
      clean ? "coordinator stopped" : "coordinator halted"));
  for (Shard& shard : shards_) {
    if (shard.conn != nullptr) close(shard.conn.get());
  }
  return status;
}

ServeMetricsSnapshot ClusterCoordinator::metrics() const {
  ServeMetricsSnapshot snap = WriterPipeline::metrics();
  snap.failovers = failovers_.load(std::memory_order_relaxed);
  snap.failover_gap_seconds =
      failover_gap_seconds_.load(std::memory_order_relaxed);
  snap.standby_attached = standby_attached_.load(std::memory_order_relaxed);
  snap.replicated_batches =
      replicated_batches_.load(std::memory_order_relaxed);
  snap.migrations_started =
      migrations_started_.load(std::memory_order_relaxed);
  snap.migrations_completed =
      migrations_completed_.load(std::memory_order_relaxed);
  snap.migration_lag_batches =
      migration_lag_batches_.load(std::memory_order_relaxed);
  snap.shard_map_version = map_version_.load(std::memory_order_relaxed);
  return snap;
}

}  // namespace sobc
