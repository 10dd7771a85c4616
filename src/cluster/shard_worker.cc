#include "cluster/shard_worker.h"

#include <utility>

#include "common/crc32.h"
#include "storage/checkpoint.h"

namespace sobc {

namespace {

/// Image stream granularity. Small enough that a chunk frame never
/// approaches the transport's frame-size ceiling, large enough that the
/// per-frame CRC + syscall overhead stays negligible.
constexpr std::size_t kMigrateChunkBytes = 64 * 1024;

Result<std::unique_ptr<Listener>> ListenResolved(
    Transport* transport, const std::string& listen_address) {
  if (transport == nullptr) {
    return Status::InvalidArgument("shard worker needs a transport");
  }
  return transport->Listen(listen_address);
}

}  // namespace

ShardWorker::ShardWorker(std::unique_ptr<BcService> service,
                         std::unique_ptr<Listener> listener,
                         Transport* transport,
                         const ShardWorkerOptions& options, ShardRange range)
    : options_(options),
      transport_(transport),
      listener_(std::move(listener)),
      address_(listener_->address()),
      range_(range),
      service_(std::move(service)),
      shard_index_(options.shard_index),
      shard_count_(options.shard_count) {}

Result<std::unique_ptr<ShardWorker>> ShardWorker::Start(
    Graph graph, Transport* transport, const std::string& listen_address,
    const ShardWorkerOptions& options) {
  if (options.shard_count == 0 ||
      options.shard_index >= options.shard_count) {
    return Status::InvalidArgument("shard index outside the shard count");
  }
  const ShardRange range = ShardRangeOf(graph.NumVertices(),
                                        options.shard_count,
                                        options.shard_index);
  BcServiceOptions service_options = options.service;
  service_options.replicated = true;
  service_options.bc.source_begin = range.begin;
  service_options.bc.source_end = range.end;
  auto service = BcService::Create(std::move(graph), service_options);
  if (!service.ok()) return service.status();
  auto listener = ListenResolved(transport, listen_address);
  if (!listener.ok()) return listener.status();
  auto worker = std::unique_ptr<ShardWorker>(
      new ShardWorker(std::move(*service), std::move(*listener), transport,
                      options, range));
  worker->serve_thread_ =
      std::thread([raw = worker.get()] { raw->ServeLoop(); });
  return worker;
}

Result<std::unique_ptr<ShardWorker>> ShardWorker::Recover(
    Transport* transport, const std::string& listen_address,
    const ShardWorkerOptions& options, RecoveryInfo* info) {
  BcServiceOptions service_options = options.service;
  service_options.replicated = true;
  auto service = BcService::Recover(service_options, info);
  if (!service.ok()) return service.status();
  // The manifest decided the partition; report the recovered one.
  const ShardRange range{(*service)->options().bc.source_begin,
                         (*service)->options().bc.source_end};
  auto listener = ListenResolved(transport, listen_address);
  if (!listener.ok()) return listener.status();
  auto worker = std::unique_ptr<ShardWorker>(
      new ShardWorker(std::move(*service), std::move(*listener), transport,
                      options, range));
  worker->serve_thread_ =
      std::thread([raw = worker.get()] { raw->ServeLoop(); });
  return worker;
}

Result<std::unique_ptr<ShardWorker>> ShardWorker::AwaitMigration(
    Transport* transport, const std::string& listen_address,
    const ShardWorkerOptions& options) {
  auto listener = ListenResolved(transport, listen_address);
  if (!listener.ok()) return listener.status();
  auto worker = std::unique_ptr<ShardWorker>(
      new ShardWorker(nullptr, std::move(*listener), transport, options,
                      ShardRange{0, 0}));
  worker->serve_thread_ =
      std::thread([raw = worker.get()] { raw->ServeLoop(); });
  return worker;
}

ShardWorker::~ShardWorker() { (void)Stop(); }

HelloAckMsg ShardWorker::MakeHelloAck() const {
  HelloAckMsg ack;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ack.shard_index = static_cast<std::uint32_t>(shard_index_);
    ack.shard_count = static_cast<std::uint32_t>(shard_count_);
    ack.range = range_;
    ack.map_version = map_version_;
  }
  ack.epoch = service_->final_epoch();
  ack.stream_position = service_->final_position();
  ack.health = static_cast<std::uint8_t>(service_->health());
  const Graph& graph = service_->framework()->graph();
  ack.num_vertices = graph.NumVertices();
  ack.num_edges = graph.NumEdges();
  ack.directed = graph.directed();
  return ack;
}

ApplyAckMsg ShardWorker::HandleApply(const ApplyMsg& msg) {
  const Status st = service_->ApplyReplicatedBatch(
      msg.epoch, msg.stream_position, msg.updates);
  ApplyAckMsg ack;
  ack.epoch = service_->final_epoch();
  ack.stream_position = service_->final_position();
  ack.health = static_cast<std::uint8_t>(service_->health());
  if (!st.ok()) {
    ack.ok = false;
    ack.status_code = static_cast<std::uint8_t>(st.code());
    ack.message = st.message();
    return ack;
  }
  // Success (including an idempotent duplicate): the cumulative partial
  // is the merge input either way. The counters are the engine's last
  // apply, which an empty (coalesced-away) batch never ran.
  if (!msg.updates.empty()) {
    const UpdateStats& stats = service_->framework()->last_update_stats();
    ack.sources_total = stats.sources_total;
    ack.sources_prefiltered = stats.sources_prefiltered;
    ack.msbfs_batches = stats.msbfs_batches;
    ack.bottom_up_levels = stats.bottom_up_levels;
  }
  ack.partial = service_->framework()->scores();
  return ack;
}

ReplicateAckMsg ShardWorker::HandleRescope(std::uint64_t map_version,
                                           ShardRange range,
                                           const char* what) {
  ReplicateAckMsg ack;
  ack.epoch = service_->final_epoch();
  std::uint64_t current = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    current = map_version_;
  }
  if (Status st = CheckMapVersion(map_version, current, what); !st.ok()) {
    ack.ok = false;
    ack.message = st.message();
    return ack;
  }
  if (Status st = service_->RescopeSourceRange(range.begin, range.end);
      !st.ok()) {
    ack.ok = false;
    ack.message = st.message();
    return ack;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    range_ = range;
    map_version_ = map_version;
  }
  ack.epoch = service_->final_epoch();
  return ack;
}

ReplicateAckMsg ShardWorker::HandleMigrateOut(const MigrateBeginMsg& msg) {
  ReplicateAckMsg ack;
  ack.epoch = service_->final_epoch();
  auto fail = [&ack](std::string message) {
    ack.ok = false;
    ack.message = std::move(message);
    return ack;
  };
  if (msg.epoch != service_->final_epoch()) {
    // The coordinator cuts the handoff between batches; a mismatch means
    // it is talking to the wrong shard (or a stale retry).
    return fail("donor is at epoch " +
                std::to_string(service_->final_epoch()) +
                ", not the offered cut epoch " + std::to_string(msg.epoch));
  }
  {
    std::uint64_t current = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      current = map_version_;
    }
    if (Status st = CheckMapVersion(msg.map_version, current, "migrate-begin");
        !st.ok()) {
      return fail(st.message());
    }
  }
  // Checkpoint-consistent by construction: the session thread is the only
  // engine mutator, and it is here, between batches.
  const std::string image =
      ExportMigrationImage(service_->framework()->graph());
  auto conn = transport_->Connect(msg.recipient_address,
                                  options_.migrate_timeout_seconds);
  if (!conn.ok()) {
    return fail("connect recipient " + msg.recipient_address + ": " +
                conn.status().message());
  }
  MigrateBeginMsg offer = msg;
  offer.recipient_address.clear();
  offer.total_bytes = image.size();
  if (Status st = (*conn)->SendFrame(EncodeMigrateBegin(offer)); !st.ok()) {
    return fail("offer to recipient: " + st.message());
  }
  for (std::size_t at = 0; at < image.size(); at += kMigrateChunkBytes) {
    MigrateChunkMsg chunk;
    chunk.offset = at;
    chunk.data = image.substr(at, kMigrateChunkBytes);
    if (Status st = (*conn)->SendFrame(EncodeMigrateChunk(chunk)); !st.ok()) {
      return fail("stream image to recipient: " + st.message());
    }
  }
  MigrateCommitMsg commit;
  commit.total_bytes = image.size();
  commit.crc = Crc32(image.data(), image.size());
  if (Status st = (*conn)->SendFrame(EncodeMigrateCommit(commit)); !st.ok()) {
    return fail("commit image to recipient: " + st.message());
  }
  std::string payload;
  if (Status st =
          (*conn)->RecvFrame(&payload, options_.migrate_timeout_seconds);
      !st.ok()) {
    return fail("recipient never confirmed the image: " + st.message());
  }
  auto hello = DecodeHelloAck(payload);
  if (!hello.ok()) {
    return fail("recipient confirmation: " + hello.status().message());
  }
  if (hello->epoch != msg.epoch || hello->range.begin != msg.range.begin ||
      hello->range.end != msg.range.end) {
    return fail("recipient came up at the wrong cut (epoch " +
                std::to_string(hello->epoch) + ")");
  }
  return ack;
}

bool ShardWorker::HandleMigrateIn(Connection* conn,
                                  const MigrateBeginMsg& msg) {
  std::string image;
  image.reserve(msg.total_bytes);
  std::string payload;
  std::uint32_t expected_crc = 0;
  while (true) {
    if (stop_.load(std::memory_order_acquire)) return false;
    Status st = conn->RecvFrame(&payload, options_.migrate_timeout_seconds);
    if (!st.ok()) return false;
    auto type = PeekType(payload);
    if (!type.ok()) return false;
    if (*type == MsgType::kMigrateChunk) {
      auto chunk = DecodeMigrateChunk(payload);
      if (!chunk.ok()) return false;
      // Chunks are strictly sequential; the per-frame transport CRC rules
      // out corruption, so any misfit is a protocol bug — drop the offer.
      if (chunk->offset != image.size() ||
          image.size() + chunk->data.size() > msg.total_bytes) {
        return false;
      }
      image += chunk->data;
      continue;
    }
    if (*type == MsgType::kMigrateCommit) {
      auto commit = DecodeMigrateCommit(payload);
      if (!commit.ok()) return false;
      if (commit->total_bytes != image.size() ||
          image.size() != msg.total_bytes) {
        return false;
      }
      expected_crc = commit->crc;
      break;
    }
    return false;
  }
  if (Crc32(image.data(), image.size()) != expected_crc) return false;
  auto graph = ImportMigrationImage(image);
  if (!graph.ok()) return false;
  BcServiceOptions service_options = options_.service;
  service_options.replicated = true;
  service_options.bc.source_begin = msg.range.begin;
  service_options.bc.source_end = msg.range.end;
  // Join at the donor's cut: the first batch this shard may legally see
  // is epoch msg.epoch + 1, and its initial snapshot carries the cut.
  service_options.replicated_base_epoch = msg.epoch;
  service_options.replicated_base_position = msg.stream_position;
  auto service = BcService::Create(std::move(*graph), service_options);
  if (!service.ok()) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    service_ = std::move(*service);
    range_ = msg.range;
    shard_index_ = msg.shard_index;
    shard_count_ = msg.shard_count;
    map_version_ = msg.map_version;
  }
  return conn->SendFrame(EncodeHelloAck(MakeHelloAck())).ok();
}

bool ShardWorker::Session(Connection* conn) {
  std::string payload;
  while (!stop_.load(std::memory_order_acquire)) {
    const Status st = conn->RecvFrame(&payload, options_.poll_seconds);
    if (IsTransportTimeout(st)) continue;
    if (!st.ok()) return true;  // connection died; accept the next one
    auto type = PeekType(payload);
    if (!type.ok()) return true;
    // Until a migration offer lands, an AwaitMigration worker has no
    // engine: everything but that offer (and shutdown) is premature.
    const bool migrated = service() != nullptr;
    switch (*type) {
      case MsgType::kHello: {
        if (!migrated) return true;
        auto msg = DecodeHello(payload);
        if (!msg.ok()) return true;
        if (msg->protocol_version != kClusterProtocolVersion) {
          // Refusing loudly beats mis-parsing every later frame; the
          // coordinator sees the close and reports the bring-up failure.
          return true;
        }
        if (!conn->SendFrame(EncodeHelloAck(MakeHelloAck())).ok()) {
          return true;
        }
        break;
      }
      case MsgType::kApply: {
        if (!migrated) return true;
        auto msg = DecodeApply(payload);
        if (!msg.ok()) return true;
        if (!conn->SendFrame(EncodeApplyAck(HandleApply(*msg))).ok()) {
          return true;
        }
        break;
      }
      case MsgType::kFetch: {
        if (!migrated) return true;
        PartialMsg partial;
        partial.epoch = service_->final_epoch();
        partial.stream_position = service_->final_position();
        partial.health = static_cast<std::uint8_t>(service_->health());
        partial.partial = service_->framework()->scores();
        if (!conn->SendFrame(EncodePartial(partial)).ok()) return true;
        break;
      }
      case MsgType::kSplitRange: {
        if (!migrated) return true;
        auto msg = DecodeSplitRange(payload);
        if (!msg.ok()) return true;
        const ReplicateAckMsg ack =
            HandleRescope(msg->map_version, msg->range, "split-range");
        if (!conn->SendFrame(EncodeReplicateAck(ack)).ok()) return true;
        break;
      }
      case MsgType::kMergeRange: {
        if (!migrated) return true;
        auto msg = DecodeMergeRange(payload);
        if (!msg.ok()) return true;
        const ReplicateAckMsg ack =
            HandleRescope(msg->map_version, msg->range, "merge-range");
        if (!conn->SendFrame(EncodeReplicateAck(ack)).ok()) return true;
        break;
      }
      case MsgType::kMigrateBegin: {
        auto msg = DecodeMigrateBegin(payload);
        if (!msg.ok()) return true;
        if (msg->recipient_address.empty()) {
          // A donor offering US the image. Only an empty worker takes it;
          // a second offer (or one to a normal shard) is a protocol bug.
          if (migrated) return true;
          if (!HandleMigrateIn(conn, *msg)) return true;
          // Handoff done; the donor closes this connection next, and the
          // coordinator re-handshakes on a fresh one.
          break;
        }
        // The coordinator asking us to DONATE a range to the recipient.
        if (!migrated) return true;
        const ReplicateAckMsg ack = HandleMigrateOut(*msg);
        if (!conn->SendFrame(EncodeReplicateAck(ack)).ok()) return true;
        break;
      }
      case MsgType::kShutdown: {
        (void)conn->SendFrame(EncodeShutdownAck());
        {
          std::lock_guard<std::mutex> lock(mu_);
          shutdown_requested_ = true;
        }
        done_cv_.notify_all();
        return false;
      }
      default:
        // A message this side never expects (an ack, a stray type):
        // protocol desync — drop the connection and let the coordinator
        // re-handshake.
        return true;
    }
  }
  return false;
}

void ShardWorker::ServeLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    auto conn = listener_->Accept(options_.poll_seconds);
    if (!conn.ok()) {
      if (IsTransportTimeout(conn.status())) continue;
      if (stop_.load(std::memory_order_acquire)) break;
      // Listener error (closed fd during Stop, transient accept failure):
      // keep polling; Stop() is the only way out of a persistent one.
      continue;
    }
    if (!Session(conn->get())) break;
  }
}

void ShardWorker::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] {
    return shutdown_requested_ || stop_.load(std::memory_order_acquire);
  });
}

Status ShardWorker::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return service_ != nullptr ? service_->last_error()
                                             : Status::OK();
    stopped_ = true;
  }
  stop_.store(true, std::memory_order_release);
  done_cv_.notify_all();
  if (serve_thread_.joinable()) serve_thread_.join();
  listener_->Close();
  std::lock_guard<std::mutex> lock(mu_);
  return service_ != nullptr ? service_->Stop() : Status::OK();
}

void ShardWorker::Halt() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  stop_.store(true, std::memory_order_release);
  done_cv_.notify_all();
  if (serve_thread_.joinable()) serve_thread_.join();
  listener_->Close();
  std::lock_guard<std::mutex> lock(mu_);
  if (service_ != nullptr) service_->Halt();
}

}  // namespace sobc
