#ifndef SOBC_CLUSTER_WIRE_H_
#define SOBC_CLUSTER_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bc/bc_types.h"
#include "cluster/shard_map.h"
#include "common/status.h"
#include "graph/edge_stream.h"
#include "graph/graph.h"

namespace sobc {

/// Coordinator <-> shard protocol version. Bumped on any incompatible
/// change; the Hello/HelloAck exchange refuses a mismatch at bring-up
/// instead of mis-parsing frames mid-stream. v2: standby replication
/// (Replicate/ReplicateAck), live rebalancing (SplitRange/MergeRange/
/// Migrate*), and the shard-map version in HelloAck. v3: ApplyAck carries
/// the batch's MS-BFS counters.
inline constexpr std::uint32_t kClusterProtocolVersion = 3;

/// Every message is one transport frame; the frame layer (transport.h)
/// adds the [u32 length][u32 crc] envelope, so a payload reaching a
/// decoder has already passed its CRC. The first payload byte is the
/// message type; all integers are little-endian, doubles are IEEE-754
/// bit patterns.
enum class MsgType : std::uint8_t {
  kHello = 1,        // coordinator -> shard: identity + graph signature
  kHelloAck = 2,     // shard -> coordinator: partition, epoch, health
  kApply = 3,        // coordinator -> shard: one coalesced batch
  kApplyAck = 4,     // shard -> coordinator: result + partial scores
  kFetch = 5,        // coordinator -> shard: request current partials
  kPartial = 6,      // shard -> coordinator: current partial scores
  kShutdown = 7,      // coordinator -> shard: clean stop
  kShutdownAck = 8,   // shard -> coordinator: stopping
  kReplicate = 9,     // primary -> standby: batch / heartbeat / bootstrap
  kReplicateAck = 10, // standby -> primary; also the generic control ack
  kSplitRange = 11,   // coordinator -> donor: shrink to the new range
  kMergeRange = 12,   // coordinator -> shard: expand to the merged range
  kMigrateBegin = 13, // coordinator -> donor, and donor -> recipient
  kMigrateChunk = 14, // donor -> recipient: one slice of the image
  kMigrateCommit = 15,// donor -> recipient: image complete, CRC attached
};

/// Coordinator's opening message: the graph signature both sides must
/// agree on (a shard started over a different edge list would silently
/// produce wrong partials — refuse at handshake instead).
struct HelloMsg {
  std::uint32_t protocol_version = kClusterProtocolVersion;
  std::uint64_t num_vertices = 0;
  std::uint64_t num_edges = 0;
  bool directed = false;
};

/// Shard's handshake reply: who it is, what it owns, and where its
/// replicated log stands. The coordinator uses `epoch` to decide between
/// resuming (equal epochs), resending from its replay window (behind), or
/// refusing bring-up (ahead / inconsistent).
struct HelloAckMsg {
  std::uint32_t protocol_version = kClusterProtocolVersion;
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  ShardRange range;
  std::uint64_t epoch = 0;
  std::uint64_t stream_position = 0;
  std::uint8_t health = 0;  // ServiceHealth as int
  std::uint64_t num_vertices = 0;
  std::uint64_t num_edges = 0;
  bool directed = false;
  /// Newest shard-map version this worker has applied; 0 means "never
  /// told" (a fresh or checkpoint-recovered worker), which the
  /// coordinator accepts against any current version.
  std::uint64_t map_version = 0;
};

/// One replicated batch under the coordinator's absolute epoch numbering.
/// Batches are pre-coalesced by the coordinator's queue — the single
/// coalescing point, so every shard applies identical batch boundaries.
struct ApplyMsg {
  std::uint64_t epoch = 0;
  std::uint64_t stream_position = 0;
  std::vector<EdgeUpdate> updates;
};

/// Shard's per-batch reply. On success it carries the shard's CUMULATIVE
/// score partial (dense vbc over every vertex + its ebc contributions) —
/// the coordinator's merge input. On failure `ok` is false and
/// status_code/message carry the shard-side error; `health` always
/// reflects the shard's ladder position so Degraded propagates even while
/// batches still succeed.
struct ApplyAckMsg {
  std::uint64_t epoch = 0;
  std::uint64_t stream_position = 0;
  bool ok = true;
  std::uint8_t status_code = 0;  // StatusCode as int, 0 when ok
  std::string message;
  std::uint8_t health = 0;
  std::uint64_t sources_total = 0;
  std::uint64_t sources_prefiltered = 0;
  std::uint64_t msbfs_batches = 0;
  std::uint64_t bottom_up_levels = 0;
  BcScores partial;
};

/// Reply to kFetch: the shard's current state, for coordinator bring-up
/// (the epoch-0 merge) and post-rejoin resync.
struct PartialMsg {
  std::uint64_t epoch = 0;
  std::uint64_t stream_position = 0;
  std::uint8_t health = 0;
  BcScores partial;
};

/// One frame of the primary -> standby replication feed. kind
/// distinguishes the three shapes sharing the codec: a real batch (the
/// standby applies and acks it), a heartbeat (lease renewal only, never
/// acked), and the bootstrap frame that opens the feed (carries the
/// primary's base epoch/position plus the graph signature the standby's
/// replica must match).
struct ReplicateMsg {
  static constexpr std::uint8_t kBatch = 0;
  static constexpr std::uint8_t kHeartbeat = 1;
  static constexpr std::uint8_t kBootstrap = 2;

  std::uint8_t kind = kBatch;
  std::uint64_t epoch = 0;
  std::uint64_t stream_position = 0;
  /// Graph signature, meaningful on kBootstrap only.
  std::uint64_t num_vertices = 0;
  std::uint64_t num_edges = 0;
  bool directed = false;
  std::vector<EdgeUpdate> updates;
};

/// Ack for a kBatch/kBootstrap replicate, and the generic reply to the
/// rebalancing control messages (SplitRange/MergeRange/MigrateBegin):
/// ok=false carries a human-readable refusal.
struct ReplicateAckMsg {
  std::uint64_t epoch = 0;
  bool ok = true;
  std::string message;
};

/// Shrinks the receiving shard to `range` under the new map version; the
/// shard rebuilds its scoped framework over the smaller range and acks
/// with its (unchanged) epoch.
struct SplitRangeMsg {
  std::uint64_t map_version = 0;
  ShardRange range;
};

/// Expands the receiving shard to the union `range` (absorbing a
/// neighbor being retired) under the new map version.
struct MergeRangeMsg {
  std::uint64_t map_version = 0;
  ShardRange range;
};

/// Opens a range migration. Coordinator -> donor: recipient_address
/// names where to stream (total_bytes 0). Donor -> recipient:
/// recipient_address is empty and total_bytes is the migration-image
/// size about to arrive in MigrateChunk frames. `range` is the slice the
/// recipient will own; shard_index/shard_count are its slot in the
/// post-split map; epoch/stream_position stamp the checkpoint-consistent
/// cut the image was taken at.
struct MigrateBeginMsg {
  std::uint64_t epoch = 0;
  std::uint64_t stream_position = 0;
  std::uint64_t map_version = 0;
  ShardRange range;
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 0;
  std::uint64_t total_bytes = 0;
  std::string recipient_address;
};

/// One slice of the migration image, offset-stamped so a reordered or
/// repeated chunk is detected instead of corrupting the image.
struct MigrateChunkMsg {
  std::uint64_t offset = 0;
  std::string data;
};

/// Closes the migration stream: the recipient verifies it holds exactly
/// total_bytes with this CRC-32 before building state from the image.
struct MigrateCommitMsg {
  std::uint64_t total_bytes = 0;
  std::uint32_t crc = 0;
};

/// First payload byte, or InvalidArgument on an empty payload.
Result<MsgType> PeekType(const std::string& payload);

std::string EncodeHello(const HelloMsg& msg);
std::string EncodeHelloAck(const HelloAckMsg& msg);
std::string EncodeApply(const ApplyMsg& msg);
std::string EncodeApplyAck(const ApplyAckMsg& msg);
std::string EncodeFetch();
std::string EncodePartial(const PartialMsg& msg);
std::string EncodeShutdown();
std::string EncodeShutdownAck();
std::string EncodeReplicate(const ReplicateMsg& msg);
std::string EncodeReplicateAck(const ReplicateAckMsg& msg);
std::string EncodeSplitRange(const SplitRangeMsg& msg);
std::string EncodeMergeRange(const MergeRangeMsg& msg);
std::string EncodeMigrateBegin(const MigrateBeginMsg& msg);
std::string EncodeMigrateChunk(const MigrateChunkMsg& msg);
std::string EncodeMigrateCommit(const MigrateCommitMsg& msg);

Result<HelloMsg> DecodeHello(const std::string& payload);
Result<HelloAckMsg> DecodeHelloAck(const std::string& payload);
Result<ApplyMsg> DecodeApply(const std::string& payload);
Result<ApplyAckMsg> DecodeApplyAck(const std::string& payload);
Result<PartialMsg> DecodePartial(const std::string& payload);
Result<ReplicateMsg> DecodeReplicate(const std::string& payload);
Result<ReplicateAckMsg> DecodeReplicateAck(const std::string& payload);
Result<SplitRangeMsg> DecodeSplitRange(const std::string& payload);
Result<MergeRangeMsg> DecodeMergeRange(const std::string& payload);
Result<MigrateBeginMsg> DecodeMigrateBegin(const std::string& payload);
Result<MigrateChunkMsg> DecodeMigrateChunk(const std::string& payload);
Result<MigrateCommitMsg> DecodeMigrateCommit(const std::string& payload);

}  // namespace sobc

#endif  // SOBC_CLUSTER_WIRE_H_
