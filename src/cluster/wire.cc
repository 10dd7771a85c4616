#include "cluster/wire.h"

#include <cstring>

namespace sobc {

namespace {

void PutU8(std::string* out, std::uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutDouble(std::string* out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::string* out, const std::string& v) {
  PutU32(out, static_cast<std::uint32_t>(v.size()));
  out->append(v);
}

void PutScores(std::string* out, const BcScores& scores) {
  PutU64(out, scores.vbc.size());
  for (double v : scores.vbc) PutDouble(out, v);
  PutU64(out, scores.ebc.size());
  for (const auto& [key, value] : scores.ebc) {
    PutU32(out, key.u);
    PutU32(out, key.v);
    PutDouble(out, value);
  }
}

/// Bounds-checked little-endian reader; the first failed read makes every
/// later one fail too, so decoders check once at the end.
class WireReader {
 public:
  explicit WireReader(const std::string& buf) : buf_(buf) {}

  std::uint8_t U8() {
    if (!Need(1)) return 0;
    return static_cast<std::uint8_t>(buf_[pos_++]);
  }

  std::uint32_t U32() {
    if (!Need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(buf_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t U64() {
    if (!Need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(buf_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  double Double() {
    const std::uint64_t bits = U64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string String() {
    const std::uint32_t len = U32();
    if (!Need(len)) return {};
    std::string v = buf_.substr(pos_, len);
    pos_ += len;
    return v;
  }

  BcScores Scores() {
    BcScores scores;
    const std::uint64_t n = U64();
    if (!CheckCount(n, 8)) return scores;
    scores.vbc.resize(n);
    for (std::uint64_t i = 0; i < n; ++i) scores.vbc[i] = Double();
    const std::uint64_t edges = U64();
    if (!CheckCount(edges, 16)) return scores;
    scores.ebc.reserve(edges);
    for (std::uint64_t i = 0; i < edges; ++i) {
      EdgeKey key;
      key.u = U32();
      key.v = U32();
      scores.ebc[key] = Double();
    }
    return scores;
  }

  /// True when every read so far was in bounds and the payload is spent.
  bool Finished() const { return ok_ && pos_ == buf_.size(); }
  bool ok() const { return ok_; }

 private:
  bool Need(std::size_t bytes) {
    if (!ok_ || buf_.size() - pos_ < bytes) {
      ok_ = false;
      return false;
    }
    return true;
  }

  /// Guards element-count fields before resize/reserve: a count claiming
  /// more elements than the payload could possibly hold is corruption,
  /// not a huge allocation.
  bool CheckCount(std::uint64_t count, std::size_t element_bytes) {
    if (!ok_ || count > (buf_.size() - pos_) / element_bytes) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const std::string& buf_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

void PutUpdates(std::string* out, const std::vector<EdgeUpdate>& updates) {
  PutU32(out, static_cast<std::uint32_t>(updates.size()));
  for (const EdgeUpdate& update : updates) {
    PutU32(out, update.u);
    PutU32(out, update.v);
    PutU8(out, static_cast<std::uint8_t>(update.op));
    PutDouble(out, update.timestamp);
  }
}

std::vector<EdgeUpdate> ReadUpdates(WireReader* reader) {
  std::vector<EdgeUpdate> updates;
  const std::uint32_t count = reader->U32();
  for (std::uint32_t i = 0; i < count && reader->ok(); ++i) {
    EdgeUpdate update;
    update.u = reader->U32();
    update.v = reader->U32();
    update.op = static_cast<EdgeOp>(reader->U8());
    update.timestamp = reader->Double();
    updates.push_back(update);
  }
  return updates;
}

Status Malformed(const char* what) {
  return Status::IOError(std::string("malformed ") + what + " message");
}

Status CheckType(WireReader* reader, MsgType expected, const char* what) {
  if (reader->U8() != static_cast<std::uint8_t>(expected)) {
    return Status::IOError(std::string("payload is not a ") + what +
                           " message");
  }
  return Status::OK();
}

}  // namespace

Result<MsgType> PeekType(const std::string& payload) {
  if (payload.empty()) return Status::InvalidArgument("empty payload");
  return static_cast<MsgType>(static_cast<std::uint8_t>(payload[0]));
}

std::string EncodeHello(const HelloMsg& msg) {
  std::string out;
  PutU8(&out, static_cast<std::uint8_t>(MsgType::kHello));
  PutU32(&out, msg.protocol_version);
  PutU64(&out, msg.num_vertices);
  PutU64(&out, msg.num_edges);
  PutU8(&out, msg.directed ? 1 : 0);
  return out;
}

Result<HelloMsg> DecodeHello(const std::string& payload) {
  WireReader reader(payload);
  SOBC_RETURN_NOT_OK(CheckType(&reader, MsgType::kHello, "hello"));
  HelloMsg msg;
  msg.protocol_version = reader.U32();
  msg.num_vertices = reader.U64();
  msg.num_edges = reader.U64();
  msg.directed = reader.U8() != 0;
  if (!reader.Finished()) return Malformed("hello");
  return msg;
}

std::string EncodeHelloAck(const HelloAckMsg& msg) {
  std::string out;
  PutU8(&out, static_cast<std::uint8_t>(MsgType::kHelloAck));
  PutU32(&out, msg.protocol_version);
  PutU32(&out, msg.shard_index);
  PutU32(&out, msg.shard_count);
  PutU32(&out, msg.range.begin);
  PutU32(&out, msg.range.end);
  PutU64(&out, msg.epoch);
  PutU64(&out, msg.stream_position);
  PutU8(&out, msg.health);
  PutU64(&out, msg.num_vertices);
  PutU64(&out, msg.num_edges);
  PutU8(&out, msg.directed ? 1 : 0);
  PutU64(&out, msg.map_version);
  return out;
}

Result<HelloAckMsg> DecodeHelloAck(const std::string& payload) {
  WireReader reader(payload);
  SOBC_RETURN_NOT_OK(CheckType(&reader, MsgType::kHelloAck, "hello-ack"));
  HelloAckMsg msg;
  msg.protocol_version = reader.U32();
  msg.shard_index = reader.U32();
  msg.shard_count = reader.U32();
  msg.range.begin = reader.U32();
  msg.range.end = reader.U32();
  msg.epoch = reader.U64();
  msg.stream_position = reader.U64();
  msg.health = reader.U8();
  msg.num_vertices = reader.U64();
  msg.num_edges = reader.U64();
  msg.directed = reader.U8() != 0;
  msg.map_version = reader.U64();
  if (!reader.Finished()) return Malformed("hello-ack");
  return msg;
}

std::string EncodeApply(const ApplyMsg& msg) {
  std::string out;
  PutU8(&out, static_cast<std::uint8_t>(MsgType::kApply));
  PutU64(&out, msg.epoch);
  PutU64(&out, msg.stream_position);
  PutUpdates(&out, msg.updates);
  return out;
}

Result<ApplyMsg> DecodeApply(const std::string& payload) {
  WireReader reader(payload);
  SOBC_RETURN_NOT_OK(CheckType(&reader, MsgType::kApply, "apply"));
  ApplyMsg msg;
  msg.epoch = reader.U64();
  msg.stream_position = reader.U64();
  msg.updates = ReadUpdates(&reader);
  if (!reader.Finished()) return Malformed("apply");
  return msg;
}

std::string EncodeApplyAck(const ApplyAckMsg& msg) {
  std::string out;
  PutU8(&out, static_cast<std::uint8_t>(MsgType::kApplyAck));
  PutU64(&out, msg.epoch);
  PutU64(&out, msg.stream_position);
  PutU8(&out, msg.ok ? 1 : 0);
  PutU8(&out, msg.status_code);
  PutString(&out, msg.message);
  PutU8(&out, msg.health);
  PutU64(&out, msg.sources_total);
  PutU64(&out, msg.sources_prefiltered);
  PutU64(&out, msg.msbfs_batches);
  PutU64(&out, msg.bottom_up_levels);
  PutScores(&out, msg.partial);
  return out;
}

Result<ApplyAckMsg> DecodeApplyAck(const std::string& payload) {
  WireReader reader(payload);
  SOBC_RETURN_NOT_OK(CheckType(&reader, MsgType::kApplyAck, "apply-ack"));
  ApplyAckMsg msg;
  msg.epoch = reader.U64();
  msg.stream_position = reader.U64();
  msg.ok = reader.U8() != 0;
  msg.status_code = reader.U8();
  msg.message = reader.String();
  msg.health = reader.U8();
  msg.sources_total = reader.U64();
  msg.sources_prefiltered = reader.U64();
  msg.msbfs_batches = reader.U64();
  msg.bottom_up_levels = reader.U64();
  msg.partial = reader.Scores();
  if (!reader.Finished()) return Malformed("apply-ack");
  return msg;
}

std::string EncodeFetch() {
  std::string out;
  PutU8(&out, static_cast<std::uint8_t>(MsgType::kFetch));
  return out;
}

std::string EncodePartial(const PartialMsg& msg) {
  std::string out;
  PutU8(&out, static_cast<std::uint8_t>(MsgType::kPartial));
  PutU64(&out, msg.epoch);
  PutU64(&out, msg.stream_position);
  PutU8(&out, msg.health);
  PutScores(&out, msg.partial);
  return out;
}

Result<PartialMsg> DecodePartial(const std::string& payload) {
  WireReader reader(payload);
  SOBC_RETURN_NOT_OK(CheckType(&reader, MsgType::kPartial, "partial"));
  PartialMsg msg;
  msg.epoch = reader.U64();
  msg.stream_position = reader.U64();
  msg.health = reader.U8();
  msg.partial = reader.Scores();
  if (!reader.Finished()) return Malformed("partial");
  return msg;
}

std::string EncodeShutdown() {
  std::string out;
  PutU8(&out, static_cast<std::uint8_t>(MsgType::kShutdown));
  return out;
}

std::string EncodeShutdownAck() {
  std::string out;
  PutU8(&out, static_cast<std::uint8_t>(MsgType::kShutdownAck));
  return out;
}

std::string EncodeReplicate(const ReplicateMsg& msg) {
  std::string out;
  PutU8(&out, static_cast<std::uint8_t>(MsgType::kReplicate));
  PutU8(&out, msg.kind);
  PutU64(&out, msg.epoch);
  PutU64(&out, msg.stream_position);
  PutU64(&out, msg.num_vertices);
  PutU64(&out, msg.num_edges);
  PutU8(&out, msg.directed ? 1 : 0);
  PutUpdates(&out, msg.updates);
  return out;
}

Result<ReplicateMsg> DecodeReplicate(const std::string& payload) {
  WireReader reader(payload);
  SOBC_RETURN_NOT_OK(CheckType(&reader, MsgType::kReplicate, "replicate"));
  ReplicateMsg msg;
  msg.kind = reader.U8();
  msg.epoch = reader.U64();
  msg.stream_position = reader.U64();
  msg.num_vertices = reader.U64();
  msg.num_edges = reader.U64();
  msg.directed = reader.U8() != 0;
  msg.updates = ReadUpdates(&reader);
  if (!reader.Finished()) return Malformed("replicate");
  return msg;
}

std::string EncodeReplicateAck(const ReplicateAckMsg& msg) {
  std::string out;
  PutU8(&out, static_cast<std::uint8_t>(MsgType::kReplicateAck));
  PutU64(&out, msg.epoch);
  PutU8(&out, msg.ok ? 1 : 0);
  PutString(&out, msg.message);
  return out;
}

Result<ReplicateAckMsg> DecodeReplicateAck(const std::string& payload) {
  WireReader reader(payload);
  SOBC_RETURN_NOT_OK(
      CheckType(&reader, MsgType::kReplicateAck, "replicate-ack"));
  ReplicateAckMsg msg;
  msg.epoch = reader.U64();
  msg.ok = reader.U8() != 0;
  msg.message = reader.String();
  if (!reader.Finished()) return Malformed("replicate-ack");
  return msg;
}

std::string EncodeSplitRange(const SplitRangeMsg& msg) {
  std::string out;
  PutU8(&out, static_cast<std::uint8_t>(MsgType::kSplitRange));
  PutU64(&out, msg.map_version);
  PutU32(&out, msg.range.begin);
  PutU32(&out, msg.range.end);
  return out;
}

Result<SplitRangeMsg> DecodeSplitRange(const std::string& payload) {
  WireReader reader(payload);
  SOBC_RETURN_NOT_OK(CheckType(&reader, MsgType::kSplitRange, "split-range"));
  SplitRangeMsg msg;
  msg.map_version = reader.U64();
  msg.range.begin = reader.U32();
  msg.range.end = reader.U32();
  if (!reader.Finished()) return Malformed("split-range");
  return msg;
}

std::string EncodeMergeRange(const MergeRangeMsg& msg) {
  std::string out;
  PutU8(&out, static_cast<std::uint8_t>(MsgType::kMergeRange));
  PutU64(&out, msg.map_version);
  PutU32(&out, msg.range.begin);
  PutU32(&out, msg.range.end);
  return out;
}

Result<MergeRangeMsg> DecodeMergeRange(const std::string& payload) {
  WireReader reader(payload);
  SOBC_RETURN_NOT_OK(CheckType(&reader, MsgType::kMergeRange, "merge-range"));
  MergeRangeMsg msg;
  msg.map_version = reader.U64();
  msg.range.begin = reader.U32();
  msg.range.end = reader.U32();
  if (!reader.Finished()) return Malformed("merge-range");
  return msg;
}

std::string EncodeMigrateBegin(const MigrateBeginMsg& msg) {
  std::string out;
  PutU8(&out, static_cast<std::uint8_t>(MsgType::kMigrateBegin));
  PutU64(&out, msg.epoch);
  PutU64(&out, msg.stream_position);
  PutU64(&out, msg.map_version);
  PutU32(&out, msg.range.begin);
  PutU32(&out, msg.range.end);
  PutU32(&out, msg.shard_index);
  PutU32(&out, msg.shard_count);
  PutU64(&out, msg.total_bytes);
  PutString(&out, msg.recipient_address);
  return out;
}

Result<MigrateBeginMsg> DecodeMigrateBegin(const std::string& payload) {
  WireReader reader(payload);
  SOBC_RETURN_NOT_OK(
      CheckType(&reader, MsgType::kMigrateBegin, "migrate-begin"));
  MigrateBeginMsg msg;
  msg.epoch = reader.U64();
  msg.stream_position = reader.U64();
  msg.map_version = reader.U64();
  msg.range.begin = reader.U32();
  msg.range.end = reader.U32();
  msg.shard_index = reader.U32();
  msg.shard_count = reader.U32();
  msg.total_bytes = reader.U64();
  msg.recipient_address = reader.String();
  if (!reader.Finished()) return Malformed("migrate-begin");
  return msg;
}

std::string EncodeMigrateChunk(const MigrateChunkMsg& msg) {
  std::string out;
  PutU8(&out, static_cast<std::uint8_t>(MsgType::kMigrateChunk));
  PutU64(&out, msg.offset);
  PutString(&out, msg.data);
  return out;
}

Result<MigrateChunkMsg> DecodeMigrateChunk(const std::string& payload) {
  WireReader reader(payload);
  SOBC_RETURN_NOT_OK(
      CheckType(&reader, MsgType::kMigrateChunk, "migrate-chunk"));
  MigrateChunkMsg msg;
  msg.offset = reader.U64();
  msg.data = reader.String();
  if (!reader.Finished()) return Malformed("migrate-chunk");
  return msg;
}

std::string EncodeMigrateCommit(const MigrateCommitMsg& msg) {
  std::string out;
  PutU8(&out, static_cast<std::uint8_t>(MsgType::kMigrateCommit));
  PutU64(&out, msg.total_bytes);
  PutU32(&out, msg.crc);
  return out;
}

Result<MigrateCommitMsg> DecodeMigrateCommit(const std::string& payload) {
  WireReader reader(payload);
  SOBC_RETURN_NOT_OK(
      CheckType(&reader, MsgType::kMigrateCommit, "migrate-commit"));
  MigrateCommitMsg msg;
  msg.total_bytes = reader.U64();
  msg.crc = reader.U32();
  if (!reader.Finished()) return Malformed("migrate-commit");
  return msg;
}

}  // namespace sobc
