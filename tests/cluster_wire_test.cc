// Unit coverage for the cluster plumbing under the coordinator: shard-map
// partition math, wire-format encode/decode round-trips (including
// truncation and bogus-count corruption the bounds-checked reader must
// refuse), and the framed TCP transport over loopback — real frames, CRC
// verification against a byte flipped on the wire, and receive deadlines.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "cluster/shard_map.h"
#include "cluster/transport.h"
#include "cluster/wire.h"
#include "common/crc32.h"

namespace sobc {
namespace {

// --- shard map --------------------------------------------------------------

TEST(ShardMapTest, RangesTileTheSourceSpace) {
  for (std::size_t n : {1u, 7u, 64u, 1000u}) {
    for (std::size_t shards : {1u, 2u, 3u, 5u, 8u}) {
      const std::vector<ShardRange> ranges = BuildShardMap(n, shards);
      ASSERT_EQ(ranges.size(), shards);
      EXPECT_EQ(ranges.front().begin, 0u);
      for (std::size_t i = 0; i + 1 < shards; ++i) {
        EXPECT_EQ(ranges[i].end, ranges[i + 1].begin)
            << "gap/overlap at shard " << i << " (n=" << n << ")";
      }
      // The last shard is open-ended so vertices added by later updates
      // always have an owner.
      EXPECT_TRUE(ranges.back().open_ended());
      EXPECT_TRUE(ValidateShardMap(ranges, n).ok());
      // Sizes differ by at most one across shards.
      for (std::size_t i = 0; i + 1 < shards; ++i) {
        const std::size_t size = ranges[i].end - ranges[i].begin;
        EXPECT_NEAR(static_cast<double>(size),
                    static_cast<double>(n) / shards, 1.0);
      }
    }
  }
}

TEST(ShardMapTest, ValidateRejectsBrokenTilings) {
  const VertexId end = kInvalidVertex;
  // Gap between shards.
  EXPECT_FALSE(
      ValidateShardMap({ShardRange{0, 5}, ShardRange{6, end}}, 10).ok());
  // Overlap.
  EXPECT_FALSE(
      ValidateShardMap({ShardRange{0, 5}, ShardRange{4, end}}, 10).ok());
  // First shard not starting at 0.
  EXPECT_FALSE(ValidateShardMap({ShardRange{1, end}}, 10).ok());
  // Last shard closed before n.
  EXPECT_FALSE(
      ValidateShardMap({ShardRange{0, 5}, ShardRange{5, 8}}, 10).ok());
  // Empty map.
  EXPECT_FALSE(ValidateShardMap({}, 10).ok());
}

TEST(ShardMapTest, CheckMapVersionRequiresStrictlyNewer) {
  // Strictly newer than current: accepted.
  EXPECT_TRUE(CheckMapVersion(2, 1, "split-range").ok());
  EXPECT_TRUE(CheckMapVersion(7, 3, "merge-range").ok());
  // Equal or older: a stale frame from a pre-rebalance coordinator.
  const Status equal = CheckMapVersion(3, 3, "split-range");
  EXPECT_FALSE(equal.ok());
  EXPECT_NE(equal.message().find("stale shard-map version"),
            std::string::npos);
  EXPECT_FALSE(CheckMapVersion(2, 3, "merge-range").ok());
  // 0 means "never told" and is never newer than anything.
  EXPECT_FALSE(CheckMapVersion(0, 0, "migrate-begin").ok());
  EXPECT_FALSE(CheckMapVersion(0, 5, "migrate-begin").ok());
}

TEST(ShardMapTest, ParseHostPort) {
  std::string host;
  int port = 0;
  ASSERT_TRUE(ParseHostPort("127.0.0.1:9000", &host, &port).ok());
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 9000);
  ASSERT_TRUE(ParseHostPort("localhost:0", &host, &port).ok());
  EXPECT_EQ(host, "localhost");
  EXPECT_EQ(port, 0);
  EXPECT_FALSE(ParseHostPort("no-port-here", &host, &port).ok());
  EXPECT_FALSE(ParseHostPort(":123", &host, &port).ok());
}

// --- wire format ------------------------------------------------------------

TEST(WireTest, HelloRoundTrip) {
  HelloMsg msg;
  msg.num_vertices = 12345;
  msg.num_edges = 67890;
  msg.directed = true;
  const std::string payload = EncodeHello(msg);
  auto type = PeekType(payload);
  ASSERT_TRUE(type.ok());
  EXPECT_EQ(*type, MsgType::kHello);
  auto decoded = DecodeHello(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->protocol_version, kClusterProtocolVersion);
  EXPECT_EQ(decoded->num_vertices, 12345u);
  EXPECT_EQ(decoded->num_edges, 67890u);
  EXPECT_TRUE(decoded->directed);
}

TEST(WireTest, HelloAckRoundTrip) {
  HelloAckMsg msg;
  msg.shard_index = 2;
  msg.shard_count = 4;
  msg.range = ShardRange{50, 75};
  msg.epoch = 99;
  msg.stream_position = 1234;
  msg.health = 1;
  msg.num_vertices = 100;
  msg.num_edges = 200;
  msg.map_version = 6;
  const std::string payload = EncodeHelloAck(msg);
  auto decoded = DecodeHelloAck(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->map_version, 6u);
  EXPECT_EQ(decoded->shard_index, 2u);
  EXPECT_EQ(decoded->shard_count, 4u);
  EXPECT_TRUE(decoded->range == (ShardRange{50, 75}));
  EXPECT_EQ(decoded->epoch, 99u);
  EXPECT_EQ(decoded->stream_position, 1234u);
  EXPECT_EQ(decoded->health, 1);
  EXPECT_EQ(decoded->num_vertices, 100u);
  EXPECT_EQ(decoded->num_edges, 200u);
  EXPECT_FALSE(decoded->directed);
}

TEST(WireTest, ApplyRoundTripPreservesUpdates) {
  ApplyMsg msg;
  msg.epoch = 7;
  msg.stream_position = 321;
  msg.updates.push_back(EdgeUpdate{1, 2, EdgeOp::kAdd, 0.5});
  msg.updates.push_back(EdgeUpdate{9, 3, EdgeOp::kRemove, 1.25});
  const std::string payload = EncodeApply(msg);
  auto decoded = DecodeApply(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->epoch, 7u);
  EXPECT_EQ(decoded->stream_position, 321u);
  ASSERT_EQ(decoded->updates.size(), 2u);
  EXPECT_EQ(decoded->updates[0].u, 1u);
  EXPECT_EQ(decoded->updates[0].v, 2u);
  EXPECT_EQ(decoded->updates[0].op, EdgeOp::kAdd);
  EXPECT_EQ(decoded->updates[0].timestamp, 0.5);
  EXPECT_EQ(decoded->updates[1].u, 9u);
  EXPECT_EQ(decoded->updates[1].op, EdgeOp::kRemove);
}

TEST(WireTest, ApplyAckRoundTripCarriesPartialScores) {
  ApplyAckMsg msg;
  msg.epoch = 11;
  msg.stream_position = 500;
  msg.ok = false;
  msg.status_code = 6;  // kFailedPrecondition
  msg.message = "epoch gap";
  msg.health = 2;
  msg.sources_total = 40;
  msg.sources_prefiltered = 15;
  msg.msbfs_batches = 9;
  msg.bottom_up_levels = 4;
  msg.partial.vbc = {0.0, 1.5, 2.25};
  msg.partial.ebc[EdgeKey{1, 2}] = 3.75;
  const std::string payload = EncodeApplyAck(msg);
  auto decoded = DecodeApplyAck(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->epoch, 11u);
  EXPECT_FALSE(decoded->ok);
  EXPECT_EQ(decoded->status_code, 6);
  EXPECT_EQ(decoded->message, "epoch gap");
  EXPECT_EQ(decoded->health, 2);
  EXPECT_EQ(decoded->sources_total, 40u);
  EXPECT_EQ(decoded->sources_prefiltered, 15u);
  EXPECT_EQ(decoded->msbfs_batches, 9u);
  EXPECT_EQ(decoded->bottom_up_levels, 4u);
  EXPECT_EQ(decoded->partial.vbc, (std::vector<double>{0.0, 1.5, 2.25}));
  EXPECT_EQ(decoded->partial.ebc.at(EdgeKey{1, 2}), 3.75);
}

TEST(WireTest, PartialAndControlRoundTrips) {
  PartialMsg msg;
  msg.epoch = 3;
  msg.stream_position = 77;
  msg.health = 0;
  msg.partial.vbc = {4.0};
  const std::string payload = EncodePartial(msg);
  auto decoded = DecodePartial(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->epoch, 3u);
  EXPECT_EQ(decoded->partial.vbc, (std::vector<double>{4.0}));

  auto fetch = PeekType(EncodeFetch());
  ASSERT_TRUE(fetch.ok());
  EXPECT_EQ(*fetch, MsgType::kFetch);
  auto shutdown = PeekType(EncodeShutdown());
  ASSERT_TRUE(shutdown.ok());
  EXPECT_EQ(*shutdown, MsgType::kShutdown);
  auto shutdown_ack = PeekType(EncodeShutdownAck());
  ASSERT_TRUE(shutdown_ack.ok());
  EXPECT_EQ(*shutdown_ack, MsgType::kShutdownAck);
}

TEST(WireTest, ReplicateRoundTripAllKinds) {
  ReplicateMsg batch;
  batch.kind = ReplicateMsg::kBatch;
  batch.epoch = 42;
  batch.stream_position = 900;
  batch.updates.push_back(EdgeUpdate{3, 4, EdgeOp::kAdd, 1.0});
  auto type = PeekType(EncodeReplicate(batch));
  ASSERT_TRUE(type.ok());
  EXPECT_EQ(*type, MsgType::kReplicate);
  auto decoded = DecodeReplicate(EncodeReplicate(batch));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->kind, ReplicateMsg::kBatch);
  EXPECT_EQ(decoded->epoch, 42u);
  EXPECT_EQ(decoded->stream_position, 900u);
  ASSERT_EQ(decoded->updates.size(), 1u);
  EXPECT_EQ(decoded->updates[0].v, 4u);

  ReplicateMsg boot;
  boot.kind = ReplicateMsg::kBootstrap;
  boot.epoch = 5;
  boot.stream_position = 123;
  boot.num_vertices = 64;
  boot.num_edges = 200;
  boot.directed = true;
  decoded = DecodeReplicate(EncodeReplicate(boot));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->kind, ReplicateMsg::kBootstrap);
  EXPECT_EQ(decoded->num_vertices, 64u);
  EXPECT_EQ(decoded->num_edges, 200u);
  EXPECT_TRUE(decoded->directed);

  ReplicateMsg heartbeat;
  heartbeat.kind = ReplicateMsg::kHeartbeat;
  decoded = DecodeReplicate(EncodeReplicate(heartbeat));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->kind, ReplicateMsg::kHeartbeat);
  EXPECT_TRUE(decoded->updates.empty());
}

TEST(WireTest, ReplicateAckRoundTrip) {
  ReplicateAckMsg msg;
  msg.epoch = 17;
  msg.ok = false;
  msg.message = "stale shard-map version";
  auto decoded = DecodeReplicateAck(EncodeReplicateAck(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->epoch, 17u);
  EXPECT_FALSE(decoded->ok);
  EXPECT_EQ(decoded->message, "stale shard-map version");
}

TEST(WireTest, RebalanceControlRoundTrips) {
  SplitRangeMsg split;
  split.map_version = 2;
  split.range = ShardRange{0, 32};
  auto split_decoded = DecodeSplitRange(EncodeSplitRange(split));
  ASSERT_TRUE(split_decoded.ok()) << split_decoded.status().ToString();
  EXPECT_EQ(split_decoded->map_version, 2u);
  EXPECT_TRUE(split_decoded->range == (ShardRange{0, 32}));

  MergeRangeMsg merge;
  merge.map_version = 3;
  merge.range = ShardRange{0, kInvalidVertex};
  auto merge_decoded = DecodeMergeRange(EncodeMergeRange(merge));
  ASSERT_TRUE(merge_decoded.ok()) << merge_decoded.status().ToString();
  EXPECT_EQ(merge_decoded->map_version, 3u);
  EXPECT_TRUE(merge_decoded->range.open_ended());

  MigrateBeginMsg begin;
  begin.epoch = 10;
  begin.stream_position = 456;
  begin.map_version = 2;
  begin.range = ShardRange{32, kInvalidVertex};
  begin.shard_index = 1;
  begin.shard_count = 3;
  begin.total_bytes = 9999;
  begin.recipient_address = "127.0.0.1:7070";
  auto begin_decoded = DecodeMigrateBegin(EncodeMigrateBegin(begin));
  ASSERT_TRUE(begin_decoded.ok()) << begin_decoded.status().ToString();
  EXPECT_EQ(begin_decoded->epoch, 10u);
  EXPECT_EQ(begin_decoded->stream_position, 456u);
  EXPECT_EQ(begin_decoded->map_version, 2u);
  EXPECT_TRUE(begin_decoded->range == (ShardRange{32, kInvalidVertex}));
  EXPECT_EQ(begin_decoded->shard_index, 1u);
  EXPECT_EQ(begin_decoded->shard_count, 3u);
  EXPECT_EQ(begin_decoded->total_bytes, 9999u);
  EXPECT_EQ(begin_decoded->recipient_address, "127.0.0.1:7070");

  MigrateChunkMsg chunk;
  chunk.offset = 65536;
  chunk.data = std::string("\x00\x01raw image bytes\xff", 18);
  auto chunk_decoded = DecodeMigrateChunk(EncodeMigrateChunk(chunk));
  ASSERT_TRUE(chunk_decoded.ok()) << chunk_decoded.status().ToString();
  EXPECT_EQ(chunk_decoded->offset, 65536u);
  EXPECT_EQ(chunk_decoded->data, chunk.data);

  MigrateCommitMsg commit;
  commit.total_bytes = 123456;
  commit.crc = 0xdeadbeef;
  auto commit_decoded = DecodeMigrateCommit(EncodeMigrateCommit(commit));
  ASSERT_TRUE(commit_decoded.ok()) << commit_decoded.status().ToString();
  EXPECT_EQ(commit_decoded->total_bytes, 123456u);
  EXPECT_EQ(commit_decoded->crc, 0xdeadbeefu);
}

TEST(WireTest, EveryNewMessageRefusesEveryTruncationPoint) {
  // Same every-byte sweep the v1 messages get: a truncated payload must
  // be an error at EVERY cut point, never a partial decode. The
  // (encoder, decoder) pairs cover all seven v2 messages and the v3
  // ApplyAck (its MS-BFS counters sit between fixed fields and scores).
  ReplicateMsg replicate;
  replicate.kind = ReplicateMsg::kBatch;
  replicate.epoch = 1;
  replicate.updates.push_back(EdgeUpdate{1, 2, EdgeOp::kAdd, 0.0});
  ReplicateAckMsg replicate_ack;
  replicate_ack.ok = false;
  replicate_ack.message = "why";
  SplitRangeMsg split;
  split.range = ShardRange{0, 9};
  MergeRangeMsg merge;
  merge.range = ShardRange{0, kInvalidVertex};
  MigrateBeginMsg begin;
  begin.recipient_address = "h:1";
  MigrateChunkMsg chunk;
  chunk.data = "abcdef";
  MigrateCommitMsg commit;
  ApplyAckMsg apply_ack;
  apply_ack.message = "m";
  apply_ack.msbfs_batches = 3;
  apply_ack.bottom_up_levels = 1;
  apply_ack.partial.vbc = {1.0};
  apply_ack.partial.ebc[EdgeKey{0, 1}] = 0.5;

  struct Case {
    const char* name;
    std::string payload;
    bool (*decodes)(const std::string&);
  };
  const Case cases[] = {
      {"replicate", EncodeReplicate(replicate),
       [](const std::string& p) { return DecodeReplicate(p).ok(); }},
      {"replicate-ack", EncodeReplicateAck(replicate_ack),
       [](const std::string& p) { return DecodeReplicateAck(p).ok(); }},
      {"split-range", EncodeSplitRange(split),
       [](const std::string& p) { return DecodeSplitRange(p).ok(); }},
      {"merge-range", EncodeMergeRange(merge),
       [](const std::string& p) { return DecodeMergeRange(p).ok(); }},
      {"migrate-begin", EncodeMigrateBegin(begin),
       [](const std::string& p) { return DecodeMigrateBegin(p).ok(); }},
      {"migrate-chunk", EncodeMigrateChunk(chunk),
       [](const std::string& p) { return DecodeMigrateChunk(p).ok(); }},
      {"migrate-commit", EncodeMigrateCommit(commit),
       [](const std::string& p) { return DecodeMigrateCommit(p).ok(); }},
      {"apply-ack", EncodeApplyAck(apply_ack),
       [](const std::string& p) { return DecodeApplyAck(p).ok(); }},
  };
  for (const Case& c : cases) {
    ASSERT_TRUE(c.decodes(c.payload)) << c.name;
    for (std::size_t cut = 1; cut < c.payload.size(); ++cut) {
      EXPECT_FALSE(c.decodes(c.payload.substr(0, cut)))
          << c.name << " truncated at byte " << cut << " decoded";
    }
    // Trailing garbage is a framing error too.
    EXPECT_FALSE(c.decodes(c.payload + "x")) << c.name;
    // And the type byte routes to exactly one decoder.
    EXPECT_FALSE(DecodeApply(c.payload).ok()) << c.name;
  }

  // A bogus update count in a replicate batch must be refused before any
  // allocation-sized resize (mirrors the Apply corruption case).
  std::string corrupt = EncodeReplicate(replicate);
  const std::size_t count_offset = 1 + 1 + 8 + 8 + 8 + 8 + 1;
  const std::uint32_t huge = 0x7fffffff;
  std::memcpy(corrupt.data() + count_offset, &huge, sizeof(huge));
  EXPECT_FALSE(DecodeReplicate(corrupt).ok());
}

TEST(WireTest, DecoderRefusesTruncationAndBogusCounts) {
  EXPECT_FALSE(PeekType("").ok());

  ApplyMsg msg;
  msg.epoch = 1;
  msg.updates.push_back(EdgeUpdate{1, 2, EdgeOp::kAdd, 0.0});
  const std::string payload = EncodeApply(msg);
  // Every truncation point must be an error, never a partial decode.
  for (std::size_t cut = 1; cut < payload.size(); ++cut) {
    EXPECT_FALSE(DecodeApply(payload.substr(0, cut)).ok())
        << "truncation at byte " << cut << " decoded";
  }
  // Wrong type byte routed to the wrong decoder.
  EXPECT_FALSE(DecodeHello(payload).ok());

  // A corrupted element count claiming more entries than the payload
  // could hold must be refused before any allocation-sized resize.
  std::string corrupt = payload;
  // The update-count u32 sits right after [type][epoch u64][position u64].
  const std::size_t count_offset = 1 + 8 + 8;
  const std::uint32_t huge = 0x7fffffff;
  std::memcpy(corrupt.data() + count_offset, &huge, sizeof(huge));
  EXPECT_FALSE(DecodeApply(corrupt).ok());

  // Trailing garbage after a complete message is a framing error too.
  EXPECT_FALSE(DecodeApply(payload + "x").ok());
}

// --- transport --------------------------------------------------------------

TEST(TransportTest, LoopbackFrameRoundTrip) {
  TcpTransport transport;
  auto listener = transport.Listen("127.0.0.1:0");
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  const std::string address = (*listener)->address();

  std::thread server([&] {
    auto conn = (*listener)->Accept(5.0);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    std::string payload;
    ASSERT_TRUE((*conn)->RecvFrame(&payload, 5.0).ok());
    // Echo it back with a marker.
    ASSERT_TRUE((*conn)->SendFrame(payload + "!").ok());
  });

  auto client = transport.Connect(address, 5.0);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  std::string big(100000, 'a');
  big += "tail";
  ASSERT_TRUE((*client)->SendFrame(big).ok());
  std::string reply;
  ASSERT_TRUE((*client)->RecvFrame(&reply, 5.0).ok());
  EXPECT_EQ(reply, big + "!");
  server.join();
}

TEST(TransportTest, RecvTimesOutWhenNoFrameArrives) {
  TcpTransport transport;
  auto listener = transport.Listen("127.0.0.1:0");
  ASSERT_TRUE(listener.ok());
  auto client = transport.Connect((*listener)->address(), 5.0);
  ASSERT_TRUE(client.ok());
  auto server_conn = (*listener)->Accept(5.0);
  ASSERT_TRUE(server_conn.ok());
  std::string payload;
  const Status st = (*server_conn)->RecvFrame(&payload, 0.1);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(IsTransportTimeout(st)) << st.ToString();
  // Accept with nothing pending times out the same way.
  auto no_conn = (*listener)->Accept(0.1);
  EXPECT_FALSE(no_conn.ok());
  EXPECT_TRUE(IsTransportTimeout(no_conn.status()));
}

TEST(TransportTest, CorruptedFrameFailsTheCrcCheck) {
  TcpTransport transport;
  auto listener = transport.Listen("127.0.0.1:0");
  ASSERT_TRUE(listener.ok());
  std::string host;
  int port = 0;
  ASSERT_TRUE(ParseHostPort((*listener)->address(), &host, &port).ok());

  // Raw client socket so the test controls the exact bytes on the wire.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ASSERT_EQ(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  auto server_conn = (*listener)->Accept(5.0);
  ASSERT_TRUE(server_conn.ok());

  const std::string payload = "hello cluster";
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size());
  std::uint32_t crc = Crc32(payload.data(), payload.size());
  crc ^= 0x1;  // one flipped bit: the frame must be refused
  std::string frame;
  frame.append(reinterpret_cast<const char*>(&length), sizeof(length));
  frame.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  frame += payload;
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));

  std::string received;
  const Status st = (*server_conn)->RecvFrame(&received, 5.0);
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(IsTransportTimeout(st)) << "CRC failure, not a timeout";
  ::close(fd);
}

TEST(TransportTest, PartialFramesDribbledOverSocketpairReassemble) {
  // A frame delivered a few bytes at a time exercises the short-read
  // handling in ReadAll: every recv() returning less than requested must
  // be treated as progress, not an error, and the frame must reassemble
  // byte-identically. socketpair + a raw writer gives the test exact
  // control of delivery boundaries.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  auto conn = WrapFdAsConnection(fds[0], "socketpair");

  ApplyMsg msg;
  msg.epoch = 3;
  msg.stream_position = 50;
  for (VertexId i = 0; i < 40; ++i) {
    msg.updates.push_back(EdgeUpdate{i, i + 1, EdgeOp::kAdd, 0.25 * i});
  }
  const std::string payload = EncodeApply(msg);
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = Crc32(payload.data(), payload.size());
  std::string frame;
  frame.append(reinterpret_cast<const char*>(&length), sizeof(length));
  frame.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  frame += payload;

  std::thread dribbler([&] {
    // 7-byte pieces split the length header, the CRC, and the payload
    // across reads; the pauses make each piece a separate short read.
    for (std::size_t at = 0; at < frame.size(); at += 7) {
      const std::size_t n = std::min<std::size_t>(7, frame.size() - at);
      ASSERT_EQ(::send(fds[1], frame.data() + at, n, 0),
                static_cast<ssize_t>(n));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::string received;
  ASSERT_TRUE(conn->RecvFrame(&received, 10.0).ok());
  dribbler.join();
  EXPECT_EQ(received, payload);
  auto decoded = DecodeApply(received);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->updates.size(), 40u);

  // The wrapped side sends a frame the raw side can parse back.
  ASSERT_TRUE(conn->SendFrame("pong").ok());
  char buf[16];
  ssize_t got = 0;
  std::string raw;
  while (raw.size() < 8 + 4 &&
         (got = ::recv(fds[1], buf, sizeof(buf), 0)) > 0) {
    raw.append(buf, static_cast<std::size_t>(got));
  }
  std::uint32_t reply_len = 0;
  std::memcpy(&reply_len, raw.data(), sizeof(reply_len));
  EXPECT_EQ(reply_len, 4u);
  EXPECT_EQ(raw.substr(8), "pong");
  conn->Close();
  ::close(fds[1]);
}

}  // namespace
}  // namespace sobc
