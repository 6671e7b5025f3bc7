// Incremental WireDecoder contract: fed the same bytes in ANY partition —
// every single byte boundary, and seeded random multi-chunk splits — it
// must produce packets bit-identical to DecodeWireBinary over the whole
// stream, and fail with the same typed kDataCorruption errors at the same
// stream byte offsets on truncation and bit-flips.
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "serving/wire.h"

namespace nomloc::serving {
namespace {

std::uint64_t NextRandom(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t x = state;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double RandomDouble(std::uint64_t& state) {
  return double(NextRandom(state) >> 11) * 0x1.0p-53 * 1e3 - 500.0;
}

IngestPacket RandomPacket(std::uint64_t& state) {
  IngestPacket packet;
  if (NextRandom(state) % 4 == 0) {
    packet.kind = PacketKind::kQuery;
  } else {
    packet.kind = PacketKind::kObservation;
    packet.ap_id = int(NextRandom(state) % 64) - 32;
    packet.site_index = NextRandom(state) % 8;
    packet.is_nomadic = NextRandom(state) % 2 == 0;
    packet.reported_position = {RandomDouble(state), RandomDouble(state)};
    packet.pdp = std::abs(RandomDouble(state)) + 1e-9;
    packet.weight = double(NextRandom(state) % 20 + 1);
  }
  packet.object_id = NextRandom(state) % (1ull << 48);
  packet.timestamp_s = std::abs(RandomDouble(state));
  packet.deadline_s = NextRandom(state) % 3 == 0
                          ? std::numeric_limits<double>::infinity()
                          : packet.timestamp_s + 1.0;
  return packet;
}

std::vector<IngestPacket> RandomStream(std::size_t n, std::uint64_t seed) {
  std::uint64_t state = seed;
  std::vector<IngestPacket> packets;
  packets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) packets.push_back(RandomPacket(state));
  return packets;
}

bool BitEqual(const IngestPacket& a, const IngestPacket& b) {
  auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  if (a.kind != b.kind || a.object_id != b.object_id) return false;
  if (!same(a.timestamp_s, b.timestamp_s) ||
      !same(a.deadline_s, b.deadline_s))
    return false;
  if (a.kind == PacketKind::kQuery) return true;
  return a.ap_id == b.ap_id && a.site_index == b.site_index &&
         a.is_nomadic == b.is_nomadic &&
         same(a.reported_position.x, b.reported_position.x) &&
         same(a.reported_position.y, b.reported_position.y) &&
         same(a.pdp, b.pdp) && same(a.weight, b.weight);
}

/// Feeds `bytes` in the given chunk sizes and returns whatever the decode
/// produced (packets on success, the poison status on failure).
struct ChunkedDecode {
  common::Status status;
  std::vector<IngestPacket> packets;
};

ChunkedDecode FeedChunks(std::string_view bytes,
                         const std::vector<std::size_t>& chunk_sizes) {
  ChunkedDecode out;
  WireDecoder decoder;
  std::size_t at = 0;
  for (std::size_t size : chunk_sizes) {
    const auto fed = decoder.Feed(bytes.substr(at, size));
    if (!fed.ok()) {
      out.status = fed.status();
      return out;
    }
    at += size;
  }
  if (const auto done = decoder.Finish(); !done.ok()) {
    out.status = done.status();
    return out;
  }
  out.packets = decoder.TakePackets();
  return out;
}

TEST(WireDecoder, EveryByteBoundarySplitBitIdentical) {
  const auto packets = RandomStream(6, 17);
  const std::string bytes = EncodeWireBinary(packets);
  auto golden = DecodeWireBinary(bytes);
  ASSERT_TRUE(golden.ok());
  // Split the stream at every byte boundary: [0, cut) then [cut, end).
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    const auto decoded = FeedChunks(bytes, {cut, bytes.size() - cut});
    ASSERT_TRUE(decoded.status.ok())
        << "cut at " << cut << ": " << decoded.status.ToString();
    ASSERT_EQ(decoded.packets.size(), golden->size()) << "cut at " << cut;
    for (std::size_t i = 0; i < golden->size(); ++i)
      EXPECT_TRUE(BitEqual((*golden)[i], decoded.packets[i]))
          << "cut at " << cut << ", packet " << i;
  }
}

TEST(WireDecoder, RandomMultiChunkPartitionsBitIdentical) {
  const auto packets = RandomStream(40, 29);
  const std::string bytes = EncodeWireBinary(packets);
  auto golden = DecodeWireBinary(bytes);
  ASSERT_TRUE(golden.ok());
  std::uint64_t rng = 71;
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::size_t> chunks;
    std::size_t remaining = bytes.size();
    while (remaining > 0) {
      // Mix of tiny (1–3 B) and frame-scale chunks, plus empty reads.
      std::size_t size = NextRandom(rng) % 4 == 0
                             ? NextRandom(rng) % 4
                             : 1 + NextRandom(rng) % 97;
      size = std::min(size, remaining);
      chunks.push_back(size);
      remaining -= size;
    }
    const auto decoded = FeedChunks(bytes, chunks);
    ASSERT_TRUE(decoded.status.ok())
        << "trial " << trial << ": " << decoded.status.ToString();
    ASSERT_EQ(decoded.packets.size(), golden->size()) << "trial " << trial;
    for (std::size_t i = 0; i < golden->size(); ++i)
      EXPECT_TRUE(BitEqual((*golden)[i], decoded.packets[i]))
          << "trial " << trial << ", packet " << i;
  }
}

TEST(WireDecoder, TruncationMatchesOracleErrorAndOffset) {
  const auto packets = RandomStream(8, 43);
  const std::string bytes = EncodeWireBinary(packets);
  // Every strict prefix that ends mid-header or mid-frame must fail
  // Finish() with exactly the oracle's error text (same offset).
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::string_view prefix = std::string_view(bytes).substr(0, cut);
    const auto oracle = DecodeWireBinary(prefix);
    const auto decoded = FeedChunks(bytes, {cut});  // Feed prefix, Finish.
    if (oracle.ok()) {
      EXPECT_TRUE(decoded.status.ok()) << "cut at " << cut;
      continue;
    }
    ASSERT_FALSE(decoded.status.ok()) << "cut at " << cut;
    EXPECT_EQ(decoded.status.code(), oracle.status().code())
        << "cut at " << cut;
    EXPECT_EQ(decoded.status.message(), oracle.status().message())
        << "cut at " << cut;
  }
}

TEST(WireDecoder, BitFlipsMatchOracleErrorAndOffset) {
  const auto packets = RandomStream(12, 59);
  const std::string bytes = EncodeWireBinary(packets);
  std::uint64_t rng = 5;
  std::size_t rejected = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::string corrupted = bytes;
    const std::size_t where = NextRandom(rng) % corrupted.size();
    corrupted[where] ^= char(1 << (NextRandom(rng) % 8));
    const auto oracle = DecodeWireBinary(corrupted);
    // Feed the corrupted stream in random 1–40 B chunks.
    std::vector<std::size_t> chunks;
    std::size_t remaining = corrupted.size();
    while (remaining > 0) {
      const std::size_t size =
          std::min<std::size_t>(1 + NextRandom(rng) % 40, remaining);
      chunks.push_back(size);
      remaining -= size;
    }
    const auto decoded = FeedChunks(corrupted, chunks);
    if (oracle.ok()) {
      EXPECT_TRUE(decoded.status.ok()) << "trial " << trial;
      continue;
    }
    ++rejected;
    ASSERT_FALSE(decoded.status.ok()) << "trial " << trial;
    EXPECT_EQ(decoded.status.code(), oracle.status().code())
        << "trial " << trial;
    EXPECT_EQ(decoded.status.message(), oracle.status().message())
        << "trial " << trial << " flip at " << where;
  }
  EXPECT_GT(rejected, 150u);  // The checksum catches almost every flip.
}

TEST(WireDecoder, PoisonedForever) {
  const auto packets = RandomStream(2, 7);
  std::string bytes = EncodeWireBinary(packets);
  bytes[kWireHeaderBytes + 2] ^= 0x40;  // Break the first frame body.
  WireDecoder decoder;
  const auto fed = decoder.Feed(bytes);
  ASSERT_FALSE(fed.ok());
  const std::string message(fed.status().message());
  // Every later call reports the original poison, even with valid bytes.
  const auto again = decoder.Feed(EncodeWireBinary(packets));
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().message(), message);
  const auto finished = decoder.Finish();
  ASSERT_FALSE(finished.ok());
  EXPECT_EQ(finished.status().message(), message);
  EXPECT_TRUE(decoder.TakePackets().empty());
}

TEST(WireDecoder, ResponseAndControlFramesRoundTrip) {
  WireResponse response;
  response.object_id = 42;
  response.timestamp_s = 1.5;
  response.status = 0;
  response.degradation = 2;
  response.degraded = true;
  response.anchor_count = 7;
  response.position = {3.25, -4.75};
  response.relaxation_cost = 0.125;
  response.feasible_area_m2 = 9.5;
  response.confidence = 0.875;
  WireControl control;
  control.op = WireControlOp::kFlushAck;
  control.token = 99;

  std::string bytes = WireHeader();
  AppendWireResponseFrame(response, bytes);
  AppendWireControlFrame(control, bytes);
  EXPECT_EQ(bytes.size(),
            kWireHeaderBytes + kWireResponseBytes + kWireControlBytes);

  WireDecoder decoder(WireDecoderAccept{
      .packets = false, .responses = true, .controls = true, .ordered = true});
  // One byte at a time: reassembly across every boundary.
  for (char c : bytes) ASSERT_TRUE(decoder.Feed({&c, 1}).ok());
  ASSERT_TRUE(decoder.Finish().ok());
  const auto events = decoder.TakeEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, kWireResponseFrame);
  EXPECT_EQ(events[0].response.object_id, 42u);
  EXPECT_EQ(events[0].response.degradation, 2);
  EXPECT_TRUE(events[0].response.degraded);
  EXPECT_EQ(events[0].response.anchor_count, 7u);
  EXPECT_EQ(events[0].response.position.x, 3.25);
  EXPECT_EQ(events[0].response.position.y, -4.75);
  EXPECT_EQ(events[0].response.relaxation_cost, 0.125);
  EXPECT_EQ(events[0].response.feasible_area_m2, 9.5);
  EXPECT_EQ(events[0].response.confidence, 0.875);
  EXPECT_EQ(events[1].kind, kWireControlFrame);
  EXPECT_EQ(events[1].control.op, WireControlOp::kFlushAck);
  EXPECT_EQ(events[1].control.token, 99u);
}

TEST(WireDecoder, IngestChannelRejectsResponseFrames) {
  // The default (ingest) accept set matches DecodeWireBinary: a response
  // frame on an ingest channel is an unknown kind at its stream offset.
  std::string bytes = WireHeader();
  AppendWireResponseFrame(WireResponse{}, bytes);
  WireDecoder decoder;
  const auto fed = decoder.Feed(bytes);
  ASSERT_FALSE(fed.ok());
  EXPECT_EQ(fed.status().code(), common::StatusCode::kDataCorruption);
  EXPECT_NE(fed.status().message().find("at offset 4"), std::string::npos);

  const auto oracle = DecodeWireBinary(bytes);
  ASSERT_FALSE(oracle.ok());
  EXPECT_EQ(fed.status().message(), oracle.status().message());
}

TEST(WireDecoder, UnknownControlOpsAreTypedCorruption) {
  // A control frame with a valid checksum but an op outside the protocol
  // must fail typed, not decode and then vanish in the host's op switch:
  // 0 was never assigned, 3 is retired, 9 is out of range.
  for (const int op : {0, 3, 9}) {
    SCOPED_TRACE("op " + std::to_string(op));
    WireControl control;
    control.op = static_cast<WireControlOp>(op);
    std::string bytes = WireHeader();
    AppendWireControlFrame(WireControl{}, bytes);  // A valid kFlush first.
    const std::size_t offset = bytes.size();
    AppendWireControlFrame(control, bytes);

    WireDecoder decoder(WireDecoderAccept{
        .packets = true, .responses = false, .controls = true,
        .ordered = true});
    const auto fed = decoder.Feed(bytes);
    EXPECT_FALSE(fed.ok());
    if (fed.ok()) continue;
    EXPECT_EQ(fed.status().code(), common::StatusCode::kDataCorruption);
    EXPECT_EQ(fed.status().message(),
              "unknown wire control op at offset " + std::to_string(offset));
    // The frame before it was delivered; the stream stays poisoned.
    EXPECT_EQ(decoder.TakeEvents().size(), 1u);
    EXPECT_FALSE(decoder.Finish().ok());
  }
}

TEST(WireDecoder, OrderedModeInterleavesKinds) {
  IngestPacket obs;
  obs.kind = PacketKind::kObservation;
  obs.object_id = 1;
  WireControl epoch_set;
  epoch_set.op = WireControlOp::kEpochSet;
  epoch_set.epoch = 7;
  IngestPacket query;
  query.kind = PacketKind::kQuery;
  query.object_id = 1;

  std::string bytes = WireHeader();
  AppendWireFrame(obs, bytes);
  AppendWireControlFrame(epoch_set, bytes);
  AppendWireFrame(query, bytes);

  WireDecoder decoder(WireDecoderAccept{
      .packets = true, .responses = false, .controls = true, .ordered = true});
  ASSERT_TRUE(decoder.Feed(bytes).ok());
  ASSERT_TRUE(decoder.Finish().ok());
  const auto events = decoder.TakeEvents();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, kWireObservationFrame);
  EXPECT_EQ(events[1].kind, kWireControlFrame);
  EXPECT_EQ(events[1].control.op, WireControlOp::kEpochSet);
  EXPECT_EQ(events[1].control.epoch, 7u);
  EXPECT_EQ(events[2].kind, kWireQueryFrame);
  EXPECT_EQ(decoder.BytesDecoded(), bytes.size());
  EXPECT_EQ(decoder.PendingBytes(), 0u);
}

TEST(WireDecoder, ReplicateAndEpochFramesRoundTrip) {
  WireReplicate replicate;
  replicate.slot = 3;
  replicate.epoch = 17;
  replicate.packet.kind = PacketKind::kObservation;
  replicate.packet.object_id = 21;
  replicate.packet.ap_id = -5;
  replicate.packet.site_index = 2;
  replicate.packet.is_nomadic = true;
  replicate.packet.reported_position = {1.5, -2.25};
  replicate.packet.pdp = 0.375;
  replicate.packet.weight = 4.0;
  replicate.packet.timestamp_s = 12.5;
  replicate.packet.deadline_s = 13.5;
  WireControl epoch_set;
  epoch_set.op = WireControlOp::kEpochSet;
  epoch_set.epoch = 18;

  std::string bytes = WireHeader();
  AppendWireReplicateFrame(replicate, bytes);
  AppendWireControlFrame(epoch_set, bytes);
  EXPECT_EQ(bytes.size(),
            kWireHeaderBytes + kWireReplicateBytes + kWireControlBytes);

  WireDecoder decoder(WireDecoderAccept{.packets = false,
                                        .responses = false,
                                        .controls = true,
                                        .replicates = true,
                                        .ordered = true});
  // One byte at a time: reassembly across every boundary.
  for (char c : bytes) ASSERT_TRUE(decoder.Feed({&c, 1}).ok());
  ASSERT_TRUE(decoder.Finish().ok());
  const auto events = decoder.TakeEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, kWireReplicateFrame);
  EXPECT_EQ(events[0].replicate.slot, 3u);
  EXPECT_EQ(events[0].replicate.epoch, 17u);
  EXPECT_TRUE(BitEqual(events[0].replicate.packet, replicate.packet));
  EXPECT_EQ(events[1].kind, kWireControlFrame);
  EXPECT_EQ(events[1].control.op, WireControlOp::kEpochSet);
  EXPECT_EQ(events[1].control.epoch, 18u);
}

TEST(WireDecoder, IngestChannelRejectsReplicateFrames) {
  // Replicate frames only travel router -> standby host; a plain ingest
  // channel treats them as an unknown kind at their stream offset.
  std::string bytes = WireHeader();
  AppendWireReplicateFrame(WireReplicate{}, bytes);
  WireDecoder decoder;
  const auto fed = decoder.Feed(bytes);
  ASSERT_FALSE(fed.ok());
  EXPECT_EQ(fed.status().code(), common::StatusCode::kDataCorruption);
}

TEST(WireDecoder, ByteCountersTrackEncodeAndDecode) {
  auto& in = common::MetricRegistry::Global().Counter("serving.wire.bytes_in");
  auto& out =
      common::MetricRegistry::Global().Counter("serving.wire.bytes_out");
  const auto packets = RandomStream(10, 3);
  const std::uint64_t out_before = out.Value();
  const std::string bytes = EncodeWireBinary(packets);
  EXPECT_EQ(out.Value() - out_before, bytes.size());

  const std::uint64_t in_before = in.Value();
  WireDecoder decoder;
  ASSERT_TRUE(decoder.Feed(bytes).ok());
  ASSERT_TRUE(decoder.Finish().ok());
  EXPECT_EQ(in.Value() - in_before, bytes.size());
}

}  // namespace
}  // namespace nomloc::serving
