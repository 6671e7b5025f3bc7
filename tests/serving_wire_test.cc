// Wire codec contract: bit-exact round-trips, typed
// kDataCorruption on truncation/bit-flips (with byte offsets, reusing the
// PR 5 corruption failure domain), and parse-failure accounting.
#include "serving/wire.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"

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

std::vector<IngestPacket> RandomStream(std::size_t n, std::uint64_t seed) {
  std::uint64_t state = seed;
  std::vector<IngestPacket> packets;
  packets.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    packets.push_back(RandomPacket(state));
  return packets;
}

TEST(WireBinary, RandomizedRoundTripBitEqual) {
  const auto packets = RandomStream(500, 11);
  const std::string bytes = EncodeWireBinary(packets);
  auto decoded = DecodeWireBinary(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i)
    EXPECT_TRUE(BitEqual(packets[i], (*decoded)[i])) << "packet " << i;
}

TEST(WireBinary, FrameSizesMatchSpec) {
  IngestPacket obs;
  obs.kind = PacketKind::kObservation;
  IngestPacket query;
  query.kind = PacketKind::kQuery;
  EXPECT_EQ(EncodeWireBinary({&obs, 1}).size(),
            kWireHeaderBytes + kWireObservationBytes);
  EXPECT_EQ(EncodeWireBinary({&query, 1}).size(),
            kWireHeaderBytes + kWireQueryBytes);
}

TEST(WireBinary, InfiniteDeadlineSurvives) {
  IngestPacket packet;
  packet.kind = PacketKind::kQuery;
  packet.deadline_s = std::numeric_limits<double>::infinity();
  auto decoded = DecodeWireBinary(EncodeWireBinary({&packet, 1}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(std::isinf((*decoded)[0].deadline_s));
}

TEST(WireBinary, TruncationIsDataCorruptionWithOffset) {
  const auto packets = RandomStream(8, 31);
  const std::string bytes = EncodeWireBinary(packets);
  // Every strict prefix that cuts into a frame must fail as corruption
  // (never crash, never return a short stream silently).
  for (std::size_t cut : {bytes.size() - 1, bytes.size() - 5,
                          kWireHeaderBytes + 1, std::size_t{2}}) {
    auto decoded = DecodeWireBinary(std::string_view(bytes).substr(0, cut));
    ASSERT_FALSE(decoded.ok()) << "cut at " << cut;
    EXPECT_EQ(decoded.status().code(), common::StatusCode::kDataCorruption);
    EXPECT_NE(decoded.status().message().find("at offset"),
              std::string::npos);
  }
}

TEST(WireBinary, BitFlipFuzzAlwaysTyped) {
  const auto packets = RandomStream(16, 47);
  const std::string bytes = EncodeWireBinary(packets);
  std::uint64_t rng = 5;
  std::size_t rejected = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::string corrupted = bytes;
    const std::size_t where = NextRandom(rng) % corrupted.size();
    corrupted[where] ^= char(1 << (NextRandom(rng) % 8));
    auto decoded = DecodeWireBinary(corrupted);
    if (!decoded.ok()) {
      // Any failure must be the typed corruption domain (or version).
      EXPECT_TRUE(decoded.status().code() ==
                      common::StatusCode::kDataCorruption ||
                  decoded.status().code() ==
                      common::StatusCode::kInvalidArgument)
          << decoded.status().ToString();
      ++rejected;
    }
  }
  // The checksum must catch essentially every flip (a flip in a frame
  // body always breaks FNV-1a; only a flip inside a checksum field that
  // happens to match would slip, which cannot happen for single flips).
  EXPECT_GT(rejected, 190u);
}

TEST(WireBinary, BadMagicAndVersionTyped) {
  const auto packets = RandomStream(2, 3);
  std::string bytes = EncodeWireBinary(packets);
  {
    std::string bad = bytes;
    bad[0] = 'X';
    auto decoded = DecodeWireBinary(bad);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), common::StatusCode::kDataCorruption);
  }
  {
    std::string bad = bytes;
    bad[3] = char(kWireVersion + 1);
    auto decoded = DecodeWireBinary(bad);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(),
              common::StatusCode::kInvalidArgument);
  }
}

TEST(Wire, ParseFailuresCounterIncrements) {
  auto& counter = common::MetricRegistry::Global().Counter(
      "serving.wire.parse_failures");
  const auto before = counter.Value();
  (void)DecodeWireBinary("garbage");
  EXPECT_EQ(counter.Value(), before + 1);
}

}  // namespace
}  // namespace nomloc::serving
