// WAL + checkpoint-file durability contract (ISSUE 10): append-before-
// apply frames replay in exact stream order, a torn tail (crash mid-
// append) is truncated away while any other damage is typed
// kDataCorruption, and checkpoint files load whole or not at all.
#include "serving/wal.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "serving/wire.h"

namespace nomloc::serving {
namespace {

std::string TestDir(const std::string& leaf) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string dir = ::testing::TempDir() + "nomloc_wal/";
  dir += info->test_suite_name();
  dir += '.';
  dir += info->name();
  dir += '/';
  dir += leaf;
  // A clean slate: tests re-run in the same TempDir.
  for (int i = 1; i <= 16; ++i) {
    char name[32];
    std::snprintf(name, sizeof name, "/wal-%06d.log", i);
    std::remove((dir + name).c_str());
  }
  std::remove((dir + "/checkpoint.json").c_str());
  std::remove((dir + "/checkpoint.json.tmp").c_str());
  return dir;
}

WireDecoderAccept HostAccept() {
  return WireDecoderAccept{.packets = true,
                           .responses = false,
                           .controls = true,
                           .replicates = true,
                           .ordered = true};
}

IngestPacket Observation(std::uint64_t object_id, double timestamp_s) {
  IngestPacket packet;
  packet.kind = PacketKind::kObservation;
  packet.object_id = object_id;
  packet.ap_id = 3;
  packet.site_index = 1;
  packet.reported_position = {1.0, 2.0};
  packet.pdp = 0.5;
  packet.weight = 2.0;
  packet.timestamp_s = timestamp_s;
  packet.deadline_s = timestamp_s + 1.0;
  return packet;
}

/// Truncates `path` to `size` bytes (POSIX truncate via stdio is enough
/// for tests: reopen in r+ and ftruncate through fileno).
void TruncateFile(const std::string& path, long size) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(::ftruncate(fileno(f), size), 0);
  std::fclose(f);
}

long FileSize(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return -1;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size;
}

TEST(Wal, AppendThenReopenReplaysInStreamOrder) {
  WalConfig config;
  config.directory = TestDir("replay");
  config.fsync = false;
  auto opened = WriteAheadLog::Open(config, HostAccept());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE(opened->events.empty());

  std::string frames;
  AppendWireFrame(Observation(1, 1.0), frames);
  WireControl epoch_set;
  epoch_set.op = WireControlOp::kEpochSet;
  epoch_set.epoch = 2;
  AppendWireControlFrame(epoch_set, frames);
  WireReplicate replicate;
  replicate.slot = 2;
  replicate.epoch = 1;
  replicate.packet = Observation(9, 1.5);
  AppendWireReplicateFrame(replicate, frames);
  ASSERT_TRUE(opened->wal->Append(frames).ok());
  ASSERT_TRUE(opened->wal->Sync().ok());
  opened->wal.reset();  // Close cleanly.

  auto reopened = WriteAheadLog::Open(config, HostAccept());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE(reopened->torn_tail_truncated);
  ASSERT_EQ(reopened->events.size(), 3u);
  EXPECT_EQ(reopened->events[0].kind, kWireObservationFrame);
  EXPECT_EQ(reopened->events[0].packet.object_id, 1u);
  EXPECT_EQ(reopened->events[1].kind, kWireControlFrame);
  EXPECT_EQ(reopened->events[1].control.op, WireControlOp::kEpochSet);
  EXPECT_EQ(reopened->events[2].kind, kWireReplicateFrame);
  EXPECT_EQ(reopened->events[2].replicate.packet.object_id, 9u);
  EXPECT_EQ(reopened->frames_replayed, 3u);
}

TEST(Wal, RotatesSegmentsAndReplaysAcrossThem) {
  WalConfig config;
  config.directory = TestDir("rotate");
  config.fsync = false;
  config.segment_bytes = 256;  // The floor: rotate after ~3 observations.
  auto opened = WriteAheadLog::Open(config, HostAccept());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();

  for (std::uint64_t id = 0; id < 12; ++id) {
    std::string frame;
    AppendWireFrame(Observation(id, double(id)), frame);
    ASSERT_TRUE(opened->wal->Append(frame).ok());
  }
  EXPECT_GT(opened->wal->SegmentCount(), 1u);
  const std::size_t segments = opened->wal->SegmentCount();
  opened->wal.reset();

  auto reopened = WriteAheadLog::Open(config, HostAccept());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->segments_scanned, segments);
  ASSERT_EQ(reopened->events.size(), 12u);
  for (std::uint64_t id = 0; id < 12; ++id)
    EXPECT_EQ(reopened->events[id].packet.object_id, id);
}

TEST(Wal, TornTailIsTruncatedAndEarlierRecordsSurvive) {
  WalConfig config;
  config.directory = TestDir("torn");
  config.fsync = false;
  auto opened = WriteAheadLog::Open(config, HostAccept());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  for (std::uint64_t id = 0; id < 3; ++id) {
    std::string frame;
    AppendWireFrame(Observation(id, double(id)), frame);
    ASSERT_TRUE(opened->wal->Append(frame).ok());
  }
  opened->wal.reset();

  // A crash mid-append leaves a partial final record: chop 7 bytes off
  // the last (only) segment, mid-frame.
  const std::string segment = config.directory + "/wal-000001.log";
  const long full = FileSize(segment);
  ASSERT_GT(full, 7);
  TruncateFile(segment, full - 7);

  auto reopened = WriteAheadLog::Open(config, HostAccept());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(reopened->torn_tail_truncated);
  ASSERT_EQ(reopened->events.size(), 2u);  // The torn third is gone.
  EXPECT_EQ(reopened->events[0].packet.object_id, 0u);
  EXPECT_EQ(reopened->events[1].packet.object_id, 1u);
  // The truncation is physical: the file now ends at the last complete
  // record, so a third open sees no tear at all.
  const long repaired = FileSize(segment);
  EXPECT_LT(repaired, full);
  reopened->wal.reset();
  auto third = WriteAheadLog::Open(config, HostAccept());
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->torn_tail_truncated);
  EXPECT_EQ(third->events.size(), 2u);
}

TEST(Wal, BitFlipIsTypedDataCorruptionNotPartialReplay) {
  WalConfig config;
  config.directory = TestDir("flip");
  config.fsync = false;
  auto opened = WriteAheadLog::Open(config, HostAccept());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::string frame;
  AppendWireFrame(Observation(5, 1.0), frame);
  ASSERT_TRUE(opened->wal->Append(frame).ok());
  opened->wal.reset();

  // Flip one payload byte mid-record: a checksum mismatch is damage, not
  // a tear — the log must refuse to open.
  const std::string segment = config.directory + "/wal-000001.log";
  std::FILE* f = std::fopen(segment.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, long(kWireHeaderBytes) + 10, SEEK_SET);
  std::fputc('\xff', f);
  std::fclose(f);

  auto reopened = WriteAheadLog::Open(config, HostAccept());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), common::StatusCode::kDataCorruption);
}

TEST(Wal, TornFrameInNonFinalSegmentIsDataCorruption) {
  WalConfig config;
  config.directory = TestDir("midtear");
  config.fsync = false;
  config.segment_bytes = 256;
  auto opened = WriteAheadLog::Open(config, HostAccept());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  for (std::uint64_t id = 0; id < 12; ++id) {
    std::string frame;
    AppendWireFrame(Observation(id, double(id)), frame);
    ASSERT_TRUE(opened->wal->Append(frame).ok());
  }
  ASSERT_GT(opened->wal->SegmentCount(), 1u);
  opened->wal.reset();

  // A tear in segment 1 cannot be a crash footprint (later segments
  // exist, so the log kept appending past it): typed corruption.
  const std::string first = config.directory + "/wal-000001.log";
  const long full = FileSize(first);
  ASSERT_GT(full, 7);
  TruncateFile(first, full - 7);

  auto reopened = WriteAheadLog::Open(config, HostAccept());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), common::StatusCode::kDataCorruption);
}

TEST(Wal, ResetDeletesSegmentsAndRestartsNumbering) {
  WalConfig config;
  config.directory = TestDir("reset");
  config.fsync = false;
  config.segment_bytes = 256;
  auto opened = WriteAheadLog::Open(config, HostAccept());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  for (std::uint64_t id = 0; id < 12; ++id) {
    std::string frame;
    AppendWireFrame(Observation(id, double(id)), frame);
    ASSERT_TRUE(opened->wal->Append(frame).ok());
  }
  ASSERT_TRUE(opened->wal->Reset().ok());
  EXPECT_EQ(opened->wal->SegmentCount(), 1u);
  opened->wal.reset();

  auto reopened = WriteAheadLog::Open(config, HostAccept());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(reopened->events.empty());  // Compaction dropped everything.
}

TEST(Wal, ValidateRejectsBadConfig) {
  WalConfig config;
  EXPECT_FALSE(config.Validate().ok());  // Empty directory.
  config.directory = "/tmp/x";
  config.segment_bytes = 16;  // Below the floor.
  EXPECT_FALSE(config.Validate().ok());
}

TEST(CheckpointFile, SaveLoadRoundTrip) {
  const std::string path = TestDir("ckpt") + "/checkpoint.json";
  WalConfig config;  // Reuse the WAL's directory creation.
  config.directory = TestDir("ckpt");
  config.fsync = false;
  ASSERT_TRUE(WriteAheadLog::Open(config, HostAccept()).ok());

  const std::string payload = "{\"sessions\":[1,2,3]}";
  ASSERT_TRUE(SaveCheckpointFile(path, payload).ok());
  auto loaded = LoadCheckpointFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, payload);

  // Atomic replace: the new payload fully supersedes the old.
  ASSERT_TRUE(SaveCheckpointFile(path, "{}").ok());
  loaded = LoadCheckpointFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, "{}");
}

TEST(CheckpointFile, MissingFileIsNotFound) {
  const auto loaded = LoadCheckpointFile("/nonexistent/nomloc/ckpt");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), common::StatusCode::kNotFound);
}

TEST(CheckpointFile, TruncationIsDataCorruptionNotPartialRestore) {
  const std::string dir = TestDir("ckpt_trunc");
  WalConfig config;
  config.directory = dir;
  config.fsync = false;
  ASSERT_TRUE(WriteAheadLog::Open(config, HostAccept()).ok());
  const std::string path = dir + "/checkpoint.json";
  ASSERT_TRUE(SaveCheckpointFile(path, "{\"sessions\":[1,2,3,4,5]}").ok());

  const long full = FileSize(path);
  ASSERT_GT(full, 5);
  for (long cut : {full - 1, full - 5, full / 2}) {
    ASSERT_TRUE(SaveCheckpointFile(path, "{\"sessions\":[1,2,3,4,5]}").ok());
    TruncateFile(path, cut);
    const auto loaded = LoadCheckpointFile(path);
    ASSERT_FALSE(loaded.ok()) << "cut at " << cut << " loaded anyway";
    EXPECT_EQ(loaded.status().code(), common::StatusCode::kDataCorruption);
  }
}

TEST(CheckpointFile, ChecksumFlipAndTrailingBytesAreDataCorruption) {
  const std::string dir = TestDir("ckpt_flip");
  WalConfig config;
  config.directory = dir;
  config.fsync = false;
  ASSERT_TRUE(WriteAheadLog::Open(config, HostAccept()).ok());
  const std::string path = dir + "/checkpoint.json";
  ASSERT_TRUE(SaveCheckpointFile(path, "{\"k\":12345}").ok());

  {  // Flip one payload byte.
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -2, SEEK_END);
    std::fputc('X', f);
    std::fclose(f);
    const auto loaded = LoadCheckpointFile(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), common::StatusCode::kDataCorruption);
  }
  {  // Trailing garbage after the declared payload length.
    ASSERT_TRUE(SaveCheckpointFile(path, "{\"k\":12345}").ok());
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("junk", f);
    std::fclose(f);
    const auto loaded = LoadCheckpointFile(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), common::StatusCode::kDataCorruption);
  }
}

}  // namespace
}  // namespace nomloc::serving
