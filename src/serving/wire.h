// Hot-ingest wire format: a versioned little-endian binary framing for
// IngestPacket streams.
//
// The serving layer's ingest path is fan-in bound: at millions of
// sessions the cost of *parsing* each report dominates the cost of
// storing it.  Text formats burn that budget on tokenising doubles; this
// format is a fixed-width frame per packet (70 B observation / 29 B
// query) that decodes with bit_cast and a checksum — no allocation, no
// number grammar.  See DESIGN.md "Serving at scale" for the field table.
//
// Stream layout:
//
//   header   : 'N' 'L' 'W' <version u8>                        (4 bytes)
//   frame*   : <kind u8> <body> <checksum u32>
//
// All integers and IEEE-754 doubles are little-endian.  The checksum is
// 32-bit FNV-1a over the frame bytes preceding it, so truncation and
// bit-flips surface as typed kDataCorruption errors with the byte offset
// where decoding broke (mirroring net::ParseTrace).  Every failed decode
// increments `serving.wire.parse_failures`.  Doubles round-trip
// bit-exactly, infinite deadlines included.
//
// `scheduled_wall` is deliberately not part of the wire: it is a
// process-local steady_clock stamp the open-loop generator applies at
// send time, meaningless across a byte boundary.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "serving/service.h"

namespace nomloc::serving {

/// Version 2 added the placement-epoch field to control frames and the
/// replicate frame kind (cluster replication); version 1 streams are
/// rejected with a typed kInvalidArgument, not silently re-parsed — WAL
/// segments persist frames to disk, so the version byte is load-bearing.
inline constexpr std::uint8_t kWireVersion = 2;

/// Frame kinds (first byte of every frame).  Observation/query frames are
/// the ingest direction; response, control, and replicate frames exist
/// for the cluster transport (shard host -> router results, router <->
/// host flush and epoch coordination, primary -> backup dual-writes) and
/// are rejected by the ingest-only decoders.
inline constexpr std::uint8_t kWireObservationFrame = 0x01;
inline constexpr std::uint8_t kWireQueryFrame = 0x02;
inline constexpr std::uint8_t kWireResponseFrame = 0x03;
inline constexpr std::uint8_t kWireControlFrame = 0x04;
inline constexpr std::uint8_t kWireReplicateFrame = 0x05;

/// Encoded frame sizes, checksum included.
inline constexpr std::size_t kWireHeaderBytes = 4;
inline constexpr std::size_t kWireObservationBytes = 70;
inline constexpr std::size_t kWireQueryBytes = 29;
inline constexpr std::size_t kWireResponseBytes = 68;
inline constexpr std::size_t kWireControlBytes = 30;
/// kind + slot u32 + epoch u64 + observation body + checksum.
inline constexpr std::size_t kWireReplicateBytes = 82;

/// Appends one binary frame for `packet` to `out` (no stream header).
void AppendWireFrame(const IngestPacket& packet, std::string& out);

/// Encodes a full stream: header + one frame per packet.
std::string EncodeWireBinary(std::span<const IngestPacket> packets);

/// Decodes a binary stream.  Fails with kInvalidArgument on an
/// unsupported version and kDataCorruption (with "at offset N") on bad
/// magic, unknown frame kinds, truncation, or checksum mismatch.
common::Result<std::vector<IngestPacket>> DecodeWireBinary(
    std::string_view bytes);

/// A shard host's answer to one accepted query, reduced to the fields a
/// router (or a bit-identity check against an unsharded golden run) needs.
/// Process-local fields of ServeResponse — seq, queue_wait_s, latency_s,
/// the error Status text — deliberately stay off the wire, mirroring the
/// scheduled_wall rule above.
struct WireResponse {
  std::uint64_t object_id = 0;
  double timestamp_s = 0.0;      ///< The query packet's timestamp.
  std::uint8_t status = 0;       ///< serving::ServeStatus.
  std::uint8_t degradation = 0;  ///< common::DegradationLevel.
  bool degraded = false;
  std::uint32_t anchor_count = 0;
  geometry::Vec2 position;
  double relaxation_cost = 0.0;
  double feasible_area_m2 = 0.0;
  double confidence = 0.0;
};

/// The wire form of one served response.
inline WireResponse ToWireResponse(const ServeResponse& response) {
  WireResponse wire;
  wire.object_id = response.object_id;
  wire.timestamp_s = response.timestamp_s;
  wire.status = static_cast<std::uint8_t>(response.status);
  wire.degradation = static_cast<std::uint8_t>(response.degradation);
  wire.degraded = response.degraded;
  wire.anchor_count = static_cast<std::uint32_t>(response.anchor_count);
  wire.position = response.estimate.position;
  wire.relaxation_cost = response.estimate.relaxation_cost;
  wire.feasible_area_m2 = response.estimate.feasible_area_m2;
  wire.confidence = response.confidence;
  return wire;
}

/// Control-plane verbs carried in-band on a cluster channel.  WAL segments
/// persist these bytes, so a value is never reused: 3 is retired, and
/// decoders reject it like any other unknown op.
enum class WireControlOp : std::uint8_t {
  kFlush = 1,     ///< Router -> host: drain, reply responses + kFlushAck.
  kFlushAck = 2,  ///< Host -> router: every frame before this is answered.
  kEpochSet = 4,  ///< Router -> host: adopt the placement epoch in `epoch`.
};

struct WireControl {
  WireControlOp op = WireControlOp::kFlush;
  std::uint64_t token = 0;  ///< Correlates kFlush with its kFlushAck.
  /// The router's placement-table epoch at send time.  Hosts adopt it on
  /// kEpochSet; other ops carry it as provenance only.
  std::uint64_t epoch = 0;
};

/// One dual-written observation: the backup shard applies it to its warm
/// standby SessionStore instead of its localizer.  A frame whose epoch is
/// older than the host's placement epoch is a typed stale-epoch rejection
/// (`cluster.placement.stale_epoch`) — the split-brain fence: a lagging
/// router can never write into a standby that has already been promoted.
struct WireReplicate {
  std::uint32_t slot = 0;   ///< The slot the primary write was delivered to.
  std::uint64_t epoch = 0;  ///< Placement epoch the router stamped.
  IngestPacket packet;      ///< Always PacketKind::kObservation.
};

/// The 4-byte stream header each direction of a transport starts with.
std::string WireHeader();

/// The frame checksum function (32-bit FNV-1a), exposed for the WAL and
/// checkpoint-file layers so every durable byte is guarded the same way.
std::uint32_t WireFnv1a(std::string_view bytes) noexcept;

/// Appends one response / control / replicate frame to `out` (no stream
/// header).
void AppendWireResponseFrame(const WireResponse& response, std::string& out);
void AppendWireControlFrame(const WireControl& control, std::string& out);
void AppendWireReplicateFrame(const WireReplicate& replicate,
                              std::string& out);

/// Incremental binary-stream decoder: accepts arbitrary partial byte
/// chunks (whatever a socket read returned) and reassembles frames across
/// chunk boundaries.  Fed the same bytes in any partition, it produces
/// packets bit-identical to DecodeWireBinary over the whole stream, and
/// fails with the same typed kDataCorruption errors at the same stream
/// byte offsets.  A decode error poisons the decoder: every later Feed /
/// Finish returns the same status (a byte stream has no frame resync
/// point — the transport must be torn down).
/// Which frame kinds a WireDecoder's channel may carry.  The ingest
/// default matches DecodeWireBinary: response/control frames are
/// "unknown".
struct WireDecoderAccept {
  bool packets = true;
  bool responses = false;
  bool controls = false;
  bool replicates = false;
  /// Deliver frames via TakeEvents() in exact stream order instead of the
  /// per-kind Take*() vectors.  Cluster channels need this: a kEpochSet
  /// must be applied before the replicate frames that followed it.
  bool ordered = false;
};

/// One decoded frame in stream order (ordered mode).  `kind` selects
/// which member is meaningful.
struct WireEvent {
  std::uint8_t kind = 0;
  IngestPacket packet;      ///< kWireObservationFrame / kWireQueryFrame.
  WireResponse response;    ///< kWireResponseFrame.
  WireControl control;      ///< kWireControlFrame.
  WireReplicate replicate;  ///< kWireReplicateFrame.
};

class WireDecoder {
 public:
  using Accept = WireDecoderAccept;

  explicit WireDecoder(Accept accept = Accept{}) noexcept
      : accept_(accept) {}

  /// Consumes one chunk.  Complete frames are queued on the Take*()
  /// buffers; a trailing partial frame is held for the next chunk.
  common::Result<void> Feed(std::string_view chunk);

  /// Declares end-of-stream.  Fails with the truncation error
  /// DecodeWireBinary would report if a partial header or frame remains.
  common::Result<void> Finish();

  /// Moves out the frames decoded so far (stream order).
  std::vector<IngestPacket> TakePackets();
  std::vector<WireResponse> TakeResponses();
  std::vector<WireControl> TakeControls();
  std::vector<WireReplicate> TakeReplicates();
  /// Ordered mode only: every decoded frame, interleaved in stream order.
  std::vector<WireEvent> TakeEvents();

  /// Total bytes fully decoded (header + completed frames); the offset
  /// the next frame starts at.
  std::size_t BytesDecoded() const noexcept { return stream_offset_; }
  /// Bytes buffered waiting for the rest of their frame.
  std::size_t PendingBytes() const noexcept { return buffer_.size(); }

 private:
  common::Status Poison(std::string_view what, std::size_t offset);

  Accept accept_;
  bool header_done_ = false;
  bool poisoned_ = false;
  common::Status poison_status_;
  std::string buffer_;
  std::size_t stream_offset_ = 0;  ///< Stream offset of buffer_[0].
  std::vector<IngestPacket> packets_;
  std::vector<WireResponse> responses_;
  std::vector<WireControl> controls_;
  std::vector<WireReplicate> replicates_;
  std::vector<WireEvent> events_;
};

}  // namespace nomloc::serving
