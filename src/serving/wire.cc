#include "serving/wire.h"

#include <bit>
#include <utility>

#include "common/metrics.h"

namespace nomloc::serving {

namespace {

constexpr char kWireMagic[3] = {'N', 'L', 'W'};

common::MetricCounter& ParseFailures() {
  static auto& counter =
      common::MetricRegistry::Global().Counter("serving.wire.parse_failures");
  return counter;
}

common::MetricCounter& BytesIn() {
  static auto& counter =
      common::MetricRegistry::Global().Counter("serving.wire.bytes_in");
  return counter;
}

common::MetricCounter& BytesOut() {
  static auto& counter =
      common::MetricRegistry::Global().Counter("serving.wire.bytes_out");
  return counter;
}

common::Status CorruptAt(std::string_view what, std::size_t offset) {
  ParseFailures().Increment();
  return common::DataCorruption(std::string(what) + " at offset " +
                                std::to_string(offset));
}

void PutU32(std::uint32_t v, std::string& out) {
  for (int shift = 0; shift < 32; shift += 8)
    out.push_back(static_cast<char>((v >> shift) & 0xff));
}

void PutU64(std::uint64_t v, std::string& out) {
  for (int shift = 0; shift < 64; shift += 8)
    out.push_back(static_cast<char>((v >> shift) & 0xff));
}

void PutF64(double v, std::string& out) {
  PutU64(std::bit_cast<std::uint64_t>(v), out);
}

std::uint32_t GetU32(const char* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= std::uint32_t(static_cast<unsigned char>(p[i])) << (8 * i);
  return v;
}

std::uint64_t GetU64(const char* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= std::uint64_t(static_cast<unsigned char>(p[i])) << (8 * i);
  return v;
}

double GetF64(const char* p) noexcept {
  return std::bit_cast<double>(GetU64(p));
}

/// 32-bit FNV-1a over the frame bytes preceding the checksum field.
std::uint32_t Fnv1a(std::string_view bytes) noexcept {
  std::uint32_t hash = 2166136261u;
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 16777619u;
  }
  return hash;
}

/// The 65-byte observation body shared by observation and replicate
/// frames (everything between the kind prefix and the checksum).
void PutObservationBody(const IngestPacket& packet, std::string& out) {
  PutU64(packet.object_id, out);
  PutU32(std::bit_cast<std::uint32_t>(static_cast<std::int32_t>(packet.ap_id)),
         out);
  PutU32(static_cast<std::uint32_t>(packet.site_index), out);
  out.push_back(static_cast<char>(packet.is_nomadic ? 0x01 : 0x00));
  PutF64(packet.reported_position.x, out);
  PutF64(packet.reported_position.y, out);
  PutF64(packet.pdp, out);
  PutF64(packet.weight, out);
  PutF64(packet.timestamp_s, out);
  PutF64(packet.deadline_s, out);
}

IngestPacket GetObservationBody(const char* p) noexcept {
  IngestPacket packet;
  packet.kind = PacketKind::kObservation;
  packet.object_id = GetU64(p);
  packet.ap_id = std::bit_cast<std::int32_t>(GetU32(p + 8));
  packet.site_index = GetU32(p + 12);
  packet.is_nomadic = (static_cast<unsigned char>(p[16]) & 0x01) != 0;
  packet.reported_position.x = GetF64(p + 17);
  packet.reported_position.y = GetF64(p + 25);
  packet.pdp = GetF64(p + 33);
  packet.weight = GetF64(p + 41);
  packet.timestamp_s = GetF64(p + 49);
  packet.deadline_s = GetF64(p + 57);
  return packet;
}

}  // namespace

std::uint32_t WireFnv1a(std::string_view bytes) noexcept {
  return Fnv1a(bytes);
}

void AppendWireFrame(const IngestPacket& packet, std::string& out) {
  const std::size_t frame_start = out.size();
  if (packet.kind == PacketKind::kObservation) {
    out.push_back(static_cast<char>(kWireObservationFrame));
    PutObservationBody(packet, out);
  } else {
    out.push_back(static_cast<char>(kWireQueryFrame));
    PutU64(packet.object_id, out);
    PutF64(packet.timestamp_s, out);
    PutF64(packet.deadline_s, out);
  }
  PutU32(Fnv1a(std::string_view(out).substr(frame_start)), out);
  BytesOut().Increment(out.size() - frame_start);
}

std::string WireHeader() {
  std::string out;
  out.reserve(kWireHeaderBytes);
  out.append(kWireMagic, sizeof(kWireMagic));
  out.push_back(static_cast<char>(kWireVersion));
  BytesOut().Increment(kWireHeaderBytes);
  return out;
}

void AppendWireResponseFrame(const WireResponse& response, std::string& out) {
  const std::size_t frame_start = out.size();
  out.push_back(static_cast<char>(kWireResponseFrame));
  PutU64(response.object_id, out);
  PutF64(response.timestamp_s, out);
  out.push_back(static_cast<char>(response.status));
  out.push_back(static_cast<char>(response.degradation));
  out.push_back(static_cast<char>(response.degraded ? 0x01 : 0x00));
  PutU32(response.anchor_count, out);
  PutF64(response.position.x, out);
  PutF64(response.position.y, out);
  PutF64(response.relaxation_cost, out);
  PutF64(response.feasible_area_m2, out);
  PutF64(response.confidence, out);
  PutU32(Fnv1a(std::string_view(out).substr(frame_start)), out);
  BytesOut().Increment(out.size() - frame_start);
}

void AppendWireControlFrame(const WireControl& control, std::string& out) {
  const std::size_t frame_start = out.size();
  out.push_back(static_cast<char>(kWireControlFrame));
  out.push_back(static_cast<char>(control.op));
  PutU64(control.token, out);
  PutU64(0, out);  // Reserved.
  PutU64(control.epoch, out);
  PutU32(Fnv1a(std::string_view(out).substr(frame_start)), out);
  BytesOut().Increment(out.size() - frame_start);
}

void AppendWireReplicateFrame(const WireReplicate& replicate,
                              std::string& out) {
  const std::size_t frame_start = out.size();
  out.push_back(static_cast<char>(kWireReplicateFrame));
  PutU32(replicate.slot, out);
  PutU64(replicate.epoch, out);
  PutObservationBody(replicate.packet, out);
  PutU32(Fnv1a(std::string_view(out).substr(frame_start)), out);
  BytesOut().Increment(out.size() - frame_start);
}

std::string EncodeWireBinary(std::span<const IngestPacket> packets) {
  std::string out;
  std::size_t observations = 0;
  for (const IngestPacket& packet : packets)
    if (packet.kind == PacketKind::kObservation) ++observations;
  out.reserve(kWireHeaderBytes + observations * kWireObservationBytes +
              (packets.size() - observations) * kWireQueryBytes);
  out.append(kWireMagic, sizeof(kWireMagic));
  out.push_back(static_cast<char>(kWireVersion));
  BytesOut().Increment(kWireHeaderBytes);
  for (const IngestPacket& packet : packets) AppendWireFrame(packet, out);
  return out;
}

common::Result<std::vector<IngestPacket>> DecodeWireBinary(
    std::string_view bytes) {
  BytesIn().Increment(bytes.size());
  if (bytes.size() < kWireHeaderBytes)
    return CorruptAt("truncated wire header", bytes.size());
  if (bytes.compare(0, sizeof(kWireMagic),
                    std::string_view(kWireMagic, sizeof(kWireMagic))) != 0)
    return CorruptAt("bad wire magic", 0);
  const auto version = static_cast<std::uint8_t>(bytes[3]);
  if (version != kWireVersion) {
    ParseFailures().Increment();
    return common::InvalidArgument("unsupported wire version " +
                                   std::to_string(version));
  }

  std::vector<IngestPacket> packets;
  std::size_t offset = kWireHeaderBytes;
  while (offset < bytes.size()) {
    const auto kind = static_cast<std::uint8_t>(bytes[offset]);
    std::size_t frame_bytes;
    if (kind == kWireObservationFrame) {
      frame_bytes = kWireObservationBytes;
    } else if (kind == kWireQueryFrame) {
      frame_bytes = kWireQueryBytes;
    } else {
      return CorruptAt("unknown wire frame kind", offset);
    }
    if (bytes.size() - offset < frame_bytes)
      return CorruptAt("truncated wire frame", offset);
    const std::string_view frame = bytes.substr(offset, frame_bytes);
    const std::uint32_t want =
        GetU32(frame.data() + frame_bytes - sizeof(std::uint32_t));
    if (Fnv1a(frame.substr(0, frame_bytes - sizeof(std::uint32_t))) != want)
      return CorruptAt("wire checksum mismatch", offset);

    IngestPacket packet;
    const char* p = frame.data() + 1;
    if (kind == kWireObservationFrame) {
      packet = GetObservationBody(p);
    } else {
      packet.kind = PacketKind::kQuery;
      packet.object_id = GetU64(p);
      packet.timestamp_s = GetF64(p + 8);
      packet.deadline_s = GetF64(p + 16);
    }
    packets.push_back(packet);
    offset += frame_bytes;
  }
  return packets;
}

common::Status WireDecoder::Poison(std::string_view what, std::size_t offset) {
  poisoned_ = true;
  poison_status_ = CorruptAt(what, offset);
  return poison_status_;
}

common::Result<void> WireDecoder::Feed(std::string_view chunk) {
  if (poisoned_) return poison_status_;
  BytesIn().Increment(chunk.size());
  buffer_.append(chunk.data(), chunk.size());

  if (!header_done_) {
    // Header fields are only validated once all four bytes are in, so a
    // short prefix of a bad stream reports the same truncation offset
    // DecodeWireBinary would (the fuzz suite splits streams everywhere).
    if (buffer_.size() < kWireHeaderBytes) return {};
    if (buffer_.compare(0, sizeof(kWireMagic),
                        std::string_view(kWireMagic, sizeof(kWireMagic))) != 0)
      return Poison("bad wire magic", 0);
    const auto version = static_cast<std::uint8_t>(buffer_[3]);
    if (version != kWireVersion) {
      poisoned_ = true;
      ParseFailures().Increment();
      poison_status_ = common::InvalidArgument("unsupported wire version " +
                                               std::to_string(version));
      return poison_status_;
    }
    buffer_.erase(0, kWireHeaderBytes);
    stream_offset_ = kWireHeaderBytes;
    header_done_ = true;
  }

  std::size_t cursor = 0;
  while (cursor < buffer_.size()) {
    const auto kind = static_cast<std::uint8_t>(buffer_[cursor]);
    std::size_t frame_bytes;
    if (kind == kWireObservationFrame && accept_.packets) {
      frame_bytes = kWireObservationBytes;
    } else if (kind == kWireQueryFrame && accept_.packets) {
      frame_bytes = kWireQueryBytes;
    } else if (kind == kWireResponseFrame && accept_.responses) {
      frame_bytes = kWireResponseBytes;
    } else if (kind == kWireControlFrame && accept_.controls) {
      frame_bytes = kWireControlBytes;
    } else if (kind == kWireReplicateFrame && accept_.replicates) {
      frame_bytes = kWireReplicateBytes;
    } else {
      buffer_.erase(0, cursor);
      stream_offset_ += cursor;
      return Poison("unknown wire frame kind", stream_offset_);
    }
    if (buffer_.size() - cursor < frame_bytes) break;  // Partial frame.
    const std::string_view frame =
        std::string_view(buffer_).substr(cursor, frame_bytes);
    const std::uint32_t want =
        GetU32(frame.data() + frame_bytes - sizeof(std::uint32_t));
    if (Fnv1a(frame.substr(0, frame_bytes - sizeof(std::uint32_t))) != want) {
      buffer_.erase(0, cursor);
      stream_offset_ += cursor;
      return Poison("wire checksum mismatch", stream_offset_);
    }

    const char* p = frame.data() + 1;
    if (kind == kWireObservationFrame) {
      const IngestPacket packet = GetObservationBody(p);
      if (accept_.ordered) {
        WireEvent event;
        event.kind = kind;
        event.packet = packet;
        events_.push_back(event);
      } else {
        packets_.push_back(packet);
      }
    } else if (kind == kWireQueryFrame) {
      IngestPacket packet;
      packet.kind = PacketKind::kQuery;
      packet.object_id = GetU64(p);
      packet.timestamp_s = GetF64(p + 8);
      packet.deadline_s = GetF64(p + 16);
      if (accept_.ordered) {
        WireEvent event;
        event.kind = kind;
        event.packet = packet;
        events_.push_back(event);
      } else {
        packets_.push_back(packet);
      }
    } else if (kind == kWireResponseFrame) {
      WireResponse response;
      response.object_id = GetU64(p);
      response.timestamp_s = GetF64(p + 8);
      response.status = static_cast<std::uint8_t>(p[16]);
      response.degradation = static_cast<std::uint8_t>(p[17]);
      response.degraded = (static_cast<unsigned char>(p[18]) & 0x01) != 0;
      response.anchor_count = GetU32(p + 19);
      response.position.x = GetF64(p + 23);
      response.position.y = GetF64(p + 31);
      response.relaxation_cost = GetF64(p + 39);
      response.feasible_area_m2 = GetF64(p + 47);
      response.confidence = GetF64(p + 55);
      if (accept_.ordered) {
        WireEvent event;
        event.kind = kind;
        event.response = response;
        events_.push_back(event);
      } else {
        responses_.push_back(response);
      }
    } else if (kind == kWireControlFrame) {
      WireControl control;
      control.op = static_cast<WireControlOp>(p[0]);
      if (control.op != WireControlOp::kFlush &&
          control.op != WireControlOp::kFlushAck &&
          control.op != WireControlOp::kEpochSet) {
        buffer_.erase(0, cursor);
        stream_offset_ += cursor;
        return Poison("unknown wire control op", stream_offset_);
      }
      control.token = GetU64(p + 1);
      control.epoch = GetU64(p + 17);
      if (accept_.ordered) {
        WireEvent event;
        event.kind = kind;
        event.control = control;
        events_.push_back(event);
      } else {
        controls_.push_back(control);
      }
    } else {
      WireReplicate replicate;
      replicate.slot = GetU32(p);
      replicate.epoch = GetU64(p + 4);
      replicate.packet = GetObservationBody(p + 12);
      if (accept_.ordered) {
        WireEvent event;
        event.kind = kind;
        event.replicate = replicate;
        events_.push_back(event);
      } else {
        replicates_.push_back(replicate);
      }
    }
    cursor += frame_bytes;
  }
  buffer_.erase(0, cursor);
  stream_offset_ += cursor;
  return {};
}

common::Result<void> WireDecoder::Finish() {
  if (poisoned_) return poison_status_;
  if (!header_done_)
    return Poison("truncated wire header", buffer_.size());
  if (!buffer_.empty())
    return Poison("truncated wire frame", stream_offset_);
  return {};
}

std::vector<IngestPacket> WireDecoder::TakePackets() {
  return std::exchange(packets_, {});
}

std::vector<WireResponse> WireDecoder::TakeResponses() {
  return std::exchange(responses_, {});
}

std::vector<WireControl> WireDecoder::TakeControls() {
  return std::exchange(controls_, {});
}

std::vector<WireReplicate> WireDecoder::TakeReplicates() {
  return std::exchange(replicates_, {});
}

std::vector<WireEvent> WireDecoder::TakeEvents() {
  return std::exchange(events_, {});
}

}  // namespace nomloc::serving
