#include "cluster/shard_host.h"

#include <algorithm>
#include <chrono>
#include <string_view>
#include <vector>

#include "common/metrics.h"

namespace nomloc::cluster {

namespace {

common::MetricCounter& HostRejected() {
  static auto& counter =
      common::MetricRegistry::Global().Counter("cluster.host.rejected");
  return counter;
}

common::MetricCounter& StaleEpoch() {
  static auto& counter = common::MetricRegistry::Global().Counter(
      "cluster.placement.stale_epoch");
  return counter;
}

/// Loads one checkpoint file into `store` (Restore semantics).  A missing
/// file is simply an empty state, not an error.
common::Result<void> RestoreCheckpointFile(const std::string& path,
                                           serving::SessionStore& store) {
  auto payload = serving::LoadCheckpointFile(path);
  if (!payload.ok()) {
    if (payload.status().code() == common::StatusCode::kNotFound) return {};
    return payload.status();
  }
  NOMLOC_ASSIGN_OR_RETURN(common::Json checkpoint,
                          common::Json::Parse(payload.value()));
  NOMLOC_RETURN_IF_ERROR(store.RestoreFromJson(checkpoint).status());
  return {};
}

}  // namespace

common::Result<std::unique_ptr<ShardHost>> ShardHost::Create(
    const core::NomLocEngine& engine, serving::ServingConfig serving_config,
    std::unique_ptr<Link> link, ShardHostOptions options) {
  if (link == nullptr)
    return common::InvalidArgument("shard host needs a transport link");
  auto host = std::unique_ptr<ShardHost>(
      new ShardHost(engine, std::move(link), std::move(options)));
  host->standby_ =
      std::make_unique<serving::SessionStore>(serving_config.store);
  NOMLOC_ASSIGN_OR_RETURN(
      host->localizer_,
      serving::StreamingLocalizer::Create(engine, std::move(serving_config),
                                          &host->clock_));
  NOMLOC_RETURN_IF_ERROR(host->Recover().status());
  host->reader_ = std::thread([raw = host.get()] { raw->ReaderLoop(); });
  return host;
}

ShardHost::ShardHost(const core::NomLocEngine& /*engine*/,
                     std::unique_ptr<Link> link, ShardHostOptions options)
    : link_(std::move(link)), options_(std::move(options)),
      epoch_(options_.placement_epoch) {}

ShardHost::~ShardHost() { Stop(); }

void ShardHost::Stop() {
  if (stopped_.exchange(true)) {
    if (reader_.joinable()) reader_.join();
    return;
  }
  link_->Close();
  if (reader_.joinable()) reader_.join();
  if (localizer_) localizer_->Shutdown();  // Null if Create failed early.
}

void ShardHost::Abort() {
  // The reader checks this flag before applying each decoded batch, so
  // bytes the transport already delivered die unapplied — the in-process
  // equivalent of SIGKILL mid-stream.  Stop() still joins and shuts the
  // localizer down afterwards; recovery happens in the next Create().
  aborted_.store(true, std::memory_order_release);
  link_->Close();
}

common::Result<void> ShardHost::Recover() {
  if (options_.durable_dir.empty()) return {};
  NOMLOC_RETURN_IF_ERROR(
      RestoreCheckpointFile(ShardCheckpointPath(options_.durable_dir),
                            localizer_->Store()).status());
  serving::WalConfig wal_config;
  wal_config.directory = options_.durable_dir;
  wal_config.fsync = options_.wal_fsync;
  NOMLOC_ASSIGN_OR_RETURN(
      serving::WalOpenResult opened,
      serving::WriteAheadLog::Open(
          wal_config,
          serving::WireDecoderAccept{.packets = true, .responses = false,
                                     .controls = true, .ordered = true}));
  for (const serving::WireEvent& event : opened.events)
    ApplyEvent(event, nullptr);
  if (!opened.events.empty()) {
    // Replayed queries re-solve; their responses were already delivered
    // before the crash (or die with it) — either way they must not leak
    // into the post-recovery response stream.
    localizer_->Flush();
    localizer_->TakeResponses();
  }
  std::lock_guard<std::mutex> lock(wal_mutex_);
  wal_ = std::move(opened.wal);
  return {};
}

common::Result<void> ShardHost::ResetWal() {
  std::lock_guard<std::mutex> lock(wal_mutex_);
  if (wal_ == nullptr) return {};
  return wal_->Reset();
}

serving::AdmitStatus ShardHost::ApplyReplicate(
    const serving::WireReplicate& replicate) {
  if (replicate.epoch < epoch_.load(std::memory_order_acquire)) {
    StaleEpoch().Increment();
    return serving::AdmitStatus::kRejectedStaleEpoch;
  }
  const serving::IngestPacket& packet = replicate.packet;
  // The primary's Ingest screen: what it rejects must not reach the copy
  // a failover would promote.
  if (serving::IsCorruptObservation(packet))
    return serving::AdmitStatus::kRejectedCorrupt;
  // Mirror of the worker's observation apply (service.cc Serve): in
  // cluster mode the stream is globally timestamp-sorted, so the packet
  // timestamp IS the logical now the primary applied it at.
  const double now_s = packet.timestamp_s;
  if (now_s > packet.deadline_s) return serving::AdmitStatus::kAccepted;
  serving::PdpObservation obs;
  obs.pdp = packet.pdp;
  obs.weight = packet.weight;
  obs.timestamp_s = packet.timestamp_s;
  standby_->Upsert(packet.object_id,
                   serving::AnchorKey{packet.ap_id, packet.site_index},
                   packet.reported_position, packet.is_nomadic, obs, now_s);
  return serving::AdmitStatus::kAccepted;
}

void ShardHost::WriteOut(std::string& outbound) {
  if (outbound.empty()) return;
  // The router's per-shard reader drains continuously, so backpressure on
  // the response direction is transient — but a flush batch (responses +
  // ack) can exceed the pipe's *total* capacity, in which case a whole-
  // buffer write would never fit.  Halve the chunk size on every reject:
  // the decoder is incremental, so byte-level splits mid-frame are fine,
  // and a 1-byte chunk always makes progress against a draining reader.
  // A closed link means the router is gone and the bytes have nowhere to
  // go.
  std::size_t offset = 0;
  std::size_t chunk = outbound.size();
  for (int stalls = 0; offset < outbound.size() && stalls < 10000;) {
    const std::size_t n = std::min(chunk, outbound.size() - offset);
    const LinkWrite verdict =
        link_->Write(std::string_view(outbound).substr(offset, n));
    if (verdict == LinkWrite::kClosed) break;
    if (verdict == LinkWrite::kOk) {
      offset += n;
      continue;
    }
    ++stalls;
    chunk = std::max<std::size_t>(1, chunk / 2);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  outbound.clear();
}

void ShardHost::HandleFlush(std::uint64_t token, std::string& outbound) {
  localizer_->Flush();
  std::vector<serving::ServeResponse> responses = localizer_->TakeResponses();
  std::sort(responses.begin(), responses.end(),
            [](const serving::ServeResponse& a,
               const serving::ServeResponse& b) { return a.seq < b.seq; });
  if (!header_sent_) {
    outbound += serving::WireHeader();
    header_sent_ = true;
  }
  for (const serving::ServeResponse& response : responses)
    serving::AppendWireResponseFrame(serving::ToWireResponse(response),
                                     outbound);
  serving::WireControl ack;
  ack.op = serving::WireControlOp::kFlushAck;
  ack.token = token;
  serving::AppendWireControlFrame(ack, outbound);
  WriteOut(outbound);
}

void ShardHost::ApplyEvent(const serving::WireEvent& event,
                           std::string* outbound) {
  switch (event.kind) {
    case serving::kWireObservationFrame:
    case serving::kWireQueryFrame: {
      clock_.Set(std::max(clock_.NowSeconds(), event.packet.timestamp_s));
      if (localizer_->Ingest(event.packet) != serving::AdmitStatus::kAccepted)
        HostRejected().Increment();
      break;
    }
    case serving::kWireReplicateFrame:
      // Deliberately no clock advance: the standby applies at the packet
      // timestamp, and the host clock should track only its *own*
      // shard's stream, exactly as in an unreplicated cluster.
      ApplyReplicate(event.replicate);
      break;
    case serving::kWireControlFrame:
      switch (event.control.op) {
        case serving::WireControlOp::kEpochSet: {
          // Monotone adoption; an old epoch on the wire never rolls the
          // fence back.
          const std::uint64_t current =
              epoch_.load(std::memory_order_acquire);
          if (event.control.epoch > current)
            epoch_.store(event.control.epoch, std::memory_order_release);
          break;
        }
        case serving::WireControlOp::kFlush:
          if (outbound != nullptr) HandleFlush(event.control.token, *outbound);
          break;
        case serving::WireControlOp::kFlushAck:
          break;  // Router-direction verb; ignore.
      }
      break;
    default:
      break;  // Response frames are rejected by the decoder already.
  }
}

void ShardHost::EncodeForWal(const serving::WireEvent& event,
                             std::string& out) {
  switch (event.kind) {
    case serving::kWireObservationFrame:
    case serving::kWireQueryFrame:
      serving::AppendWireFrame(event.packet, out);
      break;
    case serving::kWireControlFrame:
      // kFlush/kFlushAck are barriers, not state: replaying a flush would
      // emit responses nobody is listening for.
      if (event.control.op == serving::WireControlOp::kEpochSet)
        serving::AppendWireControlFrame(event.control, out);
      break;
    default:
      break;
  }
}

void ShardHost::ReaderLoop() {
  serving::WireDecoder decoder(serving::WireDecoderAccept{
      .packets = true, .responses = false, .controls = true,
      .replicates = true, .ordered = true});
  std::string incoming;
  std::string outbound;
  std::string wal_batch;
  while (true) {
    incoming.clear();
    if (link_->Read(incoming) == 0) break;
    // An aborted host dies mid-stream: bytes the transport already
    // handed over are abandoned, decoded or not.
    if (aborted_.load(std::memory_order_acquire)) break;
    if (!decoder.Feed(incoming).ok()) break;  // Poisoned stream: tear down.
    const std::vector<serving::WireEvent> events = decoder.TakeEvents();
    if (wal_ != nullptr) {
      // Append-before-apply: every frame that can touch state hits disk
      // before it does, so the WAL is always a superset of applied state.
      wal_batch.clear();
      for (const serving::WireEvent& event : events)
        EncodeForWal(event, wal_batch);
      if (!wal_batch.empty()) {
        std::lock_guard<std::mutex> lock(wal_mutex_);
        if (!wal_->Append(wal_batch).ok()) break;  // Disk gone: stop clean.
      }
    }
    if (aborted_.load(std::memory_order_acquire)) break;
    for (const serving::WireEvent& event : events) ApplyEvent(event, &outbound);
  }
}

}  // namespace nomloc::cluster
