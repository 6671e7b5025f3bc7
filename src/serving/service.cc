#include "serving/service.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <utility>

#include "common/metrics.h"
#include "localization/sp_session.h"

namespace nomloc::serving {

namespace {

constexpr std::string_view kCounterNames[] = {
    "serving.ingest.accepted",      "serving.ingest.observations",
    "serving.ingest.queries",       "serving.rejected.queue_full",
    "serving.rejected.deadline",    "serving.sessions.created",
    "serving.sessions.evicted",     "serving.observations.evicted",
    "serving.degraded",             "serving.solve.failed",
    "serving.rejected.corrupt",     "serving.rejected.breaker",
    "serving.breaker.opened",       "serving.breaker.reclosed",
    "serving.retries",              "serving.fallback.last_known_good",
    "serving.checkpoint.restored",  "serving.solver.sessions",
    "serving.evictions.pressure",   "serving.wire.parse_failures",
    "serving.wire.bytes_in",        "serving.wire.bytes_out",
    "serving.wal.appends",          "serving.wal.bytes",
    "serving.wal.syncs",            "serving.wal.rotations",
    "serving.wal.replayed_frames",  "serving.wal.torn_tails",
};
constexpr std::string_view kHistogramNames[] = {
    "serving.queue.depth",
    "serving.shard.occupancy",
    "serving.shard.bytes",
};
constexpr std::string_view kTimerNames[] = {
    "serving.queue.wait",
    "serving.solve",
    "serving.latency",
};
// Every name above, once: retiring a metric is one edit to its list.
constexpr auto kAllNames = [] {
  std::array<std::string_view, std::size(kCounterNames) +
                                   std::size(kHistogramNames) +
                                   std::size(kTimerNames)>
      all{};
  auto out = std::copy(std::begin(kCounterNames), std::end(kCounterNames),
                       all.begin());
  out = std::copy(std::begin(kHistogramNames), std::end(kHistogramNames), out);
  std::copy(std::begin(kTimerNames), std::end(kTimerNames), out);
  return all;
}();

double WallSecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

std::span<const std::string_view> AllMetricNames() { return kAllNames; }

void TouchMetrics() {
  auto& registry = common::MetricRegistry::Global();
  for (std::string_view name : kCounterNames) registry.Counter(name);
  for (std::string_view name : kHistogramNames) {
    // Shard byte footprints span far past the 1e6 sessions/depth range.
    if (name == "serving.shard.bytes")
      registry.Histogram(name, {}, 1.0, 1e9, 64);
    else
      registry.Histogram(name, {}, 1.0, 1e6, 48);
  }
  for (std::string_view name : kTimerNames) registry.Timer(name);
}

std::string_view AdmitStatusName(AdmitStatus status) noexcept {
  switch (status) {
    case AdmitStatus::kAccepted: return "ACCEPTED";
    case AdmitStatus::kRejectedQueueFull: return "REJECTED_QUEUE_FULL";
    case AdmitStatus::kRejectedDeadline: return "REJECTED_DEADLINE";
    case AdmitStatus::kRejectedShutdown: return "REJECTED_SHUTDOWN";
    case AdmitStatus::kRejectedCorrupt: return "REJECTED_CORRUPT";
    case AdmitStatus::kRejectedBreakerOpen: return "REJECTED_BREAKER_OPEN";
    case AdmitStatus::kRejectedStaleEpoch: return "REJECTED_STALE_EPOCH";
    case AdmitStatus::kRejectedShuttingDown: return "REJECTED_SHUTTING_DOWN";
  }
  return "UNKNOWN";
}

bool IsCorruptObservation(const IngestPacket& packet) noexcept {
  return !std::isfinite(packet.reported_position.x) ||
         !std::isfinite(packet.reported_position.y) ||
         !std::isfinite(packet.pdp) || packet.pdp <= 0.0 ||
         !std::isfinite(packet.weight) || packet.weight <= 0.0 ||
         !std::isfinite(packet.timestamp_s);
}

common::Result<void> ServingConfig::Validate() const {
  if (workers == 0) return common::InvalidArgument("workers must be >= 1");
  if (queue_capacity == 0)
    return common::InvalidArgument("queue_capacity must be >= 1");
  if (auto valid = store.Validate(); !valid.ok()) return valid;
  if (auto valid = breaker.Validate(); !valid.ok()) return valid;
  return {};
}

struct StreamingLocalizer::Job {
  IngestPacket packet;
  std::uint64_t seq = 0;
  std::chrono::steady_clock::time_point enqueue_wall;  ///< Queries only.
  std::size_t retries_left = 0;
  std::size_t retries_used = 0;
};

/// One worker's batch hand-off (see service.h): producers append to
/// `jobs` under `mutex`, the worker swaps it out and serves it unlocked.
struct StreamingLocalizer::WorkerQueue {
  std::mutex mutex;
  std::condition_variable ready;
  std::condition_variable drained;
  std::vector<Job> jobs;
  /// Jobs of the worker's taken batch that have not started yet.  Only
  /// the worker writes it; producers read it under `mutex` so that
  /// `jobs.size() + unstarted` is the capacity-bounded quantity.
  std::atomic<std::size_t> unstarted{0};
  /// The worker holds a batch (Flush waits for it to finish).
  bool busy = false;
  /// The worker is (about to be) waiting on `ready`.  Written under
  /// `mutex`, so a producer that finds it clear knows the worker will
  /// check `jobs` before it waits; one that finds it set clears it and
  /// notifies, so a park costs one notify, not one per packet.
  bool parked = false;

  std::size_t Pending() const noexcept {
    return jobs.size() + unstarted.load(std::memory_order_relaxed);
  }
};

common::Result<std::unique_ptr<StreamingLocalizer>> StreamingLocalizer::
    Create(const core::NomLocEngine& engine, ServingConfig config,
           const Clock* clock) {
  if (auto valid = config.Validate(); !valid.ok()) return valid.status();
  return std::unique_ptr<StreamingLocalizer>(
      new StreamingLocalizer(engine, std::move(config), clock));
}

StreamingLocalizer::StreamingLocalizer(const core::NomLocEngine& engine,
                                       ServingConfig config,
                                       const Clock* clock)
    : engine_(engine),
      config_(std::move(config)),
      store_(config_.store),
      breakers_(config_.breaker) {
  if (clock == nullptr) {
    owned_clock_ = std::make_unique<SteadyClock>();
    clock = owned_clock_.get();
  }
  clock_ = clock;
  paused_.store(config_.start_paused);
  queues_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i)
    queues_.push_back(std::make_unique<WorkerQueue>());
  threads_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i)
    threads_.emplace_back([this, i] { WorkerLoop(i); });
}

StreamingLocalizer::~StreamingLocalizer() { Shutdown(); }

std::size_t StreamingLocalizer::WorkerCount() const noexcept {
  return config_.workers;
}

AdmitStatus StreamingLocalizer::Ingest(const IngestPacket& packet) {
  auto& registry = common::MetricRegistry::Global();
  static auto& accepted = registry.Counter("serving.ingest.accepted");
  static auto& observations = registry.Counter("serving.ingest.observations");
  static auto& queries = registry.Counter("serving.ingest.queries");
  static auto& queue_full = registry.Counter("serving.rejected.queue_full");
  static auto& past_deadline = registry.Counter("serving.rejected.deadline");
  static auto& corrupt_counter = registry.Counter("serving.rejected.corrupt");
  static auto& breaker_rejected = registry.Counter("serving.rejected.breaker");
  static auto& depth_hist =
      registry.Histogram("serving.queue.depth", {}, 1.0, 1e6, 48);

  if (shutdown_.load(std::memory_order_acquire))
    return AdmitStatus::kRejectedShutdown;

  // One read serves the breaker and the deadline (clock.h says why).
  const double now_s = clock_->NowSeconds();
  if (packet.kind == PacketKind::kObservation) {
    // Anchor health: an open breaker short-circuits the AP entirely; a
    // half-open one admits exactly one probe, judged by the corruption
    // screen right below.
    if (!breakers_.Allow(packet.ap_id, now_s)) {
      breaker_rejected.Increment();
      return AdmitStatus::kRejectedBreakerOpen;
    }
    if (IsCorruptObservation(packet)) {
      corrupt_counter.Increment();
      breakers_.RecordFailure(packet.ap_id, now_s);
      return AdmitStatus::kRejectedCorrupt;
    }
    breakers_.RecordSuccess(packet.ap_id, now_s);
  }
  if (now_s > packet.deadline_s) {
    past_deadline.Increment();
    return AdmitStatus::kRejectedDeadline;
  }

  const std::size_t shard = store_.ShardOf(packet.object_id);
  WorkerQueue& queue = *queues_[shard % queues_.size()];
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(queue.mutex);
    const std::size_t depth = queue.Pending();
    if (depth >= config_.queue_capacity) {
      queue_full.Increment();
      return AdmitStatus::kRejectedQueueFull;
    }
    Job& job = queue.jobs.emplace_back();
    job.packet = packet;
    job.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    if (packet.kind == PacketKind::kQuery) {
      job.enqueue_wall = std::chrono::steady_clock::now();
      job.retries_left = config_.query_retry_budget;
    }
    depth_hist.Record(static_cast<double>(depth + 1));
    wake = std::exchange(queue.parked, false);
  }
  if (wake) queue.ready.notify_one();
  accepted.Increment();
  (packet.kind == PacketKind::kObservation ? observations : queries)
      .Increment();
  return AdmitStatus::kAccepted;
}

void StreamingLocalizer::Start() {
  paused_.store(false, std::memory_order_release);
  WakeWorkers();
}

void StreamingLocalizer::WakeWorkers() {
  // A worker evaluates its wait predicate under the queue mutex and only
  // then blocks.  Taking that mutex once after the flag store means no
  // worker can sit between a stale predicate check and its wait when the
  // notify fires; without it the wake-up is lost and Flush/join hang.
  for (auto& queue : queues_) {
    { std::lock_guard<std::mutex> lock(queue->mutex); }
    queue->ready.notify_all();
  }
}

void StreamingLocalizer::Flush() {
  for (auto& queue : queues_) {
    std::unique_lock<std::mutex> lock(queue->mutex);
    queue->drained.wait(
        lock, [&] { return queue->jobs.empty() && !queue->busy; });
  }
}

void StreamingLocalizer::Shutdown() {
  // Dedicated lifecycle mutex: workers lock responses_mutex_ while this
  // thread joins them, so the join must not hold it.
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  if (threads_.empty()) return;
  shutdown_.store(true, std::memory_order_release);
  WakeWorkers();
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
}

std::vector<ServeResponse> StreamingLocalizer::TakeResponses() {
  std::lock_guard<std::mutex> lock(responses_mutex_);
  std::vector<ServeResponse> out;
  out.swap(responses_);
  return out;
}

std::size_t StreamingLocalizer::SweepSessions(double now_s) {
  return store_.SweepAll(now_s);
}

void StreamingLocalizer::PushResponse(ServeResponse response) {
  std::lock_guard<std::mutex> lock(responses_mutex_);
  responses_.push_back(std::move(response));
}

bool StreamingLocalizer::TryRequeue(Job job) {
  if (shutdown_.load(std::memory_order_acquire)) return false;
  const std::size_t shard = store_.ShardOf(job.packet.object_id);
  WorkerQueue& queue = *queues_[shard % queues_.size()];
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(queue.mutex);
    if (queue.Pending() >= config_.queue_capacity) return false;
    queue.jobs.push_back(std::move(job));
    wake = std::exchange(queue.parked, false);
  }
  if (wake) queue.ready.notify_one();
  return true;
}

void StreamingLocalizer::WorkerLoop(std::size_t worker_index) {
  WorkerQueue& queue = *queues_[worker_index];
  std::vector<Job> batch;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(queue.mutex);
      queue.busy = false;  // the previous batch, if any, is done
      if (queue.jobs.empty()) queue.drained.notify_all();
      queue.parked = true;
      queue.ready.wait(lock, [&] {
        // Shutdown overrides pause so queued work still drains.
        return shutdown_.load(std::memory_order_acquire) ||
               (!paused_.load(std::memory_order_acquire) &&
                !queue.jobs.empty());
      });
      queue.parked = false;
      if (queue.jobs.empty()) return;  // shut down with nothing left
      batch.swap(queue.jobs);
      queue.unstarted.store(batch.size(), std::memory_order_relaxed);
      queue.busy = true;
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      queue.unstarted.store(batch.size() - i - 1, std::memory_order_relaxed);
      Serve(batch[i]);
    }
    batch.clear();
  }
}

void StreamingLocalizer::Serve(const Job& job) {
  auto& registry = common::MetricRegistry::Global();
  static auto& wait_timer = registry.Timer("serving.queue.wait");
  static auto& solve_timer = registry.Timer("serving.solve");
  static auto& latency_timer = registry.Timer("serving.latency");
  static auto& past_deadline = registry.Counter("serving.rejected.deadline");
  static auto& degraded_counter = registry.Counter("serving.degraded");
  static auto& solve_failed = registry.Counter("serving.solve.failed");
  static auto& retries_counter = registry.Counter("serving.retries");
  static auto& lkg_counter =
      registry.Counter("serving.fallback.last_known_good");

  const IngestPacket& packet = job.packet;
  const double now_s = clock_->NowSeconds();
  const bool deadline_missed = now_s > packet.deadline_s;

  if (packet.kind == PacketKind::kObservation) {
    if (deadline_missed) {
      // Stale by the time a worker got to it — never enters the session.
      past_deadline.Increment();
      return;
    }
    PdpObservation obs;
    obs.pdp = packet.pdp;
    obs.weight = packet.weight;
    obs.timestamp_s = packet.timestamp_s;
    store_.Upsert(packet.object_id,
                  AnchorKey{packet.ap_id, packet.site_index},
                  packet.reported_position, packet.is_nomadic, obs, now_s);
    return;
  }

  // Wall time is read for queries only (clock.h says why), so
  // serving.queue.wait samples query jobs only.
  const double queue_wait_s = WallSecondsSince(job.enqueue_wall);
  wait_timer.RecordSeconds(queue_wait_s);
  // Latency runs from the *scheduled* send time when the producer stamped
  // one (open-loop load), so sender stalls count against the percentiles
  // instead of silently vanishing (coordinated omission).
  const auto latency_origin =
      packet.scheduled_wall.time_since_epoch().count() != 0
          ? packet.scheduled_wall
          : job.enqueue_wall;

  ServeResponse response;
  response.object_id = packet.object_id;
  response.seq = job.seq;
  response.timestamp_s = packet.timestamp_s;
  response.queue_wait_s = queue_wait_s;
  response.retries = job.retries_used;

  if (deadline_missed) {
    past_deadline.Increment();
    response.status = ServeStatus::kRejectedDeadline;
    response.latency_s = WallSecondsSince(latency_origin);
    latency_timer.RecordSeconds(response.latency_s);
    PushResponse(std::move(response));
    return;
  }

  common::StageTrace solve_trace(solve_timer);
  auto snapshot = store_.Snapshot(packet.object_id, now_s);
  if (!snapshot.ok()) {
    response.status = ServeStatus::kFailed;
    response.error = snapshot.status();
    response.degraded = true;
    solve_failed.Increment();
  } else {
    response.anchor_count = snapshot->anchors.size();
    response.degraded =
        snapshot->live_keys < snapshot->keys_ever ||
        (config_.expected_anchors > 0 &&
         snapshot->live_keys < config_.expected_anchors);
    if (snapshot->anchors.size() < 2) {
      response.status = ServeStatus::kFailed;
      response.error = common::FailedPrecondition(
          "fewer than two live anchors in the session");
      response.degraded = true;
      solve_failed.Increment();
    } else {
      core::LocateRequest request;
      request.anchors = snapshot->anchors;
      auto located = [&]() -> common::Result<core::LocateResponse> {
        if (config_.solver_mode != localization::SpSessionMode::kIncremental)
          return engine_.Locate(request);
        // Warm path: the object's solver session lives in the store (so
        // eviction and solver state share a lifecycle) and sees only the
        // constraint delta since the last query.
        static auto& sessions_created =
            registry.Counter("serving.solver.sessions");
        auto solver = store_.SolverSession(packet.object_id, [&] {
          sessions_created.Increment();
          return std::make_shared<localization::SpSolverSession>(
              engine_.MakeSolverSession());
        });
        return engine_.Locate(request, solver.get());
      }();
      if (!located.ok()) {
        response.status = ServeStatus::kFailed;
        response.error = located.status();
        response.degraded = true;
        solve_failed.Increment();
      } else {
        response.estimate = std::move(located->estimate);
        response.degradation = located->degradation;
        // Confidence: perfect consistency (zero relaxation cost) with a
        // pinpoint feasible cell scores 1; a cell as large as the whole
        // floor, or a heavily relaxed program, scores toward 0.  At the
        // weighted-centroid rung there is no feasible cell — the area
        // term would always read "whole floor" — so only the consistency
        // term survives.  Every degraded rung additionally scales the
        // result by the ladder's confidence factor (1.0 at kNone, so the
        // healthy path is untouched).
        const double total_area = engine_.Area().Area();
        const double ratio =
            total_area > 0.0
                ? std::clamp(
                      response.estimate.feasible_area_m2 / total_area, 0.0,
                      1.0)
                : 1.0;
        double base =
            (1.0 / (1.0 + response.estimate.relaxation_cost)) * (1.0 - ratio);
        if (response.degradation >= common::DegradationLevel::kWeightedCentroid)
          base = 1.0 / (1.0 + response.estimate.relaxation_cost);
        response.confidence =
            common::DegradationConfidenceScale(response.degradation) * base;
        if (response.degradation != common::DegradationLevel::kNone)
          response.degraded = true;
      }
    }
  }

  if (response.status == ServeStatus::kFailed) {
    // Retry-with-budget: put the query back on this worker's own queue —
    // observations admitted in the meantime may complete the session.
    if (job.retries_left > 0) {
      Job retry = job;
      --retry.retries_left;
      ++retry.retries_used;
      if (TryRequeue(std::move(retry))) {
        retries_counter.Increment();
        solve_trace.Stop();
        return;  // The retried job owns the (single) response now.
      }
    }
    // Last rung of the ladder: answer from the session's last successful
    // estimate when one exists.
    if (config_.last_known_good_fallback) {
      auto last_good = store_.LastGood(packet.object_id);
      if (last_good.ok()) {
        response.status = ServeStatus::kOk;
        response.error = common::Status::Ok();
        response.estimate = core::LocationEstimate{};
        response.estimate.position = last_good->position;
        response.degradation = common::DegradationLevel::kLastKnownGood;
        response.degraded = true;
        response.confidence =
            common::DegradationConfidenceScale(response.degradation) *
            std::clamp(last_good->confidence, 0.0, 1.0);
        lkg_counter.Increment();
      }
    }
  } else if (response.status == ServeStatus::kOk &&
             response.degradation < common::DegradationLevel::kLastKnownGood) {
    LastKnownGood remembered;
    remembered.position = response.estimate.position;
    remembered.confidence = response.confidence;
    remembered.timestamp_s = now_s;
    store_.RecordEstimate(packet.object_id, remembered, now_s);
  }

  solve_trace.Stop();
  if (response.degraded) degraded_counter.Increment();
  // Bounded incremental sweep: a full SweepShard is O(sessions/shard) and
  // would dominate query latency at millions of sessions.  64 slots per
  // query still covers small shards completely (capacity <= 64) and
  // cycles a 125k-session shard in ~2k queries.
  store_.SweepStep(store_.ShardOf(packet.object_id), now_s, 64);
  response.latency_s = WallSecondsSince(latency_origin);
  latency_timer.RecordSeconds(response.latency_s);
  PushResponse(std::move(response));
}

}  // namespace nomloc::serving
