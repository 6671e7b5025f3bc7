// StreamingLocalizer — the online serving layer on top of NomLocEngine.
//
// Ingestion is a set of bounded FIFO queues, one per worker thread; every
// packet is routed by its object id's shard, and each shard maps to
// exactly one worker.  That gives three properties at once:
//
//   1. MPSC, not MPMC: producers contend only on the target worker's
//      queue mutex, never with each other's objects.
//   2. Per-object FIFO: all packets of one object are processed in
//      ingestion order by one worker, so PDP accumulation and session
//      mutation are deterministic (and the no-fault streaming path is
//      bit-identical to NomLocEngine::LocateBatch over the same anchors).
//   3. Admission control with backpressure: a full queue rejects the
//      packet with a typed AdmitStatus instead of blocking the producer.
//
// Hand-off is one batch at a time: producers append to their worker's
// job vector under its mutex and notify only when the worker is parked;
// the worker swaps the whole vector for its own drained one and serves
// that batch without the lock.  A batch costs the worker one lock round
// trip, and after warm-up neither side allocates.  `queue_capacity`
// bounds the jobs accepted but not yet started: those still queued plus
// the unstarted rest of the worker's batch.
//
// Deadlines are absolute logical times (serving/clock.h).  A packet whose
// deadline has passed at admission or at dequeue is rejected as
// kRejectedDeadline — queries still yield a (rejection) response, so every
// accepted query produces exactly one ServeResponse.
//
// Graceful degradation: fault injection (AP dropout, packet loss, delay)
// runs at the ingest boundary; the solver simply sees the reduced anchor
// set, and each response reports the feasible-cell area plus a confidence
// in [0, 1] derived from it, with `degraded` flagging responses whose
// constraint set is smaller than expected (aged-out or dropped anchors).
//
// All serving metrics are namespaced `serving.*`; AllMetricNames() is the
// canonical list (tested against --metrics output).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <thread>
#include <vector>

#include "common/degradation.h"
#include "core/nomloc.h"
#include "serving/circuit_breaker.h"
#include "serving/clock.h"
#include "serving/fault_injection.h"
#include "serving/session_store.h"

namespace nomloc::serving {

enum class PacketKind {
  kObservation,  ///< One AP's PDP report for one object.
  kQuery,        ///< Request a location estimate for one object.
};

/// One unit of the ingest stream.  Observations carry a pre-extracted
/// batch-mean PDP (the CSI -> PDP reduction runs at the edge, as in the
/// paper's AP-side CSI tool); queries carry only the object id.
struct IngestPacket {
  PacketKind kind = PacketKind::kObservation;
  std::uint64_t object_id = 0;
  int ap_id = 0;
  std::size_t site_index = 0;      ///< Nomadic dwell site; 0 for static.
  bool is_nomadic = false;
  geometry::Vec2 reported_position;
  double pdp = 0.0;                ///< Batch-mean PDP [mW].
  double weight = 1.0;             ///< Frames behind the mean.
  double timestamp_s = 0.0;        ///< Measurement time (logical).
  /// Absolute logical deadline; the packet is dropped/rejected once the
  /// clock passes it.  Defaults to "never".
  double deadline_s = std::numeric_limits<double>::infinity();
  /// Wall time this packet was *scheduled* to be sent.  When set, served
  /// latency is measured from here instead of the admission time, so a
  /// stalled sender cannot hide queueing delay from the percentiles
  /// (coordinated omission).  Open-loop load generation stamps this;
  /// epoch-zero (the default) means "unset" and latency falls back to the
  /// admission timestamp.
  std::chrono::steady_clock::time_point scheduled_wall{};
};

/// True when an observation must not enter a session: a non-finite
/// position, PDP, weight or timestamp (a NaN or infinite timestamp would
/// never age out), or a non-positive PDP or weight.  The primary's Ingest
/// and a replication standby apply this one screen, so both copies hold
/// the same observations.
bool IsCorruptObservation(const IngestPacket& packet) noexcept;

/// Synchronous admission verdict returned by Ingest().
enum class AdmitStatus {
  kAccepted,
  kDroppedByFault,     ///< Fault injection consumed the packet.
  kRejectedQueueFull,  ///< Backpressure: the worker's queue is at capacity.
  kRejectedDeadline,   ///< Deadline already passed at admission.
  kRejectedShutdown,   ///< Service is shutting down.
  kRejectedCorrupt,    ///< IsCorruptObservation: NaN/Inf or non-positive.
  kRejectedBreakerOpen,///< The AP's circuit breaker is open.
  /// Cluster: the frame's placement epoch predates the host's — a lagging
  /// router lost a failover race and must refresh its table.
  kRejectedStaleEpoch,
  /// Cluster: a transport write failed because the router (or the slot it
  /// targeted) is shutting down — not a transient fault, do not retry and
  /// do not count it toward a breaker trip.
  kRejectedShuttingDown,
};

std::string_view AdmitStatusName(AdmitStatus status) noexcept;

/// Terminal state of one accepted query.
enum class ServeStatus {
  kOk,
  kRejectedDeadline,  ///< Deadline passed while queued.
  kFailed,            ///< Engine/session error (see `error`).
};

struct ServeResponse {
  std::uint64_t object_id = 0;
  std::uint64_t seq = 0;        ///< Ingestion sequence number.
  double timestamp_s = 0.0;     ///< The query packet's timestamp.
  ServeStatus status = ServeStatus::kOk;
  common::Status error;         ///< Set when status == kFailed.
  core::LocationEstimate estimate;
  std::size_t anchor_count = 0;
  /// Heuristic confidence in [0, 1]: 1/(1 + relaxation_cost) scaled by
  /// how much of the floor the feasible cell rules out (a cell as large
  /// as the whole area carries no information).
  double confidence = 0.0;
  /// True when the constraint set shrank below expectation — anchors aged
  /// out, or fewer than ServingConfig::expected_anchors are live.
  bool degraded = false;
  /// Rung of the degradation ladder this estimate came from: the engine
  /// reports levels 0–2 (full solve / relaxed constraints / weighted
  /// centroid); the serving layer adds level 3 when it answered from the
  /// session's last-known-good estimate.  Confidence is scaled by
  /// common::DegradationConfidenceScale(degradation).
  common::DegradationLevel degradation = common::DegradationLevel::kNone;
  /// Solve attempts beyond the first that this response consumed
  /// (ServingConfig::query_retry_budget).
  std::size_t retries = 0;
  double queue_wait_s = 0.0;    ///< Wall time spent queued.
  double latency_s = 0.0;       ///< Wall time ingest -> completion.
};

struct ServingConfig {
  std::size_t workers = 2;
  /// Per-worker bound on jobs accepted but not yet started — queued, or
  /// waiting in the batch the worker has taken.  Ingest beyond it is
  /// kRejectedQueueFull.
  std::size_t queue_capacity = 1024;
  SessionStoreConfig store;
  FaultConfig faults;
  /// Anchors a healthy session is expected to hold (0 = unknown).  Used
  /// only for the `degraded` flag, e.g. static APs + nomadic sites.
  std::size_t expected_anchors = 0;
  /// Per-AP circuit breakers at the ingest boundary (corrupt reports trip
  /// them; see serving/circuit_breaker.h).
  CircuitBreakerConfig breaker;
  /// Failed query solves are re-enqueued up to this many times before the
  /// failure (or the last-known-good fallback) is surfaced.  0 = answer
  /// on the first attempt, which keeps the no-fault streaming path
  /// bit-identical to LocateBatch.
  std::size_t query_retry_budget = 0;
  /// When a query cannot be solved (session evicted, too few anchors,
  /// engine failure), answer with the session's last successful estimate
  /// at DegradationLevel::kLastKnownGood instead of failing — if one
  /// exists.
  bool last_known_good_fallback = true;
  /// How queries drive the SP solver.  kColdEachSolve (the default)
  /// solves every query statelessly through NomLocEngine::Locate, which
  /// keeps the no-fault streaming path bit-identical to LocateBatch over
  /// the same anchors.  kIncremental keeps one warm
  /// localization::SpSolverSession per object inside the session store
  /// and feeds it constraint deltas (ReplaceConstraints), so consecutive
  /// queries on a slowly-changing session reuse the previous basis /
  /// feasible polygon — equivalent to the stateless answer within solver
  /// tolerance, and much cheaper on streaming updates.
  localization::SpSessionMode solver_mode =
      localization::SpSessionMode::kColdEachSolve;
  /// Created paused: packets queue up but no worker drains them until
  /// Start().  Lets tests fill queues deterministically.
  bool start_paused = false;

  common::Result<void> Validate() const;
};

class StreamingLocalizer {
 public:
  /// `engine` and `clock` must outlive the service.  `clock` may be null:
  /// the service then runs on its own wall clock (SteadyClock).
  static common::Result<std::unique_ptr<StreamingLocalizer>> Create(
      const core::NomLocEngine& engine, ServingConfig config,
      const Clock* clock = nullptr);

  /// Drains queues and joins the workers.
  ~StreamingLocalizer();

  StreamingLocalizer(const StreamingLocalizer&) = delete;
  StreamingLocalizer& operator=(const StreamingLocalizer&) = delete;

  /// Non-blocking admission.  Applies fault injection to observations,
  /// checks the deadline and the target queue's capacity, and enqueues.
  AdmitStatus Ingest(const IngestPacket& packet);

  /// Releases the workers of a start_paused service.  No-op otherwise.
  void Start();

  /// Blocks until every queued packet has been processed.
  void Flush();

  /// Drains and stops the workers.  Idempotent; Ingest afterwards returns
  /// kRejectedShutdown.
  void Shutdown();

  /// Moves out all responses completed so far (any worker order; sort by
  /// `seq` for a deterministic view).
  std::vector<ServeResponse> TakeResponses();

  /// Sweeps every session shard at logical time `now_s` (eviction +
  /// occupancy metrics).  Workers also sweep an object's shard after each
  /// query they serve.
  std::size_t SweepSessions(double now_s);

  SessionStore& Store() noexcept { return store_; }
  BreakerBank& Breakers() noexcept { return breakers_; }
  const core::NomLocEngine& Engine() const noexcept { return engine_; }
  std::size_t WorkerCount() const noexcept;

 private:
  StreamingLocalizer(const core::NomLocEngine& engine, ServingConfig config,
                     const Clock* clock);

  struct Job;
  struct WorkerQueue;

  void WorkerLoop(std::size_t worker_index);
  /// Notifies every worker after a paused_/shutdown_ flip (see .cc for
  /// why the queue mutexes are taken first).
  void WakeWorkers();
  void Serve(const Job& job);
  void PushResponse(ServeResponse response);
  /// Puts a retried query back on its own worker's queue (capacity and
  /// shutdown permitting).  Returns false when the retry could not be
  /// enqueued — the caller must surface a response instead.
  bool TryRequeue(Job job);

  const core::NomLocEngine& engine_;
  ServingConfig config_;
  std::unique_ptr<SteadyClock> owned_clock_;
  const Clock* clock_;  ///< Never null.
  SessionStore store_;
  FaultInjector faults_;
  BreakerBank breakers_;

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> threads_;
  std::atomic<std::uint64_t> next_seq_{0};
  std::atomic<bool> paused_{false};
  std::atomic<bool> shutdown_{false};

  std::mutex lifecycle_mutex_;  ///< Serializes Shutdown (join-once).
  std::mutex responses_mutex_;
  std::vector<ServeResponse> responses_;
};

/// Canonical names of every serving metric, for drift tests and tooling.
std::span<const std::string_view> AllMetricNames();

/// Registers every serving metric (with its final type) in the global
/// registry so a --metrics dump lists the full serving surface even for
/// series that have not fired yet.
void TouchMetrics();

}  // namespace nomloc::serving
