// Shared plumbing for the perfbench workloads: options, sample statistics,
// counter deltas, output checks, the open-loop pacer, and the probe fixes
// that carry the paper's accuracy measure through the serving workloads.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "core/nomloc.h"
#include "eval/runner.h"
#include "eval/scenario.h"
#include "serving/loadgen.h"
#include "serving/service.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Deliberate output corruption for the negative self-test: each kind must
/// make the workload's output checks fail.
enum class Corruption { kNone, kDrop, kFlip, kCount };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Measure the set-up only, report setup_s and return.
  bool setup_only = false;
  Corruption corrupt = Corruption::kNone;
};

/// Linear-interpolation quantile of an unsorted sample; 0 when empty.
double Quantile(std::span<const double> xs, double q);
inline double Median(std::span<const double> xs) { return Quantile(xs, 0.5); }

/// What one workload run measured and checked.  `metrics` maps a metric
/// name of BENCHMARK.json to its value (run.py attaches the units);
/// `params` are the workload's fixed parameters, echoed in the result
/// header.
struct Outcome {
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::pair<std::string, std::string>> params;

  void Check(bool ok, std::string what) {
    if (!ok) failures.push_back(std::move(what));
  }
  void Set(const std::string& name, double value) { metrics[name] = value; }
  template <class T>
  void Param(const std::string& name, const T& value) {
    params.emplace_back(name, std::to_string(value));
  }
  void Param(const std::string& name, const char* value) {
    params.emplace_back(name, value);
  }
};

/// Value delta of a global counter series since construction.
class CounterDelta {
 public:
  explicit CounterDelta(std::string_view name)
      : counter_(nomloc::common::MetricRegistry::Global().Counter(name)),
        start_(counter_.Value()) {}
  double Delta() const { return double(counter_.Value() - start_); }

 private:
  nomloc::common::MetricCounter& counter_;
  std::uint64_t start_;
};

/// Total-seconds delta of a global timer series since construction.
class TimerDelta {
 public:
  explicit TimerDelta(std::string_view name)
      : timer_(nomloc::common::MetricRegistry::Global().Timer(name)),
        seconds_(timer_.TotalSeconds()) {}
  double Seconds() const { return timer_.TotalSeconds() - seconds_; }

 private:
  nomloc::common::MetricTimer& timer_;
  double seconds_;
};

/// a / b, or 0 when nothing was attempted (a bypassed layer).
inline double Ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// Latency quantile of a paced pass: quantile q within each round, then
/// the median over rounds, so a stall confined to one round moves one
/// sample rather than the result.  Each round must hold enough samples
/// that q has at least ten beyond it.
double RoundQuantile(const std::map<std::size_t, std::vector<double>>& rounds,
                     double q);

/// Peak resident set size of this process [MB].
double PeakRssMb();

/// CPU time consumed so far by this process (all threads) / this thread [s].
double ProcessCpuSeconds();
double ThreadCpuSeconds();

/// Set-up time of one construction [s].  `build` returns the workload's
/// program state; it runs in kSetupBatches timed batches of `per_batch`
/// calls after one untimed warm-up batch, and the result is the median
/// batch time over `per_batch`.  Single constructions take well under a
/// millisecond, so timer and scheduler jitter would swamp them; a batch
/// lasts tens of milliseconds.  The figure still depends on the process's
/// address-space layout (the lab's construction runs at about 30 or 45 us
/// per process), so run.py averages it over fresh processes started with
/// --setup-only.
///
/// A batch's state is torn down untimed, kSetupSettle after the batch:
/// StreamingLocalizer::Shutdown raises its flag and notifies without the
/// queue mutex, so a worker caught between its wait predicate and its
/// wait sleeps through the wake-up and the join hangs.  Tearing a service
/// down right after creating it hit that within a few thousand cycles;
/// workers that have had time to park are woken normally.
inline constexpr int kSetupBatches = 9;
inline constexpr auto kSetupSettle = std::chrono::milliseconds(10);
template <class Build>
double SetupSeconds(std::size_t per_batch, Build&& build) {
  std::vector<double> batch_s;
  for (int b = 0; b <= kSetupBatches; ++b) {
    std::vector<decltype(build())> built;
    built.reserve(per_batch);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < per_batch; ++i) built.push_back(build());
    if (b > 0)
      batch_s.push_back(SecondsBetween(t0, Clock::now()) / double(per_batch));
    std::this_thread::sleep_for(kSetupSettle);
  }
  return Median(batch_s);
}

bool BitsEqual(double a, double b);
/// Flips the lowest mantissa bit (the "flipped position bit" corruption).
double FlipLowBit(double x);

/// Open-loop pacing: sleeps until shortly before `due`, then spins the
/// rest of the way, so the sender neither burns a core between sends nor
/// oversleeps the deadline.
void WaitUntil(Clock::time_point due);

/// Generator lag of one open-loop pass.  A pass whose p99 send lag exceeds
/// the workload's tolerance measured the generator, not the system: its
/// latency figures are reported invalid (loadgen.pacing_valid = 0) rather
/// than slow.  The lag includes the sender's own calls into the system, so
/// a slower Ingest or Flush can also push it over.
struct LagReport {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  bool valid = true;
};
LagReport SummarizeLag(std::span<const double> lags_ms,
                       double tolerance_p99_ms);

// --- Steady streams ------------------------------------------------------

/// A short steady schedule replayed in rounds.  Keys never expire in the
/// serving workloads (so responses depend only on the stream), and every
/// query walks its session's judgement history; under one fixed Zipf
/// ranking the hottest sessions' histories would grow for the whole run
/// and those walks, not ingest, would dominate.  Round r therefore shifts
/// every object id by r * sessions / kRotations (mod sessions), so the hot
/// set moves each round, and shifts logical time by r round lengths.
class Rounds {
 public:
  static constexpr std::size_t kRotations = 64;

  Rounds(const nomloc::serving::LoadSchedule& schedule, std::size_t sessions)
      : schedule_(schedule),
        sessions_(sessions),
        round_s_(schedule.horizon_s * double(schedule.steady.size() + 1) /
                 double(schedule.steady.size())) {}

  std::size_t Size() const { return schedule_.steady.size(); }

  /// Packet i of round r, and the logical second it is due.
  nomloc::serving::IngestPacket Packet(std::size_t round,
                                       std::size_t i) const {
    nomloc::serving::IngestPacket p = schedule_.steady[i].packet;
    p.object_id = (p.object_id + round * (sessions_ / kRotations)) % sessions_;
    p.timestamp_s += double(round) * round_s_;
    return p;
  }
  double Offset(std::size_t round, std::size_t i) const {
    return schedule_.steady[i].send_offset_s + double(round) * round_s_;
  }
  /// The round a packet (or its response) with this timestamp belongs to.
  std::size_t RoundOf(double timestamp_s) const {
    return std::size_t(timestamp_s / round_s_);
  }

 private:
  const nomloc::serving::LoadSchedule& schedule_;
  std::size_t sessions_;
  double round_s_;
};

// --- The paper's pipeline over the lab scenario --------------------------

/// The lab deployment every workload shares: scenario, run config and a
/// built engine.
struct Lab {
  nomloc::eval::Scenario scenario;
  nomloc::eval::RunConfig run;
  std::unique_ptr<nomloc::core::NomLocEngine> engine;
};

/// Builds the lab scenario and its engine (the program's set-up).
Lab MakeLab(std::uint64_t seed);

/// Trials per lab test site in the accuracy set every workload scores:
/// large enough that the error statistics vary little from seed to seed.
inline constexpr std::size_t kAccuracyTrials = 100;

/// One fix of the paper's pipeline: which test site, its ground truth, the
/// measured anchors and the engine's estimate over them.
struct LabFix {
  std::size_t site = 0;
  nomloc::geometry::Vec2 truth;
  std::vector<nomloc::localization::Anchor> anchors;
  bool ok = false;
  nomloc::core::LocationEstimate estimate;
  std::size_t lp_iterations = 0;
  nomloc::common::DegradationLevel degradation =
      nomloc::common::DegradationLevel::kNone;
};

/// Runs `trials` fixes (MeasureEpoch, then Locate) at every test site on
/// `threads` threads.  Site s measures on the run seed's forked stream
/// s + 1, exactly as eval::RunLocalization does, so the anchors are
/// bit-identical for any thread count.  Fixes are site-major.
std::vector<LabFix> MeasureLabFixes(const Lab& lab, std::size_t trials,
                                    std::size_t threads);

/// Error statistics of a fix set: median, p90 and the paper's SLV
/// (variance of per-site mean errors).
struct Accuracy {
  double median_m = 0.0;
  double p90_m = 0.0;
  double slv_m2 = 0.0;
};
Accuracy AccuracyOf(const std::vector<LabFix>& fixes,
                    const std::vector<nomloc::geometry::Vec2>& estimates,
                    std::size_t sites);

/// Probe objects for the serving workloads: each carries one lab fix's
/// anchors as observations, then one query, so a served answer can be
/// scored against ground truth and bit-compared with the paper pipeline.
std::vector<nomloc::serving::IngestPacket> ProbePackets(
    const std::vector<LabFix>& fixes, std::uint64_t first_object_id,
    double timestamp_s);

// --- Workloads -----------------------------------------------------------

Outcome RunPaperLab(const Options& options);
Outcome RunServe1m(const Options& options);
Outcome RunClusterHot(const Options& options);

}  // namespace perfbench
