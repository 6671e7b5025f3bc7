// Logical clocks for the serving layer.
//
// Deadlines and time-decay are defined on *logical* seconds so that tests
// and trace replays are deterministic: a ManualClock is advanced explicitly
// (by the test, or by the replay driver as it walks the packet stream),
// while production deployments plug in SteadyClock for wall time.  No
// serving component ever reads the wall clock for semantic decisions —
// wall time is read only for a query's metrics (queue wait, solve span,
// latency), never for an observation.  steady_clock reads the TSC in
// order (rdtscp, or lfence; rdtsc), waiting for every earlier load, so
// one read per observation on the worker would wait out the previous
// upsert's cache misses.  For the same reason a packet reads the service
// clock once at admission and once when served.
#pragma once

#include <atomic>
#include <chrono>

namespace nomloc::serving {

/// Seconds on some monotonic timeline.  Implementations must be safe to
/// read from any thread.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual double NowSeconds() const = 0;
};

/// Test/replay clock: time moves only when someone sets or advances it.
class ManualClock final : public Clock {
 public:
  explicit ManualClock(double start_s = 0.0) noexcept : now_s_(start_s) {}

  double NowSeconds() const override {
    return now_s_.load(std::memory_order_acquire);
  }
  void Set(double now_s) noexcept {
    now_s_.store(now_s, std::memory_order_release);
  }
  void Advance(double delta_s) noexcept { Set(NowSeconds() + delta_s); }

 private:
  std::atomic<double> now_s_;
};

/// Wall clock: seconds since construction on std::chrono::steady_clock.
class SteadyClock final : public Clock {
 public:
  SteadyClock() noexcept : epoch_(std::chrono::steady_clock::now()) {}

  double NowSeconds() const override {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace nomloc::serving
