#include "bench.h"

#include <cstring>
#include <ctime>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "common/stats.h"
#include "common/thread_pool.h"

namespace perfbench {

using nomloc::geometry::Vec2;

double Quantile(std::span<const double> xs, double q) {
  if (xs.empty()) return 0.0;
  return nomloc::common::Percentile(xs, q);
}

double RoundQuantile(const std::map<std::size_t, std::vector<double>>& rounds,
                     double q) {
  std::vector<double> per_round;
  for (const auto& [round, samples] : rounds)
    per_round.push_back(Quantile(samples, q));
  return Median(per_round);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
  }
  return 0.0;
}

namespace {
double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}
}  // namespace

double ProcessCpuSeconds() { return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return CpuSeconds(CLOCK_THREAD_CPUTIME_ID); }

bool BitsEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

double FlipLowBit(double x) {
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  bits ^= 1;
  std::memcpy(&x, &bits, sizeof bits);
  return x;
}

void WaitUntil(Clock::time_point due) {
  // Sleep-until overshoots by tens of microseconds; leave that much to a
  // short final spin.
  constexpr auto kSpinWindow = std::chrono::microseconds(100);
  if (due - Clock::now() > kSpinWindow)
    std::this_thread::sleep_until(due - kSpinWindow);
  while (Clock::now() < due) {
  }
}

LagReport SummarizeLag(std::span<const double> lags_ms,
                       double tolerance_p99_ms) {
  LagReport report;
  report.p50_ms = Quantile(lags_ms, 0.5);
  report.p99_ms = Quantile(lags_ms, 0.99);
  report.valid = report.p99_ms <= tolerance_p99_ms;
  return report;
}

Lab MakeLab(std::uint64_t seed) {
  auto scenario = nomloc::eval::ScenarioByName("lab");
  if (!scenario.ok()) throw std::runtime_error(scenario.status().ToString());
  Lab lab{std::move(*scenario), {}, nullptr};
  lab.run.deployment = nomloc::eval::Deployment::kNomadic;
  lab.run.seed = seed;
  nomloc::core::NomLocConfig engine_cfg = lab.run.engine;
  engine_cfg.bandwidth_hz = lab.run.channel.bandwidth_hz;
  auto engine = nomloc::core::NomLocEngine::Create(
      lab.scenario.env.Boundary(), engine_cfg);
  if (!engine.ok()) throw std::runtime_error(engine.status().ToString());
  lab.engine =
      std::make_unique<nomloc::core::NomLocEngine>(std::move(*engine));
  return lab;
}

std::vector<LabFix> MeasureLabFixes(const Lab& lab, std::size_t trials,
                                    std::size_t threads) {
  const auto& sites = lab.scenario.test_sites;
  std::vector<LabFix> fixes(sites.size() * trials);
  const nomloc::common::Rng root(lab.run.seed);
  auto measure_site = [&](std::size_t s) {
    nomloc::common::Rng rng = root.Fork(s + 1);
    for (std::size_t t = 0; t < trials; ++t) {
      LabFix& fix = fixes[s * trials + t];
      fix.site = s;
      fix.truth = sites[s];
      auto anchors = nomloc::eval::MeasureEpoch(lab.scenario, lab.run,
                                                sites[s], rng);
      if (!anchors.ok()) continue;
      fix.anchors = std::move(*anchors);
      nomloc::core::LocateRequest request;
      request.anchors = fix.anchors;
      auto response = lab.engine->Locate(request);
      if (response.ok()) {
        fix.ok = true;
        fix.estimate = std::move(response->estimate);
        fix.lp_iterations = response->lp_iterations;
        fix.degradation = response->degradation;
      }
    }
  };
  if (threads <= 1) {
    for (std::size_t s = 0; s < sites.size(); ++s) measure_site(s);
  } else {
    nomloc::common::ThreadPool pool(threads);
    pool.ParallelFor(sites.size(), measure_site);
  }
  return fixes;
}

Accuracy AccuracyOf(const std::vector<LabFix>& fixes,
                    const std::vector<Vec2>& estimates, std::size_t sites) {
  std::vector<double> errors;
  std::vector<double> site_sum(sites, 0.0), site_count(sites, 0.0);
  for (std::size_t i = 0; i < fixes.size() && i < estimates.size(); ++i) {
    const double e = Distance(estimates[i], fixes[i].truth);
    errors.push_back(e);
    site_sum[fixes[i].site] += e;
    site_count[fixes[i].site] += 1.0;
  }
  std::vector<double> site_means;
  for (std::size_t s = 0; s < sites; ++s)
    if (site_count[s] > 0.0) site_means.push_back(site_sum[s] / site_count[s]);
  Accuracy acc;
  acc.median_m = Quantile(errors, 0.5);
  acc.p90_m = Quantile(errors, 0.9);
  acc.slv_m2 = nomloc::common::SpatialLocalizabilityVariance(site_means);
  return acc;
}

std::vector<nomloc::serving::IngestPacket> ProbePackets(
    const std::vector<LabFix>& fixes, std::uint64_t first_object_id,
    double timestamp_s) {
  std::vector<nomloc::serving::IngestPacket> packets;
  for (std::size_t i = 0; i < fixes.size(); ++i) {
    // ap_id = anchor index, so the session snapshot's AnchorKey order is
    // the measured order and a single report passes its PDP through
    // bit-exactly: the served fix must equal Locate over the same anchors.
    for (std::size_t a = 0; a < fixes[i].anchors.size(); ++a) {
      const auto& anchor = fixes[i].anchors[a];
      nomloc::serving::IngestPacket p;
      p.kind = nomloc::serving::PacketKind::kObservation;
      p.object_id = first_object_id + i;
      p.ap_id = int(a);
      p.is_nomadic = anchor.is_nomadic_site;
      p.reported_position = anchor.position;
      p.pdp = anchor.pdp;
      p.timestamp_s = timestamp_s;
      packets.push_back(p);
    }
  }
  for (std::size_t i = 0; i < fixes.size(); ++i) {
    nomloc::serving::IngestPacket q;
    q.kind = nomloc::serving::PacketKind::kQuery;
    q.object_id = first_object_id + i;
    q.timestamp_s = timestamp_s;
    packets.push_back(q);
  }
  return packets;
}

}  // namespace perfbench
