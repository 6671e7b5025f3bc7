// paper_lab: the paper's measurement + localization pipeline over the lab
// scenario, closed loop.  Nearly all of its time is channel ray tracing,
// CSI synthesis and PDP extraction; serving and cluster are bypassed.
#include <thread>

#include "bench.h"

namespace perfbench {

namespace {

/// The closed loop replays the accuracy set's first kTimedTrials trials of
/// every site.
constexpr std::size_t kTimedTrials = 20;
constexpr std::size_t kThreads = 2;
/// Lab constructions per set-up batch (30-50 us each).
constexpr std::size_t kSetupsPerBatch = 500;
/// Throughput is sampled as fixes completed per window.
constexpr double kWindowS = 0.5;

/// Odd windows of a traced run record spans.
bool IsTraced(bool trace, std::size_t window) {
  return trace && window % 2 == 1;
}

/// One fix of the timed closed loop.
struct TimedFix {
  double done_s = 0.0;  ///< Completion, seconds after the loop started.
  double fix_s = 0.0;   ///< MeasureEpoch + Locate.
  double measure_s = 0.0;
  double locate_s = 0.0;
  double cpu_s = 0.0;  ///< This thread's CPU time for the fix (traced only).
  bool traced = false;
  bool ok = false;
  bool repeats = false;  ///< Bit-identical to the accuracy set's fix.
};

/// Closed loop for `seconds` on kThreads threads.  Thread k cycles over
/// sites k, k + kThreads, ..., replaying each site's first kTimedTrials
/// accuracy-set trials from the site's forked stream, so every fix has a
/// known answer.  With no barrier between sites both threads stay busy to
/// the end, and the throughput samples do not depend on how sites of
/// unequal cost were split between threads.
std::vector<TimedFix> RunClosedLoop(const Lab& lab,
                                    const std::vector<LabFix>& fixes,
                                    double seconds, bool trace) {
  const auto& sites = lab.scenario.test_sites;
  std::vector<std::vector<TimedFix>> per_thread(kThreads);
  const nomloc::common::Rng root(lab.run.seed);
  const auto start = Clock::now();
  auto loop = [&](std::size_t k) {
    for (;;) {
      for (std::size_t s = k; s < sites.size(); s += kThreads) {
        nomloc::common::Rng rng = root.Fork(s + 1);
        for (std::size_t t = 0; t < kTimedTrials; ++t) {
          const auto t0 = Clock::now();
          const double begin_s = SecondsBetween(start, t0);
          if (begin_s >= seconds) return;
          TimedFix fix;
          fix.traced = IsTraced(trace, std::size_t(begin_s / kWindowS));
          const double cpu0 = fix.traced ? ThreadCpuSeconds() : 0.0;
          auto anchors =
              nomloc::eval::MeasureEpoch(lab.scenario, lab.run, sites[s], rng);
          const auto t1 = Clock::now();
          if (anchors.ok()) {
            nomloc::core::LocateRequest request;
            request.anchors = *anchors;
            const auto response = lab.engine->Locate(request);
            const LabFix& want = fixes[s * kAccuracyTrials + t];
            fix.ok = response.ok();
            fix.repeats =
                fix.ok && BitsEqual(response->estimate.position.x,
                                    want.estimate.position.x) &&
                BitsEqual(response->estimate.position.y,
                          want.estimate.position.y);
          }
          const auto t2 = Clock::now();
          if (fix.traced) fix.cpu_s = ThreadCpuSeconds() - cpu0;
          fix.done_s = SecondsBetween(start, t2);
          fix.fix_s = SecondsBetween(t0, t2);
          fix.measure_s = SecondsBetween(t0, t1);
          fix.locate_s = SecondsBetween(t1, t2);
          per_thread[k].push_back(fix);
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < kThreads; ++k) threads.emplace_back(loop, k);
  for (std::thread& thread : threads) thread.join();
  std::vector<TimedFix> all;
  for (const auto& fixes_of_thread : per_thread)
    all.insert(all.end(), fixes_of_thread.begin(), fixes_of_thread.end());
  return all;
}

}  // namespace

Outcome RunPaperLab(const Options& options) {
  Outcome out;
  out.Param("scenario", "lab");
  out.Param("deployment", "nomadic");
  out.Param("trials_per_site", kAccuracyTrials);
  out.Param("timed_trials_per_site", kTimedTrials);
  out.Param("threads", kThreads);
  out.Param("loop", "closed");

  const double setup_s =
      SetupSeconds(kSetupsPerBatch, [&] { return MakeLab(options.seed); });
  if (options.setup_only) {
    out.attempted = 1;
    out.Set("setup_s", setup_s);
    return out;
  }
  const Lab lab = MakeLab(options.seed);
  const std::size_t sites = lab.scenario.test_sites.size();
  out.Param("sites", sites);
  out.Param("packets_per_batch", lab.run.packets_per_batch);
  out.Param("dwell_count", lab.run.dwell_count);

  // Accuracy pass: the fixes every check and error metric uses.  It also
  // fills the trace and FFT-plan caches before anything is timed.
  std::vector<LabFix> fixes =
      MeasureLabFixes(lab, kAccuracyTrials, kThreads);
  std::uint64_t attempted = fixes.size();
  std::uint64_t failed = 0;
  for (const LabFix& fix : fixes) failed += fix.ok ? 0 : 1;

  // Timed closed loop over the accuracy set's first trials; a traced run
  // records spans in every other window, so traced and untraced windows
  // interleave.
  const CounterDelta trace_hits("channel.trace.cache.hits");
  const CounterDelta trace_misses("channel.trace.cache.misses");
  const CounterDelta plan_hits("dsp.fft.plan.hits");
  const CounterDelta plan_misses("dsp.fft.plan.misses");
  const CounterDelta fastpath("solver.fastpath_hits");
  const CounterDelta warm("solver.warm_hits");
  const CounterDelta frames("dsp.pdp.frames");
  const TimerDelta extract("dsp.pdp.extract");
  const std::vector<TimedFix> timed =
      RunClosedLoop(lab, fixes, options.seconds, options.trace);
  const double rss_peak_mb = PeakRssMb();
  const std::size_t windows = std::size_t(options.seconds / kWindowS);
  std::vector<double> window_fixes(windows, 0.0);
  std::vector<double> fix_ms, measure_us, locate_us;
  double locate_s = 0.0, cpu_s = 0.0, traced_fixes = 0.0;
  std::size_t diverged = 0;
  for (const TimedFix& fix : timed) {
    ++attempted;
    failed += fix.ok ? 0 : 1;
    diverged += fix.repeats ? 0 : 1;
    const std::size_t w = std::size_t(fix.done_s / kWindowS);
    if (w < windows) window_fixes[w] += 1.0;
    if (fix.traced) {
      measure_us.push_back(1e6 * fix.measure_s);
      locate_us.push_back(1e6 * fix.locate_s);
      locate_s += fix.locate_s;
      cpu_s += fix.cpu_s;
      traced_fixes += 1.0;
    } else {
      fix_ms.push_back(1e3 * fix.fix_s);
    }
  }
  std::vector<double> fix_rates, traced_rates;
  for (std::size_t w = 0; w < windows; ++w)
    (IsTraced(options.trace, w) ? traced_rates : fix_rates)
        .push_back(window_fixes[w] / kWindowS);
  const double frames_per_fix = Ratio(frames.Delta(), double(timed.size()));

  // --- Output checks (untimed) ---
  switch (options.corrupt) {
    case Corruption::kNone: break;
    case Corruption::kDrop: fixes.pop_back(); break;
    case Corruption::kFlip:
      fixes.front().estimate.position.x =
          FlipLowBit(fixes.front().estimate.position.x);
      break;
    case Corruption::kCount: fixes.push_back(fixes.back()); break;
  }
  out.Check(fixes.size() == sites * kAccuracyTrials,
            "paper_lab: " + std::to_string(fixes.size()) + " fixes, expected " +
                std::to_string(sites * kAccuracyTrials));
  std::vector<std::size_t> per_site(sites, 0);
  std::vector<nomloc::core::LocateRequest> requests(fixes.size());
  std::vector<nomloc::geometry::Vec2> estimates;
  std::size_t not_ok = 0;
  for (std::size_t i = 0; i < fixes.size(); ++i) {
    ++per_site[fixes[i].site];
    not_ok += fixes[i].ok ? 0 : 1;
    requests[i].anchors = fixes[i].anchors;
    estimates.push_back(fixes[i].estimate.position);
  }
  out.Check(not_ok == 0, "paper_lab: " + std::to_string(not_ok) +
                             " fixes failed to locate");
  for (std::size_t s = 0; s < sites; ++s)
    out.Check(per_site[s] == kAccuracyTrials,
              "paper_lab: site " + std::to_string(s) + " has " +
                  std::to_string(per_site[s]) + " fixes");
  auto batch = lab.engine->LocateBatch(requests, kThreads);
  out.Check(batch.ok(), "paper_lab: LocateBatch failed");
  if (batch.ok()) {
    std::size_t mismatched = 0;
    for (std::size_t i = 0; i < fixes.size(); ++i) {
      const auto& want = (*batch)[i].estimate;
      const auto& got = fixes[i].estimate;
      if (!BitsEqual(want.position.x, got.position.x) ||
          !BitsEqual(want.position.y, got.position.y) ||
          !BitsEqual(want.relaxation_cost, got.relaxation_cost) ||
          !BitsEqual(want.feasible_area_m2, got.feasible_area_m2))
        ++mismatched;
    }
    out.Check(mismatched == 0,
              "paper_lab: " + std::to_string(mismatched) +
                  " per-fix estimates differ from LocateBatch");
  }
  out.Check(diverged == 0, "paper_lab: " + std::to_string(diverged) +
                              " timed fixes differ from the accuracy set");
  const Accuracy acc = AccuracyOf(fixes, estimates, sites);
  // EXPERIMENTS.md Fig. 9: the lab nomadic deployment reaches ~1.7 m.
  out.Check(acc.median_m < 2.0, "paper_lab: median error " +
                                    std::to_string(acc.median_m) +
                                    " m is not under 2 m");

  out.attempted = attempted;
  out.failed = failed;
  if (!options.trace) {
    out.Set("setup_s", setup_s);
    out.Set("rss_peak_mb", rss_peak_mb);
    out.Set("fixes_per_s", Median(fix_rates));
    out.Set("ingest_pps", Median(fix_rates) * frames_per_fix);
    out.Set("error_median_m", acc.median_m);
    out.Set("error_p90_m", acc.p90_m);
    out.Set("slv_m2", acc.slv_m2);
    return out;
  }

  double iterations = 0.0, fallbacks = 0.0;
  for (const LabFix& fix : fixes) {
    iterations += double(fix.lp_iterations);
    fallbacks += fix.degradation != nomloc::common::DegradationLevel::kNone;
  }
  const double fixes_n = double(fixes.size());
  out.Set("failed_frac", Ratio(double(failed), double(attempted)));
  out.Set("query_p50_ms", Quantile(fix_ms, 0.5));
  out.Set("query_p90_ms", Quantile(fix_ms, 0.9));
  out.Set("query_p99_ms", Quantile(fix_ms, 0.99));
  out.Set("eval.measure_us", Median(measure_us));
  out.Set("channel.trace_hit_ratio",
          Ratio(trace_hits.Delta(), trace_hits.Delta() + trace_misses.Delta()));
  out.Set("dsp.pdp_extract_us_per_fix",
          1e6 * Ratio(extract.Seconds(), double(timed.size())));
  out.Set("dsp.fft_plan_hit_ratio",
          Ratio(plan_hits.Delta(), plan_hits.Delta() + plan_misses.Delta()));
  out.Set("core.locate_us.p50", Quantile(locate_us, 0.5));
  out.Set("core.locate_us.p99", Quantile(locate_us, 0.99));
  out.Set("lp.iterations_mean", Ratio(iterations, fixes_n));
  out.Set("localization.fallback_frac", Ratio(fallbacks, fixes_n));
  out.Set("localization.fastpath_ratio",
          Ratio(fastpath.Delta(), double(timed.size())));
  out.Set("localization.warm_ratio", Ratio(warm.Delta(), double(timed.size())));
  out.Set("loadgen.pacing_valid", 1.0);  // Closed loop: nothing to pace.
  out.Set("trace.overhead_frac",
          Ratio(Median(fix_rates), Median(traced_rates)) - 1.0);
  // Layer self times of the traced fixes: core (the Locate span) and dsp
  // (the existing dsp.pdp.extract timer, whose total over both threads is
  // shared out per fix).  Channel and eval have no timer of their own yet.
  const double dsp_s =
      traced_fixes * Ratio(extract.Seconds(), double(timed.size()));
  out.Set("trace.unattributed_frac", 1.0 - Ratio(locate_s + dsp_s, cpu_s));
  return out;
}

}  // namespace perfbench
