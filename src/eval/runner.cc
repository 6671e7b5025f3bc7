#include "eval/runner.h"

#include <algorithm>
#include <map>

#include "channel/csi_model.h"
#include "common/assert.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "localization/proximity.h"

namespace nomloc::eval {

using geometry::Vec2;

std::vector<double> RunResult::SiteMeanErrors() const {
  std::vector<double> out;
  out.reserve(sites.size());
  for (const SiteResult& s : sites) out.push_back(s.mean_error_m);
  return out;
}

double RunResult::MeanError() const {
  return common::Mean(SiteMeanErrors());
}

std::vector<double> RunResult::AllErrors() const {
  std::vector<double> out;
  for (const SiteResult& s : sites)
    out.insert(out.end(), s.trial_errors_m.begin(), s.trial_errors_m.end());
  return out;
}

namespace {

// Site set of nomadic AP k: AP 0 uses the scenario's set verbatim; extra
// nomadic APs (future-work ablation) roam the same waypoints but start
// from their own home position.
std::vector<Vec2> NomadicSitesFor(const Scenario& scenario, std::size_t k) {
  std::vector<Vec2> sites = scenario.nomadic_sites;
  if (k > 0 && k < scenario.static_aps.size())
    sites.front() = scenario.static_aps[k];
  return sites;
}

}  // namespace

common::Result<void> RunConfig::Validate() const {
  if (trials == 0) return common::InvalidArgument("trials must be >= 1");
  if (packets_per_batch == 0)
    return common::InvalidArgument("packets_per_batch must be >= 1");
  if (dwell_count == 0)
    return common::InvalidArgument("dwell_count must be >= 1");
  if (threads == 0) return common::InvalidArgument("threads must be >= 1");
  if (position_error_m < 0.0)
    return common::InvalidArgument("position_error_m must be >= 0");
  if (odometry_drift_per_m < 0.0)
    return common::InvalidArgument("odometry_drift_per_m must be >= 0");
  if (nomadic_ap_count == 0)
    return common::InvalidArgument("nomadic_ap_count must be >= 1");
  return engine.Validate();
}

common::Result<std::vector<localization::Anchor>> MeasureEpoch(
    const Scenario& scenario, const RunConfig& config, Vec2 object,
    common::Rng& rng) {
  const channel::CsiSimulator sim(scenario.env, config.channel);
  std::vector<localization::Anchor> anchors;

  // Measures one anchor: SISO batches go through the standard per-frame
  // PDP average; with rx_antennas > 1 the antennas are combined
  // non-coherently per packet first (dsp::PdpOfMimoBatch).
  auto measure_anchor = [&](Vec2 true_position, Vec2 reported_position,
                            bool is_nomadic,
                            std::size_t packets) -> localization::Anchor {
    const auto link = sim.MakeLink(object, true_position);
    localization::Anchor anchor;
    anchor.position = reported_position;
    anchor.is_nomadic_site = is_nomadic;
    if (config.channel.rx_antennas > 1) {
      const auto mimo = link.SampleMimoBatch(packets, rng);
      anchor.pdp = dsp::PdpOfMimoBatch(mimo, config.channel.bandwidth_hz,
                                       config.engine.pdp);
    } else {
      const auto frames = link.SampleBatch(packets, rng);
      anchor.pdp = dsp::PdpOfBatch(frames, config.channel.bandwidth_hz,
                                   config.engine.pdp);
    }
    return anchor;
  };

  const std::size_t nomadic_count =
      config.deployment == Deployment::kNomadic
          ? std::min(config.nomadic_ap_count, scenario.static_aps.size())
          : 0;

  // Static APs (those not roaming this epoch).  In the static deployment
  // every AP is fixed, including AP 0.
  for (std::size_t i = nomadic_count; i < scenario.static_aps.size(); ++i) {
    anchors.push_back(measure_anchor(scenario.static_aps[i],
                                     scenario.static_aps[i],
                                     /*is_nomadic=*/false,
                                     config.packets_per_batch));
  }
  for (std::size_t i = 0; i < nomadic_count; ++i) {
    // Nomadic AP i: random walk over its site set; one anchor per distinct
    // visited site, measurements accumulated across dwells at that site
    // (the paper's site set L), reported position averaged over the
    // dwells' (error-injected) reports.
    const std::vector<Vec2> sites = NomadicSitesFor(scenario, i);
    mobility::TraceConfig trace_cfg;
    trace_cfg.pattern = config.pattern;
    trace_cfg.dwell_count = config.dwell_count;
    trace_cfg.error_model = config.error_model;
    trace_cfg.position_error_m = config.position_error_m;
    trace_cfg.odometry_drift_per_m = config.odometry_drift_per_m;
    NOMLOC_ASSIGN_OR_RETURN(auto trace,
                            mobility::GenerateTrace(sites, trace_cfg, rng));

    struct SiteAgg {
      Vec2 true_position;
      Vec2 reported_sum{0.0, 0.0};
      std::size_t dwells = 0;
    };
    std::map<std::size_t, SiteAgg> per_site;
    for (const mobility::DwellRecord& rec : trace) {
      SiteAgg& agg = per_site[rec.site_index];
      agg.true_position = rec.true_position;
      agg.reported_sum += rec.reported_position;
      ++agg.dwells;
    }
    for (auto& [site_idx, agg] : per_site) {
      anchors.push_back(measure_anchor(
          agg.true_position, agg.reported_sum / double(agg.dwells),
          /*is_nomadic=*/true, config.packets_per_batch * agg.dwells));
    }
  }

  return anchors;
}

common::Result<core::LocationEstimate> LocalizeEpoch(
    const Scenario& scenario, const RunConfig& config,
    const core::NomLocEngine& engine, Vec2 object, common::Rng& rng) {
  NOMLOC_ASSIGN_OR_RETURN(auto anchors,
                          MeasureEpoch(scenario, config, object, rng));
  core::LocateRequest request;
  request.anchors = anchors;
  NOMLOC_ASSIGN_OR_RETURN(core::LocateResponse response,
                          engine.Locate(request));
  return std::move(response.estimate);
}

common::Result<RunResult> RunLocalization(const Scenario& scenario,
                                          const RunConfig& config) {
  if (auto valid = config.Validate(); !valid.ok()) return valid.status();
  core::NomLocConfig engine_cfg = config.engine;
  engine_cfg.bandwidth_hz = config.channel.bandwidth_hz;
  NOMLOC_ASSIGN_OR_RETURN(
      auto engine,
      core::NomLocEngine::Create(scenario.env.Boundary(), engine_cfg));

  const common::Rng rng(config.seed);
  const std::size_t site_count = scenario.test_sites.size();
  const std::size_t trials = config.trials;
  RunResult result;
  result.sites.resize(site_count);

  // Phase 1 — measurement.  Each site gets an independent forked RNG
  // stream, so the per-site loop parallelises with bit-identical anchors
  // for any thread count.  Epochs are indexed site-major: epoch
  // s * trials + t is trial t at site s.
  std::vector<std::vector<localization::Anchor>> epoch_anchors(site_count *
                                                               trials);
  std::vector<common::Status> site_errors(site_count);
  auto measure_site = [&](std::size_t s) {
    common::Rng site_rng = rng.Fork(s + 1);
    for (std::size_t trial = 0; trial < trials; ++trial) {
      auto anchors =
          MeasureEpoch(scenario, config, scenario.test_sites[s], site_rng);
      if (!anchors.ok()) {
        site_errors[s] = anchors.status();
        return;
      }
      epoch_anchors[s * trials + trial] = std::move(anchors).value();
    }
  };
  {
    common::StageTrace measure_trace(
        common::MetricRegistry::Global().Timer("eval.measure"));
    if (config.threads <= 1) {
      for (std::size_t s = 0; s < site_count; ++s) measure_site(s);
    } else {
      common::ThreadPool pool(config.threads);
      pool.ParallelFor(site_count, measure_site);
    }
  }
  // Deterministic error policy: the lowest-index site's failure wins.
  for (const common::Status& status : site_errors)
    if (!status.ok()) return status;

  // Phase 2 — solve.  The engine pipeline is RNG-free, so the epochs fan
  // out over the batch path with bit-identical estimates.
  std::vector<core::LocateRequest> requests(epoch_anchors.size());
  for (std::size_t i = 0; i < epoch_anchors.size(); ++i)
    requests[i].anchors = epoch_anchors[i];
  common::StageTrace solve_trace(
      common::MetricRegistry::Global().Timer("eval.solve"));
  NOMLOC_ASSIGN_OR_RETURN(auto responses,
                          engine.LocateBatch(requests, config.threads));
  solve_trace.Stop();
  common::MetricRegistry::Global().Counter("eval.epochs").Increment(
      responses.size());

  // Phase 3 — aggregate the paper's per-site metrics.
  for (std::size_t s = 0; s < site_count; ++s) {
    SiteResult& site_result = result.sites[s];
    site_result.site = scenario.test_sites[s];
    site_result.trial_errors_m.reserve(trials);
    for (std::size_t trial = 0; trial < trials; ++trial)
      site_result.trial_errors_m.push_back(
          Distance(responses[s * trials + trial].estimate.position,
                   site_result.site));
    site_result.mean_error_m = common::Mean(site_result.trial_errors_m);
  }

  result.slv =
      common::SpatialLocalizabilityVariance(result.SiteMeanErrors());
  return result;
}

common::Result<ProximityAccuracyResult> RunProximityAccuracy(
    const Scenario& scenario, const RunConfig& config) {
  if (auto valid = config.Validate(); !valid.ok()) return valid.status();
  const channel::CsiSimulator sim(scenario.env, config.channel);
  common::Rng rng(config.seed);

  ProximityAccuracyResult out;
  out.per_site_accuracy.reserve(scenario.test_sites.size());

  for (std::size_t s = 0; s < scenario.test_sites.size(); ++s) {
    const Vec2 object = scenario.test_sites[s];
    common::Rng site_rng = rng.Fork(1000 + s);
    std::size_t correct = 0, total = 0;
    for (std::size_t trial = 0; trial < config.trials; ++trial) {
      // Measure an anchor at every static AP home position (combining
      // antennas when the config has more than one).
      std::vector<localization::Anchor> anchors;
      for (const Vec2 ap : scenario.static_aps) {
        const auto link = sim.MakeLink(object, ap);
        localization::Anchor anchor;
        anchor.position = ap;
        if (config.channel.rx_antennas > 1) {
          const auto mimo =
              link.SampleMimoBatch(config.packets_per_batch, site_rng);
          anchor.pdp = dsp::PdpOfMimoBatch(mimo, config.channel.bandwidth_hz,
                                           config.engine.pdp);
        } else {
          const auto frames =
              link.SampleBatch(config.packets_per_batch, site_rng);
          anchor.pdp = dsp::PdpOfBatch(frames, config.channel.bandwidth_hz,
                                       config.engine.pdp);
        }
        anchors.push_back(anchor);
      }
      const auto judgements = localization::JudgeProximity(
          anchors, localization::PairPolicy::kAllPairs);
      for (const auto& j : judgements) {
        const double dw = Distance(object, anchors[j.winner].position);
        const double dl = Distance(object, anchors[j.loser].position);
        if (dw <= dl) ++correct;
        ++total;
      }
    }
    out.per_site_accuracy.push_back(total ? double(correct) / double(total)
                                          : 0.0);
  }
  return out;
}

}  // namespace nomloc::eval
