// Ablation: commodity-hardware CSI impairments (random common phase, STO
// phase slope, AGC jitter) versus NomLoc accuracy.
//
// The paper runs on Intel 5300 CSI, which carries all three impairments;
// its pipeline never needs phase calibration because the PDP is taken
// from |IFFT| and power *ratios*.  This bench injects increasing levels
// of impairment into every frame and shows the end-to-end accuracy is
// nearly flat — with and without the SpotFi-style sanitizer.
#include <cstdio>

#include "bench_util.h"
#include "channel/csi_model.h"
#include "dsp/impairments.h"

using namespace nomloc;

namespace {

// Runs Lab localization with impairments applied to every sampled frame.
common::Result<eval::RunResult> RunImpaired(
    const eval::Scenario& scenario, const eval::RunConfig& cfg,
    const dsp::ImpairmentConfig& imp, bool sanitize) {
  core::NomLocConfig engine_cfg = cfg.engine;
  engine_cfg.bandwidth_hz = cfg.channel.bandwidth_hz;
  NOMLOC_ASSIGN_OR_RETURN(
      auto engine,
      core::NomLocEngine::Create(scenario.env.Boundary(), engine_cfg));

  const channel::CsiSimulator sim(scenario.env, cfg.channel);
  common::Rng rng(cfg.seed);

  eval::RunResult result;
  for (const geometry::Vec2 site : scenario.test_sites) {
    eval::SiteResult sr;
    sr.site = site;
    for (std::size_t trial = 0; trial < cfg.trials; ++trial) {
      std::vector<core::ApObservation> obs;
      for (const geometry::Vec2 ap : scenario.static_aps) {
        core::ApObservation o;
        o.reported_position = ap;
        const auto link = sim.MakeLink(site, ap);
        for (std::size_t p = 0; p < cfg.packets_per_batch; ++p) {
          dsp::CsiFrame frame =
              dsp::ApplyImpairments(link.Sample(rng), imp, rng);
          if (sanitize) frame = dsp::SanitizePhase(frame);
          o.frames.push_back(std::move(frame));
        }
        obs.push_back(std::move(o));
      }
      core::LocateRequest request;
      request.observations = obs;
      NOMLOC_ASSIGN_OR_RETURN(auto located, engine.Locate(request));
      sr.trial_errors_m.push_back(Distance(located.estimate.position, site));
    }
    sr.mean_error_m = common::Mean(sr.trial_errors_m);
    result.sites.push_back(std::move(sr));
  }
  result.slv = common::SpatialLocalizabilityVariance(result.SiteMeanErrors());
  return result;
}

}  // namespace

int main() {
  std::printf("=== Ablation: CSI impairments (CFO/STO/AGC) ===\n\n");

  const eval::Scenario lab = eval::LabScenario();
  eval::RunConfig cfg = bench::PaperConfig(1901);
  cfg.trials = 8;
  cfg.packets_per_batch = 30;

  struct Level {
    const char* name;
    dsp::ImpairmentConfig imp;
  };
  std::vector<Level> levels;
  levels.push_back({"clean", {.random_common_phase = false,
                              .max_phase_slope_rad = 0.0,
                              .agc_jitter = 0.0}});
  levels.push_back({"phase only", {.random_common_phase = true,
                                   .max_phase_slope_rad = 0.0,
                                   .agc_jitter = 0.0}});
  levels.push_back({"phase + STO", {.random_common_phase = true,
                                    .max_phase_slope_rad = 0.2,
                                    .agc_jitter = 0.0}});
  levels.push_back({"full (incl. AGC 25%)", {.random_common_phase = true,
                                             .max_phase_slope_rad = 0.2,
                                             .agc_jitter = 0.25}});
  levels.push_back({"harsh (STO x3, AGC 60%)", {.random_common_phase = true,
                                                .max_phase_slope_rad = 0.6,
                                                .agc_jitter = 0.6}});

  std::printf("%-26s %-22s %-22s\n", "impairment level", "raw: mean / SLV",
              "sanitized: mean / SLV");
  for (const Level& level : levels) {
    auto raw = RunImpaired(lab, cfg, level.imp, /*sanitize=*/false);
    auto fixed = RunImpaired(lab, cfg, level.imp, /*sanitize=*/true);
    if (!raw.ok() || !fixed.ok()) {
      std::fprintf(stderr, "run failed at %s\n", level.name);
      return 1;
    }
    std::printf("%-26s %6.2f m / %6.3f     %6.2f m / %6.3f\n", level.name,
                raw->MeanError(), raw->slv, fixed->MeanError(), fixed->slv);
  }

  std::printf(
      "\nExpected: accuracy essentially flat through realistic impairment\n"
      "levels — the PDP consumes |IFFT| and power ratios, so common phase\n"
      "cancels exactly and STO slopes only shift the delay peak.  AGC\n"
      "jitter averages out over the batch.  Sanitization is therefore\n"
      "optional for NomLoc (unlike for phase-based AoA systems).\n");
  return 0;
}
