// Ablation: NomLoc's calibration-free SP method versus classic baselines —
// log-distance ranging + trilateration (FILA-style, *requires calibration*,
// which we grant it for free from ground-truth sampling), power-weighted
// centroid, and nearest-AP snapping.  All methods consume exactly the same
// static-deployment PDP measurements.
#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "channel/csi_model.h"
#include "localization/baselines.h"
#include "localization/sequence.h"

using namespace nomloc;

namespace {

struct MethodErrors {
  std::vector<double> nomloc, nomloc_nomadic, sequence, trilat, centroid,
      nearest;
};

// Calibrates the ranging model the way a surveyor would: LOS sample links
// at known distances inside the scenario.
common::Result<localization::RangingModel> Calibrate(
    const eval::Scenario& scenario, const eval::RunConfig& cfg,
    common::Rng& rng) {
  const channel::CsiSimulator sim(scenario.env, cfg.channel);
  std::vector<std::pair<double, double>> pairs;
  const geometry::Vec2 ref = scenario.static_aps[0];
  for (double d = 1.0; d <= 6.0; d += 1.0) {
    const geometry::Vec2 p{ref.x + d, ref.y + 0.3};
    if (!scenario.env.IsFreeSpace(p)) continue;
    const auto frames =
        sim.MakeLink(p, ref).SampleBatch(cfg.packets_per_batch, rng);
    pairs.emplace_back(d, dsp::PdpOfBatch(frames, cfg.channel.bandwidth_hz,
                                          cfg.engine.pdp));
  }
  return localization::FitRangingModel(pairs);
}

}  // namespace

int main() {
  std::printf("=== Ablation: NomLoc vs classic baselines ===\n\n");

  for (const eval::Scenario& scenario :
       {eval::LabScenario(), eval::LobbyScenario()}) {
    eval::RunConfig cfg = bench::PaperConfig(1701);
    cfg.deployment = eval::Deployment::kStatic;  // Same data for everyone.

    core::NomLocConfig engine_cfg = cfg.engine;
    engine_cfg.bandwidth_hz = cfg.channel.bandwidth_hz;
    auto engine =
        core::NomLocEngine::Create(scenario.env.Boundary(), engine_cfg);
    if (!engine.ok()) return 1;

    common::Rng rng(cfg.seed);
    auto model = Calibrate(scenario, cfg, rng);
    if (!model.ok()) {
      std::fprintf(stderr, "calibration failed: %s\n",
                   model.status().ToString().c_str());
      return 1;
    }

    const channel::CsiSimulator sim(scenario.env, cfg.channel);
    MethodErrors errors;
    const geometry::Vec2 room_center =
        scenario.env.Boundary().BoundingBox().Center();

    for (const geometry::Vec2 site : scenario.test_sites) {
      for (std::size_t trial = 0; trial < cfg.trials; ++trial) {
        std::vector<localization::Anchor> anchors;
        for (const geometry::Vec2 ap : scenario.static_aps) {
          const auto frames =
              sim.MakeLink(site, ap).SampleBatch(cfg.packets_per_batch, rng);
          anchors.push_back(localization::MakeAnchor(
              ap, frames, cfg.channel.bandwidth_hz, cfg.engine.pdp));
        }
        core::LocateRequest request;
        request.anchors = anchors;
        auto sp = engine->Locate(request);
        if (sp.ok())
          errors.nomloc.push_back(Distance(sp->estimate.position, site));
        auto tri =
            localization::Trilaterate(anchors, *model, room_center);
        if (tri.ok()) {
          // NLOS-corrupted ranges can push Gauss-Newton far outside the
          // venue; clamp to the floor's bounding box as any deployed
          // system would.
          const geometry::Aabb box =
              scenario.env.Boundary().BoundingBox();
          geometry::Vec2 p = *tri;
          p.x = std::clamp(p.x, box.lo.x, box.hi.x);
          p.y = std::clamp(p.y, box.lo.y, box.hi.y);
          errors.trilat.push_back(Distance(p, site));
        }
        auto seq = localization::SequenceLocalize(scenario.env.Boundary(),
                                                  anchors, {});
        if (seq.ok()) errors.sequence.push_back(Distance(*seq, site));
        errors.centroid.push_back(
            Distance(localization::WeightedCentroid(anchors), site));
        errors.nearest.push_back(
            Distance(localization::NearestAnchor(anchors), site));

        // The full NomLoc configuration (nomadic AP roaming) for context.
        eval::RunConfig nomadic_cfg = cfg;
        nomadic_cfg.deployment = eval::Deployment::kNomadic;
        auto full = eval::LocalizeEpoch(scenario, nomadic_cfg, *engine, site,
                                        rng);
        if (full.ok())
          errors.nomloc_nomadic.push_back(Distance(full->position, site));
      }
    }

    std::printf("%s (static deployment, 4 APs):\n", scenario.name.c_str());
    std::printf("  %-28s %-12s %-12s\n", "method", "mean error", "90th pct");
    const struct {
      const char* name;
      const std::vector<double>* errs;
    } rows[] = {{"SP, static APs only", &errors.nomloc},
                {"SP + nomadic AP (NomLoc)", &errors.nomloc_nomadic},
                {"sequence-based [ref 2]", &errors.sequence},
                {"trilateration (calibrated)", &errors.trilat},
                {"weighted centroid", &errors.centroid},
                {"nearest AP", &errors.nearest}};
    for (const auto& row : rows) {
      if (row.errs->empty()) {
        std::printf("  %-28s %10s\n", row.name, "n/a");
        continue;
      }
      std::printf("  %-28s %8.2f m %9.2f m\n", row.name,
                  common::Mean(*row.errs),
                  common::Percentile(*row.errs, 0.9));
    }
    std::printf("\n");
  }

  std::printf(
      "Expected: with static APs alone, SP trades blows with calibrated\n"
      "trilateration and the centre-biased weighted centroid; the point of\n"
      "NomLoc is the nomadic row — the SP method is the one that converts\n"
      "extra anchor sites into accuracy without any calibration, while\n"
      "ranging needs a survey and still blows up under NLOS (clamped\n"
      "here), and nearest-AP snapping trails everything.\n");
  return 0;
}
