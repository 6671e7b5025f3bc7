// nomloc_trace — record and replay measurement campaigns.
//
//   nomloc_trace record [--scenario lab|lobby|office] [--trials N]
//                       [--packets N] [--seed N] --out FILE
//   nomloc_trace replay --in FILE [--center centroid|chebyshev|analytic]
//
// `record` runs the measurement pipeline once per test site per trial and
// archives the resulting anchors (position + PDP) with ground truth as
// JSON.  `replay` re-runs any engine configuration on the archived data —
// no channel simulation, exactly like working from a recorded CSI dataset.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "channel/csi_model.h"
#include "common/stats.h"
#include "eval/scenario.h"
#include "localization/proximity.h"
#include "net/trace_io.h"

using namespace nomloc;

namespace {

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s record [--scenario S] [--trials N] [--packets N] "
               "[--seed N] --out FILE\n"
               "       %s replay --in FILE [--center centroid|chebyshev|"
               "analytic]\n",
               argv0, argv0);
  std::exit(2);
}

int Record(int argc, char** argv) {
  std::string scenario_name = "lab", out_path;
  std::size_t trials = 3, packets = 50;
  std::uint64_t seed = 1;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--scenario") scenario_name = next();
    else if (arg == "--trials") trials = std::strtoul(next(), nullptr, 10);
    else if (arg == "--packets") packets = std::strtoul(next(), nullptr, 10);
    else if (arg == "--seed") seed = std::strtoull(next(), nullptr, 10);
    else if (arg == "--out") out_path = next();
    else Usage(argv[0]);
  }
  if (out_path.empty()) Usage(argv[0]);

  auto scenario = eval::ScenarioByName(scenario_name);
  if (!scenario.ok()) {
    std::fprintf(stderr, "error: %s\n", scenario.status().ToString().c_str());
    return 1;
  }

  const channel::CsiSimulator sim(scenario->env, {});
  common::Rng rng(seed);
  net::MeasurementTrace trace;
  trace.description = scenario_name + " campaign, " +
                      std::to_string(trials) + " trials x " +
                      std::to_string(packets) + " packets";
  for (const geometry::Vec2 site : scenario->test_sites) {
    for (std::size_t trial = 0; trial < trials; ++trial) {
      net::EpochRecord epoch;
      epoch.ground_truth = site;
      for (const geometry::Vec2 ap : scenario->static_aps) {
        const auto frames = sim.MakeLink(site, ap).SampleBatch(packets, rng);
        epoch.anchors.push_back(localization::MakeAnchor(
            ap, frames, common::kBandwidth20MHz));
      }
      trace.epochs.push_back(std::move(epoch));
    }
  }

  if (auto saved = net::SaveTraceFile(trace, out_path); !saved.ok()) {
    std::fprintf(stderr, "error: %s\n", saved.status().ToString().c_str());
    return 1;
  }
  std::printf("recorded %zu epochs (%zu anchors each) to %s\n",
              trace.epochs.size(), scenario->static_aps.size(),
              out_path.c_str());
  return 0;
}

int Replay(int argc, char** argv) {
  std::string in_path;
  localization::SpSolverOptions solver;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--in") in_path = next();
    else if (arg == "--center") {
      const std::string c = next();
      if (c == "centroid") solver.center = localization::CenterMethod::kCentroid;
      else if (c == "chebyshev")
        solver.center = localization::CenterMethod::kChebyshev;
      else if (c == "analytic")
        solver.center = localization::CenterMethod::kAnalytic;
      else Usage(argv[0]);
    } else {
      Usage(argv[0]);
    }
  }
  if (in_path.empty()) Usage(argv[0]);

  // LoadTraceFile rejects truncated/garbage files with a typed
  // kDataCorruption error naming the byte offset where parsing broke.
  auto trace = net::LoadTraceFile(in_path);
  if (!trace.ok()) {
    std::fprintf(stderr, "error: %s\n", trace.status().ToString().c_str());
    return 1;
  }

  // The replay area: the bounding box of everything in the trace, padded.
  geometry::Aabb box{{1e9, 1e9}, {-1e9, -1e9}};
  for (const auto& epoch : trace->epochs) {
    box.Expand(epoch.ground_truth);
    for (const auto& anchor : epoch.anchors) box.Expand(anchor.position);
  }
  core::NomLocConfig engine_cfg;
  engine_cfg.solver = solver;
  auto engine = core::NomLocEngine::Create(
      geometry::Polygon::Rectangle(box.lo.x - 0.5, box.lo.y - 0.5,
                                   box.hi.x + 0.5, box.hi.y + 0.5),
      engine_cfg);
  if (!engine.ok()) {
    std::fprintf(stderr, "error: %s\n", engine.status().ToString().c_str());
    return 1;
  }

  auto result = net::ReplayTrace(*trace, *engine);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("trace: %s\n", trace->description.c_str());
  std::printf("epochs: %zu\n", result->errors_m.size());
  std::printf("mean error: %.2f m | median %.2f m | 90th pct %.2f m\n",
              result->mean_error_m,
              common::Percentile(result->errors_m, 0.5),
              common::Percentile(result->errors_m, 0.9));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Usage(argv[0]);
  const std::string mode = argv[1];
  if (mode == "record") return Record(argc, argv);
  if (mode == "replay") return Replay(argc, argv);
  Usage(argv[0]);
}
