// Quickstart: locate one object in one room, end to end, in ~40 lines.
//
//   1. describe the room,
//   2. collect CSI from each AP (here: simulated by nomloc::channel —
//      on real hardware this is where your CSI extraction tool plugs in),
//   3. hand the observations to NomLocEngine.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "channel/csi_model.h"
#include "core/nomloc.h"
#include "geometry/polygon.h"

int main() {
  using namespace nomloc;

  // 1. The floor area (a 12 x 8 m room) and the AP positions.  NomLoc is
  //    calibration-free: this geometry is ALL the prior knowledge it needs.
  const geometry::Polygon room = geometry::Polygon::Rectangle(0, 0, 12, 8);
  const std::vector<geometry::Vec2> aps{{1, 1}, {11, 1}, {11, 7}, {1, 7}};

  auto engine = core::NomLocEngine::Create(room);
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 1;
  }

  // 2. One CSI batch per AP.  We simulate a person standing at (4, 3)
  //    whose phone pings the network; each AP captures 100 frames.
  auto env = channel::IndoorEnvironment::Create(room);
  const channel::CsiSimulator radio(*env, {});
  common::Rng rng(2014);
  const geometry::Vec2 person{4.0, 3.0};

  std::vector<core::ApObservation> observations;
  for (const geometry::Vec2 ap : aps) {
    core::ApObservation obs;
    obs.reported_position = ap;
    obs.frames = radio.MakeLink(person, ap).SampleBatch(100, rng);
    observations.push_back(std::move(obs));
  }

  // 3. Locate.
  core::LocateRequest request;
  request.observations = observations;
  auto located = engine->Locate(request);
  if (!located.ok()) {
    std::fprintf(stderr, "%s\n", located.status().ToString().c_str());
    return 1;
  }
  const core::LocationEstimate& estimate = located->estimate;
  std::printf("true position      : (%.2f, %.2f)\n", person.x, person.y);
  std::printf("estimated position : (%.2f, %.2f)\n", estimate.position.x,
              estimate.position.y);
  std::printf("error              : %.2f m\n",
              Distance(estimate.position, person));
  std::printf("constraints relaxed: %zu (cost %.4f)\n",
              estimate.violated_constraints, estimate.relaxation_cost);
  return 0;
}
