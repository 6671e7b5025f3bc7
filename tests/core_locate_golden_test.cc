// The default locate path must keep every output bit.
//
// The arrays in core_locate_goldens.inc are raw IEEE-754 bit patterns of
// the estimate's x, y, relaxation cost and feasible area, followed by the
// LP iteration count, captured with SIMD dispatch forced to the scalar
// table.  Two paths are pinned:
//   * the stateless NomLocEngine::Locate over 20 measured lab epochs;
//   * the serving layer's incremental solver session (one warm
//     SpSolverSession per object) tracking one object across the same
//     epochs, so anchors age out and constraints are replaced between
//     solves.
// A refactor of the core -> localization -> lp stack that changes any of
// these bits changes what users see; it must not pass silently.
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/nomloc.h"
#include "eval/runner.h"
#include "eval/scenario.h"
#include "gtest/gtest.h"
#include "localization/sp_session.h"
#include "serving/clock.h"
#include "serving/service.h"
#include "simd/dispatch.h"

namespace nomloc {
namespace {

#include "core_locate_goldens.inc"

class CoreLocateGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override { simd::ForceTarget(simd::Target::kScalar); }
  void TearDown() override { simd::ForceTarget(simd::ResolveTarget()); }
};

// Five values per solve: x, y, relaxation cost and feasible area as bit
// patterns, then the LP iteration count.
void Record(const core::LocationEstimate& estimate, std::size_t lp_iterations,
            std::vector<std::uint64_t>& out) {
  out.push_back(std::bit_cast<std::uint64_t>(estimate.position.x));
  out.push_back(std::bit_cast<std::uint64_t>(estimate.position.y));
  out.push_back(std::bit_cast<std::uint64_t>(estimate.relaxation_cost));
  out.push_back(std::bit_cast<std::uint64_t>(estimate.feasible_area_m2));
  out.push_back(lp_iterations);
}

void ExpectBits(std::span<const std::uint64_t> got,
                std::span<const std::uint64_t> want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], want[i]) << "solve " << i / 5 << " field " << i % 5;
}

// Two passes over the lab's 10 test sites on one seeded stream.
std::vector<std::vector<localization::Anchor>> LabEpochs(
    const eval::Scenario& lab) {
  eval::RunConfig config;
  config.packets_per_batch = 10;
  common::Rng rng(0x901d);
  std::vector<std::vector<localization::Anchor>> epochs;
  for (int pass = 0; pass < 2; ++pass) {
    for (geometry::Vec2 site : lab.test_sites) {
      auto anchors = eval::MeasureEpoch(lab, config, site, rng);
      EXPECT_TRUE(anchors.ok()) << anchors.status().ToString();
      if (anchors.ok()) epochs.push_back(std::move(*anchors));
    }
  }
  return epochs;
}

core::NomLocEngine LabEngine(const eval::Scenario& lab) {
  core::NomLocConfig config;
  config.bandwidth_hz = eval::RunConfig{}.channel.bandwidth_hz;
  auto engine = core::NomLocEngine::Create(lab.env.Boundary(), config);
  EXPECT_TRUE(engine.ok());
  return std::move(*engine);
}

TEST_F(CoreLocateGoldenTest, StatelessLocateMatchesGoldenBits) {
  const eval::Scenario lab = eval::LabScenario();
  const core::NomLocEngine engine = LabEngine(lab);
  std::vector<std::uint64_t> got;
  for (const auto& anchors : LabEpochs(lab)) {
    core::LocateRequest request;
    request.anchors = anchors;
    auto response = engine.Locate(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    Record(response->estimate, response->lp_iterations, got);
  }
  ExpectBits(got, kGoldenStatelessLocate);
}

TEST_F(CoreLocateGoldenTest, IncrementalSessionMatchesGoldenBits) {
  const eval::Scenario lab = eval::LabScenario();
  const core::NomLocEngine engine = LabEngine(lab);
  serving::ServingConfig config;
  config.workers = 1;
  config.solver_mode = localization::SpSessionMode::kIncremental;
  serving::ManualClock clock;
  auto service = serving::StreamingLocalizer::Create(engine, config, &clock);
  ASSERT_TRUE(service.ok());

  // One object walks the epochs 10 s apart: with the 30 s anchor TTL its
  // session holds the last three epochs' reports, so every query replaces
  // part of the warm session's constraint set.
  constexpr std::uint64_t kObject = 7;
  std::vector<std::uint64_t> got;
  double t = 0.0;
  for (const auto& anchors : LabEpochs(lab)) {
    clock.Set(t);
    for (std::size_t a = 0; a < anchors.size(); ++a) {
      serving::IngestPacket p;
      p.object_id = kObject;
      p.ap_id = int(a);
      p.is_nomadic = anchors[a].is_nomadic_site;
      p.reported_position = anchors[a].position;
      p.pdp = anchors[a].pdp;
      p.timestamp_s = t;
      ASSERT_EQ((*service)->Ingest(p), serving::AdmitStatus::kAccepted);
    }
    serving::IngestPacket query;
    query.kind = serving::PacketKind::kQuery;
    query.object_id = kObject;
    query.timestamp_s = t;
    ASSERT_EQ((*service)->Ingest(query), serving::AdmitStatus::kAccepted);
    (*service)->Flush();
    auto responses = (*service)->TakeResponses();
    ASSERT_EQ(responses.size(), 1u);
    ASSERT_EQ(responses[0].status, serving::ServeStatus::kOk);

    // The served query left the object's session clean, so Solve() hands
    // back that query's cached solution (and its LP iteration count).
    auto session = (*service)->Store().SolverSession(
        kObject, [] { return std::shared_ptr<localization::SpSolverSession>(); });
    ASSERT_NE(session, nullptr);
    auto solved = session->Solve();
    ASSERT_TRUE(solved.ok());
    Record(responses[0].estimate, solved->lp_iterations, got);
    t += 10.0;
  }
  ExpectBits(got, kGoldenIncrementalSession);
}

}  // namespace
}  // namespace nomloc
