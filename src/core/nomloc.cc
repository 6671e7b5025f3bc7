#include "core/nomloc.h"

#include <algorithm>
#include <optional>
#include <string>
#include <thread>

#include "common/assert.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "geometry/convex_decomp.h"

namespace nomloc::core {

common::Result<void> NomLocConfig::Validate() const {
  if (bandwidth_hz <= 0.0)
    return common::InvalidArgument("bandwidth must be positive");
  if (pdp.first_path_threshold_db < 0.0)
    return common::InvalidArgument(
        "pdp.first_path_threshold_db must be >= 0");
  if (solver.boundary_weight <= 0.0)
    return common::InvalidArgument("solver.boundary_weight must be positive");
  if (solver.region_slack < 0.0)
    return common::InvalidArgument("solver.region_slack must be >= 0");
  if (solver.merge_tolerance < 0.0)
    return common::InvalidArgument("solver.merge_tolerance must be >= 0");
  return solver.fallback.Validate();
}

common::Result<NomLocEngine> NomLocEngine::Create(geometry::Polygon area,
                                                  NomLocConfig config) {
  if (auto valid = config.Validate(); !valid.ok()) return valid.status();
  NOMLOC_ASSIGN_OR_RETURN(auto parts, geometry::DecomposeConvex(area));
  return NomLocEngine(std::move(area), std::move(parts), std::move(config));
}

localization::SpSolverSession NomLocEngine::MakeSolverSession() const {
  return localization::SpSolverSession(parts_, config_.solver);
}

common::Result<LocateResponse> NomLocEngine::Locate(
    const LocateRequest& request,
    localization::SpSolverSession* session) const {
  auto& registry = common::MetricRegistry::Global();
  static auto& locate_counter = registry.Counter("engine.locates");
  static auto& extract_timer = registry.Timer("engine.extract");
  static auto& judge_timer = registry.Timer("engine.judge");
  static auto& solve_timer = registry.Timer("engine.solve");
  static auto& total_timer = registry.Timer("engine.locate");
  static auto& quarantine_counter =
      registry.Counter("engine.quarantined_observations");

  if (!request.observations.empty() && !request.anchors.empty())
    return common::InvalidArgument(
        "request carries both observations and anchors — set exactly one");

  common::StageTrace total_trace(total_timer);
  LocateResponse out;

  // Stage 1 — PDP extraction (skipped when the caller pre-extracted).
  // Extraction is hardened: corrupt observations are dropped and counted
  // (quarantine-and-continue), so one bad capture cannot poison the
  // epoch's remaining links.
  std::vector<localization::Anchor> extracted;
  std::span<const localization::Anchor> anchors = request.anchors;
  if (anchors.empty()) {
    common::StageTrace extract_trace(extract_timer);
    if (request.observations.size() < 2)
      return common::InvalidArgument("need at least two AP observations");
    extracted.reserve(request.observations.size());
    for (const ApObservation& obs : request.observations) {
      if (obs.frames.empty())
        return common::InvalidArgument("observation without CSI frames");
      auto anchor = localization::MakeAnchorChecked(
          obs.reported_position, obs.frames, config_.bandwidth_hz,
          config_.pdp, obs.is_nomadic_site);
      if (!anchor.ok()) {
        if (anchor.status().code() != common::StatusCode::kDataCorruption)
          return anchor.status();
        ++out.quarantined_observations;
        continue;
      }
      extracted.push_back(std::move(anchor).value());
    }
    anchors = extracted;
    out.timings.extract_s = extract_trace.Stop();
  } else {
    // Pre-extracted anchors get the same screen; copying only happens on
    // the (rare) corrupt path, so the healthy path stays allocation-free.
    bool any_corrupt = false;
    for (const localization::Anchor& a : anchors)
      if (!localization::ValidateAnchor(a).ok()) {
        any_corrupt = true;
        break;
      }
    if (any_corrupt) {
      for (const localization::Anchor& a : anchors) {
        if (localization::ValidateAnchor(a).ok()) {
          extracted.push_back(a);
        } else {
          ++out.quarantined_observations;
        }
      }
      anchors = extracted;
    }
  }
  if (out.quarantined_observations > 0)
    quarantine_counter.Increment(out.quarantined_observations);
  if (anchors.size() < 2) {
    if (out.quarantined_observations > 0)
      return common::DataCorruption(
          "fewer than two healthy anchors remain after quarantining " +
          std::to_string(out.quarantined_observations) + " corrupt input(s)");
    return common::InvalidArgument("need at least two anchors");
  }

  // Stage 2 — pairwise proximity judgement + half-plane constraints.
  common::StageTrace judge_trace(judge_timer);
  const auto judgements = localization::JudgeProximity(anchors);
  const auto constraints =
      localization::ProximityConstraints(anchors, judgements);
  out.timings.judge_s = judge_trace.Stop();
  if (constraints.empty())
    return common::FailedPrecondition(
        "all anchor positions coincide — no spatial information");

  // Stage 3 — relaxed LP + region center, behind the degradation ladder
  // (fallback only engages when the full solve fails or busts the
  // policy's cost budget, so healthy-path results are bit-identical to
  // plain SolveSp).
  common::StageTrace solve_trace(solve_timer);
  auto resilient_result = [&]() -> common::Result<localization::ResilientSolution> {
    if (session == nullptr)
      return localization::SolveSpResilient(parts_, anchors, constraints,
                                            config_.solver);
    NOMLOC_RETURN_IF_ERROR(session->ReplaceConstraints(constraints).status());
    return localization::SolveSpResilient(*session, anchors);
  }();
  if (!resilient_result.ok()) return resilient_result.status();
  localization::ResilientSolution& resilient = resilient_result.value();
  localization::SpSolution& sol = resilient.solution;
  out.timings.solve_s = solve_trace.Stop();
  out.degradation = resilient.level;
  out.dropped_constraints = resilient.dropped_constraints;

  out.estimate.position = sol.estimate;
  out.estimate.relaxation_cost = sol.relaxation_cost;
  out.estimate.feasible_area_m2 = sol.feasible_area_m2;
  out.estimate.violated_constraints = sol.parts[sol.best_part].violated;
  out.estimate.part_index = sol.best_part;
  out.estimate.anchors.assign(anchors.begin(), anchors.end());
  out.anchor_count = anchors.size();
  out.judgement_count = judgements.size();
  out.constraint_count = constraints.size();
  out.lp_iterations = sol.lp_iterations;
  out.timings.total_s = total_trace.Stop();
  locate_counter.Increment();
  return out;
}

common::Result<std::vector<LocateResponse>> NomLocEngine::LocateBatch(
    std::span<const LocateRequest> requests, std::size_t threads) const {
  auto& registry = common::MetricRegistry::Global();
  static auto& batch_timer = registry.Timer("engine.batch");
  static auto& batch_requests = registry.Counter("engine.batch.requests");

  common::StageTrace batch_trace(batch_timer);
  batch_requests.Increment(requests.size());
  if (threads == 0)
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  threads = std::min(threads, std::max<std::size_t>(1, requests.size()));

  // Each request is independent and the pipeline is RNG-free, so slots can
  // be filled in any order; the result only depends on the request.
  std::vector<std::optional<common::Result<LocateResponse>>> slots(
      requests.size());
  auto run_one = [&](std::size_t i) { slots[i] = Locate(requests[i]); };
  if (threads <= 1 || requests.size() <= 1) {
    for (std::size_t i = 0; i < requests.size(); ++i) run_one(i);
  } else {
    common::ThreadPool pool(threads);
    pool.ParallelFor(requests.size(), run_one);
  }

  // Deterministic error policy: the lowest-index failure wins — exactly
  // the error a serial early-exit loop would have returned.
  std::vector<LocateResponse> out;
  out.reserve(requests.size());
  for (auto& slot : slots) {
    if (!slot->ok()) return slot->status();
    out.push_back(std::move(*slot).value());
  }
  return out;
}

}  // namespace nomloc::core
