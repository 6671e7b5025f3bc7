// NomLocEngine — the public façade of the library.
//
// A calibration-free indoor localization engine (Xiao et al., ICDCS 2014):
// give it the floor area and one batch of CSI per AP (static APs plus
// every dwell site of the nomadic APs), and it returns the object's
// estimated position.  No fingerprint database, no propagation-model
// fitting: the only inputs besides CSI are AP coordinates and the room
// polygon.
//
// Pipeline: CSI -> IFFT -> power-of-direct-path (dsp/cir.h)
//        -> pairwise proximity + confidence (localization/proximity.h)
//        -> weighted half-plane program, relaxed LP (localization/sp_solver.h)
//        -> center of the feasible region.
//
// Typical use:
//   auto engine = core::NomLocEngine::Create(area_polygon, config);
//   core::LocateRequest request;
//   request.observations = obs;            // one per AP / dwell site
//   auto response = engine->Locate(request);
//   // response->estimate.position, response->timings.solve_s, …
//
// Batches of independent epochs fan out over a thread pool with
// bit-identical results:
//   auto responses = engine->LocateBatch(requests, /*threads=*/8);
#pragma once

#include <span>
#include <vector>

#include "channel/csi_model.h"
#include "common/degradation.h"
#include "common/status.h"
#include "dsp/cir.h"
#include "geometry/polygon.h"
#include "localization/fallback.h"
#include "localization/proximity.h"
#include "localization/sp_session.h"
#include "localization/sp_solver.h"

namespace nomloc::core {

/// One AP's contribution to a localization epoch: where the server
/// believes the AP is (for nomadic APs this may carry position error) and
/// the CSI frames it captured from the object's packets.
struct ApObservation {
  geometry::Vec2 reported_position;
  std::vector<dsp::CsiFrame> frames;
  bool is_nomadic_site = false;
};

struct NomLocConfig {
  /// Bandwidth the CSI was captured at (sets CIR tap spacing).
  double bandwidth_hz = common::kBandwidth20MHz;
  dsp::PdpOptions pdp;
  /// SP solve settings, including the degradation ladder
  /// (`solver.fallback`, localization/fallback.h).  The default ladder
  /// engages only on genuine solve failure, so healthy-input results stay
  /// bit-identical to a plain SolveSp.
  localization::SpSolverOptions solver;

  /// Typed rejection of nonsense values (non-positive bandwidth, negative
  /// thresholds/weights).  Called by NomLocEngine::Create.
  common::Result<void> Validate() const;
};

struct LocationEstimate {
  geometry::Vec2 position;
  /// Total relaxation cost w^T t of the winning convex part — a rough
  /// self-reported consistency score (0 = all judgements compatible).
  double relaxation_cost = 0.0;
  /// Area of the merged relaxed feasible cell [m^2].  Fewer constraints
  /// (e.g. under AP dropout) leave a larger cell; the serving layer turns
  /// this into a per-response confidence.
  double feasible_area_m2 = 0.0;
  std::size_t violated_constraints = 0;
  /// Index of the convex part the estimate fell in.
  std::size_t part_index = 0;
  /// The anchors (position + measured PDP) the estimate was derived from.
  std::vector<localization::Anchor> anchors;
};

/// One localization epoch for Locate.  Provide EITHER raw per-AP
/// observations (the engine extracts PDPs) OR pre-extracted anchors —
/// setting both is an error.
struct LocateRequest {
  std::span<const ApObservation> observations;
  std::span<const localization::Anchor> anchors;
};

/// Wall-clock cost of each pipeline stage of one Locate call [s].
struct StageTimings {
  double extract_s = 0.0;  ///< CSI -> CIR -> PDP anchor extraction.
  double judge_s = 0.0;    ///< Pairwise proximity + constraint assembly.
  double solve_s = 0.0;    ///< Relaxed LP + region reconstruction.
  double total_s = 0.0;
};

/// Estimate plus per-stage diagnostics for one LocateRequest.
struct LocateResponse {
  LocationEstimate estimate;
  StageTimings timings;
  std::size_t anchor_count = 0;
  std::size_t judgement_count = 0;
  std::size_t constraint_count = 0;  ///< Proximity constraints (no VAPs).
  std::size_t lp_iterations = 0;     ///< Summed over all convex parts.
  /// How far down the degradation ladder this response came from
  /// (kNone on the healthy path; the engine itself never reports
  /// kLastKnownGood — that level needs state and lives in serving).
  common::DegradationLevel degradation = common::DegradationLevel::kNone;
  /// Corrupt observations (NaN/Inf CSI, all-zero frames, non-finite
  /// positions) dropped before extraction; also counted by the
  /// `engine.quarantined_observations` counter.  The request fails with
  /// the typed kDataCorruption error only when fewer than two healthy
  /// observations remain.
  std::size_t quarantined_observations = 0;
  /// Constraints the fallback chain discarded (level >= 1 only).
  std::size_t dropped_constraints = 0;
};

class NomLocEngine {
 public:
  /// Builds an engine for the given floor area (convex or not — non-convex
  /// areas are decomposed once, here).  Validates `config`.
  static common::Result<NomLocEngine> Create(geometry::Polygon area,
                                             NomLocConfig config = {});

  /// Runs the full pipeline on one request and returns the estimate with
  /// per-stage timings and diagnostics.  Requires >= 2 observations (each
  /// with >= 1 frame) or >= 2 anchors.
  ///
  /// With a `session` (MakeSolverSession) the SP solve runs through that
  /// stateful solver instead of from scratch: the request's derived
  /// constraints replace the session's active set (ReplaceConstraints
  /// keeps unchanged ones on their warm solver rows), then the
  /// degradation ladder runs over the session.
  common::Result<LocateResponse> Locate(
      const LocateRequest& request,
      localization::SpSolverSession* session = nullptr) const;

  /// Builds a stateful solver session over this engine's convex parts,
  /// configured from `config.solver`.  Its warm fast-path / dual-simplex
  /// machinery agrees with the stateless Locate to solver tolerance.
  localization::SpSolverSession MakeSolverSession() const;

  /// Fans independent requests out over a common::ThreadPool.  The engine
  /// is const and the pipeline is RNG-free, so the responses are
  /// bit-identical to a serial Locate loop for any thread count.
  /// `threads` = 0 picks the hardware concurrency.  If any request fails,
  /// the error of the lowest-index failing request is returned (the same
  /// error a serial loop would hit first).
  common::Result<std::vector<LocateResponse>> LocateBatch(
      std::span<const LocateRequest> requests, std::size_t threads = 0) const;

  const geometry::Polygon& Area() const noexcept { return area_; }
  std::span<const geometry::Polygon> Parts() const noexcept { return parts_; }
  const NomLocConfig& Config() const noexcept { return config_; }

 private:
  NomLocEngine(geometry::Polygon area, std::vector<geometry::Polygon> parts,
               NomLocConfig config)
      : area_(std::move(area)),
        parts_(std::move(parts)),
        config_(std::move(config)) {}

  geometry::Polygon area_;
  std::vector<geometry::Polygon> parts_;
  NomLocConfig config_;
};

}  // namespace nomloc::core
