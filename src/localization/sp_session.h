// Stateful SP solving — the streaming counterpart of SolveSp.
//
// Batch SolveSp rebuilds and re-solves the whole relaxation program (Eq.
// 19) every call, but a tracked object's constraint set barely changes
// between fixes: one nomadic-AP judgement *adds* a few half-planes and
// time-decay *retires* a few old ones.  An SpSolverSession is constructed
// once per (object, floor-part-set), receives those deltas, and carries
// solver state across Solve() calls:
//
//   * Geometric fast path — while every active constraint can be
//     satisfied, the LP optimum is exactly 0, so the session just clips
//     the cached feasible polygon by the new half-planes and returns its
//     center.  No LP at all.  (solver.fastpath_hits)
//   * Dual-simplex deltas — once the constraints conflict, the session
//     keeps a lp::RelaxationSolver alive: added rows enter with their
//     slack basic and are re-optimized from the previous basis, retired
//     rows are deactivated by a rhs push.  (solver.warm_hits)
//
// Equivalence contract (enforced by the equivalence suite): every Solve()
// agrees with SolveSp on the active constraint set to solver tolerance.
// Callers that need bit-identity with the batch engine solve statelessly
// instead (ServingConfig::solver_mode = kColdEachSolve).
//
// Not thread-safe — one session per object, accessed from one thread at a
// time (the serving layer's per-object FIFO guarantees this).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "geometry/polygon.h"
#include "localization/constraints.h"
#include "localization/sp_solver.h"
#include "lp/incremental.h"

namespace nomloc::localization {

class SpSolverSession {
 public:
  /// Stable handle for one added constraint.  Ids are assigned
  /// consecutively from 0 in AddConstraints order and never reused.
  using ConstraintId = std::size_t;

  /// Builds a session over the convex parts of one floor area.  The part
  /// list is fixed for the session's lifetime (a changed floor plan is a
  /// new session).  Invalid input (no parts, non-convex part) surfaces as
  /// an error from the first Solve(), mirroring SolveSp.
  explicit SpSolverSession(std::vector<geometry::Polygon> parts,
                           const SpSolverOptions& options = {});

  /// Appends proximity constraints; returns the id of the first one (the
  /// rest follow consecutively).  Boundary VAP constraints are the
  /// session's own business — like SolveSpPart, it derives them from each
  /// part — so `is_boundary` constraints are rejected here.
  common::Result<ConstraintId> AddConstraints(
      std::span<const SpConstraint> constraints);

  /// Retires constraints by id.  Decaying an already-retired id is a
  /// no-op; an id never handed out is an error.
  common::Result<void> DecayConstraints(std::span<const ConstraintId> ids);

  /// Declarative alternative to Add/Decay for callers that re-derive the
  /// full constraint set each update (the serving layer): diffs `desired`
  /// against the active set by value, adds the new ones and decays the
  /// missing ones.  Unchanged constraints keep their ids and their warm
  /// solver rows.
  common::Result<void> ReplaceConstraints(
      std::span<const SpConstraint> desired);

  /// Drops every constraint and all cached solver state; part geometry
  /// and options survive.  Ids restart from 0.
  void Clear();

  /// Estimate over the current active set, through the fast path or the
  /// warm LP described above.  Requires >= 1 active constraint.
  common::Result<SpSolution> Solve();

  std::span<const geometry::Polygon> parts() const noexcept { return parts_; }
  const SpSolverOptions& options() const noexcept { return options_; }
  std::size_t ActiveConstraintCount() const noexcept { return active_count_; }
  /// Total constraints ever added (== the next id to be handed out).
  std::size_t ConstraintCount() const noexcept { return id_to_slot_.size(); }
  /// The active constraints in id order, as originally passed in —
  /// exactly what a from-scratch SolveSp over this session would receive.
  std::vector<SpConstraint> ActiveConstraints() const;

 private:
  struct PartState {
    std::vector<SpConstraint> boundary;  ///< Normalized VAPs, fixed.
    // Geometric fast path: the part clipped by the active exact planes
    // (feasibility witness) and by the slack-relaxed planes (the region
    // the estimate comes from).  `geo_valid` means the loops reflect the
    // active set; `geo_feasible` that the exact loop clears
    // fastpath_min_area.
    std::vector<geometry::Vec2> exact_loop;
    std::vector<geometry::Vec2> region_loop;
    bool geo_valid = false;
    bool geo_feasible = false;
    std::size_t geo_synced = 0;  ///< Prox ids folded into the loops.

    // Warm LP state: rows are [boundary..., prox...]; row_of_id maps a
    // constraint slot to its RelaxationSolver row.
    lp::RelaxationSolver lp;
    std::vector<std::size_t> row_of_id;
    std::size_t lp_adds_synced = 0;    ///< Prox slots appended to `lp`.
    std::size_t lp_decays_synced = 0;  ///< Prefix of decay_log_ applied.
    bool lp_ready = false;
  };

  common::Result<SpPartSolution> SolvePartIncremental(std::size_t part_idx);
  common::Result<SpPartSolution> SolvePartLp(std::size_t part_idx);
  /// Rebuilds a part's fast-path loops from scratch over the active set.
  void RebuildGeometry(PartState& ps, const geometry::Polygon& part);
  /// Folds prox slots [ps.geo_synced, slot count) into valid loops.
  void AdvanceGeometry(PartState& ps);
  /// Drops retired slots so per-solve loops stay O(active), remapping
  /// live external ids in place.  Resets per-part caches (the next solve
  /// of each part rebuilds cold).  Runs from Solve() once retired slots
  /// outnumber a multiple of the live set.
  void CompactSlots();

  std::vector<geometry::Polygon> parts_;
  SpSolverOptions options_;
  common::Status init_status_;  ///< Part validation, reported by Solve().

  // Constraint storage is slot-dense: external ConstraintIds (stable,
  // never reused) map through id_to_slot_ so retired constraints can be
  // garbage-collected without invalidating handles — a long-lived
  // streaming session must not grow its per-solve loops with every
  // constraint it has EVER seen, only with the live set.
  std::vector<SpConstraint> constraints_;  ///< By slot, as passed in.
  std::vector<SpConstraint> normalized_;   ///< By slot, unit normals.
  std::vector<bool> active_;               ///< By slot.
  std::size_t active_count_ = 0;
  std::vector<std::size_t> decay_log_;     ///< Slots in decay order.
  std::vector<std::size_t> id_to_slot_;    ///< By id; kNpos once compacted.
  std::vector<ConstraintId> slot_to_id_;   ///< By slot.

  std::vector<PartState> part_states_;
  std::vector<geometry::Vec2> clip_scratch_;  ///< Clip double-buffer.
  bool dirty_ = true;
  common::Result<SpSolution> cached_ = common::FailedPrecondition(
      "SpSolverSession::Solve never ran");
};

}  // namespace nomloc::localization
