#include "localization/sp_session.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <utility>

#include "common/assert.h"
#include "common/metrics.h"
#include "geometry/halfplane.h"
#include "localization/sp_detail.h"

namespace nomloc::localization {

using geometry::HalfPlane;
using geometry::Polygon;
using geometry::Vec2;

namespace {

constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();

// Once this many retired phantom rows pile up beyond the live ones, the
// warm tableau is rebuilt from the active set (a single-phase primal
// solve) instead of dragging dead rows through every pivot.
constexpr std::size_t kCompactionSlack = 32;

// Dual-simplex deltas only pay off while the update is small: every
// changed row costs a couple of pivots on the full (phantom-laden)
// tableau, while a fresh single-phase Reset over the live rows is cheap
// and leaves a lean tableau behind.  Re-factorize once the pending update
// exceeds this fraction of the live rows (denominator).
constexpr std::size_t kWarmDeltaDenom = 4;

common::MetricCounter& FastpathHits() {
  static auto& c =
      common::MetricRegistry::Global().Counter("solver.fastpath_hits");
  return c;
}
common::MetricCounter& WarmHits() {
  static auto& c =
      common::MetricRegistry::Global().Counter("solver.warm_hits");
  return c;
}
common::MetricCounter& ColdSolves() {
  static auto& c =
      common::MetricRegistry::Global().Counter("solver.cold_solves");
  return c;
}
common::MetricCounter& LpFallbacks() {
  static auto& c =
      common::MetricRegistry::Global().Counter("solver.lp_fallback");
  return c;
}

common::Result<void> ValidateConstraint(const SpConstraint& sc) {
  if (!std::isfinite(sc.half_plane.a.x) || !std::isfinite(sc.half_plane.a.y) ||
      !std::isfinite(sc.half_plane.c) || !std::isfinite(sc.weight))
    return common::InvalidArgument("non-finite constraint");
  if (sc.half_plane.a.x == 0.0 && sc.half_plane.a.y == 0.0)
    return common::InvalidArgument("constraint with zero normal");
  if (sc.weight < 0.0)
    return common::InvalidArgument("constraint weight must be >= 0");
  if (sc.is_boundary)
    return common::InvalidArgument(
        "sessions derive boundary constraints internally; pass proximity "
        "constraints only");
  return {};
}

double LoopArea(std::span<const Vec2> loop) {
  return loop.size() >= 3 ? std::abs(geometry::SignedArea(loop)) : 0.0;
}

}  // namespace

SpSolverSession::SpSolverSession(std::vector<Polygon> parts,
                                 const SpSolverOptions& options)
    : parts_(std::move(parts)), options_(options) {
  if (parts_.empty()) {
    init_status_ = common::InvalidArgument("no area parts");
    return;
  }
  for (const Polygon& part : parts_) {
    if (!part.IsConvex()) {
      init_status_ = common::InvalidArgument("SolveSpPart needs a convex part");
      return;
    }
  }
  part_states_.resize(parts_.size());
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    PartState& ps = part_states_[i];
    ps.boundary = BoundaryConstraints(parts_[i], parts_[i].Centroid(),
                                      options_.boundary_weight);
    for (SpConstraint& sc : ps.boundary)
      sc.half_plane = sc.half_plane.Normalized();
  }
}

common::Result<SpSolverSession::ConstraintId> SpSolverSession::AddConstraints(
    std::span<const SpConstraint> constraints) {
  if (!init_status_.ok()) return init_status_;
  if (constraints.empty())
    return common::InvalidArgument("AddConstraints needs >= 1 constraint");
  for (const SpConstraint& sc : constraints)
    NOMLOC_RETURN_IF_ERROR(ValidateConstraint(sc).status());

  const ConstraintId first = id_to_slot_.size();
  for (const SpConstraint& sc : constraints) {
    id_to_slot_.push_back(constraints_.size());
    slot_to_id_.push_back(id_to_slot_.size() - 1);
    constraints_.push_back(sc);
    SpConstraint normalized = sc;
    normalized.half_plane = normalized.half_plane.Normalized();
    normalized_.push_back(normalized);
    active_.push_back(true);
  }
  active_count_ += constraints.size();
  dirty_ = true;
  return first;
}

common::Result<void> SpSolverSession::DecayConstraints(
    std::span<const ConstraintId> ids) {
  if (!init_status_.ok()) return init_status_;
  for (ConstraintId id : ids)
    if (id >= id_to_slot_.size())
      return common::InvalidArgument("DecayConstraints: unknown id");
  bool changed = false;
  for (ConstraintId id : ids) {
    const std::size_t slot = id_to_slot_[id];
    if (slot == kNpos || !active_[slot]) continue;  // Retired: no-op.
    active_[slot] = false;
    --active_count_;
    decay_log_.push_back(slot);
    changed = true;
  }
  if (!changed) return {};
  dirty_ = true;
  // Retiring a constraint can only grow the feasible region, so cached
  // clipped loops are stale (they may be too small).  Rebuild lazily.
  for (PartState& ps : part_states_) ps.geo_valid = false;
  return {};
}

common::Result<void> SpSolverSession::ReplaceConstraints(
    std::span<const SpConstraint> desired) {
  if (!init_status_.ok()) return init_status_;
  for (const SpConstraint& sc : desired)
    NOMLOC_RETURN_IF_ERROR(ValidateConstraint(sc).status());

  // Value-match desired constraints against the active set so unchanged
  // ones keep their ids (and their warm solver rows).  Exact double
  // comparison is deliberate: the serving layer re-derives constraints
  // from the same anchors, so unchanged inputs reproduce unchanged bits.
  // Matching is sort-based (this runs once per streaming update): both
  // sides are sorted by value with ids breaking ties, so a matched
  // duplicate always keeps its lowest live id.
  using Key = std::tuple<double, double, double, double>;
  const auto key_of = [](const SpConstraint& sc) {
    return Key{sc.half_plane.a.x, sc.half_plane.a.y, sc.half_plane.c,
               sc.weight};
  };
  std::vector<std::pair<Key, ConstraintId>> pool;
  pool.reserve(active_count_);
  for (std::size_t slot = 0; slot < constraints_.size(); ++slot)
    if (active_[slot])
      pool.emplace_back(key_of(constraints_[slot]), slot_to_id_[slot]);
  std::sort(pool.begin(), pool.end());
  std::vector<std::pair<Key, std::size_t>> wanted;
  wanted.reserve(desired.size());
  for (std::size_t i = 0; i < desired.size(); ++i)
    wanted.emplace_back(key_of(desired[i]), i);
  std::sort(wanted.begin(), wanted.end());

  std::vector<char> matched_desired(desired.size(), 0);
  std::vector<ConstraintId> to_decay;
  std::size_t w = 0;
  for (const auto& [key, id] : pool) {
    while (w < wanted.size() && wanted[w].first < key) ++w;
    if (w < wanted.size() && wanted[w].first == key) {
      matched_desired[wanted[w].second] = 1;
      ++w;
    } else {
      to_decay.push_back(id);
    }
  }
  std::sort(to_decay.begin(), to_decay.end());
  std::vector<SpConstraint> to_add;
  for (std::size_t i = 0; i < desired.size(); ++i)
    if (!matched_desired[i]) to_add.push_back(desired[i]);

  if (!to_decay.empty()) NOMLOC_RETURN_IF_ERROR(
      DecayConstraints(to_decay).status());
  if (!to_add.empty()) {
    auto first = AddConstraints(to_add);
    if (!first.ok()) return first.status();
  }
  return {};
}

void SpSolverSession::Clear() {
  constraints_.clear();
  normalized_.clear();
  active_.clear();
  active_count_ = 0;
  decay_log_.clear();
  id_to_slot_.clear();
  slot_to_id_.clear();
  for (PartState& ps : part_states_) {
    ps.geo_valid = false;
    ps.geo_feasible = false;
    ps.geo_synced = 0;
    ps.lp_ready = false;
    ps.lp_adds_synced = 0;
    ps.lp_decays_synced = 0;
    ps.row_of_id.clear();
  }
  dirty_ = true;
}

std::vector<SpConstraint> SpSolverSession::ActiveConstraints() const {
  std::vector<SpConstraint> out;
  out.reserve(active_count_);
  for (std::size_t slot = 0; slot < constraints_.size(); ++slot)
    if (active_[slot]) out.push_back(constraints_[slot]);
  return out;
}

void SpSolverSession::CompactSlots() {
  if (constraints_.size() == active_count_) return;
  // Stale handles of dead slots must resolve to "retired", not alias a
  // compacted slot.
  for (std::size_t slot = 0; slot < constraints_.size(); ++slot)
    if (!active_[slot]) id_to_slot_[slot_to_id_[slot]] = kNpos;
  std::size_t live = 0;
  for (std::size_t slot = 0; slot < constraints_.size(); ++slot) {
    if (!active_[slot]) continue;
    constraints_[live] = constraints_[slot];
    normalized_[live] = normalized_[slot];
    slot_to_id_[live] = slot_to_id_[slot];
    id_to_slot_[slot_to_id_[live]] = live;
    ++live;
  }
  constraints_.resize(live);
  normalized_.resize(live);
  slot_to_id_.resize(live);
  active_.assign(live, true);
  decay_log_.clear();
  for (PartState& ps : part_states_) {
    // Slot numbering changed under every cache: rebuild cold next solve.
    // This also re-opens the geometric fast path for a part that was
    // parked in the warm-LP regime after its stream turned consistent.
    ps.geo_valid = false;
    ps.geo_synced = 0;
    ps.lp_ready = false;
    ps.lp_adds_synced = 0;
    ps.lp_decays_synced = 0;
    ps.row_of_id.clear();
  }
}

void SpSolverSession::RebuildGeometry(PartState& ps, const Polygon& part) {
  ps.exact_loop.assign(part.Vertices().begin(), part.Vertices().end());
  ps.region_loop = ps.exact_loop;
  ps.geo_feasible = true;
  for (std::size_t slot = 0; slot < constraints_.size(); ++slot) {
    if (!active_[slot]) continue;
    const HalfPlane& hp = normalized_[slot].half_plane;
    geometry::ClipLoopInto(ps.exact_loop, hp, clip_scratch_);
    std::swap(ps.exact_loop, clip_scratch_);
    geometry::ClipLoopInto(ps.region_loop,
                           hp.Relaxed(options_.region_slack), clip_scratch_);
    std::swap(ps.region_loop, clip_scratch_);
    if (ps.exact_loop.size() < 3) {
      ps.geo_feasible = false;
      break;
    }
  }
  if (ps.geo_feasible &&
      LoopArea(ps.exact_loop) < options_.fastpath_min_area)
    ps.geo_feasible = false;
  ps.geo_valid = true;
  ps.geo_synced = constraints_.size();
}

void SpSolverSession::AdvanceGeometry(PartState& ps) {
  for (std::size_t slot = ps.geo_synced; slot < constraints_.size();
       ++slot) {
    if (!active_[slot] || !ps.geo_feasible) continue;
    const HalfPlane& hp = normalized_[slot].half_plane;
    geometry::ClipLoopInto(ps.exact_loop, hp, clip_scratch_);
    std::swap(ps.exact_loop, clip_scratch_);
    geometry::ClipLoopInto(ps.region_loop,
                           hp.Relaxed(options_.region_slack), clip_scratch_);
    std::swap(ps.region_loop, clip_scratch_);
    if (ps.exact_loop.size() < 3 ||
        LoopArea(ps.exact_loop) < options_.fastpath_min_area)
      ps.geo_feasible = false;
  }
  ps.geo_synced = constraints_.size();
}

common::Result<SpPartSolution> SpSolverSession::SolvePartIncremental(
    std::size_t part_idx) {
  PartState& ps = part_states_[part_idx];
  const Polygon& part = parts_[part_idx];
  if (!ps.geo_valid) {
    // A decay invalidated the cached loops.  If a warm basis is alive the
    // part was already in the LP regime, and a full geometric rebuild would
    // only re-discover that before ReconstructPart clips the region anyway:
    // feed the delta straight to the warm solver instead.  (ReconstructPart
    // reproduces the batch result for feasible sets too — all t stay 0 — so
    // skipping the probe never changes the answer, only who computes it.)
    if (ps.lp_ready) return SolvePartLp(part_idx);
    RebuildGeometry(ps, part);
  } else {
    AdvanceGeometry(ps);
  }

  if (ps.geo_feasible) {
    // Geometric fast path: every active constraint is satisfiable, so the
    // LP optimum is exactly 0 and the batch reconstruction would keep all
    // of them — which is precisely the cached region_loop.
    FastpathHits().Increment();
    ps.lp_ready = false;  // The basis is no longer maintained.
    SpPartSolution out;
    if (ps.region_loop.size() >= 3) out.region = ps.region_loop;
    std::vector<HalfPlane> kept;
    kept.reserve(active_count_);
    for (std::size_t slot = 0; slot < constraints_.size(); ++slot)
      if (active_[slot])
        kept.push_back(
            normalized_[slot].half_plane.Relaxed(options_.region_slack));
    const Vec2 lp_point = ps.region_loop.size() >= 3
                              ? geometry::LoopCentroid(ps.region_loop)
                              : part.Centroid();
    NOMLOC_ASSIGN_OR_RETURN(
        out.estimate,
        detail::RegionCenter(part, kept, out.region, lp_point, options_));
    return out;
  }
  return SolvePartLp(part_idx);
}

common::Result<SpPartSolution> SpSolverSession::SolvePartLp(
    std::size_t part_idx) {
  PartState& ps = part_states_[part_idx];
  const Polygon& part = parts_[part_idx];
  const std::size_t nb = ps.boundary.size();
  using Term = lp::RelaxationSolver::Term;
  const auto term_of = [](const SpConstraint& sc) {
    return Term{sc.half_plane.a.x, sc.half_plane.a.y, sc.half_plane.c,
                sc.weight};
  };

  // Re-factorize (fresh single-phase Reset over the live set) instead of
  // warm dual deltas when the basis drags too many retired phantom rows,
  // or when the pending update is large enough that delta pivots on the
  // full tableau would cost more than the rebuild.
  if (ps.lp_ready) {
    const std::size_t pending =
        (constraints_.size() - ps.lp_adds_synced) +
        (decay_log_.size() - ps.lp_decays_synced);
    const std::size_t phantom_slack =
        std::max<std::size_t>(8, ps.lp.ActiveRows() / kWarmDeltaDenom);
    if (ps.lp.DeactivatedRows() > std::min(phantom_slack, kCompactionSlack) ||
        pending * kWarmDeltaDenom > ps.lp.ActiveRows())
      ps.lp_ready = false;
  }

  common::Result<void> solve_status;
  if (!ps.lp_ready) {
    // Cold build: boundary rows first (they never retire, so they survive
    // every compaction in place), then the active proximity rows.
    std::vector<Term> terms;
    terms.reserve(nb + active_count_);
    for (const SpConstraint& sc : ps.boundary) terms.push_back(term_of(sc));
    ps.row_of_id.assign(constraints_.size(), kNpos);
    for (std::size_t slot = 0; slot < constraints_.size(); ++slot) {
      if (!active_[slot]) continue;
      ps.row_of_id[slot] = terms.size();
      terms.push_back(term_of(normalized_[slot]));
    }
    // Hint the rebuild with the previous optimum (or the part centroid on
    // the very first solve): rows the hint satisfies keep their slack
    // basic, so the "cold" primal solve only pivots for rows the estimate
    // actually moved across.
    const Vec2 hint = ps.lp.Solved() ? Vec2{ps.lp.Zx(), ps.lp.Zy()}
                                     : part.Centroid();
    solve_status = ps.lp.Reset(terms, hint.x, hint.y);
    ColdSolves().Increment();
    ps.lp_adds_synced = constraints_.size();
    ps.lp_decays_synced = decay_log_.size();
    ps.lp_ready = solve_status.ok();
  } else {
    // Warm delta: append rows added since the last sync (even ones that
    // already decayed — keeping the id->row map dense — then deactivate),
    // and retire rows from the decay log.
    std::vector<Term> added;
    ps.row_of_id.resize(constraints_.size(), kNpos);
    for (std::size_t slot = ps.lp_adds_synced; slot < constraints_.size();
         ++slot) {
      ps.row_of_id[slot] = ps.lp.Rows() + added.size();
      added.push_back(term_of(normalized_[slot]));
    }
    solve_status = added.empty() ? common::Result<void>{}
                                 : ps.lp.AddTerms(added);
    ps.lp_adds_synced = constraints_.size();
    if (solve_status.ok()) {
      std::vector<std::size_t> retire;
      for (std::size_t k = ps.lp_decays_synced; k < decay_log_.size(); ++k) {
        const std::size_t row = ps.row_of_id[decay_log_[k]];
        NOMLOC_ASSERT(row != kNpos);
        retire.push_back(row);
      }
      if (!retire.empty()) solve_status = ps.lp.Deactivate(retire);
    }
    ps.lp_decays_synced = decay_log_.size();
    ps.lp_ready = solve_status.ok();
    if (solve_status.ok()) WarmHits().Increment();
  }

  if (!solve_status.ok()) {
    // Incremental machinery failed (pivot budget, numerical trouble):
    // degrade to the stateless batch solve rather than surfacing an error
    // the from-scratch path would not produce.
    ps.lp_ready = false;
    LpFallbacks().Increment();
    ColdSolves().Increment();
    return SolveSpPart(part, ActiveConstraints(), options_);
  }

  // Reconstruct exactly like the batch path, from the warm optimum.
  std::vector<SpConstraint> all(ps.boundary.begin(), ps.boundary.end());
  std::vector<double> t;
  t.reserve(nb + active_count_);
  for (std::size_t r = 0; r < nb; ++r) t.push_back(ps.lp.RelaxationOf(r));
  std::vector<std::size_t> region_rows;
  region_rows.reserve(active_count_);
  for (std::size_t slot = 0; slot < constraints_.size(); ++slot) {
    if (!active_[slot]) continue;
    region_rows.push_back(all.size());
    all.push_back(normalized_[slot]);
    t.push_back(ps.lp.RelaxationOf(ps.row_of_id[slot]));
  }
  return detail::ReconstructPart(part, all, t, region_rows,
                                 ps.lp.Objective(), ps.lp.LastIterations(),
                                 {ps.lp.Zx(), ps.lp.Zy()}, options_);
}

common::Result<SpSolution> SpSolverSession::Solve() {
  if (!init_status_.ok()) return init_status_;
  if (active_count_ == 0)
    return common::InvalidArgument("no proximity constraints");
  if (!dirty_) return cached_;
  // Garbage-collect retired slots before they dominate the per-solve
  // loops.  2x + slack keeps the amortized cost per decay O(1) while the
  // forced cold rebuild after each compaction stays rare.
  if (constraints_.size() > 2 * active_count_ + kCompactionSlack)
    CompactSlots();

  auto& registry = common::MetricRegistry::Global();
  static auto& solve_timer = registry.Timer("sp.solve");
  static auto& parts_counter = registry.Counter("sp.parts_solved");
  common::StageTrace solve_trace(solve_timer);

  auto incremental = [&]() -> common::Result<SpSolution> {
    SpSolution out;
    out.parts.reserve(parts_.size());
    for (std::size_t i = 0; i < parts_.size(); ++i) {
      NOMLOC_ASSIGN_OR_RETURN(SpPartSolution sol, SolvePartIncremental(i));
      out.lp_iterations += sol.lp_iterations;
      out.parts.push_back(std::move(sol));
    }
    parts_counter.Increment(parts_.size());
    detail::MergeParts(parts_, options_, out);
    return out;
  };
  cached_ = incremental();
  dirty_ = false;
  return cached_;
}

}  // namespace nomloc::localization
