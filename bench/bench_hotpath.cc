// Cold-vs-warm timings for the three hot-path cache layers:
//
//   trace.repeated_link — CsiSimulator::MakeLink on recurring (tx, rx)
//       pairs.  Cold drops the cached traces before every link
//       (ClearTraces — the per-tx image trees stay memoized, as they do
//       in production), so each call pays a full back-trace; warm hits
//       the trace cache and only rebuilds the LinkModel.
//   cir.batch — PDP extraction over a per-anchor CSI probe burst.  Cold
//       models the pre-cache pipeline: every frame re-derives the FFT
//       bit-reversal/twiddle tables and goes through the allocating
//       per-frame CIR API; warm is PdpOfBatch running entirely from
//       cached plans and reused scratch.
//   solver.simplex / solver.interior_point — the SP relaxation LP (paper
//       Eq. 19) solved without (cold) and with (warm) a reusable
//       SolveWorkspace.  (Named solver.* because the contrast is the
//       workspace reuse in the solver drivers, not the lp library per se.)
//
// --simd switches to the SIMD kernel microbenches: each series runs the
// same body with the kernel table forced to scalar (reported as "cold")
// and with the best runtime-dispatched target (reported as "warm"), so
// the speedup column is the vectorization gain.  The committed snapshot
// is BENCH_simd.json.
//
// --incremental switches to the streaming SP-solve benches: each series
// replays a cyclic schedule of per-epoch constraint deltas, solving cold
// (from-scratch SolveSp / engine Locate per epoch) vs warm (a stateful
// SpSolverSession fed the delta via ReplaceConstraints).  The committed
// snapshot is BENCH_incremental.json:
//
//   solver.fastpath.delta — consistent judgements; the warm side never
//       touches the LP (geometric fast path).
//   solver.dual_simplex.delta — contradictory judgements each epoch; the
//       warm side re-optimizes the kept basis with dual-simplex pivots.
//   serve.resolve.incremental — the serving resolve path end to end:
//       anchors with drifting PDPs through NomLocEngine::Locate, stateless
//       vs session-routed.
//
// --bigworld switches to the campus-scale cold-trace benches over
// procedurally generated worlds (world/worldgen.h): per room count, the
// same TracePaths links are traced with the geometry backend forced to
// the brute linear wall scan (reported as "cold") and to the spatial
// index (reported as "warm"), so the speedup column is the indexing
// gain on a from-scratch trace.  A companion series contrasts
// PropagationCache::Clear against ClearTraces on repeated cold links —
// the cost of thrashing the shared per-tx image trees.  The committed
// snapshot is BENCH_bigworld.json.
//
// Flags: --quick shrinks iteration counts (CI smoke), --json prints the
// shared BenchReportJson document to stdout, --out PATH also writes it to
// a file (the committed BENCH_hotpath.json / BENCH_simd.json /
// BENCH_incremental.json / BENCH_bigworld.json snapshots).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "channel/csi_model.h"
#include "channel/propagation.h"
#include "channel/propagation_cache.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/nomloc.h"
#include "dsp/cir.h"
#include "dsp/fft_plan.h"
#include "eval/scenario.h"
#include "dsp/fft.h"
#include "geometry/halfplane.h"
#include "localization/sp_session.h"
#include "localization/sp_solver.h"
#include "lp/interior_point.h"
#include "lp/matrix.h"
#include "lp/simplex.h"
#include "lp/workspace.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "world/worldgen.h"

namespace {

using nomloc::bench::BenchTiming;

double RunMs(std::size_t iterations, const std::function<void()>& body) {
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iterations; ++i) body();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

// Best-of-N timing: the minimum over repeats is the least noise-polluted
// estimate of the true cost (interruptions only ever add time).
double BestMs(std::size_t repeats, std::size_t iterations,
              const std::function<void()>& body) {
  double best = RunMs(iterations, body);
  for (std::size_t r = 1; r < repeats; ++r)
    best = std::min(best, RunMs(iterations, body));
  return best;
}

// The SP relaxation program (Eq. 19) at a size typical of one area part:
// variables [zx, zy, t_1..t_n], one row per proximity/boundary constraint.
nomloc::lp::InequalityLp RelaxationLp(std::size_t n) {
  nomloc::common::Rng rng(0xbe7c);
  nomloc::lp::InequalityLp prog;
  prog.a = nomloc::lp::Matrix(n, 2 + n);
  prog.b.resize(n);
  prog.c.assign(2 + n, 0.0);
  prog.nonneg.assign(2 + n, true);
  prog.nonneg[0] = prog.nonneg[1] = false;
  for (std::size_t i = 0; i < n; ++i) {
    const double angle = rng.Uniform(0.0, 6.28318);
    prog.a(i, 0) = std::cos(angle);
    prog.a(i, 1) = std::sin(angle);
    prog.a(i, 2 + i) = -1.0;
    prog.b[i] = rng.Uniform(1.0, 6.0);
    prog.c[2 + i] = rng.Uniform(0.5, 2.0);
  }
  return prog;
}

// Sink that keeps reduction results alive across optimization.
volatile double g_sink = 0.0;

// Times `body` with the kernel table forced to scalar (cold) and to the
// best runtime-dispatched target (warm).  Restores the dispatched table.
nomloc::bench::BenchTiming SimdPair(const char* name, std::size_t repeats,
                                    std::size_t iterations,
                                    const std::function<void()>& body) {
  namespace simd = nomloc::simd;
  const simd::Target best = simd::ResolveTarget();
  BenchTiming t;
  t.name = name;
  t.iterations = iterations;
  simd::ForceTarget(simd::Target::kScalar);
  body();  // Warm up caches/scratch on the scalar table.
  t.cold_ms = BestMs(repeats, iterations, body);
  simd::ForceTarget(best);
  body();
  t.warm_ms = BestMs(repeats, iterations, body);
  return t;
}

int RunSimdBench(bool quick, bool json, const std::string& out_path) {
  namespace channel = nomloc::channel;
  namespace dsp = nomloc::dsp;
  namespace lp = nomloc::lp;
  namespace simd = nomloc::simd;

  const std::size_t repeats = quick ? 3 : 5;
  std::vector<BenchTiming> series;

  // --- kernel microbenches -------------------------------------------------
  // L1-resident working set (1024 complexes = 16 KiB in, 8 KiB out) so the
  // series measures kernel arithmetic, not the memory system.
  const std::size_t n = 1024;
  nomloc::common::Rng rng(0x51d0);
  std::vector<dsp::Cplx> taps(n);
  for (auto& v : taps) v = rng.ComplexGaussian(1.0);
  std::vector<double> va(n), vb(n), vout(n);
  for (std::size_t i = 0; i < n; ++i) {
    va[i] = rng.Uniform(-1.0, 1.0);
    vb[i] = rng.Uniform(-1.0, 1.0);
  }
  const std::size_t kiters = quick ? 8000 : 80000;

  series.push_back(SimdPair("kernel.power_spectrum", repeats, kiters, [&] {
    simd::PowerSpectrum(n, taps.data(), vout.data());
  }));
  series.push_back(SimdPair("kernel.pdp_max", repeats, kiters, [&] {
    g_sink = simd::MaxNorm(n, taps.data());
  }));
  series.push_back(SimdPair("kernel.dot", repeats, kiters, [&] {
    g_sink = simd::Dot(va.data(), vb.data(), n);
  }));
  series.push_back(SimdPair("kernel.axpy", repeats, kiters, [&] {
    simd::Axpy(n, 0.5, va.data(), vb.data());
  }));
  {
    const std::size_t rows = 64, cols = 64;
    std::vector<double> mat(rows * cols), x(cols), y(rows);
    for (auto& v : mat) v = rng.Uniform(-1.0, 1.0);
    for (auto& v : x) v = rng.Uniform(-1.0, 1.0);
    series.push_back(SimdPair("kernel.mat_vec", repeats, kiters, [&] {
      simd::MatVec(mat.data(), rows, cols, x.data(), y.data());
    }));
  }
  {
    std::vector<dsp::Cplx> grid(256);
    for (auto& v : grid) v = rng.ComplexGaussian(1.0);
    series.push_back(SimdPair("kernel.fft256", repeats, quick ? 500 : 5000,
                              [&] {
                                dsp::FftInPlace(std::span<dsp::Cplx>(grid));
                              }));
  }

  // --- end-to-end: the two pipeline stages the kernels feed ---------------
  {
    const nomloc::eval::Scenario scenario = nomloc::eval::LabScenario();
    const channel::ChannelConfig channel_config;
    const channel::CsiSimulator sim(scenario.env, channel_config);
    nomloc::common::Rng frame_rng(0xc18);
    const channel::LinkModel link =
        sim.MakeLink(scenario.static_aps.front(), scenario.test_sites.front());
    const std::vector<dsp::CsiFrame> frames = link.SampleBatch(16, frame_rng);
    series.push_back(
        SimdPair("cir.batch", repeats, quick ? 100 : 1000, [&] {
          g_sink = dsp::PdpOfBatch(frames, channel_config.bandwidth_hz);
        }));
  }
  {
    const lp::InequalityLp prog = RelaxationLp(16);
    lp::SolveWorkspace ws;
    series.push_back(
        SimdPair("solver.interior_point", repeats, quick ? 200 : 2000, [&] {
          (void)lp::SolveInteriorPoint(prog, {}, &ws).ok();
        }));
  }

  nomloc::common::JsonObject extra;
  extra["simd_target"] = std::string(simd::TargetName(simd::ResolveTarget()));
  const nomloc::common::Json report =
      nomloc::bench::BenchReportJson("simd", quick, series, std::move(extra));

  if (json) {
    std::printf("%s\n", report.DumpPretty().c_str());
  } else {
    std::printf("simd kernel benchmark (%s; cold=scalar, warm=%s)\n",
                quick ? "quick" : "full",
                simd::TargetName(simd::ResolveTarget()));
    nomloc::bench::PrintTimings(series);
  }
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << report.DumpPretty() << "\n";
    if (!out) {
      std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
      return 1;
    }
  }
  return 0;
}

int RunIncrementalBench(bool quick, bool json, const std::string& out_path) {
  namespace core = nomloc::core;
  namespace geometry = nomloc::geometry;
  namespace localization = nomloc::localization;
  using geometry::Vec2;
  using localization::SpConstraint;

  const std::size_t repeats = quick ? 3 : 5;
  std::vector<BenchTiming> series;

  const geometry::Polygon room =
      geometry::Polygon::Rectangle(0.0, 0.0, 20.0, 16.0);
  const std::vector<geometry::Polygon> parts{room};
  // 12 anchors (static APs + nomadic dwell sites) — 66 pairwise
  // judgements, the constraint count of a well-instrumented floor after a
  // nomadic AP has visited a handful of dwell sites.
  std::vector<Vec2> aps;
  for (int k = 0; k < 12; ++k) {
    const double a = 6.28318530718 * double(k) / 12.0;
    const double r = (k % 2 == 0) ? 1.0 : 0.72;
    aps.push_back(
        {10.0 + 8.0 * r * std::cos(a), 8.0 + 6.5 * r * std::sin(a)});
  }
  const std::size_t kEpochs = 32;
  // The tracked object orbits the floor center; `radius` sets how far it
  // moves per epoch and therefore how many pairwise judgements flip per
  // update (the delta size the warm session absorbs).
  const auto truth_at = [&](std::size_t e, double radius) {
    const double a = 6.28318530718 * double(e) / double(kEpochs);
    return Vec2{10.0 + radius * std::cos(a),
                8.0 + 0.75 * radius * std::sin(a)};
  };
  // Pairwise judgements with a fixed weight: a pair's half-plane only
  // changes bits when the closer AP flips, so consecutive epochs share
  // most constraints — exactly the streaming regime ReplaceConstraints
  // keeps warm.
  const std::size_t pair_count = aps.size() * (aps.size() - 1) / 2;
  const auto pairwise = [&](Vec2 truth, std::size_t flips, std::size_t e) {
    std::vector<SpConstraint> out;
    std::size_t pair = 0;
    for (std::size_t i = 0; i < aps.size(); ++i) {
      for (std::size_t j = i + 1; j < aps.size(); ++j, ++pair) {
        bool i_closer =
            Distance(truth, aps[i]) <= Distance(truth, aps[j]);
        // Contradictory series: a few low-confidence judgements are
        // flipped (a marginal link judged wrong), so the LP must relax
        // something.  The flipped subset rotates every 8 epochs — bad
        // judgements persist for a while, as they do in a real stream —
        // while the moving truth keeps flipping honest pairs each epoch.
        double weight = 0.9;
        for (std::size_t f = 0; f < flips; ++f) {
          if (pair == ((e / 8) * 7 + f * 11) % pair_count) {
            i_closer = !i_closer;
            weight = 0.4;
          }
        }
        const Vec2 w = i_closer ? aps[i] : aps[j];
        const Vec2 l = i_closer ? aps[j] : aps[i];
        out.push_back({geometry::HalfPlane::CloserTo(w, l), weight, false});
      }
    }
    return out;
  };

  const std::size_t iterations = quick ? 64 : 512;
  const localization::SpSolverOptions options;

  const auto delta_series = [&](const char* name, std::size_t flips,
                                double radius) {
    std::vector<std::vector<SpConstraint>> epochs(kEpochs);
    for (std::size_t e = 0; e < kEpochs; ++e)
      epochs[e] = pairwise(truth_at(e, radius), flips, e);
    BenchTiming t;
    t.name = name;
    t.iterations = iterations;
    std::size_t i = 0;
    const auto cold = [&] {
      (void)localization::SolveSp(parts, epochs[i++ % kEpochs], options);
    };
    cold();
    t.cold_ms = BestMs(repeats, iterations, cold);
    localization::SpSolverSession session(parts, options);
    std::size_t j = 0;
    const auto warm = [&] {
      (void)session.ReplaceConstraints(epochs[j++ % kEpochs]);
      (void)session.Solve();
    };
    warm();
    t.warm_ms = BestMs(repeats, iterations, warm);
    series.push_back(t);
  };

  // Fast orbit: several honest pairs flip per epoch, all judgements
  // consistent — every update stays on the geometric fast path.
  delta_series("solver.fastpath.delta", 0, 4.0);
  // Slow orbit with two persistent contradictions: the LP is engaged, and
  // each epoch changes only a handful of rows — the dual-simplex delta
  // regime the warm basis is built for.
  delta_series("solver.dual_simplex.delta", 2, 1.5);

  // --- serve.resolve.incremental ------------------------------------------
  // The serving resolve path end to end: per epoch one anchor's PDP
  // updates (the others pass through bit-exactly, as in the session
  // store), then the engine localizes — stateless Locate vs the same
  // request routed through a warm solver session.
  {
    auto engine_result = core::NomLocEngine::Create(room);
    if (!engine_result.ok()) {
      std::fprintf(stderr, "engine: %s\n",
                   engine_result.status().ToString().c_str());
      return 1;
    }
    const core::NomLocEngine& engine = *engine_result;
    const auto pdp_at = [&](Vec2 truth, Vec2 ap) {
      return 1.0 / (1.0 + geometry::DistanceSq(truth, ap));
    };
    std::vector<std::vector<localization::Anchor>> anchor_epochs(kEpochs);
    std::vector<localization::Anchor> current;
    for (const Vec2 ap : aps)
      current.push_back({ap, pdp_at(truth_at(0, 1.5), ap), false});
    anchor_epochs[0] = current;
    for (std::size_t e = 1; e < kEpochs; ++e) {
      localization::Anchor& moved = current[e % aps.size()];
      moved.pdp = pdp_at(truth_at(e, 1.5), moved.position);
      anchor_epochs[e] = current;
    }
    BenchTiming t;
    t.name = "serve.resolve.incremental";
    t.iterations = iterations;
    std::size_t i = 0;
    const auto cold = [&] {
      core::LocateRequest request;
      request.anchors = anchor_epochs[i++ % kEpochs];
      (void)engine.Locate(request);
    };
    cold();
    t.cold_ms = BestMs(repeats, iterations, cold);
    auto session = engine.MakeSolverSession();
    std::size_t j = 0;
    const auto warm = [&] {
      core::LocateRequest request;
      request.anchors = anchor_epochs[j++ % kEpochs];
      (void)engine.Locate(request, &session);
    };
    warm();
    t.warm_ms = BestMs(repeats, iterations, warm);
    series.push_back(t);
  }

  // Solver counter readings accumulated over the run: the fast-path /
  // warm-basis hit split is the explanation for the speedup column.
  auto& registry = nomloc::common::MetricRegistry::Global();
  nomloc::common::JsonObject counters;
  for (const char* name :
       {"solver.fastpath_hits", "solver.warm_hits", "solver.cold_solves",
        "solver.lp_fallback", "lp.incremental.reset",
        "lp.incremental.add_rows", "lp.incremental.deactivated"}) {
    counters[name] = std::size_t(registry.Counter(name).Value());
  }
  nomloc::common::JsonObject extra;
  extra["counters"] = nomloc::common::Json(std::move(counters));

  const nomloc::common::Json report = nomloc::bench::BenchReportJson(
      "incremental", quick, series, std::move(extra));
  if (json) {
    std::printf("%s\n", report.DumpPretty().c_str());
  } else {
    std::printf("incremental SP-solve benchmark (%s)\n",
                quick ? "quick" : "full");
    nomloc::bench::PrintTimings(series);
  }
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << report.DumpPretty() << "\n";
    if (!out) {
      std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
      return 1;
    }
  }
  return 0;
}

int RunBigworldBench(bool quick, bool json, const std::string& out_path) {
  namespace channel = nomloc::channel;
  namespace world = nomloc::world;
  using nomloc::geometry::Vec2;

  const std::size_t repeats = quick ? 3 : 5;
  std::vector<std::size_t> sizes{10, 100};
  if (!quick) sizes.push_back(500);

  // Restore whatever the dispatcher picked (env override included) on exit.
  const channel::TraceGeometry dispatched = channel::ActiveTraceGeometry();

  std::vector<BenchTiming> series;
  nomloc::common::JsonObject worlds;

  for (const std::size_t rooms : sizes) {
    world::WorldSpec spec;
    spec.layout = world::Layout::kOfficeGrid;
    spec.rooms = rooms;
    spec.seed = 0xb16 + rooms;
    spec.max_test_sites = 16;
    auto gen = world::Generate(spec);
    if (!gen.ok()) {
      std::fprintf(stderr, "worldgen(%zu rooms): %s\n", rooms,
                   gen.status().ToString().c_str());
      return 1;
    }
    const channel::IndoorEnvironment& env = gen->env;

    {
      nomloc::common::JsonObject w;
      w["rooms"] = rooms;
      w["walls"] = env.Walls().size();
      w["blocking_walls"] = env.BlockingWalls().size();
      w["scatterers"] = env.Scatterers().size();
      w["ap_sites"] = gen->ap_sites.size();
      w["test_sites"] = gen->test_sites.size();
      worlds[gen->name] = nomloc::common::Json(std::move(w));
    }

    // The link set a survey of this floor would trace: every AP against a
    // spread of test sites, cycled one link per iteration.
    std::vector<std::pair<Vec2, Vec2>> links;
    for (const Vec2 tx : gen->ap_sites)
      for (const Vec2 rx : gen->test_sites) links.push_back({tx, rx});

    // Per-tx image trees are built once outside the timed loop: in
    // production the PropagationCache keeps them across cold traces (the
    // ClearTraces() split exists for exactly that), and the tree content
    // is identical under both geometry backends — only the per-trace wall
    // queries differ.  trace.tree_reuse below times the tree builds.
    const channel::PropagationConfig cfg;
    std::vector<channel::TxImageTree> trees;
    for (const Vec2 tx : gen->ap_sites)
      trees.push_back(
          channel::BuildTxImageTree(env, tx, cfg.max_reflection_order));
    // Brute cold traces are O(walls^2) per link, so iteration counts
    // shrink with world size to keep wall-clock bounded.
    const std::size_t iterations = rooms <= 10   ? (quick ? 40 : 200)
                                   : rooms <= 100 ? (quick ? 8 : 40)
                                                  : 8;
    // Stride the link grid down to exactly `iterations` links (the grid
    // is tx-major, so a stride spreads the sample across APs).  Every
    // repeat then cycles the same set whatever phase it starts at, and
    // cold and warm time identical work.
    const std::size_t n_rx = gen->test_sites.size();
    std::vector<std::size_t> sample;
    const std::size_t stride =
        std::max<std::size_t>(1, links.size() / iterations);
    for (std::size_t k = 0; sample.size() < iterations;
         k += stride)
      sample.push_back(k % links.size());
    std::size_t i = 0;
    const auto one_trace = [&] {
      const std::size_t k = sample[i++ % sample.size()];
      (void)channel::TracePaths(env, trees[k / n_rx], links[k].second, cfg);
    };

    BenchTiming t;
    t.name = "trace.cold.bigworld.rooms" + std::to_string(rooms);
    t.iterations = iterations;
    // The cold/warm ratio is the headline number of BENCH_bigworld.json,
    // so it gets extra rounds, and brute/indexed measurements alternate
    // instead of running one side after the other: machine-speed drift
    // over the bench's lifetime then lands on both minima alike and
    // cancels in the ratio instead of skewing it.
    const std::size_t rounds = quick ? 3 : 2 * repeats;
    t.cold_ms = t.warm_ms = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < rounds; ++r) {
      channel::ForceTraceGeometry(channel::TraceGeometry::kBrute);
      one_trace();  // Warm up allocator/caches after the switch.
      t.cold_ms = std::min(t.cold_ms, RunMs(iterations, one_trace));
      channel::ForceTraceGeometry(channel::TraceGeometry::kIndexed);
      one_trace();
      t.warm_ms = std::min(t.warm_ms, RunMs(iterations, one_trace));
    }
    series.push_back(t);

    // trace.tree_reuse — the image-tree thrash the ClearTraces() split
    // exists for: repeated cold links through the simulator with the
    // whole cache dropped per link (cold) vs only the traces dropped,
    // per-tx image trees kept (warm).  One representative size.
    if (rooms == 100) {
      const channel::ChannelConfig channel_config;
      const channel::CsiSimulator sim(env, channel_config);
      channel::PropagationCache& cache = channel::PropagationCache::Global();
      std::size_t j = 0;
      const auto one_link = [&] {
        const auto& [tx, rx] = links[sample[j++ % sample.size()]];
        (void)sim.MakeLink(tx, rx);
      };
      BenchTiming reuse;
      reuse.name = "trace.tree_reuse.rooms" + std::to_string(rooms);
      reuse.iterations = iterations;
      cache.Clear();
      one_link();
      reuse.cold_ms = BestMs(repeats, iterations, [&] {
        cache.Clear();
        one_link();
      });
      cache.Clear();
      one_link();
      reuse.warm_ms = BestMs(repeats, iterations, [&] {
        cache.ClearTraces();
        one_link();
      });
      series.push_back(reuse);
    }
  }
  channel::ForceTraceGeometry(dispatched);

  auto& registry = nomloc::common::MetricRegistry::Global();
  nomloc::common::JsonObject counters;
  for (const char* name :
       {"channel.trace.cache.hits", "channel.trace.cache.misses",
        "channel.trace.images.hits", "channel.trace.images.misses"}) {
    counters[name] = std::size_t(registry.Counter(name).Value());
  }
  nomloc::common::JsonObject extra;
  extra["trace_geometry"] =
      std::string(channel::TraceGeometryName(dispatched));
  extra["worlds"] = nomloc::common::Json(std::move(worlds));
  extra["counters"] = nomloc::common::Json(std::move(counters));

  const nomloc::common::Json report = nomloc::bench::BenchReportJson(
      "bigworld", quick, series, std::move(extra));
  if (json) {
    std::printf("%s\n", report.DumpPretty().c_str());
  } else {
    std::printf(
        "big-world cold-trace benchmark (%s; cold=brute scan, warm=indexed)\n",
        quick ? "quick" : "full");
    nomloc::bench::PrintTimings(series);
  }
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << report.DumpPretty() << "\n";
    if (!out) {
      std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool json = false;
  bool simd_mode = false;
  bool incremental_mode = false;
  bool bigworld_mode = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    else if (std::strcmp(argv[i], "--json") == 0) json = true;
    else if (std::strcmp(argv[i], "--simd") == 0) simd_mode = true;
    else if (std::strcmp(argv[i], "--incremental") == 0)
      incremental_mode = true;
    else if (std::strcmp(argv[i], "--bigworld") == 0) bigworld_mode = true;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
    else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--json] [--simd] [--incremental] "
                   "[--bigworld] [--out PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  if (simd_mode) return RunSimdBench(quick, json, out_path);
  if (incremental_mode) return RunIncrementalBench(quick, json, out_path);
  if (bigworld_mode) return RunBigworldBench(quick, json, out_path);

  const std::size_t repeats = quick ? 3 : 5;

  namespace channel = nomloc::channel;
  namespace dsp = nomloc::dsp;
  namespace lp = nomloc::lp;

  const nomloc::eval::Scenario scenario = nomloc::eval::LabScenario();
  const channel::ChannelConfig channel_config;
  const channel::CsiSimulator sim(scenario.env, channel_config);
  channel::PropagationCache& trace_cache = channel::PropagationCache::Global();
  dsp::FftPlanCache& plan_cache = dsp::FftPlanCache::Global();

  std::vector<BenchTiming> series;

  // --- trace.repeated_link -------------------------------------------------
  {
    const std::size_t iterations = quick ? 40 : 400;
    const auto& rx_sites = scenario.test_sites;
    const nomloc::geometry::Vec2 tx = scenario.static_aps.front();
    std::size_t i = 0;
    auto one_link = [&] {
      const auto link = sim.MakeLink(tx, rx_sites[i++ % rx_sites.size()]);
      (void)link;
    };
    BenchTiming t;
    t.name = "trace.repeated_link";
    t.iterations = iterations;
    trace_cache.Clear();
    // ClearTraces, not Clear: cold pays the per-link back-trace but keeps
    // the shared per-tx image trees, exactly like a production cache miss.
    // (Clear would also rebuild the tx tree every link — that thrash is
    // what trace.tree_reuse in --bigworld quantifies.)
    t.cold_ms = BestMs(repeats, iterations, [&] {
      trace_cache.ClearTraces();
      one_link();
    });
    for (std::size_t k = 0; k < rx_sites.size(); ++k) one_link();  // Warm up.
    t.warm_ms = BestMs(repeats, iterations, one_link);
    series.push_back(t);
  }

  // --- cir.batch -----------------------------------------------------------
  {
    const std::size_t iterations = quick ? 100 : 1000;
    const std::size_t batch = 16;  // One per-anchor probe burst.
    nomloc::common::Rng rng(0xc18);
    const channel::LinkModel link =
        sim.MakeLink(scenario.static_aps.front(), scenario.test_sites.front());
    const std::vector<dsp::CsiFrame> frames = link.SampleBatch(batch, rng);
    const double bandwidth = channel_config.bandwidth_hz;
    const dsp::PdpOptions pdp_options;
    BenchTiming t;
    t.name = "cir.batch";
    t.iterations = iterations;
    // Cold models the pre-cache pipeline: every frame re-derives the FFT
    // kernel (a cache-free world recomputes per transform) and goes
    // through the allocating per-frame CIR API.
    t.cold_ms = BestMs(repeats, iterations, [&] {
      double acc = 0.0;
      for (const dsp::CsiFrame& frame : frames) {
        plan_cache.Clear();
        acc += dsp::PdpOfCir(dsp::CsiToCir(frame, bandwidth), pdp_options);
      }
      (void)acc;
    });
    auto one_batch = [&] { (void)dsp::PdpOfBatch(frames, bandwidth); };
    one_batch();  // Warm up.
    t.warm_ms = BestMs(repeats, iterations, one_batch);
    series.push_back(t);
  }

  // --- solver.simplex / solver.interior_point ------------------------------
  {
    const std::size_t iterations = quick ? 200 : 2000;
    const lp::InequalityLp prog = RelaxationLp(16);
    lp::SolveWorkspace ws;
    {
      BenchTiming t;
      t.name = "solver.simplex";
      t.iterations = iterations;
      t.cold_ms = BestMs(repeats, iterations,
                         [&] { (void)lp::SolveSimplex(prog).ok(); });
      (void)lp::SolveSimplex(prog, {}, &ws).ok();  // Warm up.
      t.warm_ms = BestMs(repeats, iterations,
                         [&] { (void)lp::SolveSimplex(prog, {}, &ws).ok(); });
      series.push_back(t);
    }
    {
      BenchTiming t;
      t.name = "solver.interior_point";
      t.iterations = iterations;
      t.cold_ms = BestMs(repeats, iterations,
                         [&] { (void)lp::SolveInteriorPoint(prog).ok(); });
      (void)lp::SolveInteriorPoint(prog, {}, &ws).ok();  // Warm up.
      t.warm_ms = BestMs(
          repeats, iterations,
          [&] { (void)lp::SolveInteriorPoint(prog, {}, &ws).ok(); });
      series.push_back(t);
    }
  }

  // Cache counter readings accumulated over the run.
  auto& registry = nomloc::common::MetricRegistry::Global();
  nomloc::common::JsonObject counters;
  for (const char* name :
       {"dsp.fft.plan.hits", "dsp.fft.plan.misses", "channel.trace.cache.hits",
        "channel.trace.cache.misses", "channel.trace.images.hits",
        "channel.trace.images.misses", "lp.workspace.reused",
        "lp.workspace.fresh"}) {
    counters[name] = std::size_t(registry.Counter(name).Value());
  }
  nomloc::common::JsonObject extra;
  extra["counters"] = nomloc::common::Json(std::move(counters));

  const nomloc::common::Json report =
      nomloc::bench::BenchReportJson("hotpath", quick, series, std::move(extra));

  if (json) {
    std::printf("%s\n", report.DumpPretty().c_str());
  } else {
    std::printf("hotpath cache benchmark (%s)\n", quick ? "quick" : "full");
    nomloc::bench::PrintTimings(series);
  }
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << report.DumpPretty() << "\n";
    if (!out) {
      std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
      return 1;
    }
  }
  return 0;
}
