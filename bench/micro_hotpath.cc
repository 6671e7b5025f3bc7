// Micro-benchmark: five hot-path comparisons that perfbench/ only sees
// end to end.
//
//   BM_<kernel>/dispatched:0|1 — one SIMD kernel forced to the scalar
//       table (0) and on the target runtime dispatch picks here (1).
//   BM_LinkPdp/block:0|1 — one 50-packet batch on a lab link, synthesized
//       and reduced to its PDP through frames (SampleBatch + PdpOfBatch,
//       0) and through one reused block (SampleBlock + PdpOfBlock, 1).
//   BM_ColdTrace/rooms:N/indexed:0|1 — TracePaths on a procedural office
//       floor with the brute wall scan (0) and the spatial index (1).
//   BM_Resolve/session:0|1 — one object's anchors with one PDP drifting
//       per iteration, solved by stateless Locate (0) and through a
//       warm solver session (1).
//   BM_StoreUpsert/clock:0|1 — one observation upserted into a random
//       one of 262,144 sessions x 3 anchors, with no clock read (0) and
//       with one steady_clock::now() before each upsert (1): the price
//       of a wall-clock read on the store path.
//
// Every benchmark restores the SIMD target and trace geometry it found.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdlib>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "channel/csi_model.h"
#include "channel/environment.h"
#include "channel/propagation.h"
#include "common/rng.h"
#include "core/nomloc.h"
#include "dsp/cir.h"
#include "dsp/fft.h"
#include "eval/scenario.h"
#include "serving/session_store.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "world/worldgen.h"

using namespace nomloc;

namespace {

// L1-resident working set (1024 complexes = 16 KiB), so the kernel
// series measure arithmetic, not the memory system.
constexpr std::size_t kN = 1024;

// Forces the kernel table the benchmark's first argument names (0 =
// scalar, 1 = the dispatched target) for one run, then restores the table
// that was active before.
class ScopedTarget {
 public:
  explicit ScopedTarget(benchmark::State& state)
      : saved_(simd::ActiveTarget()) {
    const simd::Target target = state.range(0) == 0 ? simd::Target::kScalar
                                                    : simd::ResolveTarget();
    simd::ForceTarget(target);
    state.SetLabel(simd::TargetName(target));
  }
  ~ScopedTarget() { simd::ForceTarget(saved_); }
  ScopedTarget(const ScopedTarget&) = delete;
  ScopedTarget& operator=(const ScopedTarget&) = delete;

 private:
  simd::Target saved_;
};

void BothTargets(benchmark::internal::Benchmark* b) {
  b->ArgName("dispatched")->Arg(0)->Arg(1);
}

std::vector<std::complex<double>> RandomTaps(std::size_t n) {
  common::Rng rng(0x51d0);
  std::vector<std::complex<double>> taps(n);
  for (auto& v : taps) v = rng.ComplexGaussian(1.0);
  return taps;
}

std::vector<double> RandomReals(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> xs(n);
  for (auto& v : xs) v = rng.Uniform(-1.0, 1.0);
  return xs;
}

void BM_PowerSpectrum(benchmark::State& state) {
  const ScopedTarget target(state);
  const auto taps = RandomTaps(kN);
  std::vector<double> out(kN);
  for (auto _ : state) {
    simd::PowerSpectrum(kN, taps.data(), out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PowerSpectrum)->Apply(BothTargets);

// The fused max-tap PDP reduction.
void BM_MaxNorm(benchmark::State& state) {
  const ScopedTarget target(state);
  const auto taps = RandomTaps(kN);
  for (auto _ : state) benchmark::DoNotOptimize(simd::MaxNorm(kN, taps.data()));
}
BENCHMARK(BM_MaxNorm)->Apply(BothTargets);

void BM_Dot(benchmark::State& state) {
  const ScopedTarget target(state);
  const auto a = RandomReals(kN, 1);
  const auto b = RandomReals(kN, 2);
  for (auto _ : state)
    benchmark::DoNotOptimize(simd::Dot(a.data(), b.data(), kN));
}
BENCHMARK(BM_Dot)->Apply(BothTargets);

void BM_Axpy(benchmark::State& state) {
  const ScopedTarget target(state);
  const auto x = RandomReals(kN, 1);
  auto y = RandomReals(kN, 2);
  for (auto _ : state) {
    simd::Axpy(kN, 0.5, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Axpy)->Apply(BothTargets);

void BM_MatVec64(benchmark::State& state) {
  const ScopedTarget target(state);
  constexpr std::size_t kDim = 64;
  const auto a = RandomReals(kDim * kDim, 1);
  const auto x = RandomReals(kDim, 2);
  std::vector<double> y(kDim);
  for (auto _ : state) {
    simd::MatVec(a.data(), kDim, kDim, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MatVec64)->Apply(BothTargets);

// The unnormalised transform grows its input every call, so each
// iteration starts again from the same taps.
void BM_Fft256(benchmark::State& state) {
  const ScopedTarget target(state);
  const auto taps = RandomTaps(256);
  auto grid = taps;
  for (auto _ : state) {
    std::copy(taps.begin(), taps.end(), grid.begin());
    dsp::FftInPlace(std::span<std::complex<double>>(grid));
    benchmark::DoNotOptimize(grid.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Fft256)->Apply(BothTargets);

// Box–Muller works in place, so each iteration refills its (u1, u2)
// pairs, u1 in (0, 1] and u2 in [0, 1), as the channel draws them.
void BM_BoxMuller(benchmark::State& state) {
  const ScopedTarget target(state);
  common::Rng rng(0xb0c5);
  std::vector<double> uniforms(kN);
  for (std::size_t i = 0; i < kN; i += 2) {
    uniforms[i] = 1.0 - rng.Uniform();
    uniforms[i + 1] = rng.Uniform();
  }
  auto xs = uniforms;
  for (auto _ : state) {
    std::copy(uniforms.begin(), uniforms.end(), xs.begin());
    simd::BoxMuller(kN / 2, xs.data());
    benchmark::DoNotOptimize(xs.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_BoxMuller)->Apply(BothTargets);

// The link from the lab's first test site to its first static AP, with
// paper_lab's channel and batch size; the tone table is built before the
// timed loop, as it is for every link a fix meets again.
void BM_LinkPdp(benchmark::State& state) {
  constexpr std::size_t kPackets = 50;
  const eval::Scenario lab = eval::LabScenario();
  const channel::ChannelConfig config;
  const channel::LinkModel link = channel::CsiSimulator(lab.env, config)
                                      .MakeLink(lab.test_sites.front(),
                                                lab.static_aps.front());
  const dsp::PdpOptions options;
  common::Rng rng(0x11d);
  (void)link.Sample(rng);
  std::vector<dsp::Cplx> block;
  for (auto _ : state) {
    if (state.range(0) == 0) {
      benchmark::DoNotOptimize(dsp::PdpOfBatch(
          link.SampleBatch(kPackets, rng), config.bandwidth_hz, options));
    } else {
      link.SampleBlock(kPackets, rng, block);
      benchmark::DoNotOptimize(dsp::PdpOfBlock(block, link.Subcarriers(),
                                               config.fft_size,
                                               config.bandwidth_hz, options));
    }
  }
  state.SetItemsProcessed(std::int64_t(state.iterations() * kPackets));
}
BENCHMARK(BM_LinkPdp)
    ->ArgName("block")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// One generated office floor with every AP's image tree prebuilt: the
// production PropagationCache keeps those trees across cold traces, and
// their content does not depend on the geometry backend.
struct TraceFloor {
  channel::IndoorEnvironment env;
  std::vector<channel::TxImageTree> trees;
  std::vector<geometry::Vec2> rx_sites;
};

const TraceFloor& FloorWithRooms(std::size_t rooms) {
  static std::map<std::size_t, TraceFloor> floors;
  auto it = floors.find(rooms);
  if (it != floors.end()) return it->second;
  world::WorldSpec spec;
  spec.layout = world::Layout::kOfficeGrid;
  spec.rooms = rooms;
  spec.seed = 0xb16 + rooms;
  spec.max_test_sites = 16;
  auto gen = world::Generate(spec);
  if (!gen.ok()) std::abort();
  TraceFloor floor{std::move(gen->env), {}, gen->test_sites};
  const channel::PropagationConfig config;
  for (const geometry::Vec2 tx : gen->ap_sites)
    floor.trees.push_back(channel::BuildTxImageTree(
        floor.env, tx, config.max_reflection_order));
  return floors.emplace(rooms, std::move(floor)).first->second;
}

// Cycles one (AP, test site) link per iteration over the whole floor.
void BM_ColdTrace(benchmark::State& state) {
  const TraceFloor& floor = FloorWithRooms(std::size_t(state.range(0)));
  const channel::TraceGeometry saved = channel::ActiveTraceGeometry();
  channel::ForceTraceGeometry(state.range(1) == 0
                                  ? channel::TraceGeometry::kBrute
                                  : channel::TraceGeometry::kIndexed);
  const channel::PropagationConfig config;
  const std::size_t links = floor.trees.size() * floor.rx_sites.size();
  std::size_t k = 0;
  for (auto _ : state) {
    const std::size_t link = k++ % links;
    benchmark::DoNotOptimize(channel::TracePaths(
        floor.env, floor.trees[link / floor.rx_sites.size()],
        floor.rx_sites[link % floor.rx_sites.size()], config));
  }
  channel::ForceTraceGeometry(saved);
}
BENCHMARK(BM_ColdTrace)
    ->ArgNames({"rooms", "indexed"})
    ->Args({10, 0})
    ->Args({10, 1})
    ->Args({100, 0})
    ->Args({100, 1})
    ->Unit(benchmark::kMicrosecond);

// Twelve anchors around a 20x16 m room with the object orbiting its
// center: each epoch re-reports one anchor's PDP, as a serving session
// sees a stream of single-anchor updates.
std::vector<std::vector<localization::Anchor>> DriftingAnchors() {
  constexpr std::size_t kAnchors = 12;
  constexpr std::size_t kEpochs = 32;
  constexpr double kTwoPi = 6.28318530718;
  const auto truth_at = [](std::size_t e) {
    const double a = kTwoPi * double(e) / double(kEpochs);
    return geometry::Vec2{10.0 + 1.5 * std::cos(a),
                          8.0 + 1.125 * std::sin(a)};
  };
  const auto pdp_at = [](geometry::Vec2 truth, geometry::Vec2 ap) {
    return 1.0 / (1.0 + geometry::DistanceSq(truth, ap));
  };
  std::vector<localization::Anchor> current;
  for (std::size_t k = 0; k < kAnchors; ++k) {
    const double a = kTwoPi * double(k) / double(kAnchors);
    const double r = (k % 2 == 0) ? 1.0 : 0.72;
    const geometry::Vec2 ap{10.0 + 8.0 * r * std::cos(a),
                            8.0 + 6.5 * r * std::sin(a)};
    current.push_back({ap, pdp_at(truth_at(0), ap), false});
  }
  std::vector<std::vector<localization::Anchor>> epochs{current};
  for (std::size_t e = 1; e < kEpochs; ++e) {
    localization::Anchor& moved = current[e % kAnchors];
    moved.pdp = pdp_at(truth_at(e), moved.position);
    epochs.push_back(current);
  }
  return epochs;
}

void BM_Resolve(benchmark::State& state) {
  auto engine = core::NomLocEngine::Create(
      geometry::Polygon::Rectangle(0.0, 0.0, 20.0, 16.0));
  if (!engine.ok()) {
    state.SkipWithError(engine.status().ToString().c_str());
    return;
  }
  const auto epochs = DriftingAnchors();
  auto session = engine->MakeSolverSession();
  localization::SpSolverSession* routed =
      state.range(0) == 0 ? nullptr : &session;
  std::size_t e = 0;
  for (auto _ : state) {
    core::LocateRequest request;
    request.anchors = epochs[e++ % epochs.size()];
    auto response = engine->Locate(request, routed);
    if (!response.ok()) {
      state.SkipWithError(response.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_Resolve)
    ->ArgName("session")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// serve_1m's store shape (64 shards, 3 anchors per session, nothing
// expires) over far more state than L3 holds.  The store is filled before
// the timed loop and reserves twice the observations it will hold (the
// shard hash spreads them unevenly), so no slab grows inside the loop.
void BM_StoreUpsert(benchmark::State& state) {
  constexpr std::uint64_t kSessions = std::uint64_t{1} << 18;
  constexpr std::uint64_t kAnchors = 3;
  serving::SessionStoreConfig config;
  config.shards = 64;
  config.anchor_ttl_s = 1e12;
  config.session_idle_ttl_s = 1e12;
  config.reserve_sessions = kSessions;
  config.reserve_anchors = kSessions * kAnchors;
  config.reserve_observations =
      2 * (kSessions * kAnchors + std::size_t(state.max_iterations));
  serving::SessionStore store(config);
  serving::PdpObservation obs;
  obs.pdp = 0.5;
  for (std::uint64_t id = 0; id < kSessions; ++id)
    for (std::uint64_t ap = 0; ap < kAnchors; ++ap)
      store.Upsert(id, {int(ap), 0}, {double(ap), 0.0}, false, obs, 0.0);

  const bool read_clock = state.range(0) == 1;
  common::Rng rng(0x5e55);
  for (auto _ : state) {
    const std::uint64_t draw = rng();
    if (read_clock) benchmark::DoNotOptimize(std::chrono::steady_clock::now());
    const int ap = int((draw >> 32) % kAnchors);
    benchmark::DoNotOptimize(store.Upsert(draw % kSessions, {ap, 0},
                                          {double(ap), 0.0}, false, obs, 0.0));
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_StoreUpsert)->ArgName("clock")->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
