#include "simd/dispatch.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/assert.h"
#include "common/metrics.h"

namespace nomloc::simd {

namespace {

const KernelTable* TableFor(Target t) {
  switch (t) {
    case Target::kScalar:
      return &detail::ScalarKernels();
#if defined(NOMLOC_SIMD_HAVE_X86)
    case Target::kSse2:
      return &detail::Sse2Kernels();
    case Target::kAvx2:
      return &detail::Avx2Kernels();
#endif
#if defined(NOMLOC_SIMD_HAVE_NEON)
    case Target::kNeon:
      return &detail::NeonKernels();
#endif
    default:
      return nullptr;
  }
}

bool EnvFlagSet(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr) return false;
  return std::strcmp(v, "1") == 0 || std::strcmp(v, "true") == 0 ||
         std::strcmp(v, "yes") == 0 || std::strcmp(v, "on") == 0;
}

// The table every kernel wrapper reads.  Null until first resolution.
std::atomic<const KernelTable*> g_active{nullptr};

const KernelTable* ResolveAndPublish() {
  const Target t = ResolveTarget();
  const KernelTable* table = TableFor(t);
  const KernelTable* expected = nullptr;
  if (g_active.compare_exchange_strong(expected, table,
                                       std::memory_order_acq_rel)) {
    // Record the startup decision once (the loser of a racing first call
    // adopts the winner's table and skips the metric).
    common::MetricRegistry::Global()
        .Counter("simd.dispatch", std::string("target=") + TargetName(t))
        .Increment();
    return table;
  }
  return expected;
}

}  // namespace

const char* TargetName(Target t) noexcept {
  switch (t) {
    case Target::kScalar:
      return "scalar";
    case Target::kSse2:
      return "sse2";
    case Target::kNeon:
      return "neon";
    case Target::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool TargetSupported(Target t) noexcept {
  switch (t) {
    case Target::kScalar:
      return true;
#if defined(NOMLOC_SIMD_HAVE_X86)
    case Target::kSse2:
      return true;  // Part of the x86-64 baseline.
    case Target::kAvx2:
#if defined(__GNUC__) || defined(__clang__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
#endif
#if defined(NOMLOC_SIMD_HAVE_NEON)
    case Target::kNeon:
      return true;  // Architectural on AArch64.
#endif
    default:
      return false;
  }
}

Target ResolveTarget() noexcept {
  if (EnvFlagSet("NOMLOC_FORCE_SCALAR")) return Target::kScalar;
  if (const char* name = std::getenv("NOMLOC_SIMD_TARGET")) {
    for (Target t : {Target::kScalar, Target::kSse2, Target::kNeon,
                     Target::kAvx2}) {
      if (std::strcmp(name, TargetName(t)) == 0)
        return TargetSupported(t) ? t : Target::kScalar;
    }
    return Target::kScalar;  // Unknown name: fail safe, not fast.
  }
  for (Target t : {Target::kAvx2, Target::kSse2, Target::kNeon}) {
    if (TargetSupported(t)) return t;
  }
  return Target::kScalar;
}

const KernelTable& ActiveKernels() {
  const KernelTable* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) table = ResolveAndPublish();
  return *table;
}

Target ActiveTarget() { return ActiveKernels().target; }

void ForceTarget(Target t) {
  NOMLOC_REQUIRE(TargetSupported(t));
  const KernelTable* table = TableFor(t);
  NOMLOC_REQUIRE(table != nullptr);
  g_active.store(table, std::memory_order_release);
}

const char* KernelName(KernelId id) {
  switch (id) {
    case KernelId::kDot:
      return "dot";
    case KernelId::kAxpy:
      return "axpy";
    case KernelId::kScale:
      return "scale";
    case KernelId::kInvScale:
      return "inv_scale";
    case KernelId::kMatVec:
      return "mat_vec";
    case KernelId::kTMatVec:
      return "t_mat_vec";
    case KernelId::kPowerSpectrum:
      return "power_spectrum";
    case KernelId::kPowerSpectrumAdd:
      return "power_spectrum_add";
    case KernelId::kMagnitudes:
      return "magnitudes";
    case KernelId::kMaxNorm:
      return "max_norm";
    case KernelId::kSumNorm:
      return "sum_norm";
    case KernelId::kFftPass:
      return "fft_pass";
    case KernelId::kCplxAxpy:
      return "cplx_axpy";
    case KernelId::kDeinterleave:
      return "deinterleave";
    case KernelId::kInterleave:
      return "interleave";
    case KernelId::kBoxMuller:
      return "box_muller";
    case KernelId::kCount:
      break;
  }
  return "unknown";
}

namespace detail {

namespace {

constexpr std::size_t kCallStripes = 8;
CallStripe g_call_stripes[kCallStripes];
std::atomic<std::size_t> g_next_stripe{0};

}  // namespace

CallStripe& ThreadCallStripe() noexcept {
  thread_local CallStripe& stripe =
      g_call_stripes[g_next_stripe.fetch_add(1, std::memory_order_relaxed) %
                     kCallStripes];
  return stripe;
}

std::uint64_t CallCount(KernelId id) noexcept {
  std::uint64_t total = 0;
  for (const CallStripe& stripe : g_call_stripes)
    total += stripe.calls[std::size_t(id)].load(std::memory_order_relaxed);
  return total;
}

}  // namespace detail

void PublishMetrics() {
  auto& registry = common::MetricRegistry::Global();
  // Ensure the dispatch series exists even if no kernel ran yet.
  (void)ActiveKernels();
  for (std::size_t i = 0; i < std::size_t(KernelId::kCount); ++i) {
    const KernelId id = KernelId(i);
    auto& counter = registry.Counter(
        "simd.kernel.calls", std::string("kernel=") + KernelName(id));
    const std::uint64_t calls = detail::CallCount(id);
    // Counter is monotonic; publish the delta since the last snapshot.
    const std::uint64_t published = counter.Value();
    if (calls > published) counter.Increment(calls - published);
  }
}

}  // namespace nomloc::simd
