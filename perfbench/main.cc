// perfbench — the repository benchmark.
//
//   perfbench --workload paper_lab|serve_1m|cluster_hot --seed N
//             --seconds S --trace 0|1 [--corrupt drop|flip|count]
//             [--commit SHA] [--setup-only 1]
//
// Runs one workload in this process, checks its outputs, and prints a
// header line (machine, build, parameters) followed by the result as the
// last line:
//
//   {"correct": true, "attempted": N, "failed": F, "metrics": {"name": v}}
//
// --trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
// the per-layer metrics.  run.py checks the names against BENCHMARK.json
// and attaches their units.  A failed output check exits 1 after printing
// the result with "correct": false.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.h"
#include "simd/dispatch.h"

namespace {

using perfbench::Options;
using perfbench::Outcome;

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload paper_lab|serve_1m|cluster_hot "
               "--seed N --seconds S --trace 0|1\n"
               "          [--corrupt drop|flip|count] [--commit SHA] "
               "[--setup-only 1]\n",
               argv0);
  std::exit(2);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string commit = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage(argv[0]);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = options.seconds > 0.0;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") Usage(argv[0]);
      options.trace = value == "1";
      have_trace = true;
    } else if (arg == "--corrupt") {
      using perfbench::Corruption;
      if (value == "drop") options.corrupt = Corruption::kDrop;
      else if (value == "flip") options.corrupt = Corruption::kFlip;
      else if (value == "count") options.corrupt = Corruption::kCount;
      else Usage(argv[0]);
    } else if (arg == "--setup-only") {
      options.setup_only = value == "1";
    } else if (arg == "--commit") {
      commit = value;
    } else {
      Usage(argv[0]);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) Usage(argv[0]);

  Outcome outcome;
  try {
    if (options.workload == "paper_lab")
      outcome = perfbench::RunPaperLab(options);
    else if (options.workload == "serve_1m")
      outcome = perfbench::RunServe1m(options);
    else if (options.workload == "cluster_hot")
      outcome = perfbench::RunClusterHot(options);
    else
      Usage(argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  // Header: everything needed to reproduce or discount this result.
  std::string header = "{\"header\": {\"workload\": " +
                       JsonString(options.workload) +
                       ", \"seed\": " + std::to_string(options.seed) +
                       ", \"seconds\": " + Number(options.seconds) +
                       ", \"trace\": " + (options.trace ? "1" : "0") +
                       ", \"nproc\": " +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
                       ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
                       ", \"commit\": " + JsonString(commit) +
                       ", \"simd_dispatch\": " +
                       JsonString(nomloc::simd::TargetName(
                           nomloc::simd::ActiveTarget())) +
                       ", \"params\": {";
  for (std::size_t i = 0; i < outcome.params.size(); ++i) {
    if (i > 0) header += ", ";
    header += JsonString(outcome.params[i].first) + ": " +
              JsonString(outcome.params[i].second);
  }
  header += "}}}";
  std::printf("%s\n", header.c_str());

  for (const std::string& failure : outcome.failures)
    std::fprintf(stderr, "check failed: %s\n", failure.c_str());

  std::string result = "{\"correct\": ";
  result += outcome.failures.empty() ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(outcome.attempted) +
            ", \"failed\": " + std::to_string(outcome.failed) +
            ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : outcome.metrics) {
    if (!first) result += ", ";
    first = false;
    result += JsonString(name) + ": " + Number(value);
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  return outcome.failures.empty() ? 0 : 1;
}
