// Shared helpers for the figure-reproduction benches: the standard run
// configuration and paper-style series printers.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/strings.h"
#include "eval/runner.h"
#include "eval/scenario.h"

namespace nomloc::bench {

/// The full-size configuration used by every figure bench (the unit tests
/// run reduced versions of the same experiments).
inline eval::RunConfig PaperConfig(std::uint64_t seed) {
  eval::RunConfig cfg;
  cfg.packets_per_batch = 50;
  cfg.trials = 20;
  cfg.dwell_count = 8;
  cfg.seed = seed;
  return cfg;
}

/// Prints a CDF as rows of (error, F(error)) over an even grid, matching
/// the axes of the paper's CDF figures.
inline void PrintCdf(const std::string& label,
                     const std::vector<double>& errors, double x_max,
                     int rows = 11) {
  common::EmpiricalCdf cdf(errors);
  std::printf("  %s\n", label.c_str());
  for (int i = 0; i < rows; ++i) {
    const double x = x_max * double(i) / double(rows - 1);
    std::printf("    error <= %5.2f m : %5.1f %%\n", x, 100.0 * cdf.At(x));
  }
  std::printf("    mean %.2f m, median %.2f m, 90th pct %.2f m\n",
              common::Mean(errors), common::Percentile(errors, 0.5),
              common::Percentile(errors, 0.9));
}

/// Prints per-site bars (index, value, bar) — the Fig. 7 layout.
inline void PrintPerSiteBars(const std::string& label,
                             const std::vector<double>& values,
                             double max_value) {
  std::printf("  %s\n", label.c_str());
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::printf("    site %2zu : %6.3f |%s|\n", i + 1, values[i],
                common::AsciiBar(values[i], max_value, 40).c_str());
  }
}

}  // namespace nomloc::bench
