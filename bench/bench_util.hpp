// Shared helpers for the figure/table reproduction benches.
//
// Every bench prints its series as aligned ASCII tables (the rows the paper
// plots) and mirrors them to CSV under bench_out/ for plotting.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "support/cli.hpp"
#include "support/parallel.hpp"
#include "support/table.hpp"

namespace hecmine::bench {

/// Default parameters shared by the figure benches (the paper's small
/// network: 5 miners, R = 100, h = 0.9).
struct BenchDefaults {
  int miners = 5;
  double reward = 100.0;
  double fork_rate = 0.2;
  double edge_success = 0.9;
  double budget = 200.0;  // the simulation section's B_i = 200
};

/// Runs one scenario per sweep point concurrently on the shared pool and
/// returns the results in point order (so tables built from the returned
/// rows are identical to a serial loop's). `fn` must not touch shared
/// mutable state; give stochastic scenarios a per-point seed derived from
/// the point index. `threads` follows support::resolve_thread_count — pass
/// args.threads() so --threads / HECMINE_THREADS pick the executor count.
template <typename Point, typename Fn>
[[nodiscard]] auto sweep(const std::vector<Point>& points, Fn&& fn,
                         int threads = 0)
    -> std::vector<decltype(fn(points.front()))> {
  return support::parallel_map(
      points.size(), [&](std::size_t i) { return fn(points[i]); }, threads);
}

/// Prints the table and writes bench_out/<name>.csv.
inline void emit(const std::string& name, const support::Table& table,
                 int precision = 4) {
  support::print_section(std::cout, name);
  table.print(std::cout, precision);
  const std::string path = "bench_out/" + name + ".csv";
  table.write_csv(path);
  std::cout << "[csv] " << path << "\n";
}

}  // namespace hecmine::bench
