// Structure-of-arrays follower workspace (the data half of the kernel
// layer; the compute half lives in core/kernels.hpp).
//
// The profile solvers historically walked std::vector<MinerRequest> — an
// array-of-structs whose per-miner loads interleave edge and cloud
// coordinates and whose opponent aggregates were re-summed per miner
// (O(n^2) per sweep). MinerBatch stores the same state as contiguous
// double arrays plus running totals so the sweep kernels of
// core/kernels.cpp are flat, branch-light loops over double* spans, and
// the opponent aggregate of miner i is two subtractions.
//
// Converters are exact: AoS -> SoA -> AoS round-trips bit-for-bit (each
// coordinate is copied, never recomputed). Totals are sums of the entries
// in index order, matching core::aggregate().
#pragma once

#include <cstddef>
#include <vector>

#include "core/types.hpp"

namespace hecmine::core {

/// Contiguous per-miner solver state for batched sweeps.
struct MinerBatch {
  std::vector<double> budget;  ///< B_i (never mutated by the sweeps)
  std::vector<double> edge;    ///< e_i of the current iterate
  std::vector<double> cloud;   ///< c_i of the current iterate

  /// Running aggregates of edge[] / cloud[]. The Gauss-Seidel driver
  /// updates these incrementally and re-sums at every convergence
  /// checkpoint so drift stays bounded.
  double total_edge = 0.0;
  double total_cloud = 0.0;

  [[nodiscard]] std::size_t size() const noexcept { return budget.size(); }

  /// Resizes every span to n miners (values untouched where preserved by
  /// std::vector::resize; new entries zero).
  void resize(std::size_t n);

  /// Exact O(n) re-summation of the running totals in index order
  /// (identical association to core::aggregate()).
  void recompute_totals() noexcept;
};

/// Builds a batch from per-miner budgets with zeroed requests.
[[nodiscard]] MinerBatch make_miner_batch(const std::vector<double>& budgets);

/// Builds a batch from budgets plus an AoS seed profile (sizes must match).
[[nodiscard]] MinerBatch make_miner_batch(
    const std::vector<double>& budgets,
    const std::vector<MinerRequest>& requests);

/// Overwrites the batch iterate from an AoS profile (exact copy) and
/// refreshes the running totals.
void load_requests(MinerBatch& batch, const std::vector<MinerRequest>& requests);

/// Extracts the current iterate as an AoS profile (exact copy).
[[nodiscard]] std::vector<MinerRequest> extract_requests(const MinerBatch& batch);

}  // namespace hecmine::core
