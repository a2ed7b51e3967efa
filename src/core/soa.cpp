#include "core/soa.hpp"

#include "support/error.hpp"
#include "support/prof.hpp"

namespace hecmine::core {

namespace {

/// Accounts bytes staged across the AoS<->SoA boundary (both directions):
/// n miners x `lanes` double lanes each way.
void count_soa_bytes(std::size_t n, std::size_t lanes) {
  if (auto* work = support::prof::current_block(); work != nullptr)
    work->add(support::prof::WorkField::kSoaBytesMoved,
              static_cast<std::uint64_t>(n) * lanes * sizeof(double));
}

}  // namespace

void MinerBatch::resize(std::size_t n) {
  budget.resize(n);
  edge.resize(n);
  cloud.resize(n);
}

void MinerBatch::recompute_totals() noexcept {
  double e = 0.0;
  double c = 0.0;
  const std::size_t n = edge.size();
  for (std::size_t i = 0; i < n; ++i) {
    e += edge[i];
    c += cloud[i];
  }
  total_edge = e;
  total_cloud = c;
}

MinerBatch make_miner_batch(const std::vector<double>& budgets) {
  MinerBatch batch;
  batch.resize(budgets.size());
  batch.budget = budgets;
  count_soa_bytes(budgets.size(), 1);  // budget lane in
  return batch;
}

MinerBatch make_miner_batch(const std::vector<double>& budgets,
                            const std::vector<MinerRequest>& requests) {
  HECMINE_REQUIRE(budgets.size() == requests.size(),
                  "make_miner_batch: budget/request size mismatch");
  MinerBatch batch = make_miner_batch(budgets);
  load_requests(batch, requests);
  return batch;
}

void load_requests(MinerBatch& batch,
                   const std::vector<MinerRequest>& requests) {
  HECMINE_REQUIRE(requests.size() == batch.size(),
                  "load_requests: batch/request size mismatch");
  for (std::size_t i = 0; i < requests.size(); ++i) {
    batch.edge[i] = requests[i].edge;
    batch.cloud[i] = requests[i].cloud;
  }
  batch.recompute_totals();
  count_soa_bytes(requests.size(), 2);  // edge + cloud lanes in
}

std::vector<MinerRequest> extract_requests(const MinerBatch& batch) {
  std::vector<MinerRequest> requests(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    requests[i] = {batch.edge[i], batch.cloud[i]};
  count_soa_bytes(batch.size(), 2);  // edge + cloud lanes out
  return requests;
}

}  // namespace hecmine::core
