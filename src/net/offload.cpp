#include "net/offload.hpp"

#include <algorithm>
#include <numeric>

#include "support/error.hpp"

namespace hecmine::net {

void EdgePolicy::validate() const {
  if (mode == core::EdgeMode::kConnected) {
    HECMINE_REQUIRE(success_prob > 0.0 && success_prob <= 1.0,
                    "EdgePolicy: success_prob must be in (0, 1]");
  } else {
    HECMINE_REQUIRE(capacity > 0.0, "EdgePolicy: capacity must be positive");
  }
}

namespace {

ServiceRecord base_record(const core::MinerRequest& request,
                          const core::Prices& prices) {
  ServiceRecord record;
  record.requested = request;
  record.granted = {request.edge, request.cloud};
  record.payment_edge = prices.edge * request.edge;
  record.payment_cloud = prices.cloud * request.cloud;
  return record;
}

void apply_transfer(ServiceRecord& record) {
  record.granted = {0.0, record.requested.total()};
  record.edge_status = ServiceStatus::kTransferred;
}

void apply_rejection(ServiceRecord& record) {
  record.granted = {0.0, record.requested.cloud};
  record.edge_status = ServiceStatus::kRejected;
}

}  // namespace

std::vector<ServiceRecord> admit_requests(
    const std::vector<core::MinerRequest>& requests, const EdgePolicy& policy,
    const core::Prices& prices, support::Rng& rng) {
  policy.validate();
  const bool connected = policy.mode == core::EdgeMode::kConnected;
  std::vector<ServiceRecord> records;
  records.reserve(requests.size());
  for (const auto& request : requests) {
    HECMINE_REQUIRE(request.edge >= 0.0 && request.cloud >= 0.0,
                    "admit_requests: requests must be non-negative");
    ServiceRecord& record = records.emplace_back(base_record(request, prices));
    // Connected: each edge request draws its own transfer, in request
    // order, as its record is built.
    if (connected && request.edge > 0.0 &&
        !rng.bernoulli(policy.success_prob))
      apply_transfer(record);
  }
  if (connected) return records;

  // Standalone: first-come-first-served in a random arrival order; a
  // request that does not fully fit is rejected outright (no partial
  // service — the paper's degraded form is [0, c_i]).
  std::vector<std::size_t> order(records.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::shuffle(order.begin(), order.end(), rng.engine());
  double remaining = policy.capacity;
  for (std::size_t index : order) {
    auto& record = records[index];
    if (record.requested.edge <= 0.0) continue;
    if (record.requested.edge <= remaining) {
      remaining -= record.requested.edge;
    } else {
      apply_rejection(record);
    }
  }
  return records;
}

std::vector<ServiceRecord> admit_requests_focal(
    const std::vector<core::MinerRequest>& requests, const EdgePolicy& policy,
    const core::Prices& prices, std::size_t focal, bool fail_focal) {
  policy.validate();
  HECMINE_REQUIRE(focal < requests.size(),
                  "admit_requests_focal: focal index out of range");
  std::vector<ServiceRecord> records;
  records.reserve(requests.size());
  for (const auto& request : requests)
    records.push_back(base_record(request, prices));
  if (fail_focal && requests[focal].edge > 0.0) {
    if (policy.mode == core::EdgeMode::kConnected)
      apply_transfer(records[focal]);
    else
      apply_rejection(records[focal]);
  }
  return records;
}

}  // namespace hecmine::net
