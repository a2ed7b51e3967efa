#include "core/miner.hpp"

#include <cmath>

#include "core/kernels.hpp"
#include "support/error.hpp"

namespace hecmine::core {

void MinerEnv::validate() const {
  HECMINE_REQUIRE(reward > 0.0, "MinerEnv: reward must be positive");
  HECMINE_REQUIRE(fork_rate >= 0.0 && fork_rate < 1.0,
                  "MinerEnv: fork_rate must be in [0, 1)");
  HECMINE_REQUIRE(edge_success > 0.0 && edge_success <= 1.0,
                  "MinerEnv: edge_success must be in (0, 1]");
  HECMINE_REQUIRE(prices.edge > 0.0 && prices.cloud > 0.0,
                  "MinerEnv: prices must be positive");
  HECMINE_REQUIRE(edge_surcharge >= 0.0,
                  "MinerEnv: edge_surcharge must be non-negative");
  HECMINE_REQUIRE(budget >= 0.0, "MinerEnv: budget must be non-negative");
  HECMINE_REQUIRE(others.edge >= 0.0 && others.cloud >= 0.0,
                  "MinerEnv: opponent totals must be non-negative");
}

// The scalar entry points below are thin wrappers over the scalar
// kernels in core/kernels.cpp; the kernels mirror the historical
// expressions term for term, so these wrappers are bitwise-identical to
// the pre-kernel implementations on the smooth paths.

double miner_utility(const MinerEnv& env, const MinerRequest& own) {
  HECMINE_REQUIRE(own.edge >= 0.0 && own.cloud >= 0.0,
                  "miner_utility: requests must be non-negative");
  return utility_kernel(make_kernel_env(env), own.edge, own.cloud,
                        env.others.edge, env.others.grand());
}

double miner_penalized_utility(const MinerEnv& env, const MinerRequest& own) {
  return miner_utility(env, own) - env.edge_surcharge * own.edge;
}

std::pair<double, double> miner_utility_gradient(const MinerEnv& env,
                                                 const MinerRequest& own) {
  HECMINE_REQUIRE(env.others.grand() + own.total() > 0.0,
                  "miner_utility_gradient: empty network");
  double du_de = 0.0;
  double du_dc = 0.0;
  gradient_kernel(make_kernel_env(env), own.edge, own.cloud, env.others.edge,
                  env.others.grand(), du_de, du_dc);
  return {du_de, du_dc};
}

MinerRequest miner_interior_point(const MinerEnv& env) {
  env.validate();
  const double effective_edge_price = env.prices.edge + env.edge_surcharge;
  HECMINE_REQUIRE(effective_edge_price > env.prices.cloud,
                  "miner_interior_point requires P_e + mu > P_c");
  HECMINE_REQUIRE(env.others.edge > 0.0 && env.others.grand() > 0.0,
                  "miner_interior_point requires active opponents");
  // Paper Eq. (14) with lambda = 0:
  //   E = sigma_1 sqrt(E_{-i}),  sigma_1^2 = h beta R / (P_e - P_c)
  //   S = sigma_2 sqrt(S_{-i}),  sigma_2^2 = (1 - beta) R / P_c
  const double sigma1_sq = env.edge_success * env.fork_rate * env.reward /
                           (effective_edge_price - env.prices.cloud);
  const double sigma2_sq =
      (1.0 - env.fork_rate) * env.reward / env.prices.cloud;
  const double e_total = std::sqrt(sigma1_sq * env.others.edge);
  const double s_total = std::sqrt(sigma2_sq * env.others.grand());
  MinerRequest interior;
  interior.edge = e_total - env.others.edge;
  interior.cloud = s_total - env.others.grand() - interior.edge;
  return interior;
}

MinerRequest miner_best_response(const MinerEnv& env) {
  env.validate();
  return best_response_kernel(make_kernel_env(env), env.budget,
                              env.others.edge, env.others.grand());
}

}  // namespace hecmine::core
