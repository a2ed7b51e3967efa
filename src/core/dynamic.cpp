#include "core/dynamic.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/oracle.hpp"
#include "numerics/pga.hpp"
#include "numerics/projection.hpp"
#include "numerics/roots.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"

namespace hecmine::core {

namespace {

/// Certificate bound: the class solver's for pools of up to 1,000 miners.
constexpr double kResidualBound = 1e-9;

void check_config(const DynamicGameConfig& config) {
  config.params.validate();
  HECMINE_REQUIRE(config.prices.edge > 0.0 && config.prices.cloud > 0.0,
                  "dynamic game: prices must be positive");
  HECMINE_REQUIRE(config.budget > 0.0, "dynamic game: budget must be > 0");
  HECMINE_REQUIRE(config.edge_success > 0.0 && config.edge_success <= 1.0,
                  "dynamic game: edge_success must be in (0, 1]");
}

/// Focal win probability conditional on the miner count being k (the
/// bracketed term of Eq. 26's expectation).
double win_given_count(const DynamicGameConfig& config, const MinerRequest& own,
                       const MinerRequest& others_symmetric, int k) {
  const double beta = config.params.fork_rate;
  const double h = config.edge_success;
  const double opponents = static_cast<double>(k - 1);
  const double s_k = own.total() + opponents * others_symmetric.total();
  const double e_k = own.edge + opponents * others_symmetric.edge;
  double win = 0.0;
  if (s_k > 0.0) win += (1.0 - beta) * own.total() / s_k;
  if (own.edge > 0.0 && e_k > 0.0) win += beta * h * own.edge / e_k;
  return win;
}

/// phi(x) = sum_k P(k)(k-1)/(x+k-1)^2: a miner requesting x times the
/// mixture m earns marginal revenue K phi(x)/m per unit. phi(1) = G.
double share_kernel(const PopulationModel& population, double x) {
  double sum = 0.0;
  for (int k = std::max(2, population.min_miners());
       k <= population.max_miners(); ++k) {
    const double opponents = static_cast<double>(k - 1);
    const double spread = x + opponents;
    sum += population.pmf(k) * opponents / (spread * spread);
  }
  return sum;
}

/// KKT residual of `own` as a reply to `mixture` over the budget set, per
/// coin of spend: each component's marginal utility per coin must equal the
/// budget multiplier lambda where the component is positive and not exceed
/// it where it is zero, and lambda must vanish unless the budget binds.
double kkt_residual(const DynamicGameConfig& config,
                    const PopulationModel& population, const MinerRequest& own,
                    const MinerRequest& mixture) {
  const auto [du_de, du_dc] =
      dynamic_miner_gradient(config, population, own, mixture);
  const double per_coin[2] = {du_de / config.prices.edge,
                              du_dc / config.prices.cloud};
  const bool positive[2] = {own.edge > 0.0, own.cloud > 0.0};
  const double spent = request_cost(own, config.prices) / config.budget;
  const double lambda = std::max({0.0, positive[0] ? per_coin[0] : 0.0,
                                  positive[1] ? per_coin[1] : 0.0});
  double residual = std::max({0.0, spent - 1.0, lambda * (1.0 - spent)});
  for (int i = 0; i < 2; ++i) {
    const double gap = per_coin[i] - lambda;
    residual = std::max(residual, positive[i] ? std::abs(gap) : gap);
  }
  return residual;
}

}  // namespace

double dynamic_miner_utility(const DynamicGameConfig& config,
                             const PopulationModel& population,
                             const MinerRequest& own,
                             const MinerRequest& others_symmetric) {
  check_config(config);
  HECMINE_REQUIRE(own.edge >= 0.0 && own.cloud >= 0.0,
                  "dynamic game: requests must be non-negative");
  const double expected_win = population.expectation(
      [&](int k) { return win_given_count(config, own, others_symmetric, k); });
  return config.params.reward * expected_win -
         request_cost(own, config.prices);
}

MonteCarloUtility dynamic_miner_utility_monte_carlo(
    const DynamicGameConfig& config, const PopulationModel& population,
    const MinerRequest& own, const MinerRequest& others_symmetric,
    std::size_t samples, std::uint64_t seed, int threads) {
  check_config(config);
  HECMINE_REQUIRE(samples > 0, "dynamic MC: samples must be > 0");
  HECMINE_REQUIRE(own.edge >= 0.0 && own.cloud >= 0.0,
                  "dynamic game: requests must be non-negative");
  // The block layout is a function of `samples` alone — never of the
  // thread count — so every schedule draws the same substream for the
  // same block and the reduction below is bitwise reproducible.
  const std::size_t blocks = std::min<std::size_t>(samples, 64);
  support::Rng parent(seed);
  auto streams = parent.substreams(blocks);
  struct BlockSums {
    double sum = 0.0;
    double sum_sq = 0.0;
  };
  const auto run_block = [&](std::size_t block) {
    const std::size_t begin = block * samples / blocks;
    const std::size_t end = (block + 1) * samples / blocks;
    support::Rng& rng = streams[block];
    BlockSums sums;
    for (std::size_t draw = begin; draw < end; ++draw) {
      const int k = population.sample(rng);
      const double utility =
          config.params.reward *
              win_given_count(config, own, others_symmetric, k) -
          request_cost(own, config.prices);
      sums.sum += utility;
      sums.sum_sq += utility * utility;
    }
    return sums;
  };
  const auto per_block = support::parallel_map(blocks, run_block, threads);
  double sum = 0.0, sum_sq = 0.0;
  for (const auto& block : per_block) {  // fixed order: block index
    sum += block.sum;
    sum_sq += block.sum_sq;
  }
  MonteCarloUtility result;
  result.samples = samples;
  const double n = static_cast<double>(samples);
  result.estimate = sum / n;
  if (samples > 1) {
    const double variance =
        std::max(0.0, (sum_sq - sum * sum / n) / (n - 1.0));
    result.std_error = std::sqrt(variance / n);
  }
  return result;
}

std::pair<double, double> dynamic_miner_gradient(
    const DynamicGameConfig& config, const PopulationModel& population,
    const MinerRequest& own, const MinerRequest& others_symmetric) {
  check_config(config);
  const double beta = config.params.fork_rate;
  const double h = config.edge_success;
  double d_share = 0.0;  // d/d(e or c) of the (1-beta)(e+c)/S_k part
  double d_edge = 0.0;   // d/de of the beta h e/E_k part
  for (int k = population.min_miners(); k <= population.max_miners(); ++k) {
    const double mass = population.pmf(k);
    if (mass <= 0.0) continue;
    const double opponents = static_cast<double>(k - 1);
    const double s_others = opponents * others_symmetric.total();
    const double e_others = opponents * others_symmetric.edge;
    const double s_k = own.total() + s_others;
    const double e_k = own.edge + e_others;
    if (s_k > 0.0) d_share += mass * (1.0 - beta) * s_others / (s_k * s_k);
    if (e_k > 0.0) d_edge += mass * beta * h * e_others / (e_k * e_k);
  }
  const double r = config.params.reward;
  return {r * (d_share + d_edge) - config.prices.edge,
          r * d_share - config.prices.cloud};
}

MinerRequest dynamic_best_response(const DynamicGameConfig& config,
                                   const PopulationModel& population,
                                   const MinerRequest& others_symmetric) {
  check_config(config);
  const std::vector<double> prices{config.prices.edge, config.prices.cloud};
  const auto project = [&](const std::vector<double>& point) {
    return num::project_budget_set(point, prices, config.budget);
  };
  const auto objective = [&](const std::vector<double>& x) {
    return dynamic_miner_utility(config, population, {x[0], x[1]},
                                 others_symmetric);
  };
  const auto gradient = [&](const std::vector<double>& x) {
    const auto [du_de, du_dc] = dynamic_miner_gradient(
        config, population, {x[0], x[1]}, others_symmetric);
    return std::vector<double>{du_de, du_dc};
  };
  num::PgaOptions options;
  options.tolerance = 1e-11;
  options.max_iterations = 20000;
  options.initial_step = 0.1 / (config.prices.edge + config.prices.cloud);
  const std::vector<double> start{
      std::max(others_symmetric.edge, 1e-3),
      std::max(others_symmetric.cloud, 1e-3)};
  const auto pga = num::projected_gradient_ascent(objective, gradient, project,
                                                  start, options);
  return {pga.point[0], pga.point[1]};
}

TypedDynamicEquilibrium solve_dynamic_types(const DynamicGameConfig& config,
                                            const PopulationModel& population,
                                            const std::vector<MinerType>& types) {
  HECMINE_REQUIRE(!types.empty(), "dynamic types: at least one type");
  double fraction_total = 0.0;
  double smallest_budget = std::numeric_limits<double>::infinity();
  DynamicGameConfig typed = config;
  for (const auto& type : types) {
    typed.budget = type.budget;
    check_config(typed);
    HECMINE_REQUIRE(type.fraction > 0.0, "dynamic types: fractions positive");
    fraction_total += type.fraction;
    smallest_budget = std::min(smallest_budget, type.budget);
  }
  HECMINE_REQUIRE(std::abs(fraction_total - 1.0) < 1e-9,
                  "dynamic types: fractions must sum to 1");

  TypedDynamicEquilibrium result;
  result.requests.resize(types.size());
  // Theorem 3's price condition picks the face (docs/MATH.md §5). Per unit
  // of the mixture: its edge fraction rho, its cost c and K/p.
  const double beta = config.params.fork_rate;
  const double edge_weight = beta * config.edge_success;
  const double pe = config.prices.edge;
  const double pc = config.prices.cloud;
  double rho = 1.0;
  double unit_cost = pe;
  double demand = config.params.reward * (1.0 - beta + edge_weight) / pe;
  if (pc * (1.0 - beta + edge_weight) < (1.0 - beta) * pe) {
    rho = edge_weight * pc / ((1.0 - beta) * (pe - pc));
    unit_cost = pc * (1.0 - beta + edge_weight) / (1.0 - beta);
    demand = config.params.reward * (1.0 - beta) / pc;
  }
  // m(x): the mixture's total request when the slack types play x times it.
  const auto mixture_total = [&](double x) {
    return demand * share_kernel(population, x);
  };
  const double total_at_one = mixture_total(1.0);
  if (total_at_one <= 0.0) {  // no mass on k >= 2: no equilibrium
    result.residual = std::numeric_limits<double>::infinity();
    return result;
  }
  // The slack multiple x solves sum_t f_t min(x, B_t/(m(x) c)) = 1, whose
  // left side increases in x; with no binding type it is 1.
  double x = 1.0;
  if (smallest_budget < total_at_one * unit_cost) {
    x = num::decreasing_root_unbounded(
        [&](double multiple) {
          const double spend = mixture_total(multiple) * unit_cost;
          double share = 0.0;
          for (const auto& type : types)
            share += type.fraction * std::min(multiple, type.budget / spend);
          return 1.0 - share;
        },
        0.0, 1.0);
  }
  const double slack_units = x * mixture_total(x);
  for (std::size_t t = 0; t < types.size(); ++t) {
    const double units = std::min(slack_units, types[t].budget / unit_cost);
    result.requests[t] = {units * rho, units * (1.0 - rho)};
    result.mixture.edge += types[t].fraction * result.requests[t].edge;
    result.mixture.cloud += types[t].fraction * result.requests[t].cloud;
  }
  result.expected_total_edge = population.mean() * result.mixture.edge;

  for (std::size_t t = 0; t < types.size(); ++t) {
    typed.budget = types[t].budget;
    result.residual = std::max(
        result.residual,
        kkt_residual(typed, population, result.requests[t], result.mixture));
  }
  result.converged = result.residual <= kResidualBound;
  return result;
}

DynamicEquilibrium solve_dynamic_symmetric(const DynamicGameConfig& config,
                                           const PopulationModel& population) {
  const TypedDynamicEquilibrium typed =
      solve_dynamic_types(config, population, {{config.budget, 1.0}});
  DynamicEquilibrium result;
  result.request = typed.requests.front();
  result.expected_total_edge = typed.expected_total_edge;
  result.exceeds_capacity =
      result.expected_total_edge > config.params.edge_capacity;
  result.converged = typed.converged;
  result.residual = typed.residual;
  return result;
}

MinerRequest fixed_population_benchmark(const DynamicGameConfig& config,
                                        const PopulationModel& population,
                                        const SolveContext& context) {
  check_config(config);
  const int n = std::max(
      2, static_cast<int>(std::lround(population.nominal_mean())));
  NetworkParams params = config.params;
  params.edge_success = config.edge_success;
  const EquilibriumProfile profile = solve_followers_symmetric(
      params, config.prices, config.budget, n, EdgeMode::kConnected, context);
  return profile.request();
}

}  // namespace hecmine::core
