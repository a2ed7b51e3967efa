#include "core/aggregate_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "core/kernels.hpp"
#include "core/miner.hpp"
#include "support/error.hpp"
#include "support/telemetry.hpp"

namespace hecmine::core {

ClassPartition partition_budget_classes(const std::vector<double>& budgets) {
  // An ordered map assigns dense class indices in ascending budget order,
  // so the partition is a pure function of the budget multiset (plus the
  // per-miner map of the original order).
  std::map<double, std::uint32_t> index_of;
  for (double budget : budgets) {
    HECMINE_REQUIRE(budget >= 0.0,
                    "partition_budget_classes: budgets must be >= 0");
    index_of.emplace(budget, 0);
  }
  std::uint32_t next = 0;
  for (auto& [key, index] : index_of) index = next++;

  ClassPartition partition;
  partition.classes.resize(index_of.size());
  for (const auto& [key, index] : index_of)
    partition.classes[index].budget = key;
  partition.class_of.resize(budgets.size());
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    const std::uint32_t k = index_of.at(budgets[i]);
    partition.class_of[i] = k;
    ++partition.classes[k].count;
  }
  return partition;
}

ClassAggregateOracle::ClassAggregateOracle(NetworkParams params,
                                           const std::vector<double>& budgets,
                                           EdgeMode mode,
                                           MinerSolveOptions options)
    : params_(params),
      mode_(mode),
      options_(options),
      miner_count_(static_cast<int>(budgets.size())) {
  HECMINE_REQUIRE(!budgets.empty(), "ClassAggregateOracle: no miners");
  ClassPartition partition = partition_budget_classes(budgets);
  auto shape = std::make_shared<EquilibriumProfile::ClassShape>();
  shape->of = std::move(partition.class_of);
  shape->counts.reserve(partition.classes.size());
  shape->budgets.reserve(partition.classes.size());
  for (const MinerClass& cls : partition.classes) {
    shape->counts.push_back(cls.count);
    shape->budgets.push_back(cls.budget);
  }
  shape_ = std::move(shape);
}

EquilibriumProfile ClassAggregateOracle::fixed_point(
    const Prices& prices, double edge_success, double surcharge,
    std::vector<MinerRequest>& seed) const {
  const std::size_t kn = shape_->counts.size();
  // Structure-of-arrays class state: the sweep below touches these in
  // order, and the interior update is a straight sqrt/div chain over them.
  const std::vector<double>& budget = shape_->budgets;
  std::vector<double> count(kn);
  std::vector<double> e(kn);
  std::vector<double> c(kn);
  for (std::size_t k = 0; k < kn; ++k) {
    count[k] = static_cast<double>(shape_->counts[k]);
    e[k] = seed[k].edge;
    c[k] = seed[k].cloud;
  }

  // One env for every per-class solve in this fixed point: prices and the
  // surcharge are loop-invariant, so construction and validation are
  // hoisted out of the ~500-iteration boundary search below.
  const KernelEnv kenv = make_kernel_env(params_, prices, edge_success, surcharge);

  // Interior KKT constants (paper Eq. 14 with lambda = 0; identical to
  // miner_interior_point, hoisted out of the sweep).
  const double gap = prices.edge + surcharge - prices.cloud;
  const double sigma1_sq =
      gap > 0.0 ? edge_success * params_.fork_rate * params_.reward / gap : 0.0;
  const double sigma2_sq =
      (1.0 - params_.fork_rate) * params_.reward / prices.cloud;

  // Same stall-halving schedule as the dense sweep (solve_nep_batch):
  // aggregative best responses steepen with the (class-weighted) player
  // count, so a fixed damping can orbit.
  double damping = options_.damping;
  double best_residual = std::numeric_limits<double>::infinity();
  int stalled = 0;

  support::Telemetry* telemetry = support::current_telemetry();
  if (telemetry != nullptr && !telemetry->probe.armed()) telemetry = nullptr;
  const std::uint64_t solve_id =
      telemetry != nullptr ? telemetry->probe.next_solve_id() : 0;
  support::prof::ThreadWorkBlock* work = support::prof::current_block();

  EquilibriumProfile out;
  out.miner_count = miner_count_;
  out.symmetric = false;
  out.classes = shape_;
  out.surcharge = surcharge;

  // Interior closed form for a block of `members` miners all moving at
  // once against the frozen rest-of-pool aggregate `others`: stationarity
  // T = sqrt(sigma^2 (T - x)) with T = others + members * x is a quadratic
  // in the block-inclusive total T (positive root taken). members = 1
  // recovers the single-miner interior point T = sqrt(sigma^2 * others).
  const auto block_total = [](double sigma_sq, double others, double members) {
    const double half = (members - 1.0) * sigma_sq / (2.0 * members);
    return half + std::sqrt(half * half + sigma_sq * others / members);
  };

  std::vector<char> in_block(kn);
  double total_e = 0.0;
  double total_c = 0.0;
  for (int iteration = 0; iteration < options_.max_iterations; ++iteration) {
    out.iterations = iteration + 1;
    // Recompute the aggregates at sweep start (O(K)) so incremental
    // Gauss-Seidel updates cannot drift over thousands of sweeps.
    total_e = total_c = 0.0;
    for (std::size_t k = 0; k < kn; ++k) {
      total_e += count[k] * e[k];
      total_c += count[k] * c[k];
    }
    // Joint interior block. Every unconstrained miner plays the SAME
    // interior request (Eq. 14 with lambda = 0 is budget-independent), so
    // the whole block is solved at once by the quadratic above with
    // members = the block's miner count. Solving the block jointly — not
    // class by class — matters: per-class updates leave a near-degenerate
    // redistribution mode among interior classes (aggregate fixed, shares
    // drifting) whose Gauss-Seidel rate degrades as 1 - O(1/count), which
    // at 10^5+ miners per class never converges. Classes whose budget
    // cannot afford the common request peel out to the boundary search;
    // peeling shrinks the block and so raises the per-member request and
    // its cost, so the loop is monotone and ends within K rounds.
    double interior_e = 0.0;
    double interior_c = 0.0;
    std::fill(in_block.begin(), in_block.end(), static_cast<char>(1));
    bool block_ok = gap > 0.0 && sigma1_sq > 0.0;
    while (block_ok) {
      double members = 0.0;
      double rest_e = total_e;
      double rest_s = total_e + total_c;
      for (std::size_t k = 0; k < kn; ++k) {
        if (!in_block[k]) continue;
        members += count[k];
        rest_e -= count[k] * e[k];
        rest_s -= count[k] * (e[k] + c[k]);
      }
      if (members == 0.0) {
        block_ok = false;
        break;
      }
      rest_e = std::max(0.0, rest_e);
      rest_s = std::max(0.0, rest_s);
      const double t_e = block_total(sigma1_sq, rest_e, members);
      const double t_s = block_total(sigma2_sq, rest_s, members);
      interior_e = t_e - t_e * t_e / sigma1_sq;
      interior_c = t_s - t_s * t_s / sigma2_sq - interior_e;
      if (!(t_e > 0.0) || !(t_s > 0.0) || interior_e < 0.0 ||
          interior_c < 0.0) {
        // The price regime pins every optimum to a boundary segment; no
        // interior block exists at these aggregates.
        block_ok = false;
        break;
      }
      const double cost =
          prices.edge * interior_e + prices.cloud * interior_c;
      bool peeled = false;
      for (std::size_t k = 0; k < kn; ++k) {
        if (in_block[k] != 0 && budget[k] < cost) {
          in_block[k] = 0;
          peeled = true;
        }
      }
      if (!peeled) break;
    }
    if (!block_ok) std::fill(in_block.begin(), in_block.end(), 0);

    double change = 0.0;
    std::uint64_t sweep_br_evals = 0;
    for (std::size_t k = 0; k < kn; ++k) {
      MinerRequest response;
      if (in_block[k] != 0) {
        // Feasible interior stationary point => exact global best response
        // (joint concavity).
        response = {interior_e, interior_c};
      } else {
        // Boundary regime: iterate the representative best response to the
        // within-class consistent point, with a damping that backs off
        // when the whole-class move oscillates (the per-member response
        // steepens with the class count).
        const double m = count[k];
        const double rest_e = std::max(0.0, total_e - m * e[k]);
        const double rest_s =
            std::max(0.0, (total_e + total_c) - m * (e[k] + c[k]));
        double be = e[k];
        double bc = c[k];
        double inner_damping = 1.0;
        double prev_change = std::numeric_limits<double>::infinity();
        for (int inner = 0; inner < 500; ++inner) {
          const double others_e = std::max(0.0, rest_e + (m - 1.0) * be);
          const double others_s =
              std::max(0.0, rest_s + (m - 1.0) * (be + bc));
          const double others_g =
              others_e + std::max(0.0, others_s - others_e);
          const MinerRequest br =
              best_response_kernel(kenv, budget[k], others_e, others_g);
          ++sweep_br_evals;
          const double inner_e =
              (1.0 - inner_damping) * be + inner_damping * br.edge;
          const double inner_c =
              (1.0 - inner_damping) * bc + inner_damping * br.cloud;
          const double inner_change = std::max(std::abs(inner_e - be),
                                               std::abs(inner_c - bc));
          be = inner_e;
          bc = inner_c;
          if (inner_change < options_.tolerance) break;
          // A constant-amplitude orbit never strictly grows, so damp on
          // any non-decreasing step, not just growth.
          if (inner_change > 0.999 * prev_change) inner_damping *= 0.5;
          prev_change = inner_change;
        }
        response = {be, bc};
      }
      const double new_e = (1.0 - damping) * e[k] + damping * response.edge;
      const double new_c = (1.0 - damping) * c[k] + damping * response.cloud;
      change = std::max(change, std::abs(new_e - e[k]));
      change = std::max(change, std::abs(new_c - c[k]));
      total_e += count[k] * (new_e - e[k]);
      total_c += count[k] * (new_c - c[k]);
      e[k] = new_e;
      c[k] = new_c;
    }
    out.residual = change;
    if (work != nullptr) {
      work->add(support::prof::WorkField::kSweeps, 1);
      work->add(support::prof::WorkField::kConvergenceChecks, 1);
      if (sweep_br_evals != 0)
        work->add(support::prof::WorkField::kBestResponseEvals, sweep_br_evals);
    }
    if (telemetry != nullptr) {
      support::IterationProbe::Record record;
      record.solver = "aggregate.fixed_point";
      record.solve = solve_id;
      record.iteration = out.iterations;
      record.residual = change;
      record.tolerance = options_.tolerance;
      record.price_edge = prices.edge;
      record.price_cloud = prices.cloud;
      record.total_edge = total_e;
      record.total_cloud = total_c;
      record.step = surcharge;
      record.cap_active = surcharge > 0.0;
      telemetry->probe.record(record);
    }
    if (change < options_.tolerance) {
      out.converged = true;
      break;
    }
    if (change < 0.95 * best_residual) {
      best_residual = change;
      stalled = 0;
    } else if (++stalled >= 30 && damping > 0.02) {
      damping *= 0.5;
      stalled = 0;
    }
  }

  out.requests.resize(kn);
  for (std::size_t k = 0; k < kn; ++k) {
    out.requests[k] = {e[k], c[k]};
    seed[k] = out.requests[k];  // warm start for surcharge bisection
  }
  out.totals = {total_e, total_c};

  if (!out.converged) {
    // The movement test can floor at line-search noise while the point is
    // already exact; certify by class-level exploitability instead (every
    // miner of a class faces the same environment, so one best response
    // per class covers all N miners).
    double worst = 0.0;
    for (std::size_t k = 0; k < kn; ++k) {
      const double oe = std::max(0.0, out.totals.edge - e[k]);
      const double og = oe + std::max(0.0, out.totals.cloud - c[k]);
      const double current =
          penalized_utility_kernel(kenv, e[k], c[k], oe, og);
      const MinerRequest br = best_response_kernel(kenv, budget[k], oe, og);
      const double best =
          penalized_utility_kernel(kenv, br.edge, br.cloud, oe, og);
      worst = std::max(worst, best - current);
    }
    out.converged = worst <= 1e-7 * params_.reward;
    if (work != nullptr) {
      work->add(support::prof::WorkField::kBestResponseEvals,
                static_cast<std::uint64_t>(kn));
      work->add(support::prof::WorkField::kUtilityEvals,
                2 * static_cast<std::uint64_t>(kn));
    }
  }

  // True (surcharge-free) utilities, as in the dense finish_equilibrium.
  out.utilities.resize(kn);
  for (std::size_t k = 0; k < kn; ++k) {
    const double oe = std::max(0.0, out.totals.edge - e[k]);
    const double og = oe + std::max(0.0, out.totals.cloud - c[k]);
    out.utilities[k] = utility_kernel(kenv, e[k], c[k], oe, og);
  }
  if (work != nullptr)
    work->add(support::prof::WorkField::kUtilityEvals,
              static_cast<std::uint64_t>(kn));
  return out;
}

EquilibriumProfile ClassAggregateOracle::solve(const Prices& prices) const {
  params_.validate();
  HECMINE_REQUIRE(prices.edge > 0.0 && prices.cloud > 0.0,
                  "ClassAggregateOracle: prices must be positive");

  support::Telemetry* telemetry = support::current_telemetry();
  const support::SolveTrace::Scope span(
      telemetry != nullptr ? &telemetry->trace : nullptr,
      "oracle.aggregate.fixed_point");
  if (telemetry != nullptr) {
    telemetry->metrics.gauge("oracle.aggregate.classes")
        .set(static_cast<double>(class_count()));
    telemetry->metrics.counter("oracle.aggregate.solves").add();
  }

  const std::size_t kn = shape_->counts.size();
  const double dn = static_cast<double>(miner_count_);
  const double edge_cap = mode_ == EdgeMode::kConnected
                              ? std::numeric_limits<double>::infinity()
                              : params_.edge_capacity;
  // Per-class seeds: positive, away from the degenerate origin, jointly
  // below capacity in standalone mode, and — unlike the dense
  // seed_profile's budget-proportional guess — clamped to the interior
  // equilibrium scale sigma^2 / n. A budget-scale seed overshoots the
  // aggregate by orders of magnitude at large n; the collapse back to
  // scale burns the stall-halving damping budget before the real
  // contraction even starts.
  const double h =
      mode_ == EdgeMode::kConnected ? params_.edge_success : 1.0;
  const double gap0 = prices.edge - prices.cloud;
  const double e_scale =
      gap0 > 0.0
          ? h * params_.fork_rate * params_.reward / gap0 / dn
          : std::numeric_limits<double>::infinity();
  const double s_scale =
      (1.0 - params_.fork_rate) * params_.reward / prices.cloud / dn;
  std::vector<MinerRequest> seed(kn);
  for (std::size_t k = 0; k < kn; ++k) {
    const double b = shape_->budgets[k];
    const double edge_seed =
        std::min({0.25 * b / prices.edge, 0.5 * edge_cap / dn, e_scale});
    const double cloud_seed =
        std::min(0.25 * b / prices.cloud,
                 std::max(s_scale - edge_seed, 0.25 * s_scale));
    seed[k] = {edge_seed, cloud_seed};
  }

  if (mode_ == EdgeMode::kConnected)
    return fixed_point(prices, params_.edge_success, 0.0, seed);

  // Standalone GNEP (Theorem 5): shared-multiplier decomposition. Solve
  // unconstrained first; when the cap binds, bisect the common surcharge to
  // complementarity E = E_max, exactly as solve_symmetric_standalone does.
  // Every multiplier probe (initial, expansion, halving) counts as one
  // bisection iteration in the work profile.
  const auto count_probe = [] {
    if (auto* work = support::prof::current_block(); work != nullptr)
      work->add(support::prof::WorkField::kBisectionIters, 1);
  };
  count_probe();
  EquilibriumProfile unconstrained = fixed_point(prices, 1.0, 0.0, seed);
  int sweeps = unconstrained.iterations;
  const double cap = params_.edge_capacity;
  const double tol = 1e-9 * (1.0 + cap);
  if (unconstrained.totals.edge <= cap + tol) {
    unconstrained.cap_active = unconstrained.totals.edge >= cap - tol;
    return unconstrained;
  }

  // Seed the bracket from the sufficient-budget analytic multiplier so the
  // expansion loop rarely runs.
  const double analytic_mu =
      prices.cloud +
      params_.fork_rate * params_.reward * (dn - 1.0) / (dn * cap) -
      prices.edge;
  double lo = 0.0;
  double hi = std::max(0.25 * prices.edge, 2.0 * std::max(analytic_mu, 0.0));
  bool converged = unconstrained.converged;
  for (int expansion = 0; expansion < 80; ++expansion) {
    count_probe();
    const EquilibriumProfile at_hi = fixed_point(prices, 1.0, hi, seed);
    sweeps += at_hi.iterations;
    converged = converged && at_hi.converged;
    if (at_hi.totals.edge <= cap) break;
    lo = hi;
    hi *= 2.0;
    HECMINE_REQUIRE(hi < 1e30, "ClassAggregateOracle: surcharge blowup");
  }
  for (int step = 0; step < 200; ++step) {
    count_probe();
    const double mid = 0.5 * (lo + hi);
    const EquilibriumProfile at_mid = fixed_point(prices, 1.0, mid, seed);
    sweeps += at_mid.iterations;
    converged = converged && at_mid.converged;
    if (std::abs(at_mid.totals.edge - cap) <= tol) {
      lo = hi = mid;
      break;
    }
    if (at_mid.totals.edge > cap)
      lo = mid;
    else
      hi = mid;
    if (hi - lo <= 1e-14 * (1.0 + hi)) break;
  }
  count_probe();
  EquilibriumProfile last = fixed_point(prices, 1.0, 0.5 * (lo + hi), seed);
  sweeps += last.iterations;
  last.iterations = sweeps;
  last.cap_active = true;
  last.converged = converged && last.converged;
  return last;
}

std::unique_ptr<FollowerOracle> make_profile_oracle(
    const NetworkParams& params, const std::vector<double>& budgets,
    EdgeMode mode, const SolveContext& context) {
  HECMINE_REQUIRE(!budgets.empty(), "make_profile_oracle: no miners");
  const AggregateOracleOptions& aggregate = context.aggregate;
  if (aggregate.dispatch_threshold > 0 &&
      static_cast<int>(budgets.size()) >= aggregate.dispatch_threshold) {
    auto oracle = std::make_unique<ClassAggregateOracle>(params, budgets, mode,
                                                         context.follower);
    if (oracle->class_count() <= aggregate.max_classes) return oracle;
  }
  if (mode == EdgeMode::kConnected)
    return std::make_unique<ConnectedNepOracle>(params, budgets,
                                                context.follower);
  return std::make_unique<StandaloneGnepOracle>(
      params, budgets, GnepAlgorithm::kSharedPrice, context.follower);
}

}  // namespace hecmine::core
