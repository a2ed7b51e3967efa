#include "core/aggregate_oracle.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "core/kernels.hpp"
#include "support/error.hpp"
#include "support/telemetry.hpp"

namespace hecmine::core {

namespace {

constexpr std::uint32_t kEmptySlot = std::numeric_limits<std::uint32_t>::max();

/// The partition table's load bound. Below kSparseSlots slots the table
/// stays in cache and runs at load <= 1/8, so nearly every lookup hits on
/// its first probe; larger tables run at load <= 1/2, which bounds the
/// table to four slots per key when K approaches N.
constexpr std::size_t kSparseSlots = 4096;
bool over_loaded(std::size_t keys, std::size_t slots) {
  return keys * (slots < kSparseSlots ? 8 : 2) > slots;
}

/// Slot hash of a budget key. Keys compare with ==, so +0.0 and -0.0 must
/// share a slot; the mixer is murmur3's 64-bit finalizer.
std::size_t key_hash(double budget) {
  std::uint64_t h = budget == 0.0 ? 0 : std::bit_cast<std::uint64_t>(budget);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return static_cast<std::size_t>(h);
}

/// Doubles the open-addressing table and re-slots the keys seen so far.
void grow(std::vector<std::uint32_t>& slots,
          const std::vector<MinerClass>& keys) {
  slots.assign(2 * slots.size(), kEmptySlot);
  const std::size_t mask = slots.size() - 1;
  for (std::uint32_t k = 0; k < keys.size(); ++k) {
    std::size_t slot = key_hash(keys[k].budget) & mask;
    while (slots[slot] != kEmptySlot) slot = (slot + 1) & mask;
    slots[slot] = k;
  }
}

/// The class shape of a budget vector.
std::shared_ptr<const EquilibriumProfile::ClassShape> shape_of(
    const std::vector<double>& budgets) {
  auto shape = std::make_shared<EquilibriumProfile::ClassShape>();
  // Every miner of a one-class pool maps to class 0: a read pass that stops
  // at the first differing budget spares it the N-entry class map. N = 1
  // compares nothing, so the budget is checked on its own.
  if (!budgets.empty() &&
      std::all_of(budgets.begin() + 1, budgets.end(),
                  [&](double budget) { return budget == budgets[0]; })) {
    HECMINE_REQUIRE(budgets[0] >= 0.0,
                    "partition_budget_classes: budgets must be >= 0");
    shape->counts.push_back(static_cast<int>(budgets.size()));
    shape->budgets.push_back(budgets[0]);
    return shape;
  }
  ClassPartition partition = partition_budget_classes(budgets);
  shape->of = std::move(partition.class_of);
  shape->counts.reserve(partition.classes.size());
  shape->budgets.reserve(partition.classes.size());
  for (const MinerClass& cls : partition.classes) {
    shape->counts.push_back(cls.count);
    shape->budgets.push_back(cls.budget);
  }
  return shape;
}

}  // namespace

ClassPartition partition_budget_classes(const std::vector<double>& budgets) {
  // One pass numbers the classes in first-seen order through an
  // open-addressing table over the distinct keys (O(K) memory; an equal
  // key keeps its first-seen value, as an ordered map's emplace does).
  // Ranking the K keys then renumbers class_of in place, so the partition
  // is the ascending-key one: a pure function of the budget multiset, plus
  // the per-miner map of the original order.
  ClassPartition partition;
  std::vector<MinerClass>& seen = partition.classes;
  std::vector<std::uint32_t>& class_of = partition.class_of;
  class_of.resize(budgets.size());
  std::vector<std::uint32_t> slots(64, kEmptySlot);
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    const double budget = budgets[i];
    HECMINE_REQUIRE(budget >= 0.0,
                    "partition_budget_classes: budgets must be >= 0");
    const std::size_t mask = slots.size() - 1;
    std::size_t slot = key_hash(budget) & mask;
    while (slots[slot] != kEmptySlot && seen[slots[slot]].budget != budget)
      slot = (slot + 1) & mask;
    std::uint32_t id = slots[slot];
    if (id == kEmptySlot) {
      id = static_cast<std::uint32_t>(seen.size());
      slots[slot] = id;
      seen.push_back({budget, 0});
      if (over_loaded(seen.size(), slots.size())) grow(slots, seen);
    }
    class_of[i] = id;
    ++seen[id].count;
  }

  const std::size_t kn = seen.size();
  std::vector<std::uint32_t> order(kn);
  for (std::uint32_t k = 0; k < kn; ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return seen[a].budget < seen[b].budget;
  });
  std::vector<std::uint32_t> rank(kn);
  std::vector<MinerClass> ascending(kn);
  bool renumber = false;
  for (std::uint32_t r = 0; r < kn; ++r) {
    rank[order[r]] = r;
    ascending[r] = seen[order[r]];
    renumber = renumber || order[r] != r;
  }
  seen = std::move(ascending);
  if (renumber)
    for (std::uint32_t& k : class_of) k = rank[k];
  return partition;
}

FollowerOracle::FollowerOracle(
    NetworkParams params,
    std::shared_ptr<const EquilibriumProfile::ClassShape> shape,
    EdgeMode mode, const SolveContext& context)
    : params_(params),
      mode_(mode),
      options_(context.follower),
      miner_count_(0),
      shape_(std::move(shape)) {
  HECMINE_REQUIRE(shape_ != nullptr, "FollowerOracle: no class shape");
  const std::vector<int>& counts = shape_->counts;
  const std::vector<double>& keys = shape_->budgets;
  const std::size_t kn = counts.size();
  HECMINE_REQUIRE(kn >= 1, "FollowerOracle: no miners");
  HECMINE_REQUIRE(keys.size() == kn,
                  "FollowerOracle: class shape needs one budget per class");
  HECMINE_REQUIRE(keys.front() >= 0.0, "FollowerOracle: budget must be >= 0");
  std::int64_t n = 0;
  for (std::size_t k = 0; k < kn; ++k) {
    HECMINE_REQUIRE(counts[k] >= 1, "FollowerOracle: empty budget class");
    HECMINE_REQUIRE(k == 0 || keys[k - 1] < keys[k],
                    "FollowerOracle: class budgets must ascend strictly");
    n += counts[k];
  }
  HECMINE_REQUIRE(n <= std::numeric_limits<int>::max(),
                  "FollowerOracle: too many miners");
  miner_count_ = static_cast<int>(n);
  if (kn == 1) {
    HECMINE_REQUIRE(shape_->of.empty(),
                    "FollowerOracle: a one-class shape carries no class map");
  } else {
    HECMINE_REQUIRE(shape_->of.size() == static_cast<std::size_t>(n),
                    "FollowerOracle: class map needs one entry per miner");
    std::vector<int> members(kn, 0);
    for (const std::uint32_t k : shape_->of) {
      HECMINE_REQUIRE(k < kn, "FollowerOracle: class index out of range");
      ++members[k];
    }
    HECMINE_REQUIRE(members == counts,
                    "FollowerOracle: class map disagrees with class counts");
  }
  HECMINE_REQUIRE(options_.damping > 0.0 && options_.damping <= 1.0,
                  "FollowerOracle: damping must be in (0, 1]");
  instrument(context.telemetry);
}

FollowerOracle::FollowerOracle(NetworkParams params,
                               const std::vector<double>& budgets,
                               EdgeMode mode, const SolveContext& context)
    : FollowerOracle(params, shape_of(budgets), mode, context) {}

FollowerOracle::FollowerOracle(NetworkParams params, double budget, int n,
                               EdgeMode mode, const SolveContext& context)
    : FollowerOracle(params,
                     std::make_shared<const EquilibriumProfile::ClassShape>(
                         EquilibriumProfile::ClassShape{{}, {n}, {budget}}),
                     mode, context) {}

EquilibriumProfile FollowerOracle::single_class(
    const Prices& prices) const {
  const bool connected = mode_ == EdgeMode::kConnected;
  const KernelEnv env = make_kernel_env(
      params_, prices, connected ? params_.edge_success : 1.0, 0.0);
  const double n = static_cast<double>(miner_count_);
  const double budget = shape_->budgets.front();
  // The block is the whole pool, so nothing stays outside it.
  MinerRequest request = block_response_kernel(env, budget, n, 0.0, 0.0);
  if (auto* work = support::prof::current_block(); work != nullptr)
    work->add(support::prof::WorkField::kBestResponseEvals, 1);

  EquilibriumProfile out;
  if (!connected) {
    const double cap = params_.edge_capacity;
    const double tol = 1e-9 * (1.0 + cap);
    if (n * request.edge > cap + tol) {
      // The cap binds: e = E_max/n. With no outside aggregates a member's
      // contest marginals are (n-1)/n^2 times coeff/amount, so c maximizes
      // the block potential along that e in closed form (the budget
      // multiplier lambda prices a binding budget), and the shared
      // surcharge mu is what keeps e stationary (Table II, extended to
      // binding budgets).
      const double scale = (n - 1.0) / (n * n);
      const double e = cap / n;
      double c = std::max(0.0, scale * env.share_coeff / prices.cloud - e);
      double lambda = 0.0;
      if (prices.edge * e + prices.cloud * c > budget) {
        c = std::max(0.0, (budget - prices.edge * e) / prices.cloud);
        lambda = std::max(
            0.0, scale * env.share_coeff / (e + c) / prices.cloud - 1.0);
      }
      out.surcharge =
          std::max(0.0, scale * env.share_coeff / (e + c) +
                            scale * env.edge_coeff / e -
                            prices.edge * (1.0 + lambda));
      request = {e, c};
    }
    out.cap_active = n * request.edge >= cap - tol;
  }
  out.miner_count = miner_count_;
  out.classes = shape_;
  out.requests = {request};
  out.totals = {n * request.edge, n * request.cloud};
  const double others_edge = (n - 1.0) * request.edge;
  out.utilities = {utility_kernel(env, request.edge, request.cloud,
                                  others_edge,
                                  others_edge + (n - 1.0) * request.cloud)};
  out.converged = true;
  return out;
}

EquilibriumProfile FollowerOracle::fixed_point(
    const KernelEnv& env, std::vector<MinerRequest>& state) const {
  const std::size_t kn = shape_->counts.size();
  const std::vector<double>& budget = shape_->budgets;
  std::vector<double> count(kn);
  std::vector<double> e(kn);
  std::vector<double> c(kn);
  for (std::size_t k = 0; k < kn; ++k) {
    count[k] = static_cast<double>(shape_->counts[k]);
    e[k] = state[k].edge;
    c[k] = state[k].cloud;
  }
  // Classes are sorted by budget, so the richest is the last.
  const double richest = budget.back();

  // Aggregative best responses steepen with the (class-weighted) player
  // count, so a fixed damping can orbit: halve it when the residual stalls.
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
  out.classes = shape_;
  out.surcharge = env.surcharge;

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
    std::uint64_t sweep_br_evals = 0;
    // Joint block: the richest class's block response, taken over every
    // class at once, is the common request of all classes that can afford
    // it while its own budget is slack. Solving the block jointly matters:
    // class-by-class updates leave a near-degenerate redistribution mode
    // (aggregate fixed, shares drifting) whose Gauss-Seidel rate degrades
    // as 1 - O(1/count). Classes that cannot afford the common request
    // peel out and are settled one by one below; peeling shrinks the block
    // and raises the common request's cost, so the loop ends within K
    // rounds. The richest class never peels.
    std::fill(in_block.begin(), in_block.end(), static_cast<char>(1));
    MinerRequest common;
    bool block_ok = true;
    bool peeled_any = false;
    while (true) {
      double members = 0.0;
      double rest_e = total_e;
      double rest_s = total_e + total_c;
      for (std::size_t k = 0; k < kn; ++k) {
        if (!in_block[k]) continue;
        members += count[k];
        rest_e -= count[k] * e[k];
        rest_s -= count[k] * (e[k] + c[k]);
      }
      rest_e = std::max(0.0, rest_e);
      rest_s = std::max(0.0, rest_s);
      common = block_response_kernel(env, richest, members, rest_e, rest_s);
      ++sweep_br_evals;
      const double cost =
          env.price_edge * common.edge + env.price_cloud * common.cloud;
      if (!(cost < richest)) {
        // Even the richest budget binds: no common request exists.
        block_ok = false;
        break;
      }
      bool peeled = false;
      for (std::size_t k = 0; k < kn; ++k) {
        if (in_block[k] != 0 && budget[k] < cost) {
          in_block[k] = 0;
          peeled = true;
        }
      }
      if (!peeled) break;
      peeled_any = true;
    }
    if (!block_ok) std::fill(in_block.begin(), in_block.end(), 0);
    // An all-slack block (no class peeled) is the equilibrium itself: with
    // every class inside it nothing stays outside, so `common` does not
    // depend on the iterate, and every class affords it. Take it undamped;
    // the next sweep returns the same request and passes the tolerance.
    const double step = block_ok && !peeled_any ? 1.0 : damping;

    double change = 0.0;
    for (std::size_t k = 0; k < kn; ++k) {
      MinerRequest response = common;
      if (in_block[k] == 0) {
        // A class on its own: its exact block response to the rest.
        const double m = count[k];
        const double rest_e = std::max(0.0, total_e - m * e[k]);
        const double rest_g = rest_e + std::max(0.0, total_c - m * c[k]);
        response = block_response_kernel(env, budget[k], m, rest_e, rest_g);
        ++sweep_br_evals;
      }
      const double new_e = (1.0 - step) * e[k] + step * response.edge;
      const double new_c = (1.0 - step) * c[k] + step * response.cloud;
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
      work->add(support::prof::WorkField::kBestResponseEvals, sweep_br_evals);
    }
    if (telemetry != nullptr) {
      support::IterationProbe::Record record;
      record.solver = "aggregate.fixed_point";
      record.solve = solve_id;
      record.iteration = out.iterations;
      record.residual = change;
      record.tolerance = options_.tolerance;
      record.price_edge = env.price_edge;
      record.price_cloud = env.price_cloud;
      record.total_edge = total_e;
      record.total_cloud = total_c;
      record.step = env.surcharge;
      record.cap_active = env.surcharge > 0.0;
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
    state[k] = out.requests[k];  // warm start for the surcharge bisection
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
      const double current = penalized_utility_kernel(env, e[k], c[k], oe, og);
      const MinerRequest br = best_response_kernel(env, budget[k], oe, og);
      const double best =
          penalized_utility_kernel(env, br.edge, br.cloud, oe, og);
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

  // True (surcharge-free) utilities.
  out.utilities.resize(kn);
  for (std::size_t k = 0; k < kn; ++k) {
    const double oe = std::max(0.0, out.totals.edge - e[k]);
    const double og = oe + std::max(0.0, out.totals.cloud - c[k]);
    out.utilities[k] = utility_kernel(env, e[k], c[k], oe, og);
  }
  if (work != nullptr)
    work->add(support::prof::WorkField::kUtilityEvals,
              static_cast<std::uint64_t>(kn));
  return out;
}

EquilibriumProfile FollowerOracle::solve_classes(const Prices& prices) const {
  support::Telemetry* telemetry = support::current_telemetry();
  const support::SolveTrace::Scope span(
      telemetry != nullptr ? &telemetry->trace : nullptr,
      "oracle.aggregate.fixed_point");
  if (telemetry != nullptr) {
    telemetry->metrics.gauge("oracle.aggregate.classes")
        .set(static_cast<double>(class_count()));
    telemetry->metrics.counter("oracle.aggregate.solves").add();
  }
  if (class_count() == 1) return single_class(prices);

  const std::size_t kn = shape_->counts.size();
  const double dn = static_cast<double>(miner_count_);
  const double edge_cap = mode_ == EdgeMode::kConnected
                              ? std::numeric_limits<double>::infinity()
                              : params_.edge_capacity;
  // Per-class seeds: positive, away from the degenerate origin, jointly
  // below capacity in standalone mode, and clamped to the interior
  // equilibrium scale sigma^2 / n. A budget-scale seed overshoots the
  // aggregate by orders of magnitude at large n; the collapse back to
  // scale burns the stall-halving damping budget before the real
  // contraction even starts.
  const double h =
      mode_ == EdgeMode::kConnected ? params_.edge_success : 1.0;
  const KernelEnv env = make_kernel_env(params_, prices, h, 0.0);
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

  if (mode_ == EdgeMode::kConnected) return fixed_point(env, seed);

  // Standalone GNEP (Theorem 5): shared-multiplier decomposition. Solve
  // unconstrained first; when the cap binds, bisect the common surcharge to
  // complementarity E = E_max.
  // Every multiplier probe (initial, expansion, halving) counts as one
  // bisection iteration in the work profile.
  const auto count_probe = [] {
    if (auto* work = support::prof::current_block(); work != nullptr)
      work->add(support::prof::WorkField::kBisectionIters, 1);
  };
  count_probe();
  EquilibriumProfile unconstrained = fixed_point(env, seed);
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
    const EquilibriumProfile at_hi = fixed_point(with_surcharge(env, hi), seed);
    sweeps += at_hi.iterations;
    converged = converged && at_hi.converged;
    if (at_hi.totals.edge <= cap) break;
    lo = hi;
    hi *= 2.0;
    HECMINE_REQUIRE(hi < 1e30, "FollowerOracle: surcharge blowup");
  }
  for (int step = 0; step < 200; ++step) {
    count_probe();
    const double mid = 0.5 * (lo + hi);
    const EquilibriumProfile at_mid = fixed_point(with_surcharge(env, mid), seed);
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
  EquilibriumProfile last = fixed_point(with_surcharge(env, 0.5 * (lo + hi)), seed);
  sweeps += last.iterations;
  last.iterations = sweeps;
  last.cap_active = true;
  last.converged = converged && last.converged;
  return last;
}

}  // namespace hecmine::core
