#include "core/aggregate_oracle.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "core/kernels.hpp"
#include "support/error.hpp"
#include "support/prof.hpp"

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

/// The certificate's bounds. The totals must match the class sums to
/// kTotalsTolerance, and each class's request must match its best response
/// to kResidualPerMiner * max(N, 1000), both relative. A reply moves by
/// about N/2 times any relative error in the others' totals, so the
/// residual bound grows with N.
constexpr double kTotalsTolerance = 1e-9;
constexpr double kResidualPerMiner = 1e-12;

/// The largest class residual at which a slack class keeps the one-class
/// closed form's rounding (solve_classes): about what the cancellation-free
/// share form reaches at N = 1000.
constexpr double kRoundingResidual = 1e-11;

/// Relative slack of the share scan's consistency test, so that a class
/// whose budget ties its unconstrained spend passes on either side.
constexpr double kTieSlack = 1e-12;

/// Standalone mode with the cap binding: a class's request at totals
/// (E, S) that include it, under the surcharge mu. At such totals the
/// class's KKT system is that of the concave quadratic
///   q(e, s) = -A (S - s)^2 / (2 S^2) - H (E - e)^2 / (2 E^2)
///             - (P_e - P_c + mu) e - P_c s,        s = e + c,
/// over its budget triangle (docs/MATH.md), so the request is q's
/// maximizer: the stationary point if it is feasible, else the best of the
/// maximizers along the budget line and the two axes.
MinerRequest request_at_totals(const KernelEnv& env, double budget,
                               double mu, double edge, double grand) {
  const double alpha = env.share_coeff / (grand * grand);
  const double eta = env.edge_coeff / (edge * edge);
  const double pe = env.price_edge;
  const double pc = env.price_cloud;
  const double edge_price = pe - pc + mu;  // q's price of e at fixed s
  if (eta > 0.0) {
    const double s = grand - pc / alpha;
    const double e = edge - edge_price / eta;
    if (e >= 0.0 && s >= e && pe * e + pc * (s - e) <= budget)
      return {e, s - e};
  }
  // q up to its constant term, which would swamp the candidates' gaps.
  const auto value = [&](const MinerRequest& r) {
    const double s = r.total();
    return alpha * s * (grand - 0.5 * s) +
           eta * r.edge * (edge - 0.5 * r.edge) - edge_price * r.edge -
           pc * s;
  };
  const double max_edge = budget / pe;
  // On the budget line c = (B - P_e e)/P_c, s = B/P_c - slope e, so q is
  // a concave quadratic in e there.
  const double slope = (pe - pc) / pc;
  const double rise = eta * edge - mu - slope * alpha * (grand - budget / pc);
  const double bend = slope * slope * alpha + eta;
  const double line_e = std::clamp(
      bend > 0.0 ? rise / bend : (rise > 0.0 ? max_edge : 0.0), 0.0, max_edge);
  MinerRequest best{line_e, std::max(0.0, (budget - pe * line_e) / pc)};
  double best_value = value(best);
  const MinerRequest edge_axis{
      std::clamp((alpha * grand + eta * edge - pe - mu) / (alpha + eta), 0.0,
                 max_edge),
      0.0};
  const MinerRequest cloud_axis{
      0.0, std::clamp(grand - pc / alpha, 0.0, budget / pc)};
  for (const MinerRequest& candidate : {edge_axis, cloud_axis}) {
    const double candidate_value = value(candidate);
    if (candidate_value > best_value) {
      best_value = candidate_value;
      best = candidate;
    }
  }
  return best;
}

/// Narrows a bracket [lo, hi] of a root of f, where f(lo) > 0 > f(hi), by
/// the Illinois variant of regula falsi: exact in one step on a linear
/// piece, superlinear on a smooth one, never outside the bracket. Stops
/// when the bracket is a few ulps wide or after `limit` evaluations, and
/// returns the regula-falsi point of the final bracket (the certificate
/// judges it). f_lo and f_hi hold the true values at the bracket's ends.
template <typename Fn>
double falling_root(Fn&& f, double& lo, double& f_lo, double& hi,
                    double& f_hi, int limit) {
  if (!(f_lo > 0.0)) {
    hi = lo;
    return lo;
  }
  if (!(f_hi < 0.0)) {
    lo = hi;
    return hi;
  }
  double g_lo = f_lo;  // Illinois-weighted ends
  double g_hi = f_hi;
  int side = 0;
  for (int step = 0; step < limit; ++step) {
    double x = (lo * g_hi - hi * g_lo) / (g_hi - g_lo);
    if (!(x > lo && x < hi)) x = 0.5 * (lo + hi);
    if (!(x > lo && x < hi) || hi - lo <= 4e-16 * hi) break;
    const double fx = f(x);
    if (fx == 0.0) {
      lo = hi = x;
      return x;
    }
    if (fx > 0.0) {
      lo = x;
      f_lo = g_lo = fx;
      if (side > 0) g_hi *= 0.5;
      side = 1;
    } else {
      hi = x;
      f_hi = g_hi = fx;
      if (side < 0) g_lo *= 0.5;
      side = -1;
    }
  }
  return (lo * f_hi - hi * f_lo) / (f_hi - f_lo);
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

/// Solves the share equation
///   sum_k m_k min(u, B_k / ((1 - u) Q)) = 1,   Q = R (1 - beta + beta h),
/// whose left side increases in the slack share u (docs/MATH.md). No
/// shares when fewer than two miners hold a budget: then no root lies in
/// (0, 1).
FollowerOracle::Shares FollowerOracle::solve_shares(
    const EquilibriumProfile::ClassShape& shape, double spend_scale) {
  const std::vector<int>& counts = shape.counts;
  const std::vector<double>& budgets = shape.budgets;
  const std::size_t kn = counts.size();
  double miners = 0.0;
  for (const int count : counts) miners += count;
  Shares out;
  if (miners - (budgets.front() > 0.0 ? 0.0 : counts.front()) < 2.0)
    return out;
  // A class binds iff B_k < u (1 - u) Q, so the binding classes are a
  // prefix of the ascending budgets. Prefix j solves the quadratic
  //   a u (1 - u) + w = 1 - u,   a = miners outside it, w = its spend / Q,
  // whose smaller root u and its complement v = 1 - u are both taken in
  // cancellation-free form (j = 0 gives u = 1/N exactly). The first prefix
  // consistent with its own root is the answer.
  double bound_miners = 0.0;
  double bound_spend = 0.0;
  double best_miss = std::numeric_limits<double>::infinity();
  double share = 0.0;
  for (std::size_t j = 0; j <= kn; ++j) {
    if (j > 0) {
      bound_miners += counts[j - 1];
      bound_spend += counts[j - 1] * budgets[j - 1] / spend_scale;
    }
    if (!(bound_spend < 1.0)) break;
    const double a = miners - bound_miners;
    const double root =
        std::sqrt((a - 1.0) * (a - 1.0) + 4.0 * a * bound_spend);
    const double u = 2.0 * (1.0 - bound_spend) / (a + 1.0 + root);
    const double numerator = a > 0.0 ? a - 1.0 + root : bound_spend;
    const double denominator = a > 0.0 ? 2.0 * a : 1.0;
    const double unbound_spend = u * (numerator / denominator) * spend_scale;
    double miss = 0.0;
    if (j > 0) miss = std::max(miss, budgets[j - 1] / unbound_spend - 1.0);
    if (j < kn) miss = std::max(miss, 1.0 - budgets[j] / unbound_spend);
    if (miss < best_miss) {
      best_miss = miss;
      share = u;
      out.bound = j;
      out.rest_numerator = numerator;
      out.rest_denominator = denominator;
    }
    if (miss <= kTieSlack) break;
  }
  out.of_class.assign(kn, share);
  const double rest = out.rest_numerator / out.rest_denominator;
  for (std::size_t k = 0; k < out.bound; ++k)
    out.of_class[k] = budgets[k] / (rest * spend_scale);
  return out;
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
  // Q is R(1 - beta + beta h), summed as make_kernel_env's coefficients.
  const double h =
      mode_ == EdgeMode::kConnected ? params_.edge_success : 1.0;
  shares_ = solve_shares(*shape_,
                         params_.reward * (1.0 - params_.fork_rate) +
                             params_.reward * params_.fork_rate * h);
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

EquilibriumProfile FollowerOracle::solve_classes(const Prices& prices) const {
  const bool connected = mode_ == EdgeMode::kConnected;
  const KernelEnv env = make_kernel_env(
      params_, prices, connected ? params_.edge_success : 1.0, 0.0);
  const std::vector<int>& counts = shape_->counts;
  const std::size_t kn = counts.size();

  EquilibriumProfile out;
  out.miner_count = miner_count_;
  out.classes = shape_;
  out.requests.resize(kn);
  if (shares_.of_class.empty()) {
    // At most one miner holds a budget. It faces no opponents, so it plays
    // the epsilon-probe best response; a zero budget requests nothing.
    for (std::size_t k = 0; k < kn; ++k) {
      out.requests[k] =
          best_response_kernel(env, shape_->budgets[k], 0.0, 0.0);
      out.totals.edge += counts[k] * out.requests[k].edge;
      out.totals.cloud += counts[k] * out.requests[k].cloud;
    }
    certify(env, out, true);
    return out;
  }

  // The totals are the rest share 1 - u times closed-form scales
  // (docs/MATH.md): under Theorem 3's mixed-price condition both contest
  // terms are interior, E = (1 - u) sigma_1^2 and S = (1 - u) sigma_2^2;
  // otherwise every class sits on the edge axis.
  const double spend = env.share_coeff + env.edge_coeff;
  const bool mixed = prices.cloud * spend < prices.edge * env.share_coeff;
  const double numerator = shares_.rest_numerator;
  const double denominator = shares_.rest_denominator;
  const double edge = mixed ? numerator * env.sigma1_sq / denominator
                            : numerator * spend / (denominator * prices.edge);
  const double grand = mixed ? numerator * env.sigma2_sq / denominator : edge;
  const auto share_requests = [&](std::size_t from) {
    for (std::size_t k = from; k < kn; ++k)
      out.requests[k] = {shares_.of_class[k] * edge,
                         shares_.of_class[k] * (grand - edge)};
    out.totals = {edge, grand - edge};
  };
  share_requests(0);
  // A slack class requests u E = E - E^2/sigma_1^2 (likewise S). The
  // one-class closed form has always rounded it the second way, and the
  // leader stages' exact-repeat cycle test turns on the last bit of these
  // totals, so that rounding stays wherever it is accurate. It loses about
  // N ulps to cancellation, so a pool whose residual it pushes past
  // kRoundingResidual takes u E.
  bool one_class_rounding =
      mixed && env.sigma1_sq > 0.0 && shares_.bound < kn;
  if (one_class_rounding) {
    for (std::size_t k = shares_.bound; k < kn; ++k) {
      MinerRequest& request = out.requests[k];
      request.edge = edge - edge * edge / env.sigma1_sq;
      request.cloud =
          std::max(0.0, grand - grand * grand / env.sigma2_sq - request.edge);
    }
  }

  KernelEnv at = env;
  bool closed_form = true;
  if (!connected) {
    const double cap = params_.edge_capacity;
    const double tol = 1e-9 * (1.0 + cap);
    if (out.totals.edge > cap + tol) {
      at = solve_cap(env, out);
      closed_form = out.iterations == 0;
      one_class_rounding = false;
    }
    out.cap_active = out.totals.edge >= cap - tol;
  }
  certify(at, out, closed_form);
  if (one_class_rounding &&
      !(out.converged && out.residual <= kRoundingResidual)) {
    share_requests(shares_.bound);
    certify(at, out, closed_form);
  }
  return out;
}

KernelEnv FollowerOracle::solve_cap(const KernelEnv& env,
                                    EquilibriumProfile& out) const {
  const std::vector<int>& counts = shape_->counts;
  const std::vector<double>& budgets = shape_->budgets;
  const std::size_t kn = counts.size();
  const double cap = params_.edge_capacity;
  const double n = static_cast<double>(miner_count_);
  const double pe = env.price_edge;
  const double pc = env.price_cloud;

  // The symmetric cap request: e = E_max/n, and with no outside aggregates
  // a member's contest marginals are (n-1)/n^2 times coeff/amount, so c, the
  // budget multiplier lambda and the shared surcharge mu follow from its
  // KKT conditions in closed form (Table II, extended to binding budgets).
  // When the poorest class affords it, every class plays it.
  const double scale = (n - 1.0) / (n * n);
  const double e = cap / n;
  double c = std::max(0.0, scale * env.share_coeff / pc - e);
  if (kn == 1 || pe * e + pc * c <= budgets.front()) {
    double lambda = 0.0;
    if (pe * e + pc * c > budgets.front()) {
      c = std::max(0.0, (budgets.front() - pe * e) / pc);
      lambda = std::max(0.0, scale * env.share_coeff / (e + c) / pc - 1.0);
    }
    out.surcharge = std::max(0.0, scale * env.share_coeff / (e + c) +
                                      scale * env.edge_coeff / e -
                                      pe * (1.0 + lambda));
    std::fill(out.requests.begin(), out.requests.end(), MinerRequest{e, c});
    out.totals = {n * e, n * c};
    return with_surcharge(env, out.surcharge);
  }

  // Otherwise the unknowns are mu and the grand total S. The edge sum falls
  // in mu at fixed S and reaches 0 at mu = A/S + H/E_max; the grand total's
  // gap is positive below its root and negative above it. So both roots are
  // bracketed, each narrowed by falling_root within max_iterations steps.
  const int limit = options_.max_iterations;
  int steps = 0;
  const auto settle = [&](double mu, double grand) {
    Totals sums;
    for (std::size_t k = 0; k < kn; ++k) {
      out.requests[k] = request_at_totals(env, budgets[k], mu, cap, grand);
      sums.edge += counts[k] * out.requests[k].edge;
      sums.cloud += counts[k] * out.requests[k].cloud;
    }
    ++steps;
    return sums;
  };
  // The classes at S: mu(S) meets the cap, and the requests are
  // interpolated within mu's final bracket. That is exact where the edge
  // sum is linear in mu, and it splits the classes where the sum jumps:
  // with no edge bonus (H = 0), a class whose budget is slack is
  // indifferent between edge and cloud units at mu = P_c - P_e.
  std::vector<MinerRequest> upper(kn);
  const auto settle_at = [&](double grand) {
    out.surcharge = 0.0;
    const Totals unsurcharged = settle(0.0, grand);
    double lo = 0.0;
    double f_lo = unsurcharged.edge - cap;
    double hi = env.share_coeff / grand + env.edge_coeff / cap;
    double f_hi = -cap;
    if (!(f_lo > 0.0)) return unsurcharged;
    out.surcharge = falling_root(
        [&](double mu) { return settle(mu, grand).edge - cap; }, lo, f_lo,
        hi, f_hi, limit);
    if (env.edge_coeff == 0.0 &&
        std::abs(out.surcharge - (pc - pe)) <= 1e-12 * pc)
      out.surcharge = pc - pe;
    const double weight = hi > lo ? f_lo / (f_lo - f_hi) : 0.0;
    (void)settle(hi, grand);
    upper = out.requests;
    (void)settle(lo, grand);
    Totals sums;
    for (std::size_t k = 0; k < kn; ++k) {
      MinerRequest& request = out.requests[k];
      request.edge += weight * (upper[k].edge - request.edge);
      request.cloud += weight * (upper[k].cloud - request.cloud);
      sums.edge += counts[k] * request.edge;
      sums.cloud += counts[k] * request.cloud;
    }
    return sums;
  };
  const auto grand_gap = [&](double grand) {
    return settle_at(grand).grand() - grand;
  };
  // Bracket S by doubling away from the cap-free grand total.
  double lo = out.totals.grand();
  double f_lo = grand_gap(lo);
  double hi = lo;
  double f_hi = f_lo;
  for (int doubling = 0; doubling < 64 && f_hi > 0.0; ++doubling) {
    lo = hi;
    f_lo = f_hi;
    hi = 2.0 * lo;
    f_hi = grand_gap(hi);
  }
  for (int halving = 0; halving < 64 && f_lo < 0.0; ++halving) {
    hi = lo;
    f_hi = f_lo;
    lo = 0.5 * hi;
    f_lo = grand_gap(lo);
  }
  const double grand = falling_root(grand_gap, lo, f_lo, hi, f_hi, limit);
  (void)settle_at(grand);
  out.totals = {cap, grand - cap};
  out.iterations = steps;
  if (auto* work = support::prof::current_block(); work != nullptr)
    work->add(support::prof::WorkField::kBisectionIters,
              static_cast<std::uint64_t>(steps));
  return with_surcharge(env, out.surcharge);
}

void FollowerOracle::certify(const KernelEnv& env, EquilibriumProfile& out,
                             bool report_sums) const {
  const std::vector<int>& counts = shape_->counts;
  const std::size_t kn = counts.size();
  // The totals the solve aimed at must be the class sums. A closed form
  // reports the sums, as the one-class closed form always did; the cap
  // root reports its own totals, to which every class's request is an
  // exact best response (its sums carry the root's residual, amplified
  // about N times by cancellation in the class requests).
  Totals sums;
  for (std::size_t k = 0; k < kn; ++k) {
    sums.edge += counts[k] * out.requests[k].edge;
    sums.cloud += counts[k] * out.requests[k].cloud;
  }
  const auto consistent = [](double sum, double total) {
    return std::abs(sum - total) <= kTotalsTolerance * total;
  };
  const bool totals_ok = consistent(sums.edge, out.totals.edge) &&
                         consistent(sums.grand(), out.totals.grand());
  if (report_sums) out.totals = sums;
  // With no edge bonus and equal effective prices, edge and cloud units are
  // interchangeable: only a class's total request is determined.
  const bool split_free =
      env.edge_coeff == 0.0 &&
      std::abs(env.effective_edge_price - env.price_cloud) <=
          4e-16 * env.price_cloud;
  double residual = 0.0;
  out.utilities.resize(kn);
  for (std::size_t k = 0; k < kn; ++k) {
    const MinerRequest& request = out.requests[k];
    const double others_edge =
        std::max(0.0, out.totals.edge - request.edge);
    const double others_grand =
        others_edge + std::max(0.0, out.totals.cloud - request.cloud);
    const MinerRequest reply = best_response_kernel(
        env, shape_->budgets[k], others_edge, others_grand);
    const double size = std::max(request.total(), reply.total());
    if (size > 0.0) {
      double miss = std::abs(reply.total() - request.total());
      if (!split_free)
        miss = std::max(miss, std::abs(reply.edge - request.edge));
      residual = std::max(residual, miss / size);
    }
    out.utilities[k] = utility_kernel(env, request.edge, request.cloud,
                                      others_edge, others_grand);
  }
  out.residual = residual;
  out.converged =
      totals_ok &&
      residual <= kResidualPerMiner *
                      std::max(static_cast<double>(miner_count_), 1000.0);
  if (auto* work = support::prof::current_block(); work != nullptr) {
    work->add(support::prof::WorkField::kBestResponseEvals,
              static_cast<std::uint64_t>(kn));
    work->add(support::prof::WorkField::kUtilityEvals,
              static_cast<std::uint64_t>(kn));
  }
}

}  // namespace hecmine::core
