// Closed-form equilibria for homogeneous miners (paper Sec. IV-B, IV-C.3).
//
// All expressions are stated for general h; the paper prints the h = 1
// specialization in Corollary 1 and Table II (standalone mode has h = 1 by
// construction). Every formula here is cross-validated against the
// numerical NEP/GNEP solvers in tests.
#pragma once

#include "core/params.hpp"
#include "core/types.hpp"

namespace hecmine::core {

/// Condition of Theorem 3: a mixed (edge+cloud) equilibrium requires
/// P_c < (1-beta) P_e / (1-beta+h beta); returns that upper bound on P_c.
[[nodiscard]] double mixed_strategy_cloud_price_bound(
    const NetworkParams& params, double price_edge);

/// Per-miner spend at the unconstrained symmetric NE:
/// R (n-1)(1-beta+h beta) / n^2. Budgets strictly below this bind.
[[nodiscard]] double homogeneous_budget_threshold(const NetworkParams& params,
                                                  int n);

/// Theorem 3 — symmetric NE when the identical budget B binds:
///   e* = B beta h / ((1-beta+beta h)(P_e - P_c)),
///   c* = B ((1-beta)(P_e-P_c) - beta h P_c) / (P_c (1-beta+beta h)(P_e-P_c)).
/// Requires the mixed-strategy price condition and P_e > P_c.
[[nodiscard]] MinerRequest homogeneous_binding_request(
    const NetworkParams& params, const Prices& prices, double budget, int n);

/// Corollary 1 (general h) — symmetric NE with sufficient budget:
///   e* = h beta R (n-1) / (n^2 (P_e - P_c)),
///   c* = R (n-1)((1-beta)(P_e-P_c) - h beta P_c) / (n^2 P_c (P_e-P_c)).
/// Requires the mixed-strategy price condition and P_e > P_c.
[[nodiscard]] MinerRequest homogeneous_sufficient_request(
    const NetworkParams& params, const Prices& prices, int n);

/// Symmetric NE of the connected-mode subgame for any budget: picks the
/// Theorem 3 or Corollary 1 branch by comparing B to the spend threshold.
[[nodiscard]] MinerRequest homogeneous_connected_request(
    const NetworkParams& params, const Prices& prices, double budget, int n);

/// Edge-only symmetric NE (the regime where the Theorem 3 price condition
/// fails and cloud mining is unattractive): a Tullock contest with prize
/// R(1-beta+h beta), giving e* = min(R(1-beta+h beta)(n-1)/(n^2 P_e), B/P_e).
[[nodiscard]] MinerRequest homogeneous_edge_only_request(
    const NetworkParams& params, const Prices& prices, double budget, int n);

/// Standalone-mode symmetric variational equilibrium with sufficient
/// budgets (paper Table II; h = 1).
struct StandaloneSufficientEquilibrium {
  MinerRequest request;     ///< per-miner (e*, c*)
  double surcharge = 0.0;   ///< shared shadow price mu* on E <= E_max
  bool cap_active = false;  ///< unconstrained edge demand exceeded E_max
};

/// Closed form: unconstrained edge demand E_u = beta R (n-1)/(n (P_e-P_c));
/// if E_u > E_max the common multiplier lifts the effective edge price to
/// P_c + beta R (n-1)/(n E_max) so that E = E_max exactly; the grand total
/// S = (1-beta) R (n-1) / (n P_c) is unaffected by the cap (it depends only
/// on P_c). Requires P_e > P_c and the h=1 mixed-price condition at the
/// *effective* edge price.
[[nodiscard]] StandaloneSufficientEquilibrium standalone_sufficient_request(
    const NetworkParams& params, const Prices& prices, int n);

/// SP-side closed form in standalone mode with sufficient budgets (our
/// Table II derivation, verified against Algorithm 2 numerically):
///   P_c* = sqrt( C_c (1-beta) R (n-1) / (n E_max) ),
///   P_e* = P_c* + beta R (n-1) / (n E_max)   (the sell-out price).
struct StandaloneSpClosedForm {
  Prices prices;
  double profit_edge = 0.0;   ///< (P_e* - C_e) E_max
  double profit_cloud = 0.0;  ///< (P_c* - C_c) (S - E_max)
  bool valid = false;  ///< cloud demand positive and P_c* above cost
};

[[nodiscard]] StandaloneSpClosedForm standalone_sp_closed_form(
    const NetworkParams& params, int n);

/// Theorem 4's CSP reaction curve P_c*(P_e) in the connected game with n
/// identical miners, for every budget: Theorem 3 (binding budget) and
/// Corollary 1 (sufficient budget) give the CSP's profit the same shape,
///   V_c ∝ (P_c - C_c) ((1-beta)(P_e-P_c) - h beta P_c) / (P_c (P_e-P_c)),
/// up to a factor that does not depend on the prices (the budget regime is
/// fixed by B alone; see homogeneous_budget_threshold). V_c is negative
/// below cost and zero above the mixed-strategy bound, where miners leave
/// the cloud, and its first-order condition is a quadratic with exactly
/// one root in between: the admissible root (above cost, below both P_e
/// and the mixed-strategy bound) is returned. Returns a negative value
/// when no admissible root exists (the best response is then a corner,
/// handled by the numerical reaction). The name predates the binding-budget
/// case.
[[nodiscard]] double csp_reaction_sufficient_closed(
    const NetworkParams& params, double price_edge);

/// Standalone-mode CSP reaction P_c*(P_e) for n identical miners of budget
/// B, as the two Table II candidates the caller scores. With
/// D = R(n-1)/n and K = (1-beta) D, the edge cap binds iff
/// P_c > x_k = P_e - beta D / E_max, and V_c = (P_c - C_c) C has one
/// region on each side of that kink:
///   - cap slack: C = K/P_c - beta D/(P_e-P_c), the connected shape with
///     h = 1, peaking at r_1 = csp_reaction_sufficient_closed at h = 1;
///     the candidate is min(r_1, x_k), or x_k when r_1 does not exist;
///   - cap binds (P_c up to x_end = K/E_max, above which C = 0):
///     C = K/P_c - E_max, V_c concave with its peak at Table II's
///     r_2 = sqrt(K C_c / E_max); the candidate is r_2 clamped into
///     [max(x_k, C_c), x_end].
/// Each candidate is also clamped into the price interval [lo, hi] and is
/// negative when its region misses that interval; the reaction is the
/// candidate with the larger V_c. Valid only for B >= R(n-1)/n^2: the
/// Table II equilibrium spends at most that per miner at every price, so
/// the budget never binds. Below it both candidates are negative.
struct StandaloneCspCandidates {
  double slack = -1.0;    ///< best price with the edge cap slack
  double binding = -1.0;  ///< best price with the edge cap binding
};

[[nodiscard]] StandaloneCspCandidates csp_reaction_standalone_closed(
    const NetworkParams& params, double budget, int n, double price_edge,
    double lo, double hi);

}  // namespace hecmine::core
