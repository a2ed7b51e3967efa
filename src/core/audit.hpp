// EquilibriumAuditor: post-solve quality certificates for a follower
// equilibrium and the prices it was solved under.
//
// Solvers report convergence (iterations, residual) but not *quality*: how
// exploitable the returned profile is, whether the shared edge capacity of
// the standalone GNEP is respected, whether the Theorem-2 uniqueness
// condition (monotonicity of the pseudo-gradient) actually holds near the
// point, and whether the leader prices survive a local perturbation. The
// auditor computes those certificates from first principles — it never
// trusts the solver's own converged flag — so tests, the CLI (--audit) and
// perfbench can assert on them.
#pragma once

#include <iosfwd>
#include <vector>

#include "core/oracle.hpp"
#include "core/scenario.hpp"
#include "core/solve_context.hpp"

namespace hecmine::support {
class Telemetry;
}

namespace hecmine::core {

/// Knobs for audit_equilibrium().
struct AuditOptions {
  /// Relative price perturbation used for the leader optimality gap: each
  /// leader's price is scaled by (1 +/- price_step) and the followers
  /// re-solved.
  double price_step = 1e-2;
  /// Sample points (besides the equilibrium itself) for the empirical
  /// Theorem-2 monotonicity quotient of the pseudo-gradient.
  int monotonicity_samples = 6;
  /// Relative radius of the sampling cloud around the equilibrium.
  double perturbation_scale = 0.05;
  /// Solver resources for the follower re-solves behind the leader gap;
  /// also seeds the deterministic sampling RNG (context.rng_root).
  SolveContext context;
  /// Upper bound on the miners audited individually (0 = all). Above the
  /// bound, certificates that walk miners one by one (best-response gap,
  /// budget slack, monotonicity cloud) run on a deterministic evenly
  /// spaced subset — the rest of the pool is held fixed and folded into
  /// the opponent aggregates — so audits stay O(bound) at N = 10^6. The
  /// capacity and leader-gap certificates always cover the full pool.
  int max_audited_miners = 0;
};

/// Audit certificates for one (prices, profile) pair. All quantities are
/// computed fresh from the scenario; `converged`/`iterations`/`residual`
/// merely echo what the solver claimed, for side-by-side reporting.
struct AuditReport {
  /// Largest unilateral utility gain any miner realizes by best-responding
  /// to the profile (the exploitability certificate); ~0 at a true NE.
  double best_response_gap = 0.0;
  /// B_i - P^T r_i per audited miner (all miners unless
  /// AuditOptions::max_audited_miners sampled a subset); negative = budget
  /// violated.
  std::vector<double> budget_slack;
  double min_budget_slack = 0.0;
  /// max(0, E - E_max) in standalone mode; 0 in connected mode (no shared
  /// constraint).
  double capacity_violation = 0.0;
  /// Empirical monotonicity quotient of the pseudo-gradient sampled near
  /// the equilibrium: min over pairs of (F(x)-F(y)).(x-y)/||x-y||^2. A
  /// positive value certifies the strict-monotonicity condition behind
  /// Theorem 2 (connected) / Theorem 5 (standalone) locally.
  double monotonicity_quotient = 0.0;
  bool uniqueness_ok = false;  ///< monotonicity_quotient > 0
  /// Connected mode: P_c below the Theorem-3 mixed-strategy price bound
  /// (cloud demand positive in the symmetric closed form).
  bool mixed_price_condition = false;
  /// Leader-profit optimality gap: the largest profit improvement the
  /// ESP / CSP finds by scaling its own price by (1 +/- price_step), with
  /// followers re-solved. ~0 when the prices are a leader-stage optimum at
  /// that perturbation scale.
  double leader_gap_edge = 0.0;
  double leader_gap_cloud = 0.0;
  /// Echo of the solver's own claim, for reporting.
  bool converged = false;
  int iterations = 0;
  double residual = 0.0;
};

/// Audits `profile` as an equilibrium of `scenario`'s follower game at
/// `prices`. Requires a deterministic scenario (no population model — an
/// expectation profile has no fixed miner set to audit) whose budget list
/// matches the profile's miner count.
[[nodiscard]] AuditReport audit_equilibrium(const Scenario& scenario,
                                            const Prices& prices,
                                            const EquilibriumProfile& profile,
                                            const AuditOptions& options = {});

/// Largest follower-side certificate violation of the report: the
/// best-response gap, the capacity violation, and any budget overrun
/// (max(0, -min_budget_slack)), whichever is worst. The leader gaps are
/// deliberately excluded — they measure price optimality, which fixed-price
/// scenarios do not promise — so this is the quantity a scriptable audit
/// gate (hecmine_cli --audit --audit-tol) compares against its tolerance.
[[nodiscard]] double worst_violation(const AuditReport& report);

/// Exports the report as audit.* gauges in the hecmine.telemetry.v1
/// registry (booleans as 0/1).
void record_audit(support::Telemetry& telemetry, const AuditReport& report);

/// Renders the report as an aligned two-column table (support::Table).
void print_audit(std::ostream& os, const AuditReport& report);

}  // namespace hecmine::core
