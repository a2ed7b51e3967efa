#include "core/multi_esp.hpp"

#include <algorithm>

#include "core/sp.hpp"
#include "support/error.hpp"

namespace hecmine::core {

MultiEspEquilibrium solve_multi_esp_bertrand(const NetworkParams& params,
                                             double budget, int n,
                                             int providers, double margin,
                                             const SolveContext& context) {
  params.validate();
  HECMINE_REQUIRE(budget > 0.0, "multi-ESP: budget must be positive");
  HECMINE_REQUIRE(n >= 2, "multi-ESP: n >= 2 required");
  HECMINE_REQUIRE(providers >= 2, "multi-ESP: at least two edge providers");
  HECMINE_REQUIRE(margin >= 0.0, "multi-ESP: margin must be non-negative");

  MultiEspEquilibrium equilibrium;
  equilibrium.providers = providers;
  // Perfect substitutes: any price above cost invites an undercut that
  // takes the whole edge demand, so the common price pins to (approximately)
  // marginal cost. A tiny margin keeps profits well-defined.
  equilibrium.price_edge = params.cost_edge * (1.0 + margin);

  // The CSP best-responds to the collapsed edge price. Capacity is shared:
  // k providers of the paper's capacity stack, which in connected mode is
  // captured by h; we treat the pooled edge as amply provisioned and use
  // the connected follower at the given h.
  SpSolveOptions options;
  options.grid_points = 48;
  options.context = context;
  equilibrium.price_cloud = csp_reaction_homogeneous(
      params, budget, n, EdgeMode::kConnected, equilibrium.price_edge,
      options);
  // Bertrand corner: the reaction can price the cloud *above* the edge; cap
  // it so the follower game stays in the documented region.
  equilibrium.price_cloud =
      std::min(equilibrium.price_cloud, equilibrium.price_edge * 0.999);
  if (equilibrium.price_cloud <= params.cost_cloud) {
    equilibrium.price_cloud = params.cost_cloud * (1.0 + margin);
  }

  const Prices prices{equilibrium.price_edge, equilibrium.price_cloud};
  equilibrium.follower = solve_followers_symmetric(
      params, prices, budget, n, EdgeMode::kConnected, context);
  equilibrium.profit_edge_total =
      (prices.edge - params.cost_edge) * equilibrium.follower.totals.edge;
  equilibrium.profit_cloud =
      (prices.cloud - params.cost_cloud) * equilibrium.follower.totals.cloud;
  return equilibrium;
}

EdgePremiumReport edge_premium_under_competition(const NetworkParams& params,
                                                 double budget, int n,
                                                 int providers,
                                                 const SpSolveOptions& options) {
  const auto monopoly = solve_leader_stage_homogeneous(
      params, budget, n, EdgeMode::kConnected, options);
  EdgePremiumReport report;
  report.competitive = solve_multi_esp_bertrand(params, budget, n, providers,
                                                1e-3, options.context);
  report.price_ratio =
      monopoly.prices.edge / report.competitive.price_edge;
  const double competitive_profit =
      std::max(report.competitive.profit_edge_total, 1e-12);
  report.profit_ratio = monopoly.profits.edge / competitive_profit;
  return report;
}

}  // namespace hecmine::core
