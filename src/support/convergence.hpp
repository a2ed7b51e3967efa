// One convergence vocabulary for every iterative solver in the stack.
//
// EquilibriumProfile (core/oracle.hpp) and ViResult (numerics/vi.hpp) each
// grew their own `converged`/`iterations` fields; consumers that want to
// log or assert on convergence had to know every struct's spelling. Each
// result type exposes `report()` returning this one struct, and the
// telemetry layer consumes only it.
#pragma once

namespace hecmine::support {

/// Did an iterative solve finish, and how hard did it work. `residual` is
/// the solver's own stopping metric (profile max-norm change, VI natural
/// residual, ...) — comparable across runs of one solver, not across
/// solver families.
struct ConvergenceReport {
  bool converged = false;
  int iterations = 0;
  double residual = 0.0;
};

}  // namespace hecmine::support
