#pragma once
// 0-1 ILP optimizer on top of the CDCL pseudo-Boolean engine.
//
// Lowers a `Model` to clauses / cardinality / PB constraints and minimizes
// the objective by iterative strengthening (linear SAT-UNSAT search): find a
// feasible assignment, add `objective <= incumbent - 1`, repeat; the final
// UNSAT step is the optimality proof.  This is exactly the strategy the
// paper's §IV names as the Pseudo-Boolean alternative to CPLEX, and what we
// use as the ILP backend throughout the reproduction.
//
// A `Budget` bounds the whole optimization; when it runs out, the best
// incumbent found so far is returned with status kFeasible.

#include <optional>
#include <vector>

#include "solver/model.h"
#include "solver/sat.h"
#include "solver/types.h"

namespace ruleplace::solver {

enum class OptStatus : std::uint8_t {
  kOptimal,     ///< proved optimal
  kFeasible,    ///< feasible incumbent, optimality not proven (budget)
  kInfeasible,  ///< proved infeasible
  kUnknown,     ///< budget exhausted before any feasible solution
};

inline const char* toString(OptStatus s) {
  switch (s) {
    case OptStatus::kOptimal: return "optimal";
    case OptStatus::kFeasible: return "feasible";
    case OptStatus::kInfeasible: return "infeasible";
    case OptStatus::kUnknown: return "unknown";
  }
  return "?";
}

struct OptResult {
  OptStatus status = OptStatus::kUnknown;
  std::int64_t objective = 0;      ///< valid when status is optimal/feasible
  std::vector<bool> assignment;    ///< by ModelVar; valid when sat/feasible
  SolverStats stats;
  int improvementSteps = 0;        ///< SAT iterations of the linear search

  bool hasSolution() const noexcept {
    return status == OptStatus::kOptimal || status == OptStatus::kFeasible;
  }
};

class Optimizer {
 public:
  /// Solve the model.  If it has no objective, this is a pure
  /// satisfiability call (one solver invocation).
  static OptResult solve(const Model& model,
                         const Budget& budget = Budget::unlimited());

  /// Satisfiability-only solve (§IV-D): ignores any objective.
  static OptResult solveSat(const Model& model,
                            const Budget& budget = Budget::unlimited());

  /// Solve with a warm-start hint: variable phases are seeded from `hint`
  /// (pairs of (var, value)); core::place passes the ingress hint.
  static OptResult solveWithHint(
      const Model& model, const std::vector<std::pair<ModelVar, bool>>& hint,
      const Budget& budget = Budget::unlimited());

 private:
  static OptResult run(const Model& model, bool useObjective,
                       const std::vector<std::pair<ModelVar, bool>>* hint,
                       const Budget& budget);
};

/// Lower one model row into the solver: the one normalize-and-gate routine
/// behind Optimizer.  Terms are normalized to positive-coefficient literals
/// in the solver's reused term buffer (kLe / kEq rows are negated on the
/// fly, not copied).  With a defined `gate` the row is enforced only while
/// `gate` is true (the optimizer's strengthening bounds, docs/solver.md).
/// Returns false if the solver became root-UNSAT.
bool lowerConstraint(Solver& solver, const ConstraintView& row,
                     const std::vector<Var>& varMap, Lit gate = Lit::undef());

}  // namespace ruleplace::solver
