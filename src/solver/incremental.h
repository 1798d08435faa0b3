#pragma once
// Persistent assumption-based incremental optimizer (§IV-D incrementality).
//
// One CDCL solver survives an arbitrary sequence of solves: learned
// clauses, EVSIDS activities and saved phases carry over, which is the
// entire point — a re-solve after small churn starts from everything the
// previous solves derived.  Retractability comes from two idioms on top of
// `Solver::solve(assumptions)`:
//
//   * constraint groups — every lowered constraint gets a group selector
//     variable g appended in gated form (clause: ∨ ¬g; PB row Σ a·l ≥ b
//     becomes b·(¬g) + Σ a·l ≥ b).  A solve assumes the selectors of the
//     active groups; deactivating a group just drops its assumption, and
//     permanently retiring it adds the unit clause ¬g so the rows go inert.
//   * pins — model variables can be held at a value through the assumption
//     prefix (the incremental placer pins the already-deployed placement).
//
// Learned clauses are resolvents of database constraints only, so they stay
// sound under every assumption set — including after groups are retired.
//
// optimize() runs the same linear SAT-UNSAT strengthening as `Optimizer`,
// but each `objective <= incumbent - 1` bound is gated behind a fresh
// selector assumed only for that step; the final UNSAT is therefore
// UNSAT-under-assumptions and never poisons the solver.  After an UNSAT
// answer, coreGroups()/corePins() name the groups and pins in the final
// conflict — the session uses this to decide between repacking and full
// escalation.

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "solver/model.h"
#include "solver/optimize.h"
#include "solver/sat.h"
#include "solver/types.h"

namespace ruleplace::solver {

class IncrementalOptimizer {
 public:
  using GroupId = std::int32_t;

  IncrementalOptimizer() = default;

  /// Make sure model variables [0, n) exist in the backing solver.
  /// Variables are identity-mapped and may only grow.
  void ensureVars(int modelVarCount);
  int varCount() const noexcept { return static_cast<int>(varMap_.size()); }

  /// Lower `constraints` as one retractable group (created active).
  GroupId addGroup(const std::vector<Constraint>& constraints);
  int groupCount() const noexcept { return static_cast<int>(groups_.size()); }

  /// Activate / deactivate a group.  Deactivated groups are not enforced on
  /// subsequent solves; reactivation costs nothing.
  void setActive(GroupId g, bool active);
  bool active(GroupId g) const;

  /// Permanently retire a group (unit-clause ¬selector): its rows go inert
  /// instead of accumulating watch effort.  Irreversible.
  void retire(GroupId g);

  /// Hold a model variable at a value through the assumption prefix.
  void pin(ModelVar v, bool value);
  void clearPins();
  std::size_t pinCount() const noexcept { return pins_.size(); }

  /// Suggest a search phase (used to seed from a known-good placement).
  void setPhase(ModelVar v, bool value);

  /// Satisfiability of the active groups under the current pins.
  OptResult solveSat(const Budget& budget);

  /// Minimize `objective` subject to the active groups and pins.  `polish`
  /// (optional) improves each incumbent in model space before it is used
  /// to strengthen the bound; `lowerBound` (full objective value) lets the
  /// search stop as soon as an incumbent attains a known optimum.
  OptResult optimize(
      const LinearExpr& objective, const Budget& budget,
      const std::function<void(std::vector<bool>&)>& polish = {},
      std::optional<std::int64_t> lowerBound = {});

  /// After an UNSAT result: the groups / pinned vars named in the final
  /// conflict.  Empty for a root-level (assumption-free) contradiction.
  std::vector<GroupId> coreGroups() const;
  std::vector<ModelVar> corePins() const;

  const SolverStats& stats() const noexcept { return solver_.stats(); }
  bool okay() const noexcept { return solver_.okay(); }

 private:
  struct Group {
    Var selector = -1;
    bool isActive = false;
    bool retired = false;
  };

  // Owner codes of owner_: a model var (>= 0), kNoOwner (objective-bound
  // selectors), or group g's selector as kGroupBase - g.
  static constexpr std::int32_t kNoOwner = -1;
  static constexpr std::int32_t kGroupBase = -2;
  std::int32_t owner(Var v) const;
  std::vector<Lit> buildAssumptions() const;
  void extract(OptResult& result);

  Solver solver_;
  std::vector<Var> varMap_;  // ModelVar -> solver var
  std::vector<std::int32_t> owner_;  // solver var -> owner code (see above)
  std::vector<Group> groups_;
  std::vector<std::pair<ModelVar, bool>> pins_;
  std::vector<Lit> lastCore_;  // assumption literals of the last UNSAT
};

}  // namespace ruleplace::solver
