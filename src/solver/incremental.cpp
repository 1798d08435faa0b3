#include "solver/incremental.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/obs.h"

namespace ruleplace::solver {

void IncrementalOptimizer::ensureVars(int modelVarCount) {
  const int added = modelVarCount - varCount();
  if (added <= 0) return;
  const Var first = solver_.newVars(added);
  owner_.resize(static_cast<std::size_t>(first + added), kNoOwner);
  for (Var v = first; v < first + added; ++v) {
    owner_[static_cast<std::size_t>(v)] =
        static_cast<std::int32_t>(varMap_.size());
    varMap_.push_back(v);
  }
}

std::int32_t IncrementalOptimizer::owner(Var v) const {
  const std::size_t i = static_cast<std::size_t>(v);
  return i < owner_.size() ? owner_[i] : kNoOwner;
}

IncrementalOptimizer::GroupId IncrementalOptimizer::addGroup(
    const std::vector<Constraint>& constraints) {
  Group g;
  g.selector = solver_.newVar();
  g.isActive = true;
  Lit gate(g.selector, false);
  for (const Constraint& c : constraints) {
    const ConstraintView row{ExprView(c.expr), c.cmp, c.rhs, c.name};
    if (!lowerConstraint(solver_, row, varMap_, gate)) break;  // see okay()
  }
  GroupId id = static_cast<GroupId>(groups_.size());
  groups_.push_back(g);
  owner_.resize(static_cast<std::size_t>(g.selector) + 1, kNoOwner);
  owner_[static_cast<std::size_t>(g.selector)] = kGroupBase - id;
  return id;
}

void IncrementalOptimizer::setActive(GroupId g, bool activeFlag) {
  Group& grp = groups_.at(static_cast<std::size_t>(g));
  if (grp.retired && activeFlag) {
    throw std::logic_error("cannot reactivate a retired group");
  }
  grp.isActive = activeFlag;
}

bool IncrementalOptimizer::active(GroupId g) const {
  const Group& grp = groups_.at(static_cast<std::size_t>(g));
  return grp.isActive && !grp.retired;
}

void IncrementalOptimizer::retire(GroupId g) {
  Group& grp = groups_.at(static_cast<std::size_t>(g));
  if (grp.retired) return;
  grp.retired = true;
  grp.isActive = false;
  solver_.addClause({Lit(grp.selector, true)});
}

void IncrementalOptimizer::pin(ModelVar v, bool value) {
  varMap_.at(static_cast<std::size_t>(v));  // range-check
  pins_.push_back({v, value});
}

void IncrementalOptimizer::clearPins() { pins_.clear(); }

void IncrementalOptimizer::setPhase(ModelVar v, bool value) {
  solver_.setPolarity(varMap_.at(static_cast<std::size_t>(v)), value);
}

std::vector<Lit> IncrementalOptimizer::buildAssumptions() const {
  std::vector<Lit> out;
  out.reserve(groups_.size() + pins_.size());
  for (const Group& g : groups_) {
    if (g.isActive && !g.retired) out.push_back(Lit(g.selector, false));
  }
  for (const auto& [mv, value] : pins_) {
    out.push_back(Lit(varMap_[static_cast<std::size_t>(mv)], !value));
  }
  return out;
}

void IncrementalOptimizer::extract(OptResult& result) {
  result.assignment.assign(varMap_.size(), false);
  for (std::size_t i = 0; i < varMap_.size(); ++i) {
    result.assignment[i] = solver_.modelValue(varMap_[i]);
  }
}

OptResult IncrementalOptimizer::solveSat(const Budget& budgetIn) {
  OptResult result;
  lastCore_.clear();
  if (!solver_.okay()) {
    result.status = OptStatus::kInfeasible;
    result.stats = solver_.stats();
    return result;
  }
  obs::Span span("solver.incremental.sat");
  SolveStatus st = solver_.solve(buildAssumptions(), budgetIn.normalized());
  result.stats = solver_.stats();
  if (st == SolveStatus::kSat) {
    extract(result);
    result.status = OptStatus::kOptimal;  // nothing to optimize
    result.improvementSteps = 1;
  } else if (st == SolveStatus::kUnsat) {
    lastCore_ = solver_.unsatCore();
    result.status = OptStatus::kInfeasible;
  } else {
    result.status = OptStatus::kUnknown;
  }
  return result;
}

OptResult IncrementalOptimizer::optimize(
    const LinearExpr& objective, const Budget& budgetIn,
    const std::function<void(std::vector<bool>&)>& polish,
    std::optional<std::int64_t> lowerBound) {
  OptResult result;
  lastCore_.clear();
  const Budget budget = budgetIn.normalized();
  if (budget.deadline.expired()) return result;  // kUnknown
  if (!solver_.okay()) {
    result.status = OptStatus::kInfeasible;
    result.stats = solver_.stats();
    return result;
  }
  if (objective.terms().empty()) return solveSat(budget);

  obs::Span span("solver.incremental.optimize");
  const auto startTime = std::chrono::steady_clock::now();
  // The persistent solver's conflict counter spans *all* past sessions, so
  // the per-call conflict budget is measured relative to entry.
  const std::int64_t startConflicts = solver_.stats().conflicts;
  auto remaining = [&]() -> Budget {
    Budget b = budget;
    if (!budget.unlimitedTime()) {
      double elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - startTime)
                           .count();
      b.maxSeconds = std::max(0.0, budget.maxSeconds - elapsed);
    }
    if (!budget.unlimitedConflicts()) {
      b.maxConflicts = std::max<std::int64_t>(
          0, budget.maxConflicts - (solver_.stats().conflicts - startConflicts));
    }
    return b;
  };

  std::vector<Lit> assumptions = buildAssumptions();
  const std::size_t baseCount = assumptions.size();
  // finish(): retire the step's bound selector so the next optimize() (or a
  // plain solveSat) is not constrained by a stale bound row.
  auto finish = [&](OptStatus st) {
    for (std::size_t i = baseCount; i < assumptions.size(); ++i) {
      solver_.addClause({~assumptions[i]});
    }
    result.status = st;
    result.stats = solver_.stats();
    return result;
  };

  bool haveIncumbent = false;
  while (true) {
    Budget b = remaining();
    if (b.timeExhausted() || b.deadline.expired()) {
      return finish(haveIncumbent ? OptStatus::kFeasible : OptStatus::kUnknown);
    }
    SolveStatus st = solver_.solve(assumptions, b);
    if (st == SolveStatus::kUnknown) {
      return finish(haveIncumbent ? OptStatus::kFeasible : OptStatus::kUnknown);
    }
    if (st == SolveStatus::kUnsat) {
      lastCore_ = solver_.unsatCore();
      // With an incumbent the only new constraint since the last SAT answer
      // is the strengthened bound, so UNSAT is the optimality proof.
      return finish(haveIncumbent ? OptStatus::kOptimal
                                  : OptStatus::kInfeasible);
    }
    extract(result);
    if (polish) polish(result.assignment);
    result.objective = ExprView(objective).evaluate(result.assignment);
    ++result.improvementSteps;
    haveIncumbent = true;
    // Seed the next step's phases from the incumbent.
    for (std::size_t i = 0; i < varMap_.size(); ++i) {
      solver_.setPolarity(varMap_[i], result.assignment[i]);
    }
    if (lowerBound.has_value() && result.objective <= *lowerBound) {
      return finish(OptStatus::kOptimal);
    }
    // Strengthen: objective <= incumbent - 1 behind a fresh selector; the
    // previous bound is implied by the tighter one, so retire it.
    for (std::size_t i = baseCount; i < assumptions.size(); ++i) {
      solver_.addClause({~assumptions[i]});
    }
    assumptions.resize(baseCount);
    Lit sel(solver_.newVar(), false);
    if (!lowerConstraint(solver_,
                         ConstraintView{ExprView(objective), Cmp::kLe,
                                        result.objective - 1, NameRef::none()},
                         varMap_, sel)) {
      return finish(OptStatus::kOptimal);  // cannot improve further
    }
    assumptions.push_back(sel);
  }
}

std::vector<IncrementalOptimizer::GroupId> IncrementalOptimizer::coreGroups()
    const {
  std::vector<GroupId> out;
  for (Lit l : lastCore_) {
    const std::int32_t o = owner(l.var());
    if (o <= kGroupBase) out.push_back(kGroupBase - o);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<ModelVar> IncrementalOptimizer::corePins() const {
  std::vector<ModelVar> out;
  for (Lit l : lastCore_) {
    const std::int32_t o = owner(l.var());
    if (o >= 0) out.push_back(o);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace ruleplace::solver
