#include "solver/optimize.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <unordered_map>

#include "obs/obs.h"

namespace ruleplace::solver {

namespace {

// Normalize `Σ sign·coeff_i * x_i >= bound` (vars, possibly negative
// coeffs; sign is +1, or -1 to lower the negated row of a kLe / kEq
// constraint without copying it) into positive-coefficient literal form in
// the solver's reused term buffer and feed it to the solver.  When `gate`
// is a defined literal the constraint is only enforced while `gate` is
// true: the positive-form bound B is added as a coefficient on ¬gate
// (B·(¬gate) + Σ a_i·l_i ≥ B), so retracting the gate assumption makes the
// row inert — the selector idiom behind retractable objective bounds and
// per-policy constraint groups.
bool lowerGe(Solver& solver, std::span<const Term> terms, std::int64_t sign,
             std::int64_t bound, const std::vector<Var>& varMap, Lit gate) {
  std::vector<std::pair<std::int64_t, Lit>>& out = solver.termScratch();
  out.clear();
  for (const auto& [rawCoeff, mv] : terms) {
    const std::int64_t coeff = sign * rawCoeff;
    const Var v = varMap.at(static_cast<std::size_t>(mv));
    if (coeff > 0) {
      out.push_back({coeff, Lit(v, false)});
    } else if (coeff < 0) {
      // c*x == c + |c|*(1-x): substitute |c| * ¬x and raise the bound.
      out.push_back({-coeff, Lit(v, true)});
      if (__builtin_add_overflow(bound, -coeff, &bound)) {
        throw std::overflow_error(
            "lowerConstraint: normalized bound overflows int64");
      }
    }
  }
  if (!(gate == Lit::undef())) {
    if (bound <= 0) return true;  // trivially satisfied, gated or not
    out.push_back({bound, ~gate});
  }
  return solver.addPBInPlace(out, bound);
}

// Greedy 1-opt polisher: drop placed variables with positive objective
// cost whenever every constraint stays satisfied.  CDCL models routinely
// contain gratuitous assignments (set by phase defaults, never forced);
// polishing turns each SAT step of the linear search into a much larger
// objective improvement.
class Polisher {
 public:
  explicit Polisher(const Model& model) : model_(&model) {
    // CSR occurrence lists, two passes over the rows: count into
    // occStart_[v + 2] and prefix-sum, then fill through the cursor
    // occStart_[v + 1], which stops at v's end, i.e. at v + 1's start.
    const std::size_t n = static_cast<std::size_t>(model.varCount());
    occStart_.assign(n + 2, 0);
    const auto& cons = model.constraints();
    for (std::size_t ci = 0; ci < cons.size(); ++ci) {
      for (const auto& [coeff, v] : cons[ci].expr.terms()) {
        (void)coeff;
        ++occStart_[static_cast<std::size_t>(v) + 2];
      }
    }
    std::partial_sum(occStart_.begin(), occStart_.end(), occStart_.begin());
    occs_.resize(occStart_[n + 1]);
    for (std::size_t ci = 0; ci < cons.size(); ++ci) {
      for (const auto& [coeff, v] : cons[ci].expr.terms()) {
        occs_[occStart_[static_cast<std::size_t>(v) + 1]++] = {
            static_cast<std::int32_t>(ci), coeff};
      }
    }
    // Objective variables are unique (Model::setObjective canonicalizes),
    // so a dense coefficient table is exact.
    objCoeff_.assign(n, 0);
    for (const auto& [coeff, v] : model.objective().terms()) {
      if (coeff > 0) candidates_.push_back({coeff, v});
      objCoeff_[static_cast<std::size_t>(v)] = coeff;
    }
    std::sort(candidates_.begin(), candidates_.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
  }

  void polish(std::vector<bool>& assignment) const {
    const auto& cons = model_->constraints();
    std::vector<std::int64_t> lhs(cons.size());
    for (std::size_t ci = 0; ci < cons.size(); ++ci) {
      lhs[ci] = cons[ci].expr.evaluate(assignment);
    }
    for (int round = 0; round < 6; ++round) {
      bool changed = removalPass(assignment, lhs);
      changed |= flipUpPass(assignment, lhs);
      if (!changed) break;
    }
  }

 private:
  bool removalPass(std::vector<bool>& assignment,
                   std::vector<std::int64_t>& lhs) const {
    const auto& cons = model_->constraints();
    auto removable = [&](ModelVar v) {
      for (const auto& [ci, coeff] : occs(v)) {
        std::int64_t next = lhs[static_cast<std::size_t>(ci)] - coeff;
        const ConstraintView c = cons[static_cast<std::size_t>(ci)];
        switch (c.cmp) {
          case Cmp::kLe:
            if (next > c.rhs) return false;
            break;
          case Cmp::kGe:
            if (next < c.rhs) return false;
            break;
          case Cmp::kEq:
            if (next != c.rhs) return false;
            break;
        }
      }
      return true;
    };
    bool changedAny = false;
    for (int pass = 0; pass < 4; ++pass) {
      bool changed = false;
      for (const auto& [coeff, v] : candidates_) {
        (void)coeff;
        if (!assignment[static_cast<std::size_t>(v)]) continue;
        if (!removable(v)) continue;
        assignment[static_cast<std::size_t>(v)] = false;
        for (const auto& [ci, cf] : occs(v)) {
          lhs[static_cast<std::size_t>(ci)] -= cf;
        }
        changed = true;
        changedAny = true;
      }
      if (!changed) break;
    }
    return changedAny;
  }

  // Compound improving move: flip a 0-variable with *negative* objective
  // coefficient (e.g. a rule-merging indicator, which reduces installed
  // count) to 1, then repair any violated constraints by flipping further
  // variables up.  Commit only when the cascade's net objective delta is
  // negative.  This finds the "complete the merge group" moves that pure
  // removal cannot reach.
  bool flipUpPass(std::vector<bool>& assignment,
                  std::vector<std::int64_t>& lhs) const {
    const auto& cons = model_->constraints();
    bool changedAny = false;
    for (const auto& [coeff, seed] : model_->objective().terms()) {
      if (coeff >= 0) continue;
      if (assignment[static_cast<std::size_t>(seed)]) continue;
      // Tentative cascade with incremental lhs deltas.
      std::vector<ModelVar> flipped;
      auto inCascade = [&flipped](ModelVar v) {  // at most 24 members
        return std::find(flipped.begin(), flipped.end(), v) != flipped.end();
      };
      std::unordered_map<std::int32_t, std::int64_t> lhsDelta;
      std::vector<ModelVar> queue{seed};
      std::int64_t delta = 0;
      bool ok = true;
      while (ok && !queue.empty() && flipped.size() < 24) {
        ModelVar v = queue.back();
        queue.pop_back();
        if (assignment[static_cast<std::size_t>(v)] || inCascade(v)) continue;
        flipped.push_back(v);
        delta += objCoeff_[static_cast<std::size_t>(v)];
        for (const auto& [ci, cf] : occs(v)) lhsDelta[ci] += cf;
        // Repair constraints v participates in.
        for (const auto& [ci, cf] : occs(v)) {
          (void)cf;
          const ConstraintView c = cons[static_cast<std::size_t>(ci)];
          std::int64_t now = lhs[static_cast<std::size_t>(ci)] + lhsDelta[ci];
          if (c.cmp == Cmp::kEq) {
            if (now != c.rhs) ok = false;
            continue;
          }
          bool violated = (c.cmp == Cmp::kLe) ? now > c.rhs : now < c.rhs;
          if (!violated) continue;
          // Fix by flipping up a variable whose coefficient moves lhs the
          // right way: negative for kLe, positive for kGe.
          bool fixedOrQueued = false;
          for (const auto& [tc, tv] : c.expr.terms()) {
            bool helps = (c.cmp == Cmp::kLe) ? tc < 0 : tc > 0;
            if (!helps) continue;
            if (assignment[static_cast<std::size_t>(tv)] || inCascade(tv)) {
              continue;
            }
            queue.push_back(tv);
            fixedOrQueued = true;
            break;
          }
          if (!fixedOrQueued) ok = false;
        }
      }
      if (!ok || delta >= 0 || flipped.size() >= 24) continue;
      // Re-validate the full cascade exactly, then commit.
      std::vector<bool> trial = assignment;
      for (ModelVar fv : flipped) trial[static_cast<std::size_t>(fv)] = true;
      if (!model_->feasible(trial)) continue;
      assignment = std::move(trial);
      for (std::size_t ci = 0; ci < cons.size(); ++ci) {
        lhs[ci] = cons[ci].expr.evaluate(assignment);
      }
      changedAny = true;
    }
    return changedAny;
  }

  // (row index, coefficient) of every occurrence of `v`, in row order.
  std::span<const std::pair<std::int32_t, std::int64_t>> occs(
      ModelVar v) const {
    const std::size_t i = static_cast<std::size_t>(v);
    return {occs_.data() + occStart_[i], occs_.data() + occStart_[i + 1]};
  }

  const Model* model_;
  std::vector<std::size_t> occStart_;  // CSR starts by variable (+1 spare)
  std::vector<std::pair<std::int32_t, std::int64_t>> occs_;
  std::vector<std::pair<std::int64_t, ModelVar>> candidates_;
  std::vector<std::int64_t> objCoeff_;  // by variable; 0 = not in objective
};

// Flush the delta between two SolverStats snapshots into the global
// metrics registry.  Called at stage boundaries only (after each
// solver.solve), never from the solver's inner loop.
void flushStatsDelta(const SolverStats& now, const SolverStats& prev) {
  if (!obs::enabled()) return;
  auto& reg = obs::Registry::global();
  reg.counter("solver.conflicts").add(now.conflicts - prev.conflicts);
  reg.counter("solver.decisions").add(now.decisions - prev.decisions);
  reg.counter("solver.propagations").add(now.propagations -
                                         prev.propagations);
  reg.counter("solver.restarts").add(now.restarts - prev.restarts);
  reg.counter("solver.learnt_literals")
      .add(now.learntLiterals - prev.learntLiterals);
  reg.counter("solver.deleted_clauses")
      .add(now.deletedClauses - prev.deletedClauses);
  for (int i = 0; i < SolverStats::kLbdBuckets; ++i) {
    const std::int64_t d = now.lbdHistogram[static_cast<std::size_t>(i)] -
                           prev.lbdHistogram[static_cast<std::size_t>(i)];
    if (d == 0) continue;
    char name[32];
    std::snprintf(name, sizeof(name), "solver.lbd.%02d%s", i,
                  i == SolverStats::kLbdBuckets - 1 ? "+" : "");
    reg.counter(name).add(d);
  }
}

}  // namespace

bool lowerConstraint(Solver& solver, const ConstraintView& row,
                     const std::vector<Var>& varMap, Lit gate) {
  const std::span<const Term> terms = row.expr.terms();
  const std::int64_t rhs = row.rhs - row.expr.constant();
  switch (row.cmp) {
    case Cmp::kGe:
      return lowerGe(solver, terms, 1, rhs, varMap, gate);
    case Cmp::kLe:
      return lowerGe(solver, terms, -1, -rhs, varMap, gate);
    case Cmp::kEq:
      return lowerGe(solver, terms, 1, rhs, varMap, gate) &&
             lowerGe(solver, terms, -1, -rhs, varMap, gate);
  }
  return false;
}

OptResult Optimizer::solve(const Model& model, const Budget& budget) {
  return run(model, model.hasObjective(), nullptr, budget);
}

OptResult Optimizer::solveSat(const Model& model, const Budget& budget) {
  return run(model, false, nullptr, budget);
}

OptResult Optimizer::solveWithHint(
    const Model& model, const std::vector<std::pair<ModelVar, bool>>& hint,
    const Budget& budget) {
  return run(model, model.hasObjective(), &hint, budget);
}

OptResult Optimizer::run(const Model& model, bool useObjective,
                         const std::vector<std::pair<ModelVar, bool>>* hint,
                         const Budget& budgetIn) {
  // Canonicalize once at the API boundary: any negative limit means
  // unlimited (mapped to the -1 sentinel), maxSeconds == 0 means the
  // budget is already spent (see Budget in types.h).
  const Budget budget = budgetIn.normalized();
  const auto startTime = std::chrono::steady_clock::now();

  // A deadline that tripped before we even started: skip the (linear but
  // not free) constraint lowering and report kUnknown right away.
  if (budget.deadline.expired()) {
    OptResult expired;
    expired.status = OptStatus::kUnknown;
    return expired;
  }

  obs::Span runSpan("solver.optimize");

  // Freeing a large solver (clause arena, per-literal watch and occurrence
  // lists) is a visible share of the stage, so it is timed as its own span.
  auto teardown = [](Solver* s) {
    obs::Span teardownSpan("solver.teardown");
    delete s;
  };
  const std::unique_ptr<Solver, decltype(teardown)> owned(new Solver, teardown);
  Solver& solver = *owned;
  // The budget bounds the WHOLE optimization, not each strengthening
  // iteration: both resources are threaded through the loop.  Elapsed
  // wall time and consumed conflicts (solver.stats().conflicts counts
  // cumulatively across solve() calls on the same Solver) are subtracted
  // from the original limits, clamped at zero — a negative remainder
  // would silently read as "unlimited".
  auto remaining = [&]() -> Budget {
    Budget b = budget;
    if (!budget.unlimitedTime()) {
      double elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - startTime)
                           .count();
      b.maxSeconds = std::max(0.0, budget.maxSeconds - elapsed);
    }
    if (!budget.unlimitedConflicts()) {
      b.maxConflicts =
          std::max<std::int64_t>(0, budget.maxConflicts -
                                        solver.stats().conflicts);
    }
    return b;
  };
  // Only a spent *time* budget (or a tripped deadline/cancellation)
  // aborts the loop up front.  A spent conflict budget still enters
  // solve() with maxConflicts == 0, which stops at the first conflict —
  // instances decided without search ("for free") keep succeeding,
  // matching the Budget contract.
  auto exhausted = [&](const Budget& b) {
    return b.timeExhausted() || b.deadline.expired();
  };
  OptResult result;
  auto infeasible = [&] {
    result.status = OptStatus::kInfeasible;
    result.stats = solver.stats();
    return result;
  };
  const bool optimizing = useObjective && !model.objective().terms().empty();
  std::vector<Var> varMap(static_cast<std::size_t>(model.varCount()));
  {
    obs::Span setupSpan("solver.setup");
    std::iota(varMap.begin(), varMap.end(), solver.newVars(model.varCount()));
    if (hint != nullptr) {
      for (const auto& [mv, value] : *hint) {
        solver.setPolarity(varMap.at(static_cast<std::size_t>(mv)), value);
      }
    }
    for (const auto& c : model.constraints()) {
      if (!lowerConstraint(solver, c, varMap)) return infeasible();
    }
    // Install the declared objective lower bound as a native constraint —
    // the counting argument CDCL cannot re-derive on its own.
    if (optimizing && model.hasObjectiveLowerBound() &&
        !lowerConstraint(solver,
                         ConstraintView{model.objective(), Cmp::kGe,
                                        model.objectiveLowerBound(),
                                        NameRef::none()},
                         varMap)) {
      return infeasible();
    }
  }
  // The polisher is built on the first incumbent above the declared lower
  // bound.  One at the bound is never polished: every polisher move
  // strictly lowers the objective, and no feasible assignment lies below
  // a valid lower bound, so polishing could not change it.
  std::optional<Polisher> polisher;
  auto atBound = [&](std::int64_t objective) {
    return model.hasObjectiveLowerBound() &&
           objective <= model.objectiveLowerBound();
  };

  bool haveIncumbent = false;
  SolverStats flushed;  // last snapshot pushed to the metrics registry
  // Each strengthening bound `objective <= incumbent - 1` is gated behind a
  // fresh selector variable and activated by assumption, so the bound is
  // retractable and an UNSAT answer (the optimality proof) never poisons
  // the persistent solver — the whole linear search runs on one solver
  // that keeps its learned clauses, activities and saved phases.
  std::vector<Lit> assumptions;
  while (true) {
    Budget b = remaining();
    if (exhausted(b)) {
      result.status =
          haveIncumbent ? OptStatus::kFeasible : OptStatus::kUnknown;
      result.stats = solver.stats();
      return result;
    }
    SolveStatus st;
    {
      obs::Span stepSpan("solver.solve_step");
      stepSpan.arg("step", result.improvementSteps);
      st = solver.solve(assumptions, b);
    }
    result.stats = solver.stats();
    flushStatsDelta(result.stats, flushed);
    flushed = result.stats;
    if (st == SolveStatus::kUnknown) {
      result.status =
          haveIncumbent ? OptStatus::kFeasible : OptStatus::kUnknown;
      return result;
    }
    if (st == SolveStatus::kUnsat) {
      result.status =
          haveIncumbent ? OptStatus::kOptimal : OptStatus::kInfeasible;
      return result;
    }
    // SAT: extract and polish the assignment.
    std::vector<bool> assignment(static_cast<std::size_t>(model.varCount()));
    for (int i = 0; i < model.varCount(); ++i) {
      assignment[static_cast<std::size_t>(i)] =
          solver.modelValue(varMap[static_cast<std::size_t>(i)]);
    }
    if (!model.feasible(assignment)) {
      throw std::logic_error(
          "optimizer postcondition violated: solver model infeasible");
    }
    std::int64_t objective = model.objective().evaluate(assignment);
    if (optimizing && !atBound(objective)) {
      obs::Span polishSpan("solver.polish");
      if (!polisher.has_value()) polisher.emplace(model);
      polisher->polish(assignment);
      objective = model.objective().evaluate(assignment);
    }
    result.assignment = std::move(assignment);
    result.objective = objective;
    haveIncumbent = true;
    ++result.improvementSteps;
    if (obs::enabled()) {
      obs::Registry::global().counter("solver.improvement_steps").add(1);
    }

    if (!optimizing) {
      result.status = OptStatus::kOptimal;  // nothing to optimize
      return result;
    }
    if (atBound(result.objective)) {
      result.status = OptStatus::kOptimal;  // incumbent meets the bound
      return result;
    }
    // Seed the next step's phases from the *polished* incumbent: the
    // polisher typically strips many gratuitous placements, and without
    // re-seeding the saved phases still reflect the unpolished model, so
    // the next SAT step rediscovers them from a worse starting point.
    for (int i = 0; i < model.varCount(); ++i) {
      solver.setPolarity(varMap[static_cast<std::size_t>(i)],
                         result.assignment[static_cast<std::size_t>(i)]);
    }
    // Strengthen: objective <= incumbent - 1, i.e. -obj >= -(incumbent-1),
    // gated behind a fresh selector.  The previous step's bound is implied
    // by the tighter one, so its selector is retired with a unit clause —
    // the old row goes inert instead of accumulating watch effort.
    for (Lit old : assumptions) solver.addClause({~old});
    assumptions.clear();
    Lit sel(solver.newVar(), false);
    if (!lowerConstraint(solver,
                         ConstraintView{model.objective(), Cmp::kLe,
                                        result.objective - 1, NameRef::none()},
                         varMap, sel)) {
      result.status = OptStatus::kOptimal;  // cannot improve further
      return result;
    }
    assumptions.push_back(sel);
  }
}

}  // namespace ruleplace::solver
