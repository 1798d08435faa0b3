#pragma once
// CDCL solver over clauses, cardinality and pseudo-Boolean constraints.
//
// This is the solving substrate that replaces CPLEX in our reproduction.
// Every constraint produced by the rule-placement encoder is linear over
// binary variables, and after normalization falls into one of three shapes:
//   * clause            Σ l_i >= 1          (path-dependency Eq. 2/7,
//                                            rule-dependency Eq. 1/6,
//                                            merge-link Eq. 4/5 -> clauses)
//   * cardinality       Σ l_i >= b          (switch capacity Eq. 3)
//   * pseudo-Boolean    Σ a_i l_i >= b      (objective bound during
//                                            branch-and-bound minimization)
//
// Architecture: MiniSat-style CDCL — two-watched-literal clause propagation,
// counter-based cardinality/PB propagation with occurrence lists and undo on
// backtrack, 1-UIP conflict analysis (PB/cardinality reasons are weakened to
// clausal reasons, the standard Sat4j/MiniSat+ "counter" technique), EVSIDS
// decision heuristic, phase saving, Luby restarts, LBD-driven learnt-clause
// deletion.  Default polarity is `false`, which for the placement encoding
// means "do not place" — an excellent first guess under a minimization
// objective.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "solver/types.h"
#include "util/arena.h"

namespace ruleplace::solver {

class Solver {
 public:
  /// Search-heuristic knobs.  Defaults reproduce the historical behaviour;
  /// the portfolio race instantiates diversified configurations (different
  /// seeds, restart schedules, random-phase rates) over the same encoding.
  struct Config {
    std::uint64_t seed = 0;            ///< diversification seed (0 = none)
    std::int64_t restartBase = 128;    ///< conflicts before the first restart
    bool geometricRestarts = false;    ///< geometric (×1.5) instead of Luby
    double randomPolarityFreq = 0.0;   ///< chance a decision ignores the
                                       ///< saved phase ([0, 1])
  };

  Solver();

  /// Install heuristic knobs.  Call before the first solve(); the seed
  /// re-seeds the diversification RNG immediately.
  void setConfig(const Config& cfg);

  /// Create a fresh variable; returns its index (dense from 0).
  Var newVar() { return newVars(1); }
  /// Create `n` fresh variables, growing every per-variable and per-literal
  /// array once; returns the first new index.
  Var newVars(int n);
  int varCount() const noexcept { return static_cast<int>(assigns_.size()); }

  /// Add a clause Σ l_i >= 1. Returns false if the solver became
  /// trivially UNSAT at the root.  Constraints may only be added at
  /// decision level 0 (call between solve() invocations).
  bool addClause(std::vector<Lit> lits);

  /// Add a cardinality constraint: at least `bound` of `lits` are true.
  bool addCardinality(std::vector<Lit> lits, int bound);

  /// Add a pseudo-Boolean constraint Σ coeff_i * lit_i >= bound with
  /// strictly positive coefficients.
  bool addPB(std::vector<std::pair<std::int64_t, Lit>> terms,
             std::int64_t bound) {
    return addPBInPlace(terms, bound);
  }
  /// addPB that normalizes `terms` in place, leaving it unspecified, so a
  /// lowering loop reuses one buffer — e.g. termScratch() — for every row.
  bool addPBInPlace(std::vector<std::pair<std::int64_t, Lit>>& terms,
                    std::int64_t bound);
  std::vector<std::pair<std::int64_t, Lit>>& termScratch() noexcept {
    return termScratch_;
  }

  /// CDCL search. kSat leaves a full model readable via modelValue().
  SolveStatus solve(const Budget& budget = Budget::unlimited());

  /// Incremental CDCL search under assumptions.  Each assumption literal is
  /// enqueued as a pseudo-decision on its own level below the free search
  /// (level i+1 holds assumptions[i]), so learned clauses, EVSIDS
  /// activities and saved phases all survive into the next call.  When the
  /// instance is UNSAT *under the assumptions* the solver stays usable
  /// (okay() remains true) and unsatCore() names a subset of the
  /// assumptions that cannot jointly hold; only a root-level conflict —
  /// UNSAT regardless of assumptions — poisons the solver.
  SolveStatus solve(const std::vector<Lit>& assumptions, const Budget& budget);

  /// After solve(assumptions, ...) returns kUnsat with okay() still true:
  /// a subset of the assumption literals whose conjunction with the
  /// constraint database is unsatisfiable (the "final conflict" core).
  /// Empty when the database itself is UNSAT.
  const std::vector<Lit>& unsatCore() const noexcept { return unsatCore_; }

  /// Value of a variable in the last SAT model.
  bool modelValue(Var v) const { return model_.at(static_cast<std::size_t>(v)); }

  const SolverStats& stats() const noexcept { return stats_; }

  /// Suggest an initial phase for a variable (used to seed the search with
  /// a known-good incumbent in optimization loops).
  void setPolarity(Var v, bool phase) {
    polarity_.at(static_cast<std::size_t>(v)) = phase;
  }

  bool okay() const noexcept { return ok_; }

 private:
  // ---- constraint storage -------------------------------------------------
  // Clause literals live in clauseArena_ as bare arrays: a clause is a
  // (pointer, length) view plus metadata, 32 bytes instead of a 24-byte
  // vector header pointing at its own malloc block.  Clause literal counts
  // never change after construction (propagation only swaps in place), and
  // arena addresses are stable, so the pointers stay valid until
  // compactClauseDB() migrates survivors into a fresh generation.
  struct Clause {
    Lit* lits = nullptr;
    std::uint32_t size = 0;
    double activity = 0.0;
    int lbd = 0;
    bool learnt = false;
    bool deleted = false;
    Lit* begin() const noexcept { return lits; }
    Lit* end() const noexcept { return lits + size; }
  };
  struct Card {
    std::vector<Lit> lits;
    int bound = 0;
    int falseCount = 0;  // maintained incrementally along the trail
  };
  struct PB {
    // terms sorted by coefficient descending
    std::vector<std::pair<std::int64_t, Lit>> terms;
    std::int64_t bound = 0;
    std::int64_t possibleSum = 0;  // Σ coeff over non-false literals
  };

  struct Watcher {
    std::int32_t clauseIdx;
    Lit blocker;
  };

  // Reason for a propagated literal.
  struct Reason {
    enum class Kind : std::uint8_t { kNone, kClause, kCard, kPB } kind =
        Kind::kNone;
    std::int32_t idx = -1;
  };

  // ---- state --------------------------------------------------------------
  util::Arena clauseArena_;  ///< owns every Clause's literal array
  std::vector<Clause> clauses_;
  std::vector<Card> cards_;
  std::vector<PB> pbs_;

  std::vector<std::vector<Watcher>> watches_;  // by lit code
  // For each literal code q: card/PB constraints containing ~q (so q
  // becoming true falsifies a term).  PB entries carry the coefficient.
  std::vector<std::vector<std::int32_t>> cardOccs_;
  std::vector<std::vector<std::pair<std::int32_t, std::int64_t>>> pbOccs_;

  std::vector<LBool> assigns_;     // by var
  std::vector<bool> polarity_;     // saved phase, by var
  std::vector<int> level_;         // by var
  std::vector<std::int32_t> trailIndex_;  // by var
  std::vector<Reason> reasons_;    // by var
  std::vector<Lit> trail_;
  std::vector<std::int32_t> trailLim_;
  std::size_t qhead_ = 0;

  // VSIDS
  std::vector<double> activity_;
  double varInc_ = 1.0;
  std::vector<Var> heap_;           // binary max-heap of vars by activity
  std::vector<std::int32_t> heapIndex_;  // var -> heap slot or -1

  std::vector<bool> seen_;  // scratch for analyze()
  std::vector<Lit> litScratch_;  // scratch for addPBInPlace's clause rows
  std::vector<std::pair<std::int64_t, Lit>> termScratch_;

  SolverStats stats_;
  bool ok_ = true;
  double claInc_ = 1.0;
  std::int64_t learntCount_ = 0;

  // Persisted across solve() calls: restarting the Luby sequence and the
  // reduceDB threshold from scratch on every re-entry would immediately
  // dump roughly half of the retained learnt clauses and thrash restarts —
  // exactly the clause reuse incremental solving is for.
  std::int64_t restartCycle_ = 0;
  std::int64_t reduceLimit_ = 4000;

  Config cfg_;
  std::uint64_t rngState_ = 0x9e3779b97f4a7c15ull;
  std::vector<Lit> unsatCore_;

  // ---- helpers ------------------------------------------------------------
  LBool value(Lit l) const noexcept {
    return assigns_[static_cast<std::size_t>(l.var())] ^ l.sign();
  }
  LBool value(Var v) const noexcept {
    return assigns_[static_cast<std::size_t>(v)];
  }
  int decisionLevel() const noexcept {
    return static_cast<int>(trailLim_.size());
  }

  /// Copy `lits` into clauseArena_ and append a Clause viewing the copy.
  void pushClause(std::span<const Lit> lits, double activity, int lbd,
                  bool learnt);
  /// addClause / addCardinality past their sort: `lits` is sorted by
  /// literal, and for the cardinality each variable occurs once.
  bool addSortedClause(std::span<Lit> lits);
  bool addUniqueCardinality(std::vector<Lit> lits, int bound);

  void attachClause(std::int32_t idx);
  bool enqueue(Lit p, Reason from);
  /// Propagate until fixpoint; on conflict returns the conflicting
  /// constraint as a clausal explanation in `conflictOut` and returns false.
  bool propagate(std::vector<Lit>& conflictOut);
  bool propagateClauses(Lit p, std::vector<Lit>& conflictOut);
  bool propagateCards(Lit p, std::vector<Lit>& conflictOut);
  bool propagatePBs(Lit p, std::vector<Lit>& conflictOut);

  void cancelUntil(int levelTarget);
  void newDecisionLevel() { trailLim_.push_back(static_cast<std::int32_t>(trail_.size())); }

  /// Clausal explanation of a propagation: lits (other than p) all false,
  /// whose conjunction of negations implied p.
  void reasonLits(Lit p, const Reason& r, std::vector<Lit>& out) const;

  void analyze(const std::vector<Lit>& conflict, std::vector<Lit>& learnt,
               int& backtrackLevel);
  void minimizeLearnt(std::vector<Lit>& learnt);
  /// Final-conflict analysis: the assumption literal `p` is false under the
  /// current (conflict-free) trail; fill unsatCore_ with the subset of
  /// assumption literals responsible.
  void analyzeFinal(Lit p);

  // VSIDS heap operations.
  void varBump(Var v);
  void varDecay() { varInc_ *= (1.0 / 0.95); }
  void heapUp(std::int32_t i);
  void heapDown(std::int32_t i);
  void heapInsert(Var v);
  Var heapPop();
  bool heapLess(Var a, Var b) const noexcept {
    return activity_[static_cast<std::size_t>(a)] >
           activity_[static_cast<std::size_t>(b)];
  }

  Lit pickBranchLit();
  void reduceDB();
  void compactClauseDB();
  void rescaleActivity();

  // Learnt-clause activity (bump on use as a conflict/reason clause, decay
  // per conflict) — feeds the reduceDB ranking alongside LBD.
  void claBump(Clause& c);
  void claDecay() { claInc_ *= (1.0 / 0.999); }

  std::uint64_t nextRand() noexcept {
    rngState_ ^= rngState_ << 13;
    rngState_ ^= rngState_ >> 7;
    rngState_ ^= rngState_ << 17;
    return rngState_;
  }

  std::vector<bool> model_;
};

/// Luby restart sequence value (1,1,2,1,1,2,4,...).
std::int64_t luby(std::int64_t i);

}  // namespace ruleplace::solver
