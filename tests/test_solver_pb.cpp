// Dedicated randomized stress for cardinality- and PB-heavy models —
// the constraint mix the placement encoder actually produces (covers,
// implications, capacities, objective bounds) — cross-checked against the
// brute-force reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "solver/bruteforce.h"
#include "solver/optimize.h"
#include "solver/sat.h"
#include "util/rng.h"

namespace ruleplace::solver {
namespace {

// Placement-shaped random model: cover constraints (>= 1 over subsets),
// implication pairs (a >= b), and capacity constraints (<= C over
// subsets), unit objective.
Model placementShapedModel(util::Rng& rng, int nVars) {
  Model m;
  std::vector<ModelVar> vars;
  for (int i = 0; i < nVars; ++i) vars.push_back(m.addBinary());
  int nCovers = static_cast<int>(rng.range(2, 5));
  for (int c = 0; c < nCovers; ++c) {
    LinearExpr e;
    int k = static_cast<int>(rng.range(2, 5));
    for (int t = 0; t < k; ++t) e.add(1, vars[rng.below(nVars)]);
    m.addConstraint(std::move(e), Cmp::kGe, 1);
  }
  int nImpl = static_cast<int>(rng.range(1, 5));
  for (int c = 0; c < nImpl; ++c) {
    LinearExpr e;
    e.add(1, vars[rng.below(nVars)]).add(-1, vars[rng.below(nVars)]);
    m.addConstraint(std::move(e), Cmp::kGe, 0);
  }
  int nCaps = static_cast<int>(rng.range(1, 4));
  for (int c = 0; c < nCaps; ++c) {
    LinearExpr e;
    int k = static_cast<int>(rng.range(3, std::min(nVars, 8)));
    for (int t = 0; t < k; ++t) e.add(1, vars[rng.below(nVars)]);
    m.addConstraint(std::move(e), Cmp::kLe, rng.range(1, 3));
  }
  LinearExpr obj;
  for (ModelVar v : vars) obj.add(1, v);
  m.setObjective(obj);
  return m;
}

// Weighted-PB random model: coefficients up to 7 both in constraints and
// the objective, exercising the general PB propagation path.
Model weightedPbModel(util::Rng& rng, int nVars) {
  Model m;
  std::vector<ModelVar> vars;
  for (int i = 0; i < nVars; ++i) vars.push_back(m.addBinary());
  int nCons = static_cast<int>(rng.range(3, 7));
  for (int c = 0; c < nCons; ++c) {
    LinearExpr e;
    int k = static_cast<int>(rng.range(2, 6));
    for (int t = 0; t < k; ++t) {
      e.add(rng.range(1, 7), vars[rng.below(nVars)]);
    }
    if (rng.chance(0.5)) {
      m.addConstraint(std::move(e), Cmp::kGe, rng.range(2, 9));
    } else {
      m.addConstraint(std::move(e), Cmp::kLe, rng.range(3, 12));
    }
  }
  LinearExpr obj;
  for (ModelVar v : vars) obj.add(rng.range(1, 5), v);
  m.setObjective(obj);
  return m;
}

class PlacementShapedCrossCheck
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlacementShapedCrossCheck, MatchesBruteForce) {
  util::Rng rng(GetParam() * 101);
  for (int round = 0; round < 8; ++round) {
    Model m = placementShapedModel(rng, 12);
    OptResult exact = bruteForceSolve(m);
    OptResult got = Optimizer::solve(m);
    ASSERT_EQ(got.status, exact.status) << "round " << round;
    if (exact.status == OptStatus::kOptimal) {
      EXPECT_EQ(got.objective, exact.objective) << "round " << round;
      EXPECT_TRUE(m.feasible(got.assignment));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacementShapedCrossCheck,
                         ::testing::Range<std::uint64_t>(1, 13));

class WeightedPbCrossCheck : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(WeightedPbCrossCheck, MatchesBruteForce) {
  util::Rng rng(GetParam() * 211);
  for (int round = 0; round < 8; ++round) {
    Model m = weightedPbModel(rng, 11);
    OptResult exact = bruteForceSolve(m);
    OptResult got = Optimizer::solve(m);
    ASSERT_EQ(got.status, exact.status) << "round " << round;
    if (exact.status == OptStatus::kOptimal) {
      EXPECT_EQ(got.objective, exact.objective) << "round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedPbCrossCheck,
                         ::testing::Range<std::uint64_t>(1, 13));

// With a *valid* lower bound attached, results must not change (the bound
// is an optimization aid, never a semantics change).
class BoundedCrossCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoundedCrossCheck, ValidBoundPreservesOptimum) {
  util::Rng rng(GetParam() * 307);
  for (int round = 0; round < 6; ++round) {
    Model m = placementShapedModel(rng, 10);
    OptResult exact = bruteForceSolve(m);
    if (exact.status != OptStatus::kOptimal) continue;
    // Any bound <= optimum is valid; try a few.
    for (std::int64_t delta : {0, 1, 3}) {
      Model bounded = m.clone();
      bounded.setObjectiveLowerBound(exact.objective - delta);
      OptResult got = Optimizer::solve(bounded);
      ASSERT_EQ(got.status, OptStatus::kOptimal);
      EXPECT_EQ(got.objective, exact.objective)
          << "round " << round << " delta " << delta;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundedCrossCheck,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Duplicate / complementary literal normalization (regression).
//
// The counter-based propagators assume each variable occurs at most once
// per constraint, so addPB/addCardinality must normalize multiset inputs
// under linear semantics: duplicates merge, x/¬x pairs contribute their
// min coefficient as a constant.  Before normalization was added, both
// add paths silently accepted such inputs and missed root-level
// consequences that the merged form exposes immediately.

TEST(PbNormalization, CancellingPairsDetectUnsatAtAddTime) {
  // 5x + 5¬x + 5y + 5¬y >= 12 is 10 >= 12 after cancellation: UNSAT at
  // the root, which addPB must report by returning false.
  Solver s;
  Lit x(s.newVar(), false);
  Lit y(s.newVar(), false);
  EXPECT_FALSE(s.addPB({{5, x}, {5, ~x}, {5, y}, {5, ~y}}, 12));
  EXPECT_FALSE(s.okay());
}

TEST(PbNormalization, CancellingPairsKeepSatisfiableResidual) {
  // 5x + 5¬x + 5y + 5¬y >= 10 is 10 >= 10: trivially true.
  Solver s;
  Lit x(s.newVar(), false);
  Lit y(s.newVar(), false);
  EXPECT_TRUE(s.addPB({{5, x}, {5, ~x}, {5, y}, {5, ~y}}, 10));
  EXPECT_TRUE(s.okay());
  EXPECT_EQ(s.solve(), SolveStatus::kSat);
}

TEST(PbNormalization, UnequalPairLeavesResidualOnStrongerLiteral) {
  // 7x + 3¬x >= 7  ==  3 + 4x >= 7  ==  4x >= 4: forces x at the root.
  Solver s;
  Lit x(s.newVar(), false);
  EXPECT_TRUE(s.addPB({{7, x}, {3, ~x}}, 7));
  EXPECT_FALSE(s.addClause({~x}));
  EXPECT_FALSE(s.okay());
}

TEST(PbNormalization, DuplicateCardinalityLiteralsMergeAndPropagate) {
  // x + x + y + z >= 3  ==  2x + y + z >= 3: x is forced at the root
  // (without x at most 2 is reachable), so ¬x must be rejected.
  Solver s;
  Lit x(s.newVar(), false);
  Lit y(s.newVar(), false);
  Lit z(s.newVar(), false);
  EXPECT_TRUE(s.addCardinality({x, x, y, z}, 3));
  EXPECT_FALSE(s.addClause({~x}));
  EXPECT_FALSE(s.okay());
}

TEST(PbNormalization, DuplicatePbLiteralsMerge) {
  // 2x + 1x + y >= 3  ==  3x + y >= 3: forces x.
  Solver s;
  Lit x(s.newVar(), false);
  Lit y(s.newVar(), false);
  EXPECT_TRUE(s.addPB({{2, x}, {1, x}, {1, y}}, 3));
  EXPECT_FALSE(s.addClause({~x}));
  EXPECT_FALSE(s.okay());
}

TEST(PbNormalization, ComplementaryCardinalityPairRoutesThroughPb) {
  // x + ¬x + y + z >= 3  ==  1 + y + z >= 3: forces y and z.
  Solver s;
  Lit x(s.newVar(), false);
  Lit y(s.newVar(), false);
  Lit z(s.newVar(), false);
  EXPECT_TRUE(s.addCardinality({x, ~x, y, z}, 3));
  EXPECT_FALSE(s.addClause({~y}));
  EXPECT_FALSE(s.okay());
}

// Differential battery: random multiset PB systems (duplicates and
// complementary pairs allowed) against a brute-force evaluation of the
// raw, un-normalized term lists under linear semantics.

struct RawPb {
  std::vector<std::pair<std::int64_t, Lit>> terms;
  std::int64_t bound;
};

bool multisetSat(const std::vector<RawPb>& system, std::uint32_t mask) {
  for (const RawPb& c : system) {
    std::int64_t sum = 0;
    for (const auto& [coeff, lit] : c.terms) {
      bool varTrue = (mask >> lit.var()) & 1u;
      if (varTrue != lit.sign()) sum += coeff;
    }
    if (sum < c.bound) return false;
  }
  return true;
}

bool multisetSatisfiable(int nVars, const std::vector<RawPb>& system) {
  for (std::uint32_t mask = 0; mask < (1u << nVars); ++mask) {
    if (multisetSat(system, mask)) return true;
  }
  return false;
}

class MultisetPbCrossCheck : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(MultisetPbCrossCheck, MatchesBruteForce) {
  util::Rng rng(GetParam() * 733);
  for (int round = 0; round < 40; ++round) {
    const int nVars = 6;
    std::vector<RawPb> system;
    int nCons = static_cast<int>(rng.range(2, 4));
    for (int c = 0; c < nCons; ++c) {
      RawPb raw;
      int k = static_cast<int>(rng.range(3, 6));
      for (int t = 0; t < k; ++t) {
        // Duplicates and complementary pairs arise naturally from the
        // small variable pool.
        raw.terms.push_back({rng.range(1, 4),
                             Lit(static_cast<Var>(rng.below(nVars)),
                                 rng.chance(0.5))});
      }
      raw.bound = static_cast<std::int64_t>(rng.range(1, 8));
      system.push_back(std::move(raw));
    }

    Solver s;
    for (int v = 0; v < nVars; ++v) s.newVar();
    bool addedOk = true;
    for (const RawPb& c : system) {
      if (!s.addPB(c.terms, c.bound)) {
        addedOk = false;
        break;
      }
    }
    const bool expected = multisetSatisfiable(nVars, system);
    if (!addedOk) {
      // Add-time UNSAT of a prefix implies the full system is UNSAT.
      EXPECT_FALSE(expected) << "round " << round;
      continue;
    }
    SolveStatus got = s.solve();
    ASSERT_NE(got, SolveStatus::kUnknown);
    EXPECT_EQ(got == SolveStatus::kSat, expected) << "round " << round;
    if (got == SolveStatus::kSat) {
      std::uint32_t mask = 0;
      for (int v = 0; v < nVars; ++v) {
        if (s.modelValue(static_cast<Var>(v))) mask |= (1u << v);
      }
      EXPECT_TRUE(multisetSat(system, mask)) << "round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultisetPbCrossCheck,
                         ::testing::Range<std::uint64_t>(1, 9));

class MultisetCardCrossCheck
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultisetCardCrossCheck, MatchesBruteForce) {
  util::Rng rng(GetParam() * 977);
  for (int round = 0; round < 40; ++round) {
    const int nVars = 6;
    std::vector<RawPb> system;
    int nCons = static_cast<int>(rng.range(2, 4));
    for (int c = 0; c < nCons; ++c) {
      RawPb raw;
      int k = static_cast<int>(rng.range(3, 7));
      for (int t = 0; t < k; ++t) {
        raw.terms.push_back({1, Lit(static_cast<Var>(rng.below(nVars)),
                                    rng.chance(0.5))});
      }
      raw.bound = static_cast<std::int64_t>(rng.range(1, 5));
      system.push_back(std::move(raw));
    }

    Solver s;
    for (int v = 0; v < nVars; ++v) s.newVar();
    bool addedOk = true;
    for (const RawPb& c : system) {
      std::vector<Lit> lits;
      for (const auto& [coeff, lit] : c.terms) {
        (void)coeff;
        lits.push_back(lit);
      }
      if (!s.addCardinality(std::move(lits), static_cast<int>(c.bound))) {
        addedOk = false;
        break;
      }
    }
    const bool expected = multisetSatisfiable(nVars, system);
    if (!addedOk) {
      EXPECT_FALSE(expected) << "round " << round;
      continue;
    }
    SolveStatus got = s.solve();
    ASSERT_NE(got, SolveStatus::kUnknown);
    EXPECT_EQ(got == SolveStatus::kSat, expected) << "round " << round;
    if (got == SolveStatus::kSat) {
      std::uint32_t mask = 0;
      for (int v = 0; v < nVars; ++v) {
        if (s.modelValue(static_cast<Var>(v))) mask |= (1u << v);
      }
      EXPECT_TRUE(multisetSat(system, mask)) << "round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultisetCardCrossCheck,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Lowering fast paths.  addPB skips its literal sort when the input is
// sorted already (every canonical model row), and rows whose coefficients
// all end up equal go straight to clause or cardinality storage.  Random
// rows — repeated variables, opposite-sign repeats that become x/¬x pairs,
// mixed and all-equal coefficients, gated and ungated — are lowered into
// two solvers, terms in literal order and shuffled.  The two must agree on
// everything (add-time verdicts, okay(), status, model, search counters),
// and both with a brute-force evaluation of the raw rows.

struct RawRow {
  std::vector<Term> terms;
  Cmp cmp = Cmp::kGe;
  std::int64_t rhs = 0;
  bool gated = false;
};

bool rowHolds(const RawRow& r, std::uint32_t mask) {
  std::int64_t lhs = 0;
  for (const auto& [coeff, v] : r.terms) {
    if ((mask >> v) & 1u) lhs += coeff;
  }
  switch (r.cmp) {
    case Cmp::kLe: return lhs <= r.rhs;
    case Cmp::kGe: return lhs >= r.rhs;
    case Cmp::kEq: return lhs == r.rhs;
  }
  return false;
}

// Literal order of a row's first lowered half: a term becomes a positive
// literal when its coefficient points the same way as the comparison.
std::vector<Term> literalSorted(std::vector<Term> terms, Cmp cmp) {
  auto negLit = [cmp](std::int64_t c) {
    return cmp == Cmp::kLe ? c >= 0 : c <= 0;
  };
  std::sort(terms.begin(), terms.end(), [&](const Term& a, const Term& b) {
    if (a.second != b.second) return a.second < b.second;
    return !negLit(a.first) && negLit(b.first);
  });
  return terms;
}

class LoweringFastPath : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LoweringFastPath, SortedAndShuffledRowsAgree) {
  util::Rng rng(GetParam() * 1361);
  for (int round = 0; round < 40; ++round) {
    const int nVars = 6;
    std::vector<RawRow> rows;
    const int nRows = static_cast<int>(rng.range(2, 5));
    for (int c = 0; c < nRows; ++c) {
      RawRow row;
      const bool allEqual = rng.chance(0.5);
      const std::int64_t mag = rng.range(1, 3);
      const int k = static_cast<int>(rng.range(1, 6));
      for (int t = 0; t < k; ++t) {
        const std::int64_t m = allEqual ? mag : rng.range(1, 4);
        row.terms.push_back({rng.chance(0.3) ? -m : m,
                             static_cast<ModelVar>(rng.below(nVars))});
      }
      const auto cmpPick = rng.below(5);
      row.cmp = cmpPick < 2 ? Cmp::kGe : cmpPick < 4 ? Cmp::kLe : Cmp::kEq;
      row.rhs = rng.range(-2, 6);
      row.gated = rng.chance(0.4);
      rows.push_back(std::move(row));
    }

    Solver sorted;
    Solver shuffled;
    std::vector<Var> varMap;
    for (int v = 0; v < nVars; ++v) {
      varMap.push_back(sorted.newVar());
      shuffled.newVar();
    }
    std::vector<Lit> assumptions;
    std::vector<bool> enforced;
    bool addedOk = true;
    for (const RawRow& row : rows) {
      Lit gate = Lit::undef();
      if (row.gated) {
        gate = Lit(sorted.newVar(), false);
        shuffled.newVar();
      }
      // An unassumed gate leaves its row free to be switched off.
      const bool assume = !row.gated || rng.chance(0.7);
      if (row.gated && assume) assumptions.push_back(gate);
      enforced.push_back(assume);
      Constraint a;
      Constraint b;
      for (const auto& [coeff, v] : literalSorted(row.terms, row.cmp)) {
        a.expr.add(coeff, v);
      }
      std::vector<Term> perm = row.terms;
      for (std::size_t i = perm.size(); i > 1; --i) {
        std::swap(perm[i - 1], perm[rng.below(i)]);
      }
      for (const auto& [coeff, v] : perm) b.expr.add(coeff, v);
      a.cmp = b.cmp = row.cmp;
      a.rhs = b.rhs = row.rhs;
      const bool okA = lowerConstraint(
          sorted, ConstraintView{ExprView(a.expr), a.cmp, a.rhs, a.name},
          varMap, gate);
      const bool okB = lowerConstraint(
          shuffled, ConstraintView{ExprView(b.expr), b.cmp, b.rhs, b.name},
          varMap, gate);
      ASSERT_EQ(okA, okB) << "round " << round;
      ASSERT_EQ(sorted.okay(), shuffled.okay()) << "round " << round;
      if (!okA) {
        addedOk = false;
        break;
      }
    }
    bool expected = false;
    for (std::uint32_t mask = 0; mask < (1u << nVars) && !expected; ++mask) {
      bool all = true;
      for (std::size_t i = 0; i < rows.size() && all; ++i) {
        all = !enforced[i] || rowHolds(rows[i], mask);
      }
      expected = all;
    }
    if (!addedOk) {
      // Add-time UNSAT of a prefix implies the whole system is UNSAT.
      EXPECT_FALSE(expected) << "round " << round;
      continue;
    }
    const SolveStatus stA = sorted.solve(assumptions, Budget::unlimited());
    const SolveStatus stB = shuffled.solve(assumptions, Budget::unlimited());
    ASSERT_EQ(stA, stB) << "round " << round;
    ASSERT_NE(stA, SolveStatus::kUnknown);
    EXPECT_EQ(stA == SolveStatus::kSat, expected) << "round " << round;
    EXPECT_EQ(sorted.stats().decisions, shuffled.stats().decisions);
    EXPECT_EQ(sorted.stats().propagations, shuffled.stats().propagations);
    EXPECT_EQ(sorted.stats().conflicts, shuffled.stats().conflicts);
    if (stA != SolveStatus::kSat) continue;
    std::uint32_t mask = 0;
    for (Var v = 0; v < sorted.varCount(); ++v) {
      ASSERT_EQ(sorted.modelValue(v), shuffled.modelValue(v))
          << "round " << round << " var " << v;
      if (v < nVars && sorted.modelValue(v)) mask |= (1u << v);
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_TRUE(!enforced[i] || rowHolds(rows[i], mask))
          << "round " << round << " row " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LoweringFastPath,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(LowerBound, FirstIncumbentAboveBoundIsPolishedToOptimum) {
  // The all-true hint makes the first SAT answer place everything
  // (objective 7) against a declared bound of 1, so the polisher — built
  // only once an incumbent misses the bound — must run.  Its removal pass
  // strips b and c, reaching the optimum {a} in the very first step.
  Model m;
  ModelVar a = m.addBinary();
  ModelVar b = m.addBinary();
  ModelVar c = m.addBinary();
  LinearExpr ab;
  ab.add(1, a).add(1, b);
  m.addConstraint(ab, Cmp::kGe, 1);
  LinearExpr ac;
  ac.add(1, a).add(1, c);
  m.addConstraint(ac, Cmp::kGe, 1);
  LinearExpr obj;
  obj.add(1, a).add(3, b).add(3, c);
  m.setObjective(obj);
  m.setObjectiveLowerBound(1);
  OptResult r = Optimizer::solveWithHint(m, {{a, true}, {b, true}, {c, true}});
  ASSERT_EQ(r.status, OptStatus::kOptimal);
  EXPECT_EQ(r.objective, 1);
  EXPECT_EQ(r.improvementSteps, 1);
  EXPECT_EQ(r.assignment, (std::vector<bool>{true, false, false}));
}

}  // namespace
}  // namespace ruleplace::solver
