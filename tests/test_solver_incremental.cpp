// Assumption-based incremental solving (docs/solver.md "Solving under
// assumptions"): solve-under-assumptions and unsat cores, clause reuse
// across calls and the IncrementalSession churn API — plus regression tests
// for the solver re-entry bugs this work uncovered (VSIDS heap var leak,
// restart-cycle and reduceDB-threshold reset on every solve() call).

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "core/incremental.h"
#include "core/placer.h"
#include "core/verify.h"
#include "match/cubeset.h"
#include "solver/optimize.h"
#include "solver/sat.h"

namespace ruleplace::solver {
namespace {

using SS = SolveStatus;

Lit pos(Var v) { return Lit(v, false); }
Lit neg(Var v) { return Lit(v, true); }

// ---- assumptions ----------------------------------------------------------

TEST(Assumptions, SatUnderAssumptionsAndModelRespectsThem) {
  Solver s;
  Var a = s.newVar(), b = s.newVar(), c = s.newVar();
  ASSERT_TRUE(s.addClause({pos(a), pos(b), pos(c)}));
  EXPECT_EQ(s.solve({neg(a), neg(b)}, Budget::unlimited()), SS::kSat);
  EXPECT_FALSE(s.modelValue(a));
  EXPECT_FALSE(s.modelValue(b));
  EXPECT_TRUE(s.modelValue(c));
}

TEST(Assumptions, UnsatUnderAssumptionsKeepsSolverUsable) {
  Solver s;
  Var a = s.newVar(), b = s.newVar();
  ASSERT_TRUE(s.addClause({pos(a), pos(b)}));
  EXPECT_EQ(s.solve({neg(a), neg(b)}, Budget::unlimited()), SS::kUnsat);
  EXPECT_TRUE(s.okay());  // only root conflicts poison the solver
  // The core names assumptions, not arbitrary literals, and is itself
  // jointly unsatisfiable with the database.
  const auto& core = s.unsatCore();
  ASSERT_FALSE(core.empty());
  for (Lit l : core) {
    EXPECT_TRUE((l == neg(a)) || (l == neg(b)));
  }
  // Dropping the assumptions, the instance is satisfiable again.
  EXPECT_EQ(s.solve({}, Budget::unlimited()), SS::kSat);
  EXPECT_EQ(s.solve({neg(a)}, Budget::unlimited()), SS::kSat);
  EXPECT_TRUE(s.modelValue(b));
}

TEST(Assumptions, CoreIsSubsetOfRelevantAssumptions) {
  // x0 forced true by the database; assuming ~x0 conflicts on its own while
  // the unrelated assumption x1 must stay out of the core.
  Solver s;
  Var x0 = s.newVar(), x1 = s.newVar();
  ASSERT_TRUE(s.addClause({pos(x0)}));
  EXPECT_EQ(s.solve({pos(x1), neg(x0)}, Budget::unlimited()), SS::kUnsat);
  ASSERT_EQ(s.unsatCore().size(), 1u);
  EXPECT_TRUE(s.unsatCore()[0] == neg(x0));
}

TEST(Assumptions, AssumptionsInteractWithCardinalityAndPB) {
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 4; ++i) v.push_back(s.newVar());
  // At least 2 of 4 true; PB: 3*x0 + x1 + x2 >= 3.
  ASSERT_TRUE(
      s.addCardinality({pos(v[0]), pos(v[1]), pos(v[2]), pos(v[3])}, 2));
  ASSERT_TRUE(s.addPB({{3, pos(v[0])}, {1, pos(v[1])}, {1, pos(v[2])}}, 3));
  EXPECT_EQ(s.solve({neg(v[0])}, Budget::unlimited()), SS::kUnsat);
  EXPECT_TRUE(s.okay());
  EXPECT_EQ(s.solve({pos(v[0]), neg(v[1]), neg(v[2])}, Budget::unlimited()),
            SS::kSat);
  EXPECT_TRUE(s.modelValue(v[3]));  // cardinality still needs a second var
}

// ---- re-entry regressions -------------------------------------------------

// Deterministic hard instance: random 3-SAT near the phase transition.
// Returned clauses are over vars [0, vars); generation is seeded, so test
// behaviour is identical on every run and platform.
std::vector<std::vector<Lit>> random3Sat(int vars, int clauses,
                                         std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> pickVar(0, vars - 1);
  std::uniform_int_distribution<int> coin(0, 1);
  std::vector<std::vector<Lit>> out;
  out.reserve(static_cast<std::size_t>(clauses));
  while (static_cast<int>(out.size()) < clauses) {
    int a = pickVar(rng), b = pickVar(rng), c = pickVar(rng);
    if (a == b || b == c || a == c) continue;
    out.push_back({Lit(a, coin(rng) == 1), Lit(b, coin(rng) == 1),
                   Lit(c, coin(rng) == 1)});
  }
  return out;
}

// Regression (pre-fix failing): restartCycle_ was a local of solve(), so
// every re-entry replayed the Luby sequence from its dense start instead of
// continuing into the sparser tail.  Two equal-conflict-budget calls on a
// hard instance then restart equally often; with the cycle persisted the
// second call must restart strictly less.
TEST(SolverReentry, RestartCyclePersistsAcrossSolves) {
  Solver s;
  for (int i = 0; i < 300; ++i) s.newVar();
  for (auto& cl : random3Sat(300, 1320, /*seed=*/7)) {
    ASSERT_TRUE(s.addClause(std::move(cl)));
  }
  ASSERT_EQ(s.solve(Budget::conflicts(3000)), SS::kUnknown);
  const std::int64_t r1 = s.stats().restarts;
  ASSERT_GT(r1, 4);  // the budget spans several Luby segments
  ASSERT_EQ(s.solve(Budget::conflicts(3000)), SS::kUnknown);
  const std::int64_t r2 = s.stats().restarts - r1;
  EXPECT_LT(r2, r1);
}

// Regression (pre-fix failing): reduceLimit_ was a local of solve(), reset
// to 4000 on every call.  A call entered with a learnt database past that
// initial threshold (but below the persisted, grown one) then dumped half
// the retained clauses on its very first step — exactly the clause reuse
// incremental solving exists to keep.
TEST(SolverReentry, ReduceThresholdPersistsAcrossSolves) {
  Solver s;
  for (int i = 0; i < 300; ++i) s.newVar();
  for (auto& cl : random3Sat(300, 1320, /*seed=*/11)) {
    ASSERT_TRUE(s.addClause(std::move(cl)));
  }
  // ~6200 conflicts: one reduceDB fires (threshold 4000, grown to 6000),
  // and the learnt count climbs back above 4000 but stays below 6000.
  ASSERT_EQ(s.solve(Budget::conflicts(6200)), SS::kUnknown);
  const std::int64_t deleted = s.stats().deletedClauses;
  ASSERT_GT(deleted, 0);  // the first reduce did happen
  ASSERT_EQ(s.solve(Budget::conflicts(64)), SS::kUnknown);
  EXPECT_EQ(s.stats().deletedClauses, deleted)
      << "re-entry reset the reduceDB threshold and dumped learnt clauses";
}

// Regression (pre-fix failing): heapPop() cleared the popped var's heap
// index before the move-from-the-back re-seat; on a single-element heap the
// self-assignment undid the clear, the var was never re-inserted, and later
// solves returned "models" with genuinely unassigned vars.  Cross-check
// repeated solves on one solver against a fresh solver per step.
// Deterministic variant: every SAT solve drains the VSIDS heap, and the
// last pop of each drain is the single-element case the bug corrupts.  Two
// constraint-free solves leak two of the three vars; a clause over all
// three added afterwards is then never propagated nor decided, and the
// pre-fix solver returns an all-false "model" violating it.
TEST(SolverReentry, HeapDrainDoesNotLoseVars) {
  Solver s;
  Var a = s.newVar(), b = s.newVar(), c = s.newVar();
  ASSERT_EQ(s.solve(Budget::unlimited()), SS::kSat);
  ASSERT_EQ(s.solve(Budget::unlimited()), SS::kSat);
  ASSERT_TRUE(s.addClause({pos(a), pos(b), pos(c)}));
  ASSERT_EQ(s.solve(Budget::unlimited()), SS::kSat);
  EXPECT_TRUE(s.modelValue(a) || s.modelValue(b) || s.modelValue(c))
      << "solver returned a \"model\" violating the only clause";
}

TEST(SolverReentry, RepeatedSolvesMatchFreshSolver) {
  for (std::uint32_t seed = 0; seed < 300; ++seed) {
    std::mt19937 rng(seed * 2654435761u + 1);
    const int vars = 3 + static_cast<int>(rng() % 8);
    Solver persistent;
    for (int i = 0; i < vars; ++i) persistent.newVar();
    std::vector<std::vector<Lit>> all;
    bool dead = false;
    for (int wave = 0; wave < 4 && !dead; ++wave) {
      const int add = 1 + static_cast<int>(rng() % (2 * vars));
      for (int c = 0; c < add; ++c) {
        const int len = 1 + static_cast<int>(rng() % 3);
        std::vector<Lit> cl;
        for (int k = 0; k < len; ++k) {
          cl.push_back(Lit(static_cast<Var>(rng() % vars), (rng() & 1) != 0));
        }
        all.push_back(cl);
        if (!persistent.addClause(cl)) dead = true;
      }
      Solver fresh;
      for (int i = 0; i < vars; ++i) fresh.newVar();
      bool freshDead = false;
      for (const auto& cl : all) {
        if (!fresh.addClause(cl)) freshDead = true;
      }
      // A persistent solver may detect a root conflict at addClause time
      // (its level-0 trail is longer); the fresh solver may only see it at
      // solve().  Either way, both must agree the instance is UNSAT.
      if (dead || freshDead) {
        if (!freshDead) {
          ASSERT_EQ(fresh.solve(Budget::unlimited()), SS::kUnsat)
              << "seed " << seed << " wave " << wave;
        }
        if (!dead) {
          ASSERT_EQ(persistent.solve(Budget::unlimited()), SS::kUnsat)
              << "seed " << seed << " wave " << wave;
        }
        break;
      }
      const SS ps = persistent.solve(Budget::unlimited());
      const SS fs = fresh.solve(Budget::unlimited());
      ASSERT_EQ(ps, fs) << "seed " << seed << " wave " << wave;
      if (ps == SS::kSat) {
        // The persistent solver's model must actually satisfy every clause.
        for (const auto& cl : all) {
          bool sat = false;
          for (Lit l : cl) {
            sat |= persistent.modelValue(l.var()) != l.sign();
          }
          ASSERT_TRUE(sat) << "seed " << seed << " wave " << wave;
        }
      }
    }
  }
}

// ---- addPB overflow guard -------------------------------------------------

TEST(PBOverflow, RejectsCoefficientSumsNearTheLimit) {
  Solver s;
  Var a = s.newVar(), b = s.newVar();
  // Coprime coefficients: gcd normalization cannot rescue the row, so the
  // guard must reject it instead of letting possibleSum overflow.
  const std::int64_t huge = std::numeric_limits<std::int64_t>::max() / 4;
  EXPECT_THROW(s.addPB({{huge, pos(a)}, {huge + 1, pos(b)}}, 1),
               std::overflow_error);
}

TEST(PBOverflow, GcdNormalizationAdmitsLargeButReducibleRows) {
  // Coefficients whose raw sum overflows the guard but whose gcd-reduced
  // form is tiny: must be accepted and propagate correctly.
  Solver s;
  Var a = s.newVar(), b = s.newVar(), c = s.newVar();
  const std::int64_t big = (std::numeric_limits<std::int64_t>::max() / 8) & ~1ll;
  ASSERT_TRUE(
      s.addPB({{big, pos(a)}, {big, pos(b)}, {big, pos(c)}}, 2 * big));
  EXPECT_EQ(s.solve({neg(a)}, Budget::unlimited()), SS::kSat);
  EXPECT_TRUE(s.modelValue(b));
  EXPECT_TRUE(s.modelValue(c));
  EXPECT_EQ(s.solve({neg(a), neg(b)}, Budget::unlimited()), SS::kUnsat);
  EXPECT_TRUE(s.okay());
}

TEST(PBOverflow, ObjectiveBoundWithLargeWeightsStillOptimizes) {
  // An optimization whose strengthening bounds carry large coefficients:
  // the guard must normalize rather than reject them.
  Model m;
  ModelVar x = m.addBinary("x"), y = m.addBinary("y"), z = m.addBinary("z");
  LinearExpr atLeastOne;
  atLeastOne.add(1, x).add(1, y).add(1, z);
  m.addConstraint(atLeastOne, Cmp::kGe, 1, "cover");
  LinearExpr obj;
  obj.add(1000000000, x).add(2000000000, y).add(3000000000, z);
  m.setObjective(obj);
  OptResult r = Optimizer::solve(m);
  ASSERT_EQ(r.status, OptStatus::kOptimal);
  EXPECT_EQ(r.objective, 1000000000);
  EXPECT_TRUE(r.assignment[static_cast<std::size_t>(x)]);
}

}  // namespace
}  // namespace ruleplace::solver

// ---- core layer: IncrementalSession ---------------------------------------

namespace ruleplace::core {
namespace {

using acl::Action;
using match::Ternary;

Ternary T(const char* s) { return Ternary::fromString(s); }

// A line of `n` switches with one ingress per policy at s0 and one egress
// at the end; every policy routes over the whole line.
struct Line {
  topo::Graph graph;
  topo::PortId out;
  std::vector<topo::SwitchId> sw;

  Line(int switches, int capacity) {
    for (int i = 0; i < switches; ++i) sw.push_back(graph.addSwitch(capacity));
    for (int i = 0; i + 1 < switches; ++i) graph.addLink(sw[i], sw[i + 1]);
    out = graph.addEntryPort(sw.back());
  }

  topo::IngressPaths routeFrom(topo::SwitchId first) {
    topo::PortId in = graph.addEntryPort(first);
    topo::Path p;
    p.ingress = in;
    p.egress = out;
    for (std::size_t i = 0; i < sw.size(); ++i) {
      if (sw[i] == first) {
        p.switches.assign(sw.begin() + static_cast<std::ptrdiff_t>(i),
                          sw.end());
        break;
      }
    }
    return {in, {p}};
  }
};

acl::Policy twoRulePolicy(const char* permit, const char* drop) {
  acl::Policy q;
  q.addRule(T(permit), Action::kPermit);
  q.addRule(T(drop), Action::kDrop);
  return q;
}

TEST(IncrementalSession, InstallMatchesScratchSolve) {
  Line net(3, 6);
  PlacementProblem base;
  base.graph = &net.graph;
  IncrementalSession session(base, Placement{});

  std::vector<topo::IngressPaths> routing{net.routeFrom(net.sw[0]),
                                          net.routeFrom(net.sw[0])};
  std::vector<acl::Policy> policies{twoRulePolicy("1010", "10**"),
                                    twoRulePolicy("0101", "01**")};
  PlaceOutcome out = session.install(routing, policies);
  ASSERT_TRUE(out.hasSolution());
  EXPECT_EQ(session.events(), 1);
  EXPECT_TRUE(verifyPlacement(session.problem(), session.placement()));

  // Single-event install from an empty base is the unrestricted problem:
  // status and optimal objective must match a from-scratch place().
  PlacementProblem scratch;
  scratch.graph = &net.graph;
  scratch.routing = routing;
  scratch.policies = policies;
  PlaceOptions opts;
  opts.encoder.enableMerging = false;
  PlaceOutcome ref = place(scratch, opts);
  ASSERT_EQ(ref.status, solver::OptStatus::kOptimal);
  EXPECT_EQ(out.status, solver::OptStatus::kOptimal);
  EXPECT_EQ(out.objective, ref.objective);
}

// Every committed event also checks the session contract: the outcome is
// the rung's own place() result and verifies against its own subproblem,
// the combined deployment is read from the session, and the one-event
// installPolicies / reroutePolicies return exactly that deployment.
TEST(IncrementalSession, ChurnSequenceStaysVerifiedAndReusesTheSolver) {
  Line net(4, 5);
  PlacementProblem base;
  base.graph = &net.graph;
  IncrementalSession session(base, Placement{});

  const char* permits[] = {"1010", "0101", "1100", "0011", "1001"};
  const char* drops[] = {"10**", "01**", "11**", "00**", "1**1"};
  for (int i = 0; i < 5; ++i) {
    const PlacementProblem before = session.problem();
    const Placement deployed = session.placement();
    const std::vector<topo::IngressPaths> routing{net.routeFrom(net.sw[0])};
    const std::vector<acl::Policy> policies{
        twoRulePolicy(permits[i], drops[i])};
    PlaceOutcome out = session.install(routing, policies);
    ASSERT_TRUE(out.hasSolution()) << "install " << i;
    EXPECT_EQ(out.solvedProblem.policyCount(), 1) << "install " << i;
    EXPECT_TRUE(verifyPlacement(out.solvedProblem, out.placement))
        << "install " << i;
    EXPECT_TRUE(verifyPlacement(session.problem(), session.placement()))
        << "install " << i;
    const PlaceOutcome oneEvent =
        installPolicies(before, deployed, routing, policies);
    ASSERT_TRUE(oneEvent.hasSolution()) << "install " << i;
    EXPECT_TRUE(oneEvent.placement == session.placement()) << "install " << i;
    EXPECT_EQ(oneEvent.solvedProblem.policyCount(),
              session.problem().policyCount());
  }
  EXPECT_EQ(session.events(), 5);
  EXPECT_EQ(session.problem().policyCount(), 5);
  EXPECT_EQ(session.repacks(), 0);

  // Reroute policy 2 to start mid-line; the freed capacity must be
  // reusable and the result verify.
  const PlacementProblem before = session.problem();
  const Placement deployed = session.placement();
  const std::vector<topo::IngressPaths> routing{net.routeFrom(net.sw[1])};
  PlaceOutcome out = session.reroute({2}, routing);
  ASSERT_TRUE(out.hasSolution());
  EXPECT_EQ(out.solvedProblem.policyCount(), 1);
  EXPECT_TRUE(verifyPlacement(out.solvedProblem, out.placement));
  EXPECT_TRUE(verifyPlacement(session.problem(), session.placement()));
  EXPECT_EQ(session.events(), 6);
  const PlaceOutcome oneEvent = reroutePolicies(before, deployed, {2}, routing);
  ASSERT_TRUE(oneEvent.hasSolution());
  EXPECT_TRUE(oneEvent.placement == session.placement());
  EXPECT_TRUE(verifyPlacement(oneEvent.solvedProblem, oneEvent.placement));
}

TEST(IncrementalSession, FailedInstallRollsBackExactly) {
  Line net(2, 2);
  PlacementProblem base;
  base.graph = &net.graph;
  IncrementalSession session(base, Placement{});
  ASSERT_TRUE(session
                  .install({net.routeFrom(net.sw[0])},
                           {twoRulePolicy("1010", "10**")})
                  .hasSolution());
  const std::int64_t rulesBefore = session.placement().totalInstalledRules();

  // Capacity 2 per switch, 4 rules placed by two policies is fine; a third
  // two-rule policy cannot fit anywhere (2 switches x cap 2 = 4 slots).
  ASSERT_TRUE(session
                  .install({net.routeFrom(net.sw[0])},
                           {twoRulePolicy("0101", "01**")})
                  .hasSolution());
  PlaceOutcome fail = session.install({net.routeFrom(net.sw[0])},
                                      {twoRulePolicy("1100", "11**")});
  EXPECT_EQ(fail.status, solver::OptStatus::kInfeasible);
  EXPECT_EQ(session.problem().policyCount(), 2);
  EXPECT_EQ(session.placement().totalInstalledRules() - rulesBefore, 2);
  EXPECT_TRUE(verifyPlacement(session.problem(), session.placement()));

  // The session must still accept further (feasible) events after a
  // rollback — rerun the failed shape on a rerouted, shorter path is still
  // infeasible, but a reroute of an existing policy works.
  PlaceOutcome out = session.reroute({0}, {net.routeFrom(net.sw[1])});
  ASSERT_TRUE(out.hasSolution());
  EXPECT_TRUE(verifyPlacement(session.problem(), session.placement()));
}

TEST(IncrementalSession, RepackMovesEarlierSessionPlacements) {
  // Policy A fits only at s0 or s1 (its path covers both); then B's path
  // covers only s1.  If A was placed on s1, installing B forces a repack.
  // Construct it so the pinned solve is infeasible deterministically:
  // capacity 1, A routed over {s0, s1} must sit somewhere; B routed over
  // {s1} alone needs s1.  If A landed on s1 the pinned install of B is
  // infeasible and the repack must move A to s0.
  Line net(2, 1);
  PlacementProblem base;
  base.graph = &net.graph;
  IncrementalSession session(base, Placement{});
  acl::Policy single;
  single.addRule(T("10**"), Action::kDrop);
  ASSERT_TRUE(
      session.install({net.routeFrom(net.sw[0])}, {single}).hasSolution());

  acl::Policy other;
  other.addRule(T("01**"), Action::kDrop);
  PlaceOutcome out = session.install({net.routeFrom(net.sw[1])}, {other});
  ASSERT_TRUE(out.hasSolution());
  EXPECT_TRUE(verifyPlacement(session.problem(), session.placement()));
  // Whether a repack was needed depends on where the first solve put A;
  // the invariant is that B ends on s1 and A on s0.
  EXPECT_EQ(session.placement().usedCapacity(net.sw[0]), 1);
  EXPECT_EQ(session.placement().usedCapacity(net.sw[1]), 1);
}

TEST(IncrementalSession, RepackMovesASessionPlacementWhenPinnedIsInfeasible) {
  // Two switches of capacity 1.  A's path covers {s0, s1}, so the
  // ingress-first placement puts its one rule on s0; B's path is {s0}
  // alone.  Installing B against the deployment A left is provably
  // infeasible (s0 is full and B can go nowhere else), so only the repack
  // rung — A and B re-placed together on the empty base — can succeed,
  // and it must move A to s1.
  topo::Graph g;
  const topo::SwitchId s0 = g.addSwitch(1);
  const topo::SwitchId s1 = g.addSwitch(1);
  g.addLink(s0, s1);
  const topo::PortId inA = g.addEntryPort(s0);
  const topo::PortId outA = g.addEntryPort(s1);
  const topo::PortId inB = g.addEntryPort(s0);
  const topo::PortId outB = g.addEntryPort(s0);
  PlacementProblem base;
  base.graph = &g;
  IncrementalSession session(base, Placement{});

  acl::Policy a;
  a.addRule(T("10**"), Action::kDrop);
  ASSERT_TRUE(session
                  .install({{inA, {topo::Path{inA, outA, {s0, s1},
                                              std::nullopt}}}},
                           {a})
                  .hasSolution());
  ASSERT_EQ(session.placement().usedCapacity(s0), 1);  // the premise
  ASSERT_EQ(session.placement().usedCapacity(s1), 0);
  EXPECT_EQ(session.repacks(), 0);

  acl::Policy b;
  b.addRule(T("01**"), Action::kDrop);
  PlaceOutcome out = session.install(
      {{inB, {topo::Path{inB, outB, {s0}, std::nullopt}}}}, {b});
  ASSERT_TRUE(out.hasSolution());
  EXPECT_FALSE(out.escalatedFullResolve);
  EXPECT_EQ(session.repacks(), 1);
  EXPECT_EQ(session.escalations(), 0);
  EXPECT_EQ(session.events(), 2);
  EXPECT_EQ(session.placement().usedCapacity(s0), 1);
  EXPECT_EQ(session.placement().usedCapacity(s1), 1);
  EXPECT_EQ(session.placement().visibleTo(s1, 0).size(), 1u);  // A moved
  EXPECT_EQ(session.placement().visibleTo(s0, 1).size(), 1u);  // B placed
  EXPECT_TRUE(verifyPlacement(session.problem(), session.placement()));
}

TEST(IncrementalSession, EscalatesToFullResolveWhenConfigured) {
  // A base deployment that hogs the line so the restricted install is
  // infeasible, but a full re-solve (free to move the base) fits everyone.
  Line net(2, 3);
  PlacementProblem base;
  base.graph = &net.graph;
  base.routing = {net.routeFrom(net.sw[0])};
  base.policies = {twoRulePolicy("1010", "10**")};
  // Deploy the base policy spread across both switches: spare 2 per
  // switch, so the 3-rule newcomer pinned to s1 cannot fit restricted —
  // but a full re-solve can pull the base policy onto s0 and fit everyone.
  const auto& rules = base.policies[0].rules();
  Placement basePlacement = buildPlacement(
      base, {{0, rules[0].id, net.sw[0]}, {0, rules[1].id, net.sw[1]}});

  PlaceOptions opts;
  opts.resilience.fullResolveOnInfeasible = true;
  IncrementalSession session(base, basePlacement, opts);

  acl::Policy big;
  big.addRule(T("0101"), Action::kPermit);
  big.addRule(T("0110"), Action::kPermit);
  big.addRule(T("01**"), Action::kDrop);
  PlaceOutcome out = session.install({net.routeFrom(net.sw[1])}, {big});
  ASSERT_TRUE(out.hasSolution());
  EXPECT_TRUE(out.escalatedFullResolve);
  EXPECT_EQ(session.escalations(), 1);
  EXPECT_EQ(session.problem().policyCount(), 2);
  EXPECT_TRUE(verifyPlacement(session.problem(), session.placement()));

  // The session keeps working after adopting the full re-solve.
  PlaceOutcome next = session.reroute({1}, {net.routeFrom(net.sw[0])});
  ASSERT_TRUE(next.hasSolution());
  EXPECT_TRUE(verifyPlacement(session.problem(), session.placement()));
}

TEST(IncrementalSession, ReplayIsDeterministic) {
  auto run = [](Placement* outPlacement) {
    Line net(3, 4);
    PlacementProblem base;
    base.graph = &net.graph;
    IncrementalSession session(base, Placement{});
    EXPECT_TRUE(session
                    .install({net.routeFrom(net.sw[0]),
                              net.routeFrom(net.sw[1])},
                             {twoRulePolicy("1010", "10**"),
                              twoRulePolicy("0101", "01**")})
                    .hasSolution());
    EXPECT_TRUE(session
                    .install({net.routeFrom(net.sw[0])},
                             {twoRulePolicy("1100", "11**")})
                    .hasSolution());
    EXPECT_TRUE(
        session.reroute({0}, {net.routeFrom(net.sw[2])}).hasSolution());
    *outPlacement = session.placement();
  };
  Placement a, b;
  run(&a);
  run(&b);
  // Bit-identical tables, switch by switch.
  ASSERT_EQ(a.totalInstalledRules(), b.totalInstalledRules());
  for (topo::SwitchId sw = 0; sw < 3; ++sw) {
    ASSERT_EQ(a.table(sw).size(), b.table(sw).size()) << "switch " << sw;
    for (std::size_t i = 0; i < a.table(sw).size(); ++i) {
      EXPECT_EQ(a.table(sw)[i].tags, b.table(sw)[i].tags);
      EXPECT_EQ(a.table(sw)[i].representativeRule,
                b.table(sw)[i].representativeRule);
      EXPECT_EQ(a.table(sw)[i].priority, b.table(sw)[i].priority);
    }
  }
}

TEST(IncrementalSession, DuplicateRerouteIdsAreRejected) {
  // Regression: a duplicate policy id inside one reroute event used to
  // corrupt the session — the detach loop captured the already-cleared
  // state as the duplicate's "old" state (so a failed event rolled back to
  // the wrong place), and a committed event leaked the first duplicate's
  // constraint group as permanently active.  Duplicates are now rejected
  // before any state is touched.
  Line net(3, 6);
  PlacementProblem base;
  base.graph = &net.graph;
  IncrementalSession session(base, Placement{});
  ASSERT_TRUE(session
                  .install({net.routeFrom(net.sw[0])},
                           {twoRulePolicy("1010", "10**")})
                  .hasSolution());

  const Placement before = session.placement();
  EXPECT_THROW(session.reroute({0, 0}, {net.routeFrom(net.sw[1]),
                                        net.routeFrom(net.sw[2])}),
               std::invalid_argument);
  // The rejection left no trace: state and subsequent events are intact.
  EXPECT_TRUE(session.placement() == before);
  EXPECT_EQ(session.events(), 1);
  PlaceOutcome next = session.reroute({0}, {net.routeFrom(net.sw[1])});
  ASSERT_TRUE(next.hasSolution());
  EXPECT_TRUE(verifyPlacement(session.problem(), session.placement()));
}

TEST(IncrementalSession, BackToBackRollbacksLeaveNoTrace) {
  // The serve daemon's failure-isolation path retries a failed coalesced
  // batch event-by-event, which hammers the session with rollback after
  // rollback between commits.  The audited invariants:
  //   1. every failed event rolls problem() and placement() back
  //      bit-identically — no constraint group, capacity epoch or pin
  //      survives;
  //   2. the final state is semantically equivalent to a fresh session
  //      replaying only the committed events: same optimal objective, same
  //      per-switch usage, and it verifies.  (Bit-identical tables are NOT
  //      required across the two sessions: learned clauses and saved
  //      phases from failed solves legitimately persist and may tie-break
  //      among equally-optimal placements differently.  Determinism is
  //      over the full event sequence — see ReplayIsDeterministic.)
  Line net(3, 3);  // tight: capacity 3 per switch
  PlacementProblem base;
  base.graph = &net.graph;
  IncrementalSession churned(base, Placement{});

  // An event that cannot fit anywhere: ten disjoint drop rules against a
  // network with nine slots total — infeasible by raw capacity, whatever
  // the distribution.
  acl::Policy fat;
  for (const char* t : {"0000", "0001", "0010", "0011", "0100", "0101",
                        "0110", "0111", "1000", "1001"}) {
    fat.addRule(T(t), Action::kDrop);
  }

  struct Step {
    bool expectCommit;
    const char* permit;
    const char* drop;
  };
  const Step steps[] = {{true, "1010", "10**"},
                        {false, nullptr, nullptr},   // fat install, rolls back
                        {true, "0101", "01**"},
                        {false, nullptr, nullptr},   // fail again, back-to-back
                        {false, nullptr, nullptr},
                        {true, "1100", "11**"}};
  std::vector<topo::IngressPaths> committedRouting;
  std::vector<acl::Policy> committedPolicies;
  for (const Step& s : steps) {
    topo::IngressPaths r = net.routeFrom(net.sw[0]);
    if (s.expectCommit) {
      acl::Policy q = twoRulePolicy(s.permit, s.drop);
      ASSERT_TRUE(churned.install({r}, {q}).hasSolution());
      committedRouting.push_back(r);
      committedPolicies.push_back(q);
    } else {
      const Placement beforeFail = churned.placement();
      const int policiesBefore = churned.problem().policyCount();
      PlaceOutcome out = churned.install({r}, {fat});
      ASSERT_FALSE(out.hasSolution());
      EXPECT_TRUE(churned.placement() == beforeFail)
          << "failed install did not roll the placement back exactly";
      EXPECT_EQ(churned.problem().policyCount(), policiesBefore);
      EXPECT_TRUE(verifyPlacement(churned.problem(), churned.placement()));
    }
  }
  // Reroute policy 0 right after the rollback storm, sharing the identical
  // routing object with the replay below.
  const topo::IngressPaths rerouted = net.routeFrom(net.sw[1]);
  ASSERT_TRUE(churned.reroute({0}, {rerouted}).hasSolution());
  committedRouting[0] = rerouted;

  // Replay only the committed events on a fresh session.
  IncrementalSession replay(base, Placement{});
  for (std::size_t i = 0; i < committedPolicies.size(); ++i) {
    ASSERT_TRUE(replay
                    .install({committedRouting[i]}, {committedPolicies[i]})
                    .hasSolution());
  }
  ASSERT_TRUE(
      replay.reroute({0}, {committedRouting[0]}).hasSolution());

  EXPECT_EQ(churned.events(), replay.events());
  EXPECT_EQ(churned.problem().policyCount(), replay.problem().policyCount());
  EXPECT_TRUE(verifyPlacement(churned.problem(), churned.placement()));
  EXPECT_TRUE(verifyPlacement(replay.problem(), replay.placement()));
  EXPECT_EQ(churned.placement().totalInstalledRules(),
            replay.placement().totalInstalledRules())
      << "failed events left a semantic trace in the session";
  for (topo::SwitchId sw = 0; sw < 3; ++sw) {
    EXPECT_EQ(churned.placement().usedCapacity(sw),
              replay.placement().usedCapacity(sw))
        << "switch " << sw;
  }
}

}  // namespace
}  // namespace ruleplace::core
