// Resilience tests: deadline/cancellation plumbing, per-component failure
// isolation, the graceful-degradation ladder, partial results, incremental
// escalation, and infeasibility explanations (docs/robustness.md).
//
// Wall-clock assertions are confined to one test (WallDeadline*) and use
// generous sanitizer-safe bounds; everything else runs on conflict budgets
// or already-expired deadlines so verdicts are machine-independent.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/explain.h"
#include "core/greedy.h"
#include "core/incremental.h"
#include "core/instance.h"
#include "core/placer.h"
#include "core/verify.h"
#include "depgraph/merging.h"
#include "match/ternary.h"
#include "solver/bruteforce.h"
#include "util/deadline.h"
#include "util/thread_pool.h"

namespace ruleplace::core {
namespace {

using acl::Action;
using match::Ternary;

Ternary T(const char* s) { return Ternary::fromString(s); }

// ---------------------------------------------------------------------------
// ThreadPool exception contract: the first exception per wave (lowest
// submission ordinal) is rethrown at wait(); workers never die.

TEST(ThreadPoolExceptions, ThrowingTaskRethrownAtWait) {
  util::ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  EXPECT_EQ(ran.load(), 8);  // siblings still ran to completion
}

TEST(ThreadPoolExceptions, LowestSubmissionOrdinalWins) {
  util::ThreadPool pool(4);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 64; ++i) {
      pool.submit([i] { throw std::runtime_error(std::to_string(i)); });
    }
    try {
      pool.wait();
      FAIL() << "wait() must rethrow";
    } catch (const std::runtime_error& e) {
      // Task 0 always throws, and 0 is the lowest possible ordinal, so the
      // winner is deterministic no matter how the 4 workers interleave.
      EXPECT_STREQ(e.what(), "0") << "round " << round;
    }
  }
}

TEST(ThreadPoolExceptions, PoolStaysUsableAfterException) {
  util::ThreadPool pool(2);
  pool.submit([] { throw std::logic_error("first wave"); });
  EXPECT_THROW(pool.wait(), std::logic_error);
  std::atomic<int> counter{0};
  for (int i = 0; i < 32; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait();  // second wave is clean: no stale exception resurfaces
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPoolExceptions, DestructorSwallowsUncollectedException) {
  // Destroying a pool whose last wave threw (wait() never called) must not
  // terminate the process.
  util::ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("never collected"); });
}

// ---------------------------------------------------------------------------
// Deadline and Budget plumbing

TEST(Deadline, ExpiryAndCancellation) {
  util::Deadline never;
  EXPECT_FALSE(never.expired());
  EXPECT_FALSE(never.hasWallDeadline());

  util::Deadline past = util::Deadline::in(0.0);
  EXPECT_TRUE(past.expired());
  EXPECT_EQ(past.remainingSeconds(), 0.0);
  EXPECT_THROW(past.check("unit test"), util::DeadlineExceeded);

  util::CancelToken token = util::CancelToken::create();
  util::Deadline cancellable = util::Deadline::in(3600.0).withToken(token);
  EXPECT_FALSE(cancellable.expired());
  token.requestCancel();
  EXPECT_TRUE(cancellable.expired());
  EXPECT_EQ(cancellable.remainingSeconds(), 0.0);
}

TEST(Budget, MinusClampsAtZeroAndKeepsUnlimited) {
  solver::Budget b = solver::Budget::conflicts(100);
  solver::Budget spent = b.minus(150, 0.5);
  EXPECT_EQ(spent.maxConflicts, 0);
  EXPECT_TRUE(spent.conflictsExhausted());
  EXPECT_TRUE(spent.unlimitedTime());  // unlimited stays unlimited

  solver::Budget t = solver::Budget::seconds(2.0).minus(0, 0.5);
  EXPECT_DOUBLE_EQ(t.maxSeconds, 1.5);
  EXPECT_TRUE(t.unlimitedConflicts());
}

TEST(Budget, SlicingPreservesTheSharedDeadline) {
  util::CancelToken token = util::CancelToken::create();
  solver::Budget b = solver::Budget::seconds(8.0);
  b.deadline = util::Deadline::in(3600.0).withToken(token);
  solver::Budget slice = b.sliced(4);
  EXPECT_DOUBLE_EQ(slice.maxSeconds, 2.0);  // relative limit divided
  EXPECT_TRUE(slice.deadline.hasWallDeadline());  // absolute cap shared
  EXPECT_FALSE(slice.exhausted());
  token.requestCancel();
  EXPECT_TRUE(slice.exhausted());  // cancellation reaches every slice
}

// ---------------------------------------------------------------------------
// Deadline-aware auxiliary passes (brute force, greedy, merge analysis)

// The paper's Fig. 3 network (same shape as test_core.cpp).
struct Fig3 {
  topo::Graph graph;
  topo::PortId l1, l2, l3;
  topo::SwitchId s1, s2, s3, s4, s5;

  Fig3(int c1, int c2, int c3, int c4, int c5) {
    s1 = graph.addSwitch(c1);
    s2 = graph.addSwitch(c2);
    s3 = graph.addSwitch(c3);
    s4 = graph.addSwitch(c4);
    s5 = graph.addSwitch(c5);
    graph.addLink(s1, s2);
    graph.addLink(s2, s3);
    graph.addLink(s2, s4);
    graph.addLink(s4, s5);
    l1 = graph.addEntryPort(s1);
    l2 = graph.addEntryPort(s3);
    l3 = graph.addEntryPort(s5);
  }

  PlacementProblem problem(acl::Policy q) const {
    topo::Path pathA{l1, l2, {s1, s2, s3}, std::nullopt};
    topo::Path pathB{l1, l3, {s1, s2, s4, s5}, std::nullopt};
    PlacementProblem p;
    p.graph = &graph;
    p.routing = {{l1, {pathA, pathB}}};
    p.policies = {std::move(q)};
    return p;
  }
};

acl::Policy fig3Policy() {
  acl::Policy q;
  q.addRule(T("111*"), Action::kPermit);  // shields the drop below
  q.addRule(T("00**"), Action::kPermit);
  q.addRule(T("11**"), Action::kDrop);
  return q;
}

TEST(DeadlineAwarePasses, BruteForceReportsUnknownOnExpiry) {
  Fig3 net(0, 1, 2, 0, 2);
  PlacementProblem p = net.problem(fig3Policy());
  Encoder enc(p, {});
  solver::OptResult r =
      solver::bruteForceSolve(enc.model(), 24, util::Deadline::in(0.0));
  EXPECT_EQ(r.status, solver::OptStatus::kUnknown);
}

TEST(DeadlineAwarePasses, GreedyReportsExpiry) {
  Fig3 net(0, 1, 2, 0, 2);
  PlacementProblem p = net.problem(fig3Policy());
  GreedyOutcome g = greedyPlace(p, false, util::Deadline::in(0.0));
  EXPECT_FALSE(g.feasible);
  EXPECT_TRUE(g.deadlineExpired);
  GreedyOutcome ok = greedyPlace(p);  // no deadline: must succeed
  EXPECT_TRUE(ok.feasible);
}

TEST(DeadlineAwarePasses, MergeAnalysisThrowsOnExpiry) {
  std::vector<acl::Policy> policies = {fig3Policy(), fig3Policy()};
  EXPECT_THROW(depgraph::analyzeMergeable(policies, util::Deadline::in(0.0)),
               util::DeadlineExceeded);
  std::vector<acl::Policy> again = {fig3Policy(), fig3Policy()};
  EXPECT_NO_THROW(depgraph::analyzeMergeable(again));
}

// ---------------------------------------------------------------------------
// Failure isolation and UNSAT end-to-end

TEST(FailureIsolation, InfeasibleRunRecordsFailureInfo) {
  Fig3 net(0, 0, 1, 0, 2);  // path A cannot host drop + shield anywhere
  PlaceOutcome out = place(net.problem(fig3Policy()));
  EXPECT_EQ(out.status, solver::OptStatus::kInfeasible);
  EXPECT_FALSE(out.hasAnyPlacement());
  EXPECT_EQ(out.failedComponents, 1);
  ASSERT_EQ(out.componentStats.size(), 1u);
  ASSERT_TRUE(out.componentStats[0].failure.has_value());
  EXPECT_EQ(out.componentStats[0].failure->status,
            solver::OptStatus::kInfeasible);
  ASSERT_TRUE(out.failure.has_value());
  EXPECT_EQ(out.failure->status, solver::OptStatus::kInfeasible);
  EXPECT_EQ(out.componentStats[0].policyIds, std::vector<int>{0});
}

TEST(FailureIsolation, LadderNeverRescuesUnsat) {
  Fig3 net(0, 0, 1, 0, 2);
  PlaceOptions opts;
  opts.resilience.ladder = true;
  opts.resilience.partialResults = true;
  PlaceOutcome out = place(net.problem(fig3Policy()), opts);
  // UNSAT is a definitive verdict: no rung may produce a "placement".
  EXPECT_EQ(out.status, solver::OptStatus::kInfeasible);
  EXPECT_FALSE(out.hasAnyPlacement());
  EXPECT_FALSE(out.degraded);
  EXPECT_EQ(out.rung, PlaceRung::kOptimal);
}

// ---------------------------------------------------------------------------
// Infeasibility explanation, validated against brute force

// Satisfiability of Fig. 3 with the switches in `keptMask` at their
// original capacities and every other switch relaxed — decided by full
// enumeration of the encoded model, independent of the CDCL solver.
bool bruteInfeasible(const Fig3& net, unsigned keptMask) {
  PlacementProblem p = net.problem(fig3Policy());
  std::vector<int> caps(5, 100);
  for (topo::SwitchId sw = 0; sw < 5; ++sw) {
    if (keptMask & (1u << sw)) caps[sw] = net.graph.sw(sw).capacity;
  }
  p.capacityOverride = std::move(caps);
  Encoder enc(p, {});
  return solver::bruteForceSolve(enc.model(), 24).status ==
         solver::OptStatus::kInfeasible;
}

TEST(ExplainInfeasible, MinimalSwitchSetMatchesBruteForce) {
  Fig3 net(0, 0, 1, 0, 2);
  PlacementProblem p = net.problem(fig3Policy());
  InfeasibilityExplanation ex = explainInfeasible(p);
  EXPECT_TRUE(ex.confirmedInfeasible);
  EXPECT_TRUE(ex.capacityDriven);
  EXPECT_TRUE(ex.minimal);
  ASSERT_FALSE(ex.switches.empty());
  EXPECT_GE(ex.solves, 2);

  unsigned coreMask = 0;
  for (topo::SwitchId sw : ex.switches) coreMask |= 1u << sw;
  // The reported set really is infeasible, and 1-minimal: dropping any
  // single member makes the instance satisfiable.
  EXPECT_TRUE(bruteInfeasible(net, coreMask));
  for (topo::SwitchId sw : ex.switches) {
    EXPECT_FALSE(bruteInfeasible(net, coreMask & ~(1u << sw)))
        << "switch " << sw << " is not load-bearing";
  }
  // Exhaustive cross-check over all 2^5 capacity subsets: a kept set is
  // infeasible exactly when it contains the whole core (path A's switches
  // are the only binding ones here, so the core is unique).
  for (unsigned mask = 0; mask < 32; ++mask) {
    EXPECT_EQ(bruteInfeasible(net, mask), (mask & coreMask) == coreMask)
        << "mask " << mask;
  }
}

TEST(ExplainInfeasible, FeasibleInstanceIsNotExplained) {
  Fig3 net(0, 1, 2, 0, 2);
  PlacementProblem p = net.problem(fig3Policy());
  InfeasibilityExplanation ex = explainInfeasible(p);
  EXPECT_FALSE(ex.confirmedInfeasible);
  EXPECT_TRUE(ex.switches.empty());
}

TEST(ExplainInfeasible, ExpiredDeadlineLeavesVerdictOpen) {
  Fig3 net(0, 0, 1, 0, 2);
  PlacementProblem p = net.problem(fig3Policy());
  solver::Budget budget = solver::Budget::unlimited();
  budget.deadline = util::Deadline::in(0.0);
  InfeasibilityExplanation ex = explainInfeasible(p, {}, budget);
  EXPECT_FALSE(ex.confirmedInfeasible);  // kUnknown is never reported UNSAT
}

// ---------------------------------------------------------------------------
// Degradation ladder: deterministic across thread counts, every rung
// verified

InstanceConfig ladderConfig(std::uint64_t seed) {
  InstanceConfig cfg;
  cfg.fatTreeK = 4;
  cfg.capacity = 14;
  cfg.ingressCount = 6;
  cfg.totalPaths = 18;
  cfg.rulesPerPolicy = 8;
  cfg.seed = seed;
  return cfg;
}

TEST(Ladder, ExpiredDeadlineDegradesDeterministically) {
  Instance inst(ladderConfig(3));
  PlaceOptions opts;
  // An already-expired deadline fails the exact solve (and the sat-only
  // rung) of every component identically on every machine — unlike a wall
  // deadline mid-flight, the verdict cannot race the scheduler.
  opts.budget.deadline = util::Deadline::in(0.0);
  opts.resilience.ladder = true;
  opts.resilience.partialResults = true;

  opts.threads = 1;
  PlaceOutcome ref = place(inst.problem(), opts);
  ASSERT_TRUE(ref.hasAnyPlacement());
  EXPECT_TRUE(ref.degraded);
  EXPECT_EQ(ref.rung, PlaceRung::kGreedy);
  for (const auto& c : ref.componentStats) {
    EXPECT_TRUE(c.failure.has_value());  // attribution survives the rescue
    EXPECT_EQ(c.rung, PlaceRung::kGreedy);
  }
  VerifyResult v = verifyPlacement(ref.solvedProblem, ref.placement);
  EXPECT_TRUE(v.ok) << v.summary();

  for (int threads : {2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    PlaceOptions par = opts;
    par.threads = threads;
    PlaceOutcome got = place(inst.problem(), par);
    EXPECT_EQ(got.status, ref.status);
    EXPECT_EQ(got.rung, ref.rung);
    EXPECT_EQ(got.degraded, ref.degraded);
    EXPECT_EQ(got.partial, ref.partial);
    EXPECT_EQ(got.failedComponents, ref.failedComponents);
    ASSERT_EQ(got.componentStats.size(), ref.componentStats.size());
    for (std::size_t c = 0; c < ref.componentStats.size(); ++c) {
      EXPECT_EQ(got.componentStats[c].rung, ref.componentStats[c].rung);
      EXPECT_EQ(got.componentStats[c].status, ref.componentStats[c].status);
      EXPECT_EQ(got.componentStats[c].failure.has_value(),
                ref.componentStats[c].failure.has_value());
    }
    EXPECT_EQ(got.placement.toString(got.solvedProblem),
              ref.placement.toString(ref.solvedProblem));
  }
}

TEST(Ladder, OffByDefaultDeadlineExpiryStaysUnknown) {
  Instance inst(ladderConfig(3));
  PlaceOptions opts;
  opts.budget.deadline = util::Deadline::in(0.0);
  PlaceOutcome out = place(inst.problem(), opts);
  EXPECT_EQ(out.status, solver::OptStatus::kUnknown);
  EXPECT_FALSE(out.hasAnyPlacement());
  EXPECT_FALSE(out.degraded);
  EXPECT_GT(out.failedComponents, 0);
}

TEST(Ladder, ZeroConflictBudgetStillSolvesSearchFreeInstances) {
  // The Budget contract: maxConflicts == 0 means "no search", not "no
  // work" — an instance decided by propagation alone still succeeds, so
  // the ladder never fires for it.
  Instance inst(ladderConfig(3));
  PlaceOptions opts;
  opts.budget = solver::Budget::conflicts(0);
  opts.resilience.ladder = true;
  PlaceOutcome out = place(inst.problem(), opts);
  EXPECT_EQ(out.status, solver::OptStatus::kOptimal);
  EXPECT_FALSE(out.degraded);
  EXPECT_EQ(out.rung, PlaceRung::kOptimal);
}

// ---------------------------------------------------------------------------
// Partial results: failed components contribute nothing, the rest verify

TEST(PartialResults, SuccessfulComponentsSurviveAFailedSibling) {
  // Two decoupled single-switch ingresses; sA has no room at all, so its
  // component is UNSAT while sB's solves.
  topo::Graph graph;
  topo::SwitchId sA = graph.addSwitch(0);
  topo::SwitchId sB = graph.addSwitch(2);
  topo::PortId inA = graph.addEntryPort(sA);
  topo::PortId outA = graph.addEntryPort(sA);
  topo::PortId inB = graph.addEntryPort(sB);
  topo::PortId outB = graph.addEntryPort(sB);
  acl::Policy qA;
  qA.addRule(T("0***"), Action::kDrop);
  acl::Policy qB;
  qB.addRule(T("1***"), Action::kDrop);
  PlacementProblem p;
  p.graph = &graph;
  p.routing = {{inA, {topo::Path{inA, outA, {sA}, std::nullopt}}},
               {inB, {topo::Path{inB, outB, {sB}, std::nullopt}}}};
  p.policies = {qA, qB};

  PlaceOptions opts;
  opts.resilience.partialResults = true;
  PlaceOutcome out = place(p, opts);
  EXPECT_EQ(out.status, solver::OptStatus::kInfeasible);
  EXPECT_FALSE(out.hasSolution());
  ASSERT_TRUE(out.partial);
  EXPECT_TRUE(out.hasAnyPlacement());
  EXPECT_EQ(out.failedComponents, 1);
  ASSERT_EQ(out.componentStats.size(), 2u);
  EXPECT_EQ(out.componentStats[0].policyIds, std::vector<int>{0});
  EXPECT_EQ(out.componentStats[1].policyIds, std::vector<int>{1});
  EXPECT_EQ(out.componentStats[0].status, solver::OptStatus::kInfeasible);
  EXPECT_EQ(out.componentStats[1].status, solver::OptStatus::kOptimal);

  // The failed component's policy has no entries anywhere.
  EXPECT_EQ(out.placement.totalInstalledRules(), 1);
  EXPECT_EQ(out.placement.usedCapacity(sA), 0);
  EXPECT_EQ(out.placement.usedCapacity(sB), 1);
  // ...and the successful subset verifies exactly.
  std::vector<int> okPolicies{1};
  VerifyResult v =
      verifyPlacement(out.solvedProblem, out.placement, true, &okPolicies);
  EXPECT_TRUE(v.ok) << v.summary();
  // Without the subset filter the partial placement must NOT verify (qA's
  // drop is genuinely missing) — the filter is load-bearing.
  EXPECT_FALSE(verifyPlacement(out.solvedProblem, out.placement).ok);
}

TEST(PartialResults, OffByDefault) {
  Fig3 net(0, 0, 1, 0, 2);
  PlaceOutcome out = place(net.problem(fig3Policy()));
  EXPECT_FALSE(out.partial);
  EXPECT_FALSE(out.hasAnyPlacement());
}

// ---------------------------------------------------------------------------
// Incremental escalation: restricted-infeasible -> full re-solve

struct TwoSwitch {
  topo::Graph graph;
  topo::PortId l1, l2, l3, l4;
  topo::SwitchId s1, s2;

  TwoSwitch() {
    s1 = graph.addSwitch(2);
    s2 = graph.addSwitch(2);
    graph.addLink(s1, s2);
    l1 = graph.addEntryPort(s1);
    l2 = graph.addEntryPort(s2);
    l3 = graph.addEntryPort(s1);
    l4 = graph.addEntryPort(s1);
  }
};

TEST(IncrementalEscalation, RestrictedInfeasibleTriggersFullResolve) {
  TwoSwitch net;
  // Base: one policy (drop + shield, co-located pair) on the s1->s2 path.
  // The upstream-traffic objective pins it to s1, filling s1 completely.
  acl::Policy q1;
  q1.addRule(T("111*"), Action::kPermit);
  q1.addRule(T("11**"), Action::kDrop);
  PlacementProblem base;
  base.graph = &net.graph;
  base.routing = {{net.l1, {topo::Path{net.l1, net.l2, {net.s1, net.s2},
                                       std::nullopt}}}};
  base.policies = {q1};
  PlaceOptions opts;
  opts.encoder.objective = ObjectiveKind::kUpstreamTraffic;
  PlaceOutcome baseOut = place(base, opts);
  ASSERT_TRUE(baseOut.hasSolution());
  ASSERT_EQ(baseOut.placement.usedCapacity(net.s1), 2);

  // New policy: one drop whose path reaches only s1 — no spare capacity
  // there, so the restricted subproblem is UNSAT even though re-solving
  // the whole deployment (q1 moves to s2) is feasible.
  acl::Policy q2;
  q2.addRule(T("0***"), Action::kDrop);
  std::vector<topo::IngressPaths> newRouting = {
      {net.l3, {topo::Path{net.l3, net.l4, {net.s1}, std::nullopt}}}};
  std::vector<acl::Policy> newPolicies = {q2};

  PlaceOutcome restricted =
      installPolicies(base, baseOut.placement, newRouting, newPolicies, opts);
  EXPECT_EQ(restricted.status, solver::OptStatus::kInfeasible);
  EXPECT_FALSE(restricted.escalatedFullResolve);

  PlaceOptions escalate = opts;
  escalate.resilience.fullResolveOnInfeasible = true;
  PlaceOutcome full = installPolicies(base, baseOut.placement, newRouting,
                                      newPolicies, escalate);
  ASSERT_TRUE(full.hasSolution());
  EXPECT_TRUE(full.escalatedFullResolve);
  EXPECT_EQ(full.placement.usedCapacity(net.s1), 1);  // q2's drop
  EXPECT_EQ(full.placement.usedCapacity(net.s2), 2);  // q1 relocated
  VerifyResult v = verifyPlacement(full.solvedProblem, full.placement);
  EXPECT_TRUE(v.ok) << v.summary();
}

TEST(IncrementalEscalation, FeasibleRestrictedSolveDoesNotEscalate) {
  TwoSwitch net;
  acl::Policy q1;
  q1.addRule(T("11**"), Action::kDrop);
  PlacementProblem base;
  base.graph = &net.graph;
  base.routing = {{net.l1, {topo::Path{net.l1, net.l2, {net.s1, net.s2},
                                       std::nullopt}}}};
  base.policies = {q1};
  PlaceOptions opts;
  opts.resilience.fullResolveOnInfeasible = true;
  PlaceOutcome baseOut = place(base, opts);
  ASSERT_TRUE(baseOut.hasSolution());

  acl::Policy q2;
  q2.addRule(T("0***"), Action::kDrop);
  PlaceOutcome inc = installPolicies(
      base, baseOut.placement,
      {{net.l3, {topo::Path{net.l3, net.l4, {net.s1}, std::nullopt}}}}, {q2},
      opts);
  ASSERT_TRUE(inc.hasSolution());
  EXPECT_FALSE(inc.escalatedFullResolve);  // spare capacity sufficed
  VerifyResult v = verifyPlacement(inc.solvedProblem, inc.placement);
  EXPECT_TRUE(v.ok) << v.summary();
}

// ---------------------------------------------------------------------------
// Wall-clock deadline bounds the whole place() call (acceptance scenario:
// 16k-rule instance, 100 ms deadline, degraded-but-verified result)

TEST(WallDeadline, BoundsEndToEndPlacementOnLargeInstance) {
  // 1024 ingress policies x 16 rules = 16k rules, coupled into one
  // component by the shared edge/aggregation tables — the exact solve of
  // that component cannot finish inside 10 ms, so the ladder's greedy
  // floor must deliver.  (Measured in release: the streaming encoder gets
  // the whole exact pipeline down to ~0.1 s, so the deadline sits well
  // below that to keep the degradation premise valid.)  Capacity 76 is
  // below what the busiest ingress switches' policies need, so the
  // ingress-first walk spills past an ingress and the instance is outside
  // the certified fast path (docs/solver.md), whose speed on a warm
  // depgraph cache would otherwise decide the premise; the walk still
  // completes, so the greedy floor can deliver.  (Measured: the walk
  // certifies at 80 and fails below 72.)
  InstanceConfig cfg;
  cfg.fatTreeK = 16;
  cfg.capacity = 76;
  cfg.ingressCount = 1024;
  cfg.totalPaths = 2048;
  cfg.rulesPerPolicy = 16;
  cfg.seed = 1;
  Instance inst(cfg);

  PlaceOptions opts;
  opts.budget = solver::Budget::seconds(0.01);
  opts.resilience.ladder = true;
  opts.resilience.partialResults = true;

  const auto start = std::chrono::steady_clock::now();
  PlaceOutcome out = place(inst.problem(), opts);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // Release-build contract: within 2x the deadline plus the polynomial
  // greedy floor.  The asserted bound carries heavy slack so sanitizer and
  // loaded-CI builds stay green; the functional assertions below are the
  // strict part.
  EXPECT_LT(elapsed, 10.0) << "place() ignored the wall deadline";
  RecordProperty("elapsed_seconds", std::to_string(elapsed));

  ASSERT_TRUE(out.hasAnyPlacement());
  EXPECT_EQ(out.fastPathComponents, 0);  // the premise: nothing certified
  EXPECT_TRUE(out.degraded);  // a 16k-rule exact solve cannot finish in 100ms
  EXPECT_NE(out.rung, PlaceRung::kOptimal);
  bool anyAttribution = false;
  for (const auto& c : out.componentStats) {
    anyAttribution |= c.failure.has_value() || c.rung != PlaceRung::kOptimal;
  }
  EXPECT_TRUE(anyAttribution);

  // Exact verification of every 1024-policy drop set takes minutes (a few
  // wildcard-heavy policies fragment badly), so sample: full capacity
  // check (always global) + exact path semantics for every 64th policy.
  // The fuzzer runs the unsampled check continuously on small cases.
  std::vector<int> sampled;
  for (int pid = 0; pid < inst.problem().policyCount(); pid += 64) {
    sampled.push_back(pid);
  }
  VerifyResult v =
      verifyPlacement(out.solvedProblem, out.placement, true, &sampled);
  EXPECT_TRUE(v.ok) << v.summary();
}

TEST(WallDeadline, CancellationTokenStopsPlacement) {
  Instance inst(ladderConfig(5));
  PlaceOptions opts;
  opts.cancel = util::CancelToken::create();
  opts.cancel.requestCancel();  // cancelled before the call even starts
  opts.resilience.ladder = true;
  PlaceOutcome out = place(inst.problem(), opts);
  // Every component is skipped at its deadline check; the ladder's greedy
  // floor still produces a verified placement.
  ASSERT_TRUE(out.hasAnyPlacement());
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.rung, PlaceRung::kGreedy);
  VerifyResult v = verifyPlacement(out.solvedProblem, out.placement);
  EXPECT_TRUE(v.ok) << v.summary();
}

}  // namespace
}  // namespace ruleplace::core
