// Core placement tests: the encoder's constraint families, extraction,
// the semantic verifier, and the greedy baseline — including the paper's
// Fig. 3 worked example.

#include <gtest/gtest.h>

#include "core/encoder.h"
#include "core/greedy.h"
#include "core/instance.h"
#include "core/placer.h"
#include "core/verify.h"
#include "io/json.h"
#include "match/ternary.h"
#include "solver/optimize.h"

namespace ruleplace::core {
namespace {

using acl::Action;
using match::Ternary;

Ternary T(const char* s) { return Ternary::fromString(s); }

// The paper's Fig. 3 network: ingress l1 at s1; egresses l2 at s3 and l3 at
// s5; routes s1-s2-s3 and s1-s2-s4-s5.
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
  q.addRule(T("111*"), Action::kPermit);  // r11: shields r13
  q.addRule(T("00**"), Action::kPermit);  // r12: disjoint from r13
  q.addRule(T("11**"), Action::kDrop);    // r13: must cover both paths
  return q;
}

TEST(Encoder, Fig3ModelShape) {
  Fig3 net(0, 1, 2, 0, 2);
  PlacementProblem problem = net.problem(fig3Policy());
  Encoder enc(problem, {});
  const EncodingStats& st = enc.stats();
  // r13 gets a variable on all 5 switches; r11 accompanies it everywhere;
  // r12 shields nothing -> no variables at all.
  EXPECT_EQ(st.placementVars, 10);
  EXPECT_EQ(st.ruleDependencyConstraints, 5);
  EXPECT_EQ(st.pathDependencyConstraints, 2);
  EXPECT_EQ(st.capacityConstraints, 5);
  EXPECT_EQ(st.mergeVars, 0);
  const acl::Rule& r12 = problem.policies[0].rules()[1];
  EXPECT_EQ(enc.placementVar(0, r12.id, net.s1), -1);
}

TEST(Encoder, ValidatesProblem) {
  Fig3 net(1, 1, 1, 1, 1);
  PlacementProblem p = net.problem(fig3Policy());
  p.routing[0].paths[0].switches = {net.s1, net.s3};  // missing link
  EXPECT_THROW(Encoder(p, {}), std::invalid_argument);
  p = net.problem(fig3Policy());
  p.routing[0].paths[0].switches = {net.s2, net.s3};  // wrong start
  EXPECT_THROW(Encoder(p, {}), std::invalid_argument);
  p = net.problem(fig3Policy());
  p.policies.clear();  // size mismatch
  EXPECT_THROW(Encoder(p, {}), std::invalid_argument);
}

TEST(Placer, Fig3ReplicatesDropAcrossBothPaths) {
  // s2 too small for {r13, r11}; s1 empty: the drop must replicate on
  // s3 and s5, exactly the solution the paper walks through.
  Fig3 net(0, 1, 2, 0, 2);
  PlaceOutcome out = place(net.problem(fig3Policy()));
  ASSERT_EQ(out.status, solver::OptStatus::kOptimal);
  EXPECT_EQ(out.objective, 4);  // (r13 + shield r11) on both s3 and s5
  EXPECT_EQ(out.placement.usedCapacity(net.s3), 2);
  EXPECT_EQ(out.placement.usedCapacity(net.s5), 2);
  EXPECT_EQ(out.placement.usedCapacity(net.s2), 0);
  auto v = verifyPlacement(out.solvedProblem, out.placement);
  EXPECT_TRUE(v.ok) << v.summary();
}

TEST(Placer, PrefersSharedSwitchWhenItFits) {
  // With room on s2 (common to both paths) the optimum shares the rules.
  Fig3 net(0, 2, 2, 0, 2);
  PlaceOutcome out = place(net.problem(fig3Policy()));
  ASSERT_EQ(out.status, solver::OptStatus::kOptimal);
  EXPECT_EQ(out.objective, 2);  // r13 + r11 once, on s1 or s2
  auto v = verifyPlacement(out.solvedProblem, out.placement);
  EXPECT_TRUE(v.ok) << v.summary();
}

TEST(Placer, InfeasibleWhenNothingFits) {
  Fig3 net(0, 0, 1, 0, 2);  // s3 cannot hold drop+shield
  PlaceOutcome out = place(net.problem(fig3Policy()));
  EXPECT_EQ(out.status, solver::OptStatus::kInfeasible);
  EXPECT_FALSE(out.hasSolution());
}

TEST(Placer, ShieldOrderingInExtractedTable) {
  Fig3 net(0, 2, 2, 0, 2);
  PlaceOutcome out = place(net.problem(fig3Policy()));
  ASSERT_TRUE(out.hasSolution());
  for (int sw = 0; sw < net.graph.switchCount(); ++sw) {
    const auto& table = out.placement.table(sw);
    if (table.size() == 2) {
      EXPECT_EQ(table[0].action, Action::kPermit);
      EXPECT_EQ(table[1].action, Action::kDrop);
      EXPECT_GT(table[0].priority, table[1].priority);
    }
  }
}

TEST(Placer, SatisfiabilityOnlyModeIsFeasibleNotOptimal) {
  Fig3 net(5, 5, 5, 5, 5);
  PlaceOptions opts;
  opts.satisfiabilityOnly = true;
  PlaceOutcome out = place(net.problem(fig3Policy()), opts);
  ASSERT_TRUE(out.hasSolution());
  auto v = verifyPlacement(out.solvedProblem, out.placement);
  EXPECT_TRUE(v.ok) << v.summary();
}

TEST(Placer, UpstreamObjectivePushesDropsToIngress) {
  Fig3 net(5, 5, 5, 5, 5);  // plenty of room everywhere
  PlaceOptions opts;
  opts.encoder.objective = ObjectiveKind::kUpstreamTraffic;
  PlaceOutcome out = place(net.problem(fig3Policy()), opts);
  ASSERT_EQ(out.status, solver::OptStatus::kOptimal);
  // Cheapest spot is the ingress switch (loc 0 on both paths).
  EXPECT_EQ(out.placement.usedCapacity(net.s1), 2);
  EXPECT_EQ(out.placement.totalInstalledRules(), 2);
  auto v = verifyPlacement(out.solvedProblem, out.placement);
  EXPECT_TRUE(v.ok) << v.summary();
}

TEST(Placer, WeightedSwitchObjective) {
  Fig3 net(5, 5, 5, 5, 5);
  PlaceOptions opts;
  opts.encoder.objective = ObjectiveKind::kWeightedSwitch;
  opts.encoder.switchWeights = {9, 1, 9, 9, 9};  // s2 is cheap
  PlaceOutcome out = place(net.problem(fig3Policy()), opts);
  ASSERT_EQ(out.status, solver::OptStatus::kOptimal);
  EXPECT_EQ(out.placement.usedCapacity(1), 2);  // everything on s2
  auto v = verifyPlacement(out.solvedProblem, out.placement);
  EXPECT_TRUE(v.ok) << v.summary();
}

TEST(Placer, RedundancyRemovalShrinksPolicy) {
  acl::Policy q = fig3Policy();
  q.addRule(T("11**"), Action::kDrop);  // duplicate of r13, lower priority
  Fig3 net(0, 1, 2, 0, 2);
  PlaceOptions opts;
  opts.removeRedundancy = true;
  PlaceOutcome out = place(net.problem(std::move(q)), opts);
  ASSERT_EQ(out.status, solver::OptStatus::kOptimal);
  EXPECT_EQ(out.objective, 4);  // same as without the redundant rule
  // Complete removal drops the duplicate *and* the never-shielding permit
  // 00** (which only restates the default action).
  EXPECT_EQ(out.solvedProblem.policies[0].size(), 2u);
}

TEST(Verify, DetectsMissingDrop) {
  Fig3 net(5, 5, 5, 5, 5);
  PlacementProblem p = net.problem(fig3Policy());
  Placement empty(net.graph.switchCount());
  auto v = verifyPlacement(p, empty);
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.errors.size(), 2u);  // one per path
  EXPECT_NE(v.summary().find("should be dropped"), std::string::npos);
}

TEST(Verify, DetectsUnshieldedDrop) {
  Fig3 net(5, 5, 5, 5, 5);
  PlacementProblem p = net.problem(fig3Policy());
  const auto& rules = p.policies[0].rules();
  // Place the drop on both paths but omit its shielding permit.
  Placement bad = buildPlacement(
      p, {{0, rules[2].id, net.s3}, {0, rules[2].id, net.s5}});
  auto v = verifyPlacement(p, bad);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.summary().find("permits it"), std::string::npos);
}

TEST(Verify, DetectsCapacityOverflow) {
  Fig3 net(5, 5, 0, 5, 5);
  PlacementProblem p = net.problem(fig3Policy());
  const auto& rules = p.policies[0].rules();
  Placement bad = buildPlacement(p, {{0, rules[0].id, net.s3}});
  auto v = verifyPlacement(p, bad);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.summary().find("capacity"), std::string::npos);
}

TEST(Verify, AcceptsHandBuiltCorrectPlacement) {
  Fig3 net(5, 5, 5, 5, 5);
  PlacementProblem p = net.problem(fig3Policy());
  const auto& rules = p.policies[0].rules();
  Placement good = buildPlacement(
      p, {{0, rules[0].id, net.s1}, {0, rules[2].id, net.s1}});
  auto v = verifyPlacement(p, good);
  EXPECT_TRUE(v.ok) << v.summary();
}

TEST(Placement, ErasePolicyStripsTagsAndEntries) {
  Fig3 net(5, 5, 5, 5, 5);
  PlacementProblem p = net.problem(fig3Policy());
  const auto& rules = p.policies[0].rules();
  Placement pl = buildPlacement(p, {{0, rules[2].id, net.s1}});
  EXPECT_EQ(pl.totalInstalledRules(), 1);
  pl.erasePolicy(0);
  EXPECT_EQ(pl.totalInstalledRules(), 0);
}

TEST(Placement, VisibleToFiltersByTag) {
  Fig3 net(5, 5, 5, 5, 5);
  PlacementProblem p = net.problem(fig3Policy());
  const auto& rules = p.policies[0].rules();
  Placement pl = buildPlacement(p, {{0, rules[2].id, net.s1}});
  EXPECT_EQ(pl.visibleTo(net.s1, 0).size(), 1u);
  EXPECT_TRUE(pl.visibleTo(net.s1, 1).empty());
}

TEST(Greedy, PlacesAtIngressWhenRoomy) {
  Fig3 net(5, 5, 5, 5, 5);
  GreedyOutcome out = greedyPlace(net.problem(fig3Policy()));
  ASSERT_TRUE(out.feasible);
  EXPECT_EQ(out.totalRules, 2);
  EXPECT_EQ(out.placement.usedCapacity(net.s1), 2);
  auto v = verifyPlacement(net.problem(fig3Policy()), out.placement);
  EXPECT_TRUE(v.ok) << v.summary();
}

TEST(Greedy, SpillsDownstreamUnderPressure) {
  Fig3 net(0, 1, 2, 0, 2);
  GreedyOutcome out = greedyPlace(net.problem(fig3Policy()));
  ASSERT_TRUE(out.feasible) << out.failureReason;
  EXPECT_EQ(out.totalRules, 4);
  auto v = verifyPlacement(net.problem(fig3Policy()), out.placement);
  EXPECT_TRUE(v.ok) << v.summary();
}

TEST(Greedy, ReportsFailureWhenStuck) {
  Fig3 net(0, 0, 1, 0, 2);
  GreedyOutcome out = greedyPlace(net.problem(fig3Policy()));
  EXPECT_FALSE(out.feasible);
  EXPECT_FALSE(out.failureReason.empty());
}

TEST(Baselines, ReplicateAllIsPTimesR) {
  Fig3 net(5, 5, 5, 5, 5);
  PlacementProblem p = net.problem(fig3Policy());
  EXPECT_EQ(replicateAllCount(p), 2 * 3);  // 2 paths x 3 rules
}

TEST(Baselines, PathwiseDuplicatesAcrossPaths) {
  // With room at the shared ingress, the ILP (and ingress-first greedy)
  // install drop+shield once; path-wise placement installs them once PER
  // PATH — the duplication the paper's global optimization eliminates.
  Fig3 net(5, 5, 5, 5, 5);
  PlacementProblem p = net.problem(fig3Policy());
  GreedyOutcome pw = pathwisePlace(p);
  ASSERT_TRUE(pw.feasible) << pw.failureReason;
  EXPECT_EQ(pw.totalRules, 4);  // 2 paths x (drop + shield)
  EXPECT_EQ(greedyPlace(p).totalRules, 2);
  auto v = verifyPlacement(p, pw.placement);
  EXPECT_TRUE(v.ok) << v.summary();
}

TEST(Baselines, PathwiseFailsWhereSharingSurvives) {
  // s1 can hold exactly one copy of {drop, shield}: path-wise needs two
  // copies (one per path) and dies; the sharing-aware strategies fit.
  Fig3 net(2, 0, 0, 0, 0);
  PlacementProblem p = net.problem(fig3Policy());
  GreedyOutcome pw = pathwisePlace(p);
  EXPECT_FALSE(pw.feasible);
  GreedyOutcome shared = greedyPlace(p);
  ASSERT_TRUE(shared.feasible) << shared.failureReason;
  EXPECT_EQ(shared.totalRules, 2);
  EXPECT_EQ(place(p).status, solver::OptStatus::kOptimal);
}

TEST(Baselines, PathwiseHonorsSlicing) {
  Fig3 net(5, 5, 5, 5, 5);
  acl::Policy q;
  q.addRule(T("1***"), Action::kDrop);
  q.addRule(T("0***"), Action::kDrop);
  PlacementProblem p = net.problem(std::move(q));
  p.routing[0].paths[0].traffic = T("1***");
  p.routing[0].paths[1].traffic = T("0***");
  GreedyOutcome sliced = pathwisePlace(p, true);
  ASSERT_TRUE(sliced.feasible);
  EXPECT_EQ(sliced.totalRules, 2);  // one relevant drop per path
  GreedyOutcome full = pathwisePlace(p, false);
  ASSERT_TRUE(full.feasible);
  EXPECT_EQ(full.totalRules, 4);
}

TEST(Encoder, PathSlicingDropsIrrelevantRules) {
  Fig3 net(5, 5, 5, 5, 5);
  acl::Policy q;
  q.addRule(T("1***"), Action::kDrop);  // only matches path A's traffic
  q.addRule(T("0***"), Action::kDrop);  // only matches path B's traffic
  PlacementProblem p = net.problem(std::move(q));
  p.routing[0].paths[0].traffic = T("1***");
  p.routing[0].paths[1].traffic = T("0***");

  EncoderOptions plain;
  Encoder full(p, plain);
  EncoderOptions sliced;
  sliced.enablePathSlicing = true;
  Encoder cut(p, sliced);
  EXPECT_EQ(cut.stats().slicedAwayRules, 2);
  EXPECT_LT(cut.stats().placementVars, full.stats().placementVars);
  EXPECT_LT(cut.stats().pathDependencyConstraints,
            full.stats().pathDependencyConstraints);

  PlaceOptions opts;
  opts.encoder = sliced;
  PlaceOutcome out = place(p, opts);
  ASSERT_EQ(out.status, solver::OptStatus::kOptimal);
  EXPECT_EQ(out.objective, 2);  // each drop once, on its own path
  auto v = verifyPlacement(out.solvedProblem, out.placement, true);
  EXPECT_TRUE(v.ok) << v.summary();
}

TEST(Encoder, MergingSharesIdenticalRulesAcrossPolicies) {
  // Two ingresses whose paths cross s2; identical blacklist rule merges.
  topo::Graph g;
  topo::SwitchId s1 = g.addSwitch(0);
  topo::SwitchId s2 = g.addSwitch(1);  // only room for the merged entry
  topo::SwitchId s3 = g.addSwitch(0);
  g.addLink(s1, s2);
  g.addLink(s2, s3);
  topo::PortId l1 = g.addEntryPort(s1);
  topo::PortId l2 = g.addEntryPort(s3);

  acl::Policy qa;
  qa.addRule(T("11**"), Action::kDrop);
  acl::Policy qb;
  qb.addRule(T("11**"), Action::kDrop);

  PlacementProblem p;
  p.graph = &g;
  p.routing = {{l1, {{l1, l2, {s1, s2, s3}, std::nullopt}}},
               {l2, {{l2, l1, {s3, s2, s1}, std::nullopt}}}};
  p.policies = {qa, qb};

  PlaceOptions noMerge;
  EXPECT_EQ(place(p, noMerge).status, solver::OptStatus::kInfeasible);

  PlaceOptions withMerge;
  withMerge.encoder.enableMerging = true;
  PlaceOutcome out = place(p, withMerge);
  ASSERT_EQ(out.status, solver::OptStatus::kOptimal);
  EXPECT_EQ(out.objective, 1);  // one shared entry on s2
  EXPECT_EQ(out.placement.usedCapacity(s2), 1);
  const auto& entry = out.placement.table(s2)[0];
  EXPECT_TRUE(entry.merged);
  EXPECT_EQ(entry.tags, (std::vector<int>{0, 1}));
  auto v = verifyPlacement(out.solvedProblem, out.placement);
  EXPECT_TRUE(v.ok) << v.summary();
}

TEST(Encoder, MergingRejectsNonTotalRulesObjective) {
  Fig3 net(5, 5, 5, 5, 5);
  PlacementProblem p = net.problem(fig3Policy());
  PlaceOptions opts;
  opts.encoder.enableMerging = true;
  opts.encoder.objective = ObjectiveKind::kUpstreamTraffic;
  EXPECT_THROW(place(p, opts), std::invalid_argument);
}

// Golden bit-identity of the whole optimize loop on a small Fat-Tree
// instance that misses the encoder's lower bound, so every incumbent goes
// through the polisher: with merging off its removal pass strips
// placements (117 -> 113 on the first incumbent), with merging on its
// flip-up cascade completes a merge group.  A conflict budget keeps the
// run deterministic and short.  Changing the lowering, the polisher or
// solver set-up must leave these bytes and counters exactly as they are.
std::uint64_t fnv64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct GoldenRun {
  bool merge;
  std::int64_t objective;
  std::size_t jsonBytes;
  std::uint64_t jsonFnv;
  std::int64_t decisions;
  std::int64_t propagations;
  std::int64_t conflicts;
};

TEST(Placer, PolishedSearchIsBitIdenticalToGolden) {
  InstanceConfig cfg;
  cfg.fatTreeK = 4;
  cfg.capacity = 6;
  cfg.ingressCount = 8;
  cfg.totalPaths = 24;
  cfg.rulesPerPolicy = 10;
  cfg.mergeableRules = 3;
  cfg.seed = 2;
  const Instance inst(cfg);
  for (const GoldenRun& g :
       {GoldenRun{false, 113, 13384, 0x5e0fb66974f93688ull, 4274, 103889,
                  2000},
        GoldenRun{true, 102, 12289, 0x8cfbaf6781751d7full, 5194, 139003,
                  2000}}) {
    PlaceOptions opts;
    opts.threads = 1;
    opts.encoder.enableMerging = g.merge;
    opts.budget = solver::Budget::conflicts(2000);
    PlaceOutcome out = place(inst.problem(), opts);
    ASSERT_EQ(out.status, solver::OptStatus::kFeasible) << "merge " << g.merge;
    EXPECT_EQ(out.objective, g.objective) << "merge " << g.merge;
    const std::string json = io::placementToJson(out.solvedProblem,
                                                 out.placement);
    EXPECT_EQ(json.size(), g.jsonBytes) << "merge " << g.merge;
    EXPECT_EQ(fnv64(json), g.jsonFnv) << "merge " << g.merge;
    EXPECT_EQ(out.solverStats.decisions, g.decisions) << "merge " << g.merge;
    EXPECT_EQ(out.solverStats.propagations, g.propagations)
        << "merge " << g.merge;
    EXPECT_EQ(out.solverStats.conflicts, g.conflicts) << "merge " << g.merge;
  }
}

TEST(Greedy, PlaceIsTheWalkThenBuildPlacement) {
  Fig3 net(1, 2, 2, 0, 2);  // the walk spills past the ingress
  const PlacementProblem p = net.problem(fig3Policy());
  const GreedyWalk walk = greedyWalk(p);
  const GreedyOutcome g = greedyPlace(p);
  ASSERT_TRUE(walk.feasible);
  ASSERT_TRUE(g.feasible);
  EXPECT_EQ(g.totalRules, static_cast<std::int64_t>(walk.placed.size()));
  EXPECT_EQ(g.placement.toString(p), buildPlacement(p, walk.placed).toString(p));
}

// ---------------------------------------------------------------------------
// Certified fast path (docs/solver.md): when the ingress-first walk keeps
// every entry at its ingress and installs exactly the model-free lower
// bound, place() returns it without building a model — and it must be the
// placement the plain hinted solve returns, byte for byte.

// The hinted solver path composed from its layers, as core::place runs it
// when the fast path does not apply: per coupling component, Encoder ->
// Optimizer::solveWithHint -> extractPlacement, merged in component order.
struct HintedSolve {
  solver::OptStatus status = solver::OptStatus::kOptimal;  ///< worst
  std::int64_t objective = 0;
  std::int64_t requiredRules = 0;
  std::int64_t objectiveLowerBound = 0;
  Placement placement;
};

HintedSolve hintedSolverPath(const PlacementProblem& problem,
                             const EncoderOptions& opts = {}) {
  HintedSolve out;
  out.placement = Placement(problem.graph->switchCount());
  for (const std::vector<int>& comp : couplingComponents(problem, opts)) {
    const PlacementProblem sub = problem.subset(comp);
    const Encoder enc(sub, opts);
    const solver::OptResult r =
        solver::Optimizer::solveWithHint(enc.model(), enc.ingressHint());
    if (r.status != solver::OptStatus::kOptimal) out.status = r.status;
    out.objective += r.objective;
    out.requiredRules += enc.stats().requiredRules;
    out.objectiveLowerBound += enc.stats().objectiveLowerBound;
    if (r.hasSolution()) {
      out.placement.appendMapped(
          extractPlacement(sub, enc, r.assignment, nullptr), comp);
    }
  }
  return out;
}

InstanceConfig certifiedConfig(int k) {
  InstanceConfig cfg;
  cfg.fatTreeK = k;
  cfg.capacity = 60;  // every ingress holds its policies' required rules
  cfg.ingressCount = k == 4 ? 8 : 16;
  cfg.totalPaths = k == 4 ? 16 : 64;
  cfg.rulesPerPolicy = k == 4 ? 20 : 24;
  cfg.seed = k == 4 ? 7 : 5;
  return cfg;
}

void expectMatchesHintedSolver(const PlacementProblem& problem,
                               const PlaceOutcome& out,
                               const EncoderOptions& opts = {}) {
  const HintedSolve ref = hintedSolverPath(problem, opts);
  ASSERT_EQ(ref.status, solver::OptStatus::kOptimal);
  ASSERT_TRUE(out.hasSolution());
  EXPECT_EQ(out.objective, ref.objective);
  // io::PlacementReport's duplication ratio reads these two.
  EXPECT_EQ(out.encodingStats.requiredRules, ref.requiredRules);
  EXPECT_EQ(out.encodingStats.objectiveLowerBound, ref.objectiveLowerBound);
  EXPECT_EQ(io::placementToJson(out.solvedProblem, out.placement),
            io::placementToJson(problem, ref.placement));
}

TEST(FastPath, CertifiedPlacementIsTheHintedSolversByteForByte) {
  for (int k : {4, 8}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const Instance inst(certifiedConfig(k));
    const PlaceOutcome out = place(inst.problem());
    ASSERT_EQ(out.status, solver::OptStatus::kOptimal);
    EXPECT_EQ(out.rung, PlaceRung::kOptimal);
    EXPECT_FALSE(out.degraded);
    ASSERT_EQ(out.componentStats.size(), 1u);
    EXPECT_EQ(out.componentStats[0].path, PlacePath::kFastPath);
    EXPECT_EQ(out.fastPathComponents, 1);
    // No model was built.
    EXPECT_EQ(out.modelVars, 0);
    EXPECT_EQ(out.solverStats.decisions, 0);
    EXPECT_EQ(out.objective, out.encodingStats.objectiveLowerBound);
    // Exact verification of these policies takes tens of seconds; the
    // sliced test below verifies a certified placement instead.
    expectMatchesHintedSolver(inst.problem(), out);
  }
}

TEST(FastPath, SlicedBoundIsTheEncodersSlicedBound) {
  InstanceConfig cfg = certifiedConfig(4);
  cfg.slicedTraffic = true;
  const Instance inst(cfg);
  PlaceOptions opts;
  opts.encoder.enablePathSlicing = true;
  const PlaceOutcome out = place(inst.problem(), opts);
  ASSERT_EQ(out.status, solver::OptStatus::kOptimal);
  EXPECT_EQ(out.fastPathComponents,
            static_cast<int>(out.componentStats.size()));
  expectMatchesHintedSolver(inst.problem(), out, opts.encoder);
  auto v = verifyPlacement(out.solvedProblem, out.placement, true);
  EXPECT_TRUE(v.ok) << v.summary();
}

TEST(FastPath, OffIngressWalkFallsThroughToTheSolver) {
  // A fuzz-found instance: the ingress s0 holds two of the three required
  // rules, so the walk spills the shielded drop to s2.  It still installs
  // exactly the bound — optimal — but the hinted solve lands the rules
  // elsewhere, so only the solver's answer may be returned.
  topo::Graph graph;
  const topo::SwitchId s0 = graph.addSwitch(2);
  const topo::SwitchId s1 = graph.addSwitch(1);
  const topo::SwitchId s2 = graph.addSwitch(2);
  const topo::SwitchId s3 = graph.addSwitch(2);
  graph.addLink(s0, s1);
  graph.addLink(s1, s2);
  graph.addLink(s2, s3);
  const topo::PortId left = graph.addEntryPort(s0);
  const topo::PortId right = graph.addEntryPort(s3);
  acl::Policy q;
  q.addRule(T("*1****"), Action::kDrop);
  q.addRule(T("0*****"), Action::kPermit);
  q.addRule(T("*1*0*1"), Action::kDrop);
  PlacementProblem p;
  p.graph = &graph;
  p.routing = {{left, {topo::Path{left, right, {s0, s1, s2, s3},
                                  std::nullopt}}}};
  p.policies = {q};

  const GreedyWalk walk = greedyWalk(p);
  ASSERT_TRUE(walk.feasible);
  EXPECT_EQ(walk.placed.size(), 3u);  // the bound: 2 drops + 1 shield

  const PlaceOutcome out = place(p);
  ASSERT_EQ(out.status, solver::OptStatus::kOptimal);
  EXPECT_EQ(out.componentStats[0].path, PlacePath::kSolver);
  EXPECT_EQ(out.fastPathComponents, 0);
  EXPECT_GT(out.modelVars, 0);
  expectMatchesHintedSolver(p, out);
}

TEST(FastPath, TightInstanceFallsThrough) {
  // The golden instance below: capacity 6 is far too tight for the
  // ingress, so the walk spills and misses the bound.
  InstanceConfig cfg;
  cfg.fatTreeK = 4;
  cfg.capacity = 6;
  cfg.ingressCount = 8;
  cfg.totalPaths = 24;
  cfg.rulesPerPolicy = 10;
  cfg.seed = 2;
  const Instance inst(cfg);
  PlaceOptions opts;
  opts.budget = solver::Budget::conflicts(2000);
  const PlaceOutcome out = place(inst.problem(), opts);
  ASSERT_TRUE(out.hasSolution());
  EXPECT_EQ(out.fastPathComponents, 0);
  for (const auto& c : out.componentStats) {
    EXPECT_EQ(c.path, PlacePath::kSolver);
  }
  EXPECT_GT(out.modelVars, 0);
}

TEST(FastPath, NeverCertifiesOutsideItsClass) {
  Fig3 net(5, 5, 5, 5, 5);  // everything fits at the ingress
  const PlacementProblem p = net.problem(fig3Policy());
  {
    const PlaceOutcome out = place(p);
    ASSERT_EQ(out.status, solver::OptStatus::kOptimal);
    ASSERT_EQ(out.fastPathComponents, 1);  // the class itself is certified
  }
  struct Variant {
    const char* name;
    void (*apply)(PlaceOptions&);
  };
  const Variant variants[] = {
      {"merging", [](PlaceOptions& o) { o.encoder.enableMerging = true; }},
      {"monitor",
       [](PlaceOptions& o) {
         o.encoder.monitors.push_back({2, T("0000")});
       }},
      {"sat-only", [](PlaceOptions& o) { o.satisfiabilityOnly = true; }},
      {"no ingress hint", [](PlaceOptions& o) { o.useIngressHint = false; }},
      {"upstream traffic",
       [](PlaceOptions& o) {
         o.encoder.objective = ObjectiveKind::kUpstreamTraffic;
       }},
      {"weighted switch",
       [](PlaceOptions& o) {
         o.encoder.objective = ObjectiveKind::kWeightedSwitch;
         o.encoder.switchWeights = {1, 1, 1, 1, 1};
       }},
  };
  for (const Variant& v : variants) {
    SCOPED_TRACE(v.name);
    PlaceOptions opts;
    v.apply(opts);
    const PlaceOutcome out = place(p, opts);
    ASSERT_TRUE(out.hasSolution());
    EXPECT_EQ(out.fastPathComponents, 0);
    EXPECT_EQ(out.componentStats[0].path, PlacePath::kSolver);
    EXPECT_GT(out.modelVars, 0);
  }
}

TEST(FastPath, ExpiredDeadlineStillDegrades) {
  Fig3 net(5, 5, 5, 5, 5);
  PlaceOptions opts;
  opts.budget.deadline = util::Deadline::in(0.0);
  opts.resilience.ladder = true;
  const PlaceOutcome out = place(net.problem(fig3Policy()), opts);
  ASSERT_TRUE(out.hasSolution());
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.rung, PlaceRung::kGreedy);
  EXPECT_EQ(out.fastPathComponents, 0);
  EXPECT_EQ(out.componentStats[0].path, PlacePath::kSolver);
  EXPECT_TRUE(out.componentStats[0].failure.has_value());
}

// The paper's k=32 center point (perfbench place_k32, seeds 0-2) is
// certified by the fast path; its placementToJson bytes are pinned so that
// a change to the walk, the table order or the JSON writer shows up here.
TEST(FastPath, K32CenterPointBytesArePinned) {
  struct Pinned {
    std::uint64_t seed;
    std::size_t jsonBytes;
    std::uint64_t jsonFnv;
  };
  for (const Pinned& pin : {Pinned{0, 6024811, 0xc4330c1d741a70f6ull},
                            Pinned{1, 5972568, 0xf399933e63daf4b7ull},
                            Pinned{2, 6014107, 0xe39507a1b1592ebeull}}) {
    SCOPED_TRACE("seed " + std::to_string(pin.seed));
    InstanceConfig cfg;
    cfg.fatTreeK = 32;
    cfg.capacity = 1000;
    cfg.ingressCount = 512;
    cfg.rulesPerPolicy = 200;
    cfg.totalPaths = 2048;
    cfg.seed = 1000 * 200 + 2048 + pin.seed;
    const Instance inst(cfg);
    PlaceOptions opts;
    opts.threads = 4;
    const PlaceOutcome out = place(inst.problem(), opts);
    ASSERT_TRUE(out.hasSolution());
    EXPECT_EQ(out.fastPathComponents, 1);
    const std::string json =
        io::placementToJson(out.solvedProblem, out.placement);
    EXPECT_EQ(json.size(), pin.jsonBytes);
    EXPECT_EQ(fnv64(json), pin.jsonFnv);
  }
}

}  // namespace
}  // namespace ruleplace::core
