// End-to-end integration and property tests: generated Fat-Tree instances
// solved through the full pipeline, with the semantic verifier as oracle.

#include <gtest/gtest.h>

#include "core/encoder.h"
#include "core/greedy.h"
#include "core/incremental.h"
#include "core/instance.h"
#include "core/placer.h"
#include "core/verify.h"

namespace ruleplace::core {
namespace {

InstanceConfig smallConfig(std::uint64_t seed) {
  InstanceConfig cfg;
  cfg.fatTreeK = 4;
  cfg.capacity = 40;
  cfg.ingressCount = 4;
  cfg.totalPaths = 12;
  cfg.rulesPerPolicy = 10;
  cfg.seed = seed;
  return cfg;
}

class EndToEnd : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EndToEnd, OptimalPlacementIsSemanticallyExact) {
  Instance inst(smallConfig(GetParam()));
  PlaceOutcome out = place(inst.problem());
  ASSERT_EQ(out.status, solver::OptStatus::kOptimal);
  auto v = verifyPlacement(out.solvedProblem, out.placement);
  EXPECT_TRUE(v.ok) << v.summary();
  EXPECT_EQ(out.objective, out.placement.totalInstalledRules());
}

TEST_P(EndToEnd, IlpNeverWorseThanGreedy) {
  Instance inst(smallConfig(GetParam() + 100));
  GreedyOutcome greedy = greedyPlace(inst.problem());
  PlaceOutcome ilp = place(inst.problem());
  ASSERT_EQ(ilp.status, solver::OptStatus::kOptimal);
  if (greedy.feasible) {
    EXPECT_LE(ilp.objective, greedy.totalRules);
  }
  // Both massively undercut naive p x r replication.
  EXPECT_LE(ilp.objective, replicateAllCount(inst.problem()));
}

TEST_P(EndToEnd, SatisfiabilityModeAgreesOnFeasibility) {
  InstanceConfig cfg = smallConfig(GetParam() + 200);
  cfg.capacity = 12;  // tighter: some instances infeasible
  Instance inst(cfg);
  // Near the feasibility boundary, proving optimality can require counting
  // arguments that grind; a budget yields kFeasible, which still settles
  // the feasibility question.
  PlaceOptions optOpts;
  optOpts.budget = solver::Budget::seconds(30);
  PlaceOutcome opt = place(inst.problem(), optOpts);
  PlaceOptions satOpts;
  satOpts.satisfiabilityOnly = true;
  satOpts.budget = solver::Budget::seconds(30);
  PlaceOutcome sat = place(inst.problem(), satOpts);
  if (opt.status == solver::OptStatus::kUnknown ||
      sat.status == solver::OptStatus::kUnknown) {
    GTEST_SKIP() << "budget exhausted before a feasibility verdict";
  }
  EXPECT_EQ(opt.hasSolution(), sat.hasSolution());
  if (sat.hasSolution()) {
    auto v = verifyPlacement(sat.solvedProblem, sat.placement);
    EXPECT_TRUE(v.ok) << v.summary();
    EXPECT_LE(opt.objective, sat.placement.totalInstalledRules());
  }
}

TEST_P(EndToEnd, MergingNeverIncreasesInstalledRules) {
  InstanceConfig cfg = smallConfig(GetParam() + 300);
  cfg.mergeableRules = 4;
  Instance inst(cfg);
  PlaceOutcome plain = place(inst.problem());
  PlaceOptions mergeOpts;
  mergeOpts.encoder.enableMerging = true;
  // Optimality proofs on merged models can require counting arguments the
  // clause learner is bad at; a budget keeps the test fast and the
  // assertions below only need a good incumbent.
  mergeOpts.budget = solver::Budget::seconds(10);
  PlaceOutcome merged = place(inst.problem(), mergeOpts);
  ASSERT_TRUE(plain.hasSolution());
  ASSERT_TRUE(merged.hasSolution());
  EXPECT_LE(merged.objective, plain.objective);
  EXPECT_EQ(merged.objective, merged.placement.totalInstalledRules());
  auto v = verifyPlacement(merged.solvedProblem, merged.placement);
  EXPECT_TRUE(v.ok) << v.summary();
}

TEST_P(EndToEnd, PathSlicingPreservesSlicedSemantics) {
  InstanceConfig cfg = smallConfig(GetParam() + 400);
  cfg.slicedTraffic = true;
  Instance inst(cfg);
  PlaceOptions opts;
  opts.encoder.enablePathSlicing = true;
  PlaceOutcome out = place(inst.problem(), opts);
  ASSERT_TRUE(out.hasSolution());
  auto v = verifyPlacement(out.solvedProblem, out.placement, true);
  EXPECT_TRUE(v.ok) << v.summary();

  // Slicing can only shrink the model and the optimum.  The models are
  // encoded directly: place() builds none for a component its certified
  // fast path places, so its modelVars would compare 0 with 0.
  PlaceOutcome full = place(inst.problem());
  ASSERT_TRUE(full.hasSolution());
  const PlacementProblem problem = inst.problem();
  EncoderOptions slicedOpts;
  slicedOpts.enablePathSlicing = true;
  const EncodingStats sliced = Encoder(problem, slicedOpts).stats();
  const EncodingStats unsliced = Encoder(problem, {}).stats();
  EXPECT_LE(sliced.placementVars, unsliced.placementVars);
  EXPECT_LE(sliced.requiredRules, unsliced.requiredRules);
  EXPECT_LE(out.objective, full.objective);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EndToEnd, ::testing::Range<std::uint64_t>(1, 9));

TEST(EndToEnd, OverConstrainedInstanceIsInfeasible) {
  InstanceConfig cfg = smallConfig(7);
  cfg.capacity = 1;
  Instance inst(cfg);
  PlaceOutcome out = place(inst.problem());
  EXPECT_EQ(out.status, solver::OptStatus::kInfeasible);
}

TEST(EndToEnd, BudgetedSolveReturnsIncumbentOrUnknown) {
  InstanceConfig cfg = smallConfig(8);
  cfg.rulesPerPolicy = 20;
  Instance inst(cfg);
  PlaceOptions opts;
  opts.budget = solver::Budget::seconds(0.001);
  PlaceOutcome out = place(inst.problem(), opts);
  EXPECT_TRUE(out.status == solver::OptStatus::kFeasible ||
              out.status == solver::OptStatus::kUnknown ||
              out.status == solver::OptStatus::kOptimal);
  if (out.hasSolution()) {
    auto v = verifyPlacement(out.solvedProblem, out.placement);
    EXPECT_TRUE(v.ok) << v.summary();
  }
}

// ---- incremental deployment (§IV-E) ----------------------------------------

class IncrementalTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalTest, InstallNewPolicyOnSpareCapacity) {
  InstanceConfig cfg = smallConfig(GetParam() + 500);
  cfg.capacity = 60;
  Instance inst(cfg);
  PlaceOutcome base = place(inst.problem());
  ASSERT_TRUE(base.hasSolution());

  // New tenant: a fresh policy with one path, placed incrementally.
  util::Rng rng(GetParam() + 1);
  classbench::GeneratorConfig gen;
  gen.rulesPerPolicy = 8;
  classbench::PolicyGenerator pg(gen, rng.next());
  topo::ShortestPathRouter router(inst.graph());
  topo::PortId in = 1;
  topo::Path path = router.route(in, inst.graph().entryPortCount() - 1, rng);
  std::vector<topo::IngressPaths> newRouting{{in, {path}}};
  std::vector<acl::Policy> newPolicies{pg.generate()};

  PlaceOptions fast;
  fast.satisfiabilityOnly = true;
  PlaceOutcome inc = installPolicies(base.solvedProblem, base.placement,
                                     newRouting, newPolicies, fast);
  ASSERT_TRUE(inc.hasSolution());
  auto v = verifyPlacement(inc.solvedProblem, inc.placement);
  EXPECT_TRUE(v.ok) << v.summary();
  // Base entries are untouched: capacities still respected jointly.
  EXPECT_GE(inc.placement.totalInstalledRules(),
            base.placement.totalInstalledRules());
}

TEST_P(IncrementalTest, RerouteKeepsOtherPoliciesIntact) {
  InstanceConfig cfg = smallConfig(GetParam() + 600);
  cfg.capacity = 60;
  Instance inst(cfg);
  PlaceOutcome base = place(inst.problem());
  ASSERT_TRUE(base.hasSolution());

  // Move policy 0 to a different set of paths.
  util::Rng rng(GetParam() + 2);
  topo::ShortestPathRouter router(inst.graph());
  topo::PortId in = inst.routing()[0].ingress;
  std::vector<topo::IngressPaths> newRouting{
      {in,
       {router.route(in, 2, rng), router.route(in, 3, rng),
        router.route(in, inst.graph().entryPortCount() - 2, rng)}}};

  PlaceOptions fast;
  fast.satisfiabilityOnly = true;
  PlaceOutcome inc = reroutePolicies(base.solvedProblem, base.placement, {0},
                                     newRouting, fast);
  ASSERT_TRUE(inc.hasSolution());
  auto v = verifyPlacement(inc.solvedProblem, inc.placement);
  EXPECT_TRUE(v.ok) << v.summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalTest,
                         ::testing::Range<std::uint64_t>(1, 6));

TEST(Incremental, SpareCapacitiesAccounting) {
  InstanceConfig cfg = smallConfig(9);
  Instance inst(cfg);
  PlaceOutcome base = place(inst.problem());
  ASSERT_TRUE(base.hasSolution());
  auto spare = spareCapacities(base.solvedProblem, base.placement);
  for (int sw = 0; sw < inst.graph().switchCount(); ++sw) {
    EXPECT_EQ(spare[static_cast<std::size_t>(sw)],
              cfg.capacity - base.placement.usedCapacity(sw));
    EXPECT_GE(spare[static_cast<std::size_t>(sw)], 0);
  }
}

TEST(Incremental, InstallFailsWhenNoSpareCapacity) {
  InstanceConfig cfg = smallConfig(10);
  cfg.capacity = 14;  // just enough for the base load
  Instance inst(cfg);
  PlaceOutcome base = place(inst.problem());
  if (!base.hasSolution()) GTEST_SKIP() << "base already infeasible";

  // A new policy too large for whatever is left on its single path.
  util::Rng rng(4);
  classbench::GeneratorConfig gen;
  gen.rulesPerPolicy = 200;
  classbench::PolicyGenerator pg(gen, 5);
  topo::ShortestPathRouter router(inst.graph());
  topo::Path path = router.route(0, inst.graph().entryPortCount() - 1, rng);
  PlaceOptions fast;
  fast.satisfiabilityOnly = true;
  PlaceOutcome inc =
      installPolicies(base.solvedProblem, base.placement, {{0, {path}}},
                      {pg.generate()}, fast);
  EXPECT_FALSE(inc.hasSolution());
}

}  // namespace
}  // namespace ruleplace::core
