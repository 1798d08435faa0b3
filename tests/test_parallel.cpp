// Parallel placement engine tests: the work-stealing pool itself, the
// coupling-component decomposition, and the headline guarantee — thread
// count only changes scheduling, never results.  Every scenario is solved
// at threads=1 and threads in {2,4,8} and the outcomes must be
// bit-identical (status, objective, rendered placement, per-component
// stats).  Budgeted scenarios use conflict budgets: wall-clock budgets
// cannot give reproducible verdicts on loaded machines.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "core/instance.h"
#include "core/placer.h"
#include "core/verify.h"
#include "util/thread_pool.h"

namespace ruleplace::core {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPool, ExecutesEverySubmittedTask) {
  util::ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ReusableAcrossWaitRounds) {
  util::ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) {
      pool.submit(
          [&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait();
    EXPECT_EQ(counter.load(), (round + 1) * 20);
  }
}

TEST(ThreadPool, SingleThreadStillDrainsQueue) {
  util::ThreadPool pool(1);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, TasksMaySubmitChildTasks) {
  util::ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 32; ++i) {
    pool.submit([&pool, &counter] {
      counter.fetch_add(1, std::memory_order_relaxed);
      // Child is queued before the parent finishes, so pending never
      // transiently hits zero and wait() sees both generations.
      pool.submit(
          [&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    });
  }
  pool.wait();
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, ClampsNonPositiveThreadCount) {
  util::ThreadPool pool(0);
  EXPECT_EQ(pool.threadCount(), 1);
  util::ThreadPool pool2(-3);
  EXPECT_EQ(pool2.threadCount(), 1);
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(util::ThreadPool::hardwareThreads(), 1);
}

// ---------------------------------------------------------------------------
// couplingComponents

InstanceConfig baseConfig(std::uint64_t seed) {
  InstanceConfig cfg;
  cfg.fatTreeK = 4;
  cfg.capacity = 100;
  cfg.ingressCount = 6;
  cfg.totalPaths = 18;
  cfg.rulesPerPolicy = 8;
  cfg.seed = seed;
  return cfg;
}

void expectPartition(const std::vector<std::vector<int>>& comps, int n) {
  std::set<int> seen;
  int smallestOfPrev = -1;
  for (const auto& c : comps) {
    ASSERT_FALSE(c.empty());
    EXPECT_TRUE(std::is_sorted(c.begin(), c.end()));
    // Ordered by smallest member.
    EXPECT_GT(c.front(), smallestOfPrev);
    smallestOfPrev = c.front();
    for (int p : c) {
      EXPECT_TRUE(seen.insert(p).second) << "policy " << p << " duplicated";
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), n);
  if (n > 0) {
    EXPECT_EQ(*seen.begin(), 0);
    EXPECT_EQ(*seen.rbegin(), n - 1);
  }
}

TEST(CouplingComponents, RoomyCapacityDecouplesEveryPolicy) {
  InstanceConfig cfg = baseConfig(11);
  cfg.capacity = 10000;  // no switch can ever bind Eq. 3
  Instance inst(cfg);
  PlacementProblem p = inst.problem();
  EncoderOptions opts;  // merging off
  auto comps = couplingComponents(p, opts);
  expectPartition(comps, p.policyCount());
  EXPECT_EQ(comps.size(), static_cast<std::size_t>(p.policyCount()));
}

TEST(CouplingComponents, TightCapacityCouplesThroughSharedSwitches) {
  InstanceConfig cfg = baseConfig(11);
  cfg.capacity = 1;
  cfg.totalPaths = 24;
  Instance inst(cfg);
  PlacementProblem p = inst.problem();
  EncoderOptions opts;
  auto comps = couplingComponents(p, opts);
  expectPartition(comps, p.policyCount());
  // Fat-tree paths share aggregation/core switches, so at capacity 1 at
  // least two policies must land in one component.
  EXPECT_LT(comps.size(), static_cast<std::size_t>(p.policyCount()));
}

TEST(CouplingComponents, SharedMergeableRulesCoupleWhenMergingIsOn) {
  InstanceConfig cfg = baseConfig(7);
  cfg.capacity = 10000;
  cfg.mergeableRules = 3;  // identical blacklist appended to every policy
  Instance inst(cfg);
  PlacementProblem p = inst.problem();
  EncoderOptions off;
  auto decoupled = couplingComponents(p, off);
  EXPECT_EQ(decoupled.size(), static_cast<std::size_t>(p.policyCount()));
  EncoderOptions on;
  on.enableMerging = true;
  auto coupled = couplingComponents(p, on);
  expectPartition(coupled, p.policyCount());
  // The shared blacklist forms merge groups spanning all policies.
  EXPECT_EQ(coupled.size(), 1u);
}

// ---------------------------------------------------------------------------
// Thread-count invariance (the headline determinism guarantee)

struct Scenario {
  std::string name;
  InstanceConfig cfg;
  PlaceOptions opts;
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    {
      Scenario s;
      s.name = "roomy-" + std::to_string(seed);
      s.cfg = baseConfig(seed);
      out.push_back(std::move(s));
    }
    {
      Scenario s;
      s.name = "tight-" + std::to_string(seed);
      s.cfg = baseConfig(seed);
      s.cfg.capacity = 14;
      out.push_back(std::move(s));
    }
    {
      Scenario s;
      s.name = "merge-" + std::to_string(seed);
      s.cfg = baseConfig(seed);
      s.cfg.ingressCount = 4;
      s.cfg.totalPaths = 8;
      s.cfg.rulesPerPolicy = 6;
      s.cfg.capacity = 40;
      s.cfg.mergeableRules = 2;
      s.opts.encoder.enableMerging = true;
      // Optimality proofs on merged models can grind (see
      // test_integration); a *conflict* budget keeps the scenario fast
      // while staying deterministic, unlike a wall-clock budget.
      s.opts.budget = solver::Budget::conflicts(2000);
      out.push_back(std::move(s));
    }
  }
  {
    Scenario s;
    s.name = "slice";
    s.cfg = baseConfig(5);
    s.cfg.slicedTraffic = true;
    s.opts.encoder.enablePathSlicing = true;
    out.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "sat-only";
    s.cfg = baseConfig(6);
    s.cfg.capacity = 40;
    s.opts.satisfiabilityOnly = true;
    out.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "infeasible";
    s.cfg = baseConfig(4);
    s.cfg.capacity = 1;
    out.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "conflict-budget";
    s.cfg = baseConfig(8);
    s.cfg.capacity = 14;
    s.cfg.rulesPerPolicy = 12;
    s.opts.budget = solver::Budget::conflicts(40);
    out.push_back(std::move(s));
  }
  return out;
}

void expectIdentical(const Scenario& s, const PlaceOutcome& ref,
                     const PlaceOutcome& got, int threads) {
  SCOPED_TRACE(s.name + " @ threads=" + std::to_string(threads));
  EXPECT_EQ(got.status, ref.status);
  ASSERT_EQ(got.componentStats.size(), ref.componentStats.size());
  for (std::size_t c = 0; c < ref.componentStats.size(); ++c) {
    SCOPED_TRACE("component " + std::to_string(c));
    EXPECT_EQ(got.componentStats[c].status, ref.componentStats[c].status);
    EXPECT_EQ(got.componentStats[c].policyCount,
              ref.componentStats[c].policyCount);
    EXPECT_EQ(got.componentStats[c].ruleCount, ref.componentStats[c].ruleCount);
    EXPECT_EQ(got.componentStats[c].solverStats.conflicts,
              ref.componentStats[c].solverStats.conflicts);
    EXPECT_EQ(got.componentStats[c].solverStats.decisions,
              ref.componentStats[c].solverStats.decisions);
  }
  EXPECT_EQ(got.solverStats.conflicts, ref.solverStats.conflicts);
  EXPECT_EQ(got.modelVars, ref.modelVars);
  EXPECT_EQ(got.modelConstraints, ref.modelConstraints);
  ASSERT_EQ(got.hasSolution(), ref.hasSolution());
  if (ref.hasSolution()) {
    EXPECT_EQ(got.objective, ref.objective);
    EXPECT_EQ(got.placement.toString(got.solvedProblem),
              ref.placement.toString(ref.solvedProblem));
  }
}

TEST(ParallelPlacement, ThreadCountNeverChangesTheResult) {
  for (const Scenario& s : scenarios()) {
    SCOPED_TRACE(s.name);
    Instance inst(s.cfg);
    PlaceOptions seq = s.opts;
    seq.threads = 1;
    PlaceOutcome ref = place(inst.problem(), seq);
    EXPECT_FALSE(ref.componentStats.empty());
    EXPECT_EQ(ref.threadsUsed, 1);
    if (ref.hasSolution()) {
      auto v = verifyPlacement(ref.solvedProblem, ref.placement,
                               s.opts.encoder.enablePathSlicing);
      EXPECT_TRUE(v.ok) << v.summary();
    }
    for (int threads : {2, 4, 8}) {
      PlaceOptions par = s.opts;
      par.threads = threads;
      PlaceOutcome got = place(inst.problem(), par);
      EXPECT_LE(got.threadsUsed, threads);
      expectIdentical(s, ref, got, threads);
    }
  }
}

TEST(ParallelPlacement, DefaultThreadsMatchesExplicitOne) {
  Scenario s;
  s.cfg = baseConfig(9);
  Instance inst(s.cfg);
  PlaceOptions seq;
  seq.threads = 1;
  PlaceOutcome ref = place(inst.problem(), seq);
  PlaceOptions def;  // threads = 0 -> hardware concurrency
  PlaceOutcome got = place(inst.problem(), def);
  expectIdentical(s, ref, got, 0);
}

TEST(ParallelPlacement, ComponentStatsCoverTheWholeInstance) {
  InstanceConfig cfg = baseConfig(10);
  cfg.capacity = 10000;  // fully decoupled: one component per policy
  Instance inst(cfg);
  PlaceOptions opts;
  opts.threads = 4;
  PlaceOutcome out = place(inst.problem(), opts);
  ASSERT_TRUE(out.hasSolution());
  ASSERT_EQ(out.componentStats.size(),
            static_cast<std::size_t>(cfg.ingressCount));
  int policies = 0;
  std::int64_t objective = 0;
  for (const auto& c : out.componentStats) {
    EXPECT_EQ(c.status, out.status);
    policies += c.policyCount;
    objective += c.objective;
  }
  EXPECT_EQ(policies, cfg.ingressCount);
  EXPECT_EQ(objective, out.objective);
}

TEST(ParallelPlacement, CertifiedFastPathIsIdenticalForEveryThreadCount) {
  // Roomy capacities everywhere but one ingress switch, which can hold
  // only two entries: the components not touching it take the certified
  // fast path, the one that does is solved.
  Scenario s;
  s.name = "fast-path";
  s.cfg = baseConfig(13);
  s.cfg.capacity = 10000;
  Instance inst(s.cfg);
  PlacementProblem problem = inst.problem();
  problem.capacityOverride.assign(
      static_cast<std::size_t>(problem.graph->switchCount()), 10000);
  problem.capacityOverride[static_cast<std::size_t>(
      problem.graph->entryPort(problem.routing[0].ingress).attachedSwitch)] =
      2;

  PlaceOptions seq;
  seq.threads = 1;
  const PlaceOutcome ref = place(problem, seq);
  ASSERT_EQ(ref.status, solver::OptStatus::kOptimal);
  ASSERT_GT(ref.componentStats.size(), 2u);
  EXPECT_GT(ref.fastPathComponents, 0);
  EXPECT_LT(ref.fastPathComponents,
            static_cast<int>(ref.componentStats.size()));
  auto v = verifyPlacement(ref.solvedProblem, ref.placement);
  EXPECT_TRUE(v.ok) << v.summary();
  for (int threads : {2, 4}) {
    PlaceOptions par;
    par.threads = threads;
    const PlaceOutcome got = place(problem, par);
    expectIdentical(s, ref, got, threads);
    EXPECT_EQ(got.fastPathComponents, ref.fastPathComponents);
    ASSERT_EQ(got.componentStats.size(), ref.componentStats.size());
    for (std::size_t c = 0; c < ref.componentStats.size(); ++c) {
      EXPECT_EQ(got.componentStats[c].path, ref.componentStats[c].path)
          << "component " << c << " @ threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace ruleplace::core
