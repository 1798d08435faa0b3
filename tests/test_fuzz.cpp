// Tests for the differential fuzzing subsystem: generator determinism,
// oracle mode matrix, clean runs, injected-bug detection (mutation testing
// for the oracle), the delta-debugging minimizer, and reproducer I/O.

#include <gtest/gtest.h>

#include <sstream>

#include "fuzz/generator.h"
#include "fuzz/minimizer.h"
#include "fuzz/mutator.h"
#include "fuzz/oracle.h"
#include "fuzz/orchestrator.h"
#include "fuzz/reproducer.h"
#include "io/scenario.h"

namespace ruleplace::fuzz {
namespace {

int totalRules(const FuzzCase& fc) {
  int n = 0;
  for (const auto& q : fc.policies) n += static_cast<int>(q.size());
  return n;
}

/// Small conflict budget keeps tests fast; cases are tiny anyway.
OracleOptions fastOracle() {
  OracleOptions opts;
  opts.conflictBudget = 200000;
  opts.jobsSweep = {1, 2};
  opts.bruteMaxVars = 14;
  return opts;
}

TEST(FuzzGenerator, DeterministicFromSeed) {
  for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
    FuzzCase a = generateCase(seed);
    FuzzCase b = generateCase(seed);
    EXPECT_EQ(io::formatScenario(a.problem()), io::formatScenario(b.problem()))
        << "seed " << seed;
  }
}

TEST(FuzzGenerator, CasesValidateAndRoundTrip) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    FuzzCase fc = generateCase(seed);
    ASSERT_NO_THROW(fc.problem().validate()) << "seed " << seed;
    const std::string text = io::formatScenario(fc.problem());
    FuzzCase back = caseFromScenarioText(text);
    EXPECT_EQ(io::formatScenario(back.problem()), text) << "seed " << seed;
  }
}

TEST(FuzzGenerator, SamplesEveryTopologyFamily) {
  bool seen[4] = {false, false, false, false};
  util::Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    seen[static_cast<int>(sampleParams(rng).topology)] = true;
  }
  EXPECT_TRUE(seen[0] && seen[1] && seen[2] && seen[3]);
}

TEST(FuzzOracle, ModeMatrixRespectsEncoderConstraints) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    FuzzCase fc = generateCase(seed);
    bool hasTraffic = false;
    for (const auto& ip : fc.routing) {
      for (const auto& p : ip.paths) hasTraffic |= p.traffic.has_value();
    }
    const auto modes = modeMatrix(fc);
    ASSERT_FALSE(modes.empty());
    // The reference plain-ILP mode leads the matrix.
    EXPECT_FALSE(modes.front().merge);
    EXPECT_FALSE(modes.front().satOnly);
    EXPECT_FALSE(modes.front().incremental());
    for (const auto& m : modes) {
      if (m.merge && !m.satOnly) {
        EXPECT_EQ(m.objective, core::ObjectiveKind::kTotalRules);
      }
      if (m.slice) EXPECT_TRUE(hasTraffic);
      if (m.incremental()) {
        EXPECT_LT(m.basePolicies, static_cast<int>(fc.policies.size()));
      }
    }
  }
}

TEST(FuzzOracle, ModeConfigStringRoundTrips) {
  const FuzzCase fc = generateCase(3);
  for (const ModeConfig& mode : modeMatrix(fc)) {
    auto back = ModeConfig::parse(mode.toString());
    ASSERT_TRUE(back.has_value()) << mode.toString();
    EXPECT_EQ(back->toString(), mode.toString());
  }
  EXPECT_FALSE(ModeConfig::parse("gibberish").has_value());
}

// The persistent-session differential (ViolationKind::kIncrementalSolver)
// must actually run on incremental modes and on clean cases find nothing:
// replay is deterministic, one-shot installs match scratch solves, and the
// chunked session never beats the unrestricted optimum.
TEST(FuzzOracle, IncrementalSessionDifferentialRunsClean) {
  const OracleOptions opts = fastOracle();
  std::int64_t sessionChecks = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    FuzzCase fc = generateCase(seed);
    for (const ModeConfig& mode : modeMatrix(fc)) {
      if (!mode.incremental()) continue;
      OracleReport report = checkCase(fc, mode, opts);
      EXPECT_TRUE(report.ok())
          << "seed " << seed << " mode " << mode.toString() << ":\n"
          << report.summary();
      sessionChecks += report.counters.incrementalSolverChecks;
    }
  }
  EXPECT_GT(sessionChecks, 0) << "no incremental mode exercised the "
                                 "persistent-session differential";
}

TEST(FuzzOracle, CleanCasesProduceNoViolations) {
  const OracleOptions opts = fastOracle();
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    FuzzCase fc = generateCase(seed);
    OracleReport report = checkAllModes(fc, {}, opts);
    EXPECT_TRUE(report.ok()) << "seed " << seed << ":\n" << report.summary();
  }
}

TEST(FuzzOrchestrator, ShortRunIsCleanAndDeterministicAcrossWorkers) {
  FuzzConfig config;
  config.seed = 11;
  config.iterations = 4;
  config.extraModesPerCase = 2;
  config.minimize = false;
  config.oracle = fastOracle();

  FuzzSummary one = runFuzz(config);
  EXPECT_TRUE(one.ok()) << one.toString();
  EXPECT_EQ(one.iterations, 4);

  config.workers = 2;
  FuzzSummary two = runFuzz(config);
  EXPECT_TRUE(two.ok()) << two.toString();
  // Per-iteration RNG streams make results independent of scheduling.
  EXPECT_EQ(one.casesChecked, two.casesChecked);
  EXPECT_EQ(one.modesChecked, two.modesChecked);
  EXPECT_EQ(one.counters.solves, two.counters.solves);
  EXPECT_EQ(one.counters.semanticChecks, two.counters.semanticChecks);
  EXPECT_EQ(one.counters.bruteChecks, two.counters.bruteChecks);
}

TEST(FuzzMutator, MutatedCasesStayValid) {
  util::Rng rng(5);
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    FuzzCase fc = generateCase(seed);
    FuzzCase mutated = mutateCase(fc, rng);
    EXPECT_NO_THROW(mutated.problem().validate()) << "seed " << seed;
    // Copy-on-write: the original's shared graph must be untouched.
    EXPECT_NO_THROW(fc.problem().validate()) << "seed " << seed;
  }
}

// The acceptance-criterion test: a deliberately injected placer bug must be
// caught by the oracle and the triggering case minimized to <= 5 rules.
TEST(FuzzInjection, DroppedRuleIsCaughtAndMinimizedToFewRules) {
  OracleOptions opts = fastOracle();
  bool caught = false;
  for (std::uint64_t seed = 0; seed < 40 && !caught; ++seed) {
    FuzzCase fc = generateCase(seed);
    for (const ModeConfig& mode : modeMatrix(fc)) {
      OracleOptions bugged = opts;
      bugged.hooks.afterPlace = [](core::PlaceOutcome& outcome,
                                   const ModeConfig&, int) {
        injectBug(outcome, BugKind::kDropInstalledRule);
      };
      if (checkCase(fc, mode, bugged).ok()) continue;
      caught = true;

      MinimizeStats stats;
      FuzzCase tiny = minimizeCase(
          fc,
          [&](const FuzzCase& c) { return !checkCase(c, mode, bugged).ok(); },
          &stats, 500);
      EXPECT_LE(totalRules(tiny), 5) << stats.toString();
      EXPECT_FALSE(checkCase(tiny, mode, bugged).ok());
      // The fix (no injection) must make the minimized case pass again.
      EXPECT_TRUE(checkCase(tiny, mode, opts).ok());
      break;
    }
  }
  EXPECT_TRUE(caught) << "no seed triggered the injected bug";
}

TEST(FuzzInjection, FlippedActionIsCaught) {
  OracleOptions opts = fastOracle();
  bool caught = false;
  for (std::uint64_t seed = 0; seed < 40 && !caught; ++seed) {
    FuzzCase fc = generateCase(seed);
    for (const ModeConfig& mode : modeMatrix(fc)) {
      OracleOptions bugged = opts;
      bugged.hooks.afterPlace = [](core::PlaceOutcome& outcome,
                                   const ModeConfig&, int) {
        injectBug(outcome, BugKind::kFlipAction);
      };
      if (!checkCase(fc, mode, bugged).ok()) {
        caught = true;
        break;
      }
    }
  }
  EXPECT_TRUE(caught);
}

TEST(FuzzMinimizer, ShrinksToTargetRule) {
  // Find a case with a healthy rule count to shrink.
  FuzzCase fc;
  std::uint64_t seed = 0;
  for (;; ++seed) {
    fc = generateCase(seed);
    if (totalRules(fc) >= 6 && fc.policies.size() >= 2) break;
  }
  const int targetId = fc.policies[0].rules().front().id;
  auto keepsTarget = [&](const FuzzCase& c) {
    return !c.policies.empty() &&
           c.policies[0].findRule(targetId) != nullptr;
  };
  ASSERT_TRUE(keepsTarget(fc));
  MinimizeStats stats;
  FuzzCase tiny = minimizeCase(fc, keepsTarget, &stats, 2000);
  EXPECT_TRUE(keepsTarget(tiny));
  EXPECT_EQ(totalRules(tiny), 1) << stats.toString();
  EXPECT_EQ(tiny.policies.size(), 1u);
  EXPECT_LE(tiny.graph->switchCount(), fc.graph->switchCount());
  EXPECT_NO_THROW(tiny.problem().validate());
}

TEST(FuzzMinimizer, DropUnusedSwitchesPreservesSemantics) {
  FuzzCase fc = generateCase(17);
  // Orphan a switch by removing one policy's routing (and the policy).
  if (fc.policies.size() >= 2) {
    fc.policies.pop_back();
    fc.routing.pop_back();
  }
  FuzzCase compact = dropUnusedSwitches(fc);
  EXPECT_NO_THROW(compact.problem().validate());
  EXPECT_LE(compact.graph->switchCount(), fc.graph->switchCount());
  EXPECT_EQ(compact.routing.size(), fc.routing.size());
  for (std::size_t i = 0; i < fc.routing.size(); ++i) {
    ASSERT_EQ(compact.routing[i].paths.size(), fc.routing[i].paths.size());
    for (std::size_t j = 0; j < fc.routing[i].paths.size(); ++j) {
      EXPECT_EQ(compact.routing[i].paths[j].switches.size(),
                fc.routing[i].paths[j].switches.size());
    }
  }
}

TEST(FuzzReproducer, HeaderRoundTrips) {
  FuzzCase fc = generateCase(23);
  ModeConfig mode;
  mode.merge = true;
  mode.basePolicies = 0;
  const std::string text =
      formatReproducer(fc, mode, 777, "determinism: jobs=1 vs jobs=2\nline2");
  Reproducer repro = parseReproducer(text);
  EXPECT_EQ(repro.seed, 777u);
  EXPECT_EQ(repro.mode.toString(), mode.toString());
  EXPECT_EQ(repro.note, "determinism: jobs=1 vs jobs=2\nline2");
  EXPECT_EQ(io::formatScenario(repro.fuzzCase.problem()),
            io::formatScenario(fc.problem()));
}

TEST(FuzzReproducer, PlainScenarioLoadsWithDefaults) {
  FuzzCase fc = generateCase(29);
  Reproducer repro = parseReproducer(io::formatScenario(fc.problem()));
  EXPECT_EQ(repro.seed, 0u);
  EXPECT_EQ(repro.mode.toString(), ModeConfig{}.toString());
  EXPECT_TRUE(repro.note.empty());
}

TEST(FuzzOracle, PlacementsEqualReportsFirstDifference) {
  FuzzCase fc = generateCase(2);
  const ModeConfig mode;
  OracleOptions opts = fastOracle();
  core::PlaceOutcome outcome =
      core::place(fc.problem(), [&] {
        core::PlaceOptions po;
        po.budget = solver::Budget::conflicts(opts.conflictBudget);
        return po;
      }());
  ASSERT_EQ(outcome.status, solver::OptStatus::kOptimal);
  std::string why;
  EXPECT_TRUE(placementsEqual(outcome.placement, outcome.placement, &why));
  core::PlaceOutcome corrupted = outcome;
  if (injectBug(corrupted, BugKind::kDropInstalledRule)) {
    EXPECT_FALSE(
        placementsEqual(outcome.placement, corrupted.placement, &why));
    EXPECT_FALSE(why.empty());
  }
  (void)mode;
}

}  // namespace
}  // namespace ruleplace::fuzz
