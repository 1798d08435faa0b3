// Oracle for the per-switch table order of buildPlacement and
// extractPlacement.  The reference below is the pairwise ordering both used
// before tables without merged entries were sorted: it compares every pair
// of a switch's entries, keeps a std::map of original priorities per entry
// and runs Kahn's algorithm, picking the ready entry of smallest
// (-priority of the first tag, first tag, rule id).  On fuzz-generator
// instances, with merging off and on, every table the library builds must
// equal the reference's, entry for entry.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <tuple>

#include "core/encoder.h"
#include "core/greedy.h"
#include "core/placement.h"
#include "depgraph/merging.h"
#include "fuzz/generator.h"
#include "solver/optimize.h"
#include "util/rng.h"

namespace ruleplace::core {
namespace {

struct RefEntry {
  InstalledRule rule;
  std::map<int, int> policyPriority;  // policyId -> original priority
};

std::vector<InstalledRule> referenceOrder(const std::vector<RefEntry>& entries) {
  const std::size_t n = entries.size();
  std::vector<std::vector<std::size_t>> succ(n);
  std::vector<int> indegree(n, 0);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      const auto& ra = entries[a].rule;
      const auto& rb = entries[b].rule;
      if (ra.action == rb.action) continue;
      if (!ra.matchField.overlaps(rb.matchField)) continue;
      int dir = 0;  // +1: a before b, -1: b before a
      for (int tag : ra.tags) {
        if (!rb.visibleTo(tag)) continue;
        const int d = entries[a].policyPriority.at(tag) >
                              entries[b].policyPriority.at(tag)
                          ? 1
                          : -1;
        if (dir != 0 && d != dir) {
          throw std::logic_error("reference: conflicting order constraints");
        }
        dir = d;
      }
      if (dir == 1) {
        succ[a].push_back(b);
        ++indegree[b];
      } else if (dir == -1) {
        succ[b].push_back(a);
        ++indegree[a];
      }
    }
  }
  auto keyOf = [&](std::size_t i) {
    const auto& e = entries[i];
    const int firstTag = e.rule.tags.empty() ? -1 : e.rule.tags.front();
    const int prio =
        e.policyPriority.empty() ? 0 : e.policyPriority.begin()->second;
    return std::make_tuple(-prio, firstTag, e.rule.representativeRule);
  };
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready.push_back(i);
  }
  std::vector<InstalledRule> out;
  while (!ready.empty()) {
    auto best = std::min_element(
        ready.begin(), ready.end(),
        [&](std::size_t x, std::size_t y) { return keyOf(x) < keyOf(y); });
    const std::size_t i = *best;
    ready.erase(best);
    out.push_back(entries[i].rule);
    for (std::size_t s : succ[i]) {
      if (--indegree[s] == 0) ready.push_back(s);
    }
  }
  if (out.size() != n) throw std::logic_error("reference: cyclic order");
  int prio = static_cast<int>(n);
  for (auto& r : out) r.priority = prio--;
  return out;
}

RefEntry singleTagRef(const PlacementProblem& problem, int policyId,
                      int ruleId) {
  const acl::Rule* r =
      problem.policies.at(static_cast<std::size_t>(policyId)).findRule(ruleId);
  RefEntry e;
  e.rule.matchField = r->matchField;
  e.rule.action = r->action;
  e.rule.tags = {policyId};
  e.rule.representativeRule = ruleId;
  e.policyPriority[policyId] = r->priority;
  return e;
}

Placement referenceBuild(const PlacementProblem& problem,
                         const std::vector<PlacedRule>& placed) {
  std::vector<std::vector<RefEntry>> pending(
      static_cast<std::size_t>(problem.graph->switchCount()));
  for (const auto& pr : placed) {
    pending[static_cast<std::size_t>(pr.switchId)].push_back(
        singleTagRef(problem, pr.policyId, pr.ruleId));
  }
  Placement out(problem.graph->switchCount());
  for (int sw = 0; sw < problem.graph->switchCount(); ++sw) {
    out.mutableTable(sw) = referenceOrder(pending[static_cast<std::size_t>(sw)]);
  }
  return out;
}

Placement referenceExtract(const PlacementProblem& problem,
                           const Encoder& encoder,
                           const std::vector<bool>& assignment,
                           const depgraph::MergeAnalysis* mergeInfo) {
  const auto switches = static_cast<std::size_t>(problem.graph->switchCount());
  std::vector<std::vector<std::pair<int, int>>> absorbed(switches);
  std::vector<std::vector<RefEntry>> pending(switches);
  if (mergeInfo != nullptr) {
    for (const auto& [groupId, sw] : encoder.mergeKeys()) {
      const solver::ModelVar mv = encoder.mergeVar(groupId, sw);
      if (mv < 0 || !assignment.at(static_cast<std::size_t>(mv))) continue;
      const depgraph::MergeGroup& group =
          mergeInfo->groups.at(static_cast<std::size_t>(groupId));
      RefEntry e;
      e.rule.matchField = group.matchField;
      e.rule.action = group.action;
      e.rule.merged = true;
      for (const auto& m : group.members) {
        if (encoder.placementVar(m.policyId, m.ruleId, sw) < 0) continue;
        e.rule.tags.push_back(m.policyId);
        e.policyPriority[m.policyId] =
            problem.policies[static_cast<std::size_t>(m.policyId)]
                .findRule(m.ruleId)
                ->priority;
        if (e.rule.representativeRule < 0) {
          e.rule.representativeRule = m.ruleId;
        }
        absorbed[static_cast<std::size_t>(sw)].push_back(
            {m.policyId, m.ruleId});
      }
      std::sort(e.rule.tags.begin(), e.rule.tags.end());
      pending[static_cast<std::size_t>(sw)].push_back(std::move(e));
    }
  }
  for (const auto& key : encoder.placementKeys()) {
    const solver::ModelVar v =
        encoder.placementVar(key.policyId, key.ruleId, key.switchId);
    if (!assignment.at(static_cast<std::size_t>(v))) continue;
    const auto& abs = absorbed[static_cast<std::size_t>(key.switchId)];
    if (std::find(abs.begin(), abs.end(),
                  std::make_pair(key.policyId, key.ruleId)) != abs.end()) {
      continue;
    }
    pending[static_cast<std::size_t>(key.switchId)].push_back(
        singleTagRef(problem, key.policyId, key.ruleId));
  }
  Placement out(problem.graph->switchCount());
  for (std::size_t sw = 0; sw < switches; ++sw) {
    out.mutableTable(static_cast<topo::SwitchId>(sw)) =
        referenceOrder(pending[sw]);
  }
  return out;
}

bool holdsMergedEntry(const std::vector<InstalledRule>& table) {
  return std::any_of(table.begin(), table.end(),
                     [](const InstalledRule& r) { return r.merged; });
}

// Counts what the comparisons covered, so the test cannot pass vacuously.
struct Coverage {
  int tables = 0;
  int multiEntryTables = 0;
  int mergedTables = 0;
};

void expectSameTables(const Placement& got, const Placement& want,
                      Coverage& cov) {
  ASSERT_EQ(got.switchCount(), want.switchCount());
  for (int sw = 0; sw < got.switchCount(); ++sw) {
    EXPECT_EQ(got.table(sw), want.table(sw)) << "switch " << sw;
    ++cov.tables;
    if (want.table(sw).size() > 1) ++cov.multiEntryTables;
    if (holdsMergedEntry(want.table(sw))) ++cov.mergedTables;
  }
}

fuzz::FuzzCase caseFor(std::uint64_t seed, bool forceSharedRules) {
  util::Rng rng(seed);
  fuzz::GenParams params = fuzz::sampleParams(rng);
  if (forceSharedRules) {
    // Identical rules in every policy, so merging has groups to pick.
    params.policyCount = std::max(params.policyCount, 2);
    params.sharedBlacklist = std::max(params.sharedBlacklist, 3);
  }
  return fuzz::generateCase(params, rng);
}

TEST(TableOrder, BuildPlacementMatchesThePairwiseReference) {
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const fuzz::FuzzCase fc = caseFor(seed, seed % 2 == 0);
    const PlacementProblem problem = fc.problem();
    for (bool sliced : {false, true}) {
      const GreedyWalk walk = greedyWalk(problem, sliced);
      if (!walk.feasible) continue;
      expectSameTables(buildPlacement(problem, walk.placed),
                       referenceBuild(problem, walk.placed), cov);
    }
  }
  EXPECT_GT(cov.multiEntryTables, 100);
}

TEST(TableOrder, ExtractPlacementMatchesThePairwiseReference) {
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    for (bool merge : {false, true}) {
      SCOPED_TRACE(merge ? "merging on" : "merging off");
      const fuzz::FuzzCase fc = caseFor(seed, merge);
      PlacementProblem problem = fc.problem();
      depgraph::MergeAnalysis mergeInfo;
      if (merge) mergeInfo = depgraph::analyzeMergeable(problem.policies);
      EncoderOptions opts;
      opts.enableMerging = merge;
      const Encoder enc(problem, opts, merge ? &mergeInfo : nullptr);
      const solver::OptResult r =
          solver::Optimizer::solve(enc.model(), solver::Budget::conflicts(2000));
      if (!r.hasSolution()) continue;
      const depgraph::MergeAnalysis* info = merge ? &mergeInfo : nullptr;
      expectSameTables(extractPlacement(problem, enc, r.assignment, info),
                       referenceExtract(problem, enc, r.assignment, info), cov);
    }
  }
  EXPECT_GT(cov.multiEntryTables, 100);
  EXPECT_GT(cov.mergedTables, 10);
}

TEST(TableOrder, BuildPlacementRejectsUnknownIds) {
  const fuzz::FuzzCase fc = caseFor(3, false);
  const PlacementProblem problem = fc.problem();
  const int pastTheEnd = static_cast<int>(problem.policies[0].size()) + 1000;
  for (int ruleId : {-1, pastTheEnd}) {
    EXPECT_THROW(buildPlacement(problem, {{0, ruleId, 0}}),
                 std::invalid_argument)
        << "rule id " << ruleId;
  }
  // A removed rule's id is unknown too.
  PlacementProblem removed = fc.problem();
  const int victim = removed.policies[0].rules().front().id;
  ASSERT_TRUE(removed.policies[0].removeRule(victim));
  EXPECT_THROW(buildPlacement(removed, {{0, victim, 0}}),
               std::invalid_argument);
  EXPECT_NO_THROW(buildPlacement(problem, {{0, victim, 0}}));
  for (topo::SwitchId sw : {-1, problem.graph->switchCount()}) {
    EXPECT_THROW(buildPlacement(problem, {{0, victim, sw}}),
                 std::invalid_argument)
        << "switch " << sw;
  }
}

}  // namespace
}  // namespace ruleplace::core
