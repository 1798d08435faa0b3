#include "core/greedy.h"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <unordered_set>

#include "depgraph/cache.h"

namespace ruleplace::core {

namespace {

// Placement-set key (path-wise placement).  A full struct with exact
// equality — never a packed word: rule ids grow without bound under
// add/remove churn, and the old bit-packed key (21 bits per field)
// silently collided for ids >= 2^21, making the greedy skip rules it had
// never placed.
struct PlacedKey {
  int policy;
  int rule;
  topo::SwitchId sw;
  bool operator==(const PlacedKey&) const = default;
};

struct PlacedKeyHash {
  std::size_t operator()(const PlacedKey& k) const noexcept {
    std::uint64_t h = static_cast<std::uint32_t>(k.policy);
    h = h * 0x9e3779b97f4a7c15ull + static_cast<std::uint32_t>(k.rule);
    h = h * 0x9e3779b97f4a7c15ull + static_cast<std::uint32_t>(k.sw);
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

using PlacedSet = std::unordered_set<PlacedKey, PlacedKeyHash>;

// Dense (rule, switch) membership bitmap for one policy.  The shared
// greedy only ever queries the policy it is currently placing, so the set
// collapses to rule-position × switch bits — one word probe per lookup
// instead of a hash + node chase on the hottest path (the per-switch
// shield pre-count).  Keyed by the rule's *position* in the policy, not
// its id, so id churn cannot grow or collide the table.
class PlacedBitmap {
 public:
  PlacedBitmap(const acl::Policy& policy, std::size_t switchCount)
      : switchCount_(switchCount) {
    int maxId = -1;
    for (const auto& r : policy.rules()) maxId = std::max(maxId, r.id);
    idToPos_.assign(static_cast<std::size_t>(maxId + 1), 0);
    std::uint32_t next = 0;
    for (const auto& r : policy.rules()) {
      idToPos_[static_cast<std::size_t>(r.id)] = next++;
    }
    bits_.assign((policy.size() * switchCount_ + 63) / 64, 0);
  }

  bool test(int ruleId, topo::SwitchId sw) const noexcept {
    const std::size_t bit = bitIndex(ruleId, sw);
    return (bits_[bit >> 6] >> (bit & 63)) & 1u;
  }

  /// Sets the bit; returns true if it was previously clear.
  bool set(int ruleId, topo::SwitchId sw) noexcept {
    const std::size_t bit = bitIndex(ruleId, sw);
    const std::uint64_t mask = std::uint64_t{1} << (bit & 63);
    const bool fresh = (bits_[bit >> 6] & mask) == 0;
    bits_[bit >> 6] |= mask;
    return fresh;
  }

 private:
  std::size_t bitIndex(int ruleId, topo::SwitchId sw) const noexcept {
    return idToPos_[static_cast<std::size_t>(ruleId)] * switchCount_ +
           static_cast<std::size_t>(sw);
  }

  std::size_t switchCount_;
  std::vector<std::uint32_t> idToPos_;  // rule id -> position in policy
  std::vector<std::uint64_t> bits_;
};

}  // namespace

GreedyWalk greedyWalk(const PlacementProblem& problem, bool usePathSlicing,
                      const util::Deadline& deadline) {
  problem.validate();
  GreedyWalk outcome;
  std::vector<int> remaining(
      static_cast<std::size_t>(problem.graph->switchCount()));
  for (topo::SwitchId sw = 0; sw < problem.graph->switchCount(); ++sw) {
    remaining[static_cast<std::size_t>(sw)] = problem.capacityOf(sw);
  }
  std::vector<PlacedRule>& placedList = outcome.placed;

  for (int i = 0; i < problem.policyCount(); ++i) {
    if (deadline.expired()) {
      outcome.deadlineExpired = true;
      outcome.failureReason = "greedy: deadline expired";
      return outcome;
    }
    const acl::Policy& policy = problem.policies[static_cast<std::size_t>(i)];
    auto dg = depgraph::acquireGraph(policy);
    // Policies place independently (keys always carried the policy id), so
    // the membership set resets per policy; only `remaining` is shared.
    PlacedBitmap placed(
        policy, static_cast<std::size_t>(problem.graph->switchCount()));
    auto isPlaced = [&](int, int r, topo::SwitchId sw) {
      return placed.test(r, sw);
    };
    auto doPlace = [&](int p, int r, topo::SwitchId sw) {
      if (placed.set(r, sw)) {
        --remaining[static_cast<std::size_t>(sw)];
        placedList.push_back({p, r, sw});
      }
    };
    for (const auto& path : problem.routing[static_cast<std::size_t>(i)].paths) {
      const bool sliced = usePathSlicing && path.traffic.has_value();
      const std::vector<int> slicedIds =
          sliced ? dg->slicedDrops(*path.traffic) : std::vector<int>{};
      for (int dropId : sliced ? slicedIds : dg->dropRules()) {
        const acl::Rule* rule = policy.findRule(dropId);
        if (rule->dummy) continue;
        // Already covered on this path?
        bool covered = false;
        for (topo::SwitchId sw : path.switches) {
          if (isPlaced(i, dropId, sw)) {
            covered = true;
            break;
          }
        }
        if (covered) continue;
        // First switch along the path with room for the drop rule plus its
        // not-yet-present shields.
        bool done = false;
        for (topo::SwitchId sw : path.switches) {
          int needed = 1;
          for (int permitId : dg->shieldsOf(dropId)) {
            if (!isPlaced(i, permitId, sw)) ++needed;
          }
          if (remaining[static_cast<std::size_t>(sw)] < needed) continue;
          doPlace(i, dropId, sw);
          for (int permitId : dg->shieldsOf(dropId)) {
            doPlace(i, permitId, sw);
          }
          done = true;
          break;
        }
        if (!done) {
          std::ostringstream os;
          os << "no switch on policy " << i << "'s path via egress "
             << path.egress << " can hold rule " << dropId
             << " with its shields";
          outcome.failureReason = os.str();
          return outcome;
        }
      }
    }
  }
  outcome.feasible = true;
  return outcome;
}

GreedyOutcome greedyPlace(const PlacementProblem& problem,
                          bool usePathSlicing,
                          const util::Deadline& deadline) {
  GreedyWalk walk = greedyWalk(problem, usePathSlicing, deadline);
  GreedyOutcome outcome;
  outcome.feasible = walk.feasible;
  outcome.failureReason = std::move(walk.failureReason);
  outcome.deadlineExpired = walk.deadlineExpired;
  if (walk.feasible) {
    outcome.placement = buildPlacement(problem, walk.placed);
    outcome.totalRules = static_cast<std::int64_t>(walk.placed.size());
  }
  return outcome;
}

GreedyOutcome pathwisePlace(const PlacementProblem& problem,
                            bool usePathSlicing,
                            const util::Deadline& deadline) {
  problem.validate();
  GreedyOutcome outcome;
  std::vector<int> remaining(
      static_cast<std::size_t>(problem.graph->switchCount()));
  for (topo::SwitchId sw = 0; sw < problem.graph->switchCount(); ++sw) {
    remaining[static_cast<std::size_t>(sw)] = problem.capacityOf(sw);
  }
  std::vector<PlacedRule> placedList;

  for (int i = 0; i < problem.policyCount(); ++i) {
    if (deadline.expired()) {
      outcome.deadlineExpired = true;
      outcome.failureReason = "path-wise: deadline expired";
      return outcome;
    }
    const acl::Policy& policy = problem.policies[static_cast<std::size_t>(i)];
    auto dg = depgraph::acquireGraph(policy);
    for (const auto& path :
         problem.routing[static_cast<std::size_t>(i)].paths) {
      // Each path is an independent unit: entries placed for other paths
      // are invisible (duplicated even on shared switches).
      PlacedSet pathLocal;
      auto placedHere = [&](int ruleId, topo::SwitchId sw) {
        return pathLocal.count({i, ruleId, sw}) != 0;
      };
      auto placeHere = [&](int ruleId, topo::SwitchId sw) {
        if (pathLocal.insert({i, ruleId, sw}).second) {
          --remaining[static_cast<std::size_t>(sw)];
          placedList.push_back({i, ruleId, sw});
        }
      };
      const bool sliced = usePathSlicing && path.traffic.has_value();
      const std::vector<int> slicedIds =
          sliced ? dg->slicedDrops(*path.traffic) : std::vector<int>{};
      for (int dropId : sliced ? slicedIds : dg->dropRules()) {
        const acl::Rule* rule = policy.findRule(dropId);
        if (rule->dummy) continue;
        bool done = false;
        for (topo::SwitchId sw : path.switches) {
          int needed = 1;
          for (int permitId : dg->shieldsOf(dropId)) {
            if (!placedHere(permitId, sw)) ++needed;
          }
          if (remaining[static_cast<std::size_t>(sw)] < needed) continue;
          placeHere(dropId, sw);
          for (int permitId : dg->shieldsOf(dropId)) placeHere(permitId, sw);
          done = true;
          break;
        }
        if (!done) {
          std::ostringstream os;
          os << "path-wise: no room on policy " << i << "'s path to egress "
             << path.egress << " for rule " << dropId;
          outcome.failureReason = os.str();
          return outcome;
        }
      }
    }
  }
  outcome.feasible = true;
  outcome.placement = buildPlacement(problem, placedList);
  // Count duplicates explicitly: path-wise placement does not share
  // entries, so its cost is the number of placements, not unique entries.
  outcome.totalRules = static_cast<std::int64_t>(placedList.size());
  return outcome;
}

std::int64_t replicateAllCount(const PlacementProblem& problem) {
  std::int64_t total = 0;
  for (int i = 0; i < problem.policyCount(); ++i) {
    total += static_cast<std::int64_t>(
                 problem.policies[static_cast<std::size_t>(i)].size()) *
             static_cast<std::int64_t>(
                 problem.routing[static_cast<std::size_t>(i)].paths.size());
  }
  return total;
}

}  // namespace ruleplace::core
