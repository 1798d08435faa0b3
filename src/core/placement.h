#pragma once
// The output of rule placement: one prioritized, tagged table per switch.
//
// Identifying the ingress policy a rule belongs to uses tags (§IV-A5): each
// packet is tagged with its ingress port on entry (e.g. in the VLAN field),
// and every installed rule matches on a tag set.  Rules from different
// policies therefore never interact; merged rules carry the union of their
// member policies' tags.  Within one switch the table order respects every
// visible policy's original priorities: a topological sort over
// order-sensitive pairs, which for tables without merged entries is a
// plain sort by (−original priority, tag, rule id).

#include <cstdint>
#include <string>
#include <vector>

#include "acl/rule.h"
#include "core/problem.h"
#include "depgraph/merging.h"

namespace ruleplace::core {

/// One TCAM entry installed on a switch.
struct InstalledRule {
  match::Ternary matchField;
  acl::Action action = acl::Action::kPermit;
  std::vector<int> tags;  ///< policy ids this entry applies to (sorted)
  int priority = 0;       ///< in-switch priority, higher matches first
  int representativeRule = -1;  ///< a member rule id, for diagnostics
  bool merged = false;

  bool visibleTo(int policyId) const noexcept {
    for (int t : tags) {
      if (t == policyId) return true;
    }
    return false;
  }

  /// Bit-identical entry equality (every field, diagnostics included) —
  /// the strict check behind the serve daemon's replay cross-validation.
  bool operator==(const InstalledRule& other) const noexcept {
    return matchField == other.matchField && action == other.action &&
           tags == other.tags && priority == other.priority &&
           representativeRule == other.representativeRule &&
           merged == other.merged;
  }
  bool operator!=(const InstalledRule& other) const noexcept {
    return !(*this == other);
  }
};

/// Per-switch installed tables.
class Placement {
 public:
  Placement() = default;
  explicit Placement(int switchCount)
      : tables_(static_cast<std::size_t>(switchCount)) {}

  int switchCount() const noexcept { return static_cast<int>(tables_.size()); }

  /// Entries in match order (descending priority).
  const std::vector<InstalledRule>& table(topo::SwitchId sw) const {
    return tables_.at(static_cast<std::size_t>(sw));
  }
  std::vector<InstalledRule>& mutableTable(topo::SwitchId sw) {
    return tables_.at(static_cast<std::size_t>(sw));
  }

  /// TCAM entries consumed on a switch (merged entries count once — the
  /// point of merging).
  int usedCapacity(topo::SwitchId sw) const {
    return static_cast<int>(tables_.at(static_cast<std::size_t>(sw)).size());
  }

  /// Total installed entries over the network (the quantity `B` of
  /// Table II).
  std::int64_t totalInstalledRules() const noexcept;

  /// Entries visible to one policy's tag at a switch, in match order.
  std::vector<const InstalledRule*> visibleTo(topo::SwitchId sw,
                                              int policyId) const;

  /// Merge another placement into this one, rewriting the other's policy
  /// tags through `tagMap` (tagMap[otherTag] = tag in this placement).
  /// Sound because distinct tags never interact: the other's entries are
  /// appended below the existing ones and priorities renumbered.
  void appendMapped(const Placement& other, const std::vector<int>& tagMap);

  /// Remove every entry belonging solely to `policyId` and strip its tag
  /// from merged entries (dropping those that lose all tags).  Used by the
  /// incremental placer when a policy is rerouted or uninstalled (§IV-E).
  void erasePolicy(int policyId) { erasePolicies({policyId}); }
  /// erasePolicy() for every id in `sortedPolicyIds`, in one pass.
  void erasePolicies(const std::vector<int>& sortedPolicyIds);

  /// Rewrite every entry's tags through `tagMap` in place, dropping tags
  /// mapped to -1 and the entries left with none, and renumber priorities:
  /// what appendMapped() onto an empty placement gives, without the copy.
  void remapTags(const std::vector<int>& tagMap);

  std::string toString(const PlacementProblem& problem) const;

  /// Bit-identical placement equality: same switches, same tables, same
  /// entries in the same order.
  bool operator==(const Placement& other) const noexcept {
    return tables_ == other.tables_;
  }
  bool operator!=(const Placement& other) const noexcept {
    return !(*this == other);
  }

 private:
  std::vector<std::vector<InstalledRule>> tables_;
};

class Encoder;  // fwd

/// One placed rule: (policy, rule, switch).
struct PlacedRule {
  int policyId;
  int ruleId;
  topo::SwitchId switchId;
};

/// Build a placement directly from a list of placed rules (no merging) —
/// used by the greedy baseline and by tests constructing placements by
/// hand.  Orders each table as the solver-based extraction does.  Throws
/// std::invalid_argument for a rule id its policy does not hold or a
/// switch id the graph does not have.
Placement buildPlacement(const PlacementProblem& problem,
                         const std::vector<PlacedRule>& placed);

/// Build the placement from a feasible assignment of the encoder's model.
/// Performs the per-switch topological ordering; throws std::logic_error if
/// ordering constraints are cyclic (impossible after merge-cycle breaking —
/// treated as an internal invariant violation).
Placement extractPlacement(const PlacementProblem& problem,
                           const Encoder& encoder,
                           const std::vector<bool>& assignment,
                           const depgraph::MergeAnalysis* mergeInfo);

}  // namespace ruleplace::core
