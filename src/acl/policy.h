#pragma once
// Prioritized ACL policy: the per-ingress rule list Q_i.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "acl/rule.h"
#include "match/cubeset.h"

namespace ruleplace::acl {

/// A prioritized firewall policy attached to one ingress port.
///
/// Invariants: priorities are strictly unique; rules are stored sorted by
/// decreasing priority (match order); rule ids are unique and stable.
/// Unmatched packets are PERMITted (default-permit firewall; the paper's
/// formulation places only DROP rules, so the complement is permitted).
///
/// findRule() and positionOf() are O(1).  While every rule sits at the
/// position equal to its id (appended in id order, none removed, as most
/// policies are built) the id is the position and no index is stored, so
/// copying such a policy allocates nothing extra.  The first mid-list
/// insert or remove builds an id -> position index, one int per id ever
/// issued; the mutators keep it current eagerly (O(1) on append, O(tail)
/// on an insert or a remove, the cost of the vector shift itself), so a
/// const policy is safe to read from several threads at once.
class Policy {
 public:
  Policy() = default;

  /// Append a rule; priority defaults to "below everything so far".
  /// Returns the assigned rule id.
  int addRule(const match::Ternary& matchField, Action action);

  /// Insert a rule with an explicit priority.  Throws if the priority is
  /// already taken (priorities are strictly unique, §III).
  int addRuleWithPriority(const match::Ternary& matchField, Action action,
                          int priority, bool dummy = false);

  /// Remove a rule by id.  Returns false if no such rule.
  bool removeRule(int ruleId);

  std::size_t size() const noexcept { return rules_.size(); }
  bool empty() const noexcept { return rules_.empty(); }

  /// Rules in match order (decreasing priority).
  const std::vector<Rule>& rules() const noexcept { return rules_; }

  /// The rule with this id, or nullptr (unknown, negative or removed id).
  const Rule* findRule(int ruleId) const noexcept;

  /// Position of rule `ruleId` in rules(), or -1 when there is none.
  int positionOf(int ruleId) const noexcept {
    if (ruleId < 0) return -1;
    const auto id = static_cast<std::size_t>(ruleId);
    if (position_.empty()) return id < rules_.size() ? ruleId : -1;
    return id < position_.size() ? position_[id] : -1;
  }

  /// First-match evaluation of a concrete header.  Default: PERMIT.
  Action evaluate(const match::Ternary& header) const noexcept;

  /// The rule a header matches first, if any.
  const Rule* firstMatch(const match::Ternary& header) const noexcept;

  /// The *effective* match set of rule `ruleId`: its match field minus all
  /// higher-priority rules' fields — i.e. the headers this rule actually
  /// decides.  The building block for redundancy removal and verification.
  match::CubeSet effectiveMatch(int ruleId) const;

  /// The exact set of headers this policy DROPs.
  match::CubeSet dropSet() const;

  /// The exact set of headers this policy DROPs among `traffic`
  /// (for path-sliced checking, §IV-C).
  match::CubeSet dropSetWithin(const match::Ternary& traffic) const;

  /// Do two policies drop exactly the same headers?
  bool semanticallyEquals(const Policy& other) const;

  /// Header width shared by all rules (kMaxWidth when empty).
  int width() const noexcept;

  std::string toString() const;

 private:
  // Re-point position_ at rules_[from..] after a shift, first building it
  // if every rule still sat at the position equal to its id.
  void reindexFrom(std::size_t from);

  std::vector<Rule> rules_;  // sorted by decreasing priority
  // Rule id -> index in rules_, -1 once removed; empty while every rule
  // sits at the position equal to its id.
  std::vector<int> position_;
  int nextId_ = 0;
};

}  // namespace ruleplace::acl
