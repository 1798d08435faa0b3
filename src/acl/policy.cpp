#include "acl/policy.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace ruleplace::acl {

std::string Rule::toString() const {
  std::ostringstream os;
  os << "[t=" << priority << "] " << matchField.toString() << " -> "
     << acl::toString(action);
  if (dummy) os << " (dummy)";
  return os.str();
}

int Policy::addRule(const match::Ternary& matchField, Action action) {
  int prio = rules_.empty() ? 0 : rules_.back().priority - 1;
  return addRuleWithPriority(matchField, action, prio);
}

int Policy::addRuleWithPriority(const match::Ternary& matchField,
                                Action action, int priority, bool dummy) {
  if (!rules_.empty() && matchField.width() != rules_.front().matchField.width()) {
    throw std::invalid_argument("Policy rules must share one header width");
  }
  auto pos = std::lower_bound(
      rules_.begin(), rules_.end(), priority,
      [](const Rule& r, int p) { return r.priority > p; });
  if (pos != rules_.end() && pos->priority == priority) {
    throw std::invalid_argument("Policy priorities must be strictly unique");
  }
  Rule r;
  r.matchField = matchField;
  r.action = action;
  r.priority = priority;
  r.id = nextId_++;
  r.dummy = dummy;
  const auto at = static_cast<std::size_t>(pos - rules_.begin());
  const bool keepsIdentity = position_.empty() && at == rules_.size();
  rules_.insert(pos, r);
  if (!keepsIdentity) reindexFrom(at);
  return r.id;
}

bool Policy::removeRule(int ruleId) {
  const int at = positionOf(ruleId);
  if (at < 0) return false;
  rules_.erase(rules_.begin() + at);
  reindexFrom(static_cast<std::size_t>(at));
  position_[static_cast<std::size_t>(ruleId)] = -1;
  return true;
}

void Policy::reindexFrom(std::size_t from) {
  if (position_.empty()) {
    // Rules before `from` have not moved, so each still sits at its id.
    position_.assign(static_cast<std::size_t>(nextId_), -1);
    for (std::size_t i = 0; i < from; ++i) position_[i] = static_cast<int>(i);
  } else {
    position_.resize(static_cast<std::size_t>(nextId_), -1);
  }
  for (std::size_t i = from; i < rules_.size(); ++i) {
    position_[static_cast<std::size_t>(rules_[i].id)] = static_cast<int>(i);
  }
}

const Rule* Policy::findRule(int ruleId) const noexcept {
  const int at = positionOf(ruleId);
  return at < 0 ? nullptr : &rules_[static_cast<std::size_t>(at)];
}

Action Policy::evaluate(const match::Ternary& header) const noexcept {
  const Rule* r = firstMatch(header);
  return r ? r->action : Action::kPermit;
}

const Rule* Policy::firstMatch(const match::Ternary& header) const noexcept {
  for (const auto& r : rules_) {
    if (r.matchField.matches(header)) return &r;
  }
  return nullptr;
}

match::CubeSet Policy::effectiveMatch(int ruleId) const {
  const Rule* target = findRule(ruleId);
  if (target == nullptr) {
    throw std::invalid_argument("Policy::effectiveMatch: unknown rule id");
  }
  std::vector<match::Ternary> remainder{target->matchField};
  for (const auto& r : rules_) {
    if (r.priority <= target->priority) break;  // sorted by priority desc
    remainder = match::subtractAll(remainder, r.matchField);
    if (remainder.empty()) break;
  }
  match::CubeSet out(width());
  for (const auto& c : remainder) out.add(c);
  return out;
}

match::CubeSet Policy::dropSet() const {
  match::CubeSet out(width());
  std::vector<match::Ternary> permitShadow;  // higher-priority permit fields
  for (const auto& r : rules_) {
    if (r.action == Action::kDrop) {
      std::vector<match::Ternary> eff{r.matchField};
      for (const auto& p : permitShadow) {
        eff = match::subtractAll(eff, p);
        if (eff.empty()) break;
      }
      for (const auto& c : eff) out.add(c);
    } else {
      permitShadow.push_back(r.matchField);
    }
  }
  return out;
}

match::CubeSet Policy::dropSetWithin(const match::Ternary& traffic) const {
  match::CubeSet drops = dropSet();
  return drops.intersect(match::CubeSet(traffic));
}

bool Policy::semanticallyEquals(const Policy& other) const {
  return dropSet().equals(other.dropSet());
}

int Policy::width() const noexcept {
  return rules_.empty() ? match::kMaxWidth : rules_.front().matchField.width();
}

std::string Policy::toString() const {
  std::ostringstream os;
  for (const auto& r : rules_) os << r.toString() << '\n';
  return os.str();
}

}  // namespace ruleplace::acl
