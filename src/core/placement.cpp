#include "core/placement.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>

#include "core/encoder.h"

namespace ruleplace::core {

std::int64_t Placement::totalInstalledRules() const noexcept {
  std::int64_t n = 0;
  for (const auto& t : tables_) n += static_cast<std::int64_t>(t.size());
  return n;
}

std::vector<const InstalledRule*> Placement::visibleTo(topo::SwitchId sw,
                                                       int policyId) const {
  std::vector<const InstalledRule*> out;
  for (const auto& r : tables_.at(static_cast<std::size_t>(sw))) {
    if (r.visibleTo(policyId)) out.push_back(&r);
  }
  return out;
}

void Placement::appendMapped(const Placement& other,
                             const std::vector<int>& tagMap) {
  if (other.switchCount() != switchCount()) {
    throw std::invalid_argument("appendMapped: switch count mismatch");
  }
  for (int sw = 0; sw < switchCount(); ++sw) {
    auto& table = tables_[static_cast<std::size_t>(sw)];
    for (const auto& entry : other.tables_[static_cast<std::size_t>(sw)]) {
      InstalledRule r = entry;
      for (int& t : r.tags) t = tagMap.at(static_cast<std::size_t>(t));
      std::sort(r.tags.begin(), r.tags.end());
      table.push_back(std::move(r));
    }
    int prio = static_cast<int>(table.size());
    for (auto& r : table) r.priority = prio--;
  }
}

void Placement::erasePolicies(const std::vector<int>& sortedPolicyIds) {
  if (sortedPolicyIds.empty()) return;
  auto erased = [&](int tag) {
    return std::binary_search(sortedPolicyIds.begin(), sortedPolicyIds.end(),
                              tag);
  };
  for (auto& table : tables_) {
    for (auto& entry : table) {
      std::erase_if(entry.tags, erased);
    }
    std::erase_if(table,
                  [](const InstalledRule& r) { return r.tags.empty(); });
  }
}

void Placement::remapTags(const std::vector<int>& tagMap) {
  for (auto& table : tables_) {
    for (auto& entry : table) {
      for (int& t : entry.tags) t = tagMap.at(static_cast<std::size_t>(t));
      std::erase(entry.tags, -1);
      std::sort(entry.tags.begin(), entry.tags.end());
    }
    std::erase_if(table,
                  [](const InstalledRule& r) { return r.tags.empty(); });
    int prio = static_cast<int>(table.size());
    for (auto& r : table) r.priority = prio--;
  }
}

std::string Placement::toString(const PlacementProblem& problem) const {
  std::ostringstream os;
  for (int sw = 0; sw < switchCount(); ++sw) {
    const auto& table = tables_[static_cast<std::size_t>(sw)];
    if (table.empty()) continue;
    os << problem.graph->sw(sw).name << " (" << table.size() << "/"
       << problem.graph->sw(sw).capacity << "):\n";
    for (const auto& r : table) {
      os << "  [" << r.priority << "] tags={";
      for (std::size_t i = 0; i < r.tags.size(); ++i) {
        if (i != 0) os << ',';
        os << r.tags[i];
      }
      os << "} " << r.matchField.toString() << " -> "
         << acl::toString(r.action);
      if (r.merged) os << " (merged)";
      os << '\n';
    }
  }
  return os.str();
}

namespace {

// Entry under construction, with per-policy priorities for ordering.
struct PendingEntry {
  InstalledRule rule;
  std::map<int, int> policyPriority;  // policyId -> original priority
};

// Deterministic topological ordering of one switch's entries under
// order-sensitivity constraints (opposite action + overlap + shared tag).
std::vector<InstalledRule> orderTable(std::vector<PendingEntry> entries) {
  const std::size_t n = entries.size();
  std::vector<std::vector<std::size_t>> succ(n);
  std::vector<int> indegree(n, 0);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      const auto& ra = entries[a].rule;
      const auto& rb = entries[b].rule;
      if (ra.action == rb.action) continue;
      if (!ra.matchField.overlaps(rb.matchField)) continue;
      // Find a shared tag; all shared tags agree on order after
      // merge-cycle breaking.
      int dir = 0;  // +1: a before b, -1: b before a
      for (int tag : ra.tags) {
        if (!rb.visibleTo(tag)) continue;
        int pa = entries[a].policyPriority.at(tag);
        int pb = entries[b].policyPriority.at(tag);
        int d = pa > pb ? 1 : -1;
        if (dir != 0 && d != dir) {
          throw std::logic_error(
              "placement extraction: conflicting order constraints");
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
  // Kahn with a deterministic tie-break: highest original priority of the
  // first tag, then tag, then rule id.
  auto keyOf = [&](std::size_t i) {
    const auto& e = entries[i];
    int firstTag = e.rule.tags.empty() ? -1 : e.rule.tags.front();
    int prio = e.policyPriority.empty() ? 0 : e.policyPriority.begin()->second;
    return std::make_tuple(-prio, firstTag, e.rule.representativeRule);
  };
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready.push_back(i);
  }
  std::vector<InstalledRule> out;
  out.reserve(n);
  while (!ready.empty()) {
    auto best = std::min_element(
        ready.begin(), ready.end(),
        [&](std::size_t x, std::size_t y) { return keyOf(x) < keyOf(y); });
    std::size_t i = *best;
    ready.erase(best);
    out.push_back(entries[i].rule);
    for (std::size_t s : succ[i]) {
      if (--indegree[s] == 0) ready.push_back(s);
    }
  }
  if (out.size() != n) {
    throw std::logic_error("placement extraction: cyclic table order");
  }
  // Assign descending in-switch priorities.
  int prio = static_cast<int>(n);
  for (auto& r : out) r.priority = prio--;
  return out;
}

}  // namespace

Placement buildPlacement(const PlacementProblem& problem,
                         const std::vector<PlacedRule>& placed) {
  std::vector<std::vector<PendingEntry>> pending(
      static_cast<std::size_t>(problem.graph->switchCount()));
  for (const auto& pr : placed) {
    const acl::Rule* r =
        problem.policies.at(static_cast<std::size_t>(pr.policyId))
            .findRule(pr.ruleId);
    if (r == nullptr) {
      throw std::invalid_argument("buildPlacement: unknown rule id");
    }
    PendingEntry e;
    e.rule.matchField = r->matchField;
    e.rule.action = r->action;
    e.rule.tags = {pr.policyId};
    e.rule.representativeRule = pr.ruleId;
    e.policyPriority[pr.policyId] = r->priority;
    pending[static_cast<std::size_t>(pr.switchId)].push_back(std::move(e));
  }
  Placement placement(problem.graph->switchCount());
  for (int sw = 0; sw < problem.graph->switchCount(); ++sw) {
    placement.mutableTable(sw) =
        orderTable(std::move(pending[static_cast<std::size_t>(sw)]));
  }
  return placement;
}

Placement extractPlacement(const PlacementProblem& problem,
                           const Encoder& encoder,
                           const std::vector<bool>& assignment,
                           const depgraph::MergeAnalysis* mergeInfo) {
  Placement placement(problem.graph->switchCount());

  // Members swallowed by an active merge entry, per switch.
  // Key: (policyId, ruleId), per switch id.
  std::vector<std::vector<std::pair<int, int>>> absorbed(
      static_cast<std::size_t>(problem.graph->switchCount()));
  std::vector<std::vector<PendingEntry>> pending(
      static_cast<std::size_t>(problem.graph->switchCount()));

  if (mergeInfo != nullptr) {
    for (const auto& [groupId, sw] : encoder.mergeKeys()) {
      solver::ModelVar mv = encoder.mergeVar(groupId, sw);
      if (mv < 0 || !assignment.at(static_cast<std::size_t>(mv))) continue;
      const depgraph::MergeGroup& group =
          mergeInfo->groups.at(static_cast<std::size_t>(groupId));
      PendingEntry e;
      e.rule.matchField = group.matchField;
      e.rule.action = group.action;
      e.rule.merged = true;
      for (const auto& m : group.members) {
        solver::ModelVar pv = encoder.placementVar(m.policyId, m.ruleId, sw);
        if (pv < 0) continue;  // member has no variable at this switch
        // Eq. 4/5 guarantee all members present when the merge var fires.
        e.rule.tags.push_back(m.policyId);
        const acl::Rule* r =
            problem.policies[static_cast<std::size_t>(m.policyId)].findRule(
                m.ruleId);
        e.policyPriority[m.policyId] = r->priority;
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
    solver::ModelVar v =
        encoder.placementVar(key.policyId, key.ruleId, key.switchId);
    if (!assignment.at(static_cast<std::size_t>(v))) continue;
    const auto& abs = absorbed[static_cast<std::size_t>(key.switchId)];
    if (std::find(abs.begin(), abs.end(),
                  std::make_pair(key.policyId, key.ruleId)) != abs.end()) {
      continue;  // represented by a merged entry
    }
    const acl::Rule* r =
        problem.policies[static_cast<std::size_t>(key.policyId)].findRule(
            key.ruleId);
    PendingEntry e;
    e.rule.matchField = r->matchField;
    e.rule.action = r->action;
    e.rule.tags = {key.policyId};
    e.rule.representativeRule = key.ruleId;
    e.policyPriority[key.policyId] = r->priority;
    pending[static_cast<std::size_t>(key.switchId)].push_back(std::move(e));
  }

  for (int sw = 0; sw < problem.graph->switchCount(); ++sw) {
    placement.mutableTable(sw) =
        orderTable(std::move(pending[static_cast<std::size_t>(sw)]));
  }
  return placement;
}

}  // namespace ruleplace::core
