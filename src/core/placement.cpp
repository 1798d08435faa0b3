#include "core/placement.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <tuple>

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

// The table order, for both builders: Kahn's topological sort over the
// order-sensitive pairs (opposite action + overlap + shared tag), always
// emitting the ready entry of smallest key (-original priority of the
// first tag, first tag, representative rule id).  kahnTable() runs it;
// sortedTable() gives the same order for tables of single-tag entries.

// A single-tag entry awaiting its table: the policy rule it installs and
// its key.
struct TaggedRule {
  int negPriority;  // -(original priority)
  int tag;          // the policy id
  int ruleId;
  const acl::Rule* rule;

  auto key() const noexcept { return std::tie(negPriority, tag, ruleId); }
};

TaggedRule tagged(const acl::Rule& r, int policyId) {
  return {-r.priority, policyId, r.id, &r};
}

InstalledRule installed(const TaggedRule& t) {
  InstalledRule r;
  r.matchField = t.rule->matchField;
  r.action = t.rule->action;
  r.tags = {t.tag};
  r.representativeRule = t.ruleId;
  return r;
}

void numberDown(std::vector<InstalledRule>& table) {
  int prio = static_cast<int>(table.size());
  for (auto& r : table) r.priority = prio--;
}

// A table of single-tag entries, in match order.  An order constraint
// needs a shared tag, so it joins two entries of one policy and runs from
// the higher original priority to the lower (a policy's priorities are
// unique): every constraint agrees with the key, and Kahn's loop emits
// exactly the key order.  The entries are built here, in table order, so
// each table's tag storage is allocated in the order it is read.
std::vector<InstalledRule> sortedTable(std::vector<TaggedRule>& entries) {
  std::sort(entries.begin(), entries.end(),
            [](const TaggedRule& a, const TaggedRule& b) {
              return a.key() < b.key();
            });
  std::vector<InstalledRule> out;
  out.reserve(entries.size());
  for (const auto& e : entries) out.push_back(installed(e));
  numberDown(out);
  return out;
}

// An entry of a table that holds merged entries, with its original
// priority under each of its tags.
struct PendingEntry {
  InstalledRule rule;
  std::vector<int> tagPriority;  // parallel to rule.tags

  int priorityUnder(int tag) const {
    auto it = std::lower_bound(rule.tags.begin(), rule.tags.end(), tag);
    return tagPriority[static_cast<std::size_t>(it - rule.tags.begin())];
  }
  std::tuple<int, int, int> key() const {
    if (rule.tags.empty()) return {0, -1, rule.representativeRule};
    return {-tagPriority.front(), rule.tags.front(), rule.representativeRule};
  }
};

// A table holding merged entries, in match order.
std::vector<InstalledRule> kahnTable(const std::vector<PendingEntry>& entries) {
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
        int pa = entries[a].priorityUnder(tag);
        int pb = entries[b].priorityUnder(tag);
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
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready.push_back(i);
  }
  std::vector<InstalledRule> out;
  out.reserve(n);
  while (!ready.empty()) {
    auto best = std::min_element(
        ready.begin(), ready.end(), [&](std::size_t x, std::size_t y) {
          return entries[x].key() < entries[y].key();
        });
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
  numberDown(out);
  return out;
}

}  // namespace

Placement buildPlacement(const PlacementProblem& problem,
                         const std::vector<PlacedRule>& placed) {
  std::vector<std::vector<TaggedRule>> pending(
      static_cast<std::size_t>(problem.graph->switchCount()));
  for (const auto& pr : placed) {
    const acl::Rule* r =
        problem.policies.at(static_cast<std::size_t>(pr.policyId))
            .findRule(pr.ruleId);
    if (r == nullptr) {
      throw std::invalid_argument("buildPlacement: unknown rule id");
    }
    if (pr.switchId < 0 || pr.switchId >= problem.graph->switchCount()) {
      throw std::invalid_argument("buildPlacement: unknown switch id");
    }
    pending[static_cast<std::size_t>(pr.switchId)].push_back(
        tagged(*r, pr.policyId));
  }
  Placement placement(problem.graph->switchCount());
  for (int sw = 0; sw < problem.graph->switchCount(); ++sw) {
    placement.mutableTable(sw) =
        sortedTable(pending[static_cast<std::size_t>(sw)]);
  }
  return placement;
}

Placement extractPlacement(const PlacementProblem& problem,
                           const Encoder& encoder,
                           const std::vector<bool>& assignment,
                           const depgraph::MergeAnalysis* mergeInfo) {
  const auto switches = static_cast<std::size_t>(problem.graph->switchCount());
  // Members swallowed by an active merge entry, per switch.
  // Key: (policyId, ruleId), per switch id.
  std::vector<std::vector<std::pair<int, int>>> absorbed(switches);
  std::vector<std::vector<PendingEntry>> merged(switches);
  std::vector<std::vector<TaggedRule>> single(switches);

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
      // (policy, original priority); a group holds one member per policy.
      std::vector<std::pair<int, int>> members;
      for (const auto& m : group.members) {
        solver::ModelVar pv = encoder.placementVar(m.policyId, m.ruleId, sw);
        if (pv < 0) continue;  // member has no variable at this switch
        // Eq. 4/5 guarantee all members present when the merge var fires.
        members.emplace_back(
            m.policyId,
            problem.policies[static_cast<std::size_t>(m.policyId)]
                .findRule(m.ruleId)
                ->priority);
        if (e.rule.representativeRule < 0) {
          e.rule.representativeRule = m.ruleId;
        }
        absorbed[static_cast<std::size_t>(sw)].push_back(
            {m.policyId, m.ruleId});
      }
      std::sort(members.begin(), members.end());
      for (const auto& [tag, prio] : members) {
        e.rule.tags.push_back(tag);
        e.tagPriority.push_back(prio);
      }
      merged[static_cast<std::size_t>(sw)].push_back(std::move(e));
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
    single[static_cast<std::size_t>(key.switchId)].push_back(
        tagged(*r, key.policyId));
  }

  Placement placement(problem.graph->switchCount());
  for (std::size_t sw = 0; sw < switches; ++sw) {
    auto& table = placement.mutableTable(static_cast<topo::SwitchId>(sw));
    if (merged[sw].empty()) {
      table = sortedTable(single[sw]);
      continue;
    }
    for (const TaggedRule& t : single[sw]) {
      merged[sw].push_back({installed(t), {-t.negPriority}});
    }
    table = kahnTable(merged[sw]);
  }
  return placement;
}

}  // namespace ruleplace::core
