#include "core/encoder.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "depgraph/cache.h"
#include "util/thread_pool.h"

namespace ruleplace::core {

void PlacementProblem::validate() const {
  if (graph == nullptr) throw std::invalid_argument("problem: null graph");
  if (routing.size() != policies.size()) {
    throw std::invalid_argument("problem: one policy per ingress required");
  }
  for (const auto& ip : routing) {
    if (ip.ingress < 0 || ip.ingress >= graph->entryPortCount()) {
      throw std::invalid_argument("problem: unknown ingress port");
    }
    topo::SwitchId ingressSwitch = graph->entryPort(ip.ingress).attachedSwitch;
    for (const auto& path : ip.paths) {
      if (path.switches.empty()) {
        throw std::invalid_argument("problem: empty path");
      }
      if (path.switches.front() != ingressSwitch) {
        throw std::invalid_argument(
            "problem: path does not start at its ingress switch");
      }
      for (std::size_t i = 0; i + 1 < path.switches.size(); ++i) {
        if (!graph->hasLink(path.switches[i], path.switches[i + 1])) {
          throw std::invalid_argument("problem: path uses a missing link");
        }
      }
    }
  }
}

namespace {

// Reusable per-thread encode scratch.  Everything is reset through touched
// lists at the *start* of each use, so a policy build aborted by an
// exception can never corrupt the next build on the same thread.
struct EncodeScratch {
  // switch id -> dense index within the policy's reachable set, or -1.
  std::vector<std::int32_t> denseOf;
  std::vector<topo::SwitchId> denseTouched;
  // per-rule-position marks (path shields).
  std::vector<std::uint8_t> shieldMark;
  std::vector<std::int32_t> shieldTouched;
  // (rule position, dense switch) -> local var id, or -1.
  std::vector<std::int32_t> slab;

  void beginPolicy(std::size_t switchCount, std::size_t ruleCount) {
    if (denseOf.size() < switchCount) denseOf.resize(switchCount, -1);
    for (topo::SwitchId sw : denseTouched) {
      denseOf[static_cast<std::size_t>(sw)] = -1;
    }
    denseTouched.clear();
    for (std::int32_t p : shieldTouched) {
      shieldMark[static_cast<std::size_t>(p)] = 0;
    }
    shieldTouched.clear();
    if (shieldMark.size() < ruleCount) shieldMark.resize(ruleCount, 0);
  }
};

EncodeScratch& encodeScratch() {
  static thread_local EncodeScratch s;
  return s;
}

// rule id -> position in policy.rules().  Rule ids are usually dense
// (0..n-1 from the generators) — direct table; under heavy add/remove
// churn they grow unboundedly — sorted-pairs fallback.
class RulePosIndex {
 public:
  explicit RulePosIndex(const std::vector<acl::Rule>& rules) {
    int maxId = -1;
    for (const auto& r : rules) maxId = std::max(maxId, r.id);
    const std::int64_t n = static_cast<std::int64_t>(rules.size());
    if (maxId >= 0 && maxId < 4 * n + 1024) {
      direct_.assign(static_cast<std::size_t>(maxId) + 1, -1);
      for (std::size_t p = 0; p < rules.size(); ++p) {
        direct_[static_cast<std::size_t>(rules[p].id)] =
            static_cast<std::int32_t>(p);
      }
    } else {
      sorted_.reserve(rules.size());
      for (std::size_t p = 0; p < rules.size(); ++p) {
        sorted_.push_back({rules[p].id, static_cast<std::int32_t>(p)});
      }
      std::sort(sorted_.begin(), sorted_.end());
    }
  }

  std::int32_t of(int ruleId) const noexcept {
    if (!direct_.empty()) {
      return direct_[static_cast<std::size_t>(ruleId)];
    }
    auto it = std::lower_bound(sorted_.begin(), sorted_.end(),
                               std::pair<int, std::int32_t>{ruleId, -1});
    return it->second;
  }

 private:
  std::vector<std::int32_t> direct_;
  std::vector<std::pair<int, std::int32_t>> sorted_;
};

// Canonicalize terms_[begin..end): sort by variable, merge duplicates,
// drop zero coefficients.  Mirrors LinearExpr::canonicalize over a slice.
void canonicalizeRange(std::vector<solver::Term>& terms, std::size_t begin) {
  std::sort(terms.begin() + static_cast<std::ptrdiff_t>(begin), terms.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  std::size_t w = begin;
  for (std::size_t r = begin; r < terms.size(); ++r) {
    if (w > begin && terms[w - 1].second == terms[r].second) {
      terms[w - 1].first += terms[r].first;
    } else {
      terms[w++] = terms[r];
    }
  }
  // Compact zeros (rare: only opposing duplicate coefficients).
  std::size_t o = begin;
  for (std::size_t r = begin; r < w; ++r) {
    if (terms[r].first != 0) terms[o++] = terms[r];
  }
  terms.resize(o);
}

}  // namespace

std::vector<int> requiredRuleIds(const acl::Policy& policy,
                                 const topo::IngressPaths& routing,
                                 const depgraph::DependencyGraph& dg,
                                 bool usePathSlicing) {
  // Drops with a path duty.  An unsliced path owes every drop, and a slice
  // is a subset of them, so only an all-sliced policy needs the union.
  bool owesEveryDrop = false;
  for (const auto& path : routing.paths) {
    owesEveryDrop |= !usePathSlicing || !path.traffic.has_value();
  }
  std::vector<int> ids;
  if (owesEveryDrop) {
    ids = dg.dropRules();
  } else {
    for (const auto& path : routing.paths) {
      const std::vector<int> sliced = dg.slicedDrops(*path.traffic);
      ids.insert(ids.end(), sliced.begin(), sliced.end());
    }
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  // Dummies (merge-cycle breaking) are redundant: no path duty.
  std::vector<int> dummies;
  for (const auto& r : policy.rules()) {
    if (r.dummy) dummies.push_back(r.id);
  }
  if (!dummies.empty()) {
    std::sort(dummies.begin(), dummies.end());
    std::erase_if(ids, [&](int id) {
      return std::binary_search(dummies.begin(), dummies.end(), id);
    });
  }
  std::vector<int> shields;
  for (int dropId : ids) {
    for (int permitId : dg.shieldsOf(dropId)) shields.push_back(permitId);
  }
  std::sort(shields.begin(), shields.end());
  shields.erase(std::unique(shields.begin(), shields.end()), shields.end());
  ids.insert(ids.end(), shields.begin(), shields.end());
  return ids;
}

// One policy's encode output, in *local* variable numbering (0-based within
// the policy).  Spliced into the Model by prefix-summed global offsets.
struct Encoder::PolicyBuild {
  struct Row {
    std::uint32_t termBegin = 0;
    std::uint32_t termCount = 0;
    solver::Cmp cmp = solver::Cmp::kGe;
    std::int64_t rhs = 0;
    solver::NameRef name;
  };

  std::vector<VarKey> keys;  // local var id -> key
  // Capacity contributions in var-creation order: (switch, local var).
  std::vector<std::pair<topo::SwitchId, std::int32_t>> load;
  std::vector<Row> rows;              // constraint stream, in emission order
  std::vector<solver::Term> terms;    // rows' terms, local var ids
  std::vector<int> requiredRules;     // drops (ascending), then shields
  std::int64_t ruleDependencyConstraints = 0;
  std::int64_t pathDependencyConstraints = 0;
  std::int64_t slicedAwayRules = 0;
  std::int64_t presolveInfeasiblePaths = 0;
};

Encoder::Encoder(const PlacementProblem& problem, const EncoderOptions& options,
                 const depgraph::MergeAnalysis* mergeInfo)
    : problem_(&problem), options_(options), mergeInfo_(mergeInfo) {
  problem.validate();
  if (options_.enableMerging && mergeInfo_ == nullptr) {
    throw std::invalid_argument("encoder: merging enabled without analysis");
  }
  if (options_.enableMerging &&
      options_.objective != ObjectiveKind::kTotalRules) {
    throw std::invalid_argument(
        "encoder: merging is only supported with the total-rules objective");
  }
  // packKey gives policies and switches 16-bit fields; rule ids keep the
  // full 32 bits because they are the only unbounded dimension.
  if (problem.policyCount() >= (1 << 16) ||
      problem.graph->switchCount() >= (1 << 16)) {
    throw std::invalid_argument(
        "encoder: more than 2^16 policies or switches");
  }
  switchLoad_.resize(static_cast<std::size_t>(problem.graph->switchCount()));

  encodePolicies();
  if (!options_.monitors.empty()) applyMonitorConstraints();
  if (options_.enableMerging) encodeMerging();
  encodeCapacity();
  encodeObjective();
  computeObjectiveBound();
}

void Encoder::markPresolveInfeasible(solver::NameRef why) {
  ++stats_.presolveInfeasiblePaths;
  solver::LinearExpr never;
  model_.addConstraint(std::move(never), solver::Cmp::kGe, 1, why);
}

solver::ModelVar Encoder::placementVar(int policyId, int ruleId,
                                       topo::SwitchId sw) const noexcept {
  return varIndex_.get(packKey(policyId, ruleId, sw));
}

solver::ModelVar Encoder::mergeVar(int groupId,
                                   topo::SwitchId sw) const noexcept {
  return mergeIndex_.get(packKey(0, groupId, sw));
}

void Encoder::buildPolicy(int policyId, PolicyBuild& out) const {
  const acl::Policy& policy =
      problem_->policies[static_cast<std::size_t>(policyId)];
  const topo::IngressPaths& routing =
      problem_->routing[static_cast<std::size_t>(policyId)];
  auto dg = depgraph::acquireGraph(policy, options_.depgraph);

  const std::vector<acl::Rule>& rules = policy.rules();
  const RulePosIndex rulePos(rules);

  // Dense switch ids over the policy's reachable set: the (rule, switch)
  // variable slab then has O(1) lookups with no hashing at all.
  const std::vector<topo::SwitchId> reach = routing.reachableSwitches();
  EncodeScratch& s = encodeScratch();
  s.beginPolicy(static_cast<std::size_t>(problem_->graph->switchCount()),
                rules.size());
  for (std::size_t d = 0; d < reach.size(); ++d) {
    s.denseOf[static_cast<std::size_t>(reach[d])] =
        static_cast<std::int32_t>(d);
    s.denseTouched.push_back(reach[d]);
  }
  const std::size_t denseCount = reach.size();
  s.slab.assign(rules.size() * denseCount, -1);

  auto ensureVarLocal = [&](int ruleId, std::int32_t rp,
                            topo::SwitchId sw) -> std::int32_t {
    std::int32_t& slot =
        s.slab[static_cast<std::size_t>(rp) * denseCount +
               static_cast<std::size_t>(
                   s.denseOf[static_cast<std::size_t>(sw)])];
    if (slot >= 0) return slot;
    slot = static_cast<std::int32_t>(out.keys.size());
    out.keys.push_back({policyId, ruleId, sw});
    out.load.push_back({sw, slot});
    return slot;
  };

  // Emits Eq.1 shield constraints exactly once, on first creation of a
  // DROP variable at a switch (single slab probe — no repeated lookup).
  auto ensureDropVarLocal = [&](int dropId,
                                topo::SwitchId sw) -> std::int32_t {
    const std::int32_t rp = rulePos.of(dropId);
    {
      std::int32_t slot =
          s.slab[static_cast<std::size_t>(rp) * denseCount +
                 static_cast<std::size_t>(
                     s.denseOf[static_cast<std::size_t>(sw)])];
      if (slot >= 0) return slot;
    }
    const std::int32_t vw = ensureVarLocal(dropId, rp, sw);
    for (int permitId : dg->shieldsOf(dropId)) {
      const std::int32_t vu =
          ensureVarLocal(permitId, rulePos.of(permitId), sw);
      const auto begin = static_cast<std::uint32_t>(out.terms.size());
      if (vu < vw) {
        out.terms.push_back({1, vu});
        out.terms.push_back({-1, vw});
      } else {
        out.terms.push_back({-1, vw});
        out.terms.push_back({1, vu});
      }
      out.rows.push_back({begin, 2, solver::Cmp::kGe, 0,
                          solver::NameRef::dep(policyId, dropId, sw)});
      ++out.ruleDependencyConstraints;
    }
    return vw;
  };

  // Non-dummy drops, for the sliced-away accounting below.
  std::int64_t activeDrops = 0;
  for (int dropId : dg->dropRules()) {
    if (!rules[static_cast<std::size_t>(rulePos.of(dropId))].dummy) {
      ++activeDrops;
    }
  }

  // Cover-row staging: ensureDropVarLocal may emit dep rows (terms + rows)
  // while the cover row is being assembled, and CSR rows must own
  // contiguous term spans — so resolve the vars first, then append.
  std::vector<std::int32_t> coverVars;
  for (std::size_t pathIdx = 0; pathIdx < routing.paths.size(); ++pathIdx) {
    const auto& path = routing.paths[pathIdx];
    std::int64_t pathShieldCount = 0;
    int pathDrops = 0;
    // Path slicing (§IV-C) is a subset projection of the policy's (cached)
    // dependency graph: drop rules whose field cannot intersect the path's
    // traffic carry no duty on this path.
    const bool sliced =
        options_.enablePathSlicing && path.traffic.has_value();
    const std::vector<int> slicedIds =
        sliced ? dg->slicedDrops(*path.traffic) : std::vector<int>{};
    const std::vector<int>& pathDropIds = sliced ? slicedIds : dg->dropRules();
    for (int dropId : pathDropIds) {
      const std::int32_t dropPos = rulePos.of(dropId);
      if (rules[static_cast<std::size_t>(dropPos)].dummy) {
        continue;  // dummies are redundant: no path duty
      }
      ++pathDrops;
      for (int permitId : dg->shieldsOf(dropId)) {
        const std::int32_t pp = rulePos.of(permitId);
        if (!s.shieldMark[static_cast<std::size_t>(pp)]) {
          s.shieldMark[static_cast<std::size_t>(pp)] = 1;
          s.shieldTouched.push_back(pp);
          ++pathShieldCount;
        }
      }
      coverVars.clear();
      for (topo::SwitchId sw : path.switches) {
        coverVars.push_back(ensureDropVarLocal(dropId, sw));
      }
      const auto begin = static_cast<std::uint32_t>(out.terms.size());
      for (std::int32_t v : coverVars) out.terms.push_back({1, v});
      canonicalizeRange(out.terms, begin);
      out.rows.push_back(
          {begin, static_cast<std::uint32_t>(out.terms.size()) - begin,
           solver::Cmp::kGe, 1, solver::NameRef::path(policyId, dropId)});
      ++out.pathDependencyConstraints;
    }
    // Per-path shield marks reset here.
    for (std::int32_t p : s.shieldTouched) {
      s.shieldMark[static_cast<std::size_t>(p)] = 0;
    }
    s.shieldTouched.clear();
    if (sliced) out.slicedAwayRules += activeDrops - pathDrops;
    // Presolve cut: every relevant drop needs a slot on this path, and
    // every distinct shielding permit needs at least one more.  If even
    // the path's *entire* capacity cannot hold them, the instance is
    // infeasible — detected here without search (the fast "returns
    // infeasible quickly" behaviour of over-constrained cases in §V).
    std::int64_t pathCapacity = 0;
    for (topo::SwitchId sw : path.switches) {
      pathCapacity += problem_->capacityOf(sw);
    }
    if (pathDrops + pathShieldCount > pathCapacity) {
      ++out.presolveInfeasiblePaths;
      out.rows.push_back(
          {static_cast<std::uint32_t>(out.terms.size()), 0, solver::Cmp::kGe,
           1,
           solver::NameRef::presolvePath(policyId,
                                         static_cast<int>(pathIdx))});
    }
  }
  // The rules this policy must install somewhere (lower bound basis).
  out.requiredRules = requiredRuleIds(policy, routing, *dg,
                                      options_.enablePathSlicing);

  // Dummy rules (inserted by merge-cycle breaking) carry no path duty but
  // must be placeable anywhere in S_i so their merge group can fire.
  if (options_.enableMerging) {
    for (const auto& r : rules) {
      if (!r.dummy) continue;
      for (topo::SwitchId sw : reach) {
        if (r.action == acl::Action::kDrop) {
          ensureDropVarLocal(r.id, sw);
        } else {
          ensureVarLocal(r.id, rulePos.of(r.id), sw);
        }
      }
    }
  }
}

void Encoder::encodePolicies() {
  const int n = problem_->policyCount();
  std::vector<PolicyBuild> builds(static_cast<std::size_t>(n));

  int threads = options_.threads;
  if (threads <= 0) threads = util::ThreadPool::hardwareThreads();
  threads = std::min(threads, n);
  std::optional<util::ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  // Run fn(i) over every policy — pooled or inline, same lambda either
  // way, so the sequential and parallel encoders share one code path.
  // The pool rethrows the lowest-ordinal exception, matching the policy
  // order a sequential loop would fail in.
  auto forEachPolicy = [&](const std::function<void(int)>& fn) {
    if (pool.has_value()) {
      for (int i = 0; i < n; ++i) {
        pool->submit([&fn, i] { fn(i); });
      }
      pool->wait();
    } else {
      for (int i = 0; i < n; ++i) fn(i);
    }
  };

  // Pass 1: encode each policy into a private buffer with local numbering.
  forEachPolicy([&](int i) {
    buildPolicy(i, builds[static_cast<std::size_t>(i)]);
  });

  // Prefix-sum the per-policy counts into global offsets.
  std::vector<std::int64_t> varBase(static_cast<std::size_t>(n) + 1, 0);
  std::vector<std::size_t> consBase(static_cast<std::size_t>(n) + 1, 0);
  std::vector<std::size_t> termBase(static_cast<std::size_t>(n) + 1, 0);
  for (int i = 0; i < n; ++i) {
    const auto& b = builds[static_cast<std::size_t>(i)];
    const auto ui = static_cast<std::size_t>(i);
    varBase[ui + 1] = varBase[ui] + static_cast<std::int64_t>(b.keys.size());
    consBase[ui + 1] = consBase[ui] + b.rows.size();
    termBase[ui + 1] = termBase[ui] + b.terms.size();
  }
  const auto totalVars = varBase[static_cast<std::size_t>(n)];
  if (totalVars > std::numeric_limits<solver::ModelVar>::max()) {
    throw std::invalid_argument("encoder: model exceeds 2^31 variables");
  }

  auto bulk = model_.bulkAppend(static_cast<int>(totalVars),
                                consBase[static_cast<std::size_t>(n)],
                                termBase[static_cast<std::size_t>(n)]);
  keys_.resize(static_cast<std::size_t>(totalVars));

  // Pass 2: splice each policy's buffer into its reserved slice — var
  // names, keys, offset-remapped terms, rows.  Slices are disjoint, so
  // the fills run in parallel.
  forEachPolicy([&](int i) {
    const auto ui = static_cast<std::size_t>(i);
    const PolicyBuild& b = builds[ui];
    const auto vb = static_cast<solver::ModelVar>(varBase[ui]);
    for (std::size_t l = 0; l < b.keys.size(); ++l) {
      const VarKey& k = b.keys[l];
      const auto v = static_cast<solver::ModelVar>(
          vb + static_cast<solver::ModelVar>(l));
      keys_[static_cast<std::size_t>(v)] = k;
      model_.setBulkVarName(
          v, solver::NameRef::placement(k.policyId, k.ruleId, k.switchId));
    }
    solver::Term* dst = bulk.terms + termBase[ui];
    for (std::size_t t = 0; t < b.terms.size(); ++t) {
      dst[t] = {b.terms[t].first, b.terms[t].second + vb};
    }
    for (std::size_t r = 0; r < b.rows.size(); ++r) {
      const PolicyBuild::Row& row = b.rows[r];
      model_.setBulkConstraint(consBase[ui] + r, dst + row.termBegin,
                               row.termCount, row.cmp, row.rhs, row.name);
    }
  });

  // Sequential tail: per-switch load, required rules and stats splice in
  // policy order (identical to the sequential emission order).
  for (int i = 0; i < n; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    PolicyBuild& b = builds[ui];
    const auto vb = static_cast<solver::ModelVar>(varBase[ui]);
    for (const auto& [sw, local] : b.load) {
      switchLoad_[static_cast<std::size_t>(sw)].push_back({1, vb + local});
    }
    for (int ruleId : b.requiredRules) requiredRules_.push_back({i, ruleId});
    stats_.ruleDependencyConstraints += b.ruleDependencyConstraints;
    stats_.pathDependencyConstraints += b.pathDependencyConstraints;
    stats_.slicedAwayRules += b.slicedAwayRules;
    stats_.presolveInfeasiblePaths += b.presolveInfeasiblePaths;
    b = PolicyBuild{};  // free the buffer before the next splice
  }
  stats_.placementVars = totalVars;

  varIndex_.reserve(keys_.size());
  for (std::size_t v = 0; v < keys_.size(); ++v) {
    const VarKey& k = keys_[v];
    varIndex_.put(packKey(k.policyId, k.ruleId, k.switchId),
                  static_cast<std::int32_t>(v));
  }
}

void Encoder::applyMonitorConstraints() {
  // Packets a monitor must see may not be filtered before reaching it:
  // pin to 0 every DROP variable that overlaps the monitored headers and
  // sits strictly upstream of the monitor on some path through it.
  // Conservative — a variable forbidden because of one path is forbidden
  // globally — which can only cost optimality/feasibility, never
  // correctness.
  std::vector<std::uint8_t> pinned(
      static_cast<std::size_t>(model_.varCount()), 0);
  for (const auto& monitor : options_.monitors) {
    if (monitor.switchId < 0 ||
        monitor.switchId >= problem_->graph->switchCount()) {
      throw std::invalid_argument("monitor: unknown switch");
    }
    for (int i = 0; i < problem_->policyCount(); ++i) {
      const acl::Policy& policy =
          problem_->policies[static_cast<std::size_t>(i)];
      if (!policy.empty() && policy.width() != monitor.match.width()) {
        throw std::invalid_argument(
            "monitor: match width differs from policy width");
      }
      // The (monitor, policy) overlap test does not depend on the path or
      // the hop — hoist the overlapping drop list out of both loops.
      std::vector<int> overlappingDrops;
      for (const auto& rule : policy.rules()) {
        if (rule.action != acl::Action::kDrop) continue;
        if (!rule.matchField.overlaps(monitor.match)) continue;
        overlappingDrops.push_back(rule.id);
      }
      if (overlappingDrops.empty()) continue;
      for (const auto& path :
           problem_->routing[static_cast<std::size_t>(i)].paths) {
        int pos = path.locOf(monitor.switchId);
        if (pos <= 0) continue;  // not on this path, or nothing upstream
        for (int d = 0; d < pos; ++d) {
          topo::SwitchId upstream = path.switches[static_cast<std::size_t>(d)];
          for (int dropId : overlappingDrops) {
            solver::ModelVar v = placementVar(i, dropId, upstream);
            if (v < 0 || pinned[static_cast<std::size_t>(v)] != 0) continue;
            pinned[static_cast<std::size_t>(v)] = 1;
            model_.fixVariable(v, false);
            ++stats_.monitorForbiddenVars;
          }
        }
      }
    }
  }
}

void Encoder::encodeMerging() {
  for (const auto& group : mergeInfo_->groups) {
    for (topo::SwitchId sw = 0; sw < problem_->graph->switchCount(); ++sw) {
      std::vector<solver::ModelVar> members;
      for (const auto& m : group.members) {
        solver::ModelVar v = placementVar(m.policyId, m.ruleId, sw);
        if (v >= 0) members.push_back(v);
      }
      if (members.size() < 2) continue;
      const std::int64_t m = static_cast<std::int64_t>(members.size());
      solver::ModelVar mv =
          model_.addBinary(solver::NameRef::merge(group.id, sw));
      mergeIndex_.put(packKey(0, group.id, sw), mv);
      mergeKeyList_.push_back({group.id, sw});
      ++stats_.mergeVars;
      // Eq. 4: v^m >= Σ v - (M-1)   <=>   Σ v - v^m <= M-1.
      solver::LinearExpr all;
      for (solver::ModelVar v : members) all.add(1, v);
      all.add(-1, mv);
      model_.addConstraint(std::move(all), solver::Cmp::kLe, m - 1);
      ++stats_.mergeConstraints;
      // Eq. 5 (pairwise-strengthened): v^m <= v for every member.
      for (solver::ModelVar v : members) {
        solver::LinearExpr e;
        e.add(1, mv).add(-1, v);
        model_.addConstraint(std::move(e), solver::Cmp::kLe, 0);
        ++stats_.mergeConstraints;
      }
      // A firing merge replaces its M member entries by one shared entry.
      switchLoad_[static_cast<std::size_t>(sw)].push_back({-(m - 1), mv});
    }
  }
}

void Encoder::encodeCapacity() {
  for (topo::SwitchId sw = 0; sw < problem_->graph->switchCount(); ++sw) {
    const auto& load = switchLoad_[static_cast<std::size_t>(sw)];
    if (load.empty()) continue;
    solver::LinearExpr e;
    for (const auto& [coeff, v] : load) e.add(coeff, v);
    model_.addConstraint(std::move(e), solver::Cmp::kLe,
                         problem_->capacityOf(sw), solver::NameRef::cap(sw));
    ++stats_.capacityConstraints;
  }
}

void Encoder::encodeObjective() {
  solver::LinearExpr obj;
  switch (options_.objective) {
    case ObjectiveKind::kTotalRules: {
      // Σ v - Σ (M-1) v^m: exactly the installed-entry count.  Each
      // variable carries exactly one switch-load contribution, so the
      // coefficient-by-variable scan emits the canonical (var-sorted)
      // form directly — no sort needed.
      std::vector<std::int64_t> coeff(
          static_cast<std::size_t>(model_.varCount()), 0);
      for (topo::SwitchId sw = 0; sw < problem_->graph->switchCount(); ++sw) {
        for (const auto& [c, v] : switchLoad_[static_cast<std::size_t>(sw)]) {
          coeff[static_cast<std::size_t>(v)] += c;
        }
      }
      for (std::size_t v = 0; v < coeff.size(); ++v) {
        obj.add(coeff[v], static_cast<solver::ModelVar>(v));
      }
      break;
    }
    case ObjectiveKind::kUpstreamTraffic:
      // Paper: Σ v * loc(s_k, P_i).  We use (1 + 10*loc) so every placed
      // entry has positive cost: the hop gradient dominates (drops move
      // upstream) while gratuitous zero-cost placements at the ingress are
      // still penalized.  keys_[v] is var v's key, so the scan is already
      // in variable order.
      for (std::size_t v = 0; v < keys_.size(); ++v) {
        const VarKey& key = keys_[v];
        int loc = problem_->routing[static_cast<std::size_t>(key.policyId)]
                      .minLoc(key.switchId);
        obj.add(1 + 10 * static_cast<std::int64_t>(loc),
                static_cast<solver::ModelVar>(v));
      }
      break;
    case ObjectiveKind::kWeightedSwitch:
      if (options_.switchWeights.size() !=
          static_cast<std::size_t>(problem_->graph->switchCount())) {
        throw std::invalid_argument(
            "encoder: switchWeights must cover every switch");
      }
      for (std::size_t v = 0; v < keys_.size(); ++v) {
        const VarKey& key = keys_[v];
        auto w = static_cast<std::int64_t>(
            options_.switchWeights[static_cast<std::size_t>(key.switchId)]);
        obj.add(w, static_cast<solver::ModelVar>(v));
      }
      break;
  }
  model_.setObjective(std::move(obj));
}

void Encoder::computeObjectiveBound() {
  // Every required rule is installed at least once, and its cheapest
  // possible placement costs min-coefficient over its variables.  Merging
  // can save at most (members - 1) entries per group.  The resulting bound
  // is what lets the optimizer finish without an exponential counting
  // proof (see solver/optimize.h).
  std::vector<std::int64_t> coeffOf(
      static_cast<std::size_t>(model_.varCount()), 0);
  std::vector<std::uint8_t> inObjective(
      static_cast<std::size_t>(model_.varCount()), 0);
  for (const auto& [coeff, v] : model_.objective().terms()) {
    coeffOf[static_cast<std::size_t>(v)] = coeff;
    inObjective[static_cast<std::size_t>(v)] = 1;
  }
  auto ruleKey = [](int policyId, int ruleId) {
    // Full 32-bit fields: rule ids grow unboundedly under churn, and a
    // narrow shift would alias distinct rules (same bug class as the old
    // 21-bit packKey).
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(policyId))
            << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(ruleId));
  };
  // Min objective coefficient per *required* rule: a flat index over the
  // required (policy, rule) pairs, filled by one scan of the variables.
  constexpr std::int64_t kUnset = std::numeric_limits<std::int64_t>::max();
  util::FlatIndex64 requiredSlot;
  requiredSlot.reserve(requiredRules_.size());
  std::vector<std::int64_t> minCoeff(requiredRules_.size(), kUnset);
  for (std::size_t slot = 0; slot < requiredRules_.size(); ++slot) {
    requiredSlot.put(
        ruleKey(requiredRules_[slot].first, requiredRules_[slot].second),
        static_cast<std::int32_t>(slot));
  }
  for (std::size_t v = 0; v < keys_.size(); ++v) {
    if (!inObjective[v]) continue;
    const VarKey& key = keys_[v];
    const std::int32_t slot =
        requiredSlot.get(ruleKey(key.policyId, key.ruleId));
    if (slot < 0) continue;
    minCoeff[static_cast<std::size_t>(slot)] = std::min(
        minCoeff[static_cast<std::size_t>(slot)], coeffOf[v]);
  }
  std::int64_t bound = 0;
  for (std::int64_t c : minCoeff) {
    if (c != kUnset) bound += c;
  }
  if (options_.enableMerging && mergeInfo_ != nullptr) {
    // A group's best possible saving is (co-located members - 1) at the
    // switch where most members have variables — not the full group size,
    // which may never share a switch.
    std::unordered_map<std::uint64_t, std::vector<topo::SwitchId>> switchesOf;
    for (const auto& key : keys_) {
      switchesOf[ruleKey(key.policyId, key.ruleId)].push_back(key.switchId);
    }
    for (const auto& group : mergeInfo_->groups) {
      std::unordered_map<topo::SwitchId, int> perSwitch;
      for (const auto& m : group.members) {
        auto it = switchesOf.find(ruleKey(m.policyId, m.ruleId));
        if (it == switchesOf.end()) continue;
        for (topo::SwitchId sw : it->second) ++perSwitch[sw];
      }
      int maxCoLocated = 0;
      for (const auto& [sw, count] : perSwitch) {
        (void)sw;
        maxCoLocated = std::max(maxCoLocated, count);
      }
      if (maxCoLocated >= 2) bound -= maxCoLocated - 1;
    }
  }
  if (bound < 0) bound = 0;
  stats_.objectiveLowerBound = bound;
  stats_.requiredRules = static_cast<std::int64_t>(requiredRules_.size());
  model_.setObjectiveLowerBound(bound);

  // Global presolve cut: the bound itself must fit in the network.
  std::int64_t totalCapacity = 0;
  for (topo::SwitchId sw = 0; sw < problem_->graph->switchCount(); ++sw) {
    totalCapacity += problem_->capacityOf(sw);
  }
  if (options_.objective == ObjectiveKind::kTotalRules &&
      bound > totalCapacity) {
    markPresolveInfeasible(solver::NameRef::presolveTotal());
  }
}

std::vector<std::pair<solver::ModelVar, bool>> Encoder::ingressHint() const {
  std::vector<std::pair<solver::ModelVar, bool>> hint;
  hint.reserve(keys_.size());
  for (std::size_t v = 0; v < keys_.size(); ++v) {
    const VarKey& key = keys_[v];
    topo::SwitchId ingressSwitch =
        problem_->graph
            ->entryPort(
                problem_->routing[static_cast<std::size_t>(key.policyId)]
                    .ingress)
            .attachedSwitch;
    hint.push_back({static_cast<solver::ModelVar>(v),
                    key.switchId == ingressSwitch});
  }
  return hint;
}

}  // namespace ruleplace::core
