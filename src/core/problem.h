#pragma once
// The rule-placement problem instance (paper §III).
//
// Given the network N (graph + per-switch capacities), the routing policy P
// (a set of paths per ingress, produced by an external routing module), and
// the distributed firewall policy {Q_i} (one prioritized ACL per ingress),
// assign every rule to one or more switches reachable from its ingress so
// that semantics are preserved and no switch exceeds its capacity.

#include <cstdint>
#include <vector>

#include "acl/policy.h"
#include "depgraph/depgraph.h"
#include "topo/graph.h"
#include "topo/routing.h"

namespace ruleplace::core {

/// Objective functions supported by the ILP formulation (§IV-A4).
enum class ObjectiveKind : std::uint8_t {
  kTotalRules,       ///< minimize Σ v_{i,j,k} — maximizes future slack
  kUpstreamTraffic,  ///< minimize Σ v_{i,j,k} * loc(s_k, P_i) — drop early
  kWeightedSwitch,   ///< minimize Σ v_{i,j,k} * weight(s_k) — favor switches
};

/// A monitoring point: packets matching `match` that traverse `switchId`
/// must reach it unfiltered.  Placement then keeps every overlapping DROP
/// rule strictly downstream of the monitor on every path through it —
/// the rule-placement/monitoring interaction the paper lists as future
/// work (§VII).  Conservative: the restriction applies to any drop rule
/// whose match field overlaps the monitored headers.
struct MonitorPoint {
  topo::SwitchId switchId = -1;
  match::Ternary match;
};

struct EncoderOptions {
  bool enableMerging = false;      ///< §IV-B cross-policy rule merging
  bool enablePathSlicing = false;  ///< §IV-C per-route policy slicing
  ObjectiveKind objective = ObjectiveKind::kTotalRules;
  /// Per-switch weights for kWeightedSwitch (indexed by switch id).
  std::vector<double> switchWeights;
  /// Monitoring points to protect (may cause infeasibility when a drop has
  /// no room downstream of a monitor).
  std::vector<MonitorPoint> monitors;
  /// How dependency graphs are built/reused (builder kind, worker threads,
  /// cache bypass).  Never affects results — graphs are bit-identical for
  /// every setting (see docs/depgraph.md).
  depgraph::BuildOptions depgraph;
  /// Encode worker threads: policies are encoded in parallel with the
  /// deterministic two-pass scheme (docs/performance.md).  Never affects
  /// results — the emitted model is bit-identical for every setting.
  /// <= 0 means one worker per hardware thread; 1 runs inline.
  int threads = 1;
};

/// One placement problem: policies[i] is attached to routing[i].ingress.
struct PlacementProblem {
  const topo::Graph* graph = nullptr;
  std::vector<topo::IngressPaths> routing;
  std::vector<acl::Policy> policies;

  /// When non-empty, overrides the graph's per-switch ACL capacities.
  /// The incremental placer (§IV-E) uses this to expose only the *spare*
  /// capacity left by an existing deployment.
  std::vector<int> capacityOverride;

  int capacityOf(topo::SwitchId sw) const {
    return capacityOverride.empty()
               ? graph->sw(sw).capacity
               : capacityOverride.at(static_cast<std::size_t>(sw));
  }

  int policyCount() const noexcept {
    return static_cast<int>(policies.size());
  }

  /// Total rules over all policies (the quantity `A` of Table II).
  std::int64_t totalPolicyRules() const noexcept {
    std::int64_t n = 0;
    for (const auto& q : policies) n += static_cast<std::int64_t>(q.size());
    return n;
  }

  /// Total paths (the experiment parameter `p`).
  int totalPaths() const noexcept {
    int n = 0;
    for (const auto& r : routing) n += static_cast<int>(r.paths.size());
    return n;
  }

  /// The policies `policyIds` (in that order) with their routing, on the
  /// same graph and capacities: one coupling component's sub-problem.
  PlacementProblem subset(const std::vector<int>& policyIds) const {
    PlacementProblem sub;
    sub.graph = graph;
    sub.capacityOverride = capacityOverride;
    for (int i : policyIds) {
      sub.routing.push_back(routing.at(static_cast<std::size_t>(i)));
      sub.policies.push_back(policies.at(static_cast<std::size_t>(i)));
    }
    return sub;
  }

  /// Throws std::invalid_argument when the instance is malformed
  /// (mismatched vector sizes, unknown switches/ports, paths not starting
  /// at their ingress switch).
  void validate() const;
};

}  // namespace ruleplace::core
