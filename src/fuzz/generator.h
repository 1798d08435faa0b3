#pragma once
// Seeded random scenario generator for the differential fuzzer.
//
// Samples a whole placement problem — topology (Fat-Tree / leaf-spine /
// linear / Waxman random graph), per-switch TCAM capacities, routed paths
// (single shortest path or ECMP groups, optionally with dst-prefix traffic
// descriptors), and per-ingress prioritized policies (ClassBench-style
// 5-tuple rules or small raw ternary cubes) — from a single 64-bit seed.
// Every draw flows through util::Rng, so a seed reproduces the exact case
// on any platform; the orchestrator derives per-iteration seeds with
// Rng::stream() so parallel fuzz workers stay deterministic.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/problem.h"
#include "topo/graph.h"
#include "topo/routing.h"
#include "util/rng.h"

namespace ruleplace::fuzz {

/// Topology families the generator samples from.
enum class TopologyKind : std::uint8_t {
  kLinear,
  kLeafSpine,
  kFatTree,
  kWaxman,  ///< random geometric graph (Waxman), chained to stay connected
};

const char* toString(TopologyKind k);

/// Sampled shape of one fuzz case.  Exposed (rather than hidden inside the
/// generator) so failures can be described and so tests can pin families.
struct GenParams {
  TopologyKind topology = TopologyKind::kLinear;
  int switchTarget = 3;      ///< approximate switch count (exact for waxman)
  int policyCount = 1;
  int rulesPerPolicy = 3;
  int pathsPerIngress = 1;
  bool ecmp = false;         ///< install whole equal-cost groups per flow
  bool trafficDescriptors = false;  ///< attach dst-prefix traffic to paths
  bool rawCubePolicies = false;     ///< small raw cubes instead of 5-tuples
  int rawWidth = 6;          ///< header width for raw-cube policies
  int sharedBlacklist = 0;   ///< identical rules appended to every policy
  /// Capacity regime: multiple of the per-policy rule count.  < 1.0 makes
  /// tight (sometimes infeasible) instances, large values decouple policies.
  double capacityFactor = 2.0;
  bool perSwitchCapacityJitter = true;
};

/// A self-contained problem instance.  The graph is shared so copies made
/// by the minimizer are cheap and the problem() view stays pointer-stable.
struct FuzzCase {
  std::shared_ptr<topo::Graph> graph;
  std::vector<topo::IngressPaths> routing;
  std::vector<acl::Policy> policies;

  core::PlacementProblem problem() const {
    return {graph.get(), routing, policies, {}};
  }
};

/// Sample a case shape.  Roughly 40% of draws are "tiny" (few rules on a
/// few switches) so the brute-force optimality oracle applies often.
GenParams sampleParams(util::Rng& rng);

/// Materialize a case from a shape.  All switches and entry ports receive
/// unique names so the case round-trips through io::formatScenario.
FuzzCase generateCase(const GenParams& params, util::Rng& rng);

/// Convenience: sample + materialize from one seed.
FuzzCase generateCase(std::uint64_t seed);

}  // namespace ruleplace::fuzz
