#include "fuzz/generator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "classbench/generator.h"
#include "topo/fattree.h"

namespace ruleplace::fuzz {

const char* toString(TopologyKind k) {
  switch (k) {
    case TopologyKind::kLinear: return "linear";
    case TopologyKind::kLeafSpine: return "leaf-spine";
    case TopologyKind::kFatTree: return "fat-tree";
    case TopologyKind::kWaxman: return "waxman";
  }
  return "?";
}

namespace {

// Waxman random graph: switches at random unit-square coordinates, link
// probability alpha * exp(-d / (beta * L)).  A spanning chain over a random
// permutation guarantees connectivity regardless of the draw.
void buildWaxman(topo::Graph& g, int n, util::Rng& rng) {
  std::vector<double> x(static_cast<std::size_t>(n));
  std::vector<double> y(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    g.addSwitch(0, topo::SwitchRole::kGeneric, "w" + std::to_string(i));
    x[static_cast<std::size_t>(i)] = rng.uniform();
    y[static_cast<std::size_t>(i)] = rng.uniform();
  }
  const double alpha = 0.4 + 0.4 * rng.uniform();
  const double beta = 0.3 + 0.4 * rng.uniform();
  const double kMaxDist = std::sqrt(2.0);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      double dx = x[static_cast<std::size_t>(i)] - x[static_cast<std::size_t>(j)];
      double dy = y[static_cast<std::size_t>(i)] - y[static_cast<std::size_t>(j)];
      double d = std::sqrt(dx * dx + dy * dy);
      if (rng.chance(alpha * std::exp(-d / (beta * kMaxDist)))) {
        g.addLink(i, j);
      }
    }
  }
  std::vector<topo::SwitchId> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  rng.shuffle(order);
  for (int i = 0; i + 1 < n; ++i) {
    topo::SwitchId a = order[static_cast<std::size_t>(i)];
    topo::SwitchId b = order[static_cast<std::size_t>(i + 1)];
    if (!g.hasLink(a, b)) g.addLink(a, b);
  }
  // Entry ports on distinct random switches (at least 2 so routing has an
  // egress choice), every switch at most one port.
  int ports = std::max(2, n / 2);
  std::vector<topo::SwitchId> hosts = order;
  rng.shuffle(hosts);
  for (int i = 0; i < ports && i < n; ++i) {
    g.addEntryPort(hosts[static_cast<std::size_t>(i)],
                   "h" + std::to_string(i));
  }
}

// The stock builders leave some switch names empty; scenario round-trip
// needs every switch named.
void ensureNames(topo::Graph& g) {
  for (int i = 0; i < g.switchCount(); ++i) {
    if (g.sw(i).name.empty()) g.sw(i).name = "s" + std::to_string(i);
  }
}

match::Ternary randomCube(util::Rng& rng, int width) {
  match::Ternary t(width);
  for (int i = 0; i < width; ++i) {
    std::uint64_t r = rng.below(4);
    t.setBit(i, r >= 2 ? -1 : static_cast<int>(r));  // 50% wildcard
  }
  return t;
}

acl::Policy rawCubePolicy(util::Rng& rng, int rules, int width) {
  acl::Policy q;
  bool haveDrop = false;
  for (int r = 0; r < rules; ++r) {
    bool drop = rng.chance(0.5) || (r == rules - 1 && !haveDrop);
    haveDrop |= drop;
    q.addRule(randomCube(rng, width),
              drop ? acl::Action::kDrop : acl::Action::kPermit);
  }
  return q;
}

}  // namespace

GenParams sampleParams(util::Rng& rng) {
  GenParams p;
  // ~40% tiny cases keep the brute-force optimality oracle in play.
  const bool tiny = rng.chance(0.4);
  if (tiny) {
    p.topology = rng.chance(0.5) ? TopologyKind::kLinear
                                 : TopologyKind::kWaxman;
    p.switchTarget = static_cast<int>(rng.range(2, 4));
    p.policyCount = 1;
    p.rulesPerPolicy = static_cast<int>(rng.range(2, 4));
    p.pathsPerIngress = static_cast<int>(rng.range(1, 2));
    p.rawCubePolicies = true;
    p.rawWidth = static_cast<int>(rng.range(4, 8));
    p.sharedBlacklist = 0;
    p.capacityFactor = 0.4 + 1.8 * rng.uniform();
  } else {
    switch (rng.below(4)) {
      case 0: p.topology = TopologyKind::kLinear; break;
      case 1: p.topology = TopologyKind::kLeafSpine; break;
      case 2: p.topology = TopologyKind::kFatTree; break;
      default: p.topology = TopologyKind::kWaxman; break;
    }
    p.switchTarget = static_cast<int>(rng.range(4, 14));
    p.policyCount = static_cast<int>(rng.range(1, 4));
    p.rulesPerPolicy = static_cast<int>(rng.range(3, 12));
    p.pathsPerIngress = static_cast<int>(rng.range(1, 3));
    p.ecmp = rng.chance(0.3);
    p.rawCubePolicies = rng.chance(0.35);
    p.rawWidth = static_cast<int>(rng.range(4, 8));
    // Traffic descriptors are 104-bit dst cubes; widths must match rules.
    p.trafficDescriptors = !p.rawCubePolicies && rng.chance(0.5);
    p.sharedBlacklist =
        rng.chance(0.4) ? static_cast<int>(rng.range(1, 3)) : 0;
    p.capacityFactor = 0.6 + 3.0 * rng.uniform();
  }
  p.perSwitchCapacityJitter = rng.chance(0.7);
  return p;
}

FuzzCase generateCase(const GenParams& params, util::Rng& rng) {
  FuzzCase fc;
  fc.graph = std::make_shared<topo::Graph>();
  topo::Graph& g = *fc.graph;

  switch (params.topology) {
    case TopologyKind::kLinear:
      topo::buildLinear(g, std::max(1, params.switchTarget), 0);
      break;
    case TopologyKind::kLeafSpine: {
      int leaves = std::max(2, params.switchTarget * 2 / 3);
      int spines = std::max(1, params.switchTarget - leaves);
      topo::buildLeafSpine(g, leaves, spines, /*hostsPerLeaf=*/2, 0);
      break;
    }
    case TopologyKind::kFatTree:
      topo::buildFatTree(g, 4, 0);  // 20 switches, 16 host ports
      break;
    case TopologyKind::kWaxman:
      buildWaxman(g, std::max(2, params.switchTarget), rng);
      break;
  }
  ensureNames(g);

  // Ingress selection: without replacement, capped by available ports.
  std::vector<topo::PortId> ports;
  for (int i = 0; i < g.entryPortCount(); ++i) ports.push_back(i);
  rng.shuffle(ports);
  const int nPolicies =
      std::min(params.policyCount, static_cast<int>(ports.size()));
  std::vector<topo::PortId> ingresses(ports.begin(),
                                      ports.begin() + nPolicies);
  std::sort(ingresses.begin(), ingresses.end());

  if (params.ecmp) {
    fc.routing = topo::generateEcmpPaths(
        g, ingresses, params.pathsPerIngress,
        /*maxPathsPerFlow=*/static_cast<int>(rng.range(2, 3)), rng);
  } else {
    fc.routing = topo::generatePaths(
        g, ingresses, nPolicies * params.pathsPerIngress, rng);
  }
  if (params.trafficDescriptors) {
    topo::assignDstPrefixTraffic(fc.routing, 0x0a000000u /*10.0.0.0*/, 24);
  }

  // Capacities: scaled to the per-policy rule volume, with optional
  // per-switch jitter so some switches become contended.
  const int volume = params.rulesPerPolicy + params.sharedBlacklist;
  for (int sw = 0; sw < g.switchCount(); ++sw) {
    double cap = params.capacityFactor * volume;
    if (params.perSwitchCapacityJitter) {
      cap *= 0.7 + 0.6 * rng.uniform();
    }
    g.sw(sw).capacity = std::max(1, static_cast<int>(std::lround(cap)));
  }

  // Policies.
  if (params.rawCubePolicies) {
    std::vector<std::pair<match::Ternary, acl::Action>> shared;
    for (int i = 0; i < params.sharedBlacklist; ++i) {
      shared.emplace_back(randomCube(rng, params.rawWidth),
                          acl::Action::kDrop);
    }
    for (int i = 0; i < nPolicies; ++i) {
      acl::Policy q =
          rawCubePolicy(rng, params.rulesPerPolicy, params.rawWidth);
      for (const auto& [cube, action] : shared) q.addRule(cube, action);
      fc.policies.push_back(std::move(q));
    }
  } else {
    classbench::GeneratorConfig gen;
    gen.rulesPerPolicy = params.rulesPerPolicy;
    if (params.trafficDescriptors) {
      // Destination-aware rules so path slicing keeps a realistic share.
      for (const auto& ip : fc.routing) {
        for (const auto& path : ip.paths) {
          std::uint32_t subnet = static_cast<std::uint32_t>(path.egress) << 8;
          gen.dstPool.push_back({0x0a000000u | subnet, 24});
        }
      }
      gen.dstPoolProb = 0.75;
    }
    classbench::PolicyGenerator generator(gen, rng.next());
    std::vector<acl::Rule> blacklist;
    if (params.sharedBlacklist > 0) {
      blacklist = generator.globalBlacklist(params.sharedBlacklist);
    }
    for (int i = 0; i < nPolicies; ++i) {
      acl::Policy q = generator.generate();
      if (!blacklist.empty()) {
        classbench::PolicyGenerator::appendShared(q, blacklist);
      }
      fc.policies.push_back(std::move(q));
    }
  }

  fc.problem().validate();
  return fc;
}

FuzzCase generateCase(std::uint64_t seed) {
  util::Rng rng(seed);
  GenParams params = sampleParams(rng);
  return generateCase(params, rng);
}

}  // namespace ruleplace::fuzz
