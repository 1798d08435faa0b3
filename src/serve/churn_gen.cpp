#include "serve/churn_gen.h"

#include <stdexcept>
#include <utility>

#include "classbench/generator.h"
#include "io/policy_text.h"
#include "topo/fattree.h"
#include "topo/routing.h"
#include "util/append.h"
#include "util/rng.h"

namespace ruleplace::serve {

namespace {

classbench::GeneratorConfig policyConfig(const ChurnConfig& config) {
  classbench::GeneratorConfig g;
  g.rulesPerPolicy = config.rulesPerPolicy;
  return g;
}

int hostPortsFor(int k) { return k * k * k / 4; }

}  // namespace

void churnScenario(const ChurnConfig& config, io::Scenario& out) {
  const topo::FatTreeInfo info =
      topo::buildFatTree(out.graph, config.fatTreeK, config.switchCapacity);
  if (config.basePolicies < 1) {
    throw std::invalid_argument("churn: basePolicies must be >= 1");
  }
  util::Rng rng(config.seed);
  classbench::PolicyGenerator gen(policyConfig(config), config.seed);
  topo::ShortestPathRouter router(out.graph);
  for (int i = 0; i < config.basePolicies; ++i) {
    const topo::PortId ingress = i % info.hostPorts;
    const topo::PortId egress =
        (ingress + 1 +
         static_cast<topo::PortId>(rng.below(
             static_cast<std::uint64_t>(info.hostPorts - 1)))) %
        info.hostPorts;
    topo::IngressPaths r;
    r.ingress = ingress;
    r.paths.push_back(router.route(ingress, egress, rng));
    out.routing.push_back(std::move(r));
    out.policies.push_back(gen.generate());
  }
}

std::vector<std::string> churnLines(const ChurnConfig& config,
                                    std::int64_t first, std::int64_t count) {
  const int hostPorts = hostPortsFor(config.fatTreeK);
  const int switchCount = 5 * config.fatTreeK * config.fatTreeK / 4;
  const bool hasUninstall = config.uninstallWeight > 0.0;
  const double total = config.installWeight + config.rerouteWeight +
                       config.capacityWeight + config.uninstallWeight;
  if (total <= 0.0) {
    throw std::invalid_argument("churn: event weights sum to zero");
  }
  util::Rng root(config.seed);

  const auto isQuery = [&](std::int64_t i) {
    return config.queryEvery > 0 && (i + 1) % config.queryEvery == 0;
  };
  // Bresenham install schedule (uninstall mode only): installs land where
  // the running total floor(i * wi) steps, so any line can know every
  // earlier install line without replaying the stream.
  const double wi = config.installWeight / total;
  const auto scheduledInstall = [&](std::int64_t i) {
    return static_cast<std::int64_t>(static_cast<double>(i + 1) * wi) -
               static_cast<std::int64_t>(static_cast<double>(i) * wi) ==
           1;
  };
  const auto isInstallLine = [&](std::int64_t i) {
    return !isQuery(i) && scheduledInstall(i);
  };
  // Whether non-install line i rolls an uninstall (pure function of i).
  const double wRest =
      config.uninstallWeight + config.rerouteWeight + config.capacityWeight;
  const auto rollsUninstall = [&](std::int64_t i) {
    util::Rng probe = root.stream(static_cast<std::uint64_t>(i));
    return probe.uniform() * wRest < config.uninstallWeight;
  };
  const auto isUninstallLine = [&](std::int64_t i) {
    return !isQuery(i) && !scheduledInstall(i) && rollsUninstall(i);
  };

  std::vector<std::string> lines;
  lines.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = first; i < first + count; ++i) {
    if (isQuery(i)) {
      lines.push_back("{\"op\":\"query\",\"what\":\"stats\"}");
      continue;
    }
    // Line i is a pure function of (seed, i): replayable in slabs.
    util::Rng rng = root.stream(static_cast<std::uint64_t>(i));
    const double pick = rng.uniform() * (hasUninstall ? wRest : total);
    std::string line;

    const auto makeInstall = [&] {
      const int ingress = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(hostPorts)));
      const int egress =
          (ingress + 1 +
           static_cast<int>(
               rng.below(static_cast<std::uint64_t>(hostPorts - 1)))) %
          hostPorts;
      classbench::PolicyGenerator gen(policyConfig(config),
                                      config.seed ^ (0x9e3779b9u + i));
      const acl::Policy policy = gen.generate();
      line = "{\"op\":\"install\",\"seq\":" + std::to_string(i) +
             ",\"ingress\":" + std::to_string(ingress) +
             ",\"egress\":" + std::to_string(egress) + ",\"rules\":[";
      const auto& rules = policy.rules();
      for (std::size_t r = 0; r < rules.size(); ++r) {
        if (r > 0) line += ',';
        std::string text =
            rules[r].action == acl::Action::kDrop ? "drop " : "permit ";
        io::appendMatch(text, rules[r].matchField);
        util::appendJsonString(line, text);
      }
      line += "]}";
    };
    const auto makeReroute = [&] {
      // Reroutes target base policies only, keeping each line independent
      // of how many installs happened to precede it.
      const int policy = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(config.basePolicies)));
      const int egress = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(hostPorts)));
      line = "{\"op\":\"reroute\",\"seq\":" + std::to_string(i) +
             ",\"policy\":" + std::to_string(policy) +
             ",\"egress\":" + std::to_string(egress) + "}";
    };
    const auto makeCapacity = [&] {
      // Capacity wiggle: never below the initial capacity, so the base
      // deployment always stays feasible (a shrink back after installs
      // grew into the headroom exercises the re-place path, by design).
      const int sw = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(switchCount)));
      const int cap =
          config.switchCapacity + static_cast<int>(rng.below(64));
      line = "{\"op\":\"capacity\",\"seq\":" + std::to_string(i) +
             ",\"switch\":" + std::to_string(sw) +
             ",\"capacity\":" + std::to_string(cap) + "}";
    };
    // Uninstall the newest preceding install within a bounded probe window,
    // unless a nearer uninstall already claimed it; demote to a reroute
    // when no target exists, so every line still emits one event.
    const auto makeUninstall = [&] {
      std::int64_t target = -1;
      const std::int64_t floor = std::max<std::int64_t>(0, i - 64);
      for (std::int64_t q = i - 1; q >= floor; --q) {
        if (isInstallLine(q)) {
          target = q;
          break;
        }
        if (isUninstallLine(q)) break;  // it claims the same install
      }
      if (target < 0) {
        makeReroute();
        return;
      }
      line = "{\"op\":\"uninstall\",\"seq\":" + std::to_string(i) +
             ",\"install_seq\":" + std::to_string(target) + "}";
    };

    if (hasUninstall) {
      if (scheduledInstall(i)) {
        makeInstall();
      } else if (pick < config.uninstallWeight) {
        makeUninstall();
      } else if (pick < config.uninstallWeight + config.rerouteWeight) {
        makeReroute();
      } else {
        makeCapacity();
      }
    } else {
      if (pick < config.installWeight) {
        makeInstall();
      } else if (pick < config.installWeight + config.rerouteWeight) {
        makeReroute();
      } else {
        makeCapacity();
      }
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

}  // namespace ruleplace::serve
