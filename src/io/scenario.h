#pragma once
// Scenario files: a whole placement problem in one text file.
//
// Grammar (one directive per line, '#' comments):
//
//     switch <name> capacity <n> [role edge|agg|core]
//     link <switch> <switch>
//     port <name> switch <switch>
//     path <ingress-port> <egress-port> via <switch> ... [traffic-dst <prefix>]
//     policy <ingress-port>
//         permit src 10.0.0.0/8 ...      # policy_text.h rule lines
//         drop ...
//     end
//
// Every ingress port named by a `path` must have exactly one `policy`
// block.  The loader assembles a validated core::PlacementProblem over a
// Scenario-owned graph.

#include <string>
#include <string_view>
#include <vector>

#include "core/problem.h"
#include "io/policy_text.h"
#include "topo/graph.h"
#include "topo/routing.h"

namespace ruleplace::io {

/// A parsed scenario.  Owns the graph its problem() view points into;
/// non-copyable and non-movable for pointer stability.
class Scenario {
 public:
  Scenario() = default;
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  topo::Graph graph;
  std::vector<topo::IngressPaths> routing;
  std::vector<acl::Policy> policies;

  /// A problem view over this scenario (policies copied).
  core::PlacementProblem problem() const {
    return {&graph, routing, policies, {}};
  }
};

/// Parse scenario text into `out` (which must be default-constructed).
/// Throws ParseError with line info on malformed input.
void parseScenario(std::string_view text, Scenario& out);

/// Load a scenario from a file path (wraps parseScenario).
/// Throws std::runtime_error if the file cannot be read.
void loadScenarioFile(const std::string& path, Scenario& out);

/// Render a problem back to scenario text (round-trips via parseScenario;
/// traffic descriptors render as `traffic-dst` when they are dst-prefix
/// cubes, and are rejected otherwise).  Throws std::invalid_argument when
/// two policies share an ingress port, which the format cannot hold.
std::string formatScenario(const core::PlacementProblem& problem);

}  // namespace ruleplace::io
