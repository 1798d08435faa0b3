#include "io/scenario.h"

#include <charconv>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "match/tuple5.h"

namespace ruleplace::io {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

int parseIntTok(const std::string& s, int line, const char* what) {
  int value = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    throw ParseError(line, std::string("invalid ") + what + " '" + s + "'");
  }
  return value;
}

}  // namespace

void parseScenario(std::string_view text, Scenario& out) {
  std::map<std::string, topo::SwitchId> switchByName;
  std::map<std::string, topo::PortId> portByName;
  std::map<topo::PortId, std::vector<topo::Path>> pathsByIngress;
  std::map<topo::PortId, acl::Policy> policyByIngress;

  std::istringstream stream{std::string(text)};
  std::string line;
  int lineNo = 0;

  auto lookupSwitch = [&](const std::string& name, int ln) {
    auto it = switchByName.find(name);
    if (it == switchByName.end()) {
      throw ParseError(ln, "unknown switch '" + name + "'");
    }
    return it->second;
  };
  auto lookupPort = [&](const std::string& name, int ln) {
    auto it = portByName.find(name);
    if (it == portByName.end()) {
      throw ParseError(ln, "unknown port '" + name + "'");
    }
    return it->second;
  };

  while (std::getline(stream, line)) {
    ++lineNo;
    std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string& cmd = tokens[0];

    if (cmd == "switch") {
      // switch <name> capacity <n> [role edge|agg|core]
      if (tokens.size() < 4 || tokens[2] != "capacity") {
        throw ParseError(lineNo, "usage: switch <name> capacity <n> [role r]");
      }
      if (switchByName.count(tokens[1]) != 0) {
        throw ParseError(lineNo, "duplicate switch '" + tokens[1] + "'");
      }
      topo::SwitchRole role = topo::SwitchRole::kGeneric;
      if (tokens.size() >= 6 && tokens[4] == "role") {
        if (tokens[5] == "edge") {
          role = topo::SwitchRole::kEdge;
        } else if (tokens[5] == "agg") {
          role = topo::SwitchRole::kAggregation;
        } else if (tokens[5] == "core") {
          role = topo::SwitchRole::kCore;
        } else {
          throw ParseError(lineNo, "unknown role '" + tokens[5] + "'");
        }
      }
      switchByName[tokens[1]] = out.graph.addSwitch(
          parseIntTok(tokens[3], lineNo, "capacity"), role, tokens[1]);
    } else if (cmd == "link") {
      if (tokens.size() != 3) throw ParseError(lineNo, "usage: link <a> <b>");
      try {
        out.graph.addLink(lookupSwitch(tokens[1], lineNo),
                          lookupSwitch(tokens[2], lineNo));
      } catch (const std::invalid_argument& e) {
        throw ParseError(lineNo, e.what());
      }
    } else if (cmd == "port") {
      if (tokens.size() != 4 || tokens[2] != "switch") {
        throw ParseError(lineNo, "usage: port <name> switch <sw>");
      }
      if (portByName.count(tokens[1]) != 0) {
        throw ParseError(lineNo, "duplicate port '" + tokens[1] + "'");
      }
      portByName[tokens[1]] =
          out.graph.addEntryPort(lookupSwitch(tokens[3], lineNo), tokens[1]);
    } else if (cmd == "path") {
      // path <in> <out> via <sw>... [traffic-dst <prefix>]
      if (tokens.size() < 5 || tokens[3] != "via") {
        throw ParseError(lineNo,
                         "usage: path <in> <out> via <sw>... [traffic-dst p]");
      }
      topo::Path path;
      path.ingress = lookupPort(tokens[1], lineNo);
      path.egress = lookupPort(tokens[2], lineNo);
      std::size_t i = 4;
      for (; i < tokens.size() && tokens[i] != "traffic-dst"; ++i) {
        path.switches.push_back(lookupSwitch(tokens[i], lineNo));
      }
      if (i < tokens.size()) {
        if (i + 1 >= tokens.size()) {
          throw ParseError(lineNo, "traffic-dst: missing prefix");
        }
        // Reuse the rule-line parser for the prefix.
        match::Ternary field;
        acl::Action action;
        parseRuleLine("permit dst " + tokens[i + 1], lineNo, &field, &action);
        path.traffic = field;
      }
      pathsByIngress[path.ingress].push_back(std::move(path));
    } else if (cmd == "policy") {
      if (tokens.size() != 2) throw ParseError(lineNo, "usage: policy <port>");
      topo::PortId port = lookupPort(tokens[1], lineNo);
      if (policyByIngress.count(port) != 0) {
        throw ParseError(lineNo, "duplicate policy for '" + tokens[1] + "'");
      }
      acl::Policy policy;
      bool ended = false;
      while (std::getline(stream, line)) {
        ++lineNo;
        std::size_t h2 = line.find('#');
        std::string stripped = line.substr(0, h2);
        auto inner = tokenize(stripped);
        if (!inner.empty() && inner[0] == "end") {
          ended = true;
          break;
        }
        match::Ternary field;
        acl::Action action;
        if (parseRuleLine(stripped, lineNo, &field, &action)) {
          policy.addRule(field, action);
        }
      }
      if (!ended) throw ParseError(lineNo, "policy block missing 'end'");
      policyByIngress[port] = std::move(policy);
    } else {
      throw ParseError(lineNo, "unknown directive '" + cmd + "'");
    }
  }

  // Assemble: one IngressPaths + Policy per ingress, in port order.
  for (auto& [port, paths] : pathsByIngress) {
    auto pit = policyByIngress.find(port);
    if (pit == policyByIngress.end()) {
      throw ParseError(lineNo, "ingress '" +
                                   out.graph.entryPort(port).name +
                                   "' has paths but no policy block");
    }
    out.routing.push_back({port, std::move(paths)});
    out.policies.push_back(std::move(pit->second));
    policyByIngress.erase(pit);
  }
  if (!policyByIngress.empty()) {
    throw ParseError(lineNo,
                     "policy without any path for its ingress port");
  }
  out.problem().validate();
}

void loadScenarioFile(const std::string& path, Scenario& out) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open scenario file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  parseScenario(buffer.str(), out);
}

std::string formatScenario(const core::PlacementProblem& problem) {
  std::ostringstream os;
  const topo::Graph& g = *problem.graph;
  for (int sw = 0; sw < g.switchCount(); ++sw) {
    os << "switch " << g.sw(sw).name << " capacity " << problem.capacityOf(sw);
    switch (g.sw(sw).role) {
      case topo::SwitchRole::kEdge: os << " role edge"; break;
      case topo::SwitchRole::kAggregation: os << " role agg"; break;
      case topo::SwitchRole::kCore: os << " role core"; break;
      case topo::SwitchRole::kGeneric: break;
    }
    os << '\n';
  }
  for (int sw = 0; sw < g.switchCount(); ++sw) {
    for (topo::SwitchId nb : g.neighbors(sw)) {
      if (nb > sw) {
        os << "link " << g.sw(sw).name << ' ' << g.sw(nb).name << '\n';
      }
    }
  }
  for (const auto& port : g.entryPorts()) {
    os << "port " << port.name << " switch "
       << g.sw(port.attachedSwitch).name << '\n';
  }
  // The format keys each policy by its ingress port: a second policy on
  // the same port would not read back.
  std::vector<char> hasPolicy(g.entryPorts().size(), 0);
  for (std::size_t i = 0; i < problem.routing.size(); ++i) {
    const auto& ip = problem.routing[i];
    if (std::exchange(hasPolicy.at(static_cast<std::size_t>(ip.ingress)), 1)) {
      throw std::invalid_argument(
          "formatScenario: two policies share ingress port '" +
          g.entryPort(ip.ingress).name +
          "'; a scenario holds one policy per ingress port");
    }
    for (const auto& path : ip.paths) {
      os << "path " << g.entryPort(path.ingress).name << ' '
         << g.entryPort(path.egress).name << " via";
      for (topo::SwitchId sw : path.switches) os << ' ' << g.sw(sw).name;
      if (path.traffic.has_value()) {
        const auto t = match::Tuple5::fromTernary(*path.traffic);
        if (!t || *path.traffic != match::dstPrefixCube(t->dst)) {
          throw std::invalid_argument(
              "formatScenario: only dst-prefix traffic descriptors render");
        }
        os << " traffic-dst " << t->dst.toString();
      }
      os << '\n';
    }
    os << "policy " << g.entryPort(ip.ingress).name << '\n';
    std::istringstream rules(formatPolicy(problem.policies[i]));
    std::string r;
    while (std::getline(rules, r)) os << "    " << r << '\n';
    os << "end\n";
  }
  return os.str();
}

}  // namespace ruleplace::io
