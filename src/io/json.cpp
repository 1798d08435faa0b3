#include "io/json.h"

#include <sstream>

#include "io/policy_text.h"
#include "util/append.h"

namespace ruleplace::io {

std::string jsonEscape(const std::string& s) {
  std::string quoted;
  util::appendJsonString(quoted, s);
  return quoted.substr(1, quoted.size() - 2);
}

void appendPlacementJson(std::string& out,
                         const core::PlacementProblem& problem,
                         const core::Placement& placement) {
  // An entry renders to about 118 bytes at the k=32 center point.
  out.reserve(out.size() +
              128 * static_cast<std::size_t>(placement.totalInstalledRules()));
  out += "{\"switches\":[";
  bool firstSwitch = true;
  for (int sw = 0; sw < placement.switchCount(); ++sw) {
    const auto& table = placement.table(sw);
    if (table.empty()) continue;
    if (!firstSwitch) out.push_back(',');
    firstSwitch = false;
    out += "{\"name\":";
    util::appendJsonString(out, problem.graph->sw(sw).name);
    out += ",\"capacity\":";
    util::appendInt(out, problem.capacityOf(sw));
    out += ",\"entries\":[";
    for (std::size_t e = 0; e < table.size(); ++e) {
      const auto& r = table[e];
      if (e != 0) out.push_back(',');
      out += "{\"priority\":";
      util::appendInt(out, r.priority);
      out += r.action == acl::Action::kDrop ? ",\"action\":\"drop\""
                                            : ",\"action\":\"permit\"";
      out += ",\"match\":\"";
      appendMatch(out, r.matchField);  // needs no escaping
      out += "\",\"tags\":[";
      for (std::size_t t = 0; t < r.tags.size(); ++t) {
        if (t != 0) out.push_back(',');
        util::appendInt(out, r.tags[t]);
      }
      out += r.merged ? "],\"merged\":true}" : "],\"merged\":false}";
    }
    out += "]}";
  }
  out += "]}";
}

std::string placementToJson(const core::PlacementProblem& problem,
                            const core::Placement& placement) {
  std::string out;
  appendPlacementJson(out, problem, placement);
  return out;
}

std::string reportToJson(const PlacementReport& report) {
  std::ostringstream os;
  os << "{\"rules_installed\":" << report.totalInstalled
     << ",\"required_rules\":" << report.requiredRules
     << ",\"duplication_overhead_pct\":" << report.duplicationOverheadPct
     << ",\"replicate_all_rules\":" << report.replicateAllRules
     << ",\"switches_used\":" << report.switchesUsed
     << ",\"max_switch_load\":" << report.maxSwitchLoad
     << ",\"mean_switch_load_pct\":" << report.meanSwitchLoadPct
     << ",\"merged_entries\":" << report.mergedEntries
     << ",\"components\":" << report.components
     << ",\"threads_used\":" << report.threadsUsed
     << ",\"solver_conflicts\":" << report.solverConflicts
     << ",\"solver_propagations\":" << report.solverPropagations
     << ",\"solver_restarts\":" << report.solverRestarts
     << ",\"solve_wall_seconds\":" << report.solveWallSeconds
     << ",\"solve_cpu_seconds\":" << report.solveCpuSeconds << '}';
  return os.str();
}

}  // namespace ruleplace::io
