// ruleplace — command-line rule-placement compiler.
//
// Reads a scenario file (topology + routing + per-ingress policies, see
// src/io/scenario.h for the format), solves the placement, and prints the
// per-switch tables plus a quality report.
//
//   ruleplace <scenario> [options]
//     --merge            enable cross-policy rule merging (§IV-B)
//     --slice            enable path-sliced policies (§IV-C)
//     --sat-only         satisfiability mode, no optimization (§IV-D)
//     --objective O      total-rules | upstream-traffic
//     --remove-redundant run complete redundancy removal first
//     --budget S         time budget in seconds (default: unlimited)
//     --time-limit S     same as --budget; the wall-clock cap covers the
//                        WHOLE run (merge analysis, encoding, every
//                        component's solve), not just CDCL search
//     --ladder           graceful degradation: when the exact solve fails,
//                        retry satisfiability-only, then greedy (§IV-D
//                        extended; see docs/robustness.md)
//     --partial          when some coupling components fail, still return
//                        the verified placement of the ones that succeeded
//     --explain-infeasible  do not place; instead shrink a minimal set of
//                        switches whose capacities make the instance
//                        unplaceable (deletion-based core over Eq. 3)
//     --jobs N           worker threads for independent coupling
//                        components (0 = hardware concurrency; results
//                        are identical for every value)
//     --naive-depgraph   build dependency graphs with the reference O(n²)
//                        scan instead of the overlap index (bit-identical
//                        results, for timing/debugging)
//     --no-depgraph-cache  rebuild every policy's dependency graph instead
//                        of reusing content-identical cached graphs
//     --no-verify        skip the semantic verification pass
//     --quiet            report only (no per-switch tables)
//     --emit-smt2 FILE   export the encoding as SMT-LIB 2 (OMT minimize)
//     --emit-lp FILE     export the encoding in CPLEX LP format
//     --json             print the solved placement + report as JSON
//     --trace-json FILE  write a Chrome-trace-viewer trace of the run
//                        (load at chrome://tracing or ui.perfetto.dev)
//     --metrics          print the flat metrics table (counters, span
//                        aggregates, histograms) after the run

#include <cstdio>
#include <cstring>
#include <string>

#include <fstream>

#include "acl/redundancy.h"
#include "core/explain.h"
#include "core/placer.h"
#include "core/verify.h"
#include "io/export_model.h"
#include "io/json.h"
#include "io/report.h"
#include "io/scenario.h"
#include "obs/obs.h"

using namespace ruleplace;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <scenario-file> [--merge] [--slice] [--sat-only]\n"
               "          [--objective total-rules|upstream-traffic]\n"
               "          [--remove-redundant] [--budget <seconds>]\n"
               "          [--time-limit <seconds>] [--ladder] [--partial]\n"
               "          [--explain-infeasible]\n"
               "          [--jobs <threads>]\n"
               "          [--no-verify] [--quiet]\n"
               "          [--naive-depgraph] [--no-depgraph-cache]\n"
               "          [--trace-json <file>] [--metrics]\n",
               argv0);
  return 2;
}

// Emits observability output on every exit path once main's setup is done
// (the destructor runs whatever return is taken, so the trace includes the
// verification stage).
struct ObsEmitter {
  std::string tracePath;
  bool metrics = false;

  ~ObsEmitter() {
    if (!obs::Registry::global().enabled()) return;
    if (!tracePath.empty()) {
      std::ofstream out(tracePath);
      if (out) {
        out << obs::Registry::global().chromeTraceJson();
        std::fprintf(stderr, "trace written to %s\n", tracePath.c_str());
      } else {
        std::fprintf(stderr, "cannot write %s\n", tracePath.c_str());
      }
    }
    if (metrics) {
      std::printf("\n%s", obs::Registry::global().metricsTable().c_str());
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  std::string scenarioPath;
  core::PlaceOptions options;
  bool verify = true;
  bool quiet = false;
  std::string emitSmt2;
  std::string emitLp;
  bool json = false;
  bool explainInfeasible = false;
  ObsEmitter obsEmit;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--merge") {
      options.encoder.enableMerging = true;
    } else if (arg == "--slice") {
      options.encoder.enablePathSlicing = true;
    } else if (arg == "--sat-only") {
      options.satisfiabilityOnly = true;
    } else if (arg == "--remove-redundant") {
      options.removeRedundancy = true;
    } else if (arg == "--no-verify") {
      verify = false;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--objective" && i + 1 < argc) {
      std::string obj = argv[++i];
      if (obj == "total-rules") {
        options.encoder.objective = core::ObjectiveKind::kTotalRules;
      } else if (obj == "upstream-traffic") {
        options.encoder.objective = core::ObjectiveKind::kUpstreamTraffic;
      } else {
        std::fprintf(stderr, "unknown objective '%s'\n", obj.c_str());
        return usage(argv[0]);
      }
    } else if ((arg == "--budget" || arg == "--time-limit") && i + 1 < argc) {
      options.budget = solver::Budget::seconds(std::atof(argv[++i]));
    } else if (arg == "--ladder") {
      options.resilience.ladder = true;
    } else if (arg == "--partial") {
      options.resilience.partialResults = true;
    } else if (arg == "--explain-infeasible") {
      explainInfeasible = true;
    } else if (arg == "--jobs" && i + 1 < argc) {
      options.threads = std::atoi(argv[++i]);
    } else if (arg == "--naive-depgraph") {
      options.encoder.depgraph.builder = depgraph::BuilderKind::kNaive;
    } else if (arg == "--no-depgraph-cache") {
      options.encoder.depgraph.cache = false;
    } else if (arg == "--emit-smt2" && i + 1 < argc) {
      emitSmt2 = argv[++i];
    } else if (arg == "--emit-lp" && i + 1 < argc) {
      emitLp = argv[++i];
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--trace-json" && i + 1 < argc) {
      obsEmit.tracePath = argv[++i];
      options.observability = true;
    } else if (arg == "--metrics") {
      obsEmit.metrics = true;
      options.observability = true;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return usage(argv[0]);
    } else if (scenarioPath.empty()) {
      scenarioPath = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (scenarioPath.empty()) return usage(argv[0]);

  io::Scenario scenario;
  try {
    io::loadScenarioFile(scenarioPath, scenario);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", scenarioPath.c_str(), e.what());
    return 1;
  }
  core::PlacementProblem problem = scenario.problem();
  if (!json) {
    std::printf(
        "scenario: %d switches, %d entry ports, %d policies, %d paths\n",
        scenario.graph.switchCount(), scenario.graph.entryPortCount(),
        problem.policyCount(), problem.totalPaths());
  }

  if (!emitSmt2.empty() || !emitLp.empty()) {
    // Reproduce the placer's pre-solve pipeline so the exported model is
    // exactly what the built-in backend would solve.
    core::PlacementProblem exportProblem = problem;
    if (options.removeRedundancy) {
      for (auto& q : exportProblem.policies) acl::removeRedundant(q);
    }
    depgraph::MergeAnalysis mergeInfo;
    if (options.encoder.enableMerging) {
      mergeInfo = depgraph::analyzeMergeable(exportProblem.policies);
    }
    core::Encoder encoder(exportProblem, options.encoder,
                          options.encoder.enableMerging ? &mergeInfo
                                                        : nullptr);
    auto writeFile = [&](const std::string& path, const std::string& body) {
      std::ofstream out(path);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
      }
      out << body;
      std::printf("wrote %s\n", path.c_str());
      return true;
    };
    if (!emitSmt2.empty() &&
        !writeFile(emitSmt2, io::toSmtLib2(encoder.model()))) {
      return 1;
    }
    if (!emitLp.empty() && !writeFile(emitLp, io::toCplexLp(encoder.model()))) {
      return 1;
    }
  }

  if (explainInfeasible) {
    if (options.observability) obs::Registry::global().setEnabled(true);
    core::PlacementProblem explainProblem = problem;
    if (options.removeRedundancy) {
      for (auto& q : explainProblem.policies) acl::removeRedundant(q);
    }
    core::InfeasibilityExplanation ex = core::explainInfeasible(
        explainProblem, options.encoder, options.budget);
    std::printf("explain-infeasible (%d solves): %s\n", ex.solves,
                ex.summary(explainProblem).c_str());
    return ex.confirmedInfeasible ? 0 : 1;
  }

  core::PlaceOutcome out = core::place(problem, options);
  if (!json) {
    std::printf("status  : %s", solver::toString(out.status));
    if (out.hasSolution()) {
      std::printf(", objective %lld", static_cast<long long>(out.objective));
    }
    if (out.partial) {
      std::printf(", partial (%d/%d components failed)",
                  out.failedComponents,
                  static_cast<int>(out.componentStats.size()));
    }
    if (out.degraded) {
      std::printf(", degraded to %s", core::toString(out.rung));
    }
    std::printf(
        "  (encode %.1f ms, solve %.1f ms, %d vars, %lld constraints)\n",
        out.encodeSeconds * 1e3, out.solveSeconds * 1e3, out.modelVars,
        static_cast<long long>(out.modelConstraints));
    if (out.failure) {
      std::printf("failure : stage=%s status=%s after %.3fs: %s\n",
                  core::toString(out.failure->stage),
                  solver::toString(out.failure->status),
                  out.failure->elapsedSeconds, out.failure->message.c_str());
    }
  } else if (!out.hasAnyPlacement()) {
    std::printf("{\"status\":\"%s\"}\n", solver::toString(out.status));
  }
  if (!out.hasAnyPlacement()) return 1;

  // For a partial placement only the successful components' policies have
  // (and must pass) semantics; capacity limits are always checked in full.
  std::vector<int> verifyPolicies;
  if (out.partial) {
    for (const auto& c : out.componentStats) {
      const bool solved = c.status == solver::OptStatus::kOptimal ||
                          c.status == solver::OptStatus::kFeasible;
      if (!solved) continue;
      verifyPolicies.insert(verifyPolicies.end(), c.policyIds.begin(),
                            c.policyIds.end());
    }
  }
  const std::vector<int>* verifySubset = out.partial ? &verifyPolicies
                                                     : nullptr;

  if (json) {
    std::printf("{\"placement\":%s,\"report\":%s}\n",
                io::placementToJson(out.solvedProblem, out.placement).c_str(),
                io::reportToJson(io::analyzePlacement(out)).c_str());
    if (verify) {
      return core::verifyPlacement(out.solvedProblem, out.placement,
                                   options.encoder.enablePathSlicing,
                                   verifySubset)
                     .ok
                 ? 0
                 : 1;
    }
    return 0;
  }

  if (!quiet) {
    std::printf("\nper-switch tables:\n%s",
                io::formatPlacement(out.solvedProblem, out.placement)
                    .c_str());
    std::printf("\nutilization:\n%s",
                io::utilizationTable(out.solvedProblem, out.placement)
                    .c_str());
  }
  std::printf("\n%s", io::analyzePlacement(out).toString().c_str());
  if (!quiet &&
      (out.componentStats.size() > 1 || out.degraded || out.failure)) {
    std::printf("\ncoupling components:\n%s",
                io::componentTable(out).c_str());
  }

  if (verify) {
    core::VerifyResult check = core::verifyPlacement(
        out.solvedProblem, out.placement, options.encoder.enablePathSlicing,
        verifySubset);
    std::printf("\nsemantic verification: %s%s\n",
                out.partial ? "(partial, successful components only) " : "",
                check.summary().c_str());
    if (!check.ok) return 1;
  }
  return 0;
}
