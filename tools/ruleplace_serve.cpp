// ruleplace_serve — long-lived placement daemon.
//
// Holds a scenario's deployment warm in per-ingress incremental solver
// sessions and applies a stream of route/policy/capacity events (one JSON
// object per line, see src/serve/protocol.h and docs/serve.md), answering
// each with one JSON response line.
//
//   ruleplace_serve <scenario> [options]         serve stdin -> stdout
//   ruleplace_serve --churn [churn opts]         self-drive the generated
//                                                fat-tree churn stream (or
//                                                serve stdin over its
//                                                scenario with --events 0)
//   ruleplace_serve --gen-trace FILE [churn opts]
//                                                write the churn trace (and
//                                                with --gen-scenario FILE
//                                                the scenario) and exit
//
//   --shards N         ingress shards (default 1; capacity events need 1)
//   --workers N        drain worker threads (default min(shards, hardware))
//   --debounce-ms D    coalescing window; 0 = drain eagerly (default)
//   --max-batch N      events per coalesced batch (default 256)
//   --coalesce-all     deterministic replay mode: one shard, no automatic
//                      draining, unbounded batch — the whole stream folds
//                      into one batch sequence at flush/shutdown
//   --replay FILE      read request lines from FILE instead of stdin
//   --replay-check     after the stream ends: flush and require the final
//                      placement to be bit-identical to a one-shot install
//                      of the end state (installs-only traces; exit 1 on
//                      divergence)
//   --verify-final     after the stream ends: flush and semantically verify
//                      the composed placement (exit 1 on failure)
//   --event-timeout S  per-event wall-clock budget in seconds (default 10,
//                      a backstop; -1 = unlimited)
//   --event-conflicts N  per-event solver conflict budget (default 10000,
//                      the deterministic bound; -1 = unlimited)
//   --optimize         optimize each event's objective instead of
//                      satisfiability-only re-solves
//   --no-escalate      never escalate an infeasible event to a full solve
//   --rebase N         committed events between session rebases (0 = never)
//   --route-seed S     seed for deterministic path tie-breaking
//   --quiet            suppress per-event acks (errors and query responses
//                      still print)
//   --metrics          enable observability counters/histograms
//   --journal DIR      write-ahead journal directory; on startup the daemon
//                      recovers from the newest usable {snapshot + wal}
//                      generation found there (docs/serve.md "Durability")
//   --journal-fsync M  always | batch (default) | none
//   --snapshot-every N appended events between snapshot cuts (default 8192,
//                      0 = never)
//   --max-queue N      admission control: shed events once a shard queue
//                      holds N events (0 = unbounded, the default); see
//                      docs/serve.md "Backpressure"
//
// Churn options (--churn / --gen-trace): --k N, --capacity N, --base N,
// --rules N, --events N, --seed S, --install-w W, --reroute-w W,
// --capacity-w W, --uninstall-w W, --query-every N.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "io/scenario.h"
#include "serve/churn_gen.h"
#include "serve/daemon.h"

using namespace ruleplace;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <scenario-file> [options]\n"
               "       %s --churn [churn options] [options]\n"
               "       %s --gen-trace FILE [--gen-scenario FILE] [churn "
               "options]\n"
               "see the header of tools/ruleplace_serve.cpp for the full "
               "option list\n",
               argv0, argv0, argv0);
  return 2;
}

bool parseLong(const char* s, long long* out) {
  char* end = nullptr;
  *out = std::strtoll(s, &end, 10);
  return end != s && *end == '\0';
}

bool parseDouble(const char* s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenarioPath;
  std::string replayPath;
  std::string genTracePath;
  std::string genScenarioPath;
  bool churn = false;
  bool quiet = false;
  bool replayCheck = false;
  bool verifyFinal = false;
  bool coalesceAll = false;
  serve::DaemonOptions opts;
  serve::ChurnConfig churnCfg;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto needValue = [&](long long* out) {
      return i + 1 < argc && parseLong(argv[++i], out);
    };
    auto needDouble = [&](double* out) {
      return i + 1 < argc && parseDouble(argv[++i], out);
    };
    long long n = 0;
    double d = 0.0;
    if (std::strcmp(a, "--churn") == 0) {
      churn = true;
    } else if (std::strcmp(a, "--gen-trace") == 0 && i + 1 < argc) {
      genTracePath = argv[++i];
    } else if (std::strcmp(a, "--gen-scenario") == 0 && i + 1 < argc) {
      genScenarioPath = argv[++i];
    } else if (std::strcmp(a, "--replay") == 0 && i + 1 < argc) {
      replayPath = argv[++i];
    } else if (std::strcmp(a, "--replay-check") == 0) {
      replayCheck = true;
    } else if (std::strcmp(a, "--verify-final") == 0) {
      verifyFinal = true;
    } else if (std::strcmp(a, "--coalesce-all") == 0) {
      coalesceAll = true;
    } else if (std::strcmp(a, "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(a, "--metrics") == 0) {
      opts.observability = true;
    } else if (std::strcmp(a, "--journal") == 0 && i + 1 < argc) {
      opts.journalDir = argv[++i];
    } else if (std::strcmp(a, "--journal-fsync") == 0 && i + 1 < argc) {
      const char* mode = argv[++i];
      if (std::strcmp(mode, "always") == 0) {
        opts.journalFsync = serve::FsyncMode::kAlways;
      } else if (std::strcmp(mode, "batch") == 0) {
        opts.journalFsync = serve::FsyncMode::kBatch;
      } else if (std::strcmp(mode, "none") == 0) {
        opts.journalFsync = serve::FsyncMode::kNever;
      } else {
        std::fprintf(stderr, "--journal-fsync wants always|batch|none\n");
        return usage(argv[0]);
      }
    } else if (std::strcmp(a, "--snapshot-every") == 0 && needValue(&n)) {
      opts.snapshotEveryEvents = n;
    } else if (std::strcmp(a, "--max-queue") == 0 && needValue(&n)) {
      opts.maxQueue = static_cast<std::size_t>(n);
    } else if (std::strcmp(a, "--optimize") == 0) {
      opts.satisfiabilityOnly = false;
    } else if (std::strcmp(a, "--no-escalate") == 0) {
      opts.escalate = false;
    } else if (std::strcmp(a, "--shards") == 0 && needValue(&n)) {
      opts.shards = static_cast<int>(n);
    } else if (std::strcmp(a, "--workers") == 0 && needValue(&n)) {
      opts.workers = static_cast<int>(n);
    } else if (std::strcmp(a, "--max-batch") == 0 && needValue(&n)) {
      opts.maxBatch = static_cast<std::size_t>(n);
    } else if (std::strcmp(a, "--rebase") == 0 && needValue(&n)) {
      opts.rebaseEvents = static_cast<int>(n);
    } else if (std::strcmp(a, "--route-seed") == 0 && needValue(&n)) {
      opts.routeSeed = static_cast<std::uint64_t>(n);
    } else if (std::strcmp(a, "--event-conflicts") == 0 && needValue(&n)) {
      opts.eventConflictBudget = n;
    } else if (std::strcmp(a, "--debounce-ms") == 0 && needDouble(&d)) {
      opts.debounceSeconds = d / 1000.0;
    } else if (std::strcmp(a, "--event-timeout") == 0 && needDouble(&d)) {
      opts.eventTimeoutSeconds = d;
    } else if (std::strcmp(a, "--k") == 0 && needValue(&n)) {
      churnCfg.fatTreeK = static_cast<int>(n);
    } else if (std::strcmp(a, "--capacity") == 0 && needValue(&n)) {
      churnCfg.switchCapacity = static_cast<int>(n);
    } else if (std::strcmp(a, "--base") == 0 && needValue(&n)) {
      churnCfg.basePolicies = static_cast<int>(n);
    } else if (std::strcmp(a, "--rules") == 0 && needValue(&n)) {
      churnCfg.rulesPerPolicy = static_cast<int>(n);
    } else if (std::strcmp(a, "--events") == 0 && needValue(&n)) {
      churnCfg.events = n;
    } else if (std::strcmp(a, "--seed") == 0 && needValue(&n)) {
      churnCfg.seed = static_cast<std::uint64_t>(n);
    } else if (std::strcmp(a, "--install-w") == 0 && needDouble(&d)) {
      churnCfg.installWeight = d;
    } else if (std::strcmp(a, "--reroute-w") == 0 && needDouble(&d)) {
      churnCfg.rerouteWeight = d;
    } else if (std::strcmp(a, "--capacity-w") == 0 && needDouble(&d)) {
      churnCfg.capacityWeight = d;
    } else if (std::strcmp(a, "--uninstall-w") == 0 && needDouble(&d)) {
      churnCfg.uninstallWeight = d;
    } else if (std::strcmp(a, "--query-every") == 0 && needValue(&n)) {
      churnCfg.queryEvery = static_cast<int>(n);
    } else if (a[0] != '-' && scenarioPath.empty()) {
      scenarioPath = a;
    } else {
      std::fprintf(stderr, "unknown or malformed option: %s\n", a);
      return usage(argv[0]);
    }
  }

  try {
    if (!genTracePath.empty()) {
      // Render the scenario first: one that cannot be written (say, two
      // base policies on one ingress port) fails before any file is.
      std::string scenarioText;
      if (!genScenarioPath.empty()) {
        io::Scenario scenario;
        serve::churnScenario(churnCfg, scenario);
        scenarioText = io::formatScenario(scenario.problem());
      }
      const std::vector<std::string> lines =
          serve::churnLines(churnCfg, 0, churnCfg.events);
      std::ofstream trace(genTracePath);
      if (!trace) {
        std::fprintf(stderr, "cannot write %s\n", genTracePath.c_str());
        return 1;
      }
      for (const std::string& line : lines) trace << line << '\n';
      if (!genScenarioPath.empty()) {
        std::ofstream sf(genScenarioPath);
        if (!sf) {
          std::fprintf(stderr, "cannot write %s\n", genScenarioPath.c_str());
          return 1;
        }
        sf << scenarioText;
      }
      std::fprintf(stderr, "wrote %lld trace lines to %s\n",
                   static_cast<long long>(churnCfg.events),
                   genTracePath.c_str());
      return 0;
    }

    if (scenarioPath.empty() && !churn) return usage(argv[0]);

    io::Scenario scenario;
    if (churn) {
      serve::churnScenario(churnCfg, scenario);
    } else {
      io::loadScenarioFile(scenarioPath, scenario);
    }

    if (coalesceAll) {
      opts.shards = 1;
      opts.debounceSeconds = -1.0;  // drain only at flush/shutdown
      opts.maxBatch = static_cast<std::size_t>(-1);
    }
    serve::Daemon daemon(scenario, opts);
    if (!opts.journalDir.empty()) {
      if (daemon.recovered()) {
        std::fprintf(stderr, "serve: recovered state from %s\n",
                     opts.journalDir.c_str());
      }
      for (const std::string& diag : daemon.recoveryDiagnostics()) {
        std::fprintf(stderr, "serve: recovery: %s\n", diag.c_str());
      }
    }

    std::ifstream replayFile;
    std::istream* in = &std::cin;
    if (!replayPath.empty()) {
      replayFile.open(replayPath);
      if (!replayFile) {
        std::fprintf(stderr, "cannot read %s\n", replayPath.c_str());
        return 1;
      }
      in = &replayFile;
    }

    const auto handle = [&](const std::string& request) {
      const std::string response = daemon.handleLine(request);
      // In quiet mode, plain acks ({"ok":true,"seq":N}) are suppressed.
      const bool ack = response.rfind("{\"ok\":true,\"seq\":", 0) == 0;
      if (!quiet || !ack) {
        std::cout << response << '\n';
      }
    };

    if (churn && replayPath.empty() && churnCfg.events > 0) {
      // Self-driven churn: synthesize the event stream in slabs instead of
      // reading stdin, so `--churn --events N` is a standalone smoke run.
      constexpr std::int64_t kSlab = 1024;
      for (std::int64_t first = 0;
           first < churnCfg.events && !daemon.stopped(); first += kSlab) {
        const std::int64_t count =
            std::min(kSlab, churnCfg.events - first);
        for (const std::string& l :
             serve::churnLines(churnCfg, first, count)) {
          handle(l);
        }
      }
    } else {
      std::string line;
      while (!daemon.stopped() && std::getline(*in, line)) {
        if (line.empty() || line[0] == '#') continue;
        handle(line);
      }
    }
    daemon.flush();

    int rc = 0;
    if (replayCheck) {
      const std::string divergence = daemon.oneShotDivergence();
      if (divergence.empty()) {
        std::fprintf(stderr, "replay-check: placement bit-identical to "
                             "one-shot install\n");
      } else {
        std::fprintf(stderr, "replay-check FAILED: %s\n", divergence.c_str());
        rc = 1;
      }
    }
    if (verifyFinal) {
      const serve::Daemon::Composed composed = daemon.compose();
      const core::VerifyResult v =
          core::verifyPlacement(composed.problem, composed.placement);
      if (v.ok) {
        std::fprintf(stderr, "verify-final: composed placement verified (%s)\n",
                     v.summary().c_str());
      } else {
        std::fprintf(stderr, "verify-final FAILED: %s\n",
                     v.errors.empty() ? "?" : v.errors.front().c_str());
        rc = 1;
      }
    }
    const serve::Daemon::Stats st = daemon.stats();
    std::fprintf(stderr,
                 "serve: %lld committed, %lld failed, %lld coalesced, "
                 "%lld batches, %lld solves, p99 %.3f ms\n",
                 static_cast<long long>(st.totals.committed),
                 static_cast<long long>(st.totals.failed),
                 static_cast<long long>(st.totals.coalesced),
                 static_cast<long long>(st.totals.batches),
                 static_cast<long long>(st.totals.solves), st.p99UpdateMs);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
