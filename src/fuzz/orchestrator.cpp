#include "fuzz/orchestrator.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <limits>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>

#include "fuzz/mutator.h"
#include "fuzz/reproducer.h"

namespace ruleplace::fuzz {

namespace {

using Clock = std::chrono::steady_clock;

/// Result of checking one (case, mode) pair inside an iteration.
struct IterationOutcome {
  std::int64_t casesChecked = 0;
  std::int64_t modesChecked = 0;
  OracleCounters counters;
  std::vector<FailureRecord> failures;
};

std::string sanitizeForFilename(std::string text) {
  for (char& c : text) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' && c != '_') {
      c = '_';
    }
  }
  return text;
}

void handleFailure(const FuzzConfig& config, std::uint64_t iteration,
                   std::uint64_t caseSeed, const FuzzCase& fc,
                   const ModeConfig& mode, const OracleReport& report,
                   IterationOutcome& out) {
  FailureRecord record;
  record.iteration = iteration;
  record.caseSeed = caseSeed;
  record.mode = mode;
  record.message = report.summary();

  record.minimized = fc;
  if (config.minimize) {
    // The predicate re-runs the oracle: any violation in the same mode
    // counts as "still failing" (a shrink frequently turns e.g. a
    // determinism bug into a cleaner semantics bug; both are the defect).
    FailurePredicate fails = [&](const FuzzCase& candidate) {
      return !checkCase(candidate, mode, config.oracle).ok();
    };
    record.minimized = minimizeCase(fc, fails, &record.minimizeStats,
                                    config.minimizeEvaluations);
  }

  if (!config.outDir.empty()) {
    std::ostringstream name;
    name << "repro_iter" << iteration << "_"
         << sanitizeForFilename(toString(report.violations.front().kind))
         << ".scenario";
    std::filesystem::path path =
        std::filesystem::path(config.outDir) / name.str();
    try {
      // Stage stats from one deterministic jobs=1 re-solve of the
      // minimized case: triage data without replaying the failure.
      const std::string stages =
          stageStatsFor(record.minimized, mode, config.oracle);
      writeReproducer(path.string(), record.minimized, mode, caseSeed,
                      record.message, stages);
      record.reproducerPath = path.string();
    } catch (const std::exception&) {
      // Leave reproducerPath empty; the record still carries the case.
    }
  }
  out.failures.push_back(std::move(record));
}

/// Sample up to `extra` additional mode indices from [1, modeCount).
std::vector<std::size_t> pickModeIndices(std::size_t modeCount, int extra,
                                         util::Rng& rng) {
  std::vector<std::size_t> indices{0};
  if (modeCount <= 1 || extra <= 0) return indices;
  std::vector<std::size_t> rest;
  for (std::size_t i = 1; i < modeCount; ++i) rest.push_back(i);
  // Partial Fisher-Yates: the first `extra` slots become the sample.
  const std::size_t want =
      std::min<std::size_t>(static_cast<std::size_t>(extra), rest.size());
  for (std::size_t i = 0; i < want; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(
                rng.below(static_cast<std::uint64_t>(rest.size() - i)));
    std::swap(rest[i], rest[j]);
    indices.push_back(rest[i]);
  }
  std::sort(indices.begin(), indices.end());
  return indices;
}

IterationOutcome runIteration(const FuzzConfig& config,
                              std::uint64_t iteration) {
  IterationOutcome out;
  util::Rng rng = util::Rng(config.seed).stream(iteration);
  const std::uint64_t caseSeed = rng.next();
  FuzzCase fc = generateCase(caseSeed);
  const bool mutate = config.mutateProbability > 0.0 &&
                      rng.below(1000) <
                          static_cast<std::uint64_t>(
                              config.mutateProbability * 1000.0);

  auto checkOne = [&](const FuzzCase& candidate) {
    const std::vector<ModeConfig> modes = modeMatrix(candidate);
    const std::vector<std::size_t> picks =
        pickModeIndices(modes.size(), config.extraModesPerCase, rng);
    ++out.casesChecked;
    for (std::size_t idx : picks) {
      const ModeConfig& mode = modes[idx];
      ++out.modesChecked;
      OracleReport report = checkCase(candidate, mode, config.oracle);
      out.counters.add(report.counters);
      if (!report.ok()) {
        handleFailure(config, iteration, caseSeed, candidate, mode, report,
                      out);
      }
    }
  };

  checkOne(fc);
  if (mutate) checkOne(mutateCase(fc, rng));
  return out;
}

}  // namespace

std::string FuzzSummary::toString() const {
  std::ostringstream os;
  os << iterations << " iterations, " << casesChecked << " cases, "
     << modesChecked << " mode runs: " << counters.solves << " solves, "
     << counters.semanticChecks << " semantic checks, "
     << counters.bruteChecks << " brute-force checks, "
     << counters.determinismComparisons << " determinism comparisons, "
     << counters.statusCrossChecks << " status cross-checks, "
     << counters.incrementalChecks << " incremental checks, "
     << counters.degradedChecks << " degraded checks, "
     << counters.fastPathChecks << " fast-path checks ("
     << counters.fastPathCertified << " certified), "
     << counters.greedyRungRuns << " greedy-rung runs; "
     << failures.size() << " violation(s)";
  return os.str();
}

FuzzSummary runFuzz(const FuzzConfig& config) {
  if (!config.outDir.empty()) {
    std::filesystem::create_directories(config.outDir);
  }

  const Clock::time_point deadline =
      config.seconds > 0.0
          ? Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(config.seconds))
          : Clock::time_point::max();
  const std::uint64_t maxIterations =
      config.seconds > 0.0
          ? std::numeric_limits<std::uint64_t>::max()
          : static_cast<std::uint64_t>(std::max(config.iterations, 0));

  FuzzSummary summary;
  std::mutex mu;  // guards summary and config.log
  std::atomic<std::uint64_t> nextIteration{0};

  auto workerLoop = [&] {
    for (;;) {
      const std::uint64_t i = nextIteration.fetch_add(1);
      if (i >= maxIterations || Clock::now() >= deadline) return;
      IterationOutcome out = runIteration(config, i);
      std::lock_guard<std::mutex> lock(mu);
      ++summary.iterations;
      summary.casesChecked += out.casesChecked;
      summary.modesChecked += out.modesChecked;
      summary.counters.add(out.counters);
      for (auto& f : out.failures) {
        if (config.log != nullptr) {
          *config.log << "iteration " << f.iteration << " mode ["
                      << f.mode.toString() << "]: " << f.message << '\n';
        }
        summary.failures.push_back(std::move(f));
      }
      if (config.log != nullptr && out.failures.empty()) {
        *config.log << "iteration " << i << " ok (" << out.modesChecked
                    << " mode runs)\n";
      }
    }
  };

  const int workers = std::max(config.workers, 1);
  if (workers == 1) {
    workerLoop();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) threads.emplace_back(workerLoop);
    for (auto& t : threads) t.join();
  }

  // Deterministic report order regardless of worker scheduling.
  std::stable_sort(summary.failures.begin(), summary.failures.end(),
                   [](const FailureRecord& a, const FailureRecord& b) {
                     return a.iteration < b.iteration;
                   });
  return summary;
}

OracleReport checkAllModes(const FuzzCase& fc,
                           const std::vector<ModeConfig>& modes,
                           const OracleOptions& options,
                           OracleCounters* counters) {
  const std::vector<ModeConfig> all =
      modes.empty() ? modeMatrix(fc) : modes;
  OracleReport merged;
  for (const ModeConfig& mode : all) {
    OracleReport report = checkCase(fc, mode, options);
    merged.counters.add(report.counters);
    for (Violation& v : report.violations) {
      v.message = "[" + mode.toString() + "] " + v.message;
      merged.violations.push_back(std::move(v));
    }
  }
  if (counters != nullptr) counters->add(merged.counters);
  return merged;
}

}  // namespace ruleplace::fuzz
