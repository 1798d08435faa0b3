#pragma once
// Differential oracle: runs one fuzz case through the full placement
// pipeline in a given mode and cross-checks the outcome three ways (the
// paper's exactness claim, §IV / §V, made mechanical):
//
//   1. *Semantics* — core::verifyPlacement proves the deployed drop sets
//      equal the per-ingress policies' drop sets on every path (cube
//      algebra, exact).
//   2. *Optimality* — on instances whose encoded model is small enough,
//      solver::bruteForceSolve enumerates every assignment; the pipeline
//      must agree on feasibility and (for ILP modes) on the optimum.
//   3. *Determinism* — placements, objectives and statuses must be
//      bit-identical across --jobs 1/2/4, and the incremental pipeline
//      (place a base, install the rest on spare capacity) must itself be
//      deterministic and semantics-preserving.
//   4. *Degradation* — a ladder-produced (sat-only / greedy) placement must
//      still pass exact verification, and a partial result must never keep
//      entries belonging to a failed component while every successful
//      component's subset verifies (see docs/robustness.md).
//   5. *Fast path* — every component core::place solved to optimality must
//      match the plain hinted solver path (Encoder + solveWithHint +
//      extractPlacement) on the objective, and a component the certified
//      fast path placed must match it byte for byte (docs/solver.md).
//
// All solves run under a conflict budget (never wall-clock) so results are
// reproducible across machines and thread counts.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/placer.h"
#include "fuzz/generator.h"

namespace ruleplace::fuzz {

/// One pipeline configuration to drive a case through.
struct ModeConfig {
  bool merge = false;             ///< §IV-B cross-policy merging
  bool slice = false;             ///< §IV-C path-sliced policies
  bool satOnly = false;           ///< §IV-D satisfiability mode
  bool removeRedundancy = false;  ///< complete redundancy removal first
  core::ObjectiveKind objective = core::ObjectiveKind::kTotalRules;
  /// > 0: incremental pipeline — place policies [0, basePolicies) as the
  /// running deployment, then install the rest on its spare capacity.
  int basePolicies = 0;
  bool ladder = false;   ///< graceful-degradation ladder (docs/robustness.md)
  bool partial = false;  ///< return verified partial results on failure
  /// >= 0: override OracleOptions::conflictBudget for this mode.  0 makes
  /// every exact solve fail immediately, forcing the ladder to its floor —
  /// the deterministic way to fuzz degraded placements.
  std::int64_t conflictBudget = -1;

  bool incremental() const noexcept { return basePolicies > 0; }

  /// "merge=0 slice=1 sat-only=0 redundancy=0 objective=total-rules base=0"
  /// — the format reproducer headers embed.  The resilience fields (ladder,
  /// partial, conflicts) are appended only when non-default, so older
  /// reproducers keep parsing and keep their recorded headers byte-stable.
  std::string toString() const;
  static std::optional<ModeConfig> parse(std::string_view text);
};

/// Every mode applicable to this case (slicing only with traffic
/// descriptors, incremental only with >= 2 policies, merging never with a
/// non-total-rules objective).  Deterministic order; the plain ILP mode is
/// always first.
std::vector<ModeConfig> modeMatrix(const FuzzCase& fc);

enum class ViolationKind : std::uint8_t {
  kSemantics,    ///< verifyPlacement rejected a "solved" placement
  kOptimality,   ///< disagrees with brute-force enumeration
  kDeterminism,  ///< result changed with the thread count
  kStatus,       ///< ILP and SAT modes disagree on feasibility
  kIncremental,  ///< incremental deployment broke semantics
  kIncrementalSolver,  ///< persistent-session solving diverged from scratch
  kDepgraph,     ///< dependency-graph builders disagree
  kDegraded,     ///< ladder/partial outcome broke the degradation contract
  kFastPath,     ///< certified fast path disagrees with the hinted solver
  kCrash,        ///< pipeline threw
};

const char* toString(ViolationKind k);

struct Violation {
  ViolationKind kind;
  std::string message;
};

struct OracleCounters {
  std::int64_t solves = 0;
  std::int64_t semanticChecks = 0;
  std::int64_t bruteChecks = 0;
  std::int64_t determinismComparisons = 0;
  std::int64_t statusCrossChecks = 0;
  std::int64_t incrementalChecks = 0;
  std::int64_t incrementalSolverChecks = 0;
  std::int64_t depgraphChecks = 0;
  std::int64_t degradedChecks = 0;
  std::int64_t fastPathChecks = 0;  ///< components cross-checked (check 5)
  std::int64_t fastPathCertified = 0;  ///< ...of which the fast path placed
  /// Mode runs whose reference outcome came from the ladder's greedy rung:
  /// the degradation coverage the ladder-floor mode still reaches.
  std::int64_t greedyRungRuns = 0;

  void add(const OracleCounters& o);
};

/// Test-only instrumentation: afterPlace may corrupt an outcome to emulate
/// a placer bug (see fuzz/mutator.h) — mutation testing for the oracle.
struct Hooks {
  std::function<void(core::PlaceOutcome&, const ModeConfig&, int jobs)>
      afterPlace;
};

struct OracleOptions {
  std::vector<int> jobsSweep{1, 2, 4};
  /// Deterministic per-solve budget (conflicts, not seconds).
  std::int64_t conflictBudget = 500000;
  /// Enumerate models up to this many variables (2^n assignments).
  int bruteMaxVars = 18;
  Hooks hooks;
};

struct OracleReport {
  std::vector<Violation> violations;
  OracleCounters counters;

  bool ok() const noexcept { return violations.empty(); }
  std::string summary() const;
};

/// The exact PlaceOptions the oracle drives a (mode, jobs) run with —
/// exposed so reproducer stage stats come from the same configuration the
/// failure was observed under.
core::PlaceOptions optionsFor(const ModeConfig& mode,
                              const OracleOptions& oracle, int jobs);

/// Drive `fc` through `mode` and return every violation found.
OracleReport checkCase(const FuzzCase& fc, const ModeConfig& mode,
                       const OracleOptions& options = {});

/// Field-by-field table comparison.  On mismatch, `why` (if non-null)
/// receives a human-readable first difference.
bool placementsEqual(const core::Placement& a, const core::Placement& b,
                     std::string* why = nullptr);

}  // namespace ruleplace::fuzz
