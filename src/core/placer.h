#pragma once
// High-level placement driver: ties the flow chart of Fig. 4 together.
//
//   redundancy removal (optional) -> dependency graph -> mergeable rules ->
//   ILP formulation -> solve -> extract tagged per-switch tables.
//
// The driver additionally decomposes the instance into independent
// *coupling components* — per-ingress subproblems, glued together only when
// policies can interact through a bindable shared switch-capacity
// constraint or a cross-policy merge group — and solves the components on a
// work-stealing thread pool (PlaceOptions::threads).  Sub-results are
// merged in a fixed component order, independent of completion order, so
// the outcome is deterministic and bit-identical across thread counts.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/encoder.h"
#include "core/placement.h"
#include "core/problem.h"
#include "solver/optimize.h"
#include "util/deadline.h"

namespace ruleplace::core {

/// Pipeline stage a component failure is attributed to.
enum class SolveStage : std::uint8_t {
  kMergeAnalysis,
  kEncode,
  kSolve,
  kExtract,
  kGreedy,
};
const char* toString(SolveStage stage) noexcept;

/// Rung of the graceful-degradation ladder that produced a component's
/// placement (§IV-D's optimize-vs-feasibility trade, extended one step
/// further down to the polynomial greedy heuristic).
enum class PlaceRung : std::uint8_t {
  kOptimal,  ///< full objective optimization (or as far as the budget got)
  kSatOnly,  ///< satisfiability-only re-solve of the same model
  kGreedy,   ///< ingress-first greedy heuristic
};
const char* toString(PlaceRung rung) noexcept;

/// How a component's placement was obtained (docs/solver.md, "Certified
/// fast path").
enum class PlacePath : std::uint8_t {
  kSolver,    ///< encode -> solve -> extract (and the ladder, if it ran)
  kFastPath,  ///< ingress-first walk certified by the model-free bound
};
const char* toString(PlacePath path) noexcept;

/// Why a component (or the whole run) has no exact result: the solver's
/// verdict, the stage that failed, and — for exceptions — the message.
struct FailureInfo {
  solver::OptStatus status = solver::OptStatus::kUnknown;
  SolveStage stage = SolveStage::kSolve;
  double elapsedSeconds = 0.0;  ///< component wall time when recorded
  std::string message;
};

/// Knobs for the resilience layer (docs/robustness.md).
struct ResilienceOptions {
  /// Degradation ladder: when the exact solve fails (budget/deadline
  /// exhausted or a stage threw), retry satisfiability-only, then greedy.
  /// Every degraded placement still passes verifyPlacement.  A genuinely
  /// infeasible component is never "rescued" — UNSAT is a definitive
  /// answer, not a failure the ladder can paper over.
  bool ladder = false;
  /// When some components fail and others succeed, return the verified
  /// placement of the successful ones (PlaceOutcome::partial) instead of
  /// nothing.  The failed components' policies have no entries.
  bool partialResults = false;
  /// Incremental placer only: when the restricted re-solve is infeasible
  /// against spare capacity, escalate to a full re-solve automatically.
  bool fullResolveOnInfeasible = false;
};

struct PlaceOptions {
  EncoderOptions encoder;
  solver::Budget budget = solver::Budget::unlimited();
  /// Satisfiability-only mode (§IV-D): any feasible placement, no
  /// objective optimization.  Much faster; used for incremental updates.
  bool satisfiabilityOnly = false;
  /// Seed the search with the greedy "everything at the ingress" phase
  /// hint.
  bool useIngressHint = true;
  /// Per-component portfolio race (docs/solver.md): diversified solver
  /// configurations — the requested optimizing solve, a second optimizing
  /// racer with a different seed and a geometric restart schedule, a
  /// satisfiability-only racer and the greedy heuristic — race on the same
  /// encoded model over this component's thread budget.  Arbitration is by
  /// fixed priority, not wall-clock finish order: the winner is the
  /// highest-priority racer with a solution, and a racer's success cancels
  /// only *lower*-priority racers (via their CancelTokens), so under
  /// conflict budgets the returned placement is bit-identical for every
  /// `threads` value.
  bool portfolio = false;
  /// Run complete redundancy removal on every policy first (Fig. 4's
  /// optional first stage).
  bool removeRedundancy = false;
  /// Worker threads for solving independent coupling components
  /// (0 = hardware concurrency).  Thread count only changes scheduling,
  /// never the result: placements, objectives and statuses are
  /// bit-identical for every value.
  int threads = 0;
  /// Enable the global observability registry (obs::Registry) for this
  /// run: stage spans, solver counters and the LBD distribution become
  /// available for export (--trace-json / --metrics).  Purely additive —
  /// results are bit-identical with it on or off (see docs/observability.md).
  /// When false the registry's prior state is left untouched, so callers
  /// that enabled it directly keep recording.
  bool observability = false;
  /// Resilience layer: degradation ladder, partial results, failure
  /// isolation (see ResilienceOptions).
  ResilienceOptions resilience;
  /// External cancellation: request through the token and every component
  /// (queued or mid-solve) winds down cooperatively at its next deadline
  /// check.  Fused with the budget's deadline inside place().
  util::CancelToken cancel;
};

/// Solve detail for one coupling component (tentpole observability: lets
/// benches attribute parallel speedups component by component).
struct ComponentSolveStats {
  int policyCount = 0;           ///< ingress policies in the component
  std::int64_t ruleCount = 0;    ///< total rules (incl. inserted dummies)
  solver::OptStatus status = solver::OptStatus::kUnknown;
  std::int64_t objective = 0;    ///< valid when the component has a solution
  double encodeSeconds = 0.0;
  double solveSeconds = 0.0;
  solver::SolverStats solverStats;
  /// Global policy ids of the component's members (lets callers map a
  /// failed component back to the policies whose entries are absent from
  /// a partial placement).
  std::vector<int> policyIds;
  /// Ladder rung that produced this component's placement (kOptimal when
  /// the exact pipeline succeeded; meaningless when `failure` is set and
  /// the component has no solution).
  PlaceRung rung = PlaceRung::kOptimal;
  /// Set when the exact pipeline did not produce a solution — even when a
  /// lower rung later rescued the component (attribution survives).
  std::optional<FailureInfo> failure;
  /// Portfolio race: priority index of the racer whose solution was kept
  /// (-1 when no race ran or no racer solved).
  int portfolioWinner = -1;
  /// kFastPath when the certified fast path produced the placement; then
  /// no model was built and encodeSeconds, modelVars and solverStats read 0.
  PlacePath path = PlacePath::kSolver;
};

struct PlaceOutcome {
  solver::OptStatus status = solver::OptStatus::kUnknown;
  Placement placement;      ///< valid when hasSolution()
  std::int64_t objective = 0;
  /// Wall-clock times.  When the instance decomposes, encodeSeconds covers
  /// the partitioning stage and solveSeconds the parallel encode+solve
  /// phase (per-component split times live in componentStats); their sum
  /// is always the end-to-end wall time of place().
  double encodeSeconds = 0.0;
  double solveSeconds = 0.0;
  /// Aggregated over all components (conflicts, propagations, ... sum).
  solver::SolverStats solverStats;
  EncodingStats encodingStats;
  int modelVars = 0;
  std::int64_t modelConstraints = 0;
  std::int64_t modelNonzeros = 0;
  /// Bytes held by the encoded model(s): arena term pool + row records +
  /// packed name refs (solver::Model::memoryBytes, summed over components).
  std::int64_t modelBytes = 0;
  depgraph::MergeAnalysis mergeInfo;
  /// Per coupling component, in merge order (smallest member policy id
  /// first).  Always has >= 1 entry after place().
  std::vector<ComponentSolveStats> componentStats;
  /// Worker threads actually used (min(threads, component count)).
  int threadsUsed = 1;
  /// The problem actually solved (policies may contain cycle-breaking
  /// dummy rules; redundancy removal may have shrunk them).  Verify
  /// against this, not the original input.
  PlacementProblem solvedProblem;

  /// True when `placement` covers only the components that succeeded
  /// (ResilienceOptions::partialResults).  The overall `status` still
  /// reflects the failures; verify partial placements against the
  /// successful components' policy ids (verifyPlacement's subset filter).
  bool partial = false;
  /// Components that ended with no solution at all (after the ladder).
  int failedComponents = 0;
  /// True when at least one component was produced by a rung below the
  /// requested one.
  bool degraded = false;
  /// Incremental placer: restricted re-solve was infeasible and the full
  /// re-solve ran instead (ResilienceOptions::fullResolveOnInfeasible).
  bool escalatedFullResolve = false;
  /// Worst (lowest) rung across components.
  PlaceRung rung = PlaceRung::kOptimal;
  /// First failure by component order, when any component failed.
  std::optional<FailureInfo> failure;
  /// Portfolio race (PlaceOptions::portfolio): winning racer's priority
  /// index for a single-component run; multi-component runs report the
  /// per-component winners in componentStats instead and leave -1 here.
  int portfolioWinner = -1;
  /// Components placed by the certified fast path (ComponentSolveStats::
  /// path).  Those contribute the ingress-first placement, its objective
  /// and EncodingStats::requiredRules / objectiveLowerBound, but no model:
  /// their model*, solverStats and other encodingStats fields stay 0.
  int fastPathComponents = 0;

  bool hasSolution() const noexcept {
    return status == solver::OptStatus::kOptimal ||
           status == solver::OptStatus::kFeasible;
  }
  /// A full or partial placement worth reading.
  bool hasAnyPlacement() const noexcept { return hasSolution() || partial; }
};

/// Solve one placement problem.  The problem is taken by value because the
/// pipeline may rewrite policies (dummy rules, redundancy removal); the
/// caller's graph must outlive the returned outcome.
PlaceOutcome place(PlacementProblem problem, const PlaceOptions& options = {});

/// Partition policy indices into independent coupling components.  Two
/// policies land in the same component iff (transitively) they could
/// interact in the encoding:
///   * they both reach a switch whose *worst-case* combined load (every
///     reaching policy installing all of its rules there, plus headroom
///     for cycle-breaking dummies) exceeds the switch's capacity — a
///     switch that can never make Eq. 3 bind cannot couple policies; or
///   * merging is enabled and they share an identical (match, action)
///     rule, i.e. they may form a merge group (Eq. 4/5).
/// Components are returned sorted, each sorted internally, ordered by
/// their smallest policy id.  Solving components independently and
/// summing is exact: the feasible set factors into a product and every
/// supported objective is separable per policy/merge group.
std::vector<std::vector<int>> couplingComponents(
    const PlacementProblem& problem, const EncoderOptions& options);

}  // namespace ruleplace::core
