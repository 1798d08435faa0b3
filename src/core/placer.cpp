#include "core/placer.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "acl/redundancy.h"
#include "core/greedy.h"
#include "depgraph/cache.h"
#include "depgraph/merging.h"
#include "obs/obs.h"
#include "util/thread_pool.h"

namespace ruleplace::core {

const char* toString(SolveStage stage) noexcept {
  switch (stage) {
    case SolveStage::kMergeAnalysis: return "merge-analysis";
    case SolveStage::kEncode: return "encode";
    case SolveStage::kSolve: return "solve";
    case SolveStage::kExtract: return "extract";
    case SolveStage::kGreedy: return "greedy";
  }
  return "?";
}

const char* toString(PlaceRung rung) noexcept {
  switch (rung) {
    case PlaceRung::kOptimal: return "optimal";
    case PlaceRung::kSatOnly: return "sat-only";
    case PlaceRung::kGreedy: return "greedy";
  }
  return "?";
}

const char* toString(PlacePath path) noexcept {
  switch (path) {
    case PlacePath::kSolver: return "solver";
    case PlacePath::kFastPath: return "fast-path";
  }
  return "?";
}

namespace {

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void accumulate(solver::SolverStats& into, const solver::SolverStats& s) {
  into.conflicts += s.conflicts;
  into.decisions += s.decisions;
  into.propagations += s.propagations;
  into.restarts += s.restarts;
  into.learntLiterals += s.learntLiterals;
  into.deletedClauses += s.deletedClauses;
  for (int i = 0; i < solver::SolverStats::kLbdBuckets; ++i) {
    into.lbdHistogram[static_cast<std::size_t>(i)] +=
        s.lbdHistogram[static_cast<std::size_t>(i)];
  }
}

void countRung(PlaceRung rung) {
  if (!obs::enabled()) return;
  const char* name = nullptr;
  switch (rung) {
    case PlaceRung::kOptimal: name = "place.rung.optimal"; break;
    case PlaceRung::kSatOnly: name = "place.rung.sat_only"; break;
    case PlaceRung::kGreedy: name = "place.rung.greedy"; break;
  }
  if (name != nullptr) obs::Registry::global().counter(name).add(1);
}

// ---- certified fast path ----------------------------------------------------
//
// Under the total-rules objective with merging and monitors off, every
// feasible placement installs each policy's required rules
// (requiredRuleIds) at least once, so their count is a lower bound that
// needs no model — the same number the encoder hands the optimizer.  The
// ingress-first greedy walk always yields a feasible placement when it
// completes; when its entry count meets the bound it is optimal, and the
// encode, solve and extract stages have nothing left to prove.  The
// remaining conditions keep the class to the plain hinted solve, whose
// answer this reproduces when the walk kept every entry at its ingress
// (docs/solver.md, "Certified fast path").

bool fastPathApplies(const PlaceOptions& options) {
  return options.encoder.objective == ObjectiveKind::kTotalRules &&
         !options.encoder.enableMerging && options.encoder.monitors.empty() &&
         !options.satisfiabilityOnly && options.useIngressHint;
}

// True when every entry of the walk sits at its policy's ingress switch:
// then the walk installed exactly the encoder's ingress hint, a feasible
// assignment that the hinted solve returns unchanged.
bool allAtIngress(const PlacementProblem& problem,
                  const std::vector<PlacedRule>& placed) {
  std::vector<topo::SwitchId> ingressOf;
  ingressOf.reserve(problem.routing.size());
  for (const auto& ip : problem.routing) {
    ingressOf.push_back(problem.graph->entryPort(ip.ingress).attachedSwitch);
  }
  return std::ranges::all_of(placed, [&](const PlacedRule& e) {
    return e.switchId == ingressOf[static_cast<std::size_t>(e.policyId)];
  });
}

// Σ_i |requiredRuleIds(i)|: under the fast path's class, exactly the
// encoder's EncodingStats::requiredRules and objectiveLowerBound.
std::int64_t requiredRuleBound(const PlacementProblem& problem,
                               const EncoderOptions& options) {
  std::int64_t bound = 0;
  for (int i = 0; i < problem.policyCount(); ++i) {
    const acl::Policy& policy = problem.policies[static_cast<std::size_t>(i)];
    bound += static_cast<std::int64_t>(
        requiredRuleIds(policy, problem.routing[static_cast<std::size_t>(i)],
                        *depgraph::acquireGraph(policy, options.depgraph),
                        options.enablePathSlicing)
            .size());
  }
  return bound;
}

// Fills `outcome` and returns true when the walk is certified: it installs
// exactly the bound (so it is optimal) and every entry at its ingress (so
// it is the hinted solve's answer, byte for byte).  Anything else — a walk
// that fails, throws, installs more than the bound, spills past an
// ingress, or finishes after the deadline — leaves `outcome` untouched for
// the exact pipeline, which then meets (and records) the same condition.
bool tryFastPath(const PlacementProblem& problem, const PlaceOptions& options,
                 PlaceOutcome& outcome) {
  const util::Deadline& deadline = options.budget.deadline;
  if (deadline.expired()) return false;
  const auto t0 = std::chrono::steady_clock::now();
  obs::Span span("place.fast_path");
  bool certified = false;
  try {
    const GreedyWalk walk =
        greedyWalk(problem, options.encoder.enablePathSlicing, deadline);
    const auto entries = static_cast<std::int64_t>(walk.placed.size());
    span.arg("entries", entries);
    // The ingress test is one scan of the entries; the bound is computed
    // only for a walk that passes it, so a walk that spills costs no more.
    if (walk.feasible && allAtIngress(problem, walk.placed)) {
      const std::int64_t bound = requiredRuleBound(problem, options.encoder);
      span.arg("bound", bound);
      if (entries == bound) {
        Placement placement = buildPlacement(problem, walk.placed);
        // Delivered within the deadline or not at all: a late certificate
        // falls through to the exact pipeline's start check, which records
        // the expiry for the ladder like any other late component.
        certified = !deadline.expired();
        if (certified) {
          outcome.placement = std::move(placement);
          outcome.status = solver::OptStatus::kOptimal;
          outcome.objective = entries;
          outcome.encodingStats.requiredRules = bound;
          outcome.encodingStats.objectiveLowerBound = bound;
          outcome.fastPathComponents = 1;
          outcome.solveSeconds = secondsSince(t0);
        }
      }
    }
  } catch (const std::logic_error&) {
    throw;  // caller bug — same policy as the exact pipeline
  } catch (const std::exception&) {
    // Not certified: the exact pipeline meets and records the failure.
  }
  span.arg("certified", certified ? 1 : 0);
  if (obs::enabled()) {
    obs::Registry::global()
        .counter(certified ? "place.fast_path.certified"
                           : "place.fast_path.fell_through")
        .add(1);
  }
  return certified;
}

// Shared tail of placeComponent: rung bookkeeping and obs counters.
PlaceOutcome finishComponent(PlaceOutcome outcome, PlacementProblem problem,
                             PlaceRung firstRung) {
  outcome.degraded = outcome.rung != firstRung;
  if (obs::enabled()) {
    if (outcome.hasSolution()) countRung(outcome.rung);
    if (outcome.degraded) {
      obs::Registry::global().counter("place.degraded_components").add(1);
    }
    if (!outcome.hasSolution()) {
      obs::Registry::global().counter("place.component_failures").add(1);
    }
  }
  outcome.solvedProblem = std::move(problem);
  return outcome;
}

// The monolithic Fig. 4 pipeline on one (sub)problem, wrapped in the
// resilience layer.  Redundancy removal has already run in place();
// everything else happens here, so a single-component instance takes
// exactly this path.
//
// Resilience contract: the exact pipeline (merge analysis -> encode ->
// solve -> extract) runs first.  A deadline trip, exhausted budget, or any
// other exception (std::logic_error aside) becomes a FailureInfo instead of
// escaping; the degradation ladder (when enabled) then retries the same
// model satisfiability-only and finally falls back to the greedy
// heuristic.  UNSAT is a definitive verdict, never laddered over.
PlaceOutcome placeComponent(PlacementProblem problem,
                            const PlaceOptions& options) {
  const util::Deadline& deadline = options.budget.deadline;
  const PlaceRung firstRung = options.satisfiabilityOnly
                                  ? PlaceRung::kSatOnly
                                  : PlaceRung::kOptimal;
  PlaceOutcome outcome;
  outcome.rung = firstRung;
  if (fastPathApplies(options) && tryFastPath(problem, options, outcome)) {
    return finishComponent(std::move(outcome), std::move(problem), firstRung);
  }
  const auto compStart = std::chrono::steady_clock::now();
  auto t0 = compStart;

  // optional<> so the Encoder can be constructed inside the encode span's
  // scope yet stay alive for the solve/extract/ladder phases below.
  std::optional<Encoder> encoderOpt;
  SolveStage stage = SolveStage::kMergeAnalysis;
  bool pipelineDone = false;
  try {
    // Cooperative cancellation: a component that starts after the shared
    // deadline passed (a still-queued sibling of a slow wave) skips the
    // whole exact pipeline.
    deadline.check("component skipped: deadline expired before start");

    if (options.encoder.enableMerging) {
      obs::Span span("place.merge_analysis");
      outcome.mergeInfo =
          depgraph::analyzeMergeable(problem.policies, deadline);
    }

    stage = SolveStage::kEncode;
    {
      obs::Span span("place.encode");
      span.arg("policies", problem.policyCount());
      span.arg("rules", problem.totalPolicyRules());
      // The component's thread budget drives the parallel policy encode;
      // the two-pass scheme keeps the model bit-identical for any value.
      EncoderOptions encOpts = options.encoder;
      encOpts.threads = options.threads;
      encoderOpt.emplace(problem, encOpts,
                         options.encoder.enableMerging ? &outcome.mergeInfo
                                                       : nullptr);
      outcome.encodeSeconds = secondsSince(t0);
      outcome.encodingStats = encoderOpt->stats();
      outcome.modelVars = encoderOpt->model().varCount();
      outcome.modelConstraints =
          static_cast<std::int64_t>(encoderOpt->model().constraintCount());
      outcome.modelNonzeros = encoderOpt->model().nonzeroCount();
      outcome.modelBytes =
          static_cast<std::int64_t>(encoderOpt->model().memoryBytes());
      span.arg("model_vars", outcome.modelVars);
      span.arg("model_constraints", outcome.modelConstraints);
      span.arg("model_bytes", outcome.modelBytes);
    }
    Encoder& encoder = *encoderOpt;

    stage = SolveStage::kSolve;
    t0 = std::chrono::steady_clock::now();
    solver::OptResult result;
    {
      obs::Span solveSpan("place.solve");
      solveSpan.arg("model_vars", outcome.modelVars);
      if (options.satisfiabilityOnly) {
        result = solver::Optimizer::solveSat(encoder.model(), options.budget);
      } else if (options.useIngressHint) {
        result = solver::Optimizer::solveWithHint(
            encoder.model(), encoder.ingressHint(), options.budget);
      } else {
        result = solver::Optimizer::solve(encoder.model(), options.budget);
      }
    }
    outcome.solveSeconds = secondsSince(t0);
    outcome.status = result.status;
    outcome.objective = result.objective;
    outcome.solverStats = result.stats;

    if (result.hasSolution()) {
      stage = SolveStage::kExtract;
      obs::Span extractSpan("place.extract");
      outcome.placement = extractPlacement(
          problem, encoder, result.assignment,
          options.encoder.enableMerging ? &outcome.mergeInfo : nullptr);
    }
    pipelineDone = true;
  } catch (const util::DeadlineExceeded& e) {
    outcome.status = solver::OptStatus::kUnknown;
    outcome.failure = FailureInfo{solver::OptStatus::kUnknown, stage,
                                  secondsSince(compStart), e.what()};
  } catch (const std::logic_error&) {
    // Configuration and usage errors (invalid monitor, objective/merging
    // mismatch, ...) are caller bugs, not component failures: isolating
    // them would convert a programming error into a quiet kUnknown.
    throw;
  } catch (const std::exception& e) {
    outcome.status = solver::OptStatus::kUnknown;
    outcome.failure = FailureInfo{solver::OptStatus::kUnknown, stage,
                                  secondsSince(compStart), e.what()};
  }

  if (pipelineDone && !outcome.hasSolution()) {
    // Exact pipeline ran to completion but the solver had no answer:
    // record why before (maybe) degrading.
    outcome.failure = FailureInfo{
        outcome.status, SolveStage::kSolve, secondsSince(compStart),
        outcome.status == solver::OptStatus::kInfeasible
            ? "component infeasible"
            : "budget or deadline exhausted"};
  }

  // ---- degradation ladder -------------------------------------------------
  // Only for failures, never for the definitive kInfeasible verdict.
  if (options.resilience.ladder && !outcome.hasSolution() &&
      outcome.status != solver::OptStatus::kInfeasible) {
    // Rung 2: satisfiability-only on the model we already built.  Skipped
    // when the encoder never finished or the wall deadline is gone — a
    // fresh CDCL run would only burn time the greedy floor still needs.
    if (encoderOpt.has_value() && !options.satisfiabilityOnly &&
        !deadline.expired()) {
      try {
        obs::Span span("place.ladder.sat_only");
        solver::OptResult sat =
            solver::Optimizer::solveSat(encoderOpt->model(), options.budget);
        if (sat.hasSolution()) {
          outcome.placement = extractPlacement(
              problem, *encoderOpt, sat.assignment,
              options.encoder.enableMerging ? &outcome.mergeInfo : nullptr);
          outcome.status = solver::OptStatus::kFeasible;
          outcome.objective = sat.objective;
          outcome.rung = PlaceRung::kSatOnly;
        }
        accumulate(outcome.solverStats, sat.stats);
      } catch (const std::exception&) {
        // fall through to greedy
      }
    }
    // Rung 3: greedy.  Deliberately deadline-free — it is the polynomial
    // floor of the ladder and must be allowed to finish so place() always
    // has *something* verified to return (docs/robustness.md).
    if (!outcome.hasSolution()) {
      try {
        obs::Span span("place.ladder.greedy");
        GreedyOutcome g =
            greedyPlace(problem, options.encoder.enablePathSlicing);
        if (g.feasible) {
          outcome.placement = std::move(g.placement);
          outcome.status = solver::OptStatus::kFeasible;
          outcome.objective = g.totalRules;
          outcome.rung = PlaceRung::kGreedy;
        }
      } catch (const std::logic_error&) {
        throw;  // caller bug — same policy as the exact pipeline above
      } catch (const std::exception& e) {
        if (!outcome.failure) {
          outcome.failure =
              FailureInfo{solver::OptStatus::kUnknown, SolveStage::kGreedy,
                          secondsSince(compStart), e.what()};
        }
      }
    }
  }

  return finishComponent(std::move(outcome), std::move(problem), firstRung);
}

ComponentSolveStats componentStatsOf(const PlaceOutcome& out) {
  ComponentSolveStats cs;
  cs.policyCount = out.solvedProblem.policyCount();
  cs.ruleCount = out.solvedProblem.totalPolicyRules();
  cs.status = out.status;
  cs.objective = out.objective;
  cs.encodeSeconds = out.encodeSeconds;
  cs.solveSeconds = out.solveSeconds;
  cs.solverStats = out.solverStats;
  cs.policyIds.resize(
      static_cast<std::size_t>(out.solvedProblem.policyCount()));
  std::iota(cs.policyIds.begin(), cs.policyIds.end(), 0);
  cs.rung = out.rung;
  cs.failure = out.failure;
  cs.path = out.fastPathComponents > 0 ? PlacePath::kFastPath
                                       : PlacePath::kSolver;
  return cs;
}

void accumulate(EncodingStats& into, const EncodingStats& s) {
  into.placementVars += s.placementVars;
  into.mergeVars += s.mergeVars;
  into.ruleDependencyConstraints += s.ruleDependencyConstraints;
  into.pathDependencyConstraints += s.pathDependencyConstraints;
  into.capacityConstraints += s.capacityConstraints;
  into.mergeConstraints += s.mergeConstraints;
  into.slicedAwayRules += s.slicedAwayRules;
  into.objectiveLowerBound += s.objectiveLowerBound;
  into.requiredRules += s.requiredRules;
  into.presolveInfeasiblePaths += s.presolveInfeasiblePaths;
  into.monitorForbiddenVars += s.monitorForbiddenVars;
}

struct Dsu {
  std::vector<int> parent;
  explicit Dsu(int n) : parent(static_cast<std::size_t>(n)) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  int find(int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  }
  void unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[static_cast<std::size_t>(b)] = a;
  }
};

struct RuleKey {
  match::Ternary field;
  acl::Action action;
  bool operator<(const RuleKey& o) const {
    if (action != o.action) return action < o.action;
    return field < o.field;
  }
};

}  // namespace

std::vector<std::vector<int>> couplingComponents(
    const PlacementProblem& problem, const EncoderOptions& options) {
  const int n = problem.policyCount();
  Dsu dsu(n);

  // Worst case for one policy's entry count at a single switch: every rule
  // installed there once.  With merging, cycle breaking may append dummy
  // rules later (inside the per-component pipeline) — at most one per
  // distinct rule shared with another policy, since each break bans the
  // original for good — so reserve that headroom too.
  std::vector<std::int64_t> sizeBound(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    sizeBound[static_cast<std::size_t>(i)] = static_cast<std::int64_t>(
        problem.policies[static_cast<std::size_t>(i)].size());
  }

  if (options.enableMerging) {
    // Distinct (match, action) keys per policy — the same keying
    // depgraph::analyzeMergeable groups on.  Policies sharing a key may
    // merge (and dummies only ever clone such rules, so this covers every
    // post-dummy group too).
    std::map<RuleKey, std::vector<int>> holders;
    for (int i = 0; i < n; ++i) {
      std::set<RuleKey> distinct;
      for (const auto& r :
           problem.policies[static_cast<std::size_t>(i)].rules()) {
        distinct.insert(RuleKey{r.matchField, r.action});
      }
      for (const auto& key : distinct) holders[key].push_back(i);
    }
    for (const auto& [key, policies] : holders) {
      (void)key;
      if (policies.size() < 2) continue;
      for (std::size_t k = 1; k < policies.size(); ++k) {
        dsu.unite(policies[0], policies[k]);
      }
      for (int p : policies) ++sizeBound[static_cast<std::size_t>(p)];
    }
  }

  // Capacity coupling: a switch can only couple the policies reaching it
  // when their worst-case combined load exceeds its capacity — otherwise
  // Eq. 3 is slack under *every* assignment and drops out.
  const int switchCount = problem.graph->switchCount();
  std::vector<std::int64_t> potential(static_cast<std::size_t>(switchCount),
                                      0);
  std::vector<std::vector<int>> reachers(
      static_cast<std::size_t>(switchCount));
  for (int i = 0; i < n; ++i) {
    for (topo::SwitchId sw :
         problem.routing[static_cast<std::size_t>(i)].reachableSwitches()) {
      potential[static_cast<std::size_t>(sw)] +=
          sizeBound[static_cast<std::size_t>(i)];
      reachers[static_cast<std::size_t>(sw)].push_back(i);
    }
  }
  for (int sw = 0; sw < switchCount; ++sw) {
    const auto& r = reachers[static_cast<std::size_t>(sw)];
    if (r.size() < 2) continue;
    if (potential[static_cast<std::size_t>(sw)] <= problem.capacityOf(sw)) {
      continue;
    }
    for (std::size_t k = 1; k < r.size(); ++k) dsu.unite(r[0], r[k]);
  }

  // Emit components ordered by smallest member id (ascending scan), each
  // sorted internally — the fixed merge order of the parallel placer.
  std::vector<std::vector<int>> components;
  std::vector<int> slotOfRoot(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    int root = dsu.find(i);
    if (slotOfRoot[static_cast<std::size_t>(root)] < 0) {
      slotOfRoot[static_cast<std::size_t>(root)] =
          static_cast<int>(components.size());
      components.emplace_back();
    }
    components[static_cast<std::size_t>(
                   slotOfRoot[static_cast<std::size_t>(root)])]
        .push_back(i);
  }
  return components;
}

PlaceOutcome place(PlacementProblem problem, const PlaceOptions& options) {
  if (options.observability) {
    obs::Registry::global().setEnabled(true);
    obs::Registry::global().setThreadLabel("main");
  }
  obs::Span placeSpan("place");
  placeSpan.arg("policies", problem.policyCount());
  placeSpan.arg("rules", problem.totalPolicyRules());

  auto wallStart = std::chrono::steady_clock::now();

  // Materialize one *absolute* deadline for the whole call.  The relative
  // maxSeconds cap keeps its per-solve slicing semantics, but the absolute
  // deadline is what actually bounds end-to-end wall time: it is shared
  // unsliced by every component (queued ones included), the merge
  // analysis, and the solver's inner loop.  An external cancel token is
  // fused into the same deadline.
  PlaceOptions effective = options;
  {
    util::Deadline deadline = options.budget.deadline;
    if (!deadline.hasWallDeadline() && !options.budget.unlimitedTime() &&
        options.budget.maxSeconds > 0.0) {
      deadline = util::Deadline::at(
          wallStart +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(options.budget.maxSeconds)));
    }
    if (options.cancel.valid()) {
      deadline = deadline.withToken(options.cancel);
    }
    effective.budget.deadline = deadline;
  }
  const PlaceOptions& opts = effective;

  if (options.removeRedundancy) {
    obs::Span span("place.redundancy");
    for (auto& q : problem.policies) acl::removeRedundant(q);
  }

  std::vector<std::vector<int>> components;
  {
    obs::Span span("place.partition");
    components = couplingComponents(problem, options.encoder);
    span.arg("components", static_cast<std::int64_t>(components.size()));
  }

  PlaceOptions subOptions = opts;
  subOptions.removeRedundancy = false;  // already done above

  if (components.size() <= 1) {
    PlaceOutcome outcome = placeComponent(std::move(problem), subOptions);
    outcome.componentStats = {componentStatsOf(outcome)};
    outcome.threadsUsed = 1;
    if (!outcome.hasSolution()) outcome.failedComponents = 1;
    return outcome;
  }

  const int k = static_cast<int>(components.size());
  // Slice the global budget fairly over components (by component count,
  // not thread count, so the slices — and hence the results — do not
  // depend on the parallelism level).  sliced() divides the *relative*
  // limits only; the absolute deadline passes through shared.
  subOptions.budget = opts.budget.sliced(k);
  subOptions.threads = 1;

  std::vector<PlacementProblem> subProblems;
  subProblems.reserve(static_cast<std::size_t>(k));
  for (const std::vector<int>& comp : components) {
    subProblems.push_back(problem.subset(comp));
  }
  const double partitionSeconds = secondsSince(wallStart);

  // Solve every component — even after an infeasible one, so statuses and
  // statistics do not depend on completion order.  Each result lands in
  // its pre-assigned slot; nothing below depends on *when* it got there.
  std::vector<PlaceOutcome> subOutcomes(static_cast<std::size_t>(k));
  const int requested = options.threads > 0
                            ? options.threads
                            : util::ThreadPool::hardwareThreads();
  const int workers = std::min(requested, k);
  auto solveStart = std::chrono::steady_clock::now();
  auto solveOne = [&](int c) {
    obs::Span span("place.component");
    span.arg("component", c);
    subOutcomes[static_cast<std::size_t>(c)] = placeComponent(
        std::move(subProblems[static_cast<std::size_t>(c)]), subOptions);
  };
  if (workers <= 1) {
    for (int c = 0; c < k; ++c) solveOne(c);
  } else {
    util::ThreadPool pool(workers);
    for (int c = 0; c < k; ++c) {
      pool.submit([&solveOne, c] {
        // Label pool threads so the trace attributes component work to the
        // worker that ran it (the label map is keyed per thread).
        if (obs::enabled()) {
          obs::Registry::global().setThreadLabel("place-worker");
        }
        solveOne(c);
      });
    }
    pool.wait();
  }

  // ---- deterministic merge, in fixed component order ----------------------
  obs::Span mergeSpan("place.merge");
  PlaceOutcome outcome;
  outcome.threadsUsed = workers;
  outcome.encodeSeconds = partitionSeconds;

  bool anyInfeasible = false;
  bool anyUnknown = false;
  bool allOptimal = true;
  int groupOffset = 0;
  for (int c = 0; c < k; ++c) {
    const PlaceOutcome& sub = subOutcomes[static_cast<std::size_t>(c)];
    switch (sub.status) {
      case solver::OptStatus::kInfeasible: anyInfeasible = true; break;
      case solver::OptStatus::kUnknown: anyUnknown = true; break;
      case solver::OptStatus::kFeasible: allOptimal = false; break;
      case solver::OptStatus::kOptimal: break;
    }
    accumulate(outcome.solverStats, sub.solverStats);
    accumulate(outcome.encodingStats, sub.encodingStats);
    outcome.modelVars += sub.modelVars;
    outcome.modelConstraints += sub.modelConstraints;
    outcome.modelNonzeros += sub.modelNonzeros;
    outcome.modelBytes += sub.modelBytes;
    outcome.fastPathComponents += sub.fastPathComponents;
    outcome.componentStats.push_back(componentStatsOf(sub));
    // Remap the component-local policy ids to global ones.
    outcome.componentStats.back().policyIds.assign(
        components[static_cast<std::size_t>(c)].begin(),
        components[static_cast<std::size_t>(c)].end());

    // Resilience rollup: worst rung wins; first failure (by component
    // order, hence deterministic) becomes the run's headline failure.
    if (sub.rung > outcome.rung) outcome.rung = sub.rung;
    if (sub.degraded) outcome.degraded = true;
    if (!sub.hasSolution()) {
      ++outcome.failedComponents;
      if (!outcome.failure) outcome.failure = sub.failure;
    }

    // Merge analysis: remap member policies to global ids, renumber
    // groups densely across components.
    const auto& comp = components[static_cast<std::size_t>(c)];
    for (depgraph::MergeGroup g : sub.mergeInfo.groups) {
      g.id += groupOffset;
      for (auto& m : g.members) {
        m.policyId = comp[static_cast<std::size_t>(m.policyId)];
      }
      outcome.mergeInfo.groups.push_back(std::move(g));
    }
    for (depgraph::DummyInsertion d : sub.mergeInfo.dummies) {
      d.policyId = comp[static_cast<std::size_t>(d.policyId)];
      outcome.mergeInfo.dummies.push_back(d);
    }
    for (int id : sub.mergeInfo.groupOrder) {
      outcome.mergeInfo.groupOrder.push_back(id + groupOffset);
    }
    outcome.mergeInfo.cyclesBroken += sub.mergeInfo.cyclesBroken;
    groupOffset += static_cast<int>(sub.mergeInfo.groups.size());

    // Write the component's solved policies (possibly with dummy rules)
    // back into the global problem.
    for (std::size_t l = 0; l < comp.size(); ++l) {
      problem.policies[static_cast<std::size_t>(comp[l])] =
          std::move(subOutcomes[static_cast<std::size_t>(c)]
                        .solvedProblem.policies[l]);
    }
  }

  outcome.status = anyInfeasible ? solver::OptStatus::kInfeasible
                   : anyUnknown  ? solver::OptStatus::kUnknown
                   : allOptimal  ? solver::OptStatus::kOptimal
                                 : solver::OptStatus::kFeasible;
  // Full merge when every component succeeded; partial merge (successful
  // components only, failed ones contribute nothing) when requested.  The
  // overall status still reflects the failures either way.
  const bool mergeAll = outcome.hasSolution();
  const bool mergePartial = !mergeAll && opts.resilience.partialResults &&
                            outcome.failedComponents < k;
  if (mergeAll || mergePartial) {
    outcome.placement = Placement(problem.graph->switchCount());
    for (int c = 0; c < k; ++c) {
      const PlaceOutcome& sub = subOutcomes[static_cast<std::size_t>(c)];
      if (!sub.hasSolution()) continue;
      const auto& comp = components[static_cast<std::size_t>(c)];
      std::vector<int> tagMap(comp.begin(), comp.end());
      outcome.placement.appendMapped(sub.placement, tagMap);
      outcome.objective += sub.objective;
    }
    outcome.partial = mergePartial;
    if (mergePartial && obs::enabled()) {
      obs::Registry::global().counter("place.partial_results").add(1);
    }
  }
  outcome.solvedProblem = std::move(problem);
  outcome.solveSeconds = secondsSince(solveStart);
  return outcome;
}

}  // namespace ruleplace::core
