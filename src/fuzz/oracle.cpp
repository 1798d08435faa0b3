#include "fuzz/oracle.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "acl/redundancy.h"
#include "core/encoder.h"
#include "core/incremental.h"
#include "core/placement.h"
#include "core/verify.h"
#include "depgraph/depgraph.h"
#include "depgraph/merging.h"
#include "solver/bruteforce.h"
#include "solver/optimize.h"

namespace ruleplace::fuzz {

namespace {

const char* objectiveName(core::ObjectiveKind k) {
  switch (k) {
    case core::ObjectiveKind::kTotalRules: return "total-rules";
    case core::ObjectiveKind::kUpstreamTraffic: return "upstream-traffic";
    case core::ObjectiveKind::kWeightedSwitch: return "weighted-switch";
  }
  return "?";
}

std::string describeOutcome(const core::PlaceOutcome& out) {
  std::ostringstream os;
  os << solver::toString(out.status);
  if (out.hasSolution()) {
    os << " obj=" << out.objective
       << " installed=" << out.placement.totalInstalledRules();
  }
  if (out.degraded) os << " rung=" << core::toString(out.rung);
  if (out.partial) {
    os << " partial=" << out.failedComponents << "/"
       << out.componentStats.size();
  }
  return os.str();
}

}  // namespace

core::PlaceOptions optionsFor(const ModeConfig& mode,
                              const OracleOptions& oracle, int jobs) {
  core::PlaceOptions o;
  o.encoder.enableMerging = mode.merge;
  o.encoder.enablePathSlicing = mode.slice;
  o.encoder.objective = mode.objective;
  o.satisfiabilityOnly = mode.satOnly;
  o.removeRedundancy = mode.removeRedundancy;
  o.budget = solver::Budget::conflicts(
      mode.conflictBudget >= 0 ? mode.conflictBudget : oracle.conflictBudget);
  o.resilience.ladder = mode.ladder;
  o.resilience.partialResults = mode.partial;
  o.threads = jobs;
  return o;
}

std::string ModeConfig::toString() const {
  std::ostringstream os;
  os << "merge=" << (merge ? 1 : 0) << " slice=" << (slice ? 1 : 0)
     << " sat-only=" << (satOnly ? 1 : 0)
     << " redundancy=" << (removeRedundancy ? 1 : 0)
     << " objective=" << objectiveName(objective) << " base=" << basePolicies;
  if (ladder) os << " ladder=1";
  if (partial) os << " partial=1";
  if (conflictBudget >= 0) os << " conflicts=" << conflictBudget;
  return os.str();
}

std::optional<ModeConfig> ModeConfig::parse(std::string_view text) {
  ModeConfig mode;
  std::istringstream is{std::string(text)};
  std::string tok;
  while (is >> tok) {
    std::size_t eq = tok.find('=');
    if (eq == std::string::npos) return std::nullopt;
    std::string key = tok.substr(0, eq);
    std::string value = tok.substr(eq + 1);
    if (key == "merge") {
      mode.merge = value == "1";
    } else if (key == "slice") {
      mode.slice = value == "1";
    } else if (key == "sat-only") {
      mode.satOnly = value == "1";
    } else if (key == "redundancy") {
      mode.removeRedundancy = value == "1";
    } else if (key == "objective") {
      if (value == "total-rules") {
        mode.objective = core::ObjectiveKind::kTotalRules;
      } else if (value == "upstream-traffic") {
        mode.objective = core::ObjectiveKind::kUpstreamTraffic;
      } else {
        return std::nullopt;
      }
    } else if (key == "base") {
      try {
        mode.basePolicies = std::stoi(value);
      } catch (...) {
        return std::nullopt;
      }
    } else if (key == "ladder") {
      mode.ladder = value == "1";
    } else if (key == "partial") {
      mode.partial = value == "1";
    } else if (key == "conflicts") {
      try {
        mode.conflictBudget = std::stoll(value);
      } catch (...) {
        return std::nullopt;
      }
    } else {
      return std::nullopt;
    }
  }
  return mode;
}

std::vector<ModeConfig> modeMatrix(const FuzzCase& fc) {
  bool hasTraffic = false;
  for (const auto& ip : fc.routing) {
    for (const auto& p : ip.paths) hasTraffic |= p.traffic.has_value();
  }
  const int n = static_cast<int>(fc.policies.size());

  std::vector<ModeConfig> modes;
  auto add = [&](ModeConfig m) { modes.push_back(m); };

  add({});  // plain ILP, total-rules — the reference mode, always first
  {
    ModeConfig m;
    m.merge = true;
    add(m);
  }
  {
    ModeConfig m;
    m.satOnly = true;
    add(m);
  }
  {
    ModeConfig m;
    m.objective = core::ObjectiveKind::kUpstreamTraffic;
    add(m);
  }
  {
    ModeConfig m;
    m.removeRedundancy = true;
    add(m);
  }
  if (hasTraffic) {
    ModeConfig m;
    m.slice = true;
    add(m);
    m.merge = true;
    add(m);
  }
  {
    ModeConfig m;
    m.merge = true;
    m.satOnly = true;
    add(m);
  }
  {
    // Ladder floor: a zero conflict budget fails every exact solve
    // deterministically, so the pipeline must degrade all the way to
    // greedy — and the greedy placement must still verify exactly.
    ModeConfig m;
    m.ladder = true;
    m.partial = true;
    m.conflictBudget = 0;
    add(m);
  }
  {
    // Ladder as a no-op: with the full budget the exact solve usually
    // succeeds and the ladder must not perturb the optimal outcome.
    ModeConfig m;
    m.ladder = true;
    m.merge = true;
    add(m);
  }
  if (n >= 2) {
    ModeConfig m;
    m.basePolicies = n / 2 > 0 ? n / 2 : 1;
    add(m);
    m.merge = true;
    add(m);
  }
  return modes;
}

const char* toString(ViolationKind k) {
  switch (k) {
    case ViolationKind::kSemantics: return "semantics";
    case ViolationKind::kOptimality: return "optimality";
    case ViolationKind::kDeterminism: return "determinism";
    case ViolationKind::kStatus: return "status";
    case ViolationKind::kIncremental: return "incremental";
    case ViolationKind::kIncrementalSolver: return "incremental-solver";
    case ViolationKind::kDepgraph: return "depgraph";
    case ViolationKind::kDegraded: return "degraded";
    case ViolationKind::kFastPath: return "fast-path";
    case ViolationKind::kCrash: return "crash";
  }
  return "?";
}

void OracleCounters::add(const OracleCounters& o) {
  solves += o.solves;
  semanticChecks += o.semanticChecks;
  bruteChecks += o.bruteChecks;
  determinismComparisons += o.determinismComparisons;
  statusCrossChecks += o.statusCrossChecks;
  incrementalChecks += o.incrementalChecks;
  incrementalSolverChecks += o.incrementalSolverChecks;
  depgraphChecks += o.depgraphChecks;
  degradedChecks += o.degradedChecks;
  fastPathChecks += o.fastPathChecks;
  fastPathCertified += o.fastPathCertified;
  greedyRungRuns += o.greedyRungRuns;
}

std::string OracleReport::summary() const {
  if (ok()) return "ok";
  std::ostringstream os;
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i > 0) os << "; ";
    os << toString(violations[i].kind) << ": " << violations[i].message;
  }
  return os.str();
}

bool placementsEqual(const core::Placement& a, const core::Placement& b,
                     std::string* why) {
  auto fail = [&](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  if (a.switchCount() != b.switchCount()) {
    return fail("switch count differs");
  }
  for (int sw = 0; sw < a.switchCount(); ++sw) {
    const auto& ta = a.table(sw);
    const auto& tb = b.table(sw);
    if (ta.size() != tb.size()) {
      return fail("switch " + std::to_string(sw) + ": " +
                  std::to_string(ta.size()) + " vs " +
                  std::to_string(tb.size()) + " entries");
    }
    for (std::size_t i = 0; i < ta.size(); ++i) {
      const auto& ea = ta[i];
      const auto& eb = tb[i];
      if (!(ea.matchField == eb.matchField) || ea.action != eb.action ||
          ea.tags != eb.tags || ea.priority != eb.priority ||
          ea.merged != eb.merged) {
        return fail("switch " + std::to_string(sw) + " entry " +
                    std::to_string(i) + " differs");
      }
    }
  }
  return true;
}

namespace {

/// Run the non-incremental pipeline over the jobs sweep; first outcome is
/// the reference, the rest are compared bit-for-bit.
std::optional<core::PlaceOutcome> sweepAndCompare(
    const FuzzCase& fc, const ModeConfig& mode, const OracleOptions& options,
    OracleReport& report) {
  std::optional<core::PlaceOutcome> ref;
  int refJobs = 0;
  for (int jobs : options.jobsSweep) {
    core::PlaceOutcome out;
    try {
      out = core::place(fc.problem(), optionsFor(mode, options, jobs));
    } catch (const std::exception& e) {
      report.violations.push_back(
          {ViolationKind::kCrash,
           std::string("place() threw with jobs=") + std::to_string(jobs) +
               ": " + e.what()});
      return std::nullopt;
    }
    if (options.hooks.afterPlace) options.hooks.afterPlace(out, mode, jobs);
    ++report.counters.solves;
    if (!ref.has_value()) {
      ref = std::move(out);
      refJobs = jobs;
      continue;
    }
    ++report.counters.determinismComparisons;
    if (out.status != ref->status || out.partial != ref->partial ||
        out.degraded != ref->degraded || out.rung != ref->rung ||
        out.failedComponents != ref->failedComponents) {
      report.violations.push_back(
          {ViolationKind::kDeterminism,
           "status jobs=" + std::to_string(refJobs) + " -> " +
               describeOutcome(*ref) + ", jobs=" + std::to_string(jobs) +
               " -> " + describeOutcome(out)});
      continue;
    }
    // Per-component rung and failure attribution is part of the
    // determinism contract too: a degraded run must degrade the *same*
    // components for every thread count.
    if (out.componentStats.size() == ref->componentStats.size()) {
      for (std::size_t c = 0; c < out.componentStats.size(); ++c) {
        const auto& a = ref->componentStats[c];
        const auto& b = out.componentStats[c];
        if (a.rung != b.rung || a.status != b.status ||
            a.failure.has_value() != b.failure.has_value()) {
          report.violations.push_back(
              {ViolationKind::kDeterminism,
               "component " + std::to_string(c) + " rung/failure jobs=" +
                   std::to_string(refJobs) + " vs jobs=" +
                   std::to_string(jobs)});
          break;
        }
      }
    }
    if (!mode.satOnly && out.hasSolution() &&
        out.objective != ref->objective) {
      report.violations.push_back(
          {ViolationKind::kDeterminism,
           "objective jobs=" + std::to_string(refJobs) + "=" +
               std::to_string(ref->objective) + " vs jobs=" +
               std::to_string(jobs) + "=" + std::to_string(out.objective)});
      continue;
    }
    std::string why;
    if (out.hasAnyPlacement() && ref->hasAnyPlacement() &&
        !placementsEqual(ref->placement, out.placement, &why)) {
      report.violations.push_back(
          {ViolationKind::kDeterminism,
           "placement jobs=" + std::to_string(refJobs) + " vs jobs=" +
               std::to_string(jobs) + ": " + why});
    }
  }
  return ref;
}

void checkSemantics(const core::PlaceOutcome& out, const ModeConfig& mode,
                    ViolationKind kind, OracleReport& report) {
  if (!out.hasSolution()) return;
  ++report.counters.semanticChecks;
  core::VerifyResult v = core::verifyPlacement(
      out.solvedProblem, out.placement, /*respectTraffic=*/mode.slice);
  if (!v.ok) {
    report.violations.push_back({kind, v.summary()});
  }
}

/// Degradation contract (check 4 in the header): a ladder placement must
/// verify exactly, a partial placement must carry nothing from failed
/// components, and the successful components' subset must verify.
void checkDegradedInvariants(const core::PlaceOutcome& out,
                             const ModeConfig& mode, OracleReport& report) {
  if (!out.degraded && !out.partial) return;
  ++report.counters.degradedChecks;

  if (out.degraded && out.hasSolution()) {
    core::VerifyResult v = core::verifyPlacement(
        out.solvedProblem, out.placement, /*respectTraffic=*/mode.slice);
    if (!v.ok) {
      report.violations.push_back(
          {ViolationKind::kDegraded,
           std::string("ladder placement (rung ") +
               core::toString(out.rung) +
               ") fails exact verification: " + v.summary()});
    }
  }
  if (!out.partial) return;

  std::vector<int> failedPolicies;
  std::vector<int> okPolicies;
  for (const auto& c : out.componentStats) {
    const bool solved = c.status == solver::OptStatus::kOptimal ||
                        c.status == solver::OptStatus::kFeasible;
    auto& dst = solved ? okPolicies : failedPolicies;
    dst.insert(dst.end(), c.policyIds.begin(), c.policyIds.end());
  }
  for (int sw = 0; sw < out.placement.switchCount(); ++sw) {
    for (const auto& entry : out.placement.table(sw)) {
      for (int tag : entry.tags) {
        if (std::find(failedPolicies.begin(), failedPolicies.end(), tag) !=
            failedPolicies.end()) {
          report.violations.push_back(
              {ViolationKind::kDegraded,
               "partial placement still carries an entry of failed "
               "component policy " +
                   std::to_string(tag) + " on switch " +
                   std::to_string(sw)});
          return;
        }
      }
    }
  }
  core::VerifyResult v =
      core::verifyPlacement(out.solvedProblem, out.placement,
                            /*respectTraffic=*/mode.slice, &okPolicies);
  if (!v.ok) {
    report.violations.push_back(
        {ViolationKind::kDegraded,
         "partial placement fails verification over its successful "
         "components: " +
             v.summary()});
  }
}

/// Re-encode the (preprocessed) problem monolithically and enumerate it.
/// This is deliberately *not* the placer's decomposed path: agreement
/// between the two is the point of the check.
void checkBruteForce(const FuzzCase& fc, const ModeConfig& mode,
                     const OracleOptions& options,
                     const core::PlaceOutcome& ref, OracleReport& report) {
  if (ref.status != solver::OptStatus::kOptimal &&
      ref.status != solver::OptStatus::kInfeasible) {
    return;  // budget-bound outcome: nothing exact to compare
  }
  try {
    core::PlacementProblem copy = fc.problem();
    if (mode.removeRedundancy) {
      for (auto& q : copy.policies) acl::removeRedundant(q);
    }
    depgraph::MergeAnalysis mergeInfo;
    if (mode.merge) mergeInfo = depgraph::analyzeMergeable(copy.policies);
    core::EncoderOptions enc;
    enc.enableMerging = mode.merge;
    enc.enablePathSlicing = mode.slice;
    enc.objective = mode.objective;
    core::Encoder encoder(copy, enc, mode.merge ? &mergeInfo : nullptr);
    if (encoder.model().varCount() > options.bruteMaxVars) return;

    ++report.counters.bruteChecks;
    solver::OptResult truth =
        solver::bruteForceSolve(encoder.model(), options.bruteMaxVars);
    const bool refInfeasible = ref.status == solver::OptStatus::kInfeasible;
    const bool truthInfeasible =
        truth.status == solver::OptStatus::kInfeasible;
    if (refInfeasible != truthInfeasible) {
      report.violations.push_back(
          {ViolationKind::kOptimality,
           std::string("feasibility disagrees: pipeline ") +
               solver::toString(ref.status) + ", brute force " +
               solver::toString(truth.status)});
      return;
    }
    if (!refInfeasible && !mode.satOnly &&
        truth.objective != ref.objective) {
      report.violations.push_back(
          {ViolationKind::kOptimality,
           "objective " + std::to_string(ref.objective) +
               " != brute-force optimum " +
               std::to_string(truth.objective)});
    }
  } catch (const std::exception& e) {
    report.violations.push_back(
        {ViolationKind::kCrash,
         std::string("brute-force re-encode threw: ") + e.what()});
  }
}

void checkStatusAgreement(const FuzzCase& fc, const ModeConfig& mode,
                          const OracleOptions& options,
                          const core::PlaceOutcome& ref,
                          OracleReport& report) {
  if (mode.satOnly) return;
  if (ref.status != solver::OptStatus::kOptimal &&
      ref.status != solver::OptStatus::kInfeasible) {
    return;
  }
  ModeConfig satMode = mode;
  satMode.satOnly = true;
  core::PlaceOutcome satOut;
  try {
    satOut = core::place(
        fc.problem(),
        optionsFor(satMode, options, options.jobsSweep.front()));
  } catch (const std::exception& e) {
    report.violations.push_back(
        {ViolationKind::kCrash,
         std::string("sat-only cross-solve threw: ") + e.what()});
    return;
  }
  if (options.hooks.afterPlace) {
    options.hooks.afterPlace(satOut, satMode, options.jobsSweep.front());
  }
  ++report.counters.solves;
  if (satOut.status != solver::OptStatus::kOptimal &&
      satOut.status != solver::OptStatus::kInfeasible) {
    return;  // undecided under budget
  }
  ++report.counters.statusCrossChecks;
  const bool ilpFeasible = ref.status == solver::OptStatus::kOptimal;
  const bool satFeasible = satOut.status == solver::OptStatus::kOptimal;
  if (ilpFeasible != satFeasible) {
    report.violations.push_back(
        {ViolationKind::kStatus,
         std::string("ILP says ") + solver::toString(ref.status) +
             " but SAT mode says " + solver::toString(satOut.status)});
  }
}

/// Fast-path cross-check (check 5 in the header).  Composes the plain
/// hinted solver path — what core::place runs when the fast path does not
/// apply — per coupling component, over the component's slice of the
/// solved problem.  It runs under the oracle's conflict budget rather than
/// the mode's, so the ladder-floor mode's certified components are checked
/// too.
void checkFastPath(const ModeConfig& mode, const OracleOptions& options,
                   const core::PlaceOutcome& ref, OracleReport& report) {
  if (mode.satOnly || mode.merge) return;
  const core::PlacementProblem& solved = ref.solvedProblem;
  core::EncoderOptions enc;
  enc.enablePathSlicing = mode.slice;
  enc.objective = mode.objective;
  std::vector<int> identity(static_cast<std::size_t>(solved.policyCount()));
  std::iota(identity.begin(), identity.end(), 0);
  for (std::size_t c = 0; c < ref.componentStats.size(); ++c) {
    const core::ComponentSolveStats& cs = ref.componentStats[c];
    const bool certified = cs.path == core::PlacePath::kFastPath;
    if (cs.status != solver::OptStatus::kOptimal) continue;
    ++report.counters.fastPathChecks;
    if (certified) ++report.counters.fastPathCertified;
    const std::string where = "component " + std::to_string(c) + " (" +
                              core::toString(cs.path) + ")";
    try {
      const core::PlacementProblem sub = solved.subset(cs.policyIds);
      const core::Encoder encoder(sub, enc);
      const solver::OptResult r = solver::Optimizer::solveWithHint(
          encoder.model(), encoder.ingressHint(),
          solver::Budget::conflicts(options.conflictBudget));
      if (r.status == solver::OptStatus::kInfeasible) {
        report.violations.push_back(
            {ViolationKind::kFastPath,
             where + " placed, but the hinted solver proves it infeasible"});
        continue;
      }
      if (r.status != solver::OptStatus::kOptimal) continue;  // budget-bound
      if (r.objective != cs.objective) {
        report.violations.push_back(
            {ViolationKind::kFastPath,
             where + " objective " + std::to_string(cs.objective) +
                 " != hinted solver optimum " + std::to_string(r.objective)});
        continue;
      }
      if (!certified) continue;
      core::Placement composed(solved.graph->switchCount());
      composed.appendMapped(
          core::extractPlacement(sub, encoder, r.assignment, nullptr),
          cs.policyIds);
      // The component's share of the merged placement, renumbered the same
      // way appendMapped numbered the composed one.
      core::Placement share = ref.placement;
      for (int g = 0; g < solved.policyCount(); ++g) {
        if (!std::ranges::binary_search(cs.policyIds, g)) share.erasePolicy(g);
      }
      core::Placement placed(solved.graph->switchCount());
      placed.appendMapped(share, identity);
      std::string why;
      if (!placementsEqual(placed, composed, &why)) {
        report.violations.push_back(
            {ViolationKind::kFastPath,
             where + " placement differs from the hinted solver's: " + why});
      }
    } catch (const std::exception& e) {
      report.violations.push_back(
          {ViolationKind::kCrash,
           where + ": hinted solver cross-check threw: " + e.what()});
    }
  }
}

void checkIncremental(const FuzzCase& fc, const ModeConfig& mode,
                      const OracleOptions& options, OracleReport& report) {
  const int n = static_cast<int>(fc.policies.size());
  const int m = mode.basePolicies;
  if (m <= 0 || m >= n) return;
  ++report.counters.incrementalChecks;

  FuzzCase base;
  base.graph = fc.graph;
  base.routing.assign(fc.routing.begin(), fc.routing.begin() + m);
  base.policies.assign(fc.policies.begin(), fc.policies.begin() + m);
  std::vector<topo::IngressPaths> newRouting(fc.routing.begin() + m,
                                             fc.routing.end());
  std::vector<acl::Policy> newPolicies(fc.policies.begin() + m,
                                       fc.policies.end());

  std::optional<core::PlaceOutcome> refInc;
  int refJobs = 0;
  for (int jobs : options.jobsSweep) {
    core::PlaceOutcome incOut;
    try {
      core::PlaceOptions opts = optionsFor(mode, options, jobs);
      core::PlaceOutcome baseOut = core::place(base.problem(), opts);
      if (options.hooks.afterPlace) {
        options.hooks.afterPlace(baseOut, mode, jobs);
      }
      ++report.counters.solves;
      if (!baseOut.hasSolution()) return;  // tight base: nothing to install on
      incOut = core::installPolicies(base.problem(), baseOut.placement,
                                     newRouting, newPolicies, opts);
      if (options.hooks.afterPlace) {
        options.hooks.afterPlace(incOut, mode, jobs);
      }
      ++report.counters.solves;
    } catch (const std::exception& e) {
      report.violations.push_back(
          {ViolationKind::kCrash,
           std::string("incremental pipeline threw with jobs=") +
               std::to_string(jobs) + ": " + e.what()});
      return;
    }
    if (!refInc.has_value()) {
      refInc = std::move(incOut);
      refJobs = jobs;
      // The combined deployment must drop exactly what the combined
      // policies drop — infeasibility of the restricted subproblem is
      // acceptable (§IV-E), wrong semantics never.
      if (refInc->hasSolution()) {
        ++report.counters.semanticChecks;
        core::VerifyResult v =
            core::verifyPlacement(refInc->solvedProblem, refInc->placement,
                                  /*respectTraffic=*/mode.slice);
        if (!v.ok) {
          report.violations.push_back(
              {ViolationKind::kIncremental, v.summary()});
        }
      }
      continue;
    }
    ++report.counters.determinismComparisons;
    if (incOut.status != refInc->status) {
      report.violations.push_back(
          {ViolationKind::kDeterminism,
           "incremental status jobs=" + std::to_string(refJobs) + " -> " +
               describeOutcome(*refInc) + ", jobs=" + std::to_string(jobs) +
               " -> " + describeOutcome(incOut)});
      continue;
    }
    std::string why;
    if (incOut.hasSolution() &&
        !placementsEqual(refInc->placement, incOut.placement, &why)) {
      report.violations.push_back(
          {ViolationKind::kDeterminism,
           "incremental placement jobs=" + std::to_string(refJobs) +
               " vs jobs=" + std::to_string(jobs) + ": " + why});
    }
  }
}

/// Persistent-session differential (ViolationKind::kIncrementalSolver).
/// Three cross-checks over core::IncrementalSession:
///   * *one-shot equality* — installing every policy in ONE event from an
///     empty base is the unrestricted problem, so status must agree with a
///     from-scratch place() (merging off, like session deltas) and, when
///     both prove optimality, the objective must be identical;
///   * *replay determinism* — the chunked install sequence run twice must
///     produce bit-identical placements and statuses (clause reuse may
///     change the search, never the result of a replay);
///   * *semantics* — every committed session placement verifies exactly,
///     and a chunked session can only be infeasible-or-worse than scratch
///     (the pinned prefix is a restriction), never better.
void checkIncrementalSession(const FuzzCase& fc, const ModeConfig& mode,
                             const OracleOptions& options,
                             OracleReport& report) {
  const int n = static_cast<int>(fc.policies.size());
  const int m = mode.basePolicies;
  if (m <= 0 || m >= n) return;
  ++report.counters.incrementalSolverChecks;

  core::PlaceOptions opts = optionsFor(mode, options, /*jobs=*/1);
  opts.encoder.enableMerging = false;  // session deltas never merge

  struct SessionTrace {
    std::vector<solver::OptStatus> statuses;
    core::Placement placement;
    std::int64_t objective = 0;
    bool allSolved = true;
  };
  // `chunks` of (first, last) policy index ranges installed in order.
  auto runSession =
      [&](const std::vector<std::pair<int, int>>& chunks) -> SessionTrace {
    core::PlacementProblem empty;
    empty.graph = fc.graph.get();
    core::IncrementalSession session(empty, core::Placement{}, opts);
    SessionTrace trace;
    for (auto [first, last] : chunks) {
      std::vector<topo::IngressPaths> routing(fc.routing.begin() + first,
                                              fc.routing.begin() + last);
      std::vector<acl::Policy> policies(fc.policies.begin() + first,
                                        fc.policies.begin() + last);
      core::PlaceOutcome out = session.install(routing, policies);
      ++report.counters.solves;
      trace.statuses.push_back(out.status);
      trace.allSolved &= out.hasSolution();
      if (out.hasSolution()) {
        trace.objective = out.objective;
      } else {
        break;  // session rolled back; later chunks would shift policy ids
      }
    }
    trace.placement = session.placement();
    if (trace.allSolved) {
      ++report.counters.semanticChecks;
      core::VerifyResult v = core::verifyPlacement(
          session.problem(), session.placement(), /*respectTraffic=*/mode.slice);
      if (!v.ok) {
        report.violations.push_back(
            {ViolationKind::kIncrementalSolver,
             "session placement failed verification: " + v.summary()});
      }
    }
    return trace;
  };

  core::PlaceOutcome scratch;
  try {
    core::PlaceOptions scratchOpts = opts;
    scratch = core::place(fc.problem(), scratchOpts);
    ++report.counters.solves;

    const std::vector<std::pair<int, int>> chunked{{0, m}, {m, n}};
    SessionTrace a = runSession(chunked);
    SessionTrace b = runSession(chunked);
    ++report.counters.determinismComparisons;
    std::string why;
    if (a.statuses != b.statuses ||
        !placementsEqual(a.placement, b.placement, &why)) {
      report.violations.push_back(
          {ViolationKind::kIncrementalSolver,
           "session replay diverged: " + (why.empty() ? "statuses" : why)});
    }

    SessionTrace oneShot = runSession({{0, n}});
    const bool scratchDecided =
        scratch.status == solver::OptStatus::kOptimal ||
        scratch.status == solver::OptStatus::kInfeasible;
    if (scratchDecided && oneShot.statuses.size() == 1) {
      const solver::OptStatus ss = oneShot.statuses[0];
      if ((ss == solver::OptStatus::kOptimal ||
           ss == solver::OptStatus::kInfeasible) &&
          ss != scratch.status) {
        report.violations.push_back(
            {ViolationKind::kIncrementalSolver,
             std::string("one-shot session says ") + solver::toString(ss) +
                 " but scratch place() says " +
                 solver::toString(scratch.status)});
      }
      if (ss == solver::OptStatus::kOptimal &&
          scratch.status == solver::OptStatus::kOptimal &&
          oneShot.objective != scratch.objective) {
        report.violations.push_back(
            {ViolationKind::kIncrementalSolver,
             "one-shot session objective " + std::to_string(oneShot.objective) +
                 " != scratch optimum " + std::to_string(scratch.objective)});
      }
    }

    // Restriction direction: a chunked session that proves optimality can
    // never beat the scratch optimum, and its success implies scratch
    // feasibility.
    if (a.allSolved && a.statuses.back() == solver::OptStatus::kOptimal) {
      if (scratch.status == solver::OptStatus::kInfeasible) {
        report.violations.push_back(
            {ViolationKind::kIncrementalSolver,
             "chunked session solved an instance scratch proves infeasible"});
      } else if (scratch.status == solver::OptStatus::kOptimal &&
                 a.placement.totalInstalledRules() <
                     scratch.placement.totalInstalledRules() &&
                 mode.objective == core::ObjectiveKind::kTotalRules) {
        report.violations.push_back(
            {ViolationKind::kIncrementalSolver,
             "chunked session installed fewer rules than the scratch "
             "optimum: " +
                 std::to_string(a.placement.totalInstalledRules()) + " < " +
                 std::to_string(scratch.placement.totalInstalledRules())});
      }
    }
  } catch (const std::exception& e) {
    report.violations.push_back(
        {ViolationKind::kCrash,
         std::string("incremental session threw: ") + e.what()});
  }
}

/// Every dependency-graph builder — naive reference, indexed, and indexed
/// over two worker threads — must produce bit-identical drop lists and
/// shield sets for every policy (the tentpole determinism contract; see
/// docs/depgraph.md).  Graphs are built directly, bypassing the cache, so
/// the check cannot be masked by a cached result.
void checkDepGraphEquivalence(const FuzzCase& fc, OracleReport& report) {
  for (std::size_t p = 0; p < fc.policies.size(); ++p) {
    const acl::Policy& policy = fc.policies[p];
    depgraph::BuildOptions naive;
    naive.builder = depgraph::BuilderKind::kNaive;
    naive.cache = false;
    depgraph::BuildOptions indexed = naive;
    indexed.builder = depgraph::BuilderKind::kIndexed;
    depgraph::BuildOptions parallel = indexed;
    parallel.threads = 2;

    const depgraph::DependencyGraph ref(policy, naive);
    ++report.counters.depgraphChecks;
    const auto compare = [&](const depgraph::DependencyGraph& got,
                             const char* name) {
      if (got.dropRules() != ref.dropRules()) {
        report.violations.push_back(
            {ViolationKind::kDepgraph,
             std::string(name) + " builder: drop list differs on policy " +
                 std::to_string(p)});
        return;
      }
      for (int dropId : ref.dropRules()) {
        if (!std::ranges::equal(got.shieldsOf(dropId),
                                ref.shieldsOf(dropId))) {
          report.violations.push_back(
              {ViolationKind::kDepgraph,
               std::string(name) + " builder: shields of drop rule " +
                   std::to_string(dropId) + " differ on policy " +
                   std::to_string(p)});
          return;
        }
      }
    };
    compare(depgraph::DependencyGraph(policy, indexed), "indexed");
    compare(depgraph::DependencyGraph(policy, parallel), "parallel");
  }
}

}  // namespace

OracleReport checkCase(const FuzzCase& fc, const ModeConfig& mode,
                       const OracleOptions& options) {
  OracleReport report;
  if (options.jobsSweep.empty()) {
    report.violations.push_back(
        {ViolationKind::kCrash, "empty jobs sweep"});
    return report;
  }

  checkDepGraphEquivalence(fc, report);

  if (mode.incremental()) {
    checkIncremental(fc, mode, options, report);
    checkIncrementalSession(fc, mode, options, report);
    return report;
  }

  std::optional<core::PlaceOutcome> ref =
      sweepAndCompare(fc, mode, options, report);
  if (!ref.has_value()) return report;

  if (ref->hasAnyPlacement() && ref->rung == core::PlaceRung::kGreedy) {
    ++report.counters.greedyRungRuns;
  }
  checkSemantics(*ref, mode, ViolationKind::kSemantics, report);
  checkDegradedInvariants(*ref, mode, report);
  checkBruteForce(fc, mode, options, *ref, report);
  checkStatusAgreement(fc, mode, options, *ref, report);
  checkFastPath(mode, options, *ref, report);
  return report;
}

}  // namespace ruleplace::fuzz
