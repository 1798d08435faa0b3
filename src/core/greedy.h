#pragma once
// Baseline placement strategies, for the §V/§VI comparisons:
//
//   * greedyPlace — the ingress-first heuristic the paper sketches for
//     small incremental updates (§IV-E): walk each path and put every DROP
//     rule (with its shielding PERMITs) at the first switch with room.
//     Fast, but *incomplete*: it can fail on instances the ILP solves —
//     the "no false negatives" advantage claimed for the exact encoding.
//   * replicateAllCount — the p × r upper bound of techniques that place
//     every rule of a policy on every path ([1]'s comparison in §V).

#include <cstdint>
#include <string>
#include <vector>

#include "core/placement.h"
#include "core/problem.h"
#include "util/deadline.h"

namespace ruleplace::core {

struct GreedyOutcome {
  bool feasible = false;
  Placement placement;  ///< valid when feasible
  std::int64_t totalRules = 0;
  std::string failureReason;
  bool deadlineExpired = false;  ///< gave up early; failureReason says so
};

/// The ingress-first walk on its own: the entries greedyPlace installs,
/// before buildPlacement orders them into tables.
struct GreedyWalk {
  bool feasible = false;
  /// Distinct (policy, rule, switch) entries in placement order; valid
  /// when feasible.  Its size is the walk's installed-rule count.
  std::vector<PlacedRule> placed;
  std::string failureReason;
  bool deadlineExpired = false;  ///< gave up early; failureReason says so
};

/// Walk every policy's paths and put each DROP rule (with its shielding
/// PERMITs) at the first switch along the path with room.  Honors path
/// slicing when `usePathSlicing` and a path carries a traffic descriptor.
/// Polls `deadline` per policy and reports infeasible with deadlineExpired
/// set on expiry.  core::place's certified fast path runs this alone and
/// pays for buildPlacement only once the walk is certified.
GreedyWalk greedyWalk(const PlacementProblem& problem,
                      bool usePathSlicing = false,
                      const util::Deadline& deadline = {});

/// Ingress-first greedy heuristic: greedyWalk, then buildPlacement.  Note
/// that core::place's degradation ladder deliberately calls this *without*
/// a deadline: greedy is the polynomial floor of the ladder and must be
/// allowed to finish (docs/robustness.md).
GreedyOutcome greedyPlace(const PlacementProblem& problem,
                          bool usePathSlicing = false,
                          const util::Deadline& deadline = {});

/// Rules a replicate-everything strategy would install: Σ_i |Q_i| * |P_i|.
std::int64_t replicateAllCount(const PlacementProblem& problem);

/// Path-wise baseline in the spirit of Kang et al. [1]: each path is
/// handled independently — its (optionally sliced) rules are packed
/// first-fit along that path's switches — with **no sharing across paths
/// or policies**: a rule used by two paths is installed twice even when a
/// common switch could serve both.  The gap between this and the ILP
/// quantifies the value of the paper's global cross-path optimization
/// (§VI's first claimed advantage).
GreedyOutcome pathwisePlace(const PlacementProblem& problem,
                            bool usePathSlicing = false,
                            const util::Deadline& deadline = {});

}  // namespace ruleplace::core
