#pragma once
// Incremental deployment (paper §IV-E, evaluated in experiment 5).
//
// A running network changes: new tenants install policies, routes move.
// Re-solving the whole ILP can take seconds to minutes; instead we build a
// *restricted* subproblem over only the affected policies, give it the
// spare capacity left by the existing deployment, and solve that with
// core::place — usually in milliseconds.  The restriction can make a
// solvable instance infeasible (the deployment around the event is never
// revisited), which the paper accepts as the price of speed.
//
// Restricted re-solves run with merging and redundancy removal off: the
// new entries are counted one per rule against the spare capacity, and the
// policies are placed as given.  An outcome's `objective` is the re-solved
// subproblem's, not the whole deployment's.
//
// With ResilienceOptions::fullResolveOnInfeasible set, an event whose
// restricted re-solves come back kInfeasible escalates to a full re-solve
// of the whole deployment (full capacities, every policy placed from
// scratch, merging as configured); the returned outcome then has
// escalatedFullResolve set and its placement replaces — rather than
// extends — the deployment.

#include <optional>
#include <vector>

#include "core/placement.h"
#include "core/placer.h"
#include "core/problem.h"

namespace ruleplace::core {

/// Capacity left on every switch after `base` is deployed.
std::vector<int> spareCapacities(const PlacementProblem& problem,
                                 const Placement& base);

/// Install additional policies on the spare capacity of an existing
/// deployment: a one-event IncrementalSession.  `newRouting[i]` carries
/// the paths for `newPolicies[i]`; their policy ids in the combined
/// placement start at `problem.policyCount()`.  On success the returned
/// outcome's placement is the *combined* deployment (base plus new rules)
/// and its solvedProblem the combined problem.
PlaceOutcome installPolicies(const PlacementProblem& problem,
                             const Placement& base,
                             std::vector<topo::IngressPaths> newRouting,
                             std::vector<acl::Policy> newPolicies,
                             const PlaceOptions& options = {});

/// Re-route existing policies: erase their rules from the deployment,
/// then re-place them on their new paths using only the freed + spare
/// capacity (a one-event IncrementalSession).  `newRouting[i]` replaces
/// the routing of `policyIds[i]`.  On success the returned placement is
/// the combined deployment and solvedProblem the combined problem.
PlaceOutcome reroutePolicies(const PlacementProblem& problem,
                             const Placement& base,
                             const std::vector<int>& policyIds,
                             std::vector<topo::IngressPaths> newRouting,
                             const PlaceOptions& options = {});

/// A deployment under churn (docs/solver.md, "Incremental sessions").
///
/// The session holds the combined problem, its deployment, and which
/// policies it placed itself since construction (the *session-placed*
/// ones; everything else is the fixed *base*).  Every install()/reroute()
/// is one or more core::place() calls over nested policy sets:
///   1. *pinned* — the event's policies alone, against the capacity the
///      current deployment leaves (rerouted policies' entries freed first);
///   2. *repack* — only when (1) is kInfeasible and the session has placed
///      policies outside the event: those plus the event, against the
///      capacity the base deployment leaves, so earlier session placements
///      may move (the base stays fixed);
///   3. *escalation* — still infeasible with
///      ResilienceOptions::fullResolveOnInfeasible set: a full place() of
///      the whole combined problem replaces the deployment, which then
///      becomes the new base (the outcome's escalatedFullResolve is set).
/// Rungs 1 and 2 share one event budget; an escalation gets a fresh one.
///
/// Between events, uninstall(), setCapacity() and rebase() change the
/// deployment in place; none resets the counters.
///
/// Every outcome is the last rung's own place() result: its placement and
/// solvedProblem cover that rung's subproblem (the event's policies; plus
/// the repacked ones for a repack; the whole combined problem for an
/// escalation).  The combined deployment is read from problem() and
/// placement(), so a pinned or repacked event costs no copy of it.
/// Nothing is committed before a rung succeeds, so a failed event
/// (infeasible without escalation, or budget exhausted) leaves problem()
/// and placement() exactly as they were.  The sequence of placements is
/// deterministic: it depends only on the event sequence, never on
/// wall-clock or thread count.
class IncrementalSession {
 public:
  /// `base` is the deployed problem, `basePlacement` its current (verified)
  /// deployment.  Throws std::invalid_argument when the base placement
  /// exceeds a switch capacity.  `options` applies to every event: budget
  /// (re-armed per event), encoder options (merging is forced off for
  /// restricted re-solves but honored by escalations), satisfiabilityOnly,
  /// useIngressHint, threads, resilience.ladder/partialResults and
  /// resilience.fullResolveOnInfeasible.  The session never enables the
  /// observability registry; it records into it when the caller did.
  IncrementalSession(PlacementProblem base, Placement basePlacement,
                     PlaceOptions options = {});

  /// Install additional policies; ids in the combined problem start at
  /// problem().policyCount().  On success the session state advances.
  PlaceOutcome install(std::vector<topo::IngressPaths> newRouting,
                       std::vector<acl::Policy> newPolicies);

  /// Re-route existing policies (ids into problem(), no duplicates);
  /// `newRouting[i]` replaces the routing of `policyIds[i]`.
  PlaceOutcome reroute(const std::vector<int>& policyIds,
                       std::vector<topo::IngressPaths> newRouting);

  /// Retract policies (ids into problem(), else std::out_of_range).  No
  /// solve: their entries go, and the other policies keep their order
  /// under compacted ids, tags and priorities renumbered.
  void uninstall(const std::vector<int>& policyIds);

  /// Make the current deployment the fixed base: later repacks may move
  /// only what the session places from now on.
  void rebase();

  /// Set switch `sw`'s capacity.  When the deployment fits, rebase and
  /// return nullopt.  Otherwise re-place the whole problem on a fresh
  /// event budget, adopt a success as the new base the way an escalation
  /// does, and return the outcome; a failure changes nothing.
  std::optional<PlaceOutcome> setCapacity(topo::SwitchId sw, int capacity);

  /// The combined problem / deployment after the last committed event.
  const PlacementProblem& problem() const noexcept { return combined_; }
  const Placement& placement() const noexcept { return placement_; }

  int events() const noexcept { return events_; }       ///< committed events
  int repacks() const noexcept { return repacks_; }     ///< committed repacks
  int escalations() const noexcept { return escalations_; }

 private:
  /// One event in combined ids: its target policies and their new routing.
  /// An install carries the new policies too (ids from policyCount() on);
  /// a reroute's `policies` stays empty.
  struct Event {
    std::vector<int> ids;
    std::vector<topo::IngressPaths> routing;
    std::vector<acl::Policy> policies;
    std::vector<int> moved;      ///< already-deployed targets, sorted
    std::vector<int> movedBase;  ///< those of `moved` in the base
  };

  /// The per-event budget: options_.budget with any wall deadline re-armed
  /// to the span it was constructed with.  A session outlives single
  /// events by design, so the absolute deadline captured at construction
  /// would go stale and reject every event after the first timeout.
  solver::Budget eventBudget() const;
  /// Run the rungs for one event and commit the first success.
  PlaceOutcome apply(Event event);
  /// The policies `others` (combined ids, event targets excluded) plus the
  /// event's targets, against `capacity`.
  PlacementProblem subproblem(const Event& event,
                              const std::vector<int>& others,
                              std::vector<int> capacity) const;
  /// Apply the event to `problem` (the combined one or a copy), moving
  /// its routing and policies out.
  static void moveInto(Event& event, PlacementProblem& problem);
  /// place() the whole of `full` from scratch (configured merging, fresh
  /// event budget) and on success adopt it as the new base deployment.
  PlaceOutcome placeAll(PlacementProblem full);
  /// Adopt a rung's result: `placed` covers the policies `placedIds`
  /// (tags in that order); `repacked` says it replaces every
  /// session-placed entry rather than adding to the deployment.
  void commit(Event& event, const Placement& placed,
              const std::vector<int>& placedIds, bool repacked);

  PlaceOptions options_;
  /// Wall-clock span (seconds) each event may take; < 0 when the
  /// constructing options carried no wall deadline.
  double eventDeadlineSeconds_ = -1.0;
  PlacementProblem combined_;
  Placement basePlacement_;  ///< deployment of the non-session policies
  Placement placement_;      ///< basePlacement_ + session-placed entries
  std::vector<char> sessionPlaced_;  ///< by combined policy id
  int events_ = 0;
  int repacks_ = 0;
  int escalations_ = 0;
};

}  // namespace ruleplace::core
