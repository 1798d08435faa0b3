#include "core/incremental.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/obs.h"

namespace ruleplace::core {

namespace {

// Capacity left on every switch by `deployed` once the entries of the
// policies `freed` (sorted) are erased, counted without copying it.
std::vector<int> spareWithout(const PlacementProblem& problem,
                              const Placement& deployed,
                              const std::vector<int>& freed) {
  std::vector<int> spare = spareCapacities(problem, deployed);
  if (freed.empty()) return spare;
  for (topo::SwitchId sw = 0; sw < deployed.switchCount(); ++sw) {
    for (const InstalledRule& entry : deployed.table(sw)) {
      if (std::ranges::all_of(entry.tags, [&](int t) {
            return std::binary_search(freed.begin(), freed.end(), t);
          })) {
        ++spare[static_cast<std::size_t>(sw)];
      }
    }
  }
  return spare;
}

// A one-event session's outcome, carrying the combined deployment and
// problem once the event committed.
PlaceOutcome combinedOutcome(const IncrementalSession& session,
                             PlaceOutcome out) {
  if (out.hasSolution()) {
    out.placement = session.placement();
    out.solvedProblem = session.problem();
  }
  return out;
}

}  // namespace

std::vector<int> spareCapacities(const PlacementProblem& problem,
                                 const Placement& base) {
  std::vector<int> spare(
      static_cast<std::size_t>(problem.graph->switchCount()));
  for (topo::SwitchId sw = 0; sw < problem.graph->switchCount(); ++sw) {
    spare[static_cast<std::size_t>(sw)] =
        problem.capacityOf(sw) - base.usedCapacity(sw);
    if (spare[static_cast<std::size_t>(sw)] < 0) {
      throw std::invalid_argument(
          "spareCapacities: base placement exceeds capacity");
    }
  }
  return spare;
}

PlaceOutcome installPolicies(const PlacementProblem& problem,
                             const Placement& base,
                             std::vector<topo::IngressPaths> newRouting,
                             std::vector<acl::Policy> newPolicies,
                             const PlaceOptions& options) {
  IncrementalSession session(problem, base, options);
  PlaceOutcome out =
      session.install(std::move(newRouting), std::move(newPolicies));
  return combinedOutcome(session, std::move(out));
}

PlaceOutcome reroutePolicies(const PlacementProblem& problem,
                             const Placement& base,
                             const std::vector<int>& policyIds,
                             std::vector<topo::IngressPaths> newRouting,
                             const PlaceOptions& options) {
  IncrementalSession session(problem, base, options);
  PlaceOutcome out = session.reroute(policyIds, std::move(newRouting));
  return combinedOutcome(session, std::move(out));
}

// ---- IncrementalSession -----------------------------------------------------

IncrementalSession::IncrementalSession(PlacementProblem base,
                                       Placement basePlacement,
                                       PlaceOptions options)
    : options_(std::move(options)),
      combined_(std::move(base)),
      basePlacement_(std::move(basePlacement)) {
  if (options_.budget.deadline.hasWallDeadline()) {
    // Capture the *span*, not the absolute point: every event re-arms a
    // fresh deadline of this length (see eventBudget()).
    eventDeadlineSeconds_ = options_.budget.deadline.remainingSeconds();
  }
  combined_.validate();
  if (basePlacement_.switchCount() == 0) {
    // An empty base deployment: start from per-switch empty tables.
    basePlacement_ = Placement(combined_.graph->switchCount());
  }
  spareCapacities(combined_, basePlacement_);  // throws on over-capacity
  placement_ = basePlacement_;
  sessionPlaced_.assign(static_cast<std::size_t>(combined_.policyCount()), 0);
}

solver::Budget IncrementalSession::eventBudget() const {
  solver::Budget b = options_.budget;
  if (eventDeadlineSeconds_ >= 0.0) {
    b.deadline = util::Deadline::in(eventDeadlineSeconds_);
    if (options_.budget.deadline.token().valid()) {
      b.deadline = b.deadline.withToken(options_.budget.deadline.token());
    }
  }
  return b;
}

PlacementProblem IncrementalSession::subproblem(
    const Event& event, const std::vector<int>& others,
    std::vector<int> capacity) const {
  PlacementProblem sub = combined_.subset(others);
  sub.capacityOverride = std::move(capacity);
  sub.routing.insert(sub.routing.end(), event.routing.begin(),
                     event.routing.end());
  for (std::size_t i = 0; i < event.ids.size(); ++i) {
    sub.policies.push_back(
        event.policies.empty()
            ? combined_.policies[static_cast<std::size_t>(event.ids[i])]
            : event.policies[i]);
  }
  return sub;
}

void IncrementalSession::moveInto(Event& event, PlacementProblem& problem) {
  // Install ids run consecutively from policyCount(), in event order.
  const int count = problem.policyCount();
  for (std::size_t i = 0; i < event.ids.size(); ++i) {
    const int id = event.ids[i];
    if (id < count) {
      problem.routing[static_cast<std::size_t>(id)] =
          std::move(event.routing[i]);
    } else {
      problem.routing.push_back(std::move(event.routing[i]));
      problem.policies.push_back(std::move(event.policies[i]));
    }
  }
}

void IncrementalSession::commit(Event& event, const Placement& placed,
                                const std::vector<int>& placedIds,
                                bool repacked) {
  basePlacement_.erasePolicies(event.movedBase);
  if (repacked) {
    placement_ = basePlacement_;
  } else {
    placement_.erasePolicies(event.moved);
  }
  placement_.appendMapped(placed, placedIds);
  moveInto(event, combined_);
  sessionPlaced_.resize(static_cast<std::size_t>(combined_.policyCount()), 0);
  for (int id : event.ids) sessionPlaced_[static_cast<std::size_t>(id)] = 1;
  ++events_;
}

PlaceOutcome IncrementalSession::apply(Event event) {
  const int count = combined_.policyCount();
  for (int id : event.ids) {
    if (id < count) event.moved.push_back(id);
  }
  std::sort(event.moved.begin(), event.moved.end());
  for (int id : event.moved) {
    if (sessionPlaced_[static_cast<std::size_t>(id)] == 0) {
      event.movedBase.push_back(id);
    }
  }
  // Restricted re-solves place the event's policies as given and count
  // every new entry once against spare capacity: no merging, no
  // redundancy removal.  Both rungs share one re-armed event budget.  With
  // observability set, place() would enable the registry and relabel the
  // calling thread (a daemon's drain worker) "main"; the session leaves
  // both to its caller.
  PlaceOptions restricted = options_;
  restricted.encoder.enableMerging = false;
  restricted.removeRedundancy = false;
  restricted.observability = false;
  restricted.budget = eventBudget();

  PlaceOutcome out = place(
      subproblem(event, {}, spareWithout(combined_, placement_, event.moved)),
      restricted);
  if (out.hasSolution()) {
    commit(event, out.placement, event.ids, false);
    return out;
  }

  // Repack: the session-placed policies outside the event may move too;
  // only the base deployment stays fixed.
  std::vector<int> others;
  for (int id = 0; id < count; ++id) {
    if (sessionPlaced_[static_cast<std::size_t>(id)] != 0 &&
        !std::binary_search(event.moved.begin(), event.moved.end(), id)) {
      others.push_back(id);
    }
  }
  if (out.status == solver::OptStatus::kInfeasible && !others.empty()) {
    if (obs::enabled()) {
      obs::Registry::global().counter("incremental.session.repack").add(1);
    }
    obs::Span repackSpan("incremental.session.repack");
    std::vector<int> spare =
        spareWithout(combined_, basePlacement_, event.movedBase);
    out = place(subproblem(event, others, std::move(spare)), restricted);
    if (out.hasSolution()) {
      ++repacks_;
      others.insert(others.end(), event.ids.begin(), event.ids.end());
      commit(event, out.placement, others, true);
      return out;
    }
  }
  if (out.status != solver::OptStatus::kInfeasible ||
      !options_.resilience.fullResolveOnInfeasible) {
    return out;
  }

  // Escalation: everything placed from scratch with full capacities and
  // the configured merging, on a fresh budget.
  obs::Span fullSpan("incremental.session.escalate");
  PlacementProblem full = combined_;
  moveInto(event, full);
  PlaceOptions escalation = options_;
  escalation.observability = false;
  escalation.budget = eventBudget();
  out = place(std::move(full), escalation);
  out.escalatedFullResolve = true;
  if (out.hasSolution()) {
    ++escalations_;
    ++events_;
    if (obs::enabled()) {
      obs::Registry::global().counter("incremental.session.escalations").add(1);
    }
    combined_ = out.solvedProblem;
    basePlacement_ = out.placement;
    placement_ = out.placement;
    sessionPlaced_.assign(static_cast<std::size_t>(combined_.policyCount()), 0);
  }
  return out;
}

PlaceOutcome IncrementalSession::install(
    std::vector<topo::IngressPaths> newRouting,
    std::vector<acl::Policy> newPolicies) {
  if (newRouting.size() != newPolicies.size()) {
    throw std::invalid_argument(
        "IncrementalSession::install: one routing entry per policy required");
  }
  obs::Span span("incremental.session.install");
  span.arg("policies", static_cast<std::int64_t>(newPolicies.size()));
  Event event;
  event.ids.resize(newPolicies.size());
  std::iota(event.ids.begin(), event.ids.end(), combined_.policyCount());
  event.routing = std::move(newRouting);
  event.policies = std::move(newPolicies);
  return apply(std::move(event));
}

PlaceOutcome IncrementalSession::reroute(
    const std::vector<int>& policyIds,
    std::vector<topo::IngressPaths> newRouting) {
  if (policyIds.size() != newRouting.size()) {
    throw std::invalid_argument(
        "IncrementalSession::reroute: one routing entry per policy required");
  }
  for (int id : policyIds) {
    if (id < 0 || id >= combined_.policyCount()) {
      throw std::invalid_argument("IncrementalSession::reroute: unknown id");
    }
  }
  // A duplicate id has no single new route; callers coalesce duplicates to
  // the newest route instead (last-wins, as the serve shard does).
  std::vector<int> sorted = policyIds;
  std::sort(sorted.begin(), sorted.end());
  const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
  if (dup != sorted.end()) {
    throw std::invalid_argument(
        "IncrementalSession::reroute: duplicate policy id " +
        std::to_string(*dup) + " in one event");
  }
  obs::Span span("incremental.session.reroute");
  span.arg("policies", static_cast<std::int64_t>(policyIds.size()));
  Event event;
  event.ids = policyIds;
  event.routing = std::move(newRouting);
  return apply(std::move(event));
}

}  // namespace ruleplace::core
