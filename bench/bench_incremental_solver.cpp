// Churn replay: the same install sequence driven through three strategies.
//
// A base deployment is solved once, then 8 churn events (policy batches)
// land on it.  Each strategy replays the identical sequence:
//   (a) scratch    — full core::place of the accumulated problem per event
//                    (every re-solve re-encodes and re-searches everything),
//   (b) stateless  — core::installPolicies per event: a one-event session
//                    built from the previous outcome, so each event pays a
//                    session's construction (problem and placement copies,
//                    validation) on top of its restricted core::place,
//   (c) session    — one core::IncrementalSession for the whole trace: the
//                    same restricted core::place per event (only the new
//                    policies, against spare capacity), state kept between
//                    events, and the repack rung available.
//
// Each point replays its trace kRepetitions times and reports the median
// replay as its one iteration: a single replay of a few milliseconds
// swings 2-3x between runs, too much for a 15% relative check.
//
// The session point carries a `speedup_vs_scratch` counter; the committed
// baseline plus bench/baselines/FLOORS.json turn the paper-motivated claim
// "incremental re-solve is >= 3x faster than scratch at 4k+ rules" into a
// CI check (tools/check_bench.py).

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/incremental.h"
#include "topo/routing.h"
#include "util/rng.h"

namespace ruleplace::bench {
namespace {

constexpr int kEvents = 8;
constexpr int kPoliciesPerEvent = 4;
constexpr int kRepetitions = 5;

/// One replayable churn trace at a given total-rule scale: a solved base
/// deployment holding half the rules, and 8 pre-generated batches holding
/// the other half.  Built once per scale and shared by every strategy so
/// they race on identical inputs.
struct Workload {
  std::unique_ptr<core::Instance> inst;
  core::PlaceOutcome base;
  std::vector<std::vector<topo::IngressPaths>> routingEvents;
  std::vector<std::vector<acl::Policy>> policyEvents;
  double scratchSeconds = -1.0;  ///< lazily measured, cached for speedup

  explicit Workload(int totalRules) {
    core::InstanceConfig cfg;
    cfg.fatTreeK = 4;
    cfg.ingressCount = 8;
    cfg.totalPaths = 32;
    cfg.rulesPerPolicy = totalRules / 2 / cfg.ingressCount;
    cfg.capacity = totalRules / 4;  // ~5x the spread-out per-switch need
    cfg.seed = 42;
    inst = std::make_unique<core::Instance>(cfg);
    base = core::place(inst->problem(), churnOptions());

    const int rulesPerChurnPolicy =
        totalRules / 2 / (kEvents * kPoliciesPerEvent);
    util::Rng rng(static_cast<std::uint64_t>(totalRules));
    classbench::GeneratorConfig gen;
    gen.rulesPerPolicy = rulesPerChurnPolicy;
    classbench::PolicyGenerator pg(gen, rng.next());
    topo::ShortestPathRouter router(inst->graph());
    const int ports = inst->graph().entryPortCount();
    for (int e = 0; e < kEvents; ++e) {
      std::vector<topo::IngressPaths> routing;
      std::vector<acl::Policy> policies;
      for (int i = 0; i < kPoliciesPerEvent; ++i) {
        topo::PortId in = static_cast<topo::PortId>(rng.below(ports));
        topo::PortId out = static_cast<topo::PortId>(rng.below(ports));
        if (out == in) out = (out + 1) % ports;
        routing.push_back({in, {router.route(in, out, rng)}});
        policies.push_back(pg.generate());
      }
      routingEvents.push_back(std::move(routing));
      policyEvents.push_back(std::move(policies));
    }
  }

  /// Churn cares about feasibility latency, not optimality (§IV-E).
  static core::PlaceOptions churnOptions() {
    core::PlaceOptions opts;
    opts.satisfiabilityOnly = true;
    opts.budget = pointBudget();
    return opts;
  }
};

Workload& sharedWorkload(int totalRules) {
  static std::map<int, std::unique_ptr<Workload>> cache;
  auto& slot = cache[totalRules];
  if (!slot) slot = std::make_unique<Workload>(totalRules);
  return *slot;
}

double elapsedSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Median over kRepetitions calls of `replay`, which returns the seconds
/// one replay of the trace spent solving.
template <class Replay>
double medianSeconds(Replay&& replay) {
  std::vector<double> seconds;
  for (int r = 0; r < kRepetitions; ++r) seconds.push_back(replay());
  std::nth_element(seconds.begin(), seconds.begin() + kRepetitions / 2,
                   seconds.end());
  return seconds[kRepetitions / 2];
}

/// Replay every event with a full from-scratch solve of the accumulated
/// problem.  Returns total solve seconds; counts feasible events.
double replayScratch(Workload& w, int* feasible) {
  const core::PlaceOptions opts = Workload::churnOptions();
  core::PlacementProblem accumulated = w.inst->problem();
  double seconds = 0.0;
  *feasible = 0;
  for (int e = 0; e < kEvents; ++e) {
    accumulated.routing.insert(accumulated.routing.end(),
                               w.routingEvents[e].begin(),
                               w.routingEvents[e].end());
    accumulated.policies.insert(accumulated.policies.end(),
                                w.policyEvents[e].begin(),
                                w.policyEvents[e].end());
    auto t0 = std::chrono::steady_clock::now();
    core::PlaceOutcome out = core::place(accumulated, opts);
    seconds += elapsedSince(t0);
    if (out.hasSolution()) ++(*feasible);
  }
  return seconds;
}

/// Median scratch seconds for the speedup counter, measured once per scale.
double scratchSecondsFor(Workload& w) {
  if (w.scratchSeconds < 0) {
    int feasible = 0;
    w.scratchSeconds = medianSeconds([&] { return replayScratch(w, &feasible); });
  }
  return w.scratchSeconds;
}

void benchScratch(benchmark::State& state) {
  Workload& w = sharedWorkload(static_cast<int>(state.range(0)));
  if (!w.base.hasSolution()) {
    state.SkipWithError("base placement infeasible");
    return;
  }
  for (auto _ : state) {
    int feasible = 0;
    const double secs =
        medianSeconds([&] { return replayScratch(w, &feasible); });
    w.scratchSeconds = secs;  // freshest measurement wins
    state.SetIterationTime(secs);
    state.counters["feasible_events"] = feasible;
  }
}

void benchStateless(benchmark::State& state) {
  Workload& w = sharedWorkload(static_cast<int>(state.range(0)));
  if (!w.base.hasSolution()) {
    state.SkipWithError("base placement infeasible");
    return;
  }
  const core::PlaceOptions opts = Workload::churnOptions();
  for (auto _ : state) {
    int feasible = 0;
    const double seconds = medianSeconds([&] {
      core::PlaceOutcome current = w.base;
      double replaySeconds = 0.0;
      feasible = 0;
      for (int e = 0; e < kEvents; ++e) {
        auto t0 = std::chrono::steady_clock::now();
        core::PlaceOutcome out = core::installPolicies(
            current.solvedProblem, current.placement, w.routingEvents[e],
            w.policyEvents[e], opts);
        replaySeconds += elapsedSince(t0);
        if (!out.hasSolution()) continue;  // skip the event, keep replaying
        ++feasible;
        current = std::move(out);
      }
      return replaySeconds;
    });
    state.SetIterationTime(seconds);
    state.counters["feasible_events"] = feasible;
    state.counters["speedup_vs_scratch"] =
        seconds > 0 ? scratchSecondsFor(w) / seconds : 0;
  }
}

void benchSession(benchmark::State& state) {
  Workload& w = sharedWorkload(static_cast<int>(state.range(0)));
  if (!w.base.hasSolution()) {
    state.SkipWithError("base placement infeasible");
    return;
  }
  const core::PlaceOptions opts = Workload::churnOptions();
  for (auto _ : state) {
    int feasible = 0;
    int repacks = 0;
    int escalations = 0;
    const double seconds = medianSeconds([&] {
      core::IncrementalSession session(w.inst->problem(), w.base.placement,
                                       opts);
      double replaySeconds = 0.0;
      feasible = 0;
      for (int e = 0; e < kEvents; ++e) {
        auto t0 = std::chrono::steady_clock::now();
        core::PlaceOutcome out =
            session.install(w.routingEvents[e], w.policyEvents[e]);
        replaySeconds += elapsedSince(t0);
        if (out.hasSolution()) ++feasible;
      }
      repacks = session.repacks();
      escalations = session.escalations();
      return replaySeconds;
    });
    state.SetIterationTime(seconds);
    state.counters["feasible_events"] = feasible;
    state.counters["repacks"] = repacks;
    state.counters["escalations"] = escalations;
    state.counters["speedup_vs_scratch"] =
        seconds > 0 ? scratchSecondsFor(w) / seconds : 0;
  }
}

void registerAll() {
  // Rule scales: the acceptance floor (FLOORS.json) binds at 4k+.
  const std::vector<int> scales = fullScale()
                                      ? std::vector<int>{1024, 4096, 8192}
                                      : std::vector<int>{1024, 4096};
  for (int rules : scales) {
    for (auto [name, fn] :
         {std::pair<const char*, void (*)(benchmark::State&)>{
              "churn_scratch", benchScratch},
          {"churn_stateless", benchStateless},
          {"churn_session", benchSession}}) {
      benchmark::RegisterBenchmark(name, fn)
          ->Arg(rules)
          ->UseManualTime()
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace
}  // namespace ruleplace::bench

int main(int argc, char** argv) {
  ruleplace::bench::registerAll();
  return ruleplace::bench::benchMain(argc, argv, "incremental_solver");
}
