// Full-scale tier (docs/performance.md): the paper-scale sweeps that are
// too heavy for per-PR CI.  Gated on RULEPLACE_FULL=1 — the scheduled
// bench-full job runs them nightly against bench/baselines/
// BENCH_fullscale.json; without the flag a tiny smoke point registers so
// the binary stays exercised (and its JSON schema checkable) everywhere.
//
// Two families:
//   * fullscale_depgraph/<n>  — cache-cold indexed dependency-graph build
//     on ClassBench-style policies up to 131072 rules (the SIMD overlap
//     kernel's home turf; `edges` is bit-identical by the determinism
//     contract, so FLOORS.json pins it exactly);
//   * fullscale_place/...     — end-to-end placement on a Fat-Tree k=32
//     fabric (1280 switches, 512 ingress policies): rule-count, path-count
//     and capacity axes around the n=200/p=2048/C=1000 center point, i.e.
//     >= 10^5 total rules.  Each point runs under a 30 s solve budget so a
//     hard point degrades to budget-bound instead of hanging the tier.

#include <chrono>
#include <string>

#include "bench_common.h"
#include "classbench/generator.h"
#include "core/encoder.h"
#include "depgraph/depgraph.h"
#include "match/packed.h"

namespace ruleplace::bench {
namespace {

acl::Policy bigPolicy(int rules) {
  classbench::GeneratorConfig cfg;
  cfg.rulesPerPolicy = rules;
  cfg.nestProbability = 0.6;  // realistic overlap: non-trivial shields
  classbench::PolicyGenerator gen(cfg, 0xF0011ull + static_cast<unsigned>(rules));
  return gen.generate();
}

void depgraphPoint(benchmark::State& state) {
  const acl::Policy policy = bigPolicy(static_cast<int>(state.range(0)));
  depgraph::BuildOptions opts;
  opts.builder = depgraph::BuilderKind::kIndexed;
  opts.threads = 1;
  opts.cache = false;  // cache-cold by construction
  std::size_t edges = 0;
  for (auto _ : state) {
    auto t0 = std::chrono::steady_clock::now();
    depgraph::DependencyGraph dg(policy, opts);
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
    edges = dg.edgeCount();
  }
  state.counters["edges"] = static_cast<double>(edges);
  state.counters["rules"] = static_cast<double>(policy.size());
  state.counters["kernel_avx2"] =
      match::activeOverlapKernel() == match::OverlapKernel::kAvx2 ? 1 : 0;
}

/// Like runPlacementPoint, but with the tier's own 30 s per-point solve
/// budget instead of pointBudget()'s 300 s: at 10^5 rules a pathological
/// point must show up as budget-bound in the JSON, not eat the night.
void fullPlacementPoint(benchmark::State& state,
                        const core::InstanceConfig& cfg) {
  core::PlaceOptions opts;
  opts.budget = solver::Budget::seconds(30.0);
  opts.observability = true;
  runPlacementPointWithOptions(state, cfg, opts);
}

/// fullPlacementPoint, with `encode_vars_per_sec` measured by constructing
/// core::Encoder on the same instance directly, as bench_encoder's
/// encode_k32 does: core::place builds no model for a component its
/// certified fast path places, so its own modelVars / encodeSeconds ratio
/// would read 0 and the FLOORS.json encoder floor would measure nothing.
void encoderFloorPoint(benchmark::State& state,
                       const core::InstanceConfig& cfg) {
  fullPlacementPoint(state, cfg);
  const core::Instance inst(cfg);
  const core::PlacementProblem problem = inst.problem();
  const auto t0 = std::chrono::steady_clock::now();
  const core::Encoder enc(problem, core::EncoderOptions{});
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  state.counters["encode_vars_per_sec"] =
      seconds > 0.0 ? static_cast<double>(enc.model().varCount()) / seconds
                    : 0.0;
}

void registerFullScale() {
  BENCHMARK(depgraphPoint)
      ->Name("fullscale_depgraph")
      ->Arg(32768)
      ->Arg(65536)
      ->Arg(131072)
      ->UseManualTime()
      ->Unit(benchmark::kMillisecond);

  // Axis sweeps around the center point n=200 / p=2048 / C=1000; the
  // center registers once.  512 ingresses x n rules: every n >= 110 puts
  // the instance above 5*10^4 rules, n=200 above 10^5.
  struct Point {
    int n, paths, capacity;
  };
  const Point points[] = {
      {110, 2048, 1000}, {150, 2048, 1000}, {200, 2048, 1000},
      {200, 1024, 1000}, {200, 4096, 1000},
      {200, 2048, 500},  {200, 2048, 2000},
  };
  for (const Point& pt : points) {
    core::InstanceConfig cfg;
    cfg.fatTreeK = 32;
    cfg.ingressCount = 512;
    cfg.rulesPerPolicy = pt.n;
    cfg.totalPaths = pt.paths;
    cfg.capacity = pt.capacity;
    cfg.seed = static_cast<std::uint64_t>(1000 * pt.n + pt.paths);
    const std::string name = "fullscale_place/n=" + std::to_string(pt.n) +
                             "/p=" + std::to_string(pt.paths) +
                             "/C=" + std::to_string(pt.capacity);
    benchmark::RegisterBenchmark(
        name.c_str(),
        [cfg](benchmark::State& state) { fullPlacementPoint(state, cfg); })
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }

  // Fat-Tree k=64 (5120 switches): the fabric scale the streaming encoder
  // unlocked.  One point, same 30 s per-point budget — the acceptance
  // contract is "encodes and solves (or is budget-bound feasible) inside
  // the budget", pinned by the fullscale_place feasible floor.
  core::InstanceConfig k64;
  k64.fatTreeK = 64;
  k64.ingressCount = 1024;
  k64.rulesPerPolicy = 100;
  k64.totalPaths = 2048;
  k64.capacity = 1000;
  k64.seed = 64'000'001;
  benchmark::RegisterBenchmark(
      "fullscale_place_k64/n=100/p=2048/C=1000",
      [k64](benchmark::State& state) { fullPlacementPoint(state, k64); })
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

void registerSmoke() {
  // Names deliberately disjoint from the full tier so a reduced-scale run
  // can never be compared against full-scale baselines.
  BENCHMARK(depgraphPoint)
      ->Name("fullscale_smoke_depgraph")
      ->Arg(2048)
      ->UseManualTime()
      ->Unit(benchmark::kMillisecond);
  core::InstanceConfig cfg;
  cfg.fatTreeK = 4;
  cfg.ingressCount = 4;
  cfg.rulesPerPolicy = 20;
  cfg.totalPaths = 16;
  cfg.capacity = 200;
  cfg.seed = 7;
  benchmark::RegisterBenchmark(
      "fullscale_smoke_place",
      [cfg](benchmark::State& state) { fullPlacementPoint(state, cfg); })
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);

  // k=64 fabric smoke: the full 5120-switch topology with a light policy
  // load, so per-PR CI exercises fabric-scale routing + encode without
  // the full tier's cost (FLOORS.json pins feasibility and a minimum
  // encode throughput for it, the latter from a direct encode).
  core::InstanceConfig k64;
  k64.fatTreeK = 64;
  k64.ingressCount = 8;
  k64.rulesPerPolicy = 20;
  k64.totalPaths = 64;
  k64.capacity = 200;
  k64.seed = 64'000'001;
  benchmark::RegisterBenchmark(
      "fullscale_smoke_place_k64",
      [k64](benchmark::State& state) { encoderFloorPoint(state, k64); })
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

}  // namespace
}  // namespace ruleplace::bench

int main(int argc, char** argv) {
  // Separate JSON names per tier: a reduced-scale run must never be
  // compared against the full-scale baseline file (check_bench treats a
  // baseline with zero matching entries as a dead comparison — an error).
  if (ruleplace::bench::fullScale()) {
    ruleplace::bench::registerFullScale();
    return ruleplace::bench::benchMain(argc, argv, "fullscale");
  }
  ruleplace::bench::registerSmoke();
  return ruleplace::bench::benchMain(argc, argv, "fullscale_smoke");
}
