// Encode- and solve-stage microbenchmark (docs/performance.md, "Encode
// stage" and "Solve stage"): the streaming encoder alone, and the
// optimizer alone on an already encoded model, so a regression in either
// is attributable without noise from the other.  Axes:
//
//   * encode_rules/<n>   — total-rule sweep (1k / 4k / 16k rules) on a
//     Fat-Tree k=8 fabric, the shape of Fig. 7's x-axis;
//   * encode_k32         — the full-scale tier's k=32 center point
//     (512 ingress policies x 200 rules, 2048 paths), encode only;
//   * solve_k32          — Optimizer::solveWithHint (ingress hint, as
//     core::place runs it) on the encoded k=32 model; the encode happens
//     outside the timed region.  Its search is tiny (0 conflicts), so the
//     time is mostly solver set-up: variable creation, lowering, and the
//     polisher when an incumbent misses the lower bound.
//
// Counters: model size (vars / constraints / nonzeros), `model_bytes`
// (solver::Model::memoryBytes — arena term pool + row records + packed
// name refs; the whole model, since nothing else is retained) and the
// throughputs `encode_vars_per_sec` / `solve_vars_per_sec` (robust on
// noisy runners where raw times are not).  tools/check_bench.py compares
// runs against bench/baselines/BENCH_encoder.json in the per-PR
// bench-check.

#include <chrono>

#include "bench_common.h"
#include "core/encoder.h"
#include "solver/optimize.h"

namespace ruleplace::bench {
namespace {

void encodePoint(benchmark::State& state, const core::InstanceConfig& cfg) {
  const core::Instance inst(cfg);
  const core::PlacementProblem problem = inst.problem();
  std::int64_t vars = 0, cons = 0, nonzeros = 0, bytes = 0;
  double lastSeconds = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    core::Encoder enc(problem, core::EncoderOptions{});
    lastSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    state.SetIterationTime(lastSeconds);
    vars = enc.model().varCount();
    cons = static_cast<std::int64_t>(enc.model().constraintCount());
    nonzeros = enc.model().nonzeroCount();
    bytes = static_cast<std::int64_t>(enc.model().memoryBytes());
  }
  state.counters["model_vars"] = static_cast<double>(vars);
  state.counters["model_cons"] = static_cast<double>(cons);
  state.counters["model_nonzeros"] = static_cast<double>(nonzeros);
  state.counters["model_bytes"] = static_cast<double>(bytes);
  state.counters["encode_vars_per_sec"] =
      lastSeconds > 0.0 ? static_cast<double>(vars) / lastSeconds : 0.0;
}

void solvePoint(benchmark::State& state, const core::InstanceConfig& cfg) {
  const core::Instance inst(cfg);
  const core::PlacementProblem problem = inst.problem();
  const core::Encoder enc(problem, core::EncoderOptions{});
  const auto hint = enc.ingressHint();
  const std::int64_t vars = enc.model().varCount();
  std::int64_t feasible = 0, decisions = 0, conflicts = 0;
  double lastSeconds = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    const solver::OptResult r =
        solver::Optimizer::solveWithHint(enc.model(), hint);
    lastSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    state.SetIterationTime(lastSeconds);
    benchmark::DoNotOptimize(r);
    feasible = r.hasSolution() ? 1 : 0;
    decisions = r.stats.decisions;
    conflicts = r.stats.conflicts;
  }
  state.counters["model_vars"] = static_cast<double>(vars);
  state.counters["feasible"] = static_cast<double>(feasible);
  state.counters["decisions"] = static_cast<double>(decisions);
  state.counters["conflicts"] = static_cast<double>(conflicts);
  state.counters["solve_vars_per_sec"] =
      lastSeconds > 0.0 ? static_cast<double>(vars) / lastSeconds : 0.0;
}

core::InstanceConfig k32Config() {
  // The k=32 fabric center point of the full-scale tier (1280 switches,
  // >= 10^5 rules).
  core::InstanceConfig k32;
  k32.fatTreeK = 32;
  k32.capacity = 1000;
  k32.ingressCount = 512;
  k32.rulesPerPolicy = 200;
  k32.totalPaths = 2048;
  k32.seed = 1000 * 200 + 2048;  // matches fullscale_place/n=200/p=2048
  return k32;
}

void registerPoints() {
  // Total-rule sweep: 32 ingress policies, rulesPerPolicy chosen so the
  // instance carries exactly 1k / 4k / 16k rules.
  for (int perPolicy : {32, 128, 512}) {
    core::InstanceConfig cfg;
    cfg.fatTreeK = 8;
    cfg.capacity = 400;
    cfg.ingressCount = 32;
    cfg.totalPaths = 256;
    cfg.rulesPerPolicy = perPolicy;
    cfg.seed = 0xE0C0DEull + static_cast<unsigned>(perPolicy);
    const std::string name =
        "encode_rules/" + std::to_string(32 * perPolicy);
    benchmark::RegisterBenchmark(
        name.c_str(),
        [cfg](benchmark::State& state) { encodePoint(state, cfg); })
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
  }

  // k=32: one iteration each, so the points stay cheap enough for per-PR
  // CI.
  const core::InstanceConfig k32 = k32Config();
  benchmark::RegisterBenchmark(
      "encode_k32",
      [k32](benchmark::State& state) { encodePoint(state, k32); })
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(
      "solve_k32",
      [k32](benchmark::State& state) { solvePoint(state, k32); })
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

}  // namespace
}  // namespace ruleplace::bench

int main(int argc, char** argv) {
  ruleplace::bench::registerPoints();
  return ruleplace::bench::benchMain(argc, argv, "encoder");
}
