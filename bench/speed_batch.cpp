// Speed study S8 (batched scenario engine): the PR-8 trajectory point.
// Thousands of steady concurrent power-thermal solves against ONE shared
// geometry precompute:
//  * BM_ScenarioBatchVariation: a 10000-sample Monte Carlo VT0-variation
//    study on a 36-block manycore plan, spectral matrix-free, blocked Picard
//    sweeps — the headline is us_per_scenario, the amortized cost of one
//    full electro-thermal solve (construction included, spread over the
//    batch). The PR-8 acceptance bar is <= 100 us/sample.
//  * BM_ScenarioBatchVariationAuto: the same study under the default
//    InfluenceMode::Auto, whose cost model resolves a batch this size to the
//    dense operator (built once inside solve_all); the `dense` counter
//    records the resolved choice.
//  * BM_ScenarioBatchCorners: a V/f corner screen (5 supplies x 4 relative
//    frequencies) on the same plan, per backend influence mode.
// The batch counters pin the trajectory: scenarios, batched_matvecs (blocked
// multi-RHS applies issued), picard_iterations_total, and the
// scenario-iterations the convergence masks saved — a regression in blocked
// efficiency shows up in the counters, not just inside wall time.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.hpp"
#include "core/scenario_batch.hpp"
#include "device/variation.hpp"
#include "floorplan/generators.hpp"
#include "telemetry_env.hpp"  // PTHERM_TELEMETRY=1 installs a span tracer

namespace {

using namespace ptherm;

thermal::Die die_12mm() {
  thermal::Die d;
  d.width = 12e-3;
  d.height = 12e-3;
  d.thickness = 500e-6;
  d.k_si = 148.0;
  d.t_sink = 318.15;
  return d;
}

// 3 x 3 tiles, 4 blocks per tile: the 36-block plan of the acceptance bar.
floorplan::Floorplan plan_36() {
  Rng rng(2026);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = 13.5;  // 1.5 W per tile
  cfg.gates_per_mm2 = 50e3;
  return floorplan::make_manycore(device::Technology::cmos012(), die_12mm(), 3, 3, cfg,
                                  rng);
}

core::CosimOptions batch_opts() {
  core::CosimOptions opts;
  opts.backend = core::ThermalBackend::Spectral;
  opts.influence = core::InfluenceMode::MatrixFree;
  opts.spectral.modes_x = 32;
  opts.spectral.modes_y = 32;
  opts.damping = 1.0;  // undamped Picard converges in ~2 sweeps at this load
  return opts;
}

void record_batch(benchmark::State& state, const core::ScenarioBatch& batch,
                  const std::vector<core::ScenarioResult>& results) {
  const auto stats = batch.cost_stats();
  state.counters["scenarios"] = static_cast<double>(stats.scenarios);
  state.counters["batched_matvecs"] = static_cast<double>(stats.batched_matvecs);
  state.counters["picard_iterations_total"] =
      static_cast<double>(stats.picard_iterations_total);
  state.counters["masked_iterations_saved"] =
      static_cast<double>(stats.masked_iterations_saved);
  state.counters["modes"] = static_cast<double>(stats.modes);
  state.counters["blocks"] = static_cast<double>(batch.block_count());
  double converged = 0.0;
  for (const auto& r : results) converged += r.converged ? 1.0 : 0.0;
  state.counters["converged_fraction"] = converged / static_cast<double>(results.size());
}

void run_variation(benchmark::State& state, const core::CosimOptions& opts) {
  const int samples = static_cast<int>(state.range(0));
  const auto fp = plan_36();
  const device::VariationModel var{0.03};
  std::vector<core::ScenarioResult> results;
  for (auto _ : state) {
    // Construction is inside the timed region on purpose: us_per_scenario is
    // the honest amortized cost including the shared precompute.
    core::ScenarioBatch batch(device::Technology::cmos012(), fp, opts);
    batch.add_variation_samples(var, samples, /*base_seed=*/2718);
    results = batch.solve_all();
    benchmark::DoNotOptimize(results);
    state.PauseTiming();
    record_batch(state, batch, results);
    state.counters["dense"] = batch.matrix_free() ? 0.0 : 1.0;
    state.ResumeTiming();
  }
  state.counters["samples"] = static_cast<double>(samples);
  // items_per_second in the JSON is the amortized scenario rate; the
  // acceptance bar (<= 100 us/sample at 10k) reads as >= 10000 items/s.
  state.SetItemsProcessed(state.iterations() * samples);
}

void BM_ScenarioBatchVariation(benchmark::State& state) { run_variation(state, batch_opts()); }
BENCHMARK(BM_ScenarioBatchVariation)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_ScenarioBatchVariationAuto(benchmark::State& state) {
  core::CosimOptions opts = batch_opts();
  opts.influence = core::InfluenceMode::Auto;
  run_variation(state, opts);
}
BENCHMARK(BM_ScenarioBatchVariationAuto)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_ScenarioBatchCorners(benchmark::State& state) {
  const bool dense = state.range(0) != 0;
  const auto fp = plan_36();
  const auto tech = device::Technology::cmos012();
  core::CosimOptions opts = batch_opts();
  opts.influence = dense ? core::InfluenceMode::Dense : core::InfluenceMode::MatrixFree;
  std::vector<core::ScenarioResult> results;
  for (auto _ : state) {
    core::ScenarioBatch batch(tech, fp, opts);
    for (const double v_frac : {0.8, 0.9, 1.0, 1.05, 1.1}) {
      for (const double f_scale : {0.4, 0.6, 0.8, 1.0}) {
        batch.add_vf_corner(tech.vdd * v_frac, f_scale);
      }
    }
    results = batch.solve_all();
    benchmark::DoNotOptimize(results);
    state.PauseTiming();
    record_batch(state, batch, results);
    state.ResumeTiming();
  }
  state.counters["corners"] = 20.0;
  state.counters["dense"] = dense ? 1.0 : 0.0;
  state.SetItemsProcessed(state.iterations() * 20);
}
BENCHMARK(BM_ScenarioBatchCorners)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
