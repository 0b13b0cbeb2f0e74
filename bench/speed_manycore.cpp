// Speed study S6 (manycore scaling): the PR-6 trajectory point. A steady
// concurrent power-thermal solve of McPAT-style tiled manycore floorplans,
// n = 36 -> 4096 blocks (t x t tiles, 4 blocks per tile), on the spectral
// backend in both influence modes:
//  * matrix-free (BM_CosimManycore): the Picard loop applies R in mode space
//    — O(n * modes) per iteration, no n x n storage anywhere, so cost grows
//    sub-quadratically in n;
//  * dense (BM_CosimManycoreDense): the n-column O(n^2 * modes) build the
//    matrix-free path replaces, run up to 1024 blocks as the reference curve
//    (4096 dense would be a ~134 MB matrix and minutes of build).
// The counters pin the trajectory: a convergence-behaviour change shows up
// in picard_iterations, a resolution change in modes, instead of hiding
// inside wall time.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "core/cosim.hpp"
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

floorplan::Floorplan manycore_plan(int tiles) {
  Rng rng(2026);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = 1.5 * tiles * tiles;  // 1.5 W per tile
  cfg.gates_per_mm2 = 50e3;
  return floorplan::make_manycore(device::Technology::cmos012(), die_12mm(), tiles, tiles,
                                  cfg, rng);
}

void record_solve(benchmark::State& state, const core::ElectroThermalSolver& solver,
                  const core::CosimResult& r) {
  state.counters["picard_iterations"] = static_cast<double>(r.iterations);
  state.counters["converged"] = r.converged ? 1.0 : 0.0;
  state.counters["blocks"] = static_cast<double>(r.blocks.size());
  state.counters["matrix_free"] = solver.matrix_free() ? 1.0 : 0.0;
  const auto stats = solver.backend().cost_stats();
  state.counters["modes"] = static_cast<double>(stats.modes);
  state.counters["fft_calls"] = static_cast<double>(stats.fft_calls);
}

void BM_CosimManycore(benchmark::State& state) {
  const int tiles = static_cast<int>(state.range(0));
  const auto fp = manycore_plan(tiles);
  core::CosimOptions opts;
  opts.backend = core::ThermalBackend::Spectral;
  opts.influence = core::InfluenceMode::MatrixFree;
  core::CosimResult last;
  for (auto _ : state) {
    core::ElectroThermalSolver solver(device::Technology::cmos012(), fp, opts);
    last = solver.solve();
    benchmark::DoNotOptimize(last);
    state.PauseTiming();
    record_solve(state, solver, last);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_CosimManycore)
    ->Arg(3)
    ->Arg(6)
    ->Arg(12)
    ->Arg(16)
    ->Arg(24)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_CosimManycoreDense(benchmark::State& state) {
  const int tiles = static_cast<int>(state.range(0));
  const auto fp = manycore_plan(tiles);
  core::CosimOptions opts;
  opts.backend = core::ThermalBackend::Spectral;
  opts.influence = core::InfluenceMode::Dense;
  core::CosimResult last;
  for (auto _ : state) {
    core::ElectroThermalSolver solver(device::Technology::cmos012(), fp, opts);
    last = solver.solve();
    benchmark::DoNotOptimize(last);
    state.PauseTiming();
    record_solve(state, solver, last);
    state.ResumeTiming();
  }
}
// One iteration per size: the dense builds at 576/1024 blocks take seconds
// each, and a single run resolves the scaling curve fine.
BENCHMARK(BM_CosimManycoreDense)
    ->Arg(3)
    ->Arg(6)
    ->Arg(12)
    ->Arg(16)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
