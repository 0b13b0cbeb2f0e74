// Speed study S4 (runtime thermal management): the long-trace closed loop
// the spectral transient backend was built for. BM_RtmLongTrace drives a
// 36-block die through 10,000 control epochs (100,000 transient steps) of a
// phase-shifted bursty workload under threshold throttling — the PR-5
// trajectory point. The counters tell the cost story: transient_steps is
// the work the plant did, power_updates is how often the backend actually
// had to re-ingest powers (once per epoch, not per step — the interior
// steps ride the projection caches), transient_advances is how many exact
// mode-space sweeps the spectral plant ran (about one per epoch: held-power
// steps are deferred and advanced together when the field is read), and
// interventions is the policy's own activity.
#include <benchmark/benchmark.h>

#include "core/cosim.hpp"
#include "floorplan/generators.hpp"
#include "rtm/actuator.hpp"
#include "rtm/policy.hpp"
#include "rtm/simulator.hpp"
#include "rtm/trace.hpp"
#include "telemetry_env.hpp"  // PTHERM_TELEMETRY=1 installs a span tracer

namespace {

using namespace ptherm;

thermal::Die die_1mm() {
  thermal::Die d;
  d.width = 1e-3;
  d.height = 1e-3;
  d.thickness = 350e-6;
  d.k_si = 148.0;
  d.t_sink = 328.15;  // 55 C
  return d;
}

floorplan::Floorplan plan_6x6(double p_total) {
  Rng rng(99);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = p_total;
  cfg.gates_per_mm2 = 1e5;
  return floorplan::make_uniform_grid(device::Technology::cmos012(), die_1mm(), 6, 6, cfg,
                                      rng);
}

void BM_RtmLongTrace(benchmark::State& state) {
  const auto tech = device::Technology::cmos012();
  const auto fp = plan_6x6(16.0);

  // 10 s of staggered bursts: every block cycles between 1.4x and 0.2x
  // activity with a 50 ms period, phase-shifted so the hot set rotates.
  rtm::BurstPattern pat;
  pat.period = 50e-3;
  pat.duty = 0.4;
  pat.high = 1.4;
  pat.low = 0.2;
  pat.phase_step = 1.0 / 36.0;
  const auto trace = rtm::make_burst_trace(fp.blocks().size(), 500, 20e-3, pat);

  rtm::RtmOptions opts;
  opts.backend = core::ThermalBackend::Spectral;
  opts.spectral.modes_x = 32;
  opts.spectral.modes_y = 32;
  opts.dt = 1e-4;
  opts.steps_per_epoch = 10;  // 10,000 epochs -> 100,000 steps
  opts.temperature_cap = 368.15;  // 95 C
  const auto ladder = rtm::VfLadder::uniform(tech.vdd, 2e9, 5, 0.8, 0.4);

  rtm::RtmResult last;
  for (auto _ : state) {
    rtm::ThresholdPolicy policy;
    rtm::Actuator actuator(tech, fp, ladder);
    last = rtm::run_rtm(tech, fp, trace, policy, actuator, opts);
    benchmark::DoNotOptimize(last);
  }
  state.counters["steps"] = static_cast<double>(last.metrics.steps);
  state.counters["epochs"] = static_cast<double>(last.metrics.epochs);
  state.counters["interventions"] = static_cast<double>(last.metrics.interventions);
  state.counters["power_updates"] =
      static_cast<double>(last.metrics.backend_stats.transient_power_updates);
  state.counters["transient_advances"] =
      static_cast<double>(last.metrics.backend_stats.transient_advances);
  state.counters["modes"] = static_cast<double>(last.metrics.backend_stats.modes);
  state.counters["peak_K"] = last.metrics.peak_temperature;
  state.counters["throughput_pct"] = last.metrics.throughput_fraction * 100.0;
}
BENCHMARK(BM_RtmLongTrace)->Unit(benchmark::kMillisecond)->Iterations(1);

// The per-epoch overhead in isolation: the same loop at 1/10th the length
// with exact leakage evaluation versus the actuator's interpolated leakage
// table — the knob to reach for when the control epoch, not the plant,
// dominates a trace study.
void BM_RtmEpochOverhead(benchmark::State& state) {
  const bool tabled = state.range(0) != 0;
  const auto tech = device::Technology::cmos012();
  const auto fp = plan_6x6(16.0);
  rtm::BurstPattern pat;
  pat.period = 50e-3;
  pat.duty = 0.4;
  pat.high = 1.4;
  pat.low = 0.2;
  pat.phase_step = 1.0 / 36.0;
  const auto trace = rtm::make_burst_trace(fp.blocks().size(), 50, 20e-3, pat);
  rtm::RtmOptions opts;
  opts.backend = core::ThermalBackend::Spectral;
  opts.spectral.modes_x = 32;
  opts.spectral.modes_y = 32;
  opts.dt = 1e-4;
  opts.steps_per_epoch = 10;
  opts.temperature_cap = 368.15;
  const auto ladder = rtm::VfLadder::uniform(tech.vdd, 2e9, 5, 0.8, 0.4);
  rtm::ActuatorOptions act_opts;
  if (tabled) {
    act_opts.leakage_table_points = 96;
    act_opts.table_t_min = 300.0;
    act_opts.table_t_max = 460.0;
  }
  rtm::RtmResult last;
  for (auto _ : state) {
    rtm::ThresholdPolicy policy;
    rtm::Actuator actuator(tech, fp, ladder, act_opts);
    last = rtm::run_rtm(tech, fp, trace, policy, actuator, opts);
    benchmark::DoNotOptimize(last);
  }
  state.counters["epochs"] = static_cast<double>(last.metrics.epochs);
  state.counters["leakage_table"] = tabled ? 1.0 : 0.0;
}
BENCHMARK(BM_RtmEpochOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
