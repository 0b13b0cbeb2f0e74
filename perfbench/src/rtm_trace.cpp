// rtm_trace: the closed-loop DVFS run over a bursty trace at 10^5 transient
// steps (10^4 control epochs of 10 steps) on a spectral plant. No influence
// build or apply happens at all: the time is transient stepping and readback
// plus the per-epoch sense/decide/actuate. An op is one simulated transient
// step; the per-op latency is one control epoch, seen as the interval between
// successive Policy::control calls through a pass-through wrapper.
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "core/cosim.hpp"
#include "floorplan/generators.hpp"
#include "harness.hpp"
#include "rtm/actuator.hpp"
#include "rtm/policy.hpp"
#include "rtm/sensor.hpp"
#include "rtm/simulator.hpp"
#include "rtm/trace.hpp"
#include "wrappers.hpp"

namespace perfbench {

namespace {

using namespace ptherm;

constexpr std::size_t kTraceSamples = 500;  // x 20 ms = 10 s of trace
constexpr double kSampleDt = 20e-3;
constexpr long long kEpochs = 10000;
// Runs of the fixed-work traced comparison.
constexpr int kTracedRuns = 2;

struct Loop {
  device::Technology tech = device::Technology::cmos012();
  floorplan::Floorplan fp{thermal::Die{}};
  rtm::WorkloadTrace trace;
  rtm::RtmOptions opts;
  std::optional<rtm::Actuator> actuator;
};

// The set-up the control study pays once: the plan, the trace, the ladder and
// the actuator. The plant itself is built inside each run_rtm call.
void make_loop(Loop& loop, std::uint64_t seed) {
  thermal::Die die;
  die.width = 1e-3;
  die.height = 1e-3;
  die.thickness = 350e-6;
  die.t_sink = 328.15;  // 55 C
  Rng rng(seed);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = rng.uniform(15.0, 17.0);
  cfg.gates_per_mm2 = 1e5;
  loop.fp = floorplan::make_uniform_grid(loop.tech, die, 6, 6, cfg, rng);
  rtm::BurstPattern pat;
  pat.period = rng.uniform(45e-3, 55e-3);
  pat.duty = rng.uniform(0.35, 0.45);
  pat.high = 1.4;
  pat.low = 0.2;
  pat.phase_step = 1.0 / 36.0;
  loop.trace = rtm::make_burst_trace(loop.fp.blocks().size(), kTraceSamples, kSampleDt, pat);
  loop.opts.backend = core::ThermalBackend::Spectral;
  loop.opts.spectral.modes_x = 32;
  loop.opts.spectral.modes_y = 32;
  loop.opts.dt = 1e-4;
  loop.opts.steps_per_epoch = 10;
  loop.opts.temperature_cap = 368.15;  // 95 C
  loop.actuator.emplace(loop.tech, loop.fp,
                        rtm::VfLadder::uniform(loop.tech.vdd, 2e9, 5, 0.8, 0.4));
}

bool finite(const rtm::RtmResult& r) {
  bool ok = std::isfinite(r.metrics.energy) && std::isfinite(r.metrics.peak_temperature) &&
            std::isfinite(r.metrics.avg_temperature);
  for (const double t : r.final_temps) ok = ok && std::isfinite(t);
  return ok;
}

/// The run's answer check: the plant stepped exactly epochs x steps_per_epoch
/// times (by its own counter), the policy saw every epoch, and energy and
/// temperatures are finite.
bool answer_ok(const Loop& loop, const rtm::RtmResult& r, long long policy_calls) {
  const long long expected = kEpochs * loop.opts.steps_per_epoch;
  return r.metrics.epochs == kEpochs && policy_calls == kEpochs &&
         r.metrics.steps == expected && r.metrics.backend_stats.transient_steps == expected &&
         finite(r);
}

bool same(const rtm::RtmResult& a, const rtm::RtmResult& b) {
  return a.final_temps == b.final_temps && a.metrics.energy == b.metrics.energy &&
         a.metrics.peak_temperature == b.metrics.peak_temperature &&
         a.metrics.avg_temperature == b.metrics.avg_temperature &&
         a.metrics.interventions == b.metrics.interventions &&
         a.metrics.work_delivered == b.metrics.work_delivered;
}

struct Totals {
  long long steps = 0;
  long long updates = 0;
  long long epochs = 0;
  long long interventions = 0;
};

/// Runs the loop until `min_busy_s` of op time (or exactly `runs` runs when
/// runs > 0). Every run must repeat `reference` bitwise.
Phase run_loops(Loop& loop, const rtm::RtmResult& reference, double min_busy_s, int runs,
                Totals& totals, bool& repeatable) {
  Phase ph;
  for (int i = 0; runs > 0 ? i < runs : ph.busy_s < min_busy_s; ++i) {
    next_cpu();
    rtm::ThresholdPolicy inner;
    TimedPolicy policy(inner);
    rtm::RtmResult r;
    const auto t0 = Clock::now();
    {
      TELEMETRY_SPAN("bench/rtm_run");
      r = rtm::run_rtm(loop.tech, loop.fp, loop.trace, policy, *loop.actuator, loop.opts);
    }
    ph.busy_s += seconds_between(t0, Clock::now());
    ph.ops += r.metrics.steps;
    // Every run repeats the same trace, so epoch e is the same request in
    // every run.
    for (std::size_t e = 0; e < policy.interval_ms.size(); ++e) {
      ph.latency.add(e, policy.interval_ms[e]);
    }
    const UntracedScope off_trace;
    // The whole run is one answer: every step of a failed run fails.
    if (!answer_ok(loop, r, policy.calls)) ph.failed += r.metrics.steps;
    if (!same(r, reference)) repeatable = false;
    totals.steps += r.metrics.backend_stats.transient_steps;
    totals.updates += r.metrics.backend_stats.transient_power_updates;
    totals.epochs += r.metrics.epochs;
    totals.interventions += r.metrics.interventions;
  }
  return ph;
}

}  // namespace

RunResult run_rtm_trace(const Args& args) {
  RunResult result;
  Loop loop;
  const double setup_s = median_setup_s([&] { make_loop(loop, args.seed); });

  // Reference run without the wrapper, off the clock: every wrapped run must
  // reproduce it bitwise.
  rtm::ThresholdPolicy plain;
  const rtm::RtmResult reference =
      rtm::run_rtm(loop.tech, loop.fp, loop.trace, plain, *loop.actuator, loop.opts);
  std::printf("rtm_trace: %lld epochs x %d steps, %lld interventions, peak %.2f K\n",
              reference.metrics.epochs, loop.opts.steps_per_epoch,
              reference.metrics.interventions, reference.metrics.peak_temperature);
  bool repeatable = true;
  Totals totals;

  if (!args.trace) {
    const Phase ph =
        run_loops(loop, reference, args.seconds, 0, totals, repeatable);
    report_end_to_end(result.metrics, ph, setup_s);
    result.attempted = ph.ops;
    result.failed = ph.failed;
  } else {
    Totals untraced_totals;
    const TracedPass tp = run_traced_pass(kTracedRuns, [&](bool on) {
      return run_loops(loop, reference, 0.0, 1, on ? totals : untraced_totals, repeatable);
    });
    const Profile& prof = tp.prof;

    // Per-call calibration of the layers run_rtm calls without a span, on a
    // plant built like the one inside run_rtm.
    const std::size_t n = loop.fp.blocks().size();
    core::CosimOptions plant_opts;
    plant_opts.backend = loop.opts.backend;
    plant_opts.spectral = loop.opts.spectral;
    const double backend_call =
        per_call_s([&] { keep(core::make_thermal_backend(loop.fp.die(), plant_opts)); });
    const auto plant = core::make_thermal_backend(loop.fp.die(), plant_opts);
    const auto state = plant->make_transient_state();
    auto sources = loop.fp.heat_sources(loop.tech);
    const auto held = sources;
    const double interior_call =
        per_call_s([&] { plant->step_transient(*state, loop.opts.dt, held); });
    bool flip = false;
    const double update_call = per_call_s([&] {
      flip = !flip;
      for (std::size_t i = 0; i < n; ++i) sources[i].power = held[i].power * (flip ? 1.01 : 1.0);
      plant->step_transient(*state, loop.opts.dt, sources);
    });
    std::vector<thermal::SurfaceSample> centres(n);
    for (std::size_t i = 0; i < n; ++i) {
      centres[i] = {loop.fp.blocks()[i].rect.cx(), loop.fp.blocks()[i].rect.cy()};
    }
    std::vector<double> rises(n);
    const double readback_call = per_call_s([&] { state->surface_rises(centres, rises); });
    // Per epoch, run_rtm's hook makes these actuator calls for every block.
    const std::vector<double>& temps = reference.final_temps;
    double sink = 0.0;
    const double actuator_call = per_call_s([&] {
      for (std::size_t i = 0; i < n; ++i) {
        loop.actuator->set_level(i, 1);
        sink += loop.actuator->dynamic_power(i, 1.0) + loop.actuator->leakage_power(i, temps[i]) +
                loop.actuator->throughput_scale(i);
      }
    });
    loop.actuator->reset();
    rtm::SensorBank sensors(n);
    const double sensor_call = per_call_s([&] { keep(sensors.sample(temps)); });
    if (!(sink > 0.0)) throw std::runtime_error("rtm_trace: actuator calibration read 0");

    const long long interior = totals.steps - totals.updates;
    // One readback per epoch boundary plus one at the final instant (run_rtm
    // records only the final step): exactly one per epoch.
    const long long readbacks = totals.epochs;
    Report& m = result.metrics;
    m.set("thermal.backend_setup_s", backend_call * kTracedRuns, "s");
    m.set("thermal.transient_steps", static_cast<double>(totals.steps), "count");
    m.set("thermal.transient_power_updates", static_cast<double>(totals.updates), "count");
    m.set("thermal.power_update_ratio",
          static_cast<double>(totals.updates) / static_cast<double>(totals.steps), "ratio");
    m.set("thermal.step_interior_us", 1e6 * interior_call, "us");
    m.set("thermal.step_update_us", 1e6 * update_call, "us");
    m.set("thermal.transient_step_s",
          interior_call * static_cast<double>(interior) +
              update_call * static_cast<double>(totals.updates),
          "s");
    m.set("thermal.readbacks", static_cast<double>(readbacks), "count");
    m.set("thermal.readback_s", readback_call * static_cast<double>(readbacks), "s");
    m.set("rtm.epochs", static_cast<double>(totals.epochs), "count");
    m.set("rtm.interventions", static_cast<double>(totals.interventions), "count");
    m.set("rtm.policy_s", span_total(prof, "bench/policy_control"), "s");
    m.set("rtm.actuator_s", actuator_call * static_cast<double>(totals.epochs), "s");
    m.set("rtm.sensor_s", sensor_call * static_cast<double>(totals.epochs), "s");
    m.set("rtm.epoch_self_s", span_self(prof, "rtm/epoch"), "s");
    report_trace(result, tp, args.trace_file);
  }
  if (!repeatable) {
    std::printf("rtm_trace: a wrapped run differs from the unwrapped reference\n");
    result.correct = false;
  }
  return result;
}

}  // namespace perfbench
