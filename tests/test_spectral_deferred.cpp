// Deferred exact stepping on the spectral backend: held-power steps only
// extend a pending interval, and the field advances once, by count * h,
// when the sources or the step size change or the state is read. These
// tests pin that contract against explicit solver-level stepping (single
// die and layered stack), the settle-under-the-old-flux rule, the eager
// argument checks, the mode-major readback gather (bitwise the dense
// synthesis operator), and the advance counter and span on an RTM run.
// References step a COPY of the backend's solver, so the backend's cost
// counters see only the backend's own work.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cosim.hpp"
#include "core/transient.hpp"
#include "floorplan/generators.hpp"
#include "rtm/actuator.hpp"
#include "rtm/policy.hpp"
#include "rtm/simulator.hpp"
#include "rtm/trace.hpp"
#include "telemetry/telemetry.hpp"
#include "thermal/backend.hpp"
#include "thermal/spectral.hpp"
#include "thermal/stack.hpp"

namespace ptherm {
namespace {

using thermal::HeatSource;
using thermal::SpectralBackend;
using thermal::SpectralThermalSolver;
using thermal::SurfaceSample;

thermal::Die die_1mm() {
  thermal::Die d;
  d.width = 1e-3;
  d.height = 1e-3;
  d.thickness = 350e-6;
  d.k_si = 148.0;
  d.t_sink = 318.15;
  return d;
}

thermal::DieStack sandwich_stack() {
  return thermal::DieStack({{"die", 350e-6, 148.0, 1.631e6},
                            {"tim", 25e-6, 4.0, 2.2e6},
                            {"spreader", 500e-6, 390.0, 3.4e6}});
}

thermal::SpectralOptions small_modes() {
  thermal::SpectralOptions opts;
  opts.modes_x = 16;
  opts.modes_y = 16;
  opts.modes_z = 6;
  opts.layered_nz = 24;
  return opts;
}

std::vector<HeatSource> sources(double scale = 1.0) {
  return {{0.25e-3, 0.5e-3, 0.5e-3, 1e-3, 1.5 * scale},
          {0.75e-3, 0.75e-3, 0.5e-3, 0.5e-3, 0.8 * scale},
          {0.7e-3, 0.2e-3, 0.3e-3, 0.2e-3, 0.3 * scale}};
}

std::vector<SurfaceSample> probe_points() {
  return {{0.25e-3, 0.5e-3}, {0.75e-3, 0.75e-3}, {0.7e-3, 0.2e-3},
          {0.0, 0.0},        {1e-3, 1e-3},       {0.013e-3, 0.87e-3}};
}

/// Surface rises of a solver-level transient field at `points`, through the
/// dense synthesis operator.
std::vector<double> explicit_rises(const SpectralThermalSolver& solver,
                                   const SpectralThermalSolver::TransientSolution& state,
                                   const std::vector<SurfaceSample>& points) {
  std::vector<double> out(points.size());
  thermal::mode_basis_matrix(solver, points).multiply(state.surface.coeff, out);
  return out;
}

void expect_rel_near(const std::vector<double>& got, const std::vector<double>& want,
                     double rel) {
  ASSERT_EQ(got.size(), want.size());
  double scale = 0.0;
  for (double w : want) scale = std::max(scale, std::abs(w));
  ASSERT_GT(scale, 0.0);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], rel * scale) << "point " << i;
  }
}

std::vector<std::unique_ptr<SpectralBackend>> single_and_layered() {
  std::vector<std::unique_ptr<SpectralBackend>> backends;
  backends.push_back(std::make_unique<SpectralBackend>(die_1mm(), small_modes()));
  backends.push_back(
      std::make_unique<SpectralBackend>(die_1mm(), sandwich_stack(), small_modes()));
  return backends;
}

TEST(SpectralDeferred, HeldStepsMatchExplicitSolverSteps) {
  // k held backend steps then one readback equal k explicit solver steps —
  // the backend advanced once by k*h — on a single die and a layered stack.
  const double h = 2e-5;
  const int k = 9;
  const auto points = probe_points();
  for (const auto& owned : single_and_layered()) {
    const SpectralBackend& backend = *owned;
    const SpectralThermalSolver solver = backend.solver();  // reference copy
    const auto state = backend.make_transient_state();
    auto ref = solver.make_transient();
    for (int s = 0; s < k; ++s) {
      EXPECT_EQ(backend.step_transient(*state, h, sources()), 1);
      solver.step_transient(ref, h, sources());
    }
    std::vector<double> got(points.size());
    state->surface_rises(points, got);
    expect_rel_near(got, explicit_rises(solver, ref, points), 1e-12);
    const auto stats = backend.cost_stats();
    EXPECT_EQ(stats.transient_steps, k) << "layered " << solver.layered();
    EXPECT_EQ(stats.transient_advances, 1) << "layered " << solver.layered();
    EXPECT_EQ(stats.transient_power_updates, 1);
  }
}

TEST(SpectralDeferred, SourceChangeSettlesThePendingIntervalUnderTheOldPowers) {
  const double h = 5e-5;
  const auto points = probe_points();
  for (const auto& owned : single_and_layered()) {
    const SpectralBackend& backend = *owned;
    const SpectralThermalSolver solver = backend.solver();  // reference copy
    const auto state = backend.make_transient_state();
    auto ref = solver.make_transient();
    auto wrong = solver.make_transient();  // all five steps under the new powers
    for (int s = 0; s < 3; ++s) {
      backend.step_transient(*state, h, sources(1.0));
      solver.step_transient(ref, h, sources(1.0));
      solver.step_transient(wrong, h, sources(2.0));
    }
    for (int s = 0; s < 2; ++s) {
      backend.step_transient(*state, h, sources(2.0));
      solver.step_transient(ref, h, sources(2.0));
      solver.step_transient(wrong, h, sources(2.0));
    }
    std::vector<double> got(points.size());
    state->surface_rises(points, got);
    const auto want = explicit_rises(solver, ref, points);
    expect_rel_near(got, want, 1e-12);
    EXPECT_GT(std::abs(explicit_rises(solver, wrong, points)[0] - want[0]), 1e-6 * want[0]);
    EXPECT_EQ(backend.cost_stats().transient_advances, 2);
    EXPECT_EQ(backend.cost_stats().transient_power_updates, 2);
  }
}

TEST(SpectralDeferred, OnlyEqualStepSizesCoalesce) {
  // A step with a different h settles the run before it, so each advance
  // covers count * h of ONE step size (and the decay cache keys on it).
  const SpectralBackend backend(die_1mm(), small_modes());
  const SpectralThermalSolver solver = backend.solver();  // reference copy
  const auto state = backend.make_transient_state();
  auto ref = solver.make_transient();
  for (const double h : {1e-5, 1e-5, 3e-5, 3e-5, 3e-5, 1e-5}) {
    backend.step_transient(*state, h, sources());
    solver.step_transient(ref, h, sources());
  }
  const auto points = probe_points();
  std::vector<double> got(points.size());
  state->surface_rises(points, got);
  expect_rel_near(got, explicit_rises(solver, ref, points), 1e-12);
  EXPECT_EQ(backend.cost_stats().transient_advances, 3);
  EXPECT_EQ(backend.cost_stats().transient_steps, 6);
}

TEST(SpectralDeferred, BadArgumentsThrowAtTheStepAndChangeNothing) {
  const SpectralBackend backend(die_1mm(), small_modes());
  const SpectralThermalSolver solver = backend.solver();  // reference copy
  const auto state = backend.make_transient_state();
  auto ref = solver.make_transient();
  const double h = 4e-5;
  for (int s = 0; s < 2; ++s) {
    backend.step_transient(*state, h, sources());
    solver.step_transient(ref, h, sources());
  }
  EXPECT_THROW(backend.step_transient(*state, 0.0, sources()), PreconditionError);
  EXPECT_THROW(backend.step_transient(*state, -h, sources()), PreconditionError);
  auto degenerate = sources();
  degenerate[1].w = 0.0;
  EXPECT_THROW(backend.step_transient(*state, h, degenerate), PreconditionError);
  degenerate[1].w = 0.5e-3;
  degenerate[2].l = -1e-4;
  EXPECT_THROW(backend.step_transient(*state, h, degenerate), PreconditionError);
  // The rejected calls served no step; the held drive carries on.
  backend.step_transient(*state, h, sources());
  solver.step_transient(ref, h, sources());
  EXPECT_EQ(backend.cost_stats().transient_steps, 3);
  EXPECT_EQ(backend.cost_stats().transient_power_updates, 1);
  const auto points = probe_points();
  std::vector<double> got(points.size());
  state->surface_rises(points, got);
  expect_rel_near(got, explicit_rises(solver, ref, points), 1e-12);
}

TEST(SpectralDeferred, PointQueryAfterPendingStepsSeesTheSettledField) {
  const SpectralBackend backend(die_1mm(), small_modes());
  const SpectralThermalSolver solver = backend.solver();  // reference copy
  const auto state = backend.make_transient_state();
  auto ref = solver.make_transient();
  for (int s = 0; s < 6; ++s) {
    backend.step_transient(*state, 3e-5, sources());
    solver.step_transient(ref, 3e-5, sources());
  }
  EXPECT_EQ(backend.cost_stats().transient_advances, 0);  // nothing read yet
  for (const auto& p : probe_points()) {
    const double want = solver.surface_rise(ref, p.x, p.y);
    EXPECT_GT(want, 0.0);
    EXPECT_NEAR(state->surface_rise(p.x, p.y), want, 1e-12 * want);
  }
  EXPECT_EQ(backend.cost_stats().transient_advances, 1);  // settled once, then clean
}

TEST(SpectralDeferred, ModeMajorGatherIsBitwiseTheDenseSynthesisOperator) {
  // A single step advances by exactly h, so the backend field equals the
  // solver's bit for bit, and the mode-major gather must then reproduce the
  // row dot products of mode_basis_matrix exactly — same products, same
  // ascending mode order, same 0.0 start.
  const auto points = probe_points();
  for (const auto& owned : single_and_layered()) {
    const SpectralBackend& backend = *owned;
    const SpectralThermalSolver solver = backend.solver();  // reference copy
    const auto state = backend.make_transient_state();
    auto ref = solver.make_transient();
    for (int s = 0; s < 3; ++s) {
      backend.step_transient(*state, 7e-5, sources(1.0 + s));
      solver.step_transient(ref, 7e-5, sources(1.0 + s));
      std::vector<double> got(points.size());
      state->surface_rises(points, got);
      const auto want = explicit_rises(solver, ref, points);
      for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(got[i], want[i]) << "layered " << solver.layered() << " step " << s
                                   << " point " << i;
      }
    }
  }
}

TEST(SpectralDeferred, RtmRunAdvancesAboutOncePerEpoch) {
  Rng rng(17);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = 4.0;
  cfg.gates_per_mm2 = 1e5;
  const auto tech = device::Technology::cmos012();
  const auto fp = floorplan::make_uniform_grid(tech, die_1mm(), 3, 3, cfg, rng);
  rtm::BurstPattern pat;
  pat.period = 4e-3;
  pat.duty = 0.5;
  pat.high = 1.4;
  pat.low = 0.3;
  pat.phase_step = 0.1;
  rtm::RtmOptions opts;
  opts.backend = core::ThermalBackend::Spectral;
  opts.spectral = small_modes();
  opts.dt = 1e-4;
  opts.steps_per_epoch = 8;
  opts.temperature_cap = 340.0;
  const double epoch_dt = opts.dt * opts.steps_per_epoch;
  const auto trace = rtm::make_burst_trace(fp.blocks().size(), 40, epoch_dt, pat);
  const auto ladder = rtm::VfLadder::uniform(tech.vdd, 2e9, 4, 0.8, 0.45);
  rtm::ThresholdPolicy policy;
  rtm::Actuator actuator(tech, fp, ladder);

  telemetry::Tracer tracer;
  telemetry::set_tracer(&tracer);
  const auto r = rtm::run_rtm(tech, fp, trace, policy, actuator, opts);
  telemetry::set_tracer(nullptr);

  const auto& stats = r.metrics.backend_stats;
  EXPECT_EQ(r.metrics.epochs, 40);
  EXPECT_EQ(stats.transient_steps, r.metrics.epochs * opts.steps_per_epoch);
  EXPECT_GE(stats.transient_advances, r.metrics.epochs);
  EXPECT_LE(stats.transient_advances, r.metrics.epochs + 1);
  // One spectral/advance span per settle, none per interior step.
  const auto events = tracer.events();
  const auto advances = std::count_if(events.begin(), events.end(), [](const auto& e) {
    return std::strcmp(e.name, "spectral/advance") == 0;
  });
  EXPECT_EQ(advances, stats.transient_advances);
}

TEST(SpectralDeferred, AdvanceCounterIsSpectralOnly) {
  Rng rng(3);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = 2.0;
  cfg.gates_per_mm2 = 0.0;
  const auto tech = device::Technology::cmos012();
  const auto fp = floorplan::make_uniform_grid(tech, die_1mm(), 2, 2, cfg, rng);
  core::TransientCosimOptions opts;
  opts.backend = core::ThermalBackend::Fdm;
  opts.fdm.nx = 8;
  opts.fdm.ny = 8;
  opts.fdm.nz = 4;
  opts.dt = std::ldexp(1.0, -13);  // binary step: the final step is not clamped
  opts.t_stop = 10 * opts.dt;
  opts.power_update_every = 5;
  const core::ActivityProfile constant = [](std::size_t, double) { return 1.0; };
  const auto fdm = core::solve_transient_cosim(tech, fp, constant, opts);
  EXPECT_EQ(fdm.backend_stats.transient_steps, 10);
  EXPECT_EQ(fdm.backend_stats.transient_advances, 0);
  opts.backend = core::ThermalBackend::Spectral;
  opts.spectral = small_modes();
  opts.record_every = 10;
  const auto spectral = core::solve_transient_cosim(tech, fp, constant, opts);
  EXPECT_EQ(spectral.backend_stats.transient_steps, 10);
  EXPECT_EQ(spectral.backend_stats.transient_advances, 2);  // one per epoch
}

}  // namespace
}  // namespace ptherm
