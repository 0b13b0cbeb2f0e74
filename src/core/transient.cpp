#include "core/transient.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "floorplan/compiled_leakage.hpp"
#include "telemetry/telemetry.hpp"

namespace ptherm::core {

void validate(const TransientCosimOptions& opts) {
  // t_stop == dt is a legitimate single-step run; only a grid that cannot
  // fit one full step is rejected.
  PTHERM_REQUIRE(opts.dt > 0.0 && opts.t_stop >= opts.dt,
                 "TransientCosimOptions: bad time grid");
  PTHERM_REQUIRE(opts.record_every >= 1, "TransientCosimOptions: record_every must be >= 1");
  PTHERM_REQUIRE(opts.power_update_every >= 1,
                 "TransientCosimOptions: power_update_every must be >= 1");
}

double TransientCosimResult::peak_temperature() const {
  double peak = 0.0;
  for (const auto& temps : block_temps) {
    for (double t : temps) peak = std::max(peak, t);
  }
  return peak;
}

TransientCosimResult solve_transient_cosim(const device::Technology& tech,
                                           const floorplan::Floorplan& fp,
                                           const ActivityProfile& activity,
                                           const TransientCosimOptions& opts) {
  PTHERM_REQUIRE(static_cast<bool>(activity), "transient cosim: null activity profile");
  const auto& blocks = fp.blocks();
  // Compiled once, bitwise equal to Block::leakage_power.
  const std::vector<floorplan::CompiledBlockLeakage> leakage(blocks.begin(), blocks.end());
  // The original per-step coupling, expressed as the epoch hook: dynamic
  // power from the activity profile, leakage from each block's temperature
  // at the epoch boundary. Synchronous call — the references cannot dangle.
  const PowerUpdateHook hook = [&](long long, double t, std::span<const double> temps,
                                   std::span<double> p_dyn, std::span<double> p_leak) {
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      p_dyn[i] = blocks[i].p_dynamic * activity(i, t);
      p_leak[i] = leakage[i].leakage_power(tech, temps[i], opts.vb);
    }
  };
  return solve_transient_cosim(tech, fp, hook, opts);
}

TransientCosimResult solve_transient_cosim(const device::Technology& tech,
                                           const floorplan::Floorplan& fp,
                                           const PowerUpdateHook& hook,
                                           const TransientCosimOptions& opts) {
  PTHERM_REQUIRE(!fp.blocks().empty(), "transient cosim: empty floorplan");
  validate(opts);
  PTHERM_REQUIRE(static_cast<bool>(hook), "transient cosim: null power-update hook");
  TELEMETRY_SPAN("transient/solve");

  const auto& blocks = fp.blocks();
  const std::size_t n = blocks.size();
  const double t_sink = fp.die().t_sink;

  // The transient loop programs against the backend interface; the factory
  // is shared with the steady solver, so backend settings stay uniform.
  CosimOptions backend_opts;
  backend_opts.backend = opts.backend;
  backend_opts.fdm = opts.fdm;
  backend_opts.spectral = opts.spectral;
  backend_opts.stack = opts.stack;
  backend_opts.trace = opts.trace;
  const auto backend = make_thermal_backend(fp.die(), backend_opts);
  PTHERM_REQUIRE(backend->supports_transient(),
                 "transient cosim: selected thermal backend cannot integrate in time");
  const auto state = backend->make_transient_state();
  std::vector<thermal::HeatSource> sources = fp.heat_sources(tech);

  // Dynamic package boundary: with an RC-network closure the case plane the
  // conduction operator grounds to is itself a state, advanced exactly once
  // per step under the total die power and added uniformly to every block
  // readback. The constant-sink legacy path is pkg == nullptr (case_rise
  // stays 0).
  const thermal::PackageRcNetwork* pkg =
      (opts.stack && opts.stack->boundary().kind == thermal::BoundaryKind::RcNetwork)
          ? &*opts.stack->boundary().rc
          : nullptr;
  thermal::PackageRcNetwork::State pkg_state;
  if (pkg) pkg_state = pkg->make_state();
  double case_rise = 0.0;

  TransientCosimResult result;
  // Whole steps that fit, plus one clamped step for any remainder. The
  // adjustment undoes floating-point drift in t_stop / dt that would
  // otherwise manufacture a spurious zero-length (or negative) final step —
  // an exact comparison, no epsilon.
  int steps = static_cast<int>(std::ceil(opts.t_stop / opts.dt));
  if (steps > 1 && (steps - 1) * opts.dt >= opts.t_stop) --steps;

  // Per-block readback points, hoisted: geometry is fixed for the whole run,
  // and the batched query lets the backend gather all block temperatures at
  // once (spectral: one dense matvec) instead of n independent queries.
  std::vector<thermal::SurfaceSample> centres(n);
  for (std::size_t i = 0; i < n; ++i) {
    centres[i] = {blocks[i].rect.cx(), blocks[i].rect.cy()};
  }
  std::vector<double> rises(n, 0.0);

  std::vector<double> temps(n, t_sink);
  auto record = [&](double t, double p_leak, double p_dyn) {
    result.times.push_back(t);
    result.block_temps.push_back(temps);
    result.leakage_power.push_back(p_leak);
    result.dynamic_power.push_back(p_dyn);
    result.case_rise.push_back(case_rise);
  };

  // Epoch powers: evaluated by the hook at each epoch boundary (from the
  // temperatures at that instant — semi-implicit coupling; the thermal time
  // constants are far longer than any epoch a caller would pick, so the
  // splitting error is negligible — tested) and held for the whole epoch.
  const int k = opts.power_update_every;
  std::vector<double> p_dyn(n, 0.0);
  std::vector<double> p_leak(n, 0.0);
  double sum_dyn = 0.0;
  double sum_leak = 0.0;
  auto update_powers = [&](long long epoch, double t) {
    TELEMETRY_SPAN("transient/epoch");
    hook(epoch, t, temps, p_dyn, p_leak);
    sum_dyn = 0.0;
    sum_leak = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sources[i].power = p_dyn[i] + p_leak[i];
      sum_dyn += p_dyn[i];
      sum_leak += p_leak[i];
    }
  };

  update_powers(0, 0.0);
  record(0.0, sum_leak, sum_dyn);

  for (int s = 0; s < steps; ++s) {
    const bool last = s + 1 == steps;
    // Step boundaries come from the step index, not an accumulating sum, so
    // roundoff cannot drift the grid; the final step lands exactly on
    // t_stop.
    const double h = last ? opts.t_stop - s * opts.dt : opts.dt;
    if (s > 0 && s % k == 0) update_powers(s / k, s * opts.dt);
    const int inner = backend->step_transient(*state, h, sources);
    result.total_cg_iterations += inner;
    if (opts.trace.convergence) result.step_inner_iterations.push_back(inner);
    // The package sees the total die power, held constant over the step —
    // the same piecewise-constant contract as the conduction backends, so
    // the exact exponential update applies.
    if (pkg) case_rise = pkg->advance(pkg_state, h, sum_dyn + sum_leak);
    // Temperatures are only read back where someone consumes them: at
    // recorded steps and at epoch boundaries (the next hook call). Interior
    // steps of an epoch skip the gather entirely — with power_update_every
    // == 1 (the default) every step qualifies, preserving the original
    // per-step readback exactly.
    const bool record_now = (s + 1) % opts.record_every == 0 || last;
    const bool epoch_boundary = !last && (s + 1) % k == 0;
    if (record_now || epoch_boundary) {
      state->surface_rises(centres, rises);
      // case_rise is 0.0 without a package network, so the legacy readback
      // t_sink + rises[i] is preserved exactly.
      for (std::size_t i = 0; i < n; ++i) temps[i] = t_sink + case_rise + rises[i];
    }
    if (record_now) record(last ? opts.t_stop : (s + 1) * opts.dt, sum_leak, sum_dyn);
  }
  result.backend_stats = backend->cost_stats();
  return result;
}

}  // namespace ptherm::core
