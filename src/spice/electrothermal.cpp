#include "spice/electrothermal.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/picard.hpp"
#include "spice/newton_core.hpp"
#include "telemetry/telemetry.hpp"

namespace ptherm::spice {

DeviceFootprint footprint_for(const std::string& device, const floorplan::Block& block) {
  return {device, block.rect.cx(), block.rect.cy(), block.rect.w, block.rect.h};
}

namespace {

/// Packs a DcSolution back into the unknown-vector layout, so the next outer
/// iteration's inner solve warm-starts from the previous operating point.
std::vector<double> pack_unknowns(const Circuit& circuit, const DcSolution& sol) {
  const int nn = circuit.node_count() - 1;
  std::vector<double> x(static_cast<std::size_t>(nn + circuit.vsources().size()), 0.0);
  for (int n = 1; n < circuit.node_count(); ++n) x[n - 1] = sol.node_voltages[n];
  const auto& vsrcs = circuit.vsources();
  for (std::size_t j = 0; j < vsrcs.size(); ++j) {
    x[nn + static_cast<int>(j)] = sol.vsource_currents.at(vsrcs[j].name);
  }
  return x;
}

}  // namespace

ElectroThermalDcSolution solve_electrothermal_dc(const Circuit& circuit,
                                                 const thermal::SolverBackend& backend,
                                                 std::span<const DeviceFootprint> footprints,
                                                 const ElectroThermalDcOptions& opts) {
  const std::size_t n = footprints.size();
  PTHERM_REQUIRE(n > 0, "solve_electrothermal_dc: no device footprints");
  validate_picard("ElectroThermalDcOptions", opts.damping, opts.temp_tol,
                  opts.max_outer_iterations, opts.runaway_rise_limit);
  TELEMETRY_SPAN("spice/electrothermal_dc");

  // Footprint -> MOSFET index, heat sources, and coincident sample points.
  std::vector<std::size_t> mos_index(n);
  std::vector<thermal::HeatSource> sources(n);
  std::vector<thermal::SurfaceSample> samples(n);
  for (std::size_t k = 0; k < n; ++k) {
    const auto& fp = footprints[k];
    mos_index[k] = circuit.mosfet_index(fp.device);
    sources[k] = {fp.cx, fp.cy, fp.w, fp.l, 0.0};
    samples[k] = {fp.cx, fp.cy};
  }
  const auto influence = thermal::resolve_influence_apply(backend, sources, samples);

  detail::NewtonCore core(circuit, opts.dc);
  const std::size_t n_mos = circuit.mosfets().size();
  // Full per-MOSFET temperature vector; devices without a footprint stay at
  // the nominal solve temperature.
  std::vector<double> all_temps(n_mos, opts.dc.temp);

  ElectroThermalDcSolution out;
  out.device_temperatures.assign(n, opts.dc.temp);
  out.device_powers.assign(n, 0.0);
  std::vector<double> rises(n, 0.0);
  std::vector<double> warm;
  // The electrical solve at the current device temperatures (warm-started
  // from the previous operating point), then P(T): each device's
  // dissipation at its own temperature.
  const auto solve_electrical = [&] {
    for (std::size_t k = 0; k < n; ++k) {
      all_temps[mos_index[k]] = out.device_temperatures[k];
    }
    core.set_device_temperatures(all_temps);
    out.dc = detail::solve_dc_core(circuit, core, opts.dc, warm.empty() ? nullptr : &warm);
    for (std::size_t k = 0; k < n; ++k) {
      const auto& m = circuit.mosfets()[mos_index[k]];
      out.device_powers[k] = m.model.power(
          out.dc.voltage(m.gate), out.dc.voltage(m.drain), out.dc.voltage(m.source),
          out.dc.voltage(m.bulk), out.device_temperatures[k]);
    }
  };

  PicardVerdict verdict(opts.temp_tol, opts.runaway_rise_limit);
  for (int it = 0; it < opts.max_outer_iterations; ++it) {
    solve_electrical();
    warm = pack_unknowns(circuit, out.dc);
    ++out.outer_iterations;

    // T <- t_sink + R * P, damped.
    influence->apply(out.device_powers, rises);
    double max_dt = 0.0;
    double max_t = opts.t_sink;
    for (std::size_t k = 0; k < n; ++k) {
      const double target = opts.t_sink + rises[k];
      const double delta = opts.damping * (target - out.device_temperatures[k]);
      out.device_temperatures[k] += delta;
      max_dt = std::max(max_dt, std::abs(delta));
      max_t = std::max(max_t, out.device_temperatures[k]);
    }
    out.max_temperature = max_t;

    // Flag and stop, never clamp: the temperatures we return are the
    // genuine divergent iterates.
    const PicardVerdict::State state = verdict.observe(max_dt, max_t - opts.t_sink);
    out.converged = state == PicardVerdict::State::Converged;
    out.runaway = state == PicardVerdict::State::Runaway;
    if (state != PicardVerdict::State::Running) break;
  }

  // Re-solve the electrical state at the exit temperatures so the returned
  // voltages, powers, and report are mutually consistent. Not on runaway:
  // the exit temperatures are divergent iterates (deliberately unclamped),
  // and the electrical state that matters is the last converged solve.
  if (!out.runaway) solve_electrical();
  return out;
}

}  // namespace ptherm::spice
