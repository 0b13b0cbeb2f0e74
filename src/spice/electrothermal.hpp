// Electro-thermal DC: the concurrent power-thermal idea of the paper applied
// to the SPICE substrate. Each MOSFET maps to a floorplan footprint (a heat
// source on the die); the circuit's operating point sets per-device powers,
// the thermal backend turns powers into per-device temperature rises through
// the influence-apply seam (matrix-free when the backend supports it, dense
// otherwise), and the device temperatures feed straight back into the MOSFET
// evaluation INSIDE the Newton loop via NewtonCore's per-device temperature
// seam. The T <- t_sink + R * P(T) fixed point is iterated with damping as
// an outer loop around the recovery-ladder DC solve. Its settings check and
// its per-iteration verdict (converged, running, runaway) are the ones the
// block-level cosim uses (common/picard.hpp); only the damped update stays
// local, because the inner DC solve sits between power and temperature.
//
// Thermal runaway (R * dP/dT >= 1 at the operating point: leakage grows
// faster with temperature than the die can shed it) is DETECTED and FLAGGED,
// never clamped — the returned temperatures are the real divergent iterates,
// the same policy the cosim layer pins.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "floorplan/floorplan.hpp"
#include "spice/dc.hpp"
#include "thermal/backend.hpp"

namespace ptherm::spice {

/// One MOSFET's thermal footprint: the die rectangle its dissipated power
/// heats and whose centre temperature it is evaluated at.
struct DeviceFootprint {
  std::string device;  ///< MOSFET name in the Circuit
  double cx = 0.0;     ///< footprint centre x [m]
  double cy = 0.0;     ///< footprint centre y [m]
  double w = 0.0;      ///< footprint width [m]
  double l = 0.0;      ///< footprint height [m]
};

/// Maps a MOSFET onto a floorplan block's rectangle.
[[nodiscard]] DeviceFootprint footprint_for(const std::string& device,
                                            const floorplan::Block& block);

struct ElectroThermalDcOptions {
  DcOptions dc;                 ///< inner electrical solve (dc.temp seeds T)
  double t_sink = 300.0;        ///< heat-sink reference temperature [K]
  int max_outer_iterations = 50;
  double temp_tol = 1e-3;       ///< outer fixed-point convergence [K]
  double damping = 0.7;         ///< T-update damping in (0, 1] (matches core/cosim)
  /// Runaway flag: any device rise above t_sink beyond this [K], or the
  /// growing-update streak of common/picard.hpp.
  double runaway_rise_limit = 400.0;
};

struct ElectroThermalDcSolution {
  /// Electrical solution at the final device temperatures; its report's
  /// device_temperatures map holds every MOSFET's exit temperature.
  DcSolution dc;
  std::vector<double> device_temperatures;  ///< [K], indexed like footprints
  std::vector<double> device_powers;        ///< [W], indexed like footprints
  int outer_iterations = 0;
  bool converged = false;  ///< outer T fixed point reached temp_tol
  bool runaway = false;    ///< thermal runaway flagged (temperatures NOT clamped)
  double max_temperature = 0.0;  ///< hottest device at exit [K]
};

/// Solves the coupled electro-thermal DC operating point. Throws
/// ptherm::PreconditionError on unusable Picard settings (damping outside
/// (0, 1], temp_tol <= 0, max_outer_iterations <= 0 or runaway_rise_limit
/// <= 0: the validate_picard rule cosim applies). Devices without a
/// footprint stay at opts.dc.temp. Inner solves reuse one NewtonCore and
/// warm-start from the previous outer iterate; inner non-convergence
/// propagates as ConvergenceFailure carrying the full SolveReport. Outer
/// non-convergence (including runaway) is flagged on the solution, not
/// thrown — the electrical state is still the converged solve at the last
/// iterate's temperatures.
[[nodiscard]] ElectroThermalDcSolution solve_electrothermal_dc(
    const Circuit& circuit, const thermal::SolverBackend& backend,
    std::span<const DeviceFootprint> footprints, const ElectroThermalDcOptions& opts = {});

}  // namespace ptherm::spice
