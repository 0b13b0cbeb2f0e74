// Operating points and actuation: the knobs the runtime thermal manager
// turns. A VfLadder enumerates the per-block voltage/frequency levels
// (level 0 = fastest = the point the floorplan's nominal dynamic powers were
// characterized at); the Actuator maps a block's requested activity to
// delivered dynamic power through the existing power/dynamic model
// (P ~ alpha f C V^2, so the per-level scale is (V/V0)^2 * (f/f0)) and
// evaluates leakage through leakage/ at the level's ACTUAL supply voltage —
// lowering VDD shrinks DIBL and the output swing, so throttling feeds back
// into the electro-thermal fixed point instead of just scaling a constant.
#pragma once

#include <cstddef>
#include <vector>

#include "floorplan/compiled_leakage.hpp"
#include "floorplan/floorplan.hpp"

namespace ptherm::rtm {

/// One selectable voltage/frequency pair.
struct OperatingPoint {
  double voltage = 0.0;    ///< supply [V]
  double frequency = 0.0;  ///< clock [Hz]
};

/// Ordered ladder of operating points: level 0 is the fastest (highest
/// frequency); each further level is strictly slower and no higher in
/// voltage — "throttle one level" always means less power.
class VfLadder {
 public:
  explicit VfLadder(std::vector<OperatingPoint> points);

  /// Evenly spaced ladder from (v_nom, f_nom) down to
  /// (v_min_fraction * v_nom, f_min_fraction * f_nom) in `levels` steps.
  [[nodiscard]] static VfLadder uniform(double v_nom, double f_nom, int levels,
                                        double v_min_fraction, double f_min_fraction);

  [[nodiscard]] int level_count() const noexcept { return static_cast<int>(points_.size()); }
  [[nodiscard]] const OperatingPoint& at(int level) const;
  /// f_level / f_0 for each level, descending from 1.0 — the per-level
  /// delivered-throughput fraction (handed to frequency-aware policies).
  [[nodiscard]] std::vector<double> speed_fractions() const;

 private:
  std::vector<OperatingPoint> points_;
};

struct ActuatorOptions {
  /// 0 evaluates leakage exactly on every query, through each block's
  /// compiled program (floorplan/compiled_leakage.hpp: bitwise the leakage/
  /// walk of Block::leakage_power, allocation-free). A positive
  /// count instead samples each (block, level) leakage-vs-temperature curve
  /// once at construction and interpolates linearly between samples — the
  /// long-trace speed lever (the curve is smooth and exponential-like, so a
  /// few dozen points stay well under a percent). The temperature window
  /// must cover every query; out-of-window queries clamp to the ends.
  int leakage_table_points = 0;
  double table_t_min = 273.15;  ///< table window low end [K]
  double table_t_max = 473.15;  ///< table window high end [K]
};

/// Per-block V/f state over a floorplan. The floorplan and technology are
/// copied in (same ownership policy as ElectroThermalSolver: the actuator
/// cannot dangle); levels start at 0 (fastest).
class Actuator {
 public:
  Actuator(device::Technology tech, floorplan::Floorplan fp, VfLadder ladder,
           ActuatorOptions opts = {});

  [[nodiscard]] std::size_t block_count() const noexcept { return fp_.blocks().size(); }
  [[nodiscard]] const VfLadder& ladder() const noexcept { return ladder_; }

  /// Current level of `block`.
  [[nodiscard]] int level(std::size_t block) const;
  /// Sets `block` to `lvl` (clamped into the ladder); returns true when the
  /// effective level actually changed — the intervention counter's unit.
  bool set_level(std::size_t block, int lvl);
  /// Everything back to level 0 (run start).
  void reset();

  /// Delivered dynamic power of `block` at requested activity `activity`
  /// under its current level: p_dynamic_nominal * activity * scale(level),
  /// with scale derived from power::transient_power at the level's V and f.
  [[nodiscard]] double dynamic_power(std::size_t block, double activity) const;
  /// Leakage power of `block` at temperature `temp` [K] and substrate bias
  /// `vb`, evaluated at the current level's supply voltage.
  [[nodiscard]] double leakage_power(std::size_t block, double temp, double vb = 0.0) const;
  /// f_level / f_0 of `block`'s current level: the fraction of requested
  /// work actually delivered per unit time.
  [[nodiscard]] double throughput_scale(std::size_t block) const;

  /// Per-level dynamic-power scale (V/V0)^2 * (f/f0), exposed for tests.
  [[nodiscard]] double dynamic_scale(int lvl) const;

 private:
  [[nodiscard]] double leakage_exact(std::size_t block, int lvl, double temp,
                                     double vb) const;

  device::Technology tech_;
  floorplan::Floorplan fp_;
  VfLadder ladder_;
  ActuatorOptions opts_;
  std::vector<int> levels_;                  ///< per block
  std::vector<double> scales_;               ///< per level, (V/V0)^2 (f/f0)
  std::vector<double> speeds_;               ///< per level, f/f0
  std::vector<device::Technology> level_tech_;  ///< tech with vdd = level voltage
  /// Compiled leakage programs, one per block: tech-independent, so one
  /// serves every level, bitwise equal to Block::leakage_power.
  std::vector<floorplan::CompiledBlockLeakage> leakage_;
  /// Linear leakage tables, [block][level][point]; empty when exact.
  std::vector<double> table_;
  double table_dt_ = 0.0;
};

}  // namespace ptherm::rtm
