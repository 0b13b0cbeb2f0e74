#include "rtm/actuator.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "power/dynamic.hpp"

namespace ptherm::rtm {

VfLadder::VfLadder(std::vector<OperatingPoint> points) : points_(std::move(points)) {
  PTHERM_REQUIRE(!points_.empty(), "VfLadder: need at least one operating point");
  for (std::size_t i = 0; i < points_.size(); ++i) {
    PTHERM_REQUIRE(points_[i].voltage > 0.0 && points_[i].frequency > 0.0,
                   "VfLadder: voltage and frequency must be positive");
    if (i > 0) {
      PTHERM_REQUIRE(points_[i].frequency < points_[i - 1].frequency,
                     "VfLadder: frequencies must strictly decrease with level");
      PTHERM_REQUIRE(points_[i].voltage <= points_[i - 1].voltage,
                     "VfLadder: voltages must not increase with level");
    }
  }
}

VfLadder VfLadder::uniform(double v_nom, double f_nom, int levels, double v_min_fraction,
                           double f_min_fraction) {
  PTHERM_REQUIRE(levels >= 1, "VfLadder::uniform: need at least one level");
  PTHERM_REQUIRE(v_nom > 0.0 && f_nom > 0.0, "VfLadder::uniform: nominal point must be positive");
  PTHERM_REQUIRE(v_min_fraction > 0.0 && v_min_fraction <= 1.0 && f_min_fraction > 0.0 &&
                     f_min_fraction <= 1.0,
                 "VfLadder::uniform: fractions must lie in (0, 1]");
  if (levels > 1) {
    PTHERM_REQUIRE(f_min_fraction < 1.0,
                   "VfLadder::uniform: multiple levels need f_min_fraction < 1");
  }
  std::vector<OperatingPoint> points(static_cast<std::size_t>(levels));
  for (int l = 0; l < levels; ++l) {
    const double u = levels == 1 ? 0.0 : static_cast<double>(l) / (levels - 1);
    points[l].voltage = v_nom * (1.0 - u * (1.0 - v_min_fraction));
    points[l].frequency = f_nom * (1.0 - u * (1.0 - f_min_fraction));
  }
  return VfLadder(std::move(points));
}

const OperatingPoint& VfLadder::at(int level) const {
  PTHERM_REQUIRE(level >= 0 && level < level_count(), "VfLadder::at: level out of range");
  return points_[static_cast<std::size_t>(level)];
}

std::vector<double> VfLadder::speed_fractions() const {
  std::vector<double> fractions(points_.size());
  for (std::size_t l = 0; l < points_.size(); ++l) {
    fractions[l] = points_[l].frequency / points_[0].frequency;
  }
  return fractions;
}

Actuator::Actuator(device::Technology tech, floorplan::Floorplan fp, VfLadder ladder,
                   ActuatorOptions opts)
    : tech_(std::move(tech)),
      fp_(std::move(fp)),
      ladder_(std::move(ladder)),
      opts_(opts),
      levels_(fp_.blocks().size(), 0),
      leakage_(fp_.blocks().begin(), fp_.blocks().end()) {
  PTHERM_REQUIRE(!fp_.blocks().empty(), "Actuator: empty floorplan");
  const int nl = ladder_.level_count();
  scales_.resize(nl);
  speeds_.resize(nl);
  level_tech_.reserve(nl);
  // The per-level dynamic scale comes from the power/dynamic model itself:
  // transient_power is alpha f C VDD^2, so the ratio against level 0 is
  // exactly (V/V0)^2 (f/f0) — computed through the model so the actuator
  // and the power subsystem cannot drift apart.
  power::SwitchingContext ctx0;
  ctx0.frequency = ladder_.at(0).frequency;
  device::Technology t0 = tech_;
  t0.vdd = ladder_.at(0).voltage;
  const double p0 = power::transient_power(t0, ctx0);
  PTHERM_ASSERT(p0 > 0.0, "Actuator: degenerate nominal operating point");
  for (int l = 0; l < nl; ++l) {
    // The DIBL-consistent supply rewrite (see device::at_supply): at a lower
    // supply the OFF transistor sees less drain-induced barrier lowering, so
    // its effective threshold rises and leakage falls exponentially — the
    // voltage-dependent leakage the RTM loop feeds back.
    device::Technology tl = device::at_supply(tech_, ladder_.at(l).voltage);
    power::SwitchingContext ctx = ctx0;
    ctx.frequency = ladder_.at(l).frequency;
    scales_[l] = power::transient_power(tl, ctx) / p0;
    speeds_[l] = ladder_.at(l).frequency / ladder_.at(0).frequency;
    level_tech_.push_back(std::move(tl));
  }

  if (opts_.leakage_table_points > 0) {
    PTHERM_REQUIRE(opts_.leakage_table_points >= 2,
                   "Actuator: leakage table needs at least 2 points");
    PTHERM_REQUIRE(opts_.table_t_max > opts_.table_t_min,
                   "Actuator: leakage table window is empty");
    const std::size_t np = static_cast<std::size_t>(opts_.leakage_table_points);
    table_dt_ = (opts_.table_t_max - opts_.table_t_min) / static_cast<double>(np - 1);
    table_.resize(fp_.blocks().size() * static_cast<std::size_t>(nl) * np);
    // Tables are built at vb = 0; a biased query falls back to the exact
    // path (body bias is a study parameter, not a per-epoch variable).
    for (std::size_t b = 0; b < fp_.blocks().size(); ++b) {
      for (int l = 0; l < nl; ++l) {
        double* row = table_.data() + (b * static_cast<std::size_t>(nl) + l) * np;
        for (std::size_t p = 0; p < np; ++p) {
          const double temp = opts_.table_t_min + static_cast<double>(p) * table_dt_;
          row[p] = leakage_exact(b, l, temp, 0.0);
        }
      }
    }
  }
}

int Actuator::level(std::size_t block) const {
  PTHERM_REQUIRE(block < levels_.size(), "Actuator::level: block out of range");
  return levels_[block];
}

bool Actuator::set_level(std::size_t block, int lvl) {
  PTHERM_REQUIRE(block < levels_.size(), "Actuator::set_level: block out of range");
  const int clamped = std::clamp(lvl, 0, ladder_.level_count() - 1);
  if (clamped == levels_[block]) return false;
  levels_[block] = clamped;
  return true;
}

void Actuator::reset() { std::fill(levels_.begin(), levels_.end(), 0); }

double Actuator::dynamic_power(std::size_t block, double activity) const {
  PTHERM_REQUIRE(block < levels_.size(), "Actuator::dynamic_power: block out of range");
  PTHERM_REQUIRE(activity >= 0.0, "Actuator::dynamic_power: activity must be >= 0");
  return fp_.blocks()[block].p_dynamic * activity * scales_[levels_[block]];
}

double Actuator::leakage_exact(std::size_t block, int lvl, double temp, double vb) const {
  return leakage_[block].leakage_power(level_tech_[static_cast<std::size_t>(lvl)], temp, vb);
}

double Actuator::leakage_power(std::size_t block, double temp, double vb) const {
  PTHERM_REQUIRE(block < levels_.size(), "Actuator::leakage_power: block out of range");
  const int lvl = levels_[block];
  if (table_.empty() || vb != 0.0) return leakage_exact(block, lvl, temp, vb);
  const std::size_t np = static_cast<std::size_t>(opts_.leakage_table_points);
  const double* row =
      table_.data() +
      (block * static_cast<std::size_t>(ladder_.level_count()) + lvl) * np;
  const double f = std::clamp((temp - opts_.table_t_min) / table_dt_,
                              0.0, static_cast<double>(np - 1));
  const std::size_t i0 = std::min(static_cast<std::size_t>(f), np - 2);
  const double w = f - static_cast<double>(i0);
  return (1.0 - w) * row[i0] + w * row[i0 + 1];
}

double Actuator::throughput_scale(std::size_t block) const {
  PTHERM_REQUIRE(block < levels_.size(), "Actuator::throughput_scale: block out of range");
  return speeds_[levels_[block]];
}

double Actuator::dynamic_scale(int lvl) const {
  PTHERM_REQUIRE(lvl >= 0 && lvl < ladder_.level_count(),
                 "Actuator::dynamic_scale: level out of range");
  return scales_[static_cast<std::size_t>(lvl)];
}

}  // namespace ptherm::rtm
