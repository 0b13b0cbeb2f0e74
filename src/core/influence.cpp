#include "core/influence.hpp"

#include <utility>

#include "common/error.hpp"
#include "telemetry/counters.hpp"

namespace ptherm::core {

InfluenceBuildStats influence_stats_from(const thermal::BackendCostStats& cost) {
  // Through the registry, not a field-by-field copy: the backend counters
  // contribute under their catalog names and the influence view reads the
  // same names back, so both sides share one mapping (telemetry/counters.cpp
  // statically asserts the catalog covers every field).
  telemetry::Registry reg;
  telemetry::contribute(reg, cost);
  return telemetry::influence_build_from(reg);
}

std::vector<InfluenceSample> block_centre_samples(const floorplan::Floorplan& fp) {
  std::vector<InfluenceSample> samples;
  samples.reserve(fp.blocks().size());
  for (const auto& b : fp.blocks()) samples.push_back({b.rect.cx(), b.rect.cy()});
  return samples;
}

InfluenceOperator build_influence_analytic(const thermal::Die& die,
                                           std::vector<thermal::HeatSource> sources,
                                           std::span<const InfluenceSample> samples,
                                           const thermal::ImageOptions& opts) {
  return InfluenceOperator(thermal::analytic_influence_columns(die, sources, samples, opts));
}

InfluenceOperator build_influence_fdm(const thermal::FdmThermalSolver& solver,
                                      std::vector<thermal::HeatSource> sources,
                                      std::span<const InfluenceSample> samples, bool warm_start,
                                      InfluenceBuildStats* stats) {
  thermal::BackendCostStats cost;
  auto r = thermal::fdm_influence_columns(solver, sources, samples, warm_start, &cost);
  if (stats != nullptr) *stats = influence_stats_from(cost);
  return InfluenceOperator(std::move(r));
}

InfluenceOperator build_influence_spectral(const thermal::SpectralThermalSolver& solver,
                                           std::vector<thermal::HeatSource> sources,
                                           std::span<const InfluenceSample> samples,
                                           InfluenceBuildStats* stats) {
  thermal::BackendCostStats cost;
  auto r = thermal::spectral_influence_columns(solver, sources, samples, &cost);
  if (stats != nullptr) *stats = influence_stats_from(cost);
  return InfluenceOperator(std::move(r));
}

}  // namespace ptherm::core
