#include "telemetry/counters.hpp"

#include <iterator>

namespace ptherm::telemetry {

namespace {

using thermal::BackendCostStats;

constexpr BackendCounterField kBackendFields[] = {
    {"steady_solves", &BackendCostStats::steady_solves, false},
    {"influence_columns", &BackendCostStats::influence_columns, false},
    {"cg_iterations", &BackendCostStats::cg_iterations, true},
    {"modes", &BackendCostStats::modes, false},
    {"fft_calls", &BackendCostStats::fft_calls, true},
    {"transient_steps", &BackendCostStats::transient_steps, true},
    {"transient_power_updates", &BackendCostStats::transient_power_updates, true},
    {"transient_advances", &BackendCostStats::transient_advances, true},
    {"scenarios", &BackendCostStats::scenarios, false},
    {"batched_matvecs", &BackendCostStats::batched_matvecs, true},
    {"picard_iterations_total", &BackendCostStats::picard_iterations_total, true},
    {"masked_iterations_saved", &BackendCostStats::masked_iterations_saved, false},
};
// The completeness guard: a field added to BackendCostStats without a
// catalog entry changes the struct size and fails this build.
static_assert(sizeof(BackendCostStats) == std::size(kBackendFields) * sizeof(long long),
              "BackendCostStats and the telemetry counter catalog are out of sync: "
              "name every field in kBackendFields (telemetry/counters.cpp)");

std::string prefixed(std::string_view prefix, const char* name) {
  std::string full;
  full.reserve(prefix.size() + std::char_traits<char>::length(name));
  full.append(prefix);
  full.append(name);
  return full;
}

/// Bench-level aggregate counters the speed benches export under these exact
/// keys; guarded alongside the catalog's own effort counters.
constexpr const char* kGuardedBenchCounters[] = {
    "picard_iterations",
    "newton_iterations",
    "homotopy_steps",
    "outer_iterations",
};

}  // namespace

std::span<const BackendCounterField> backend_counter_fields() { return kBackendFields; }

void contribute(Registry& reg, const thermal::BackendCostStats& stats,
                std::string_view prefix) {
  for (const auto& field : kBackendFields) {
    reg.add(prefixed(prefix, field.name), stats.*(field.member));
  }
}

thermal::BackendCostStats backend_cost_from(const Registry& reg, std::string_view prefix) {
  thermal::BackendCostStats stats;
  for (const auto& field : kBackendFields) {
    stats.*(field.member) = reg.counter(prefixed(prefix, field.name));
  }
  return stats;
}

void contribute(Registry& reg, const spice::SolveReport& report, std::string_view prefix) {
  reg.add(prefixed(prefix, "newton_iterations"), report.newton_iterations);
  reg.add(prefixed(prefix, "homotopy_steps"), report.homotopy_steps);
  reg.add(prefixed(prefix, "rungs"), static_cast<long long>(report.rungs.size()));
  reg.add(prefixed(prefix, "cold_restarts"), report.cold_restart ? 1 : 0);
}

std::vector<std::string> guarded_counter_names() {
  std::vector<std::string> names;
  for (const auto& field : kBackendFields) {
    if (field.guarded) names.emplace_back(field.name);
  }
  for (const char* name : kGuardedBenchCounters) names.emplace_back(name);
  return names;
}

}  // namespace ptherm::telemetry
