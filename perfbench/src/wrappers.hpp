// Pass-through wrappers that time a layer from outside the library: the
// library calls them exactly where it would call the wrapped object, and they
// forward every call unchanged, so results stay bitwise identical (each
// workload checks this against an unwrapped run).
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "harness.hpp"
#include "rtm/policy.hpp"
#include "thermal/backend.hpp"

namespace perfbench {

/// Marks Policy::control with a span and records the interval between
/// successive calls, which is the closed loop's epoch latency as the policy
/// sees it.
class TimedPolicy final : public ptherm::rtm::Policy {
 public:
  explicit TimedPolicy(ptherm::rtm::Policy& inner) : inner_(inner) {}

  [[nodiscard]] std::string_view name() const noexcept override { return inner_.name(); }

  void reset(const ptherm::rtm::PolicyContext& ctx, std::size_t block_count) override {
    Policy::reset(ctx, block_count);
    inner_.reset(ctx, block_count);
    have_prev_ = false;
  }

  void control(const ptherm::rtm::PolicyInput& in, std::span<int> levels) override {
    const auto t0 = Clock::now();
    if (have_prev_) interval_ms.push_back(1e3 * seconds_between(prev_, t0));
    prev_ = t0;
    have_prev_ = true;
    TELEMETRY_SPAN("bench/policy_control");
    inner_.control(in, levels);
    ++calls;
  }

  std::vector<double> interval_ms;  ///< time between successive control calls
  long long calls = 0;

 private:
  ptherm::rtm::Policy& inner_;
  Clock::time_point prev_{};
  bool have_prev_ = false;
};

/// SolverBackend wrapper that times the influence construction calls
/// (build_influence, make_influence_apply) and forwards everything else.
class TimedBackend final : public ptherm::thermal::SolverBackend {
 public:
  explicit TimedBackend(const ptherm::thermal::SolverBackend& inner) : inner_(inner) {}

  [[nodiscard]] std::string_view name() const noexcept override { return inner_.name(); }
  [[nodiscard]] const ptherm::thermal::Die& die() const noexcept override {
    return inner_.die();
  }
  [[nodiscard]] std::vector<double> surface_rises(
      const std::vector<ptherm::thermal::HeatSource>& sources,
      std::span<const ptherm::thermal::SurfaceSample> points) const override {
    return inner_.surface_rises(sources, points);
  }
  [[nodiscard]] std::vector<double> surface_rise_map(
      const std::vector<ptherm::thermal::HeatSource>& sources, int nx, int ny) const override {
    return inner_.surface_rise_map(sources, nx, ny);
  }
  [[nodiscard]] ptherm::numerics::Matrix build_influence(
      std::span<const ptherm::thermal::HeatSource> sources,
      std::span<const ptherm::thermal::SurfaceSample> samples) const override {
    TELEMETRY_SPAN("bench/et_influence_build");
    const auto t0 = Clock::now();
    auto r = inner_.build_influence(sources, samples);
    influence_s += seconds_between(t0, Clock::now());
    return r;
  }
  [[nodiscard]] bool supports_matrix_free_influence() const noexcept override {
    return inner_.supports_matrix_free_influence();
  }
  [[nodiscard]] std::unique_ptr<ptherm::thermal::InfluenceApply> make_influence_apply(
      std::span<const ptherm::thermal::HeatSource> sources,
      std::span<const ptherm::thermal::SurfaceSample> samples) const override {
    TELEMETRY_SPAN("bench/et_influence_build");
    const auto t0 = Clock::now();
    auto op = inner_.make_influence_apply(sources, samples);
    influence_s += seconds_between(t0, Clock::now());
    return op;
  }
  [[nodiscard]] bool supports_transient() const noexcept override {
    return inner_.supports_transient();
  }
  [[nodiscard]] std::unique_ptr<TransientState> make_transient_state() const override {
    return inner_.make_transient_state();
  }
  int step_transient(TransientState& state, double dt,
                     const std::vector<ptherm::thermal::HeatSource>& sources) const override {
    return inner_.step_transient(state, dt, sources);
  }
  [[nodiscard]] ptherm::thermal::BackendCostStats cost_stats() const override {
    return inner_.cost_stats();
  }

  /// Time in the influence construction calls [s]; mutable like the library
  /// backends' own cost counters, since the calls are const.
  mutable double influence_s = 0.0;

 private:
  const ptherm::thermal::SolverBackend& inner_;
};

}  // namespace perfbench
