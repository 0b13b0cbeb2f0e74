// The settings check and the per-iteration verdict of the damped Picard
// fixed point T <- T_sink + R * P(T). The block cosim, the batched scenario
// engine (one verdict per scenario) and the electro-thermal SPICE outer loop
// all judge their iterations through this one type, so they cannot disagree
// about when a solve has converged or run away.
#pragma once

#include <string>
#include <string_view>

#include "common/error.hpp"

namespace ptherm {

/// Throws ptherm::PreconditionError unless the Picard settings are usable:
/// damping in (0, 1], tol > 0, max_iterations > 0 and runaway_rise_limit > 0.
/// `owner` (the options struct's name) prefixes the message.
inline void validate_picard(std::string_view owner, double damping, double tol,
                            int max_iterations, double runaway_rise_limit) {
  // The messages are built only on failure (PTHERM_REQUIRE evaluates them lazily).
  const auto who = [owner](const char* what) { return std::string(owner) + ": " + what; };
  PTHERM_REQUIRE(damping > 0.0 && damping <= 1.0, who("damping must be in (0, 1]"));
  PTHERM_REQUIRE(tol > 0.0, who("tolerance must be > 0"));
  PTHERM_REQUIRE(max_iterations > 0, who("iteration limit must be > 0"));
  PTHERM_REQUIRE(runaway_rise_limit > 0.0, who("runaway_rise_limit must be > 0"));
}

/// Judges one fixed point iteration by iteration, in this order:
///  1. runaway when the largest rise above the sink exceeds the hard limit;
///  2. runaway when the largest update |dT| has grown for 10 consecutive
///     iterations — a damped contraction has shrinking updates, so steady
///     growth is the fixed point diverging below the hard limit;
///  3. converged when the largest update is below the tolerance.
/// Runaway is flagged, never clamped: the caller keeps its iterates.
class PicardVerdict {
 public:
  enum class State { Running, Converged, Runaway };

  PicardVerdict(double tol, double runaway_rise_limit) noexcept
      : tol_(tol), rise_limit_(runaway_rise_limit) {}

  /// Verdict after an iteration whose largest update was `max_delta` [K] and
  /// whose hottest point sits `max_rise` [K] above the sink.
  [[nodiscard]] State observe(double max_delta, double max_rise) noexcept {
    if (max_rise > rise_limit_) return State::Runaway;
    if (max_delta > prev_delta_ && observed_) {
      if (++growth_streak_ >= 10) return State::Runaway;
    } else {
      growth_streak_ = 0;
    }
    observed_ = true;
    prev_delta_ = max_delta;
    return max_delta < tol_ ? State::Converged : State::Running;
  }

 private:
  double tol_;
  double rise_limit_;
  double prev_delta_ = 0.0;
  int growth_streak_ = 0;
  bool observed_ = false;
};

}  // namespace ptherm
