#include "thermal/analytic.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "numerics/quadrature.hpp"

namespace ptherm::thermal {

namespace {
constexpr double kPi = std::numbers::pi;
}

double point_source_rise(double k_si, double power, double r) noexcept {
  return power / (2.0 * kPi * k_si * std::max(r, 1e-30));
}

double rect_center_rise(double k_si, double power, double w, double l) noexcept {
  // T0 = P / (pi k W L) * [ L asinh(W/L) + W asinh(L/W) ]  (Eq. 18 rewritten
  // with asinh; identical to the paper's log form since
  // ln((sqrt(W^2+L^2)+W)/(sqrt(W^2+L^2)-W)) = 2 asinh(W/L)).
  return power / (kPi * k_si * w * l) *
         (l * std::asinh(w / l) + w * std::asinh(l / w));
}

double line_source_rise(double k_si, double power, double w, double x, double y) noexcept {
  // T = P / (2 pi k W) * [ asinh((x + W/2)/|y|) - asinh((x - W/2)/|y|) ].
  // As y -> 0 this reduces to the paper's log form off the segment and
  // diverges on it; the tiny floor keeps IEEE arithmetic finite.
  const double ay = std::max(std::abs(y), 1e-30);
  const double u1 = x + 0.5 * w;
  const double u2 = x - 0.5 * w;
  return power / (2.0 * kPi * k_si * w) * (std::asinh(u1 / ay) - std::asinh(u2 / ay));
}

double rect_rise_min(double k_si, const HeatSource& src, double x, double y) noexcept {
  return detail::rect_rise_min(k_si, src, rect_center_rise(k_si, src.power, src.w, src.l), x, y);
}

double detail::rect_rise_min(double k_si, const HeatSource& src, double t0, double x,
                             double y) noexcept {
  // Orient the line source along the longer rectangle side (§3.2: W > L).
  double dx = x - src.cx;
  double dy = y - src.cy;
  double length = src.w;
  if (src.l > src.w) {
    std::swap(dx, dy);
    length = src.l;
  }
  const double t_line = line_source_rise(k_si, src.power, length, dx, dy);
  return std::min(t0, t_line);
}

namespace {
/// Antiderivative of 1/sqrt(u^2+v^2) integrated over u and v, written with
/// asinh so the corner sum below is finite for every corner position.
double corner_g(double u, double v) noexcept {
  double g = 0.0;
  if (v != 0.0) g += v * std::asinh(u / std::abs(v));
  if (u != 0.0) g += u * std::asinh(v / std::abs(u));
  return g;
}
}  // namespace

double rect_rise_exact(double k_si, const HeatSource& src, double x, double y) noexcept {
  const double u1 = (x - src.cx) - 0.5 * src.w;
  const double u2 = (x - src.cx) + 0.5 * src.w;
  const double v1 = (y - src.cy) - 0.5 * src.l;
  const double v2 = (y - src.cy) + 0.5 * src.l;
  const double integral =
      corner_g(u2, v2) - corner_g(u1, v2) - corner_g(u2, v1) + corner_g(u1, v1);
  return src.power / (2.0 * kPi * k_si * src.w * src.l) * integral;
}

namespace {
/// Antiderivative of 1/sqrt(u^2+v^2+z^2) in u and v at fixed depth z > 0.
double corner_g_depth(double u, double v, double z) noexcept {
  const double r = std::sqrt(u * u + v * v + z * z);
  // ln(u + r) is ill-conditioned for u << 0 with small v,z; use the identity
  // u + r = (v^2 + z^2) / (r - u) there.
  auto safe_log = [](double a, double other_sq, double r_) {
    return (a > 0.0) ? std::log(a + r_) : std::log(other_sq / (r_ - a));
  };
  double g = 0.0;
  if (v != 0.0) g += v * safe_log(u, v * v + z * z, r);
  if (u != 0.0) g += u * safe_log(v, u * u + z * z, r);
  if (z != 0.0) g -= z * std::atan2(u * v, z * r);
  return g;
}
}  // namespace

double rect_rise_exact_at_depth(double k_si, const HeatSource& src, double x, double y,
                                double z) noexcept {
  if (z == 0.0) return rect_rise_exact(k_si, src, x, y);
  const double u1 = (x - src.cx) - 0.5 * src.w;
  const double u2 = (x - src.cx) + 0.5 * src.w;
  const double v1 = (y - src.cy) - 0.5 * src.l;
  const double v2 = (y - src.cy) + 0.5 * src.l;
  const double az = std::abs(z);
  const double integral = corner_g_depth(u2, v2, az) - corner_g_depth(u1, v2, az) -
                          corner_g_depth(u2, v1, az) + corner_g_depth(u1, v1, az);
  return src.power / (2.0 * kPi * k_si * src.w * src.l) * integral;
}

double rect_rise_quadrature(double k_si, const HeatSource& src, double x, double y) {
  PTHERM_REQUIRE(src.w > 0.0 && src.l > 0.0, "rect_rise_quadrature: degenerate source");
  auto integrand = [&](double x0, double y0) {
    const double dx = x - x0;
    const double dy = y - y0;
    const double r = std::sqrt(dx * dx + dy * dy);
    return 1.0 / std::max(r, 1e-15);
  };
  numerics::QuadratureOptions opts;
  opts.rel_tol = 1e-9;
  const auto q = numerics::integrate2d(integrand, src.cx - 0.5 * src.w, src.cx + 0.5 * src.w,
                                       src.cy - 0.5 * src.l, src.cy + 0.5 * src.l, opts);
  return src.power / (2.0 * kPi * k_si * src.w * src.l) * q.value;
}

}  // namespace ptherm::thermal
