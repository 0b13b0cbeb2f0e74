// Analytic steady-state thermal kernels from the paper's §3: a rectangular
// source of power P on the surface of a silicon half-space with an adiabatic
// top. All functions return the temperature *rise* above the far-field
// reference [K]; absolute temperatures are assembled by thermal/images.hpp.
//
//  * point_source_rise      — Eq. (16): P / (2 pi k r)
//  * rect_center_rise       — Eq. (18): exact rise at the centre of W x L
//  * line_source_rise       — Eq. (19): far-field line-source profile
//  * rect_rise_min          — Eq. (20): min(T0, Tline), the paper's estimator
//  * rect_rise_exact        — Eq. (17) evaluated in closed form (corner sums)
//  * rect_rise_quadrature   — Eq. (17) by adaptive quadrature (cross-check)
#pragma once

namespace ptherm::thermal {

/// Axis-aligned rectangular heat source on the die surface. (cx, cy) is the
/// centre, `w`/`l` the extents along x/y [m], `power` in watts.
struct HeatSource {
  double cx = 0.0;
  double cy = 0.0;
  double w = 0.0;
  double l = 0.0;
  double power = 0.0;
};

/// Eq. (16): rise at distance r from an ideal point source (half-space).
[[nodiscard]] double point_source_rise(double k_si, double power, double r) noexcept;

/// Eq. (18): exact rise at the centre of a uniform W x L source.
[[nodiscard]] double rect_center_rise(double k_si, double power, double w, double l) noexcept;

/// Eq. (19): rise at (x, y) from a uniform line source of length `w` along
/// the x axis, centred at the origin. Diverges on the segment itself (the
/// min() in Eq. 20 is what tames it).
[[nodiscard]] double line_source_rise(double k_si, double power, double w, double x,
                                      double y) noexcept;

/// Eq. (20): the paper's profile estimator min(T0, Tline) for a source
/// centred at (src.cx, src.cy). The line source is oriented along the longer
/// side, as §3.2 prescribes (assume W > L).
[[nodiscard]] double rect_rise_min(double k_si, const HeatSource& src, double x,
                                   double y) noexcept;

namespace detail {
/// rect_rise_min with the source's Eq. (18) centre rise `t0` =
/// rect_center_rise(k_si, src.power, src.w, src.l) passed in: `t0` depends
/// only on the source, so a caller that queries one source at many points
/// (the image model) computes it once.
[[nodiscard]] double rect_rise_min(double k_si, const HeatSource& src, double t0, double x,
                                   double y) noexcept;
}  // namespace detail

/// Closed-form evaluation of Eq. (17): the 1/r kernel integrated over the
/// rectangle has antiderivative v*asinh(u/|v|) + u*asinh(v/|u|); corner sums
/// give the exact rise anywhere (inside or outside the source).
[[nodiscard]] double rect_rise_exact(double k_si, const HeatSource& src, double x,
                                     double y) noexcept;

/// Adaptive-quadrature evaluation of Eq. (17); slow, used to validate
/// rect_rise_exact in tests.
[[nodiscard]] double rect_rise_quadrature(double k_si, const HeatSource& src, double x,
                                          double y);

/// Exact rise at depth `z` below surface point (x, y) for the same uniform
/// rectangle: the Newtonian-potential corner form
///   G(u,v,z) = v ln(u+R) + u ln(v+R) - z atan(u v / (z R)),
/// which reduces to rect_rise_exact at z = 0. Used to compare the analytic
/// model against cell-centred FDM layers without extrapolation bias.
[[nodiscard]] double rect_rise_exact_at_depth(double k_si, const HeatSource& src, double x,
                                              double y, double z) noexcept;

}  // namespace ptherm::thermal
