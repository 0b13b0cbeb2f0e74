// Full-chip analytic thermal model: superposition of rectangle sources
// (Eq. 21) plus the method of images (§3.3) to impose the paper's boundary
// conditions — adiabatic die sidewalls (mirror lattice in x and y) and an
// isothermal bottom at the heat sink (a -P image reflected across the sink
// plane).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "thermal/analytic.hpp"

namespace ptherm::thermal {

/// Die geometry and material for the analytic chip model.
struct Die {
  double width = 1e-3;        ///< x extent [m]
  double height = 1e-3;       ///< y extent [m]
  double thickness = 350e-6;  ///< distance from surface to the heat sink [m]
  double k_si = 148.0;        ///< thermal conductivity [W/(m K)]
  double t_sink = 300.0;      ///< heat-sink (bottom) temperature [K]
  double cv_si = 1.631e6;     ///< volumetric heat capacity [J/(m^3 K)] (transients)
};

/// A surface point a thermal query reports the rise at (a block centre in
/// the co-simulation use). Shared by the backend layer's batched queries and
/// the spectral solver's matrix-free influence projections.
struct SurfaceSample {
  double x = 0.0;
  double y = 0.0;
};

struct ImageOptions {
  /// Lateral mirror order: images at indices -order..order in both axes
  /// ((2*order+1)^2 positions x 2 mirror signs per axis). 0 disables
  /// sidewall images entirely (pure Eq. 21 superposition).
  int lateral_order = 2;
  /// Impose the isothermal sink plane at z = thickness. A single -P image is
  /// not enough: the adiabatic top re-reflects it, giving the alternating
  /// series  T(rho) = P/(2 pi k) [1/rho + 2 sum_j (-1)^j / sqrt(rho^2 +
  /// (2 j t)^2)]  whose truncation (with a half-term correction) reproduces
  /// the exponential lateral decay a Dirichlet plane causes.
  bool bottom_images = true;
  /// Number of z-image terms in that series.
  int z_order = 24;
};

/// Analytic chip thermal model: evaluate anywhere on the surface in O(#images)
/// closed-form kernel calls — the "fast" estimator the paper contrasts with
/// numerical solvers.
///
/// Source-clipping policy (power conservation, matching FdmThermalSolver):
/// each source's footprint is clipped to the die surface and the FULL source
/// power is radiated from the clipped rectangle; a source entirely outside
/// the die contributes nothing. `sources()` still reports the caller's
/// unclipped geometry — clipping is internal to the field evaluation.
class ChipThermalModel {
 public:
  ChipThermalModel(Die die, std::vector<HeatSource> sources, ImageOptions opts = {});

  /// Temperature rise above the heat sink at surface point (x, y) [K].
  [[nodiscard]] double rise(double x, double y) const;

  /// Rises at many surface points: out[p] == rise(points[p].x, points[p].y),
  /// bitwise. With bottom images, the lateral copies beyond the cutoff
  /// distance from every point are dropped once for the whole call instead
  /// of being tested at each point (see images.cpp). Throws
  /// ptherm::PreconditionError unless out has one entry per point.
  void rises(std::span<const SurfaceSample> points, std::span<double> out) const;

  /// Absolute temperature = sink temperature + rise [K].
  [[nodiscard]] double temperature(double x, double y) const;

  /// Rise at the centre of source `i` (what a block "feels"; used by the
  /// co-simulation loop as the block temperature).
  [[nodiscard]] double source_center_rise(std::size_t i) const;

  /// Samples temperature on an nx x ny surface grid (row-major, y outer).
  [[nodiscard]] std::vector<double> surface_map(int nx, int ny) const;

  [[nodiscard]] const Die& die() const noexcept { return die_; }
  [[nodiscard]] const std::vector<HeatSource>& sources() const noexcept { return sources_; }
  [[nodiscard]] std::size_t image_count() const noexcept { return images_.size(); }

  /// Replaces the power of source `i` (geometry fixed); images are updated.
  /// Used by the electro-thermal fixed point, which re-evaluates powers only.
  void set_source_power(std::size_t i, double power);

 private:
  struct Image {
    HeatSource source;   ///< lateral mirror copy
    std::size_t parent;  ///< index of the originating source
    /// Eq. (18) centre rise of the copy; every copy of a source shares it.
    double center_rise;
  };
  void clip_sources();
  void rebuild_images();
  /// Contribution of one lateral copy at surface point (x, y): the Eq. (20)
  /// rectangle kernel plus (when enabled) the alternating z-image series.
  [[nodiscard]] double image_rise(const Image& img, double x, double y) const;

  Die die_;
  std::vector<HeatSource> sources_;   ///< as given by the caller
  std::vector<HeatSource> clipped_;   ///< die-clipped footprints; w == 0 marks fully off-die
  ImageOptions opts_;
  std::vector<Image> images_;
  std::vector<double> depth_sq_;  ///< (2 j t)^2 of z-image j = 1..z_order
};

}  // namespace ptherm::thermal
