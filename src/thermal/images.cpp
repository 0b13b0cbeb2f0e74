#include "thermal/images.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace ptherm::thermal {

namespace {
/// With bottom images a lateral copy contributes exactly nothing to a point
/// more than this many die thicknesses away (see image_rise).
constexpr double kCutoffThicknesses = 8.0;
}  // namespace

ChipThermalModel::ChipThermalModel(Die die, std::vector<HeatSource> sources, ImageOptions opts)
    : die_(die), sources_(std::move(sources)), opts_(opts) {
  PTHERM_REQUIRE(die_.width > 0.0 && die_.height > 0.0 && die_.thickness > 0.0,
                 "ChipThermalModel: degenerate die");
  PTHERM_REQUIRE(opts_.lateral_order >= 0, "ChipThermalModel: negative image order");
  PTHERM_REQUIRE(opts_.z_order >= 1, "ChipThermalModel: z_order must be positive");
  for (const auto& s : sources_) {
    PTHERM_REQUIRE(s.w > 0.0 && s.l > 0.0, "ChipThermalModel: degenerate source");
  }
  clip_sources();
  rebuild_images();
  depth_sq_.resize(static_cast<std::size_t>(opts_.z_order));
  for (int j = 1; j <= opts_.z_order; ++j) {
    const double depth = 2.0 * j * die_.thickness;
    depth_sq_[static_cast<std::size_t>(j - 1)] = depth * depth;
  }
}

void ChipThermalModel::clip_sources() {
  // Power-conservation policy (see class comment): the full power radiates
  // from the die-clipped footprint; fully off-die sources are inert, marked
  // by a zero-width clipped entry so indices stay aligned with sources_.
  clipped_.resize(sources_.size());
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    const HeatSource& s = sources_[i];
    const double x0 = std::max(s.cx - 0.5 * s.w, 0.0);
    const double x1 = std::min(s.cx + 0.5 * s.w, die_.width);
    const double y0 = std::max(s.cy - 0.5 * s.l, 0.0);
    const double y1 = std::min(s.cy + 0.5 * s.l, die_.height);
    HeatSource c = s;
    if (x1 <= x0 || y1 <= y0) {
      c.w = 0.0;
      c.l = 0.0;
    } else {
      // Rewrite only axes that were actually clipped: recomputing an
      // untouched extent as x1 - x0 can perturb it by an ulp, and the
      // min-kernel's line-source orientation test (l > w) must not flip on
      // rounding noise for fully in-die sources.
      if (x0 > s.cx - 0.5 * s.w || x1 < s.cx + 0.5 * s.w) {
        c.cx = 0.5 * (x0 + x1);
        c.w = x1 - x0;
      }
      if (y0 > s.cy - 0.5 * s.l || y1 < s.cy + 0.5 * s.l) {
        c.cy = 0.5 * (y0 + y1);
        c.l = y1 - y0;
      }
    }
    clipped_[i] = c;
  }
}

void ChipThermalModel::rebuild_images() {
  images_.clear();
  const int order = opts_.lateral_order;
  const double wd = die_.width;
  const double hd = die_.height;
  for (std::size_t si = 0; si < clipped_.size(); ++si) {
    const HeatSource& s = clipped_[si];
    if (s.w <= 0.0) continue;  // fully off-die: no field
    const double t0 = rect_center_rise(die_.k_si, s.power, s.w, s.l);
    if (order == 0) {
      images_.push_back({s, si, t0});
      continue;
    }
    // Mirror lattice for adiabatic walls at x = 0 / x = wd (and same in y):
    // a source at cx maps to 2*m*wd + cx and 2*m*wd - cx for every m.
    for (int mx = -order; mx <= order; ++mx) {
      for (int sx = 0; sx < 2; ++sx) {
        // Skip duplicates when a source sits exactly on a wall (then +cx and
        // -cx coincide for every lattice index).
        if (sx == 1 && s.cx == 0.0) continue;
        const double cx = 2.0 * mx * wd + (sx == 0 ? s.cx : -s.cx);
        for (int my = -order; my <= order; ++my) {
          for (int sy = 0; sy < 2; ++sy) {
            if (sy == 1 && s.cy == 0.0) continue;
            const double cy = 2.0 * my * hd + (sy == 0 ? s.cy : -s.cy);
            HeatSource img = s;
            img.cx = cx;
            img.cy = cy;
            images_.push_back({img, si, t0});
          }
        }
      }
    }
  }
}

double ChipThermalModel::image_rise(const Image& img, double x, double y) const {
  const double dx = x - img.source.cx;
  const double dy = y - img.source.cy;
  const double rho_sq = dx * dx + dy * dy;
  const double t = die_.thickness;
  if (opts_.bottom_images) {
    // With a sink plane at depth t the net field of a source decays like
    // exp(-pi*rho/(2t)); beyond a few thicknesses it is numerically nothing,
    // so distant lateral mirrors are skipped outright (this also makes the
    // lateral-order truncation converge instead of accumulating tails).
    if (rho_sq > (kCutoffThicknesses * t) * (kCutoffThicknesses * t)) return 0.0;
  }
  double rise = detail::rect_rise_min(die_.k_si, img.source, img.center_rise, x, y);
  if (!opts_.bottom_images) return rise;
  // Alternating z-image series for the isothermal plane at depth t, seen
  // from the (adiabatic) surface:
  //   dT = 2 * sum_j (-1)^j * P / (2 pi k sqrt(rho^2 + (2jt)^2)).
  // Terms use the point kernel (every image is buried >= 2t, far compared to
  // the source extent). The terms decay slowly for rho >~ t, so the sum is
  // Euler-accelerated: repeated averaging of the trailing partial sums turns
  // O(1/J) truncation error into something negligible.
  const int n_terms = opts_.z_order;
  constexpr int kTail = 8;
  double partials[kTail];
  double series = 0.0;
  int tail_count = 0;
  for (int j = 1; j <= n_terms; ++j) {
    series += 2.0 * ((j % 2 == 1) ? -1.0 : 1.0) *
              point_source_rise(die_.k_si, img.source.power,
                                std::sqrt(rho_sq + depth_sq_[static_cast<std::size_t>(j - 1)]));
    if (j > n_terms - kTail) partials[tail_count++] = series;
  }
  // Euler transform on the trailing partial sums.
  for (int level = tail_count - 1; level > 0; --level) {
    for (int i = 0; i < level; ++i) partials[i] = 0.5 * (partials[i] + partials[i + 1]);
  }
  return rise + (tail_count > 0 ? partials[0] : series);
}

double ChipThermalModel::rise(double x, double y) const {
  double sum = 0.0;
  for (const auto& img : images_) sum += image_rise(img, x, y);
  return sum;
}

void ChipThermalModel::rises(std::span<const SurfaceSample> points,
                             std::span<double> out) const {
  PTHERM_REQUIRE(out.size() == points.size(),
                 "ChipThermalModel::rises: need one output per point");
  // image_rise returns exactly +0.0 for a copy beyond the cutoff, and a sum
  // that starts at +0.0 never becomes -0.0, so leaving out a copy that is
  // beyond the cutoff from EVERY point changes no sum by a bit. A copy is
  // left out when its centre is farther than the cutoff from the points'
  // bounding box by a relative margin (1e-9) far above the rounding of
  // either distance; the copies that stay still take the per-point test.
  // Without bottom images there is no cutoff, and a non-finite coordinate
  // keeps every copy (a NaN point sums NaN from all of them).
  bool prune = opts_.bottom_images;
  double x0 = std::numeric_limits<double>::infinity();
  double x1 = -x0;
  double y0 = x0;
  double y1 = -x0;
  for (const SurfaceSample& p : points) {
    prune = prune && std::isfinite(p.x) && std::isfinite(p.y);
    x0 = std::min(x0, p.x);
    x1 = std::max(x1, p.x);
    y0 = std::min(y0, p.y);
    y1 = std::max(y1, p.y);
  }
  std::vector<Image> reachable;
  std::span<const Image> live = images_;
  if (prune && !points.empty()) {
    const double reach = kCutoffThicknesses * die_.thickness * (1.0 + 1e-9);
    for (const Image& img : images_) {
      const double dx = std::max({x0 - img.source.cx, img.source.cx - x1, 0.0});
      const double dy = std::max({y0 - img.source.cy, img.source.cy - y1, 0.0});
      if (dx * dx + dy * dy <= reach * reach) reachable.push_back(img);
    }
    live = reachable;
  }
  for (std::size_t p = 0; p < points.size(); ++p) {
    double sum = 0.0;
    for (const Image& img : live) sum += image_rise(img, points[p].x, points[p].y);
    out[p] = sum;
  }
}

double ChipThermalModel::temperature(double x, double y) const {
  return die_.t_sink + rise(x, y);
}

double ChipThermalModel::source_center_rise(std::size_t i) const {
  PTHERM_REQUIRE(i < sources_.size(), "source_center_rise: index out of range");
  return rise(sources_[i].cx, sources_[i].cy);
}

std::vector<double> ChipThermalModel::surface_map(int nx, int ny) const {
  PTHERM_REQUIRE(nx >= 2 && ny >= 2, "surface_map: need at least a 2x2 grid");
  std::vector<double> map(static_cast<std::size_t>(nx) * ny, 0.0);
  for (int j = 0; j < ny; ++j) {
    const double y = die_.height * (j + 0.5) / ny;
    for (int i = 0; i < nx; ++i) {
      const double x = die_.width * (i + 0.5) / nx;
      map[static_cast<std::size_t>(j) * nx + i] = temperature(x, y);
    }
  }
  return map;
}

void ChipThermalModel::set_source_power(std::size_t i, double power) {
  PTHERM_REQUIRE(i < sources_.size(), "set_source_power: index out of range");
  sources_[i].power = power;
  clipped_[i].power = power;
  if (clipped_[i].w <= 0.0) return;  // fully off-die: no images
  const double t0 = rect_center_rise(die_.k_si, power, clipped_[i].w, clipped_[i].l);
  for (auto& img : images_) {
    if (img.parent == i) {
      img.source.power = power;
      img.center_rise = t0;
    }
  }
}

}  // namespace ptherm::thermal
