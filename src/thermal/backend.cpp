#include "thermal/backend.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "telemetry/telemetry.hpp"

namespace ptherm::thermal {

DenseInfluenceApply::DenseInfluenceApply(numerics::Matrix r) : r_(std::move(r)) {
  PTHERM_REQUIRE(r_.rows() == r_.cols(),
                 "DenseInfluenceApply: influence matrix must be square");
}

double DenseInfluenceApply::at(std::size_t i, std::size_t j) const {
  PTHERM_REQUIRE(i < size() && j < size(), "DenseInfluenceApply: index out of range");
  return r_(i, j);
}

void DenseInfluenceApply::add_uniform(double resistance) {
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) r_(i, j) += resistance;
  }
}

std::vector<double> DenseInfluenceApply::apply(std::span<const double> powers) const {
  PTHERM_REQUIRE(powers.size() == size(),
                 "InfluenceApply::apply: powers must have size() elements");
  return r_.multiply(powers);
}

void DenseInfluenceApply::apply_batch(std::span<const double> powers,
                                      std::span<double> rises, std::size_t count) const {
  PTHERM_REQUIRE(powers.size() == count * size() && rises.size() == count * size(),
                 "InfluenceApply::apply_batch: powers/rises must have count * size() elements");
  r_.multiply_batch(powers, rises, count);
}

std::unique_ptr<InfluenceApply> resolve_influence_apply(
    const SolverBackend& backend, std::span<const HeatSource> sources,
    std::span<const SurfaceSample> samples) {
  if (backend.supports_matrix_free_influence()) {
    return backend.make_influence_apply(sources, samples);
  }
  return std::make_unique<DenseInfluenceApply>(backend.build_influence(sources, samples));
}

std::unique_ptr<InfluenceApply> SolverBackend::make_influence_apply(
    std::span<const HeatSource>, std::span<const SurfaceSample>) const {
  std::ostringstream os;
  os << "thermal backend '" << name()
     << "' has no matrix-free influence path (build_influence instead)";
  throw PreconditionError(os.str());
}

std::unique_ptr<SolverBackend::TransientState> SolverBackend::make_transient_state() const {
  std::ostringstream os;
  os << "thermal backend '" << name() << "' does not support transients";
  throw PreconditionError(os.str());
}

int SolverBackend::step_transient(TransientState&, double,
                                  const std::vector<HeatSource>&) const {
  std::ostringstream os;
  os << "thermal backend '" << name() << "' does not support transients";
  throw PreconditionError(os.str());
}

void SolverBackend::TransientState::surface_rises(std::span<const SurfaceSample> points,
                                                  std::span<double> out) const {
  PTHERM_REQUIRE(out.size() == points.size(),
                 "TransientState::surface_rises: output size mismatch");
  for (std::size_t p = 0; p < points.size(); ++p) {
    out[p] = surface_rise(points[p].x, points[p].y);
  }
}

std::vector<double> SolverBackend::surface_rise_map(const std::vector<HeatSource>& sources,
                                                    int nx, int ny) const {
  PTHERM_REQUIRE(nx >= 2 && ny >= 2, "surface_rise_map: need at least a 2x2 grid");
  std::vector<SurfaceSample> points;
  points.reserve(static_cast<std::size_t>(nx) * ny);
  for (int j = 0; j < ny; ++j) {
    const double y = die().height * (j + 0.5) / ny;
    for (int i = 0; i < nx; ++i) {
      points.push_back({die().width * (i + 0.5) / nx, y});
    }
  }
  return surface_rises(sources, points);
}

// ------------------------------------------------------------------ analytic

AnalyticImagesBackend::AnalyticImagesBackend(Die die, ImageOptions opts)
    : die_(die), opts_(opts) {}

std::vector<double> AnalyticImagesBackend::surface_rises(
    const std::vector<HeatSource>& sources, std::span<const SurfaceSample> points) const {
  const ChipThermalModel model(die_, sources, opts_);
  ++stats_.steady_solves;
  std::vector<double> rises(points.size());
  model.rises(points, rises);
  return rises;
}

numerics::Matrix AnalyticImagesBackend::build_influence(
    std::span<const HeatSource> sources, std::span<const SurfaceSample> samples) const {
  return analytic_influence_columns(die_, sources, samples, opts_, &stats_);
}

// ---------------------------------------------------------------------- fdm

namespace {

/// FDM transient field: the backward-Euler state plus the solver handle that
/// interprets it. Batched readback caches the per-point bilinear stencils
/// (top-layer cell indices + weights) keyed by the query points: transient
/// drivers ask for the same block centres every epoch, so the bounds
/// clamping and centre arithmetic of FdmThermalSolver::surface_rise is paid
/// once per point set, not once per point per step.
class FdmTransientState final : public SolverBackend::TransientState {
 public:
  explicit FdmTransientState(const FdmThermalSolver& solver) : solver_(&solver) {
    field_.rise.assign(solver.cell_count(), 0.0);
    field_.converged = true;
  }

  [[nodiscard]] double surface_rise(double x, double y) const override {
    return solver_->surface_rise(field_, x, y);
  }

  void surface_rises(std::span<const SurfaceSample> points,
                     std::span<double> out) const override {
    PTHERM_REQUIRE(out.size() == points.size(),
                   "TransientState::surface_rises: output size mismatch");
    if (!stencil_matches(points)) rebuild_stencil(points);
    const double* rise = field_.rise.data();
    for (std::size_t p = 0; p < points.size(); ++p) {
      const std::size_t* idx = stencil_index_.data() + 4 * p;
      const double* w = stencil_weight_.data() + 4 * p;
      // Same term order and grouping as surface_rise, so the cached path is
      // bitwise-identical to the per-point one (tested).
      out[p] = w[0] * rise[idx[0]] + w[1] * rise[idx[1]] + w[2] * rise[idx[2]] +
               w[3] * rise[idx[3]];
    }
  }

  [[nodiscard]] std::vector<double>& rise() noexcept { return field_.rise; }
  [[nodiscard]] const FdmThermalSolver* solver() const noexcept { return solver_; }

 private:
  [[nodiscard]] bool stencil_matches(std::span<const SurfaceSample> points) const {
    if (stencil_points_.size() != points.size()) return false;
    for (std::size_t p = 0; p < points.size(); ++p) {
      if (stencil_points_[p].x != points[p].x || stencil_points_[p].y != points[p].y) {
        return false;
      }
    }
    return true;
  }

  void rebuild_stencil(std::span<const SurfaceSample> points) const {
    stencil_index_.resize(4 * points.size());
    stencil_weight_.resize(4 * points.size());
    for (std::size_t p = 0; p < points.size(); ++p) {
      // The solver owns the clamp/centre arithmetic (surface_stencil is the
      // one implementation); this cache merely hoists it out of the
      // per-step loop.
      solver_->surface_stencil(points[p].x, points[p].y, stencil_index_.data() + 4 * p,
                               stencil_weight_.data() + 4 * p);
    }
    stencil_points_.assign(points.begin(), points.end());
  }

  const FdmThermalSolver* solver_;
  FdmThermalSolver::Solution field_;
  mutable std::vector<SurfaceSample> stencil_points_;
  mutable std::vector<std::size_t> stencil_index_;
  mutable std::vector<double> stencil_weight_;
};

}  // namespace

FdmBackend::FdmBackend(Die die, FdmOptions opts) : solver_(die, opts) {}

FdmBackend::FdmBackend(Die die, DieStack stack, FdmOptions opts)
    : solver_(die, std::move(stack), opts) {}

std::vector<double> FdmBackend::surface_rises(const std::vector<HeatSource>& sources,
                                              std::span<const SurfaceSample> points) const {
  const auto sol = solver_.solve_steady(sources);
  ++stats_.steady_solves;
  stats_.cg_iterations += sol.cg_iterations;
  if (!sol.converged) {
    std::ostringstream os;
    os << "FdmBackend: steady solve failed: "
       << (sol.breakdown ? "CG breakdown (operator not positive definite)"
                         : "CG hit the iteration limit")
       << ", relative residual " << sol.residual << " after " << sol.cg_iterations
       << " iterations";
    throw ConvergenceError(os.str());
  }
  std::vector<double> rises(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    rises[p] = solver_.surface_rise(sol, points[p].x, points[p].y);
  }
  return rises;
}

numerics::Matrix FdmBackend::build_influence(std::span<const HeatSource> sources,
                                             std::span<const SurfaceSample> samples) const {
  return fdm_influence_columns(solver_, sources, samples, true, &stats_);
}

std::unique_ptr<SolverBackend::TransientState> FdmBackend::make_transient_state() const {
  return std::make_unique<FdmTransientState>(solver_);
}

int FdmBackend::step_transient(TransientState& state, double dt,
                               const std::vector<HeatSource>& sources) const {
  auto* fdm_state = dynamic_cast<FdmTransientState*>(&state);
  PTHERM_REQUIRE(fdm_state != nullptr && fdm_state->solver() == &solver_,
                 "FdmBackend: transient state belongs to a different backend");
  const int iterations = solver_.step_transient(fdm_state->rise(), dt, sources);
  stats_.cg_iterations += iterations;
  ++stats_.transient_steps;
  return iterations;
}

BackendCostStats FdmBackend::cost_stats() const {
  BackendCostStats stats = stats_;
  stats.transient_power_updates = solver_.transient_power_updates();
  return stats;
}

// ----------------------------------------------------------------- spectral

namespace {

/// Calls store(p, mode, value) with the basis value cos(m pi x_p / W)
/// cos(n pi y_p / H) of every point p and mode n * modes_x + m: the one
/// evaluation behind both the point-major and the mode-major table, so the
/// two layouts hold the same doubles.
template <class Store>
void for_each_mode_basis(const SpectralThermalSolver& solver,
                         std::span<const SurfaceSample> points, Store store) {
  const int mx = solver.modes_x();
  const int my = solver.modes_y();
  const Die& die = solver.die();
  std::vector<double> cosx(static_cast<std::size_t>(mx));
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (int m = 0; m < mx; ++m) {
      cosx[m] = std::cos(m * std::numbers::pi * points[p].x / die.width);
    }
    for (int n = 0; n < my; ++n) {
      const double cy = std::cos(n * std::numbers::pi * points[p].y / die.height);
      const std::size_t row = static_cast<std::size_t>(n) * mx;
      for (int m = 0; m < mx; ++m) store(p, row + m, cy * cosx[m]);
    }
  }
}

/// Spectral transient field with deferred exact stepping (see
/// SpectralBackend): the per-mode amplitudes, the pending interval of held
/// steps not yet advanced, and a cached mode-synthesis gather for the
/// batched readback. The gather is stored mode-major (modes x points) and
/// run as one pass over the modes with the points innermost: each point
/// still sums its modes in ascending order from 0.0 — bitwise the row dot
/// product of mode_basis_matrix — but the points are independent
/// accumulators, so the inner loop vectorizes instead of forming one
/// latency-bound chain. The cache is keyed by the query points; transient
/// drivers ask for the same block centres every step.
class SpectralTransientState final : public SolverBackend::TransientState {
 public:
  explicit SpectralTransientState(const SpectralThermalSolver& solver)
      : solver_(&solver), state_(solver.make_transient()) {}

  [[nodiscard]] double surface_rise(double x, double y) const override {
    settle();
    return solver_->surface_rise(state_.surface, x, y);
  }

  void surface_rises(std::span<const SurfaceSample> points,
                     std::span<double> out) const override {
    PTHERM_REQUIRE(out.size() == points.size(),
                   "TransientState::surface_rises: output size mismatch");
    settle();
    if (points.empty()) return;
    if (!gather_matches(points)) rebuild_gather(points);
    const std::size_t n = points.size();
    const std::size_t modes = state_.surface.coeff.size();
    const double* coeff = state_.surface.coeff.data();
    std::fill(out.begin(), out.end(), 0.0);
    for (std::size_t mode = 0; mode < modes; ++mode) {
      const double c = coeff[mode];
      const double* basis = gather_.data() + mode * n;
      for (std::size_t p = 0; p < n; ++p) out[p] += basis[p] * c;
    }
  }

  /// Serves one step of dt under `sources`: settles the pending interval
  /// first if the sources or the step size change, then defers the step.
  void step(double dt, const std::vector<HeatSource>& sources) {
    PTHERM_REQUIRE(dt > 0.0, "step_transient: h must be positive");
    if (!solver_->holds_transient_sources(state_, sources)) {
      settle();  // the pending steps ran under the OLD flux
      solver_->set_transient_sources(state_, sources);
    }
    if (pending_steps_ > 0 && dt != pending_h_) settle();
    pending_h_ = dt;
    ++pending_steps_;
  }

  [[nodiscard]] const SpectralThermalSolver* solver() const noexcept { return solver_; }

 private:
  /// Advances the field over the pending interval in one exact sweep.
  /// Only equal steps coalesce, so the interval is count * h with a single
  /// rounding, and the solver's decay cache (keyed by the advance length)
  /// keeps hitting when every settle covers the same run of steps.
  void settle() const {
    if (pending_steps_ == 0) return;
    TELEMETRY_SPAN("spectral/advance");
    solver_->advance_transient(state_, static_cast<double>(pending_steps_) * pending_h_);
    pending_steps_ = 0;
  }

  [[nodiscard]] bool gather_matches(std::span<const SurfaceSample> points) const {
    if (gather_points_.size() != points.size()) return false;
    for (std::size_t p = 0; p < points.size(); ++p) {
      if (gather_points_[p].x != points[p].x || gather_points_[p].y != points[p].y) {
        return false;
      }
    }
    return true;
  }

  void rebuild_gather(std::span<const SurfaceSample> points) const {
    const std::size_t n = points.size();
    gather_.assign(static_cast<std::size_t>(solver_->mode_count()) * n, 0.0);
    for_each_mode_basis(*solver_, points, [&](std::size_t p, std::size_t mode, double value) {
      gather_[mode * n + p] = value;
    });
    gather_points_.assign(points.begin(), points.end());
  }

  const SpectralThermalSolver* solver_;
  // Reads settle the pending interval, so the field mutates under const
  // queries (like the cost counters, the backend layer is not thread-safe).
  mutable SpectralThermalSolver::TransientSolution state_;
  mutable long long pending_steps_ = 0;
  double pending_h_ = 0.0;
  mutable std::vector<double> gather_;  ///< mode-major: gather_[mode * points + p]
  mutable std::vector<SurfaceSample> gather_points_;
};

/// The spectral matrix-free influence apply: fixed-geometry projection and
/// synthesis tables built once, then each apply is powers -> rank-1
/// flux-mode accumulation -> per-mode transfer -> per-sample cosine
/// synthesis, all O(n * modes) with no n x n storage anywhere. The
/// mode-space scratch inside the projection mutates under const apply (like
/// the backend cost counters, the backend layer is not thread-safe).
class SpectralInfluenceApply final : public InfluenceApply {
 public:
  SpectralInfluenceApply(const SpectralThermalSolver& solver,
                         std::span<const HeatSource> sources,
                         std::span<const SurfaceSample> samples)
      : solver_(&solver), proj_(solver.make_influence_projection(sources, samples)) {}

  [[nodiscard]] std::size_t size() const noexcept override { return proj_.count; }

  void apply_batch(std::span<const double> powers, std::span<double> rises,
                   std::size_t count) const override {
    TELEMETRY_SPAN("spectral/apply_influence");
    PTHERM_REQUIRE(powers.size() == count * proj_.count && rises.size() == count * proj_.count,
                   "InfluenceApply::apply_batch: powers/rises must have count * size() "
                   "elements");
    solver_->apply_influence(proj_, powers, rises, count);
  }

  [[nodiscard]] std::string_view kind() const noexcept override {
    return "spectral-mode-space";
  }

 private:
  const SpectralThermalSolver* solver_;
  mutable SpectralThermalSolver::InfluenceProjection proj_;
};

}  // namespace

SpectralBackend::SpectralBackend(Die die, SpectralOptions opts) : solver_(die, opts) {
  stats_.modes = solver_.mode_count();
}

SpectralBackend::SpectralBackend(Die die, DieStack stack, SpectralOptions opts)
    : solver_(die, std::move(stack), opts) {
  stats_.modes = solver_.mode_count();
}

std::unique_ptr<InfluenceApply> SpectralBackend::make_influence_apply(
    std::span<const HeatSource> sources, std::span<const SurfaceSample> samples) const {
  return std::make_unique<SpectralInfluenceApply>(solver_, sources, samples);
}

std::unique_ptr<SolverBackend::TransientState> SpectralBackend::make_transient_state() const {
  return std::make_unique<SpectralTransientState>(solver_);
}

int SpectralBackend::step_transient(TransientState& state, double dt,
                                    const std::vector<HeatSource>& sources) const {
  auto* sp_state = dynamic_cast<SpectralTransientState*>(&state);
  PTHERM_REQUIRE(sp_state != nullptr && sp_state->solver() == &solver_,
                 "SpectralBackend: transient state belongs to a different backend");
  sp_state->step(dt, sources);
  ++stats_.transient_steps;
  return 1;
}

std::vector<double> SpectralBackend::surface_rises(
    const std::vector<HeatSource>& sources, std::span<const SurfaceSample> points) const {
  const auto sol = solver_.solve_steady(sources);
  ++stats_.steady_solves;
  std::vector<double> rises(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    rises[p] = solver_.surface_rise(sol, points[p].x, points[p].y);
  }
  return rises;
}

std::vector<double> SpectralBackend::surface_rise_map(const std::vector<HeatSource>& sources,
                                                      int nx, int ny) const {
  const auto sol = solver_.solve_steady(sources);
  ++stats_.steady_solves;
  return solver_.surface_map(sol, nx, ny);
}

numerics::Matrix SpectralBackend::build_influence(
    std::span<const HeatSource> sources, std::span<const SurfaceSample> samples) const {
  return spectral_influence_columns(solver_, sources, samples, &stats_);
}

BackendCostStats SpectralBackend::cost_stats() const {
  BackendCostStats stats = stats_;
  stats.fft_calls = solver_.fft_calls();
  stats.transient_power_updates = solver_.transient_power_updates();
  stats.transient_advances = solver_.transient_advances();
  return stats;
}

numerics::Matrix mode_basis_matrix(const SpectralThermalSolver& solver,
                                   std::span<const SurfaceSample> points) {
  numerics::Matrix basis(points.size(), static_cast<std::size_t>(solver.mode_count()));
  for_each_mode_basis(solver, points, [&](std::size_t p, std::size_t mode, double value) {
    basis(p, mode) = value;
  });
  return basis;
}

// ------------------------------------------------------------ column builds

numerics::Matrix analytic_influence_columns(const Die& die,
                                            std::span<const HeatSource> sources,
                                            std::span<const SurfaceSample> samples,
                                            const ImageOptions& opts,
                                            BackendCostStats* stats) {
  const std::size_t n = sources.size();
  PTHERM_REQUIRE(n > 0, "influence: no sources");
  PTHERM_REQUIRE(samples.size() == n, "influence: need one sample per source");
  numerics::Matrix r(samples.size(), n);
  std::vector<double> column(samples.size());
  for (std::size_t j = 0; j < n; ++j) {
    // A single-source model per column evaluates only that column's mirror
    // images — superposition makes the other sources' zero-power images
    // exactly nothing — and of those only the copies within the cutoff of
    // some sample.
    std::vector<HeatSource> one = {sources[j]};
    one[0].power = 1.0;
    const ChipThermalModel model(die, std::move(one), opts);
    model.rises(samples, column);
    for (std::size_t i = 0; i < samples.size(); ++i) r(i, j) = column[i];
  }
  if (stats != nullptr) stats->influence_columns += static_cast<int>(n);
  return r;
}

numerics::Matrix fdm_influence_columns(const FdmThermalSolver& solver,
                                       std::span<const HeatSource> sources,
                                       std::span<const SurfaceSample> samples, bool warm_start,
                                       BackendCostStats* stats) {
  const std::size_t n = sources.size();
  PTHERM_REQUIRE(n > 0, "influence: no sources");
  PTHERM_REQUIRE(samples.size() == n, "influence: need one sample per source");
  numerics::Matrix r(samples.size(), n);
  std::vector<double> prev;  // previous column's converged field
  std::vector<double> x0;    // translated warm-start scratch
  double prev_cx = 0.0;
  double prev_cy = 0.0;
  const int nx = solver.nx();
  const int ny = solver.ny();
  const int nz = solver.nz();
  const double dx = solver.die().width / nx;
  const double dy = solver.die().height / ny;
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<HeatSource> one = {sources[j]};
    one[0].power = 1.0;
    const std::vector<double>* start = nullptr;
    if (warm_start && !prev.empty()) {
      // Adjacent blocks have near-identical fields up to a lateral shift, so
      // the previous column's field translated (edge-replicated) onto this
      // column's source position is a far better first iterate than the
      // unshifted field — unit-source right-hand sides are nearly disjoint,
      // which makes the plain previous iterate no better than zero.
      const int di = static_cast<int>(std::lround((sources[j].cx - prev_cx) / dx));
      const int dj = static_cast<int>(std::lround((sources[j].cy - prev_cy) / dy));
      x0.resize(prev.size());
      for (int k = 0; k < nz; ++k) {
        for (int jj = 0; jj < ny; ++jj) {
          const int sj = std::clamp(jj - dj, 0, ny - 1);
          for (int ii = 0; ii < nx; ++ii) {
            const int si = std::clamp(ii - di, 0, nx - 1);
            x0[solver.cell_index(ii, jj, k)] = prev[solver.cell_index(si, sj, k)];
          }
        }
      }
      start = &x0;
    }
    auto sol = solver.solve_steady(one, start);
    if (!sol.converged) {
      std::ostringstream os;
      os << "influence: FDM solve for column " << j << " failed: "
         << (sol.breakdown ? "CG breakdown (operator not positive definite)"
                           : "CG hit the iteration limit")
         << ", relative residual " << sol.residual << " after " << sol.cg_iterations
         << " iterations";
      PTHERM_REQUIRE(sol.converged, os.str());
    }
    if (stats != nullptr) {
      stats->cg_iterations += sol.cg_iterations;
      ++stats->influence_columns;
    }
    for (std::size_t i = 0; i < samples.size(); ++i) {
      r(i, j) = solver.surface_rise(sol, samples[i].x, samples[i].y);
    }
    prev = std::move(sol.rise);
    prev_cx = sources[j].cx;
    prev_cy = sources[j].cy;
  }
  return r;
}

numerics::Matrix spectral_influence_columns(const SpectralThermalSolver& solver,
                                            std::span<const HeatSource> sources,
                                            std::span<const SurfaceSample> samples,
                                            BackendCostStats* stats) {
  const std::size_t n = sources.size();
  PTHERM_REQUIRE(n > 0, "influence: no sources");
  PTHERM_REQUIRE(samples.size() == n, "influence: need one sample per source");
  const std::size_t modes = static_cast<std::size_t>(solver.mode_count());
  // Basis values at the samples, one row per sample, so each column build is
  // a single dense mode-space multiply.
  const numerics::Matrix basis = mode_basis_matrix(solver, samples);
  numerics::Matrix r(samples.size(), n);
  std::vector<double> coeff(modes);
  std::vector<double> column(samples.size());
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<HeatSource> one = {sources[j]};
    one[0].power = 1.0;
    std::fill(coeff.begin(), coeff.end(), 0.0);
    solver.accumulate_surface_coefficients(one, coeff);
    basis.multiply(coeff, column);
    for (std::size_t i = 0; i < samples.size(); ++i) r(i, j) = column[i];
  }
  if (stats != nullptr) {
    stats->influence_columns += static_cast<int>(n);
    stats->modes = static_cast<int>(modes);
  }
  return r;
}

}  // namespace ptherm::thermal
