// Pluggable thermal-backend layer: one interface over every way this library
// can turn surface heat sources into temperature rises. The concurrent
// electro-thermal solver, the transient co-simulation, and the influence
// operator all program against `SolverBackend` instead of switching on an
// enum, so a new solver (adaptive multigrid, GPU, package RC, ...) is a
// drop-in: implement the interface, add a factory case.
//
// Capabilities:
//  * steady solve + surface-rise queries (one shared solve, many points)
//  * surface-rise maps on cell-centre grids
//  * batched influence-column builds (rise per watt, column per source)
//  * optional transient stepping (backends that can integrate in time)
//  * cost counters for the perf trajectory (CG iterations, modes, FFTs)
//
// Backends are not thread-safe: the cost counters (and the FDM transient
// cache) mutate under const calls. Use one backend instance per thread.
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "numerics/dense.hpp"
#include "thermal/fdm.hpp"
#include "thermal/images.hpp"
#include "thermal/spectral.hpp"

namespace ptherm::thermal {

// SurfaceSample (the point type every batched query below takes) lives in
// thermal/images.hpp so the spectral solver's matrix-free influence
// projections can name it without depending on this layer.

/// Cumulative cost counters since backend construction, for the perf
/// trajectory. Backends fill the fields that measure their work and leave
/// the rest zero. Every field is a `long long` counter ON PURPOSE: the
/// telemetry catalog (telemetry/counters.hpp) maps each field to a named
/// registry counter through a descriptor table and statically asserts the
/// struct is exactly that table's fields — so adding a field here without
/// naming it there fails the build instead of silently vanishing from the
/// registry, the bench JSON, and the merge paths.
struct BackendCostStats {
  long long steady_solves = 0;      ///< full-field steady solves performed
  long long influence_columns = 0;  ///< unit-source influence columns built
  long long cg_iterations = 0;      ///< total CG iterations (FDM)
  long long modes = 0;              ///< cosine modes carried (spectral)
  long long fft_calls = 0;          ///< 1-D FFT invocations (spectral)
  long long transient_steps = 0;  ///< step_transient calls served
  /// Transient steps that re-ingested CHANGED source powers (spectral: flux
  /// re-projection; FDM: source-term RHS rebuild). Epoch-driven drivers
  /// hold powers between control decisions, so this counts epochs — the gap
  /// to transient_steps is what the epoch caches saved.
  long long transient_power_updates = 0;
  /// Exact mode-space sweeps actually performed (spectral only, like
  /// `modes`). The spectral backend defers held-power steps and advances
  /// once per settle, so an epoch-driven driver pays about one per epoch.
  long long transient_advances = 0;
  // Batched scenario engine (core/scenario_batch) counters, merged in by
  // ScenarioBatch::cost_stats() on top of the backend's own fields.
  long long scenarios = 0;            ///< scenario solves completed
  long long batched_matvecs = 0;      ///< multi-RHS influence applies issued
  long long picard_iterations_total = 0;  ///< sum of per-scenario iterations
  /// Scenario-iterations the convergence masks avoided: what the blocked
  /// sweeps would have cost had every scenario run as long as the slowest
  /// one in its chunk, minus what they actually cost.
  long long masked_iterations_saved = 0;
};

/// The influence-apply seam: `rises = R * powers` as an abstract operator,
/// so the Picard fixed point can iterate without knowing whether R exists as
/// a dense matrix (analytic/FDM, and the equivalence reference) or only as a
/// mode-space procedure (the spectral matrix-free path). Implementations are
/// square: powers and rises both have `size()` elements, checked on apply.
class InfluenceApply {
 public:
  virtual ~InfluenceApply() = default;

  /// Number of sources == number of sample points.
  [[nodiscard]] virtual std::size_t size() const noexcept = 0;

  /// rises[i] = sum_j R[i][j] * powers[j] [K]; both spans must have size()
  /// elements (throws ptherm::PreconditionError otherwise). The batch of one.
  void apply(std::span<const double> powers, std::span<double> rises) const {
    apply_batch(powers, rises, 1);
  }

  /// Multi-RHS apply — what the Picard kernel issues every sweep: `count`
  /// power vectors stored contiguously (powers[k*size() + j]) into `count`
  /// rise vectors of the same layout (throws ptherm::PreconditionError
  /// unless both hold count * size() elements). Contract: vector k's rises
  /// must be BITWISE independent of `count` and of the other vectors —
  /// implementations may only reorder work across vectors (streaming shared
  /// tables once per block), never within one vector's arithmetic.
  virtual void apply_batch(std::span<const double> powers, std::span<double> rises,
                           std::size_t count) const = 0;

  /// Implementation tag for diagnostics and tests ("dense",
  /// "spectral-mode-space").
  [[nodiscard]] virtual std::string_view kind() const noexcept = 0;
};

/// The dense influence operator: InfluenceApply over a materialized square
/// matrix R[i][j] = rise at sample i per watt in source j [K/W], flat
/// row-major. What the matrix-free seam degrades to for backends whose only
/// representation IS the matrix (analytic images, FDM), what the cosim's
/// Dense mode iterates on, and the equivalence reference for the spectral
/// matrix-free path. Owns the matrix; must be square.
class DenseInfluenceApply final : public InfluenceApply {
 public:
  explicit DenseInfluenceApply(numerics::Matrix r);

  [[nodiscard]] std::size_t size() const noexcept override { return r_.rows(); }

  /// R[i][j], bounds-checked.
  [[nodiscard]] double at(std::size_t i, std::size_t j) const;

  /// Adds `resistance` [K/W] to every entry — a lumped package/heat-sink
  /// path couples every pair of blocks uniformly.
  void add_uniform(double resistance);

  /// rises = R * powers, allocation-free (the base apply) or returned.
  using InfluenceApply::apply;
  [[nodiscard]] std::vector<double> apply(std::span<const double> powers) const;

  /// One Matrix::multiply_batch, streaming R once per row for the whole
  /// block; each vector's dot products run in ascending column order,
  /// exactly as Matrix::multiply.
  void apply_batch(std::span<const double> powers, std::span<double> rises,
                   std::size_t count) const override;
  [[nodiscard]] std::string_view kind() const noexcept override { return "dense"; }

  [[nodiscard]] const numerics::Matrix& matrix() const noexcept { return r_; }

 private:
  numerics::Matrix r_;
};

class SolverBackend {
 public:
  virtual ~SolverBackend() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual const Die& die() const noexcept = 0;

  /// Steady solve for `sources`, then the surface rise at each of `points`
  /// [K above the sink]. One shared solve; per-point queries are cheap.
  [[nodiscard]] virtual std::vector<double> surface_rises(
      const std::vector<HeatSource>& sources, std::span<const SurfaceSample> points) const = 0;

  /// Steady surface-rise map on the nx x ny cell-centre grid (row-major,
  /// y outer). The default routes through surface_rises; backends with a
  /// faster map path (spectral DCT synthesis) override.
  [[nodiscard]] virtual std::vector<double> surface_rise_map(
      const std::vector<HeatSource>& sources, int nx, int ny) const;

  /// Batched influence build: entry (i, j) is the rise at samples[i] per
  /// watt in sources[j] [K/W] (source powers are ignored; each column is a
  /// unit-power solve).
  [[nodiscard]] virtual numerics::Matrix build_influence(
      std::span<const HeatSource> sources, std::span<const SurfaceSample> samples) const = 0;

  /// Matrix-free influence capability: whether make_influence_apply can
  /// serve `rises = R * powers` without materializing the dense matrix.
  /// Backends whose only representation IS the dense matrix return false;
  /// callers then build_influence instead.
  [[nodiscard]] virtual bool supports_matrix_free_influence() const noexcept { return false; }

  /// Matrix-free influence-apply operator over the given sources/samples
  /// (source powers are ignored — the caller supplies powers per apply).
  /// Only meaningful when supports_matrix_free_influence(); the default
  /// throws ptherm::PreconditionError naming the backend.
  [[nodiscard]] virtual std::unique_ptr<InfluenceApply> make_influence_apply(
      std::span<const HeatSource> sources, std::span<const SurfaceSample> samples) const;

  /// Transient capability. Backends that can integrate in time return true
  /// and implement the two methods below; the defaults throw
  /// ptherm::PreconditionError.
  [[nodiscard]] virtual bool supports_transient() const noexcept { return false; }

  /// Opaque full-resolution transient field, starting at zero rise.
  class TransientState {
   public:
    virtual ~TransientState() = default;
    [[nodiscard]] virtual double surface_rise(double x, double y) const = 0;
    /// Batched surface-rise readback into caller storage — what per-step
    /// drivers (the transient cosim's block-temperature readback) call. The
    /// default loops over surface_rise; backends with a faster gather
    /// (spectral: one mode-major synthesis pass over all points) override.
    virtual void surface_rises(std::span<const SurfaceSample> points,
                               std::span<double> out) const;
  };
  [[nodiscard]] virtual std::unique_ptr<TransientState> make_transient_state() const;

  /// Advances `state` by dt under `sources`; returns the inner-iteration
  /// count (CG iterations for FDM; 1 for spectral, whose exact mode-space
  /// update may be deferred until the field is read — see SpectralBackend).
  virtual int step_transient(TransientState& state, double dt,
                             const std::vector<HeatSource>& sources) const;

  [[nodiscard]] virtual BackendCostStats cost_stats() const = 0;
};

/// The paper's fast path: closed-form image-method evaluation
/// (thermal/images.hpp) behind the backend interface.
class AnalyticImagesBackend final : public SolverBackend {
 public:
  AnalyticImagesBackend(Die die, ImageOptions opts = {});

  [[nodiscard]] std::string_view name() const noexcept override { return "analytic"; }
  [[nodiscard]] const Die& die() const noexcept override { return die_; }
  [[nodiscard]] std::vector<double> surface_rises(
      const std::vector<HeatSource>& sources,
      std::span<const SurfaceSample> points) const override;
  [[nodiscard]] numerics::Matrix build_influence(
      std::span<const HeatSource> sources,
      std::span<const SurfaceSample> samples) const override;
  [[nodiscard]] BackendCostStats cost_stats() const override { return stats_; }

 private:
  Die die_;
  ImageOptions opts_;
  mutable BackendCostStats stats_;
};

/// The numerical reference: the 3-D finite-difference solver behind the
/// backend interface. Transient-capable via backward Euler (one implicit
/// CG solve per step).
class FdmBackend final : public SolverBackend {
 public:
  FdmBackend(Die die, FdmOptions opts = {});
  /// Layered z-grid over a die stack (thermal/stack.hpp); trivial stacks
  /// reproduce the single-die grid bitwise.
  FdmBackend(Die die, DieStack stack, FdmOptions opts = {});

  [[nodiscard]] std::string_view name() const noexcept override { return "fdm"; }
  [[nodiscard]] const Die& die() const noexcept override { return solver_.die(); }
  [[nodiscard]] std::vector<double> surface_rises(
      const std::vector<HeatSource>& sources,
      std::span<const SurfaceSample> points) const override;
  [[nodiscard]] numerics::Matrix build_influence(
      std::span<const HeatSource> sources,
      std::span<const SurfaceSample> samples) const override;
  [[nodiscard]] bool supports_transient() const noexcept override { return true; }
  [[nodiscard]] std::unique_ptr<TransientState> make_transient_state() const override;
  int step_transient(TransientState& state, double dt,
                     const std::vector<HeatSource>& sources) const override;
  [[nodiscard]] BackendCostStats cost_stats() const override;

  [[nodiscard]] const FdmThermalSolver& solver() const noexcept { return solver_; }

 private:
  FdmThermalSolver solver_;
  mutable BackendCostStats stats_;
};

/// The FFT-accelerated spectral Green's-function solver
/// (thermal/spectral.hpp) behind the backend interface. Transient-capable:
/// the per-mode exponential update is exact for piecewise-constant power —
/// no linear solve, and no dt-dependent accuracy loss — so k held-power
/// steps of h equal one advance of k*h. step_transient therefore DEFERS:
/// a step whose sources match the held ones and whose dt matches the
/// pending steps' only extends the pending interval (O(n) to compare the
/// sources). The interval is settled — one O(modes x modes_z) advance by
/// count*h, under the flux that was held over it — when the sources
/// change, when dt changes, or when the state is read (surface_rise,
/// surface_rises). dt <= 0 and degenerate sources throw at the step.
class SpectralBackend final : public SolverBackend {
 public:
  SpectralBackend(Die die, SpectralOptions opts = {});
  /// Layered transfer matrices over a die stack (thermal/stack.hpp); trivial
  /// stacks reproduce the single-die solver bitwise. The matrix-free
  /// influence path and the transient integrator both work layered.
  SpectralBackend(Die die, DieStack stack, SpectralOptions opts = {});

  [[nodiscard]] std::string_view name() const noexcept override { return "spectral"; }
  [[nodiscard]] const Die& die() const noexcept override { return solver_.die(); }
  [[nodiscard]] std::vector<double> surface_rises(
      const std::vector<HeatSource>& sources,
      std::span<const SurfaceSample> points) const override;
  [[nodiscard]] std::vector<double> surface_rise_map(const std::vector<HeatSource>& sources,
                                                     int nx, int ny) const override;
  [[nodiscard]] numerics::Matrix build_influence(
      std::span<const HeatSource> sources,
      std::span<const SurfaceSample> samples) const override;
  /// The matrix-free path: powers -> scaled rank-1 flux-mode accumulation
  /// over cached per-source projections -> per-mode surface transfer ->
  /// batched per-sample cosine synthesis. O(n * modes) per apply, never the
  /// dense n x n matrix.
  [[nodiscard]] bool supports_matrix_free_influence() const noexcept override { return true; }
  [[nodiscard]] std::unique_ptr<InfluenceApply> make_influence_apply(
      std::span<const HeatSource> sources,
      std::span<const SurfaceSample> samples) const override;
  [[nodiscard]] bool supports_transient() const noexcept override { return true; }
  [[nodiscard]] std::unique_ptr<TransientState> make_transient_state() const override;
  int step_transient(TransientState& state, double dt,
                     const std::vector<HeatSource>& sources) const override;
  [[nodiscard]] BackendCostStats cost_stats() const override;

  [[nodiscard]] const SpectralThermalSolver& solver() const noexcept { return solver_; }

 private:
  SpectralThermalSolver solver_;
  mutable BackendCostStats stats_;
};

/// The influence-apply seam for callers that take ANY backend: matrix-free
/// when the backend supports it, otherwise the dense influence build wrapped
/// in DenseInfluenceApply. Either way the caller iterates `rises = R *
/// powers` without knowing the representation (the electro-thermal SPICE
/// coupling resolves its backend through this).
[[nodiscard]] std::unique_ptr<InfluenceApply> resolve_influence_apply(
    const SolverBackend& backend, std::span<const HeatSource> sources,
    std::span<const SurfaceSample> samples);

// Batched column builders behind the backend adapters above, callable on a
// caller-owned solver (wrap the result in DenseInfluenceApply for `at()`).
// Column j is the rise at every sample per watt in source j; `stats`, when
// non-null, has the cost of this build added to it.

[[nodiscard]] numerics::Matrix analytic_influence_columns(
    const Die& die, std::span<const HeatSource> sources, std::span<const SurfaceSample> samples,
    const ImageOptions& opts, BackendCostStats* stats = nullptr);

/// Throws ptherm::PreconditionError naming the column, the failure mode (CG
/// breakdown versus iteration limit), and the residual if a column fails.
/// With `warm_start`, column j's CG starts from the previous column's field
/// translated (edge-replicated) onto this column's source position.
[[nodiscard]] numerics::Matrix fdm_influence_columns(
    const FdmThermalSolver& solver, std::span<const HeatSource> sources,
    std::span<const SurfaceSample> samples, bool warm_start,
    BackendCostStats* stats = nullptr);

/// Basis values cos(m pi x / W) cos(n pi y / H) at each point, one row per
/// point in the solver's mode order: the dense mode-synthesis operator. One
/// multiply against surface coefficients evaluates every point at once.
[[nodiscard]] numerics::Matrix mode_basis_matrix(const SpectralThermalSolver& solver,
                                                 std::span<const SurfaceSample> points);

[[nodiscard]] numerics::Matrix spectral_influence_columns(
    const SpectralThermalSolver& solver, std::span<const HeatSource> sources,
    std::span<const SurfaceSample> samples, BackendCostStats* stats = nullptr);

}  // namespace ptherm::thermal
