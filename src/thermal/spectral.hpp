// Spectral (cosine-series) Green's-function solver for the paper's die
// boundary-value problem: adiabatic sidewalls and top, isothermal heat sink
// at depth t. The adiabatic sides make cos(m pi x / W) cos(n pi y / H) the
// exact lateral eigenbasis, so the steady conduction problem diagonalizes:
// each mode has the closed-form depth profile sinh(g (t - z)) / sinh(g t)
// with g^2 = (m pi / W)^2 + (n pi / H)^2, and the surface response to a
// surface heat flux q_mn is
//     S_mn = q_mn * tanh(g t) / (k g)          (S_00 = q_00 * t / k).
// Rectangular source footprints project onto the modes analytically (sine
// antiderivatives — no quadrature, no assembly), a steady "solve" is one
// mode-space multiply, and a full surface map is synthesized by the
// hand-rolled DCT in numerics/fft.hpp in O(M log M). This is the
// Kemper-et-al. "ultrafast" formulation the influence operator wants: an
// influence column costs one mode-space multiply instead of a CG solve.
//
// The decomposition diagonalizes the TRANSIENT problem too: with the same
// adiabatic top and isothermal bottom, the z direction has the eigenbasis
// cos(gamma_p z) with gamma_p = (p + 1/2) pi / t, so each (lateral mode,
// z-mode) amplitude obeys an independent scalar ODE
//     dA/dt = -lambda A + F,   lambda = alpha (g^2 + gamma_p^2),
// whose solution under piecewise-constant power is the exact exponential
// update A <- A e^{-lambda h} + (F/lambda)(1 - e^{-lambda h}). The per-mode
// steady gains sum in closed form to the steady transfer (the identity
// sum_p 2 / (t (g^2 + gamma_p^2)) = tanh(g t) / g), so the z-truncation
// tail is carried quasi-statically and the long-time limit reproduces
// solve_steady exactly; the truncated modes have sub-microsecond time
// constants, far below any useful co-simulation step.
//
// Source-clipping policy matches the other backends: footprints are clipped
// to the die and the FULL source power deposits over the clipped rectangle;
// fully off-die sources contribute nothing; degenerate sources throw.
//
// DIE STACKS. The lateral eigenbasis only needs adiabatic sidewalls, so the
// whole machinery survives an arbitrary z-stack (thermal/stack.hpp): the
// per-mode steady transfer generalizes from tanh(g t) / (k g) to the
// transmission-line impedance recursion through the layers (each slab maps
// its load impedance as Z -> (Z + tanh(g t)/(k g)) / (1 + Z k g tanh(g t)),
// seeded with 0 at an isothermal plane or 1/h at a convective film), and
// the transient z-eigenbasis cos(gamma_p z) generalizes to the eigenmodes
// of a per-mode symmetric tridiagonal z-operator on a layered grid, solved
// with numerics/eigen.hpp and advanced by the same exact exponential
// update. The truncation-plus-discretization tail is again folded in
// quasi-statically against the EXACT (continuous) transfer, so the layered
// transient's long-time limit reproduces solve_steady to rounding for every
// mode. A stack that reduces_to the die routes onto the original closed
// forms, bitwise. When every layer shares one diffusivity k/cv, the
// z-operator's g-dependence is a scalar shift alpha g^2 I: one
// eigendecomposition serves all lateral modes.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "thermal/images.hpp"
#include "thermal/stack.hpp"

namespace ptherm::thermal {

struct SpectralOptions {
  /// Cosine modes per axis, including the DC mode. More modes sharpen source
  /// edges; the mode sum converges absolutely like 1/modes^2 away from
  /// footprint boundaries. 64 x 64 matches a 32^3 FDM reference to well
  /// under a percent at block centres.
  int modes_x = 64;
  int modes_y = 64;
  /// z-eigenfunctions per lateral mode carried explicitly by the transient
  /// integrator; the truncated tail is folded in quasi-statically (its time
  /// constants fall like 1/p^2 — mode 8 of a 350 um die settles in ~2 us).
  int modes_z = 8;
  /// z-cells of the layered modal reduction (stack constructor only): the
  /// per-lateral-mode z-operator is discretized on this many cells, split
  /// across the layers proportionally to thickness, and modes_z of its
  /// slowest eigenmodes are carried. Single-die solvers ignore it (their
  /// z-eigenbasis is closed-form).
  int layered_nz = 40;
};

class SpectralThermalSolver {
 public:
  SpectralThermalSolver(Die die, SpectralOptions opts = {});

  /// Layered constructor: the stack is authoritative for everything in z
  /// (the die supplies the lateral dimensions and the ambient temperature;
  /// its thickness/k_si/cv_si are ignored unless the stack reduces to them).
  /// A stack satisfying stack.reduces_to(die) routes onto the single-die
  /// closed forms and reproduces the legacy solver bitwise.
  SpectralThermalSolver(Die die, DieStack stack, SpectralOptions opts = {});

  /// Whether this solver runs the layered z-machinery (false: single-die
  /// closed forms, including when a trivial stack was handed in).
  [[nodiscard]] bool layered() const noexcept { return layered_; }

  /// Surface-rise mode coefficients S_mn for the given sources; coeff is
  /// modes_y-major (coeff[n * modes_x + m]).
  struct Solution {
    std::vector<double> coeff;
  };
  [[nodiscard]] Solution solve_steady(const std::vector<HeatSource>& sources) const;

  /// Surface rise at (x, y): the O(modes) cosine sum.
  [[nodiscard]] double surface_rise(const Solution& sol, double x, double y) const;

  /// Rise at depth z below surface point (x, y): per-mode depth transfer
  /// sinh(g (t - z)) / sinh(g t), evaluated in overflow-safe exponential
  /// form. Used to compare against cell-centred FDM layers without
  /// extrapolation bias. On layered stacks z spans the whole stack and the
  /// per-mode profile is the exact slab-by-slab transmission-line ratio
  /// (two-sided decaying exponentials — no sinh overflow, no cancellation).
  [[nodiscard]] double rise_at_depth(const Solution& sol, double x, double y, double z) const;

  /// Surface-rise map on the nx x ny cell-centre grid (row-major, y outer —
  /// the ChipThermalModel::surface_map convention, but rises, not absolute
  /// temperatures). Power-of-two grids go through the DCT synthesis
  /// (O(M log M)); other sizes fall back to the direct mode sum.
  [[nodiscard]] std::vector<double> surface_map(const Solution& sol, int nx, int ny) const;

  /// Projects the sources' surface heat flux onto the cosine modes and
  /// applies the per-mode surface transfer, accumulating into `coeff`
  /// (size mode_count()). The allocation-free core of solve_steady, exposed
  /// for the batched influence build.
  void accumulate_surface_coefficients(const std::vector<HeatSource>& sources,
                                       std::vector<double>& coeff) const;

  /// Cached machinery for the matrix-free influence apply `rises = R *
  /// powers`: per-source separable unit-power flux projections (the
  /// TransientSolution projection-cache idea, fixed geometry so it is built
  /// once) plus per-sample cosine synthesis tables, and mode-space scratch.
  /// Memory is O(n * modes_per_axis) — the whole point versus the O(n^2)
  /// dense matrix whose build is also O(n^2 * modes).
  struct InfluenceProjection {
    std::size_t count = 0;       ///< sources == samples count
    std::vector<double> proj_x;  ///< per-watt x flux factors, modes_x per source
    std::vector<double> proj_y;  ///< per-watt y flux factors, modes_y per source
    /// cos(m pi x_i / W), mode-major: cos_x[m * count + i].
    std::vector<double> cos_x;
    /// cos(n pi y_i / H), mode-major: cos_y[n * count + i].
    std::vector<double> cos_y;
    /// Mode-space scratch: one mode_count() block per power vector, grown
    /// on demand by apply_influence.
    std::vector<double> coeff;
    /// Synthesis scratch: one partial sum per sample.
    std::vector<double> inner;
  };

  /// Builds the influence projection for fixed source geometry and sample
  /// points (source powers are ignored; the caller supplies powers per
  /// apply). Requires one sample per source. Off-die sources project to
  /// zero; degenerate sources throw — the shared clipping policy.
  [[nodiscard]] InfluenceProjection make_influence_projection(
      std::span<const HeatSource> sources, std::span<const SurfaceSample> samples) const;

  /// rises[i] = sum_j R[i][j] * powers[j] without forming R, for `count`
  /// power vectors stored scenario-major (powers[k * proj.count + j]) into
  /// rise vectors of the same layout: accumulate the flux modes as
  /// power-scaled rank-1 updates, apply the per-mode surface transfer, then
  /// synthesize all samples in one sweep over the mode-major cosine tables.
  /// The projection factors are streamed once per source for the whole
  /// block (the mode-space accumulate becomes a small GEMM), but each
  /// vector's arithmetic keeps one fixed order, so its rises are bitwise
  /// independent of `count`.
  /// `proj` must come from this solver's make_influence_projection.
  void apply_influence(InfluenceProjection& proj, std::span<const double> powers,
                       std::span<double> rises, std::size_t count) const;

  /// Transient field in mode space: per-(lateral mode, z-mode) amplitudes
  /// plus the synthesized surface solution, and the two step caches — the
  /// per-source-geometry rectangle->mode projections (only powers change
  /// between co-simulation steps, so re-projection is a scaled rank-1
  /// accumulate) and the e^{-lambda h} decay factors keyed by the step size.
  struct TransientSolution {
    /// Surface-rise coefficients S_mn after the last step. A plain steady
    /// Solution, so surface_rise / surface_map / the influence basis all
    /// read a transient field with zero extra machinery.
    Solution surface;
    /// z-eigenmode amplitudes, lateral-mode major (amps[mode * modes_z + p]).
    std::vector<double> amps;
    /// Flux mode coefficients q_mn of the last-applied sources [W/m^2].
    std::vector<double> flux;

    // Projection cache: per-source separable footprint integrals (with the
    // c_m normalization folded in) keyed by the source's clipped geometry.
    std::vector<double> proj_x;    ///< modes_x per source
    std::vector<double> proj_y;    ///< modes_y per source
    std::vector<double> proj_key;  ///< cx, cy, w, l per cached source
    /// Last-ingested power per source: when neither powers nor geometry
    /// moved since the previous ingest, the flux modes are still valid and
    /// the whole projection pass is skipped — interior steps of a power-
    /// update epoch collapse to the pure mode-decay update.
    std::vector<double> power_key;

    // Decay cache: e^{-alpha g^2 h} and e^{-alpha gamma_p^2 h}, keyed by h
    // (the exact decay is their product — the dt-cache trick, in separable
    // form so a re-key costs modes + modes_z exponentials, not their product).
    double decay_h = 0.0;
    std::vector<double> decay_lat;
    std::vector<double> decay_z;
    /// Layered stacks only: per-(lateral mode, z-mode) decay factors keyed
    /// by decay_h — layered modal rates do not separate into lateral x z
    /// factors, so the cache is the full product grid.
    std::vector<double> decay;
  };

  /// Zero-rise transient field (everything at the sink temperature).
  [[nodiscard]] TransientSolution make_transient() const;

  /// Makes `sources` the held drive of the next advance_transient calls.
  /// Validates every source first (degenerate footprints throw
  /// ptherm::PreconditionError before any cache is touched), re-projects the
  /// per-source footprints whose geometry moved, and re-projects the flux
  /// modes when any power or geometry changed. Returns whether the flux
  /// changed (each change counts in transient_power_updates); an ingest of
  /// the held sources is a no-op.
  bool set_transient_sources(TransientSolution& state,
                             const std::vector<HeatSource>& sources) const;

  /// Whether the state's flux was projected from exactly these sources
  /// (geometry and power, compared bitwise) — set_transient_sources would
  /// then change nothing. Never throws.
  [[nodiscard]] bool holds_transient_sources(const TransientSolution& state,
                                             const std::vector<HeatSource>& sources) const;

  /// Advances the field by `h` seconds under the held flux: one exact
  /// per-mode exponential sweep over modes x modes_z amplitudes. The update
  /// is EXACT for piecewise-constant power — accuracy does not depend on h,
  /// and one call with h == k*h' equals k calls with h' to rounding — which
  /// is what lets the backend defer held-power steps and advance once.
  /// Each call counts in transient_advances.
  void advance_transient(TransientSolution& state, double h) const;

  /// set_transient_sources then advance_transient(h): one step of `h`
  /// seconds under `sources` (held constant over the step). Returns 1: one
  /// mode-space update (the generic "inner iteration" count transient
  /// drivers accumulate).
  int step_transient(TransientSolution& state, double h,
                     const std::vector<HeatSource>& sources) const;

  /// Surface rise of a transient field (delegates to the steady query on the
  /// synthesized surface coefficients).
  [[nodiscard]] double surface_rise(const TransientSolution& state, double x, double y) const {
    return surface_rise(state.surface, x, y);
  }

  /// Rise at depth z of the transient field: explicit z-modes evaluated at
  /// cos(gamma_p z), truncation tail at its quasi-static depth profile. Used
  /// for matched-depth comparison against the FDM trajectory (whose top
  /// layer reports dz/2 below the surface). Single-die solvers only — a
  /// layered field's carried z-modes live on the modal grid, not a
  /// closed-form eigenbasis, so this throws ptherm::PreconditionError on
  /// layered stacks (query the surface, or use the layered FDM backend for
  /// depth traces).
  [[nodiscard]] double rise_at_depth(const TransientSolution& state, double x, double y,
                                     double z) const;

  [[nodiscard]] int modes_x() const noexcept { return opts_.modes_x; }
  [[nodiscard]] int modes_y() const noexcept { return opts_.modes_y; }
  [[nodiscard]] int modes_z() const noexcept { return opts_.modes_z; }
  [[nodiscard]] int mode_count() const noexcept { return opts_.modes_x * opts_.modes_y; }
  /// 1-D FFT invocations performed by surface_map so far (cost counter).
  [[nodiscard]] long long fft_calls() const noexcept { return fft_calls_; }
  /// Source ingests that had to re-project changed source powers into the
  /// flux modes (cost counter): with an epoch-driven driver this counts
  /// epochs, not steps — the gap between the two is the cache's win.
  [[nodiscard]] long long transient_power_updates() const noexcept { return power_updates_; }
  /// Exact mode-space sweeps performed by advance_transient so far (cost
  /// counter): a deferring driver pays one per settle, not one per step.
  [[nodiscard]] long long transient_advances() const noexcept { return advances_; }
  [[nodiscard]] const Die& die() const noexcept { return die_; }

 private:
  /// Rebuilds the per-source projection cache entries whose geometry moved.
  void refresh_projections(TransientSolution& state,
                           const std::vector<HeatSource>& sources) const;

  /// Throws unless `state` was made by a solver of this mode configuration.
  void require_transient_layout(const TransientSolution& state) const;

  /// The single-die closed-form setup (transfer, cos(gamma_p z) eigenbasis,
  /// gains, tail) — the legacy constructor body, shared by trivial stacks.
  void init_single_die();

  /// Per-mode steady surface impedance of the layered stack: the
  /// transmission-line recursion from the boundary seed up through every
  /// layer. The single-layer isothermal case reproduces tanh(g t) / (k g)
  /// bitwise.
  [[nodiscard]] double layered_transfer(double g) const;

  /// theta(z) / theta(0) of lateral mode g at steady state, slab by slab.
  [[nodiscard]] double layered_depth_ratio(double g, double z) const;

  /// Builds lambda_/gain_/tail_ for the layered transient on first use
  /// (steady-only callers never pay for the per-mode eigensolves).
  void ensure_transient_modes() const;

  Die die_;
  SpectralOptions opts_;
  std::vector<double> transfer_;  ///< steady surface transfer per mode [K m^2 / W]
  std::vector<double> g2_;        ///< lateral eigenvalue g^2 per mode
  std::vector<double> gamma2_;    ///< z eigenvalue gamma_p^2, p < modes_z (single-die)
  /// Steady gain of z-mode p of lateral mode mn — 2 / (k t (g^2 + gamma_p^2))
  /// closed-form on a single die, u_0p^2 / lambda_p on a layered stack —
  /// lateral-mode major like TransientSolution::amps. Mutable: layered
  /// solvers fill it lazily in ensure_transient_modes().
  mutable std::vector<double> gain_;
  /// transfer_ minus the carried z-modes' gains: the quasi-static tail
  /// (truncation + discretization on layered stacks, so the long-time limit
  /// is the exact steady transfer either way).
  mutable std::vector<double> tail_;

  // Layered machinery; engaged when the stack does not reduce to the die.
  std::optional<DieStack> stack_;
  bool layered_ = false;
  std::vector<double> dz_z_;  ///< layered z-grid cell heights, surface first
  std::vector<double> k_z_;   ///< per-cell conductivity
  std::vector<double> cv_z_;  ///< per-cell volumetric heat capacity
  mutable bool transient_ready_ = false;
  mutable std::vector<double> lambda_;  ///< per-(mode, p) modal rates [1/s] (layered)

  mutable long long fft_calls_ = 0;
  mutable long long power_updates_ = 0;
  mutable long long advances_ = 0;
};

}  // namespace ptherm::thermal
