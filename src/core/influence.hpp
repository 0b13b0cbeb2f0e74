// Thermal influence operator: the dense block-to-block coupling R[i][j] =
// rise at sample point i per watt injected in block j [K/W] that the
// concurrent electro-thermal fixed point iterates on. Every thermal backend
// is linear in injected power, so the operator captures them exactly; it is
// precomputed once and the Picard loop then costs one dense matvec per
// iteration (flat row-major storage, no pointer chasing).
//
// Construction is batched per column by the backend layer
// (thermal/backend.hpp):
//  * Analytic: a single-source image model per column evaluates only that
//    column's mirror images, and of those only the copies within the
//    bottom-image cutoff of some sample.
//  * FDM: one solver (one stencil assembly + one IC(0) factorization) for
//    every column, each unit-source CG warm-started from the previous
//    column's field translated onto the new source position.
//  * Spectral: one mode-space multiply per column — no linear solve at all.
// The free builders below keep the caller-owned-solver form for benches and
// tests; `ElectroThermalSolver` itself goes through `thermal::SolverBackend`.
#pragma once

#include <span>
#include <vector>

#include "floorplan/floorplan.hpp"
#include "thermal/backend.hpp"

namespace ptherm::core {

/// Surface point an influence row reports the rise at (a block centre in the
/// co-simulation use).
using InfluenceSample = thermal::SurfaceSample;

/// Cost counters from an influence build, for the perf trajectory. All
/// fields `long long`: the telemetry catalog (telemetry/counters.hpp) binds
/// each to a named registry counter and statically asserts completeness.
struct InfluenceBuildStats {
  long long columns = 0;        ///< unit-source solves performed
  long long cg_iterations = 0;  ///< total CG iterations (FDM backend only)
  long long modes = 0;          ///< cosine modes carried (spectral backend)
  long long fft_calls = 0;      ///< 1-D FFT invocations (spectral backend)
};

/// Projection of the backend cost counters onto the influence-build view,
/// routed through the telemetry registry: the backend counters contribute
/// under their catalog names and the influence view reads the same names
/// back, so the two structs share ONE name mapping and a new backend counter
/// cannot silently go missing from `influence_build_stats()`.
[[nodiscard]] InfluenceBuildStats influence_stats_from(const thermal::BackendCostStats& cost);

/// The dense influence operator (thermal/backend.hpp) under its core-layer
/// name, which the builders below return.
using InfluenceOperator = thermal::DenseInfluenceApply;

/// Block centres of a floorplan — the sample points the co-simulation uses.
[[nodiscard]] std::vector<InfluenceSample> block_centre_samples(const floorplan::Floorplan& fp);

/// Batched analytic build: column j comes from a single-source image model
/// (only source j's images are evaluated). `sources` supplies geometry; the
/// powers are ignored (unit power per column).
[[nodiscard]] InfluenceOperator build_influence_analytic(
    const thermal::Die& die, std::vector<thermal::HeatSource> sources,
    std::span<const InfluenceSample> samples, const thermal::ImageOptions& opts = {});

/// Batched FDM build against a caller-owned solver (stencil assembled and
/// factorized once for all columns). With `warm_start`, column j's CG starts
/// from the previous column's field translated (edge-replicated) onto this
/// column's source position; pass false for the reference per-column
/// cold-start build. Throws
/// ptherm::PreconditionError naming the column, the failure mode (CG
/// breakdown versus iteration limit), and the residual if a column fails to
/// converge.
[[nodiscard]] InfluenceOperator build_influence_fdm(
    const thermal::FdmThermalSolver& solver, std::vector<thermal::HeatSource> sources,
    std::span<const InfluenceSample> samples, bool warm_start = true,
    InfluenceBuildStats* stats = nullptr);

/// Batched spectral build against a caller-owned solver: each column is one
/// analytic mode projection plus one mode-space multiply.
[[nodiscard]] InfluenceOperator build_influence_spectral(
    const thermal::SpectralThermalSolver& solver, std::vector<thermal::HeatSource> sources,
    std::span<const InfluenceSample> samples, InfluenceBuildStats* stats = nullptr);

}  // namespace ptherm::core
