// Thermal influence operator: the dense block-to-block coupling R[i][j] =
// rise at sample point i per watt injected in block j [K/W] that the
// concurrent electro-thermal fixed point iterates on. Every thermal backend
// is linear in injected power, so the operator captures them exactly; it is
// precomputed once and the Picard loop then costs one dense matvec per
// iteration (flat row-major storage, no pointer chasing).
//
// Construction is batched per column by the backend layer
// (thermal/backend.hpp, SolverBackend::build_influence over the
// *_influence_columns builders):
//  * Analytic: a single-source image model per column evaluates only that
//    column's mirror images, and of those only the copies within the
//    bottom-image cutoff of some sample.
//  * FDM: one solver (one stencil assembly + one IC(0) factorization) for
//    every column, each unit-source CG warm-started from the previous
//    column's field translated onto the new source position.
//  * Spectral: one mode-space multiply per column — no linear solve at all.
// This header only gives the operator and its sample points their
// core-layer names.
#pragma once

#include <vector>

#include "floorplan/floorplan.hpp"
#include "thermal/backend.hpp"

namespace ptherm::core {

/// Surface point an influence row reports the rise at (a block centre in the
/// co-simulation use).
using InfluenceSample = thermal::SurfaceSample;

/// The dense influence operator (thermal/backend.hpp) under its core-layer
/// name.
using InfluenceOperator = thermal::DenseInfluenceApply;

/// Block centres of a floorplan — the sample points the co-simulation uses.
[[nodiscard]] std::vector<InfluenceSample> block_centre_samples(const floorplan::Floorplan& fp);

}  // namespace ptherm::core
