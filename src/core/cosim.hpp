// The paper's headline: the *concurrent* power-thermal solve. Leakage is
// exponential in temperature and temperature is set by dissipated power, so
// the two models must be solved simultaneously. This engine runs a damped
// Picard fixed point over block temperatures,
//     T_i  <-  T_sink + sum_j Rth_ij * P_j(T_j),
// where the thermal influence comes from a pluggable thermal::SolverBackend:
// the analytic image model (fast path, closed form only — the paper's
// point), the FDM reference (validation path), or the spectral
// Green's-function solver (fastest influence build; one mode-space multiply
// per column), and P_j(T) = P_dyn_j + VDD * I_off_j(T) from the compact
// leakage model. Divergence (leakage-thermal runaway) is detected and
// reported rather than hidden.
//
// The fixed point is implemented once, by solve_picard_chunk below, over a
// chunk of m >= 1 scenarios sharing one geometry precompute. A single
// ElectroThermalSolver::solve is the chunk of one; ScenarioBatch
// (core/scenario_batch.hpp) feeds it chunks of many.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/diagnostics.hpp"
#include "core/influence.hpp"
#include "floorplan/compiled_leakage.hpp"
#include "floorplan/floorplan.hpp"
#include "telemetry/telemetry.hpp"
#include "thermal/backend.hpp"

namespace ptherm::core {

/// User-facing backend selector; `make_thermal_backend` maps it (plus the
/// per-backend option structs in CosimOptions) onto a thermal::SolverBackend.
enum class ThermalBackend { Analytic, Fdm, Spectral };

/// How the Picard fixed point applies the influence operator.
///  * Auto: dense on dense-only backends. On a matrix-free-capable backend
///    (spectral) the dense_influence_pays cost model decides from the block
///    count, the mode count and the number of scenarios solved together: a
///    standalone solve (one scenario) always runs matrix-free, and a
///    ScenarioBatch large enough to amortize the dense build builds it once
///    and iterates on it.
///  * Dense: force the n x n matrix build even on a matrix-free-capable
///    backend (the equivalence reference; also what influence_matrix()
///    consumers get without a lazy rebuild).
///  * MatrixFree: require the matrix-free path at every batch size; throws
///    ptherm::PreconditionError at construction if the backend has none.
enum class InfluenceMode { Auto, Dense, MatrixFree };

/// The InfluenceMode::Auto cost model: whether building the dense n x n
/// influence matrix of a backend carrying `modes` cosine modes, then
/// applying it, is cheaper than applying the matrix-free mode-space operator
/// throughout a solve of `scenarios` scenarios (each issues at least one
/// vector apply). False whenever n >= 2 * modes (so always for modes == 0),
/// for a single scenario at every n, and for no scenarios. The counted
/// costs and the measured constants are in the definition (core/cosim.cpp).
[[nodiscard]] bool dense_influence_pays(std::size_t n, std::size_t modes,
                                        std::size_t scenarios) noexcept;

struct CosimOptions {
  ThermalBackend backend = ThermalBackend::Analytic;
  InfluenceMode influence = InfluenceMode::Auto;
  thermal::ImageOptions images;        ///< analytic backend settings
  thermal::FdmOptions fdm;             ///< FDM backend settings
  thermal::SpectralOptions spectral;   ///< spectral backend settings
  double damping = 0.7;                ///< Picard relaxation factor (0, 1]
  double tol = 1e-3;                   ///< convergence: max |dT| [K]
  int max_iterations = 200;
  double runaway_rise_limit = 400.0;   ///< rise above sink declared runaway [K]
  double vb = 0.0;                     ///< substrate (body) bias [V]
  /// Lumped package/heat-sink resistance [K/W]: adds a uniform rise
  /// R_pkg * P_total on top of the on-die spreading the thermal model
  /// resolves (the sink plane is then the package case, not the ambient).
  double r_package = 0.0;
  /// Die stack for the conduction problem (thermal/stack.hpp). Unset: the
  /// classic single-die problem from the floorplan's Die. Set: the FDM and
  /// spectral backends solve the layered stack (the analytic backend only
  /// accepts stacks that reduce to the die), and an RcNetwork boundary adds
  /// its total_resistance() to the steady boundary fold exactly like
  /// r_package (see boundary_fold_resistance) — the transient cosim is
  /// where the network's dynamics come alive.
  std::optional<thermal::DieStack> stack;
  /// Convergence-trace recording (telemetry/telemetry.hpp). With
  /// trace.convergence: CosimResult::picard_residuals records the Picard
  /// residual per iteration, and an FDM backend records its CG residual
  /// curves (FdmOptions::cg.trace is forced on). Recording only APPENDS to
  /// result vectors — the solve arithmetic is bitwise unchanged.
  telemetry::TraceOptions trace;
};

/// The ONE uniform boundary resistance [K/W] a steady cosim folds on top of
/// the conduction operator: r_package plus the stack boundary's RC-network
/// resistance (if any). Dense influence builds add it to every matrix entry
/// (DenseInfluenceApply::add_uniform); the matrix-free path folds
/// fold * sum(P) into the rises per Picard iteration. Both routes go through
/// this helper, so the two influence modes cannot drift apart — the
/// equivalence is pinned by tests.
[[nodiscard]] double boundary_fold_resistance(const CosimOptions& opts);

/// Builds the thermal backend `opts` selects, configured for `die`. The one
/// place that maps the user-facing enum onto concrete solver types — every
/// consumer (steady cosim, transient cosim, examples) goes through here, so
/// a new backend is one enum value plus one case.
[[nodiscard]] std::unique_ptr<thermal::SolverBackend> make_thermal_backend(
    const thermal::Die& die, const CosimOptions& opts);

/// Throws ptherm::PreconditionError if the Picard-iteration settings are
/// unusable (the validate_picard rule of common/picard.hpp, or r_package < 0).
void validate(const CosimOptions& opts);

/// Per-block leakage adjustment a scenario applies on top of the compiled
/// nominal model: a flat multiplier (gate-count / activity scaling) and a
/// threshold-voltage offset (process variation; leakage scales by
/// exp(-dVT0 / (n VT(T))), the Eq. (13) exponent — see device::VariationModel).
/// The defaults are bitwise transparent: scale 1 and dVT0 0 reproduce the
/// unadjusted leakage exactly, so nominal scenarios match the plain solver.
struct LeakageAdjust {
  double scale = 1.0;      ///< flat leakage multiplier
  double delta_vt0 = 0.0;  ///< threshold shift [V]
};

/// Adjusted block leakage power [W]: scale * exp(-dVT0/(n VT)) * base(T).
/// The ONE expression the Picard kernel and block_leakage_power evaluate.
[[nodiscard]] double adjusted_leakage_power(const device::Technology& tech,
                                            const floorplan::CompiledBlockLeakage& leakage,
                                            double temp, double vb,
                                            const LeakageAdjust& adj);

struct BlockState {
  double temperature = 0.0;  ///< [K]
  double p_dynamic = 0.0;    ///< [W]
  double p_leakage = 0.0;    ///< [W] at the converged temperature
  [[nodiscard]] double p_total() const noexcept { return p_dynamic + p_leakage; }
};

/// One scenario's exit state from the Picard kernel.
struct ScenarioResult {
  bool converged = false;
  bool runaway = false;
  int iterations = 0;
  double max_temperature = 0.0;  ///< hottest block [K]
  double total_dynamic = 0.0;    ///< [W]
  double total_leakage = 0.0;    ///< [W] at the exit temperatures
  double max_delta_last = 0.0;   ///< last iteration's max |dT| [K]
  std::vector<double> temperatures;  ///< per-block [K]
  /// Structured non-convergence context (common/diagnostics.hpp): set iff
  /// the solve did not converge — the solver ("ElectroThermalSolver" or
  /// "ScenarioBatch"), the stage ("runaway" or "max-iterations"; the batch
  /// prefixes "scenario k: "), the iteration count, the last max |dT| [K],
  /// and the hottest block by name.
  std::optional<SolveDiagnostics> diagnostics;
  /// With CosimOptions::trace.convergence: the Picard residual max |dT| [K]
  /// after each iteration (size() == iterations, back() == max_delta_last).
  /// Empty when tracing is off.
  std::vector<double> picard_residuals;

  [[nodiscard]] double total_power() const noexcept { return total_dynamic + total_leakage; }
};

/// A standalone solve's result: the kernel's chunk of one, plus the
/// per-block power breakdown.
struct CosimResult : ScenarioResult {
  std::vector<BlockState> blocks;
};

/// Sweep-level convergence trace (CosimOptions::trace.convergence; separate
/// from the batch cost counters so those stay registry-shaped). One
/// entry per blocked Picard sweep across all solve_all chunks, in execution
/// order: how many scenarios were still active going into the sweep, and the
/// worst Picard residual any of them produced in it.
struct ScenarioBatchTrace {
  std::vector<long long> active_per_sweep;     ///< active-mask size per sweep
  std::vector<double> max_residual_per_sweep;  ///< worst max |dT| per sweep [K]
};

/// What every scenario of a Picard chunk shares, borrowed from the
/// ElectroThermalSolver that built it (picard_shared()).
struct PicardShared {
  const thermal::InfluenceApply& influence;
  /// [K/W] folded in as fold * sum(P) per iteration in matrix-free mode; 0
  /// when the dense matrix already carries it.
  double boundary_fold;
  std::span<const floorplan::CompiledBlockLeakage> leakage;  ///< one per block
  std::span<const floorplan::Block> blocks;  ///< names for the diagnostics
  double t_sink;                             ///< [K]
  const CosimOptions& opts;
};

/// Per-scenario inputs of a chunk of m scenarios over n blocks, SoA and
/// scenario-major (row s of each m x n view is scenario s).
struct ScenarioChunk {
  std::span<const double> p_dynamic;  ///< m x n dynamic power [W]
  std::span<const double> adj_scale;  ///< m x n LeakageAdjust::scale
  std::span<const double> adj_dvt0;   ///< m x n LeakageAdjust::delta_vt0 [V]
  std::span<const device::Technology* const> tech;  ///< m leakage technologies
  /// Optional m x n output: block leakage [W] at the exit temperatures.
  std::span<double> exit_leakage = {};
};

/// THE damped Picard fixed point, for all m >= 1 scenarios of `chunk` at
/// once. Each sweep evaluates every active scenario's power (dynamic +
/// adjusted leakage), issues ONE multi-RHS influence apply, folds the
/// boundary term, takes the damped update and asks the scenario's
/// PicardVerdict (common/picard.hpp) whether it is done; finished scenarios
/// leave the active set at once. The blocking only reorders work across
/// scenarios, never within one, so a trajectory does not depend on m or on
/// its neighbours. results[s], default-constructed on entry, receives
/// scenario s (diagnostics without the solver name, which the caller sets).
/// With opts.trace.convergence the residuals are recorded, and one entry per
/// sweep goes to a non-null `trace`. Returns the number of sweeps
/// (multi-RHS applies) issued.
long long solve_picard_chunk(const PicardShared& shared, const ScenarioChunk& chunk,
                             std::span<ScenarioResult> results,
                             ScenarioBatchTrace* trace = nullptr);

/// Runs the concurrent electro-thermal fixed point on a floorplan.
/// Technology and floorplan are copied in: the solver owns everything it
/// needs and cannot dangle (callers routinely pass temporaries).
class ElectroThermalSolver {
 public:
  ElectroThermalSolver(device::Technology tech, floorplan::Floorplan fp,
                       CosimOptions opts = {});

  [[nodiscard]] CosimResult solve();

  /// Leakage power of block `i` at temperature `temp` (exposed for tests and
  /// for the runaway-analysis bench). Evaluated through the compiled per-block
  /// program (floorplan/compiled_leakage.hpp) — bitwise equal to the Block
  /// walk, allocation-free — times the block's LeakageAdjust if one is set.
  [[nodiscard]] double block_leakage_power(std::size_t i, double temp) const;

  /// Installs per-block leakage adjustments (one per block; empty clears).
  /// This is how a single solver reproduces one scenario of a ScenarioBatch.
  void set_leakage_adjust(std::vector<LeakageAdjust> adjust);

  /// The influence-apply seam the Picard loop iterates through: dense in
  /// Dense mode (and on dense-only backends), the backend's matrix-free
  /// operator otherwise. In matrix-free mode the boundary fold (r_package +
  /// stack RC resistance) is NOT inside the operator — the Picard kernel
  /// folds it in as boundary_fold_resistance(opts) * sum(P).
  [[nodiscard]] const thermal::InfluenceApply& influence_apply() const noexcept;

  /// The shared inputs solve_picard_chunk needs for a solve of `scenarios`
  /// scenarios, borrowed from this solver: how ScenarioBatch runs its chunks
  /// against this precompute. The operator is the one matrix_free(scenarios)
  /// names; when Auto resolves dense on a matrix-free solver it is
  /// influence_matrix() (built on first use, then cached) with fold 0 —
  /// exactly what InfluenceMode::Dense iterates on.
  [[nodiscard]] PicardShared picard_shared(std::size_t scenarios = 1) const;

  /// Whether a solve of `scenarios` scenarios runs matrix-free: the resolved
  /// mode (a forced mode, or the dense_influence_pays rule under Auto).
  /// solve() is the solve of one scenario.
  [[nodiscard]] bool matrix_free(std::size_t scenarios = 1) const;

  /// Thermal influence operator R[i][j] = rise at block i's centre per watt
  /// in block j [K/W] including r_package, as realised by the configured
  /// backend. Exposed because the runaway criterion (spectral condition
  /// R * dP/dT < 1) is an ablation bench.
  /// In matrix-free mode the dense matrix is realised lazily on first call
  /// (under the cosim/build_influence span, like an eager build) — a
  /// diagnostic escape hatch, and the operator of a batch that resolves
  /// dense (picard_shared); a standalone solve never pays it.
  [[nodiscard]] const InfluenceOperator& influence_matrix() const;

  /// The thermal backend this solver built R from — reusable for field maps
  /// of the converged power state (see examples/hotspot_analysis.cpp). Its
  /// cost_stats() are the live influence-build counters (columns, FDM CG
  /// iterations, spectral modes/FFTs), a lazy dense build included.
  [[nodiscard]] const thermal::SolverBackend& backend() const noexcept { return *backend_; }

  /// Compiled per-block leakage programs, one per block. ScenarioBatch
  /// evaluates per-scenario leakage through these same programs, so the two
  /// paths share one compilation (and cannot diverge).
  [[nodiscard]] const std::vector<floorplan::CompiledBlockLeakage>& compiled_leakage()
      const noexcept {
    return compiled_leakage_;
  }

 private:
  void build_influence();

  device::Technology tech_;
  floorplan::Floorplan fp_;
  CosimOptions opts_;
  /// Compiled leakage programs, one per block (see block_leakage_power).
  std::vector<floorplan::CompiledBlockLeakage> compiled_leakage_;
  /// Per-block scenario adjustments; empty means nominal.
  std::vector<LeakageAdjust> adjust_;
  std::unique_ptr<thermal::SolverBackend> backend_;
  /// Matrix-free operator (set iff the resolved mode is matrix-free).
  std::unique_ptr<thermal::InfluenceApply> matrix_free_;
  /// Dense operator: built eagerly in dense mode, lazily by
  /// influence_matrix() in matrix-free mode (mutable: realization is a
  /// cache, not observable state).
  mutable std::optional<InfluenceOperator> influence_;
};

}  // namespace ptherm::core
