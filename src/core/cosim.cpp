#include "core/cosim.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/error.hpp"
#include "common/picard.hpp"
#include "device/variation.hpp"
#include "telemetry/telemetry.hpp"

namespace ptherm::core {

std::unique_ptr<thermal::SolverBackend> make_thermal_backend(const thermal::Die& die,
                                                             const CosimOptions& opts) {
  switch (opts.backend) {
    case ThermalBackend::Analytic:
      // The image method is a closed form for the single homogeneous die; a
      // stack is only acceptable when it IS that problem.
      PTHERM_REQUIRE(!opts.stack || opts.stack->reduces_to(die),
                     "make_thermal_backend: the analytic backend needs a stack that "
                     "reduces to the die (use Fdm or Spectral for layered stacks)");
      return std::make_unique<thermal::AnalyticImagesBackend>(die, opts.images);
    case ThermalBackend::Fdm: {
      // The one convergence knob (CosimOptions::trace) reaches the inner CG
      // here, so callers never have to touch FdmOptions::cg directly.
      thermal::FdmOptions fdm = opts.fdm;
      if (opts.trace.convergence) fdm.cg.trace = true;
      if (opts.stack) return std::make_unique<thermal::FdmBackend>(die, *opts.stack, fdm);
      return std::make_unique<thermal::FdmBackend>(die, fdm);
    }
    case ThermalBackend::Spectral:
      if (opts.stack) {
        return std::make_unique<thermal::SpectralBackend>(die, *opts.stack, opts.spectral);
      }
      return std::make_unique<thermal::SpectralBackend>(die, opts.spectral);
  }
  throw PreconditionError("make_thermal_backend: unknown backend");
}

double boundary_fold_resistance(const CosimOptions& opts) {
  double r = opts.r_package;
  if (opts.stack) r += opts.stack->package_resistance();
  return r;
}

bool dense_influence_pays(std::size_t n, std::size_t modes, std::size_t scenarios) noexcept {
  // Counted costs, in multiply-adds, for n blocks and `modes` cosine modes:
  //  * dense build (spectral_influence_columns): the n x modes basis table,
  //    then per column a coefficient accumulation (~modes) and an
  //    n x modes basis multiply: ~ n * modes * (n + 2);
  //  * matrix-free vector apply (apply_influence): projection plus
  //    synthesis, ~ 2 * n * modes;
  //  * dense vector apply: n^2.
  // Each is weighted by its measured cost per counted op [ns]. Scratch
  // timings on a 4-vCPU Xeon guest (GCC 12, Release), n = 9, 36, 144, 1024
  // at 32^2 and 64^2 modes, 64-vector batched applies, three CPUs:
  //  * build 0.75-1.25 ns (the top end at n = 1024, 64^2 modes, where the
  //    basis table leaves the cache);
  //  * matrix-free apply 0.27-0.56 ns (vectorized over samples and modes);
  //  * dense apply 0.37-0.72 ns (a serial dot product per row; the top end
  //    at n = 1024, where the matrix leaves the cache).
  // The measured crossovers (build time over the per-vector saving) were
  // 10-14 scenarios at n = 9, 35-53 at n = 36, 126-233 at n = 144, 2610-3171
  // at n = 1024 with 64^2 modes, and never at n = 1024 with 32^2 modes. The
  // weights below take each range's end that favours matrix-free, so the
  // rule's crossover lies above every measured one: about 27, 93-96,
  // 370-437 and 3800 scenarios, and never once n >= 0.72 * modes.
  constexpr double kBuildNs = 1.3;
  constexpr double kMatrixFreeNs = 0.27;
  constexpr double kDenseNs = 0.75;
  const double nd = static_cast<double>(n);
  const double md = static_cast<double>(modes);
  const double build = kBuildNs * nd * md * (nd + 2.0);
  const double saved_per_apply = kMatrixFreeNs * 2.0 * nd * md - kDenseNs * nd * nd;
  return saved_per_apply > 0.0 && static_cast<double>(scenarios) * saved_per_apply > build;
}

void validate(const CosimOptions& opts) {
  validate_picard("CosimOptions", opts.damping, opts.tol, opts.max_iterations,
                  opts.runaway_rise_limit);
  PTHERM_REQUIRE(opts.r_package >= 0.0, "CosimOptions: r_package must be >= 0");
}

double adjusted_leakage_power(const device::Technology& tech,
                              const floorplan::CompiledBlockLeakage& leakage, double temp,
                              double vb, const LeakageAdjust& adj) {
  const double base = leakage.leakage_power(tech, temp, vb);
  // Nominal adjustments are bitwise transparent: exp(-0/nVT) == 1.0 exactly
  // and 1.0 * base == base, so this single expression serves both paths.
  return adj.scale * (device::leakage_multiplier(tech, adj.delta_vt0, temp) * base);
}

ElectroThermalSolver::ElectroThermalSolver(device::Technology tech, floorplan::Floorplan fp,
                                           CosimOptions opts)
    : tech_(std::move(tech)), fp_(std::move(fp)), opts_(opts) {
  PTHERM_REQUIRE(!fp_.blocks().empty(), "ElectroThermalSolver: empty floorplan");
  validate(opts_);
  compiled_leakage_.reserve(fp_.blocks().size());
  for (const auto& block : fp_.blocks()) compiled_leakage_.emplace_back(block);
  backend_ = make_thermal_backend(fp_.die(), opts_);
  build_influence();
}

void ElectroThermalSolver::build_influence() {
  // Every backend is linear in the injected power, so the influence operator
  // captures it exactly: R[i][j] = rise at block i per watt in block j. The
  // Picard loop only needs R *applied*, so matrix-free-capable backends
  // (spectral) serve the seam directly unless the Auto cost model says a
  // solve of one scenario amortizes the dense build (it never does); dense
  // construction is batched per column by the backend (thermal/backend.hpp).
  const auto modes = static_cast<std::size_t>(backend_->cost_stats().modes);
  const bool want_matrix_free =
      opts_.influence == InfluenceMode::MatrixFree ||
      (opts_.influence == InfluenceMode::Auto && backend_->supports_matrix_free_influence() &&
       !dense_influence_pays(fp_.blocks().size(), modes, 1));
  if (want_matrix_free) {
    TELEMETRY_SPAN("cosim/build_influence");
    // Forced MatrixFree on a dense-only backend throws here, naming it.
    matrix_free_ = backend_->make_influence_apply(fp_.heat_sources(tech_),
                                                  block_centre_samples(fp_));
  } else {
    (void)influence_matrix();
  }
  influence_stats_ = influence_stats_from(backend_->cost_stats());
}

bool ElectroThermalSolver::matrix_free(std::size_t scenarios) const {
  if (matrix_free_ == nullptr) return false;
  if (opts_.influence == InfluenceMode::MatrixFree) return true;
  const auto modes = static_cast<std::size_t>(backend_->cost_stats().modes);
  return !dense_influence_pays(fp_.blocks().size(), modes, scenarios);
}

const thermal::InfluenceApply& ElectroThermalSolver::influence_apply() const noexcept {
  return matrix_free_ ? static_cast<const thermal::InfluenceApply&>(*matrix_free_)
                      : *influence_;
}

const InfluenceOperator& ElectroThermalSolver::influence_matrix() const {
  if (!influence_) {
    TELEMETRY_SPAN("cosim/build_influence");
    // Built eagerly in Dense mode, lazily in matrix-free mode (for
    // diagnostics consumers, and for a batch that resolves dense). The
    // boundary resistance (r_package + stack RC network) couples every pair
    // uniformly: each watt anywhere raises the whole die by it. Matrix-free mode has no matrix to shift — the Picard
    // kernel folds the same term in, through the same helper.
    InfluenceOperator dense(
        backend_->build_influence(fp_.heat_sources(tech_), block_centre_samples(fp_)));
    const double r_fold = boundary_fold_resistance(opts_);
    if (r_fold > 0.0) dense.add_uniform(r_fold);
    influence_ = std::move(dense);
  }
  return *influence_;
}

double ElectroThermalSolver::block_leakage_power(std::size_t i, double temp) const {
  PTHERM_REQUIRE(i < compiled_leakage_.size(), "block_leakage_power: index out of range");
  const LeakageAdjust adj = adjust_.empty() ? LeakageAdjust{} : adjust_[i];
  return adjusted_leakage_power(tech_, compiled_leakage_[i], temp, opts_.vb, adj);
}

void ElectroThermalSolver::set_leakage_adjust(std::vector<LeakageAdjust> adjust) {
  PTHERM_REQUIRE(adjust.empty() || adjust.size() == fp_.blocks().size(),
                 "set_leakage_adjust: need one adjustment per block (or none)");
  adjust_ = std::move(adjust);
}

PicardShared ElectroThermalSolver::picard_shared(std::size_t scenarios) const {
  // In matrix-free mode the uniform boundary term fold * sum(P) cannot live
  // inside the operator (there is no matrix to add_uniform); the kernel
  // folds it in per iteration. Dense mode carries it in the matrix — both
  // through boundary_fold_resistance, so the modes cannot diverge.
  if (matrix_free(scenarios)) {
    return {*matrix_free_, boundary_fold_resistance(opts_), compiled_leakage_, fp_.blocks(),
            fp_.die().t_sink, opts_};
  }
  return {influence_matrix(), 0.0, compiled_leakage_, fp_.blocks(), fp_.die().t_sink, opts_};
}

CosimResult ElectroThermalSolver::solve() {
  TELEMETRY_SPAN("cosim/solve");
  const auto& blocks = fp_.blocks();
  const std::size_t n = blocks.size();
  // This floorplan as a chunk of one scenario.
  std::vector<double> p_dynamic(n);
  std::vector<double> adj_scale(n, 1.0);
  std::vector<double> adj_dvt0(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    p_dynamic[i] = blocks[i].p_dynamic;
    if (!adjust_.empty()) {
      adj_scale[i] = adjust_[i].scale;
      adj_dvt0[i] = adjust_[i].delta_vt0;
    }
  }
  const device::Technology* tech = &tech_;
  std::vector<double> exit_leakage(n);
  const ScenarioChunk chunk{p_dynamic, adj_scale, adj_dvt0, {&tech, 1}, exit_leakage};
  CosimResult result;
  ScenarioResult& scenario = result;
  solve_picard_chunk(picard_shared(), chunk, {&scenario, 1});
  result.blocks.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.blocks[i] = {result.temperatures[i], p_dynamic[i], exit_leakage[i]};
  }
  if (result.diagnostics) result.diagnostics->solver = "ElectroThermalSolver";
  return result;
}

long long solve_picard_chunk(const PicardShared& shared, const ScenarioChunk& chunk,
                             std::span<ScenarioResult> results, ScenarioBatchTrace* trace) {
  const std::size_t n = shared.leakage.size();
  const std::size_t count = results.size();
  const std::size_t cells = count * n;
  PTHERM_REQUIRE(count >= 1 && chunk.tech.size() == count && chunk.p_dynamic.size() == cells &&
                     chunk.adj_scale.size() == cells && chunk.adj_dvt0.size() == cells &&
                     (chunk.exit_leakage.empty() || chunk.exit_leakage.size() == cells),
                 "solve_picard_chunk: chunk views must hold one row per result");
  const CosimOptions& opts = shared.opts;
  const double t_sink = shared.t_sink;

  std::vector<double> temps(cells, t_sink);
  std::vector<PicardVerdict> verdicts(count, PicardVerdict(opts.tol, opts.runaway_rise_limit));
  std::vector<std::size_t> active(count);  // scenario indices, ascending
  std::iota(active.begin(), active.end(), std::size_t{0});
  std::vector<double> powers(cells);
  std::vector<double> rises(cells);

  // Power of scenario s at temperature `temp` of block j.
  const auto block_power = [&](std::size_t s, std::size_t j, double temp) {
    const LeakageAdjust adj{chunk.adj_scale[s * n + j], chunk.adj_dvt0[s * n + j]};
    return adjusted_leakage_power(*chunk.tech[s], shared.leakage[j], temp, opts.vb, adj);
  };
  const auto finalize = [&](std::size_t s) {
    ScenarioResult& res = results[s];
    const double* temp = temps.data() + s * n;
    res.temperatures.assign(temp, temp + n);
    std::size_t hottest = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double p_leak = block_power(s, i, temp[i]);
      if (!chunk.exit_leakage.empty()) chunk.exit_leakage[s * n + i] = p_leak;
      res.total_dynamic += chunk.p_dynamic[s * n + i];
      res.total_leakage += p_leak;
      res.max_temperature = std::max(res.max_temperature, temp[i]);
      if (temp[i] > temp[hottest]) hottest = i;
    }
    if (!res.converged) {
      SolveDiagnostics diag;
      diag.stage = res.runaway ? "runaway" : "max-iterations";
      diag.iterations = res.iterations;
      diag.residual = res.max_delta_last;
      diag.worst = shared.blocks[hottest].name;
      res.diagnostics = std::move(diag);
    }
  };

  long long sweeps = 0;
  for (int it = 0; it < opts.max_iterations && !active.empty(); ++it) {
    const std::size_t m = active.size();
    for (std::size_t a = 0; a < m; ++a) {
      const std::size_t s = active[a];
      const double* temp = temps.data() + s * n;
      double* p = powers.data() + a * n;
      for (std::size_t j = 0; j < n; ++j) {
        p[j] = chunk.p_dynamic[s * n + j] + block_power(s, j, temp[j]);
      }
    }
    shared.influence.apply_batch({powers.data(), m * n}, {rises.data(), m * n}, m);
    ++sweeps;
    double sweep_max_delta = 0.0;

    std::size_t keep = 0;
    for (std::size_t a = 0; a < m; ++a) {
      const std::size_t s = active[a];
      ScenarioResult& res = results[s];
      res.iterations = it + 1;
      double* temp = temps.data() + s * n;
      const double* p = powers.data() + a * n;
      double* rise = rises.data() + a * n;
      if (shared.boundary_fold > 0.0) {
        double p_total = 0.0;
        for (std::size_t j = 0; j < n; ++j) p_total += p[j];
        const double pkg_rise = shared.boundary_fold * p_total;
        for (std::size_t i = 0; i < n; ++i) rise[i] += pkg_rise;
      }
      double max_delta = 0.0;
      double max_rise = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double target = t_sink + rise[i];
        const double updated = temp[i] + opts.damping * (target - temp[i]);
        max_delta = std::max(max_delta, std::abs(updated - temp[i]));
        temp[i] = updated;
        max_rise = std::max(max_rise, temp[i] - t_sink);
      }
      res.max_delta_last = max_delta;
      if (opts.trace.convergence) res.picard_residuals.push_back(max_delta);
      sweep_max_delta = std::max(sweep_max_delta, max_delta);

      const PicardVerdict::State state = verdicts[s].observe(max_delta, max_rise);
      res.converged = state == PicardVerdict::State::Converged;
      res.runaway = state == PicardVerdict::State::Runaway;
      if (state == PicardVerdict::State::Running) {
        active[keep++] = s;  // compaction keeps ascending order
      } else {
        finalize(s);
      }
    }
    if (opts.trace.convergence && trace != nullptr) {
      trace->active_per_sweep.push_back(static_cast<long long>(m));
      trace->max_residual_per_sweep.push_back(sweep_max_delta);
    }
    active.resize(keep);
  }
  // Survivors of max_iterations: neither converged nor run away.
  for (const std::size_t s : active) finalize(s);
  return sweeps;
}

}  // namespace ptherm::core
