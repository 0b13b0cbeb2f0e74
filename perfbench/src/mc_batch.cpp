// mc_batch: one ScenarioBatch Monte Carlo VT0 study of 10^4 samples on a
// 36-block manycore plan, spectral backend, default InfluenceMode::Auto. The
// geometry precompute is set-up; each op of the timed phase is one scenario,
// solved inside one blocked solve_all call over the whole study. The
// influence apply here is the same layer steady_design uses, but batched, so
// a kernel tuned for one use that slows the other shows up.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "core/scenario_batch.hpp"
#include "device/variation.hpp"
#include "floorplan/compiled_leakage.hpp"
#include "floorplan/generators.hpp"
#include "harness.hpp"

namespace perfbench {

namespace {

using namespace ptherm;

constexpr int kSamples = 10000;
constexpr double kSigmaVt0 = 0.03;  // [V]
// Studies of the fixed-work traced comparison.
constexpr int kTracedStudies = 3;

struct Study {
  device::Technology tech = device::Technology::cmos012();
  floorplan::Floorplan fp{thermal::Die{}};
  core::CosimOptions opts;
  std::optional<core::ScenarioBatch> batch;
};

// The 36-block plan and solver settings of the batch speed study in bench/:
// a 12 mm die at about 1.5 W per tile, 32 x 32 modes, undamped Picard.
Study make_inputs(std::uint64_t seed) {
  Study s;
  thermal::Die die;
  die.width = 12e-3;
  die.height = 12e-3;
  die.thickness = 500e-6;
  die.t_sink = 318.15;
  Rng rng(seed);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = rng.uniform(12.0, 15.0);
  s.fp = floorplan::make_manycore(s.tech, die, 3, 3, cfg, rng);
  s.opts.backend = core::ThermalBackend::Spectral;
  s.opts.spectral.modes_x = 32;
  s.opts.spectral.modes_y = 32;
  s.opts.damping = 1.0;
  return s;
}

// The set-up the study pays once: the shared geometry precompute and the
// queued samples.
void build_batch(Study& s, std::uint64_t seed) {
  s.batch.emplace(s.tech, s.fp, s.opts);
  s.batch->add_variation_samples(device::VariationModel{kSigmaVt0}, kSamples, seed);
}

/// The exit audit of every scenario against a dense influence matrix built
/// once, outside the timed phase, from a standalone solver on the same plan.
class Auditor {
 public:
  explicit Auditor(const Study& s)
      : s_(s), ref_(s.tech, s.fp, s.opts), r_(ref_.influence_matrix()) {}

  /// max_i |T_i - T_sink - (R P(T))_i| of scenario k [K].
  double residual(std::size_t k, const core::ScenarioResult& res) {
    const auto& batch = *s_.batch;
    const std::size_t n = batch.block_count();
    const auto p_dyn = batch.scenario_powers(k);
    const auto adjust = batch.scenario_adjust(k);
    const auto& tech = batch.level_technology(batch.scenario_level(k));
    p_.resize(n);
    rise_.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      p_[j] = p_dyn[j] + core::adjusted_leakage_power(tech, ref_.compiled_leakage()[j],
                                                      res.temperatures[j], s_.opts.vb, adjust[j]);
    }
    r_.apply(p_, rise_);
    double worst = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      worst = std::max(worst, std::abs(res.temperatures[i] - s_.fp.die().t_sink - rise_[i]));
    }
    return worst;
  }

  [[nodiscard]] double bound() const { return s_.opts.tol / s_.opts.damping; }
  [[nodiscard]] const core::ElectroThermalSolver& reference() const { return ref_; }

 private:
  const Study& s_;
  core::ElectroThermalSolver ref_;
  const core::InfluenceOperator& r_;
  std::vector<double> p_;
  std::vector<double> rise_;
};

bool same_results(const std::vector<core::ScenarioResult>& a,
                  const std::vector<core::ScenarioResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k].iterations != b[k].iterations || a[k].temperatures != b[k].temperatures) {
      return false;
    }
  }
  return true;
}

/// Runs studies until `min_busy_s` of op time (or exactly `studies` when
/// studies > 0). Each study's answers are audited off the clock and must
/// equal the warm-up study's bitwise.
Phase run_studies(Study& s, Auditor& auditor, const std::vector<core::ScenarioResult>& first,
                  double min_busy_s, int studies, bool& repeatable,
                  double& worst_audit) {
  Phase ph;
  for (int i = 0; studies > 0 ? i < studies : ph.busy_s < min_busy_s; ++i) {
    next_cpu();
    std::vector<core::ScenarioResult> results;
    const auto t0 = Clock::now();
    {
      TELEMETRY_SPAN("bench/study");
      results = s.batch->solve_all();
    }
    const double dt = seconds_between(t0, Clock::now());
    ph.busy_s += dt;
    ph.ops += static_cast<long long>(results.size());
    // One blocked call serves every scenario: each scenario's latency is the
    // study's amortized time per scenario, and every study is the same
    // request, so op_p50_ms and op_p90_ms both read its mean over the run.
    ph.latency.add(0, 1e3 * dt / static_cast<double>(results.size()));
    const UntracedScope off_trace;
    for (std::size_t k = 0; k < results.size(); ++k) {
      const double a = auditor.residual(k, results[k]);
      worst_audit = std::max(worst_audit, a);
      if (!results[k].converged || results[k].runaway || a > auditor.bound()) ++ph.failed;
    }
    if (!same_results(results, first)) repeatable = false;
  }
  return ph;
}

}  // namespace

RunResult run_mc_batch(const Args& args) {
  RunResult result;
  Study s = make_inputs(args.seed);
  const double setup_s = median_setup_s([&] { build_batch(s, args.seed); });
  Auditor auditor(s);
  std::printf("mc_batch: %d samples, %zu blocks, %s influence, audit bound %.3g K\n", kSamples,
              s.batch->block_count(), s.batch->matrix_free() ? "matrix-free" : "dense",
              auditor.bound());

  // Warm-up study, off the clock; its answers are the reference the timed
  // studies must repeat bitwise.
  const std::vector<core::ScenarioResult> first = s.batch->solve_all();
  bool repeatable = true;
  double worst_audit = 0.0;

  if (!args.trace) {
    const Phase ph =
        run_studies(s, auditor, first, args.seconds, 0, repeatable, worst_audit);
    report_end_to_end(result.metrics, ph, setup_s);
    result.attempted = ph.ops;
    result.failed = ph.failed;
  } else {
    long long calls = 0;      // batched matvecs of the traced studies
    long long iters = 0;      // scenario-iterations of the traced studies
    long long scenarios = 0;  // scenarios of the traced studies
    long long saved = 0;      // scenario-iterations the masks saved
    const TracedPass tp = run_traced_pass(kTracedStudies, [&](bool on) {
      const auto before = s.batch->cost_stats();
      const Phase p = run_studies(s, auditor, first, 0.0, 1, repeatable, worst_audit);
      const auto after = s.batch->cost_stats();
      if (on) {
        calls += after.batched_matvecs - before.batched_matvecs;
        iters += after.picard_iterations_total - before.picard_iterations_total;
        scenarios += after.scenarios - before.scenarios;
        saved += after.masked_iterations_saved - before.masked_iterations_saved;
      }
      return p;
    });

    // Set-up layers, from one more set-up under its own tracer.
    Profile setup_prof;
    {
      TraceSession setup_session;
      setup_session.on();
      build_batch(s, args.seed);
      setup_session.off();
      setup_prof = profile(setup_session.events());
    }

    // Per-call calibration on this study's inputs, tracing off.
    const std::size_t n = s.fp.blocks().size();
    const core::ElectroThermalSolver& ref = auditor.reference();
    const double backend_call =
        per_call_s([&] { keep(core::make_thermal_backend(s.fp.die(), s.opts)); });
    const double compile_call = per_call_s([&] {
                                  for (const auto& b : s.fp.blocks()) {
                                    keep(floorplan::CompiledBlockLeakage(b));
                                  }
                                }) / static_cast<double>(n);
    // apply_batch cost modelled as a + b * count from one- and chunk-wide
    // calls; the exact call count and vector count then give the estimate.
    const int chunk = core::ScenarioBatchOptions{}.chunk;
    std::vector<double> p(n * static_cast<std::size_t>(chunk));
    std::vector<double> rise(p.size());
    for (std::size_t i = 0; i < p.size(); ++i) p[i] = s.fp.blocks()[i % n].p_dynamic;
    const double t1 = per_call_s([&] { ref.influence_apply().apply_batch(
                                           {p.data(), n}, {rise.data(), n}, 1); });
    const double tc = per_call_s([&] { ref.influence_apply().apply_batch(p, rise, chunk); });
    const double per_vector = (tc - t1) / (chunk - 1);
    const double per_call = t1 - per_vector;
    double sink = 0.0;
    const auto adj = s.batch->scenario_adjust(0);
    const double leak_call =
        per_call_s([&] {
          for (std::size_t j = 0; j < n; ++j) {
            sink += core::adjusted_leakage_power(s.tech, ref.compiled_leakage()[j],
                                                 first[0].temperatures[j], s.opts.vb, adj[j]);
          }
        }) / static_cast<double>(n);
    if (!(sink > 0.0)) throw std::runtime_error("mc_batch: leakage calibration read 0");

    // run_chunk evaluates n leakages per scenario-iteration plus n for the
    // exit powers of each scenario.
    const long long evals = (iters + scenarios) * static_cast<long long>(n);
    const double apply_batch_s =
        per_call * static_cast<double>(calls) + per_vector * static_cast<double>(iters);
    const double leakage_s = leak_call * static_cast<double>(evals);

    Report& m = result.metrics;
    m.set("thermal.backend_setup_s", backend_call, "s");
    m.set("floorplan.compile_s", compile_call * static_cast<double>(n), "s");
    m.set("thermal.influence_build_s", span_total(setup_prof, "cosim/build_influence"), "s");
    m.set("thermal.influence_builds",
          static_cast<double>(span_calls(setup_prof, "cosim/build_influence")), "count");
    m.set("thermal.apply_batch_s", apply_batch_s, "s");
    m.set("thermal.batched_matvecs", static_cast<double>(calls), "count");
    m.set("thermal.apply_batch_us", 1e6 * apply_batch_s / static_cast<double>(calls), "us");
    m.set("floorplan.leakage_evals", static_cast<double>(evals), "count");
    m.set("floorplan.leakage_eval_s", leakage_s, "s");
    m.set("core.picard_iterations", static_cast<double>(iters), "count");
    m.set("core.masked_iterations_saved", static_cast<double>(saved), "count");
    m.set("core.picard_self_s", span_total(tp.prof, "batch/solve_all") - apply_batch_s - leakage_s,
          "s");
    report_trace(result, tp, args.trace_file);
  }
  if (!repeatable) {
    std::printf("mc_batch: a study's answers differ from the warm-up study's\n");
    result.correct = false;
  }
  std::printf("worst exit audit %.3e K (bound %.3g K)\n", worst_audit, auditor.bound());
  return result;
}

}  // namespace perfbench
