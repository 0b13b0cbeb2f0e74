// steady_design: a stream of fresh steady concurrent solves, the paper's own
// use case. Each op builds an ElectroThermalSolver on a seeded floorplan and
// calls solve(), so the influence build is paid per request: it dominates
// analytic ops, while the single-vector influence apply dominates spectral
// ones. The round of requests below is fixed; the seed draws each
// floorplan's power budget and the generators' random content, so every
// seed costs about the same and runs stay comparable.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "core/cosim.hpp"
#include "floorplan/compiled_leakage.hpp"
#include "floorplan/generators.hpp"
#include "harness.hpp"
#include "netlist/cells.hpp"

namespace perfbench {

namespace {

using namespace ptherm;

enum class Gen { Grid, Hotspot, Checker, Manycore };

struct Shape {
  Gen gen;
  int a;  ///< tiles in x (grid/checker/manycore) or hotspot count
  int b;  ///< tiles in y
  core::ThermalBackend backend;
};

// 16 to 1024 blocks; the analytic backend only up to 144 blocks, where its
// O(n^2 * images) build already costs tens of milliseconds.
constexpr core::ThermalBackend kAna = core::ThermalBackend::Analytic;
constexpr core::ThermalBackend kSpe = core::ThermalBackend::Spectral;
const Shape kRound[] = {
    {Gen::Grid, 4, 4, kAna},      {Gen::Grid, 4, 4, kSpe},      {Gen::Grid, 12, 12, kAna},
    {Gen::Grid, 12, 12, kSpe},    {Gen::Hotspot, 8, 0, kAna},   {Gen::Hotspot, 8, 0, kSpe},
    {Gen::Checker, 8, 8, kAna},   {Gen::Checker, 8, 8, kSpe},   {Gen::Manycore, 3, 3, kAna},
    {Gen::Manycore, 3, 3, kSpe},  {Gen::Manycore, 6, 6, kAna},  {Gen::Manycore, 6, 6, kSpe},
    {Gen::Manycore, 16, 16, kSpe},
};

// Rounds of the fixed-work traced comparison (about 3 s per pass today).
constexpr int kTracedRounds = 15;

thermal::Die die_4mm() {
  thermal::Die d;
  d.width = 4e-3;
  d.height = 4e-3;
  d.thickness = 300e-6;
  d.k_si = 148.0;
  d.t_sink = 358.15;  // 85 C: the hot corner, where leakage feedback matters
  return d;
}

struct Request {
  floorplan::Floorplan fp;
  core::CosimOptions opts;
};

struct Pool {
  device::Technology tech = device::Technology::cmos012();
  std::vector<Request> requests;  ///< one round, in submission order
};

// The set-up a design loop pays once: the characterized cell library and the
// round's floorplans from the generators.
Pool make_pool(std::uint64_t seed) {
  Pool pool;
  floorplan::GeneratorConfig cfg;
  cfg.gates_per_mm2 = 1e7;
  cfg.library = std::make_shared<const netlist::CellLibrary>(pool.tech);
  Rng rng(seed);
  for (const Shape& s : kRound) {
    // Budgets for 20-50 K of rise over the sink on the 4 mm die.
    cfg.total_dynamic_power = rng.uniform(110.0, 150.0);
    const thermal::Die die = die_4mm();
    Request req{floorplan::Floorplan(die), {}};
    switch (s.gen) {
      case Gen::Grid:
        req.fp = floorplan::make_uniform_grid(pool.tech, die, s.a, s.b, cfg, rng);
        break;
      case Gen::Hotspot:
        cfg.total_dynamic_power = rng.uniform(30.0, 45.0);
        req.fp = floorplan::make_hotspot_map(pool.tech, die, s.a, rng.uniform(0.3, 0.4), cfg,
                                             rng);
        break;
      case Gen::Checker:
        req.fp = floorplan::make_checkerboard(pool.tech, die, s.a, s.b, cfg, rng);
        break;
      case Gen::Manycore:
        req.fp = floorplan::make_manycore(pool.tech, die, s.a, s.b, cfg, rng);
        break;
    }
    req.opts.backend = s.backend;
    pool.requests.push_back(std::move(req));
  }
  return pool;
}

/// Exit audit max_i |T_i - T_sink - (R P(T))_i| [K], through the solver's own
/// influence operator and leakage model.
double audit(const core::ElectroThermalSolver& solver, const floorplan::Floorplan& fp,
             const core::CosimResult& r) {
  const std::size_t n = fp.blocks().size();
  std::vector<double> p(n);
  std::vector<double> rise(n);
  for (std::size_t j = 0; j < n; ++j) {
    p[j] = fp.blocks()[j].p_dynamic + solver.block_leakage_power(j, r.blocks[j].temperature);
  }
  solver.influence_apply().apply(p, rise);
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    worst = std::max(worst, std::abs(r.blocks[i].temperature - fp.die().t_sink - rise[i]));
  }
  return worst;
}

// A converged damped Picard iterate with step below tol has a fixed-point
// residual below tol / damping whenever the loop gain is below 1.
double audit_bound(const core::CosimOptions& o) { return o.tol / o.damping; }

bool answer_ok(const core::ElectroThermalSolver& solver, const Request& req,
               const core::CosimResult& r, double& worst_audit) {
  const double a = audit(solver, req.fp, r);
  worst_audit = std::max(worst_audit, a);
  return r.converged && !r.runaway && a <= audit_bound(req.opts);
}

struct OpRecord {
  std::size_t request = 0;
  int iterations = 0;
};

/// Runs whole rounds until `min_busy_s` of op time (or exactly `rounds`
/// rounds when rounds > 0). Spans mark the op and its two layer calls; they
/// record only while a tracer is installed.
Phase run_rounds(const Pool& pool, double min_busy_s, int rounds,
                 std::vector<OpRecord>* records, double& worst_audit) {
  Phase ph;
  for (int round = 0; rounds > 0 ? round < rounds : ph.busy_s < min_busy_s; ++round) {
    next_cpu();
    for (std::size_t k = 0; k < pool.requests.size(); ++k) {
      const Request& req = pool.requests[k];
      std::unique_ptr<core::ElectroThermalSolver> solver;
      core::CosimResult r;
      const auto t0 = Clock::now();
      {
        TELEMETRY_SPAN("bench/op");
        {
          TELEMETRY_SPAN("bench/solver_ctor");
          solver = std::make_unique<core::ElectroThermalSolver>(pool.tech, req.fp, req.opts);
        }
        TELEMETRY_SPAN("bench/solve");
        r = solver->solve();
      }
      const double dt = seconds_between(t0, Clock::now());
      ph.busy_s += dt;
      ph.latency.add(k, dt * 1e3);
      ++ph.ops;
      const UntracedScope off_trace;
      if (!answer_ok(*solver, req, r, worst_audit)) ++ph.failed;
      if (records) records->push_back({k, r.iterations});
    }
  }
  return ph;
}

/// Per-call times of the layers solve() and the constructor call without a
/// span, measured on each request's own inputs with tracing off.
struct Calibration {
  double backend_s = 0.0;       ///< core::make_thermal_backend
  double compile_block_s = 0.0; ///< CompiledBlockLeakage, per block
  double apply_s = 0.0;         ///< InfluenceApply::apply, one vector
  double leakage_s = 0.0;       ///< block_leakage_power, per block
};

std::vector<Calibration> calibrate(const Pool& pool) {
  std::vector<Calibration> out;
  for (const Request& req : pool.requests) {
    Calibration c;
    const auto& blocks = req.fp.blocks();
    const std::size_t n = blocks.size();
    c.backend_s = per_call_s([&] { keep(core::make_thermal_backend(req.fp.die(), req.opts)); });
    c.compile_block_s = per_call_s([&] {
                          for (const auto& b : blocks) keep(floorplan::CompiledBlockLeakage(b));
                        }) / static_cast<double>(n);
    core::ElectroThermalSolver solver(pool.tech, req.fp, req.opts);
    const core::CosimResult r = solver.solve();
    std::vector<double> p(n);
    std::vector<double> rise(n);
    for (std::size_t j = 0; j < n; ++j) p[j] = blocks[j].p_dynamic + 1e-3;
    c.apply_s = per_call_s([&] { solver.influence_apply().apply(p, rise); });
    double sink = 0.0;
    c.leakage_s = per_call_s([&] {
                    for (std::size_t j = 0; j < n; ++j) {
                      sink += solver.block_leakage_power(j, r.blocks[j].temperature);
                    }
                  }) / static_cast<double>(n);
    if (!(sink > 0.0)) throw std::runtime_error("steady_design: leakage calibration read 0");
    out.push_back(c);
  }
  return out;
}

}  // namespace

RunResult run_steady_design(const Args& args) {
  RunResult result;
  Pool pool;
  const double setup_s = median_setup_s([&] { pool = make_pool(args.seed); });
  double worst_audit = 0.0;
  std::printf("steady_design: %zu requests per round, audit bound %.3g K (tol / damping)\n",
              pool.requests.size(), audit_bound(pool.requests.front().opts));

  // Warm-up round, off the clock: first-touch allocations and lazy tables.
  (void)run_rounds(pool, 0.0, 1, nullptr, worst_audit);

  if (!args.trace) {
    const Phase ph = run_rounds(pool, args.seconds, 0, nullptr, worst_audit);
    report_end_to_end(result.metrics, ph, setup_s);
    result.attempted = ph.ops;
    result.failed = ph.failed;
  } else {
    std::vector<OpRecord> records;
    const TracedPass tp = run_traced_pass(kTracedRounds, [&](bool on) {
      return run_rounds(pool, 0.0, 1, on ? &records : nullptr, worst_audit);
    });
    const Profile& prof = tp.prof;
    const std::vector<Calibration> cal = calibrate(pool);

    double backend_s = 0.0;
    double compile_s = 0.0;
    double apply_s = 0.0;
    double leakage_s = 0.0;
    long long applies = 0;
    long long evals = 0;
    for (const OpRecord& rec : records) {
      const Calibration& c = cal[rec.request];
      const auto n = static_cast<long long>(pool.requests[rec.request].fp.blocks().size());
      // solve(): one apply and n leakage evaluations per Picard iteration,
      // plus n evaluations for the exit powers.
      const long long op_evals = (rec.iterations + 1LL) * n;
      backend_s += c.backend_s;
      compile_s += c.compile_block_s * static_cast<double>(n);
      apply_s += c.apply_s * rec.iterations;
      leakage_s += c.leakage_s * static_cast<double>(op_evals);
      applies += rec.iterations;
      evals += op_evals;
    }
    Report& m = result.metrics;
    m.set("thermal.backend_setup_s", backend_s, "s");
    m.set("floorplan.compile_s", compile_s, "s");
    m.set("thermal.influence_build_s", span_total(prof, "cosim/build_influence"), "s");
    m.set("thermal.influence_builds",
          static_cast<double>(span_calls(prof, "cosim/build_influence")), "count");
    m.set("thermal.apply_s", apply_s, "s");
    m.set("thermal.applies", static_cast<double>(applies), "count");
    m.set("thermal.apply_us", 1e6 * apply_s / static_cast<double>(applies), "us");
    m.set("floorplan.leakage_evals", static_cast<double>(evals), "count");
    m.set("floorplan.leakage_eval_s", leakage_s, "s");
    m.set("core.picard_iterations", static_cast<double>(applies), "count");
    m.set("core.picard_self_s", span_total(prof, "cosim/solve") - apply_s - leakage_s, "s");
    report_trace(result, tp, args.trace_file);
  }
  std::printf("worst exit audit %.3e K (bound %.3g K)\n", worst_audit,
              audit_bound(pool.requests.front().opts));
  return result;
}

}  // namespace perfbench
