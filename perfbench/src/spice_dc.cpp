// spice_dc: the Newton layer, which no other workload reaches. A round is
// the DC operating points of inverter chains of 1 to 40 stages, the
// cross-coupled latch at a starved iteration budget (the recovery ladder),
// and the self-heating electro-thermal DC solve through a timing
// pass-through backend. An op is one DC or ET solve; the seed sets the order
// of the round and the self-heating gate bias. Every chain length is kept,
// including those whose operating point is known to come back converged but
// off the rails, so a correctness fix shows as a drop in failures.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "device/mosfet.hpp"
#include "harness.hpp"
#include "spice/circuit.hpp"
#include "spice/dc.hpp"
#include "spice/electrothermal.hpp"
#include "thermal/backend.hpp"
#include "wrappers.hpp"

namespace perfbench {

namespace {

using namespace ptherm;
using device::MosModel;
using device::MosType;

constexpr int kMaxStages = 40;
constexpr double kRailTol = 1e-3;  // [V]
// Rounds of the fixed-work traced comparison.
constexpr int kTracedRounds = 8;

enum class Kind { Chain, Latch, SelfHeating };

struct Job {
  Kind kind = Kind::Chain;
  std::string label;
  spice::Circuit circuit;
  std::vector<spice::NodeId> stages;  ///< chain stage outputs, input side first
};

struct Bench {
  device::Technology tech = device::Technology::cmos012();
  std::vector<Job> round;  ///< in submission order
  std::optional<thermal::AnalyticImagesBackend> backend;
  std::vector<spice::DeviceFootprint> footprints;
  spice::ElectroThermalDcOptions et_opts;
  spice::DcOptions chain_opts;
  spice::DcOptions latch_opts;
};

Job inverter_chain(const device::Technology& t, int n) {
  Job job{Kind::Chain, "chain" + std::to_string(n), {}, {}};
  spice::Circuit& ckt = job.circuit;
  const auto vdd = ckt.node("vdd");
  ckt.add_vsource("VDD", vdd, spice::Circuit::ground(), t.vdd);
  auto in = ckt.node("in");
  ckt.add_vsource("VIN", in, spice::Circuit::ground(), 0.0);
  for (int i = 0; i < n; ++i) {
    const auto out = ckt.node("s" + std::to_string(i));
    ckt.add_mosfet("MN" + std::to_string(i), out, in, spice::Circuit::ground(),
                   spice::Circuit::ground(), MosModel(t, MosType::Nmos, 0.32e-6, t.l_drawn));
    ckt.add_mosfet("MP" + std::to_string(i), out, in, vdd, vdd,
                   MosModel(t, MosType::Pmos, 0.8e-6, t.l_drawn));
    job.stages.push_back(out);
    in = out;
  }
  return job;
}

spice::Circuit latch(const device::Technology& t) {
  spice::Circuit ckt;
  const double wn = 0.32e-6;
  const auto vdd = ckt.node("vdd");
  const auto q = ckt.node("q");
  const auto qb = ckt.node("qb");
  const auto gnd = spice::Circuit::ground();
  ckt.add_vsource("VDD", vdd, gnd, t.vdd);
  ckt.add_mosfet("MN1", q, qb, gnd, gnd, MosModel(t, MosType::Nmos, wn, t.l_drawn));
  ckt.add_mosfet("MP1", q, qb, vdd, vdd, MosModel(t, MosType::Pmos, 2.5 * wn, t.l_drawn));
  ckt.add_mosfet("MN2", qb, q, gnd, gnd, MosModel(t, MosType::Nmos, wn, t.l_drawn));
  ckt.add_mosfet("MP2", qb, q, vdd, vdd, MosModel(t, MosType::Pmos, 2.5 * wn, t.l_drawn));
  return ckt;
}

// One wide near-threshold NMOS on a poorly cooled 100 um die: 16 to 27 K of
// self-heating over the 0.29-0.30 V gate biases the seed draws, closed
// through the thermal backend's influence seam. Above about 0.304 V the
// fixed point runs away (flagged, not clamped), so the range stops short.
spice::Circuit self_heating(const device::Technology& t, double v_gate) {
  spice::Circuit ckt;
  const auto vdd = ckt.node("vdd");
  const auto gate = ckt.node("gate");
  ckt.add_vsource("VDD", vdd, spice::Circuit::ground(), t.vdd);
  ckt.add_vsource("VG", gate, spice::Circuit::ground(), v_gate);
  ckt.add_mosfet("MHOT", vdd, gate, spice::Circuit::ground(), spice::Circuit::ground(),
                 MosModel(t, MosType::Nmos, 200e-6, t.l_drawn));
  return ckt;
}

// The set-up a characterization run pays once: every circuit of the round and
// the thermal backend of the self-heating solve.
void make_bench(Bench& b, std::uint64_t seed) {
  Rng rng(seed);
  b.round.clear();
  for (int n = 1; n <= kMaxStages; ++n) b.round.push_back(inverter_chain(b.tech, n));
  b.round.push_back({Kind::Latch, "latch", latch(b.tech), {}});
  b.round.push_back(
      {Kind::SelfHeating, "self_heating", self_heating(b.tech, rng.uniform(0.29, 0.30)), {}});
  for (std::size_t i = b.round.size() - 1; i > 0; --i) {
    std::swap(b.round[i], b.round[rng.uniform_index(i + 1)]);
  }
  thermal::Die die;
  die.width = 100e-6;
  die.height = 100e-6;
  die.thickness = 300e-6;
  die.k_si = 4.0;
  die.t_sink = 300.0;
  b.backend.emplace(die);
  b.footprints = {{"MHOT", 50e-6, 50e-6, 10e-6, 10e-6}};
  b.et_opts.t_sink = die.t_sink;
  b.et_opts.dc.temp = die.t_sink;
  // A budget tight enough that the plain gmin ladder fails and source
  // stepping carries the solve: the full escalation path.
  b.latch_opts.max_iterations = 6;
}

/// Largest distance of a chain stage from its rail [V] (input at 0 V, so
/// even stages sit at VDD and odd stages at ground).
double rail_error(const device::Technology& t, const Job& job, const spice::DcSolution& sol) {
  double worst = 0.0;
  for (std::size_t i = 0; i < job.stages.size(); ++i) {
    const double rail = i % 2 == 0 ? t.vdd : 0.0;
    worst = std::max(worst, std::abs(sol.voltage(job.stages[i]) - rail));
  }
  return worst;
}

/// The latch has three operating points (two stable, one metastable), so its
/// check is the solver's own exit KCL audit against its residual tolerance.
bool kcl_ok(const spice::SolveReport& r, const spice::DcOptions& o) {
  return r.converged && std::abs(r.worst_residual) <= o.i_abstol + o.i_reltol * r.worst_scale;
}

struct Counters {
  long long newton = 0;
  long long rungs = 0;
  long long rungs_converged = 0;
  long long homotopy = 0;
  long long outer = 0;
  double rail_err_max = 0.0;
  double et_backend_s = 0.0;

  void add(const spice::SolveReport& r) {
    newton += r.newton_iterations;
    rungs += static_cast<long long>(r.rungs.size());
    for (const auto& rung : r.rungs) rungs_converged += rung.converged ? 1 : 0;
    homotopy += r.homotopy_steps;
  }
};

bool same(const spice::ElectroThermalDcSolution& a, const spice::ElectroThermalDcSolution& b) {
  return a.device_temperatures == b.device_temperatures && a.device_powers == b.device_powers &&
         a.outer_iterations == b.outer_iterations && a.converged == b.converged &&
         a.runaway == b.runaway && a.dc.node_voltages == b.dc.node_voltages;
}

/// Runs whole rounds until `min_busy_s` of op time (or exactly `rounds`
/// rounds when rounds > 0).
Phase run_rounds(Bench& b, double min_busy_s, int rounds, Counters& c,
                 const spice::ElectroThermalDcSolution& et_reference, bool& repeatable,
                 std::vector<std::string>* failing = nullptr) {
  Phase ph;
  for (int round = 0; rounds > 0 ? round < rounds : ph.busy_s < min_busy_s; ++round) {
    next_cpu();
    for (std::size_t k = 0; k < b.round.size(); ++k) {
      const Job& job = b.round[k];
      bool ok = false;
      const auto t0 = Clock::now();
      double dt = 0.0;
      if (job.kind == Kind::SelfHeating) {
        TimedBackend timed(*b.backend);
        spice::ElectroThermalDcSolution sol;
        {
          TELEMETRY_SPAN("bench/solve_et");
          sol = spice::solve_electrothermal_dc(job.circuit, timed, b.footprints, b.et_opts);
        }
        dt = seconds_between(t0, Clock::now());
        ok = sol.converged && !sol.runaway;
        if (!same(sol, et_reference)) repeatable = false;
        c.outer += sol.outer_iterations;
        c.et_backend_s += timed.influence_s;
      } else {
        const spice::DcOptions& opts = job.kind == Kind::Latch ? b.latch_opts : b.chain_opts;
        std::optional<spice::DcSolution> sol;
        try {
          TELEMETRY_SPAN("bench/solve_dc");
          sol = spice::solve_dc(job.circuit, opts);
        } catch (const spice::ConvergenceFailure& e) {
          c.add(e.report());
        }
        dt = seconds_between(t0, Clock::now());
        if (sol) {
          c.add(sol->report);
          if (job.kind == Kind::Chain) {
            const double err = rail_error(b.tech, job, *sol);
            c.rail_err_max = std::max(c.rail_err_max, err);
            ok = sol->converged && err <= kRailTol;
          } else {
            ok = kcl_ok(sol->report, opts);
          }
        }
      }
      ph.busy_s += dt;
      ph.latency.add(k, 1e3 * dt);
      ++ph.ops;
      if (!ok) {
        ++ph.failed;
        if (failing) failing->push_back(job.label);
      }
    }
  }
  return ph;
}

}  // namespace

RunResult run_spice_dc(const Args& args) {
  RunResult result;
  Bench b;
  const double setup_s = median_setup_s([&] { make_bench(b, args.seed); });

  // Unwrapped reference of the self-heating solve: every solve through the
  // timing backend must reproduce it bitwise.
  const auto et_job = std::find_if(b.round.begin(), b.round.end(),
                                   [](const Job& j) { return j.kind == Kind::SelfHeating; });
  const spice::ElectroThermalDcSolution et_reference =
      spice::solve_electrothermal_dc(et_job->circuit, *b.backend, b.footprints, b.et_opts);
  bool repeatable = true;
  Counters counters;

  // Warm-up round, off the clock; it also lists the answers that fail.
  std::vector<std::string> failing;
  const Phase warm = run_rounds(b, 0.0, 1, counters, et_reference, repeatable, &failing);
  std::sort(failing.begin(), failing.end(), [](const std::string& x, const std::string& y) {
    return x.size() != y.size() ? x.size() < y.size() : x < y;  // chain2 before chain11
  });
  std::printf("spice_dc: %zu ops per round, %lld fail their check; worst chain rail error "
              "%.4f V (tolerance %.0e V); failing:",
              b.round.size(), warm.failed, counters.rail_err_max, kRailTol);
  for (const auto& label : failing) std::printf(" %s", label.c_str());
  std::printf("\n");

  if (!args.trace) {
    counters = {};
    const Phase ph = run_rounds(b, args.seconds, 0, counters, et_reference, repeatable);
    report_end_to_end(result.metrics, ph, setup_s);
    result.attempted = ph.ops;
    result.failed = ph.failed;
  } else {
    counters = {};
    Counters untraced_counters;
    const TracedPass tp = run_traced_pass(kTracedRounds, [&](bool on) {
      return run_rounds(b, 0.0, 1, on ? counters : untraced_counters, et_reference, repeatable);
    });
    const double solve_dc_s = span_total(tp.prof, "bench/solve_dc");
    Report& m = result.metrics;
    m.set("spice.newton_iterations", static_cast<double>(counters.newton), "count");
    m.set("spice.rungs", static_cast<double>(counters.rungs), "count");
    m.set("spice.rungs_converged_ratio",
          static_cast<double>(counters.rungs_converged) / static_cast<double>(counters.rungs),
          "ratio");
    m.set("spice.homotopy_steps", static_cast<double>(counters.homotopy), "count");
    m.set("spice.outer_iterations", static_cast<double>(counters.outer), "count");
    m.set("spice.us_per_newton", 1e6 * solve_dc_s / static_cast<double>(counters.newton), "us");
    m.set("spice.solve_dc_s", solve_dc_s, "s");
    m.set("spice.et_backend_s", counters.et_backend_s, "s");
    m.set("spice.rail_err_max_v", counters.rail_err_max, "V");
    report_trace(result, tp, args.trace_file);
  }
  if (!repeatable) {
    std::printf("spice_dc: a wrapped self-heating solve differs from the unwrapped one\n");
    result.correct = false;
  }
  return result;
}

}  // namespace perfbench
