// Telemetry-layer tests: span tracer semantics (nesting, the event cap,
// thread safety, the disabled no-op path), the Chrome trace-event JSON
// golden format, the metrics registry (counters/gauges/histograms, merge,
// JSONL/CSV dumps), the counter catalog round trips, and — most load-bearing
// — the repo-wide contract that tracing only APPENDS: traced and untraced
// solves must be bitwise identical on every backend (cosim, transient, RTM,
// batch, SPICE), and every convergence trace's length must equal the
// iteration count the result already reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/cosim.hpp"
#include "core/scenario_batch.hpp"
#include "core/transient.hpp"
#include "floorplan/generators.hpp"
#include "rtm/actuator.hpp"
#include "rtm/policy.hpp"
#include "rtm/simulator.hpp"
#include "rtm/trace.hpp"
#include "spice/circuit.hpp"
#include "spice/dc.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/telemetry.hpp"

namespace ptherm {
namespace {

using device::MosModel;
using device::MosType;
using device::Technology;

Technology tech() { return Technology::cmos012(); }

thermal::Die die_1mm() {
  thermal::Die d;
  d.width = 1e-3;
  d.height = 1e-3;
  d.thickness = 350e-6;
  d.k_si = 148.0;
  d.t_sink = 318.15;
  return d;
}

floorplan::Floorplan small_plan(double p_total = 2.0) {
  Rng rng(21);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = p_total;
  cfg.gates_per_mm2 = 50e3;
  return floorplan::make_uniform_grid(tech(), die_1mm(), 3, 3, cfg, rng);
}

/// Installs a Tracer for the enclosing scope and guarantees uninstallation
/// even when an assertion throws, so one test cannot leak a dangling sink
/// into the next.
class ScopedTracer {
 public:
  explicit ScopedTracer(std::size_t max_events = telemetry::Tracer::kDefaultMaxEvents)
      : tracer_(max_events) {
    telemetry::set_tracer(&tracer_);
  }
  ~ScopedTracer() { telemetry::set_tracer(nullptr); }
  ScopedTracer(const ScopedTracer&) = delete;
  ScopedTracer& operator=(const ScopedTracer&) = delete;

  [[nodiscard]] telemetry::Tracer& tracer() { return tracer_; }

 private:
  telemetry::Tracer tracer_;
};

// ------------------------------------------------------------- span tracer

TEST(SpanTracer, RecordsNestedSpansInnermostFirst) {
  ScopedTracer scoped;
  {
    TELEMETRY_SPAN("outer");
    {
      TELEMETRY_SPAN("inner");
    }
  }
  const auto events = scoped.tracer().events();
  ASSERT_EQ(events.size(), 2u);
  // Spans record at destruction, so the inner scope closes first.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "outer");
  // Containment: the outer span starts no later and ends no earlier.
  EXPECT_LE(events[1].start_ns, events[0].start_ns);
  EXPECT_GE(events[1].start_ns + events[1].duration_ns,
            events[0].start_ns + events[0].duration_ns);
  EXPECT_GE(events[0].duration_ns, 0);
  EXPECT_GE(events[1].duration_ns, 0);
}

TEST(SpanTracer, NoTracerMeansNoRecording) {
  // No tracer installed: the macro must be a pure no-op (this is the
  // disabled fast path production runs take).
  ASSERT_EQ(telemetry::tracer(), nullptr);
  { TELEMETRY_SPAN("unobserved"); }
  // Install one afterwards and confirm nothing was buffered anywhere.
  ScopedTracer scoped;
  EXPECT_EQ(scoped.tracer().event_count(), 0u);
}

TEST(SpanTracer, TracerInstalledMidSpanDoesNotTearTheSpan) {
  // The Span captures the sink at entry; installing a tracer while a span is
  // open must not record a half-observed event.
  telemetry::Tracer late;
  {
    TELEMETRY_SPAN("opened_before_install");
    telemetry::set_tracer(&late);
  }
  telemetry::set_tracer(nullptr);
  EXPECT_EQ(late.event_count(), 0u);
}

TEST(SpanTracer, CapCountsDroppedEventsInsteadOfGrowing) {
  ScopedTracer scoped(/*max_events=*/3);
  for (int i = 0; i < 5; ++i) {
    TELEMETRY_SPAN("capped");
  }
  EXPECT_EQ(scoped.tracer().event_count(), 3u);
  EXPECT_EQ(scoped.tracer().dropped_events(), 2u);
  scoped.tracer().clear();
  EXPECT_EQ(scoped.tracer().event_count(), 0u);
  EXPECT_EQ(scoped.tracer().dropped_events(), 0u);
}

TEST(SpanTracer, ConcurrentSpansFromManyThreadsAllLand) {
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 500;
  ScopedTracer scoped;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        TELEMETRY_SPAN("worker");
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto events = scoped.tracer().events();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(scoped.tracer().dropped_events(), 0u);
  // Thread ids are dense: the recording threads use at most kThreads
  // distinct ids (the main thread recorded nothing here).
  std::vector<std::uint32_t> tids;
  for (const auto& e : events) tids.push_back(e.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
}

// ------------------------------------------------------------ chrome trace

TEST(ChromeTrace, EmptyTraceIsAValidDocument) {
  EXPECT_EQ(telemetry::chrome_trace_json({}),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}\n");
}

TEST(ChromeTrace, GoldenJsonIsByteExact) {
  // Pins the export format: "X" complete events, integer-nanosecond-exact
  // decimal microseconds, JSON-escaped names, fixed key order.
  const std::vector<telemetry::SpanEvent> events = {
      {"cosim/solve", 0, 1500, 250},   // ts 1.5 us, dur 0.25 us
      {"a\"b\\c", 1, 0, 1000},         // escaping; dur exactly 1 us
      {"neg", 2, -2750, 3},            // pre-epoch-offset start; 3 ns
  };
  EXPECT_EQ(telemetry::chrome_trace_json(events),
            "{\"traceEvents\":["
            "{\"name\":\"cosim/solve\",\"cat\":\"ptherm\",\"ph\":\"X\",\"pid\":1,"
            "\"tid\":0,\"ts\":1.5,\"dur\":0.25},"
            "{\"name\":\"a\\\"b\\\\c\",\"cat\":\"ptherm\",\"ph\":\"X\",\"pid\":1,"
            "\"tid\":1,\"ts\":0,\"dur\":1},"
            "{\"name\":\"neg\",\"cat\":\"ptherm\",\"ph\":\"X\",\"pid\":1,"
            "\"tid\":2,\"ts\":-2.75,\"dur\":0.003}"
            "],\"displayTimeUnit\":\"ms\"}\n");
}

// ---------------------------------------------------------------- registry

TEST(Registry, CountersAccumulateGaugesOverwrite) {
  telemetry::Registry reg;
  reg.add("backend/cg_iterations", 7);
  reg.add("backend/cg_iterations", 5);
  reg.set_gauge("bench/wall_s", 1.5);
  reg.set_gauge("bench/wall_s", 2.5);
  EXPECT_EQ(reg.counter("backend/cg_iterations"), 12);
  EXPECT_EQ(reg.counter("never/written"), 0);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("bench/wall_s"), 2.5);
}

TEST(Registry, HistogramsKeepStreamingSummary) {
  telemetry::Registry reg;
  reg.observe("picard/residual", 4.0);
  reg.observe("picard/residual", 1.0);
  reg.observe("picard/residual", 2.5);
  const auto snap = reg.snapshot();
  const auto& h = snap.histograms.at("picard/residual");
  EXPECT_EQ(h.count, 3);
  EXPECT_DOUBLE_EQ(h.sum, 7.5);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 4.0);
}

TEST(Registry, MergeAccumulatesCountersAndHistograms) {
  telemetry::Registry a;
  a.add("c", 2);
  a.set_gauge("g", 1.0);
  a.observe("h", 1.0);
  telemetry::Registry b;
  b.add("c", 3);
  b.add("only_b", 4);
  b.set_gauge("g", 9.0);
  b.observe("h", 5.0);
  a.merge(b.snapshot());
  const auto snap = a.snapshot();
  EXPECT_EQ(snap.counters.at("c"), 5);
  EXPECT_EQ(snap.counters.at("only_b"), 4);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g"), 9.0);  // gauges: last writer wins
  EXPECT_EQ(snap.histograms.at("h").count, 2);
  EXPECT_DOUBLE_EQ(snap.histograms.at("h").sum, 6.0);
  EXPECT_DOUBLE_EQ(snap.histograms.at("h").min, 1.0);
  EXPECT_DOUBLE_EQ(snap.histograms.at("h").max, 5.0);
}

TEST(Registry, JsonlAndCsvDumpsAreDeterministic) {
  telemetry::Registry reg;
  reg.add("backend/cg_iterations", 42);
  reg.add("backend/fft_calls", 7);
  reg.set_gauge("bench/wall_s", 0.5);
  reg.observe("picard/residual", 2.0);
  reg.observe("picard/residual", 0.25);
  const auto snap = reg.snapshot();

  std::ostringstream jsonl;
  telemetry::write_jsonl(jsonl, snap);
  EXPECT_EQ(jsonl.str(),
            "{\"metric\":\"backend/cg_iterations\",\"kind\":\"counter\",\"value\":42}\n"
            "{\"metric\":\"backend/fft_calls\",\"kind\":\"counter\",\"value\":7}\n"
            "{\"metric\":\"bench/wall_s\",\"kind\":\"gauge\",\"value\":0.5}\n"
            "{\"metric\":\"picard/residual\",\"kind\":\"histogram\",\"count\":2,"
            "\"sum\":2.25,\"min\":0.25,\"max\":2}\n");

  std::ostringstream csv;
  telemetry::write_csv(csv, snap);
  EXPECT_EQ(csv.str(),
            "metric,kind,value,count,sum,min,max\n"
            "backend/cg_iterations,counter,42,,,,\n"
            "backend/fft_calls,counter,7,,,,\n"
            "bench/wall_s,gauge,0.5,,,,\n"
            "picard/residual,histogram,,2,2.25,0.25,2\n");
}

// ---------------------------------------------------------- counter catalog

thermal::BackendCostStats distinct_stats(long long base) {
  thermal::BackendCostStats s;
  s.steady_solves = base + 1;
  s.influence_columns = base + 2;
  s.cg_iterations = base + 3;
  s.modes = base + 4;
  s.fft_calls = base + 5;
  s.transient_steps = base + 6;
  s.transient_power_updates = base + 7;
  s.scenarios = base + 8;
  s.batched_matvecs = base + 9;
  s.picard_iterations_total = base + 10;
  s.masked_iterations_saved = base + 11;
  return s;
}

TEST(CounterCatalog, BackendStatsRoundTripExactly) {
  telemetry::Registry reg;
  telemetry::contribute(reg, distinct_stats(100));
  const auto back = telemetry::backend_cost_from(reg);
  const auto want = distinct_stats(100);
  for (const auto& field : telemetry::backend_counter_fields()) {
    EXPECT_EQ(back.*(field.member), want.*(field.member)) << field.name;
  }
}

TEST(CounterCatalog, MergingIsContributeTwice) {
  // The unified merge rule every former hand-copied field list now routes
  // through: two contributes into one registry IS the field-complete sum.
  telemetry::Registry reg;
  telemetry::contribute(reg, distinct_stats(0));
  telemetry::contribute(reg, distinct_stats(1000));
  const auto merged = telemetry::backend_cost_from(reg);
  const auto a = distinct_stats(0);
  const auto b = distinct_stats(1000);
  for (const auto& field : telemetry::backend_counter_fields()) {
    EXPECT_EQ(merged.*(field.member), a.*(field.member) + b.*(field.member)) << field.name;
  }
}

TEST(CounterCatalog, InfluenceViewProjectsBackendNames) {
  telemetry::Registry reg;
  telemetry::contribute(reg, distinct_stats(50));
  const auto view = telemetry::influence_build_from(reg);
  const auto src = distinct_stats(50);
  EXPECT_EQ(view.columns, src.influence_columns);
  EXPECT_EQ(view.cg_iterations, src.cg_iterations);
  EXPECT_EQ(view.modes, src.modes);
  EXPECT_EQ(view.fft_calls, src.fft_calls);
}

TEST(CounterCatalog, BatchStatsShareTheBackendNames) {
  core::ScenarioBatchStats batch;
  batch.scenarios = 3;
  batch.batched_matvecs = 17;
  batch.picard_iterations_total = 90;
  batch.masked_iterations_saved = 12;
  telemetry::Registry reg;
  telemetry::contribute(reg, batch);
  EXPECT_EQ(reg.counter("backend/scenarios"), 3);
  EXPECT_EQ(reg.counter("backend/batched_matvecs"), 17);
  EXPECT_EQ(reg.counter("backend/picard_iterations_total"), 90);
  EXPECT_EQ(reg.counter("backend/masked_iterations_saved"), 12);
}

TEST(CounterCatalog, SpiceReportContributesUnderSpicePrefix) {
  spice::SolveReport report;
  report.newton_iterations = 23;
  report.homotopy_steps = 4;
  report.rungs.resize(5);
  report.cold_restart = true;
  telemetry::Registry reg;
  telemetry::contribute(reg, report);
  EXPECT_EQ(reg.counter("spice/newton_iterations"), 23);
  EXPECT_EQ(reg.counter("spice/homotopy_steps"), 4);
  EXPECT_EQ(reg.counter("spice/rungs"), 5);
  EXPECT_EQ(reg.counter("spice/cold_restarts"), 1);
}

TEST(CounterCatalog, GuardedNamesCoverTheBenchContract) {
  // compare_bench.py guards exactly these; the catalog is the one source.
  const auto names = telemetry::guarded_counter_names();
  const auto has = [&](const char* n) {
    return std::find(names.begin(), names.end(), n) != names.end();
  };
  EXPECT_TRUE(has("cg_iterations"));
  EXPECT_TRUE(has("fft_calls"));
  EXPECT_TRUE(has("transient_steps"));
  EXPECT_TRUE(has("batched_matvecs"));
  EXPECT_TRUE(has("picard_iterations_total"));
  EXPECT_TRUE(has("picard_iterations"));
  EXPECT_TRUE(has("newton_iterations"));
  EXPECT_TRUE(has("homotopy_steps"));
  EXPECT_TRUE(has("outer_iterations"));
  EXPECT_FALSE(has("steady_solves"));  // work-description counter, not effort
}

// --------------------------------------- convergence traces: steady cosim

class CosimTraceBackends : public ::testing::TestWithParam<core::ThermalBackend> {};

TEST_P(CosimTraceBackends, TracingIsBitwiseTransparentAndSized) {
  core::CosimOptions plain;
  plain.backend = GetParam();
  plain.fdm.nx = 12;
  plain.fdm.ny = 12;
  plain.fdm.nz = 6;
  core::CosimOptions traced = plain;
  traced.trace.convergence = true;

  core::ElectroThermalSolver a(tech(), small_plan(), plain);
  const auto ra = a.solve();

  // Spans on as well: neither telemetry knob may touch the numerics. The
  // solver is constructed under the tracer so the constructor's
  // influence-build span is observed too.
  ScopedTracer scoped;
  core::ElectroThermalSolver b(tech(), small_plan(), traced);
  const auto rb = b.solve();

  ASSERT_TRUE(ra.converged && rb.converged);
  EXPECT_EQ(ra.iterations, rb.iterations);
  EXPECT_EQ(ra.max_delta_last, rb.max_delta_last);
  ASSERT_EQ(ra.blocks.size(), rb.blocks.size());
  for (std::size_t i = 0; i < ra.blocks.size(); ++i) {
    EXPECT_EQ(ra.blocks[i].temperature, rb.blocks[i].temperature) << "block " << i;
    EXPECT_EQ(ra.blocks[i].p_leakage, rb.blocks[i].p_leakage) << "block " << i;
  }

  // The trace sizes to the iteration count the result already reports.
  EXPECT_TRUE(ra.picard_residuals.empty());
  ASSERT_EQ(rb.picard_residuals.size(), static_cast<std::size_t>(rb.iterations));
  EXPECT_EQ(rb.picard_residuals.back(), rb.max_delta_last);
  // Residuals are positive and the last one is under tolerance.
  for (const double r : rb.picard_residuals) EXPECT_GT(r, 0.0);
  EXPECT_LT(rb.picard_residuals.back(), plain.tol);

  // The traced solve emitted cosim spans.
  const auto events = scoped.tracer().events();
  const auto named = [&](const char* want) {
    return std::any_of(events.begin(), events.end(), [&](const telemetry::SpanEvent& e) {
      return std::string_view(e.name) == want;
    });
  };
  EXPECT_TRUE(named("cosim/solve"));
  EXPECT_TRUE(named("cosim/build_influence"));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, CosimTraceBackends,
                         ::testing::Values(core::ThermalBackend::Analytic,
                                           core::ThermalBackend::Fdm,
                                           core::ThermalBackend::Spectral));

// ------------------------------------------ convergence traces: transient

TEST(TransientTrace, StepIterationsSumToTotalAndNumericsMatch) {
  const auto fp = [] {
    Rng rng(77);
    floorplan::GeneratorConfig cfg;
    cfg.total_dynamic_power = 3.0;
    cfg.gates_per_mm2 = 1e5;
    return floorplan::make_uniform_grid(tech(), die_1mm(), 2, 2, cfg, rng);
  }();
  core::TransientCosimOptions plain;
  plain.fdm.nx = 12;
  plain.fdm.ny = 12;
  plain.fdm.nz = 8;
  plain.dt = 2e-4;
  plain.t_stop = 4e-3;
  core::TransientCosimOptions traced = plain;
  traced.trace.convergence = true;
  const core::ActivityProfile activity = [](std::size_t, double) { return 1.0; };

  const auto ra = core::solve_transient_cosim(tech(), fp, activity, plain);
  const auto rb = core::solve_transient_cosim(tech(), fp, activity, traced);

  ASSERT_EQ(ra.times.size(), rb.times.size());
  for (std::size_t k = 0; k < ra.times.size(); ++k) {
    ASSERT_EQ(ra.block_temps[k].size(), rb.block_temps[k].size());
    for (std::size_t i = 0; i < ra.block_temps[k].size(); ++i) {
      EXPECT_EQ(ra.block_temps[k][i], rb.block_temps[k][i]) << "step " << k;
    }
  }
  EXPECT_EQ(ra.total_cg_iterations, rb.total_cg_iterations);

  EXPECT_TRUE(ra.step_inner_iterations.empty());
  // One entry per step taken (the recorded timeline has the t=0 row extra).
  ASSERT_EQ(rb.step_inner_iterations.size(), rb.times.size() - 1);
  const long long sum = std::accumulate(rb.step_inner_iterations.begin(),
                                        rb.step_inner_iterations.end(), 0LL);
  EXPECT_EQ(sum, rb.total_cg_iterations);
}

// ------------------------------------------------ convergence traces: RTM

TEST(RtmTrace, PerStepTraceSizesToStepsAndRunIsBitwiseUnchanged) {
  Rng rng(99);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = 10.0;
  cfg.gates_per_mm2 = 3e5;
  thermal::Die d = die_1mm();
  d.t_sink = 328.15;
  const auto fp = floorplan::make_uniform_grid(tech(), d, 2, 2, cfg, rng);

  rtm::BurstPattern pat;
  pat.period = 4e-3;
  pat.duty = 1.0;
  pat.high = 1.0;
  const auto trace = rtm::make_burst_trace(4, 10, 1e-3, pat);

  rtm::RtmOptions plain;
  plain.backend = core::ThermalBackend::Spectral;
  plain.spectral.modes_x = 16;
  plain.spectral.modes_y = 16;
  plain.dt = 1e-4;
  plain.steps_per_epoch = 2;
  plain.temperature_cap = 368.15;
  rtm::RtmOptions traced = plain;
  traced.trace.convergence = true;

  rtm::NoopPolicy policy_a;
  rtm::Actuator actuator_a(tech(), fp, rtm::VfLadder::uniform(tech().vdd, 2e9, 4, 0.8, 0.45));
  const auto ra = rtm::run_rtm(tech(), fp, trace, policy_a, actuator_a, plain);

  rtm::NoopPolicy policy_b;
  rtm::Actuator actuator_b(tech(), fp, rtm::VfLadder::uniform(tech().vdd, 2e9, 4, 0.8, 0.45));
  const auto rb = rtm::run_rtm(tech(), fp, trace, policy_b, actuator_b, traced);

  EXPECT_EQ(ra.metrics.peak_temperature, rb.metrics.peak_temperature);
  EXPECT_EQ(ra.metrics.energy, rb.metrics.energy);
  EXPECT_EQ(ra.metrics.epochs, rb.metrics.epochs);
  EXPECT_EQ(ra.metrics.steps, rb.metrics.steps);
  ASSERT_EQ(ra.final_temps.size(), rb.final_temps.size());
  for (std::size_t i = 0; i < ra.final_temps.size(); ++i) {
    EXPECT_EQ(ra.final_temps[i], rb.final_temps[i]) << "block " << i;
  }

  EXPECT_TRUE(ra.step_inner_iterations.empty());
  EXPECT_EQ(rb.step_inner_iterations.size(), static_cast<std::size_t>(rb.metrics.steps));
}

// ---------------------------------------------- convergence traces: batch

TEST(BatchTrace, PerScenarioResidualsMatchStandaloneAndSweepTraceFills) {
  core::CosimOptions plain;
  core::CosimOptions traced;
  traced.trace.convergence = true;

  core::ScenarioBatch a(tech(), small_plan(), plain);
  a.add_variation_samples(device::VariationModel{0.03}, 6, /*base_seed=*/42);
  core::ScenarioBatch b(tech(), small_plan(), traced);
  b.add_variation_samples(device::VariationModel{0.03}, 6, /*base_seed=*/42);

  const auto ra = a.solve_all();
  const auto rb = b.solve_all();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t s = 0; s < ra.size(); ++s) {
    EXPECT_EQ(ra[s].iterations, rb[s].iterations) << "scenario " << s;
    EXPECT_EQ(ra[s].max_delta_last, rb[s].max_delta_last) << "scenario " << s;
    ASSERT_EQ(ra[s].temperatures.size(), rb[s].temperatures.size());
    for (std::size_t i = 0; i < ra[s].temperatures.size(); ++i) {
      EXPECT_EQ(ra[s].temperatures[i], rb[s].temperatures[i]) << "scenario " << s;
    }
    EXPECT_TRUE(ra[s].picard_residuals.empty());
    ASSERT_EQ(rb[s].picard_residuals.size(), static_cast<std::size_t>(rb[s].iterations));
    EXPECT_EQ(rb[s].picard_residuals.back(), rb[s].max_delta_last);
  }

  // The sweep-level trace: one entry per blocked sweep, starting with every
  // scenario active, with a weakly decreasing active count.
  const auto& sweep = b.trace();
  ASSERT_FALSE(sweep.active_per_sweep.empty());
  ASSERT_EQ(sweep.active_per_sweep.size(), sweep.max_residual_per_sweep.size());
  EXPECT_EQ(sweep.active_per_sweep.front(), 6);
  for (std::size_t k = 1; k < sweep.active_per_sweep.size(); ++k) {
    EXPECT_LE(sweep.active_per_sweep[k], sweep.active_per_sweep[k - 1]);
  }
  // The sweep count is the longest per-scenario iteration count.
  int longest = 0;
  for (const auto& r : rb) longest = std::max(longest, r.iterations);
  EXPECT_EQ(sweep.active_per_sweep.size(), static_cast<std::size_t>(longest));
  EXPECT_TRUE(a.trace().active_per_sweep.empty());
}

TEST(BatchTrace, LazyDenseBuildRunsUnderTheBuildInfluenceSpan) {
  // A spectral Auto batch above the crossover builds its dense operator in
  // the first solve_all: one cosim/build_influence span inside
  // batch/solve_all, none in later calls (the matrix is cached).
  core::CosimOptions opts;
  opts.backend = core::ThermalBackend::Spectral;
  core::ScenarioBatch batch(tech(), small_plan(), opts);
  batch.add_variation_samples(device::VariationModel{0.03}, 64, /*base_seed=*/42);
  ASSERT_FALSE(batch.matrix_free());
  const auto builds = [](const std::vector<telemetry::SpanEvent>& events) {
    return std::count_if(events.begin(), events.end(), [](const telemetry::SpanEvent& e) {
      return std::string_view(e.name) == "cosim/build_influence";
    });
  };
  {
    ScopedTracer scoped;
    (void)batch.solve_all();
    const auto events = scoped.tracer().events();
    ASSERT_EQ(builds(events), 1);
    const auto build = std::find_if(events.begin(), events.end(), [](const auto& e) {
      return std::string_view(e.name) == "cosim/build_influence";
    });
    const auto solve = std::find_if(events.begin(), events.end(), [](const auto& e) {
      return std::string_view(e.name) == "batch/solve_all";
    });
    ASSERT_NE(solve, events.end());
    EXPECT_GE(build->start_ns, solve->start_ns);
    EXPECT_LE(build->start_ns + build->duration_ns, solve->start_ns + solve->duration_ns);
  }
  ScopedTracer scoped;
  (void)batch.solve_all();
  EXPECT_EQ(builds(scoped.tracer().events()), 0);
}

// ---------------------------------------------- convergence traces: SPICE

spice::Circuit make_inverter(const Technology& t, double vin) {
  spice::Circuit ckt;
  const auto vdd = ckt.node("vdd");
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add_vsource("VDD", vdd, spice::Circuit::ground(), t.vdd);
  ckt.add_vsource("VIN", in, spice::Circuit::ground(), vin);
  ckt.add_mosfet("MN", out, in, spice::Circuit::ground(), spice::Circuit::ground(),
                 MosModel(t, MosType::Nmos, 0.32e-6, t.l_drawn));
  ckt.add_mosfet("MP", out, in, vdd, vdd, MosModel(t, MosType::Pmos, 0.8e-6, t.l_drawn));
  return ckt;
}

TEST(SpiceTrace, RungResidualCurvesSizeToIterationsAndNumericsMatch) {
  const auto t = tech();
  const auto ckt = make_inverter(t, 0.5 * t.vdd);
  spice::DcOptions plain;
  spice::DcOptions traced;
  traced.trace.convergence = true;

  const auto ra = spice::solve_dc(ckt, plain);
  const auto rb = spice::solve_dc(ckt, traced);

  ASSERT_TRUE(ra.converged && rb.converged);
  EXPECT_EQ(ra.iterations, rb.iterations);
  ASSERT_EQ(ra.node_voltages.size(), rb.node_voltages.size());
  for (std::size_t n = 0; n < ra.node_voltages.size(); ++n) {
    EXPECT_EQ(ra.node_voltages[n], rb.node_voltages[n]) << "node " << n;
  }

  for (const auto& rung : ra.report.rungs) EXPECT_TRUE(rung.residuals.empty());
  ASSERT_FALSE(rb.report.rungs.empty());
  int total = 0;
  for (const auto& rung : rb.report.rungs) {
    EXPECT_EQ(rung.residuals.size(), static_cast<std::size_t>(rung.iterations))
        << "rung " << rung.stage;
    for (const double r : rung.residuals) EXPECT_GE(r, 0.0);
    total += rung.iterations;
  }
  EXPECT_EQ(total, rb.report.newton_iterations);
}

// ----------------------------------------------- cross-subsystem span run

TEST(TraceAnatomy, OneTracerObservesCosimRtmAndSpice) {
  ScopedTracer scoped;

  core::CosimOptions copts;
  copts.backend = core::ThermalBackend::Spectral;
  copts.trace.convergence = true;
  core::ElectroThermalSolver solver(tech(), small_plan(), copts);
  ASSERT_TRUE(solver.solve().converged);

  {
    Rng rng(99);
    floorplan::GeneratorConfig cfg;
    cfg.total_dynamic_power = 8.0;
    cfg.gates_per_mm2 = 3e5;
    thermal::Die d = die_1mm();
    d.t_sink = 328.15;
    const auto fp = floorplan::make_uniform_grid(tech(), d, 2, 2, cfg, rng);
    rtm::BurstPattern pat;
    pat.period = 4e-3;
    pat.duty = 1.0;
    pat.high = 1.0;
    const auto trace = rtm::make_burst_trace(4, 5, 1e-3, pat);
    rtm::RtmOptions opts;
    opts.spectral.modes_x = 16;
    opts.spectral.modes_y = 16;
    opts.steps_per_epoch = 2;
    opts.temperature_cap = 368.15;
    rtm::NoopPolicy policy;
    rtm::Actuator actuator(tech(), fp,
                           rtm::VfLadder::uniform(tech().vdd, 2e9, 4, 0.8, 0.45));
    (void)rtm::run_rtm(tech(), fp, trace, policy, actuator, opts);
  }

  ASSERT_TRUE(spice::solve_dc(make_inverter(tech(), 0.0)).converged);

  const auto events = scoped.tracer().events();
  const auto named = [&](const char* want) {
    return std::any_of(events.begin(), events.end(), [&](const telemetry::SpanEvent& e) {
      return std::string_view(e.name) == want;
    });
  };
  EXPECT_TRUE(named("cosim/solve"));
  EXPECT_TRUE(named("spectral/apply_influence"));
  EXPECT_TRUE(named("rtm/run"));
  EXPECT_TRUE(named("rtm/epoch"));
  EXPECT_TRUE(named("transient/solve"));
  EXPECT_TRUE(named("spice/solve_dc"));
  EXPECT_TRUE(named("spice/gmin_ladder"));

  // The whole run exports as one loadable Chrome trace document.
  const auto json = telemetry::chrome_trace_json(events);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rtm/run\""), std::string::npos);
  const std::string tail = "],\"displayTimeUnit\":\"ms\"}\n";
  ASSERT_GT(json.size(), tail.size());
  EXPECT_EQ(json.substr(json.size() - tail.size()), tail);
}

}  // namespace
}  // namespace ptherm
