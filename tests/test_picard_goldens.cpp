// Golden values for the damped Picard fixed point T <- T_sink + R * P(T),
// stored as hexfloats so every comparison is bitwise:
//  * the steady cosim on a 36-block manycore (3 x 3 tiles) with the analytic
//    and the matrix-free spectral backend, plus a runaway on the same plan;
//  * FDM on the 3 x 3 plan the scenario-batch tests use;
//  * a 64-scenario VT0 Monte Carlo ScenarioBatch that mixes converged,
//    runaway and max-iterations scenarios (tests/data/picard_mc64_goldens.txt);
//  * the self-heating electro-thermal SPICE fixture on a cold sink
//    (converges) and a hot one (runs away).
// Batch-vs-sequential tests compare two routes through the iteration with
// each other; these compare them with fixed numbers, so a change that moves
// any bit of the shared iteration fails here.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/cosim.hpp"
#include "core/scenario_batch.hpp"
#include "device/mosfet.hpp"
#include "device/variation.hpp"
#include "floorplan/generators.hpp"
#include "spice/circuit.hpp"
#include "spice/electrothermal.hpp"
#include "thermal/backend.hpp"

namespace ptherm {
namespace {

using core::CosimOptions;
using core::CosimResult;
using core::ElectroThermalSolver;
using core::ThermalBackend;
using device::Technology;

Technology tech() { return Technology::cmos012(); }

thermal::Die die(double side) {
  thermal::Die d;
  d.width = side;
  d.height = side;
  d.thickness = 350e-6;
  d.k_si = 148.0;
  d.t_sink = 318.15;
  return d;
}

floorplan::Floorplan manycore36(double p_total, double gates_per_mm2) {
  Rng rng(23);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = p_total;
  cfg.gates_per_mm2 = gates_per_mm2;
  return floorplan::make_manycore(tech(), die(2e-3), 3, 3, cfg, rng);
}

floorplan::Floorplan small_plan(double gates_per_mm2) {
  Rng rng(21);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = 2.0;
  cfg.gates_per_mm2 = gates_per_mm2;
  return floorplan::make_uniform_grid(tech(), die(1e-3), 3, 3, cfg, rng);
}

struct CosimGolden {
  bool converged;
  bool runaway;
  int iterations;
  double max_delta_last;
  std::vector<double> temperatures;
};

void expect_golden(const CosimResult& r, const CosimGolden& want) {
  EXPECT_EQ(r.converged, want.converged);
  EXPECT_EQ(r.runaway, want.runaway);
  EXPECT_EQ(r.iterations, want.iterations);
  EXPECT_EQ(r.max_delta_last, want.max_delta_last);
  ASSERT_EQ(r.blocks.size(), want.temperatures.size());
  for (std::size_t i = 0; i < r.blocks.size(); ++i) {
    EXPECT_EQ(r.blocks[i].temperature, want.temperatures[i]) << "block " << i;
  }
}

TEST(PicardGoldens, AnalyticManycoreCosim) {
  // clang-format off
  const CosimGolden want{true, false, 8, 0x1.69c6db86p-11, {
    0x1.427709be793dfp+8, 0x1.4089fd47098b6p+8, 0x1.409d2379988f1p+8, 0x1.414dd0b24a303p+8,
    0x1.41c32cb8abc62p+8, 0x1.4014fe8e46a25p+8, 0x1.3ffd177ab6da9p+8, 0x1.4092d664fd9a8p+8,
    0x1.40180c4c4fdb8p+8, 0x1.3f27eb9dafb52p+8, 0x1.3f11204e96f16p+8, 0x1.3f68c9cfee6b3p+8,
    0x1.42a81df08fb19p+8, 0x1.414e50e3986abp+8, 0x1.40ec85b7806a2p+8, 0x1.41665c7605fc3p+8,
    0x1.4240fb6bb4922p+8, 0x1.40eb9de1a06f5p+8, 0x1.4084326878889p+8, 0x1.40ee06940fe56p+8,
    0x1.417b7a1b105f1p+8, 0x1.401f275b52888p+8, 0x1.3fc64cde8cff7p+8, 0x1.40347470186f6p+8,
    0x1.42637de3a3ad5p+8, 0x1.4137c29bc23afp+8, 0x1.409ac96727142p+8, 0x1.40f03d2236fdp+8,
    0x1.40bfeb179fe91p+8, 0x1.40587d2ebca19p+8, 0x1.3fe9615fce39cp+8, 0x1.40053f76fe7c6p+8,
    0x1.414fc9835c43cp+8, 0x1.405d9ca0273bdp+8, 0x1.3fc9b4dedf039p+8, 0x1.4011a351ef106p+8}};
  // clang-format on
  expect_golden(ElectroThermalSolver(tech(), manycore36(4.0, 50e3), {}).solve(), want);
}

TEST(PicardGoldens, SpectralManycoreCosim) {
  // clang-format off
  const CosimGolden want{true, false, 8, 0x1.6e537e5ep-11, {
    0x1.4285846e88f67p+8, 0x1.4088221e18e28p+8, 0x1.40deb001ecdf6p+8, 0x1.4192e1c4af822p+8,
    0x1.41cf01750264fp+8, 0x1.401333bc142b5p+8, 0x1.4028f8fd6a43ap+8, 0x1.40c19db312212p+8,
    0x1.401d6640587d5p+8, 0x1.3f25f5713155fp+8, 0x1.3f21bfc04fae5p+8, 0x1.3f7be57a83d46p+8,
    0x1.42b69f8760673p+8, 0x1.414e38b7200c3p+8, 0x1.413573d22c089p+8, 0x1.41afb4a14ed91p+8,
    0x1.424f61fbce514p+8, 0x1.40eaf53fc16c8p+8, 0x1.40c1397bdf45bp+8, 0x1.412ab9d6a9a5ep+8,
    0x1.41845b9fb191ap+8, 0x1.401c896393819p+8, 0x1.3fea0cf46e2eap+8, 0x1.4058fc0509b07p+8,
    0x1.426ef3c894d1bp+8, 0x1.413586f853508p+8, 0x1.40d6cb2f9b47cp+8, 0x1.4129c0cd4224ap+8,
    0x1.40cae58ea21bdp+8, 0x1.405a25867ab57p+8, 0x1.4014710e5a8cp+8, 0x1.402f19a899acap+8,
    0x1.41560b0aa4569p+8, 0x1.40594fb0bd63bp+8, 0x1.3fede502bd29p+8, 0x1.4034006877b28p+8}};
  // clang-format on
  CosimOptions opts;
  opts.backend = ThermalBackend::Spectral;
  ElectroThermalSolver solver(tech(), manycore36(4.0, 50e3), opts);
  ASSERT_TRUE(solver.matrix_free());
  expect_golden(solver.solve(), want);
}

TEST(PicardGoldens, FdmSmallPlanCosim) {
  // clang-format off
  const CosimGolden want{true, false, 8, 0x1.99b498db8p-11, {
    0x1.42bdfb7519c02p+8, 0x1.42fcad7d37215p+8, 0x1.42bdfb3584d6bp+8, 0x1.42fcaeb420124p+8,
    0x1.4340f0226a1ep+8, 0x1.42fcaf61447c6p+8, 0x1.42bdfbe63bdf1p+8, 0x1.42fcaf8e1fba2p+8,
    0x1.42bdfdc482661p+8}};
  // clang-format on
  CosimOptions opts;
  opts.backend = ThermalBackend::Fdm;
  opts.fdm.nx = 16;
  opts.fdm.ny = 16;
  opts.fdm.nz = 8;
  expect_golden(ElectroThermalSolver(tech(), small_plan(50e3), opts).solve(), want);
}

TEST(PicardGoldens, AnalyticManycoreRunaway) {
  // clang-format off
  const CosimGolden want{false, true, 6, 0x1.d5d582677e2dap+8, {
    0x1.092c0d475456ap+9, 0x1.9bce61e751d97p+8, 0x1.ac025f2ad1473p+8, 0x1.d0850480bafep+8,
    0x1.11334f07b033ap+9, 0x1.91053b01006cbp+8, 0x1.89865b61dcec3p+8, 0x1.a11e65115de04p+8,
    0x1.7c10ab59da75cp+8, 0x1.5b8db1b32f3d7p+8, 0x1.57c5ecd2896aap+8, 0x1.610cd92f47908p+8,
    0x1.5ba79e5a91e8ep+9, 0x1.f6b6e4802046dp+8, 0x1.ef448c0285befp+8, 0x1.0107416c2769ep+9,
    0x1.4bd4abf510836p+9, 0x1.de6a281f6e11fp+8, 0x1.b0a81386bcfcep+8, 0x1.b4b616a4fcc0cp+8,
    0x1.a6b4d3572cb4ap+8, 0x1.784679317b4f6p+8, 0x1.6bc702c6bb22dp+8, 0x1.76538d19f55abp+8,
    0x1.f60c91e95d47ep+9, 0x1.25d32d426380ap+9, 0x1.01a19987391a8p+9, 0x1.08f6abb9b3067p+9,
    0x1.b888f87987a24p+8, 0x1.b98ec3216bf5ep+8, 0x1.871b3298362f4p+8, 0x1.869600e771594p+8,
    0x1.bdbe53b5f659ap+8, 0x1.85da18c9cfb18p+8, 0x1.71da0c5a90d3dp+8, 0x1.7824d4f09b956p+8}};
  // clang-format on
  const CosimResult r = ElectroThermalSolver(tech(), manycore36(80.0, 5e8), {}).solve();
  expect_golden(r, want);
  ASSERT_TRUE(r.diagnostics.has_value());
  EXPECT_EQ(r.diagnostics->solver, "ElectroThermalSolver");
  EXPECT_EQ(r.diagnostics->stage, "runaway");
  EXPECT_EQ(r.diagnostics->worst, "core_0_2");
}

/// One row of tests/data/picard_mc64_goldens.txt.
struct ScenarioGolden {
  int iterations = 0;
  bool converged = false;
  bool runaway = false;
  double max_delta_last = 0.0;
  std::vector<double> temperatures;
};

std::vector<ScenarioGolden> read_mc64_goldens() {
  std::ifstream in(std::string(PTHERM_TEST_DATA_DIR) + "/picard_mc64_goldens.txt");
  EXPECT_TRUE(in) << "missing golden file";
  std::vector<ScenarioGolden> rows;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    ScenarioGolden g;
    int converged = 0;
    int runaway = 0;
    std::string word;
    row >> g.iterations >> converged >> runaway >> word;
    g.converged = converged != 0;
    g.runaway = runaway != 0;
    g.max_delta_last = std::strtod(word.c_str(), nullptr);
    while (row >> word) g.temperatures.push_back(std::strtod(word.c_str(), nullptr));
    rows.push_back(std::move(g));
  }
  return rows;
}

/// The 64-sample study of the batch goldens under influence mode `mode`.
core::ScenarioBatch mc64_batch(core::InfluenceMode mode) {
  // Leakage-heavy plan near its runaway edge: the VT0 draws spread the
  // iteration counts from 11 to the 40-iteration cap, and two samples run
  // away, so the convergence masks and every verdict are exercised.
  CosimOptions opts;
  opts.backend = ThermalBackend::Spectral;
  opts.influence = mode;
  opts.r_package = 2.0;
  opts.max_iterations = 40;
  core::ScenarioBatch batch(tech(), small_plan(4e8), opts);
  batch.add_variation_samples(device::VariationModel{0.03}, 64, /*base_seed=*/7);
  return batch;
}

TEST(PicardGoldens, McBatchMatchesGoldens) {
  // The mode-space kernel, pinned: at 64 scenarios on 9 blocks Auto would
  // resolve dense (see McBatchUnderAutoMatchesMatrixFreeGoldens).
  core::ScenarioBatch batch = mc64_batch(core::InfluenceMode::MatrixFree);
  ASSERT_TRUE(batch.matrix_free());
  const auto results = batch.solve_all();

  const auto goldens = read_mc64_goldens();
  ASSERT_EQ(goldens.size(), results.size());
  for (std::size_t k = 0; k < goldens.size(); ++k) {
    const core::ScenarioResult& r = results[k];
    const ScenarioGolden& g = goldens[k];
    EXPECT_EQ(r.iterations, g.iterations) << "scenario " << k;
    EXPECT_EQ(r.converged, g.converged) << "scenario " << k;
    EXPECT_EQ(r.runaway, g.runaway) << "scenario " << k;
    EXPECT_EQ(r.max_delta_last, g.max_delta_last) << "scenario " << k;
    ASSERT_EQ(r.temperatures.size(), g.temperatures.size()) << "scenario " << k;
    for (std::size_t i = 0; i < g.temperatures.size(); ++i) {
      EXPECT_EQ(r.temperatures[i], g.temperatures[i]) << "scenario " << k << " block " << i;
    }
  }
  ASSERT_TRUE(results[28].diagnostics.has_value());
  EXPECT_EQ(results[28].diagnostics->solver, "ScenarioBatch");
  EXPECT_EQ(results[28].diagnostics->stage, "scenario 28: runaway");
  ASSERT_TRUE(results[57].diagnostics.has_value());
  EXPECT_EQ(results[57].diagnostics->stage, "scenario 57: max-iterations");
}

TEST(PicardGoldens, McBatchUnderAutoMatchesMatrixFreeGoldens) {
  // The same study under Auto iterates on the dense matrix (64 scenarios
  // amortize a 9 x 9 build); the two operators agree to rounding, so every
  // verdict and iteration count is the mode-space one and every temperature
  // is within 1e-9 K of it. The two runaway samples exit near 5000 K after
  // a diverging iteration that amplifies the rounding difference, so there
  // the bound is relative (1e-12; measured 4.7e-13).
  core::ScenarioBatch batch = mc64_batch(core::InfluenceMode::Auto);
  ASSERT_FALSE(batch.matrix_free());
  const auto results = batch.solve_all();

  const auto goldens = read_mc64_goldens();
  ASSERT_EQ(goldens.size(), results.size());
  for (std::size_t k = 0; k < goldens.size(); ++k) {
    const core::ScenarioResult& r = results[k];
    const ScenarioGolden& g = goldens[k];
    EXPECT_EQ(r.iterations, g.iterations) << "scenario " << k;
    EXPECT_EQ(r.converged, g.converged) << "scenario " << k;
    EXPECT_EQ(r.runaway, g.runaway) << "scenario " << k;
    ASSERT_EQ(r.temperatures.size(), g.temperatures.size()) << "scenario " << k;
    for (std::size_t i = 0; i < g.temperatures.size(); ++i) {
      const double tol = g.runaway ? 1e-12 * g.temperatures[i] : 1e-9;
      EXPECT_NEAR(r.temperatures[i], g.temperatures[i], tol)
          << "scenario " << k << " block " << i;
    }
  }
}

spice::Circuit wide_device_circuit() {
  spice::Circuit ckt;
  const Technology t = tech();
  const auto vdd = ckt.node("vdd");
  const auto gate = ckt.node("gate");
  ckt.add_vsource("VDD", vdd, spice::Circuit::ground(), t.vdd);
  ckt.add_vsource("VG", gate, spice::Circuit::ground(), 0.30);
  ckt.add_mosfet("MHOT", vdd, gate, spice::Circuit::ground(), spice::Circuit::ground(),
                 device::MosModel(t, device::MosType::Nmos, 200e-6, t.l_drawn));
  return ckt;
}

spice::ElectroThermalDcSolution solve_et(double t_sink) {
  thermal::Die d;
  d.width = 100e-6;
  d.height = 100e-6;
  d.thickness = 300e-6;
  d.k_si = 4.0;
  d.t_sink = t_sink;
  const thermal::AnalyticImagesBackend backend(d);
  const std::vector<spice::DeviceFootprint> fps = {{"MHOT", 50e-6, 50e-6, 10e-6, 10e-6}};
  spice::ElectroThermalDcOptions opts;
  opts.t_sink = t_sink;
  opts.dc.temp = t_sink;
  return spice::solve_electrothermal_dc(wide_device_circuit(), backend, fps, opts);
}

TEST(PicardGoldens, ElectroThermalDcColdSink) {
  const auto sol = solve_et(300.0);
  EXPECT_TRUE(sol.converged);
  EXPECT_FALSE(sol.runaway);
  EXPECT_EQ(sol.outer_iterations, 31);
  ASSERT_EQ(sol.device_temperatures.size(), 1u);
  EXPECT_EQ(sol.device_temperatures[0], 0x1.4719a310740d8p+8);
  EXPECT_EQ(sol.device_powers[0], 0x1.72c9cfacbf391p-10);
  EXPECT_EQ(sol.max_temperature, 0x1.4719a310740d8p+8);
}

TEST(PicardGoldens, ElectroThermalDcHotSinkRunaway) {
  const auto sol = solve_et(325.0);
  EXPECT_FALSE(sol.converged);
  EXPECT_TRUE(sol.runaway);
  EXPECT_EQ(sol.outer_iterations, 13);
  ASSERT_EQ(sol.device_temperatures.size(), 1u);
  EXPECT_EQ(sol.device_temperatures[0], 0x1.db727337101bbp+9);
  EXPECT_EQ(sol.device_powers[0], 0x1.354235599b5b7p-5);
  EXPECT_EQ(sol.max_temperature, 0x1.db727337101bbp+9);
}

}  // namespace
}  // namespace ptherm
