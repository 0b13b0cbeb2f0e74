// Tests for the concurrent electro-thermal solver: fixed-point convergence,
// the temperature-leakage feedback, backend agreement, and runaway detection.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cosim.hpp"
#include "floorplan/generators.hpp"
#include "netlist/cells.hpp"

namespace ptherm::core {
namespace {

using device::Technology;

Technology tech() { return Technology::cmos012(); }

thermal::Die die_1mm() {
  thermal::Die d;
  d.width = 1e-3;
  d.height = 1e-3;
  d.thickness = 350e-6;
  d.k_si = 148.0;
  d.t_sink = 318.15;  // 45 C heat sink
  return d;
}

floorplan::Floorplan small_plan(double p_total = 2.0, double gates_per_mm2 = 50e3) {
  Rng rng(21);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = p_total;
  cfg.gates_per_mm2 = gates_per_mm2;
  return floorplan::make_uniform_grid(tech(), die_1mm(), 3, 3, cfg, rng);
}

TEST(Cosim, ConvergesOnModestFloorplan) {
  ElectroThermalSolver solver(tech(), small_plan(), {});
  const auto r = solver.solve();
  EXPECT_TRUE(r.converged);
  EXPECT_FALSE(r.runaway);
  EXPECT_GT(r.iterations, 1);
  EXPECT_EQ(r.blocks.size(), 9u);
}

TEST(Cosim, BlockTemperaturesExceedSink) {
  ElectroThermalSolver solver(tech(), small_plan(), {});
  const auto r = solver.solve();
  for (const auto& b : r.blocks) {
    EXPECT_GT(b.temperature, die_1mm().t_sink);
    EXPECT_GT(b.p_leakage, 0.0);
  }
  EXPECT_GE(r.max_temperature, die_1mm().t_sink);
}

TEST(Cosim, LeakageAtConvergenceExceedsColdLeakage) {
  // The whole point of the concurrent solve: evaluating leakage at the sink
  // temperature underestimates it.
  const auto fp = small_plan(5.0);
  ElectroThermalSolver solver(tech(), fp, {});
  const auto r = solver.solve();
  ASSERT_TRUE(r.converged);
  double cold_leak = 0.0;
  for (const auto& b : fp.blocks()) {
    cold_leak += b.leakage_power(tech(), die_1mm().t_sink);
  }
  EXPECT_GT(r.total_leakage, cold_leak);
}

TEST(Cosim, FixedPointSatisfiesThermalEquation) {
  // At convergence, T_i - T_sink must equal sum_j R_ij * P_j within tol.
  ElectroThermalSolver solver(tech(), small_plan(), {});
  const auto r = solver.solve();
  ASSERT_TRUE(r.converged);
  const auto& influence = solver.influence_matrix();
  for (std::size_t i = 0; i < r.blocks.size(); ++i) {
    double rise = 0.0;
    for (std::size_t j = 0; j < r.blocks.size(); ++j) {
      rise += influence.at(i, j) * r.blocks[j].p_total();
    }
    EXPECT_NEAR(r.blocks[i].temperature - die_1mm().t_sink, rise, 0.02);
  }
}

TEST(Cosim, InfluenceMatrixIsPositiveWithDominantDiagonal) {
  ElectroThermalSolver solver(tech(), small_plan(), {});
  const auto& m = solver.influence_matrix();
  for (std::size_t i = 0; i < m.size(); ++i) {
    for (std::size_t j = 0; j < m.size(); ++j) {
      EXPECT_GT(m.at(i, j), 0.0);
      if (i != j) {
        EXPECT_GT(m.at(i, i), m.at(i, j));  // self-heating dominates
      }
    }
  }
}

TEST(Cosim, MorePowerMeansHotter) {
  ElectroThermalSolver cool(tech(), small_plan(1.0), {});
  ElectroThermalSolver hot(tech(), small_plan(4.0), {});
  const auto rc = cool.solve();
  const auto rh = hot.solve();
  ASSERT_TRUE(rc.converged && rh.converged);
  EXPECT_GT(rh.max_temperature, rc.max_temperature);
  EXPECT_GT(rh.total_leakage, rc.total_leakage);
}

TEST(Cosim, DampingChangesIterationsNotTheAnswer) {
  CosimOptions fast;
  fast.damping = 1.0;
  CosimOptions slow;
  slow.damping = 0.3;
  ElectroThermalSolver a(tech(), small_plan(), fast);
  ElectroThermalSolver b(tech(), small_plan(), slow);
  const auto ra = a.solve();
  const auto rb = b.solve();
  ASSERT_TRUE(ra.converged && rb.converged);
  EXPECT_NEAR(ra.max_temperature, rb.max_temperature, 0.05);
  EXPECT_LT(ra.iterations, rb.iterations);
}

TEST(Cosim, FdmBackendAgreesWithAnalytic) {
  CosimOptions ana;
  CosimOptions fdm;
  fdm.backend = ThermalBackend::Fdm;
  fdm.fdm.nx = 24;
  fdm.fdm.ny = 24;
  fdm.fdm.nz = 16;
  const auto fp = small_plan(3.0);
  ElectroThermalSolver a(tech(), fp, ana);
  ElectroThermalSolver f(tech(), fp, fdm);
  const auto ra = a.solve();
  const auto rf = f.solve();
  ASSERT_TRUE(ra.converged && rf.converged);
  const double rise_a = ra.max_temperature - die_1mm().t_sink;
  const double rise_f = rf.max_temperature - die_1mm().t_sink;
  EXPECT_NEAR(rise_a / rise_f, 1.0, 0.25);
  EXPECT_NEAR(ra.total_leakage / rf.total_leakage, 1.0, 0.25);
}

TEST(Cosim, RunawayIsDetectedNotHidden) {
  // An absurd leakage population turns the fixed point unstable: the solver
  // must flag runaway (or at minimum fail to converge) rather than return a
  // bogus steady state.
  Rng rng(4);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = 40.0;
  cfg.gates_per_mm2 = 5e8;  // ~1000x a sane density
  auto fp = floorplan::make_uniform_grid(tech(), die_1mm(), 2, 2, cfg, rng);
  CosimOptions opts;
  opts.runaway_rise_limit = 200.0;
  ElectroThermalSolver solver(tech(), fp, opts);
  const auto r = solver.solve();
  EXPECT_TRUE(r.runaway || !r.converged);
}

TEST(Cosim, BodyBiasLowersLeakage) {
  CosimOptions base;
  CosimOptions rbb;
  rbb.vb = -0.3;
  const auto fp = small_plan(2.0);
  ElectroThermalSolver a(tech(), fp, base);
  ElectroThermalSolver b(tech(), fp, rbb);
  const auto ra = a.solve();
  const auto rb = b.solve();
  ASSERT_TRUE(ra.converged && rb.converged);
  EXPECT_LT(rb.total_leakage, ra.total_leakage);
  EXPECT_LT(rb.max_temperature, ra.max_temperature + 1e-9);
}

TEST(Cosim, RejectsBadConfiguration) {
  const auto fp = small_plan();
  CosimOptions bad;
  bad.damping = 0.0;
  EXPECT_THROW(ElectroThermalSolver(tech(), fp, bad), PreconditionError);
  floorplan::Floorplan empty(die_1mm());
  EXPECT_THROW(ElectroThermalSolver(tech(), empty, {}), PreconditionError);
}

TEST(Cosim, TotalsAreSumsOverBlocks) {
  ElectroThermalSolver solver(tech(), small_plan(), {});
  const auto r = solver.solve();
  double dyn = 0.0, leak = 0.0;
  for (const auto& b : r.blocks) {
    dyn += b.p_dynamic;
    leak += b.p_leakage;
  }
  EXPECT_NEAR(r.total_dynamic, dyn, 1e-12);
  EXPECT_NEAR(r.total_leakage, leak, 1e-12);
  EXPECT_NEAR(r.total_power(), dyn + leak, 1e-12);
}


TEST(Cosim, PackageResistanceRaisesEveryBlockUniformly) {
  CosimOptions bare;
  CosimOptions packaged;
  packaged.r_package = 0.5;  // K/W
  const auto fp = small_plan(2.0);
  ElectroThermalSolver a(tech(), fp, bare);
  ElectroThermalSolver b(tech(), fp, packaged);
  const auto ra = a.solve();
  const auto rb = b.solve();
  ASSERT_TRUE(ra.converged && rb.converged);
  // Expected extra rise ~ R_pkg * P_total, identical for every block.
  const double extra = packaged.r_package * rb.total_power();
  for (std::size_t i = 0; i < ra.blocks.size(); ++i) {
    EXPECT_NEAR(rb.blocks[i].temperature - ra.blocks[i].temperature, extra,
                0.15 * extra);
  }
  EXPECT_GT(rb.total_leakage, ra.total_leakage);  // hotter die leaks more
}

/// Smallest scenario count for which the Auto rule goes dense (0: never,
/// up to `limit`).
std::size_t dense_crossover(std::size_t n, std::size_t modes, std::size_t limit) {
  for (std::size_t s = 1; s <= limit; ++s) {
    if (dense_influence_pays(n, modes, s)) return s;
  }
  return 0;
}

TEST(InfluenceCostModel, CrossoverSitsAboveTheMeasuredOnes) {
  // At and around the crossover: one scenario less stays matrix-free.
  EXPECT_FALSE(dense_influence_pays(9, 4096, 26));
  EXPECT_TRUE(dense_influence_pays(9, 4096, 27));
  EXPECT_FALSE(dense_influence_pays(36, 1024, 96));
  EXPECT_TRUE(dense_influence_pays(36, 1024, 97));
  // Rounded toward matrix-free: above the crossovers measured when the
  // rule was calibrated (14, 53, 233 and 3171 scenarios at most).
  EXPECT_GT(dense_crossover(9, 1024, 10000), 14u);
  EXPECT_GT(dense_crossover(36, 4096, 10000), 53u);
  EXPECT_GT(dense_crossover(144, 1024, 10000), 233u);
  EXPECT_GT(dense_crossover(1024, 4096, 10000), 3171u);
  // A 10^4-sample study on 36 blocks at 32 x 32 modes goes dense.
  EXPECT_TRUE(dense_influence_pays(36, 1024, 10000));
}

TEST(InfluenceCostModel, NeverDenseForOneScenarioOrLargePlans) {
  for (const std::size_t modes : {0u, 1u, 16u, 1024u, 4096u}) {
    for (std::size_t n = 1; n <= 8192; n = n < 64 ? n + 1 : n * 2) {
      EXPECT_FALSE(dense_influence_pays(n, modes, 0)) << n << " blocks, " << modes;
      EXPECT_FALSE(dense_influence_pays(n, modes, 1)) << n << " blocks, " << modes;
      if (n >= 2 * modes) {
        EXPECT_FALSE(dense_influence_pays(n, modes, std::size_t{1} << 40))
            << n << " blocks, " << modes << " modes";
      }
    }
  }
  // A dense apply no cheaper than the mode-space one never pays back.
  EXPECT_EQ(dense_crossover(1024, 1024, 1000000), 0u);
}

TEST(Cosim, BoundaryFoldResistanceSumsPackageAndStackNetwork) {
  CosimOptions opts;
  EXPECT_DOUBLE_EQ(boundary_fold_resistance(opts), 0.0);
  opts.r_package = 0.3;
  EXPECT_DOUBLE_EQ(boundary_fold_resistance(opts), 0.3);
  // An isothermal stack adds nothing; an RC-network boundary adds its DC
  // resistance on top of the scalar option.
  opts.stack = thermal::DieStack::single(die_1mm());
  EXPECT_DOUBLE_EQ(boundary_fold_resistance(opts), 0.3);
  thermal::BoundarySpec rc;
  rc.kind = thermal::BoundaryKind::RcNetwork;
  rc.rc.emplace(std::vector<thermal::ThermalRc>{{0.5, 0.1}, {0.3, 2.0}});
  opts.stack = thermal::DieStack(
      {{"die", die_1mm().thickness, die_1mm().k_si, die_1mm().cv_si}}, rc);
  EXPECT_DOUBLE_EQ(boundary_fold_resistance(opts), 0.3 + 0.8);
}

TEST(Cosim, RcBoundaryStackIsTheScalarRPackageAtSteadyState) {
  // One r_package semantics: a trivial stack closed by an RC network with
  // total resistance R must reproduce the scalar r_package = R run exactly
  // (same conduction operator, same fold — bitwise, not approximately).
  const auto fp = small_plan(2.0);
  CosimOptions scalar;
  scalar.r_package = 0.8;
  CosimOptions stacked;
  thermal::BoundarySpec rc;
  rc.kind = thermal::BoundaryKind::RcNetwork;
  rc.rc.emplace(std::vector<thermal::ThermalRc>{{0.5, 0.1}, {0.3, 2.0}});
  stacked.stack = thermal::DieStack(
      {{"die", die_1mm().thickness, die_1mm().k_si, die_1mm().cv_si}}, rc);
  ElectroThermalSolver a(tech(), fp, scalar);
  ElectroThermalSolver b(tech(), fp, stacked);
  const auto ra = a.solve();
  const auto rb = b.solve();
  ASSERT_TRUE(ra.converged && rb.converged);
  ASSERT_EQ(ra.blocks.size(), rb.blocks.size());
  for (std::size_t i = 0; i < ra.blocks.size(); ++i) {
    EXPECT_DOUBLE_EQ(rb.blocks[i].temperature, ra.blocks[i].temperature);
    EXPECT_DOUBLE_EQ(rb.blocks[i].p_leakage, ra.blocks[i].p_leakage);
  }
}

TEST(Cosim, DenseAndMatrixFreeFoldTheSameBoundaryResistance) {
  // The satellite contract for the unified boundary fold: with r_package AND
  // an RC-network stack in play, the dense build (fold inside the matrix)
  // and the matrix-free path (fold applied per Picard iteration) must
  // realize identical influence entries and agree on the solve.
  const auto fp = small_plan(2.0);
  CosimOptions base;
  base.backend = ThermalBackend::Spectral;
  base.r_package = 0.4;
  thermal::BoundarySpec rc;
  rc.kind = thermal::BoundaryKind::RcNetwork;
  rc.rc.emplace(std::vector<thermal::ThermalRc>{{0.6, 0.05}});
  base.stack = thermal::DieStack(
      {{"die", die_1mm().thickness, die_1mm().k_si, die_1mm().cv_si}}, rc);

  CosimOptions dense = base;
  dense.influence = InfluenceMode::Dense;
  CosimOptions free = base;
  free.influence = InfluenceMode::MatrixFree;

  ElectroThermalSolver d(tech(), fp, dense);
  ElectroThermalSolver f(tech(), fp, free);
  const auto rd = d.solve();
  const auto rf = f.solve();
  ASSERT_TRUE(rd.converged && rf.converged);
  EXPECT_FALSE(d.matrix_free());
  EXPECT_TRUE(f.matrix_free());

  // The lazily realised dense view of the matrix-free solver goes through
  // the same boundary_fold_resistance helper: identical entries.
  const auto& md = d.influence_matrix();
  const auto& mf = f.influence_matrix();
  ASSERT_EQ(md.size(), mf.size());
  for (std::size_t i = 0; i < md.size(); ++i) {
    for (std::size_t j = 0; j < md.size(); ++j) {
      EXPECT_DOUBLE_EQ(mf.at(i, j), md.at(i, j)) << "entry (" << i << ", " << j << ")";
    }
  }
  for (std::size_t i = 0; i < rd.blocks.size(); ++i) {
    EXPECT_NEAR(rf.blocks[i].temperature, rd.blocks[i].temperature, 1e-9);
  }
}

}  // namespace
}  // namespace ptherm::core
