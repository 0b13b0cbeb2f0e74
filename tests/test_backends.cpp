// Tests for the pluggable thermal-backend layer: the factory, the
// parametrized backend matrix (every backend must run the concurrent solve
// and produce physically sane, mutually consistent results), pairwise
// influence-operator agreement, transient capability gating, and the
// option-validation contracts at solver construction.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cosim.hpp"
#include "core/transient.hpp"
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

CosimOptions backend_opts(ThermalBackend backend) {
  CosimOptions opts;
  opts.backend = backend;
  if (backend == ThermalBackend::Fdm) {
    opts.fdm.nx = 24;
    opts.fdm.ny = 24;
    opts.fdm.nz = 12;
  }
  return opts;
}

const char* backend_label(ThermalBackend b) {
  switch (b) {
    case ThermalBackend::Analytic: return "Analytic";
    case ThermalBackend::Fdm: return "Fdm";
    case ThermalBackend::Spectral: return "Spectral";
  }
  return "Unknown";
}

class BackendMatrix : public ::testing::TestWithParam<ThermalBackend> {};

TEST_P(BackendMatrix, FactoryReportsTheSelectedBackend) {
  const auto backend = make_thermal_backend(die_1mm(), backend_opts(GetParam()));
  ASSERT_NE(backend, nullptr);
  std::string expect = backend_label(GetParam());
  for (auto& c : expect) c = static_cast<char>(std::tolower(c));
  EXPECT_EQ(backend->name(), expect);
}

TEST_P(BackendMatrix, CosimConvergesWithSaneTemperatures) {
  ElectroThermalSolver solver(tech(), small_plan(), backend_opts(GetParam()));
  const auto r = solver.solve();
  EXPECT_TRUE(r.converged);
  EXPECT_FALSE(r.runaway);
  for (const auto& b : r.blocks) {
    EXPECT_GT(b.temperature, die_1mm().t_sink);
    EXPECT_GT(b.p_leakage, 0.0);
  }
}

TEST_P(BackendMatrix, InfluenceIsPositiveWithDominantDiagonal) {
  ElectroThermalSolver solver(tech(), small_plan(), backend_opts(GetParam()));
  const auto& m = solver.influence_matrix();
  for (std::size_t i = 0; i < m.size(); ++i) {
    for (std::size_t j = 0; j < m.size(); ++j) {
      EXPECT_GT(m.at(i, j), 0.0);
      if (i != j) {
        EXPECT_GT(m.at(i, i), m.at(i, j));
      }
    }
  }
}

TEST_P(BackendMatrix, InfluenceColumnsMatchUnitSourceSurfaceRises) {
  // The influence build and the steady-solve query path must describe the
  // same physics: column j of R equals the backend's surface rises for a
  // unit-power source j at the block centres.
  const auto fp = small_plan();
  const auto opts = backend_opts(GetParam());
  const auto backend = make_thermal_backend(fp.die(), opts);
  const auto samples = block_centre_samples(fp);
  auto sources = fp.heat_sources(tech());
  const auto r = backend->build_influence(sources, samples);
  for (std::size_t j = 0; j < sources.size(); ++j) {
    std::vector<thermal::HeatSource> one = {sources[j]};
    one[0].power = 1.0;
    const auto rises = backend->surface_rises(one, samples);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      EXPECT_NEAR(r(i, j), rises[i], 1e-9 * rises[i]) << "entry (" << i << ", " << j << ")";
    }
  }
}

TEST_P(BackendMatrix, SurfaceRiseMapAgreesWithPointQueries) {
  const auto fp = small_plan();
  const auto backend = make_thermal_backend(fp.die(), backend_opts(GetParam()));
  const auto sources = fp.heat_sources(tech());
  const int nx = 8, ny = 8;
  const auto map = backend->surface_rise_map(sources, nx, ny);
  ASSERT_EQ(map.size(), static_cast<std::size_t>(nx) * ny);
  // Spot-check the centre cell against the point-query path.
  const std::vector<thermal::SurfaceSample> centre = {
      {fp.die().width * 4.5 / nx, fp.die().height * 4.5 / ny}};
  const auto rise = backend->surface_rises(sources, centre);
  EXPECT_NEAR(map[4 * nx + 4], rise[0], 1e-9 * rise[0]);
}

TEST_P(BackendMatrix, TransientCapabilityIsGatedNotSilentlyIgnored) {
  const auto backend = make_thermal_backend(die_1mm(), backend_opts(GetParam()));
  if (GetParam() == ThermalBackend::Fdm || GetParam() == ThermalBackend::Spectral) {
    EXPECT_TRUE(backend->supports_transient());
    EXPECT_NE(backend->make_transient_state(), nullptr);
  } else {
    EXPECT_FALSE(backend->supports_transient());
    EXPECT_THROW((void)backend->make_transient_state(), PreconditionError);
  }
}

TEST_P(BackendMatrix, BatchedTransientReadbackMatchesPointQueries) {
  // The per-step block-temperature readback goes through the batched
  // surface_rises (spectral: one dense mode-synthesis matvec; FDM: the
  // default loop) — it must agree with the per-point virtual to rounding.
  if (GetParam() == ThermalBackend::Analytic) GTEST_SKIP() << "steady-only backend";
  const auto fp = small_plan();
  const auto backend = make_thermal_backend(fp.die(), backend_opts(GetParam()));
  const auto state = backend->make_transient_state();
  auto sources = fp.heat_sources(tech());
  backend->step_transient(*state, 5e-4, sources);
  const auto samples = block_centre_samples(fp);
  std::vector<double> batched(samples.size());
  state->surface_rises(samples, batched);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double want = state->surface_rise(samples[i].x, samples[i].y);
    EXPECT_GT(want, 0.0);
    EXPECT_NEAR(batched[i], want, 1e-12 * want) << "sample " << i;
  }
  // Changing the query points must re-key the cached gather, not reuse it.
  std::vector<thermal::SurfaceSample> moved(samples.begin(), samples.end());
  moved[0].x *= 0.5;
  std::vector<double> batched_moved(moved.size());
  state->surface_rises(moved, batched_moved);
  EXPECT_NEAR(batched_moved[0], state->surface_rise(moved[0].x, moved[0].y),
              1e-12 * batched_moved[0]);
  EXPECT_NE(batched_moved[0], batched[0]);
}

TEST(BackendAgreement, FdmStencilReadbackIsBitwiseIdenticalToPointQueries) {
  // The FDM transient state's batched readback hoists the per-point
  // bounds/centre arithmetic into cached bilinear stencils. The cached path
  // keeps the exact term order of FdmThermalSolver::surface_rise, so it is
  // not merely close — it is the same doubles, including at the clamped rim
  // and corners.
  const auto fp = small_plan();
  const auto backend = make_thermal_backend(fp.die(), backend_opts(ThermalBackend::Fdm));
  const auto state = backend->make_transient_state();
  auto sources = fp.heat_sources(tech());
  backend->step_transient(*state, 5e-4, sources);
  const double w = fp.die().width;
  const double h = fp.die().height;
  const std::vector<thermal::SurfaceSample> points = {
      {0.0, 0.0},          // corner: both axes clamped
      {w, h},              // far corner
      {w * 0.5, 0.0},      // edge
      {w * 0.013, h * 0.87},
      {w * 0.5, h * 0.5},
      {w * 0.25, h * 0.75},
  };
  std::vector<double> batched(points.size());
  state->surface_rises(points, batched);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(batched[i], state->surface_rise(points[i].x, points[i].y)) << "point " << i;
  }
  // Stepping further reuses the cached stencils on the fresh field.
  backend->step_transient(*state, 5e-4, sources);
  state->surface_rises(points, batched);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(batched[i], state->surface_rise(points[i].x, points[i].y))
        << "point " << i << " after second step";
  }
}

TEST(BackendAgreement, TransientStateIsRejectedByAForeignBackend) {
  // A state minted by one backend must not be silently integrated by
  // another — the field layouts are incompatible.
  CosimOptions fdm_opts = backend_opts(ThermalBackend::Fdm);
  const auto fdm = make_thermal_backend(die_1mm(), fdm_opts);
  const auto spectral = make_thermal_backend(die_1mm(), backend_opts(ThermalBackend::Spectral));
  const auto fdm_state = fdm->make_transient_state();
  const auto sp_state = spectral->make_transient_state();
  const auto sources = small_plan().heat_sources(tech());
  EXPECT_THROW(spectral->step_transient(*fdm_state, 1e-4, sources), PreconditionError);
  EXPECT_THROW(fdm->step_transient(*sp_state, 1e-4, sources), PreconditionError);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendMatrix,
                         ::testing::Values(ThermalBackend::Analytic, ThermalBackend::Fdm,
                                           ThermalBackend::Spectral),
                         [](const ::testing::TestParamInfo<ThermalBackend>& info) {
                           return backend_label(info.param);
                         });

TEST(BackendAgreement, CosimResultsAgreeAcrossAllThreeBackends) {
  // Spectral and FDM both solve the boundary-value problem near-exactly, so
  // they must agree tightly; the analytic image model carries the paper's
  // min-estimator modeling error, so its band is the looser seed tolerance.
  const auto fp = small_plan(3.0);
  CosimResult results[3];
  const ThermalBackend backends[] = {ThermalBackend::Analytic, ThermalBackend::Fdm,
                                     ThermalBackend::Spectral};
  for (int b = 0; b < 3; ++b) {
    ElectroThermalSolver solver(tech(), fp, backend_opts(backends[b]));
    results[b] = solver.solve();
    ASSERT_TRUE(results[b].converged) << backend_label(backends[b]);
  }
  const double sink = die_1mm().t_sink;
  const double rise_a = results[0].max_temperature - sink;
  const double rise_f = results[1].max_temperature - sink;
  const double rise_s = results[2].max_temperature - sink;
  EXPECT_NEAR(rise_s / rise_f, 1.0, 0.10);  // two near-exact solvers
  EXPECT_NEAR(rise_a / rise_f, 1.0, 0.25);  // paper's estimator band
  EXPECT_NEAR(rise_a / rise_s, 1.0, 0.25);
  EXPECT_NEAR(results[2].total_leakage / results[1].total_leakage, 1.0, 0.10);
}

// The analytic backend's batched queries drop, once per call, the image
// copies beyond the bottom-image cutoff from every sample. Over generated
// plans, dies, image options and samples (block centres and points anywhere
// around the die), both batched queries must equal per-point
// ChipThermalModel::rise sums bit for bit, so the pruning can never drop a
// copy that contributes.
TEST(AnalyticImagesProperty, BatchedQueriesEqualPerPointRiseSums) {
  const Technology t = tech();
  floorplan::GeneratorConfig cfg;
  cfg.library = std::make_shared<const netlist::CellLibrary>(t);
  Rng rng(2024);
  for (int trial = 0; trial < 24; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    thermal::Die d = die_1mm();
    d.width = rng.uniform(1e-3, 5e-3);
    d.height = rng.uniform(1e-3, 5e-3);
    d.thickness = rng.uniform(80e-6, 500e-6);  // cutoff 8t: 0.64 to 4 mm
    const int a = 2 + static_cast<int>(rng.uniform_index(4));
    const int b = 2 + static_cast<int>(rng.uniform_index(4));
    floorplan::Floorplan fp(d);
    switch (trial % 4) {
      case 0: fp = floorplan::make_uniform_grid(t, d, a, b, cfg, rng); break;
      case 1: fp = floorplan::make_hotspot_map(t, d, a + b, 0.4, cfg, rng); break;
      case 2: fp = floorplan::make_checkerboard(t, d, a, b, cfg, rng); break;
      default: fp = floorplan::make_manycore(t, d, a / 2 + 1, b / 2 + 1, cfg, rng); break;
    }
    thermal::ImageOptions opts;
    opts.lateral_order = trial % 3;
    opts.bottom_images = trial % 5 != 4;
    opts.z_order = 8 + 4 * (trial % 5);
    const auto sources = fp.heat_sources(t);
    std::vector<thermal::SurfaceSample> samples;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      if (i % 2 == 0) {
        samples.push_back({sources[i].cx, sources[i].cy});
      } else {
        samples.push_back({rng.uniform(-0.25, 1.25) * d.width, rng.uniform(-0.25, 1.25) * d.height});
      }
    }
    const std::size_t n = sources.size();
    const thermal::AnalyticImagesBackend backend(d, opts);

    const numerics::Matrix r = backend.build_influence(sources, samples);
    std::vector<double> want(n * n);
    for (std::size_t j = 0; j < n; ++j) {
      std::vector<thermal::HeatSource> one = {sources[j]};
      one[0].power = 1.0;
      const thermal::ChipThermalModel model(d, one, opts);
      for (std::size_t i = 0; i < n; ++i) want[i * n + j] = model.rise(samples[i].x, samples[i].y);
    }
    std::vector<double> got(n * n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) got[i * n + j] = r(i, j);
    }
    EXPECT_EQ(std::memcmp(got.data(), want.data(), n * n * sizeof(double)), 0);

    const thermal::ChipThermalModel model(d, sources, opts);
    std::vector<double> rises(n);
    for (std::size_t i = 0; i < n; ++i) rises[i] = model.rise(samples[i].x, samples[i].y);
    const std::vector<double> batched = backend.surface_rises(sources, samples);
    ASSERT_EQ(batched.size(), n);
    EXPECT_EQ(std::memcmp(batched.data(), rises.data(), n * sizeof(double)), 0);
  }
}

TEST(BackendAgreement, InfluenceOperatorsAgreePairwise) {
  const auto fp = small_plan();
  const auto samples = block_centre_samples(fp);
  const auto sources = fp.heat_sources(tech());

  const InfluenceOperator analytic(
      thermal::analytic_influence_columns(fp.die(), sources, samples, thermal::ImageOptions{}));
  thermal::FdmOptions fo;
  fo.nx = 24;
  fo.ny = 24;
  fo.nz = 12;
  const thermal::FdmThermalSolver fdm_solver(fp.die(), fo);
  const InfluenceOperator fdm(thermal::fdm_influence_columns(fdm_solver, sources, samples, true));
  const thermal::SpectralThermalSolver sp_solver(fp.die(), {});
  thermal::BackendCostStats sp_stats;
  const InfluenceOperator spectral(
      thermal::spectral_influence_columns(sp_solver, sources, samples, &sp_stats));

  ASSERT_EQ(analytic.size(), fdm.size());
  ASSERT_EQ(analytic.size(), spectral.size());
  EXPECT_EQ(sp_stats.influence_columns, static_cast<int>(sources.size()));
  EXPECT_EQ(sp_stats.modes, sp_solver.mode_count());
  for (std::size_t i = 0; i < analytic.size(); ++i) {
    for (std::size_t j = 0; j < analytic.size(); ++j) {
      // Spectral vs FDM: discretization plus the top-layer cell-centre depth
      // offset (FDM reports dz/2 below the surface). That offset concentrates
      // in the sharply peaked self-coupling, so the diagonal gets a wider
      // band; the matched-depth comparison in test_thermal_spectral.cpp pins
      // the solvers themselves to 2%.
      const double band = (i == j) ? 0.15 : 0.10;
      EXPECT_NEAR(spectral.at(i, j), fdm.at(i, j), band * fdm.at(i, j))
          << "spectral/fdm entry (" << i << ", " << j << ")";
      // Analytic carries the Eq. (20) min-estimator error on top.
      EXPECT_NEAR(analytic.at(i, j), spectral.at(i, j), 0.25 * spectral.at(i, j))
          << "analytic/spectral entry (" << i << ", " << j << ")";
    }
  }
}

TEST(BackendAgreement, SpectralInfluenceIsReciprocalOnSymmetricFloorplan) {
  const auto fp = small_plan();
  const thermal::SpectralThermalSolver solver(fp.die(), {});
  const InfluenceOperator op(thermal::spectral_influence_columns(
      solver, fp.heat_sources(tech()), block_centre_samples(fp)));
  for (std::size_t i = 0; i < op.size(); ++i) {
    for (std::size_t j = i + 1; j < op.size(); ++j) {
      EXPECT_NEAR(op.at(i, j), op.at(j, i), 1e-9 * op.at(i, j))
          << "pair (" << i << ", " << j << ")";
    }
  }
}

TEST(OptionValidation, CosimOptionsAreCheckedAtConstruction) {
  const auto fp = small_plan();
  auto expect_throw = [&](auto mutate) {
    CosimOptions opts;
    mutate(opts);
    EXPECT_THROW(ElectroThermalSolver(tech(), fp, opts), PreconditionError);
  };
  expect_throw([](CosimOptions& o) { o.damping = 0.0; });
  expect_throw([](CosimOptions& o) { o.damping = 1.5; });
  expect_throw([](CosimOptions& o) { o.tol = 0.0; });
  expect_throw([](CosimOptions& o) { o.tol = -1e-3; });
  expect_throw([](CosimOptions& o) { o.max_iterations = 0; });
  expect_throw([](CosimOptions& o) { o.runaway_rise_limit = 0.0; });
  expect_throw([](CosimOptions& o) { o.r_package = -0.1; });
}

TEST(OptionValidation, TransientOptionsAreCheckedAtEntry) {
  const auto fp = small_plan();
  const ActivityProfile nominal = [](std::size_t, double) { return 1.0; };
  auto expect_throw = [&](auto mutate) {
    TransientCosimOptions opts;
    opts.fdm.nx = 8;
    opts.fdm.ny = 8;
    opts.fdm.nz = 4;
    mutate(opts);
    EXPECT_THROW((void)solve_transient_cosim(tech(), fp, nominal, opts), PreconditionError);
  };
  expect_throw([](TransientCosimOptions& o) { o.dt = 0.0; });
  expect_throw([](TransientCosimOptions& o) { o.dt = -1e-4; });
  expect_throw([](TransientCosimOptions& o) { o.t_stop = 0.5e-4; });  // < dt
  expect_throw([](TransientCosimOptions& o) { o.record_every = 0; });
  // A steady-only backend must be rejected up front, not fail mid-run.
  // (Spectral is transient-capable since the exponential-integrator backend;
  // only the analytic image model remains steady-only.)
  expect_throw([](TransientCosimOptions& o) { o.backend = ThermalBackend::Analytic; });
}

TEST(OptionValidation, TransientRunsOnEveryTransientCapableBackend) {
  const auto fp = small_plan(1.0);
  const ActivityProfile nominal = [](std::size_t, double) { return 1.0; };
  for (ThermalBackend b : {ThermalBackend::Fdm, ThermalBackend::Spectral}) {
    TransientCosimOptions opts;
    opts.backend = b;
    opts.fdm.nx = 8;
    opts.fdm.ny = 8;
    opts.fdm.nz = 4;
    opts.dt = 1e-3;
    opts.t_stop = 5e-3;
    const auto r = solve_transient_cosim(tech(), fp, nominal, opts);
    EXPECT_EQ(r.times.size(), r.block_temps.size()) << backend_label(b);
    EXPECT_GT(r.peak_temperature(), die_1mm().t_sink) << backend_label(b);
    EXPECT_GT(r.total_cg_iterations, 0) << backend_label(b);
    EXPECT_EQ(r.backend_stats.transient_steps, 5) << backend_label(b);
  }
}

}  // namespace
}  // namespace ptherm::core
