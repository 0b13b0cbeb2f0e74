// Tests for the batched scenario engine: bitwise batched-vs-sequential
// equivalence on every backend, chunk-size invariance, convergence-mask
// correctness, batch-size-independent Monte Carlo draws, V/f corner levels,
// and the dense/matrix-free boundary-fold agreement under batching.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cosim.hpp"
#include "core/scenario_batch.hpp"
#include "device/variation.hpp"
#include "floorplan/generators.hpp"

namespace ptherm::core {
namespace {

using device::Technology;
using device::VariationModel;

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

/// The sequential reference for scenario k: a standalone solver fed the
/// scenario's exact powers, technology, and adjustments. The batched engine
/// must reproduce this bitwise.
CosimResult reference_solve(const ScenarioBatch& batch, std::size_t k,
                            floorplan::Floorplan fp, const CosimOptions& opts) {
  const auto powers = batch.scenario_powers(k);
  auto& blocks = fp.blocks();
  for (std::size_t i = 0; i < blocks.size(); ++i) blocks[i].p_dynamic = powers[i];
  ElectroThermalSolver solver(batch.level_technology(batch.scenario_level(k)),
                              std::move(fp), opts);
  solver.set_leakage_adjust(batch.scenario_adjust(k));
  return solver.solve();
}

void expect_bitwise_equal(const ScenarioResult& got, const CosimResult& want,
                          std::size_t k) {
  EXPECT_EQ(got.converged, want.converged) << "scenario " << k;
  EXPECT_EQ(got.runaway, want.runaway) << "scenario " << k;
  EXPECT_EQ(got.iterations, want.iterations) << "scenario " << k;
  ASSERT_EQ(got.temperatures.size(), want.blocks.size()) << "scenario " << k;
  for (std::size_t i = 0; i < want.blocks.size(); ++i) {
    EXPECT_EQ(got.temperatures[i], want.blocks[i].temperature)
        << "scenario " << k << " block " << i;
  }
  EXPECT_EQ(got.max_temperature, want.max_temperature) << "scenario " << k;
  EXPECT_EQ(got.total_dynamic, want.total_dynamic) << "scenario " << k;
  EXPECT_EQ(got.total_leakage, want.total_leakage) << "scenario " << k;
  EXPECT_EQ(got.max_delta_last, want.max_delta_last) << "scenario " << k;
}

/// A batch mixing Monte Carlo variation, nominal, and V/f corner scenarios.
ScenarioBatch mixed_batch(const CosimOptions& opts, ScenarioBatchOptions bopts = {}) {
  ScenarioBatch batch(tech(), small_plan(), opts, bopts);
  batch.add_nominal();
  batch.add_variation_samples(VariationModel{0.03}, 6, /*base_seed=*/42);
  batch.add_vf_corner(tech().vdd * 0.85, 0.7);
  batch.add_vf_corner(tech().vdd * 1.1, 1.0);
  return batch;
}

TEST(ScenarioBatch, BitwiseEqualsSequentialOnAnalyticBackend) {
  CosimOptions opts;  // analytic, dense
  auto batch = mixed_batch(opts);
  const auto results = batch.solve_all();
  ASSERT_EQ(results.size(), 9u);
  for (std::size_t k = 0; k < results.size(); ++k) {
    EXPECT_TRUE(results[k].converged) << "scenario " << k;
    expect_bitwise_equal(results[k], reference_solve(batch, k, small_plan(), opts), k);
  }
}

TEST(ScenarioBatch, BitwiseEqualsSequentialOnFdmBackend) {
  CosimOptions opts;
  opts.backend = ThermalBackend::Fdm;
  opts.fdm.nx = 16;
  opts.fdm.ny = 16;
  opts.fdm.nz = 8;
  ScenarioBatch batch(tech(), small_plan(), opts);
  batch.add_nominal();
  batch.add_variation_samples(VariationModel{0.03}, 3, /*base_seed=*/7);
  const auto results = batch.solve_all();
  for (std::size_t k = 0; k < results.size(); ++k) {
    expect_bitwise_equal(results[k], reference_solve(batch, k, small_plan(), opts), k);
  }
}

TEST(ScenarioBatch, BitwiseEqualsSequentialOnSpectralMatrixFree) {
  CosimOptions opts;
  opts.backend = ThermalBackend::Spectral;
  opts.influence = InfluenceMode::MatrixFree;
  auto batch = mixed_batch(opts);
  EXPECT_TRUE(batch.matrix_free());
  const auto results = batch.solve_all();
  for (std::size_t k = 0; k < results.size(); ++k) {
    expect_bitwise_equal(results[k], reference_solve(batch, k, small_plan(), opts), k);
  }
}

TEST(ScenarioBatch, ResultsAreChunkSizeInvariant) {
  CosimOptions opts;
  opts.backend = ThermalBackend::Spectral;
  std::vector<std::vector<ScenarioResult>> runs;
  for (const int chunk : {1, 3, 64}) {
    ScenarioBatchOptions bopts;
    bopts.chunk = chunk;
    auto batch = mixed_batch(opts, bopts);
    runs.push_back(batch.solve_all());
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (std::size_t k = 0; k < runs[0].size(); ++k) {
      EXPECT_EQ(runs[r][k].iterations, runs[0][k].iterations);
      for (std::size_t i = 0; i < runs[0][k].temperatures.size(); ++i) {
        EXPECT_EQ(runs[r][k].temperatures[i], runs[0][k].temperatures[i])
            << "chunk run " << r << " scenario " << k << " block " << i;
      }
      EXPECT_EQ(runs[r][k].total_leakage, runs[0][k].total_leakage);
    }
  }
}

TEST(ScenarioBatch, ConvergenceMasksDropEasyScenariosEarly) {
  // One chunk holding scenarios with very different convergence speeds: the
  // cold corner converges in fewer Picard iterations than the hot one, so
  // the mask must retire it early (saved scenario-iterations > 0) without
  // perturbing anyone's trajectory.
  CosimOptions opts;
  opts.backend = ThermalBackend::Spectral;
  opts.damping = 0.5;  // slow enough that iteration counts spread out
  ScenarioBatch batch(tech(), small_plan(), opts);
  batch.add_vf_corner(tech().vdd * 0.7, 0.4);   // cold: fast convergence
  batch.add_nominal();
  batch.add_vf_corner(tech().vdd * 1.15, 1.0);  // hot: slow convergence
  const auto results = batch.solve_all();
  ASSERT_EQ(results.size(), 3u);
  int min_it = results[0].iterations, max_it = results[0].iterations;
  for (const auto& r : results) {
    ASSERT_TRUE(r.converged);
    min_it = std::min(min_it, r.iterations);
    max_it = std::max(max_it, r.iterations);
  }
  ASSERT_LT(min_it, max_it) << "test needs scenarios with different speeds";

  const auto& stats = batch.stats();
  EXPECT_EQ(stats.scenarios, 3);
  // All three rode one chunk, so the blocked sweeps ran to the slowest
  // scenario's count and the masks saved the difference.
  EXPECT_EQ(stats.batched_matvecs, max_it);
  EXPECT_EQ(stats.picard_iterations_total,
            results[0].iterations + results[1].iterations + results[2].iterations);
  EXPECT_EQ(stats.masked_iterations_saved,
            3LL * max_it - stats.picard_iterations_total);
  EXPECT_GT(stats.masked_iterations_saved, 0);

  // Masking never perturbs a trajectory: still bitwise-sequential.
  for (std::size_t k = 0; k < results.size(); ++k) {
    expect_bitwise_equal(results[k], reference_solve(batch, k, small_plan(), opts), k);
  }
}

TEST(ScenarioBatch, DenseAndMatrixFreeAgreeWithPackageResistance) {
  // The boundary fold under batching: dense carries r_package inside the
  // matrix, matrix-free folds r * sum(P) per blocked iteration. Both must
  // agree with each other (tightly) and with their own sequential reference
  // (bitwise).
  CosimOptions base;
  base.backend = ThermalBackend::Spectral;
  base.r_package = 0.4;
  CosimOptions dense = base;
  dense.influence = InfluenceMode::Dense;
  CosimOptions mfree = base;
  mfree.influence = InfluenceMode::MatrixFree;

  auto bd = mixed_batch(dense);
  auto bf = mixed_batch(mfree);
  EXPECT_FALSE(bd.matrix_free());
  EXPECT_TRUE(bf.matrix_free());
  const auto rd = bd.solve_all();
  const auto rf = bf.solve_all();
  ASSERT_EQ(rd.size(), rf.size());
  for (std::size_t k = 0; k < rd.size(); ++k) {
    expect_bitwise_equal(rd[k], reference_solve(bd, k, small_plan(), dense), k);
    expect_bitwise_equal(rf[k], reference_solve(bf, k, small_plan(), mfree), k);
    for (std::size_t i = 0; i < rd[k].temperatures.size(); ++i) {
      EXPECT_NEAR(rf[k].temperatures[i], rd[k].temperatures[i], 1e-9);
    }
  }
}

/// Spectral Auto options with r_package > 0, optionally closed by an
/// RC-network stack: the boundary fold moves into the matrix when a batch
/// resolves dense.
CosimOptions auto_spectral(bool rc_stack) {
  CosimOptions opts;
  opts.backend = ThermalBackend::Spectral;
  opts.r_package = 0.4;
  if (rc_stack) {
    thermal::BoundarySpec rc;
    rc.kind = thermal::BoundaryKind::RcNetwork;
    rc.rc.emplace(std::vector<thermal::ThermalRc>{{0.5, 0.1}, {0.3, 2.0}});
    opts.stack = thermal::DieStack(
        {{"die", die_1mm().thickness, die_1mm().k_si, die_1mm().cv_si}}, rc);
  }
  return opts;
}

TEST(ScenarioBatch, AutoAboveTheCrossoverIteratesOnTheDenseOperator) {
  // 64 samples on 9 blocks at 64 x 64 modes amortize the dense build (the
  // rule's crossover there is 27): each scenario then reproduces a
  // standalone InfluenceMode::Dense solve bitwise.
  for (const bool rc_stack : {false, true}) {
    const CosimOptions opts = auto_spectral(rc_stack);
    ScenarioBatch batch(tech(), small_plan(), opts);
    batch.add_variation_samples(VariationModel{0.03}, 64, /*base_seed=*/5);
    ASSERT_FALSE(batch.matrix_free()) << "rc_stack " << rc_stack;
    // The dense matrix is built lazily by the first solve_all, then cached.
    EXPECT_EQ(batch.cost_stats().influence_columns, 0);
    const auto results = batch.solve_all();
    EXPECT_EQ(batch.cost_stats().influence_columns,
              static_cast<long long>(batch.block_count()));
    (void)batch.solve_all();
    EXPECT_EQ(batch.cost_stats().influence_columns,
              static_cast<long long>(batch.block_count()));

    CosimOptions dense = opts;
    dense.influence = InfluenceMode::Dense;
    for (std::size_t k = 0; k < results.size(); ++k) {
      expect_bitwise_equal(results[k], reference_solve(batch, k, small_plan(), dense), k);
    }
  }
}

TEST(ScenarioBatch, AutoBelowTheCrossoverMatchesStandaloneAutoSolves) {
  // Nine scenarios do not pay for the dense build: the batch stays in mode
  // space and reproduces standalone Auto (matrix-free) solves bitwise.
  for (const bool rc_stack : {false, true}) {
    const CosimOptions opts = auto_spectral(rc_stack);
    auto batch = mixed_batch(opts);
    ASSERT_TRUE(batch.matrix_free()) << "rc_stack " << rc_stack;
    const auto results = batch.solve_all();
    EXPECT_EQ(batch.cost_stats().influence_columns, 0);
    for (std::size_t k = 0; k < results.size(); ++k) {
      expect_bitwise_equal(results[k], reference_solve(batch, k, small_plan(), opts), k);
    }
  }
}

TEST(ScenarioBatch, AutoResolvesForTheScenariosQueuedNow) {
  // The choice follows the queue: a batch grown past the crossover switches
  // to the dense operator, and forced modes never switch.
  CosimOptions opts;
  opts.backend = ThermalBackend::Spectral;
  ScenarioBatch batch(tech(), small_plan(), opts);
  EXPECT_TRUE(batch.matrix_free());
  batch.add_variation_samples(VariationModel{0.03}, 26, /*base_seed=*/3);
  EXPECT_TRUE(batch.matrix_free());
  batch.add_nominal();
  EXPECT_FALSE(batch.matrix_free());

  opts.influence = InfluenceMode::MatrixFree;
  ScenarioBatch forced(tech(), small_plan(), opts);
  forced.add_variation_samples(VariationModel{0.03}, 1000, /*base_seed=*/3);
  EXPECT_TRUE(forced.matrix_free());
}

TEST(ScenarioBatch, VariationDrawsAreBatchSizeIndependent) {
  // Queueing more Monte Carlo samples must never change the earlier ones:
  // sample s draws from Rng::stream(base_seed, s) regardless of batch size.
  // Both batches pinned to the mode-space operator: the subject is the RNG
  // streams, and under Auto 3 and 24 samples need not resolve alike.
  CosimOptions opts;
  opts.backend = ThermalBackend::Spectral;
  opts.influence = InfluenceMode::MatrixFree;
  ScenarioBatch small(tech(), small_plan(), opts);
  ScenarioBatch large(tech(), small_plan(), opts);
  small.add_variation_samples(VariationModel{0.03}, 3, /*base_seed=*/11);
  large.add_variation_samples(VariationModel{0.03}, 24, /*base_seed=*/11);
  const auto rs = small.solve_all();
  const auto rl = large.solve_all();
  for (std::size_t k = 0; k < rs.size(); ++k) {
    const auto adj_s = small.scenario_adjust(k);
    const auto adj_l = large.scenario_adjust(k);
    for (std::size_t j = 0; j < adj_s.size(); ++j) {
      EXPECT_EQ(adj_s[j].delta_vt0, adj_l[j].delta_vt0);
    }
    for (std::size_t i = 0; i < rs[k].temperatures.size(); ++i) {
      EXPECT_EQ(rs[k].temperatures[i], rl[k].temperatures[i]);
    }
    EXPECT_EQ(rs[k].total_leakage, rl[k].total_leakage);
  }
}

TEST(ScenarioBatch, VfLevelsScaleDynamicPowerThroughThePowerModel) {
  CosimOptions opts;
  ScenarioBatch batch(tech(), small_plan(), opts);
  // Level 0 is implicit and exactly transparent.
  EXPECT_EQ(batch.level_count(), 1);
  EXPECT_EQ(batch.level_dynamic_scale(0), 1.0);
  EXPECT_EQ(batch.add_vf_level(tech().vdd, 1.0), 0);  // exact match reuses it

  const int low = batch.add_vf_level(tech().vdd * 0.8, 0.5);
  EXPECT_EQ(low, 1);
  // P ~ alpha f C V^2: the scale is exactly (V/V0)^2 * f_scale.
  EXPECT_NEAR(batch.level_dynamic_scale(low), 0.8 * 0.8 * 0.5, 1e-12);
  // Lower supply raises the effective threshold (DIBL): less leaky tech.
  EXPECT_GT(batch.level_technology(low).vt0_n, tech().vt0_n);

  // Same corner twice resolves to the same level.
  EXPECT_EQ(batch.add_vf_level(tech().vdd * 0.8, 0.5), low);
  const std::size_t k = batch.add_vf_corner(tech().vdd * 0.8, 0.5);
  EXPECT_EQ(batch.scenario_level(k), low);
  const auto powers = batch.scenario_powers(k);
  const auto plan = small_plan();
  const auto& nominal = plan.blocks();
  for (std::size_t i = 0; i < powers.size(); ++i) {
    EXPECT_EQ(powers[i], nominal[i].p_dynamic * batch.level_dynamic_scale(low));
  }
}

TEST(ScenarioBatch, CostStatsMergeBatchCountersOntoBackend) {
  CosimOptions opts;
  opts.backend = ThermalBackend::Spectral;
  auto batch = mixed_batch(opts);
  const auto before = batch.cost_stats();
  EXPECT_EQ(before.scenarios, 0);
  (void)batch.solve_all();
  const auto after = batch.cost_stats();
  EXPECT_EQ(after.scenarios, 9);
  EXPECT_GT(after.batched_matvecs, 0);
  EXPECT_GE(after.picard_iterations_total, after.batched_matvecs);
  EXPECT_GE(after.masked_iterations_saved, 0);
  // Backend counters ride along in the same struct.
  EXPECT_GT(after.modes, 0);
}

TEST(ScenarioBatch, RejectsBadInput) {
  CosimOptions opts;
  ScenarioBatchOptions bad;
  bad.chunk = 0;
  EXPECT_THROW(ScenarioBatch(tech(), small_plan(), opts, bad), PreconditionError);
  ScenarioBatch batch(tech(), small_plan(), opts);
  EXPECT_THROW(batch.add_scenario(std::vector<double>(4, 0.1)), PreconditionError);
  EXPECT_THROW(batch.add_nominal(3), PreconditionError);
  EXPECT_THROW(batch.add_vf_level(-1.0, 1.0), PreconditionError);
  EXPECT_THROW((void)batch.scenario_powers(0), PreconditionError);
  EXPECT_THROW(for_each_chunk(4, 0, [](std::size_t, std::size_t) {}), PreconditionError);
}

TEST(ScenarioBatch, ForEachChunkCoversTheRangeInOrder) {
  std::vector<std::pair<std::size_t, std::size_t>> seen;
  for_each_chunk(10, 4, [&](std::size_t b, std::size_t e) { seen.emplace_back(b, e); });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<std::size_t, std::size_t>{0, 4}));
  EXPECT_EQ(seen[1], (std::pair<std::size_t, std::size_t>{4, 8}));
  EXPECT_EQ(seen[2], (std::pair<std::size_t, std::size_t>{8, 10}));
  seen.clear();
  for_each_chunk(0, 4, [&](std::size_t b, std::size_t e) { seen.emplace_back(b, e); });
  EXPECT_TRUE(seen.empty());
}

}  // namespace
}  // namespace ptherm::core
