// Tests for the transient electro-thermal co-simulation.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cosim.hpp"
#include "core/transient.hpp"
#include "floorplan/generators.hpp"

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

floorplan::Floorplan small_plan(double p_total = 3.0) {
  Rng rng(77);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = p_total;
  cfg.gates_per_mm2 = 1e5;
  return floorplan::make_uniform_grid(tech(), die_1mm(), 2, 2, cfg, rng);
}

TransientCosimOptions fast_opts() {
  TransientCosimOptions opts;
  opts.fdm.nx = 16;
  opts.fdm.ny = 16;
  opts.fdm.nz = 10;
  opts.dt = 2e-4;
  opts.t_stop = 12e-3;
  return opts;
}

ActivityProfile constant_activity() {
  return [](std::size_t, double) { return 1.0; };
}

TEST(TransientCosim, HeatsMonotonicallyUnderConstantPower) {
  const auto fp = small_plan();
  const auto r = solve_transient_cosim(tech(), fp, constant_activity(), fast_opts());
  ASSERT_GT(r.times.size(), 10u);
  for (std::size_t k = 1; k < r.times.size(); ++k) {
    for (std::size_t i = 0; i < r.block_temps[k].size(); ++i) {
      EXPECT_GE(r.block_temps[k][i], r.block_temps[k - 1][i] - 1e-9)
          << "step " << k << " block " << i;
    }
  }
  EXPECT_GT(r.peak_temperature(), die_1mm().t_sink + 1.0);
}

TEST(TransientCosim, ApproachesSteadyCosimResult) {
  // Long transient under constant activity must land on the steady
  // concurrent solve (FDM backend, same grid).
  const auto fp = small_plan();
  auto opts = fast_opts();
  opts.t_stop = 60e-3;  // >> die time constant (~1.3 ms) and block scale
  const auto r = solve_transient_cosim(tech(), fp, constant_activity(), opts);

  CosimOptions sopts;
  sopts.backend = ThermalBackend::Fdm;
  sopts.fdm = opts.fdm;
  ElectroThermalSolver steady(tech(), fp, sopts);
  const auto s = steady.solve();
  ASSERT_TRUE(s.converged);
  for (std::size_t i = 0; i < s.blocks.size(); ++i) {
    EXPECT_NEAR(r.block_temps.back()[i], s.blocks[i].temperature, 0.2)
        << "block " << i;
  }
}

TEST(TransientCosim, LeakageGrowsAsDieHeats) {
  const auto fp = small_plan(5.0);
  const auto r = solve_transient_cosim(tech(), fp, constant_activity(), fast_opts());
  EXPECT_GT(r.leakage_power.back(), r.leakage_power.front());
}

TEST(TransientCosim, PowerStepShowsThermalLag) {
  // Activity steps from 0.2 to 1.0 at t = 4 ms: power jumps instantly, the
  // temperature follows with the substrate's time constant.
  const auto fp = small_plan(4.0);
  auto opts = fast_opts();
  opts.t_stop = 16e-3;
  ActivityProfile step = [](std::size_t, double t) { return t < 4e-3 ? 0.2 : 1.0; };
  const auto r = solve_transient_cosim(tech(), fp, step, opts);

  // Find the step index.
  std::size_t k_step = 0;
  for (std::size_t k = 1; k < r.times.size(); ++k) {
    if (r.dynamic_power[k] > 2.0 * r.dynamic_power[k - 1]) {
      k_step = k;
      break;
    }
  }
  ASSERT_GT(k_step, 0u);
  // Dynamic power is discontinuous; temperature is not: one step after the
  // jump the block has covered only a fraction of its eventual excursion.
  const double t_before = r.block_temps[k_step - 1][0];
  const double t_after = r.block_temps[k_step][0];
  const double t_final = r.block_temps.back()[0];
  ASSERT_GT(t_final, t_before + 1.0);
  EXPECT_LT(t_after - t_before, 0.5 * (t_final - t_before));
  EXPECT_GT(t_final, t_after + 1.0);
}

TEST(TransientCosim, CoolingPhaseDecays) {
  const auto fp = small_plan(4.0);
  auto opts = fast_opts();
  opts.t_stop = 16e-3;
  ActivityProfile pulse = [](std::size_t, double t) { return t < 6e-3 ? 1.0 : 0.0; };
  const auto r = solve_transient_cosim(tech(), fp, pulse, opts);
  const double peak = r.peak_temperature();
  const double final_t = r.block_temps.back()[0];
  EXPECT_LT(final_t, peak - 0.5);
}

TEST(TransientCosim, RecordEveryThinsTheTrace) {
  const auto fp = small_plan();
  auto opts = fast_opts();
  const auto dense = solve_transient_cosim(tech(), fp, constant_activity(), opts);
  opts.record_every = 5;
  const auto sparse = solve_transient_cosim(tech(), fp, constant_activity(), opts);
  EXPECT_LT(sparse.times.size(), dense.times.size());
  // Same final state regardless of recording cadence.
  EXPECT_NEAR(sparse.block_temps.back()[0], dense.block_temps.back()[0], 1e-9);
}

TEST(TransientCosim, RejectsBadConfiguration) {
  const auto fp = small_plan();
  auto opts = fast_opts();
  opts.dt = 0.0;
  EXPECT_THROW(solve_transient_cosim(tech(), fp, constant_activity(), opts),
               PreconditionError);
  opts = fast_opts();
  EXPECT_THROW(solve_transient_cosim(tech(), fp, ActivityProfile{}, opts),
               PreconditionError);
}

TEST(TransientCosim, SingleStepRunIsAccepted) {
  // t_stop == dt is one legitimate step, not a configuration error.
  const auto fp = small_plan();
  auto opts = fast_opts();
  opts.t_stop = opts.dt;
  const auto r = solve_transient_cosim(tech(), fp, constant_activity(), opts);
  ASSERT_EQ(r.times.size(), 2u);  // the initial record plus the one step
  EXPECT_DOUBLE_EQ(r.times[0], 0.0);
  EXPECT_DOUBLE_EQ(r.times[1], opts.dt);
  EXPECT_GT(r.block_temps[1][0], r.block_temps[0][0]);
}

TEST(TransientCosim, StepCountIsExactOnRepresentativeGrids) {
  // t_stop / dt drifts off the integer in floating point for these grids;
  // the step count must neither drop the final step nor append a spurious
  // near-zero one, and the last record must land exactly on t_stop.
  const auto fp = small_plan();
  auto opts = fast_opts();
  opts.fdm.nx = 8;
  opts.fdm.ny = 8;
  opts.fdm.nz = 4;
  for (const auto& [t_stop, dt, want_steps] : {std::tuple{12e-3, 2e-4, 60},
                                               std::tuple{6e-3, 1e-4, 60},
                                               std::tuple{12.5e-4, 1e-4, 13}}) {
    opts.dt = dt;
    opts.t_stop = t_stop;
    const auto r = solve_transient_cosim(tech(), fp, constant_activity(), opts);
    EXPECT_EQ(r.times.size(), static_cast<std::size_t>(want_steps) + 1)
        << "t_stop " << t_stop << " dt " << dt;
    EXPECT_DOUBLE_EQ(r.times.back(), t_stop);
  }
}

TEST(TransientCosim, SpectralBackendRunsAndSettlesOnItsSteadySolve) {
  // The spectral transient backend end to end: monotone heating under
  // constant power, and the long run lands on the spectral steady cosim
  // (same backend, so no cross-model tolerance is involved).
  const auto fp = small_plan();
  auto opts = fast_opts();
  opts.backend = ThermalBackend::Spectral;
  opts.t_stop = 60e-3;
  const auto r = solve_transient_cosim(tech(), fp, constant_activity(), opts);
  ASSERT_GT(r.times.size(), 10u);
  for (std::size_t k = 1; k < r.times.size(); ++k) {
    for (std::size_t i = 0; i < r.block_temps[k].size(); ++i) {
      EXPECT_GE(r.block_temps[k][i], r.block_temps[k - 1][i] - 1e-9)
          << "step " << k << " block " << i;
    }
  }
  CosimOptions sopts;
  sopts.backend = ThermalBackend::Spectral;
  ElectroThermalSolver steady(tech(), fp, sopts);
  const auto s = steady.solve();
  ASSERT_TRUE(s.converged);
  for (std::size_t i = 0; i < s.blocks.size(); ++i) {
    EXPECT_NEAR(r.block_temps.back()[i], s.blocks[i].temperature, 0.2) << "block " << i;
  }
  // The generic iteration counter counts one exact mode-space update per
  // step on this backend, and the cost counters expose the step total.
  const int steps = static_cast<int>(r.times.size()) - 1;
  EXPECT_EQ(r.total_cg_iterations, steps);
  EXPECT_EQ(r.backend_stats.transient_steps, steps);
  EXPECT_EQ(r.backend_stats.cg_iterations, 0);
  EXPECT_GT(r.backend_stats.modes, 0);
}

TEST(TransientCosim, SpectralTrajectoryTracksTheFdmTrajectory) {
  // Cross-backend trajectory agreement at the co-simulation level. The two
  // readbacks differ by the FDM top-layer cell-centre depth (dz/2) and the
  // reference's O(dt) backward-Euler error, so the band here is the loose
  // cosim-level one; the 2% matched-depth bar lives in
  // test_thermal_spectral.cpp where depth is controlled.
  const auto fp = small_plan();
  TransientCosimOptions fdm_opts;
  fdm_opts.backend = ThermalBackend::Fdm;
  fdm_opts.fdm.nx = 24;
  fdm_opts.fdm.ny = 24;
  fdm_opts.fdm.nz = 12;
  fdm_opts.dt = 1e-4;
  fdm_opts.t_stop = 8e-3;
  auto sp_opts = fdm_opts;
  sp_opts.backend = ThermalBackend::Spectral;
  const auto f = solve_transient_cosim(tech(), fp, constant_activity(), fdm_opts);
  const auto s = solve_transient_cosim(tech(), fp, constant_activity(), sp_opts);
  ASSERT_EQ(f.times.size(), s.times.size());
  const double sink = die_1mm().t_sink;
  for (std::size_t k = 1; k < f.times.size(); ++k) {
    if (f.times[k] < 1e-3) continue;  // skip the backward-Euler-dominated start
    for (std::size_t i = 0; i < f.block_temps[k].size(); ++i) {
      const double rise_f = f.block_temps[k][i] - sink;
      const double rise_s = s.block_temps[k][i] - sink;
      EXPECT_NEAR(rise_s, rise_f, 0.10 * rise_f)
          << "t = " << f.times[k] << " block " << i;
    }
  }
  // Total leakage trajectories must agree too (the electro-thermal feedback
  // sees near-identical temperatures).
  EXPECT_NEAR(s.leakage_power.back(), f.leakage_power.back(),
              0.10 * f.leakage_power.back());
}

// ------------------------------------------------ power-update epoch hook

TEST(TransientCosimHook, UnitEpochHookMatchesTheActivityPathBitwise) {
  // The activity-profile overload is specified as "exactly the hook overload
  // with the default power model": with power_update_every == 1 the two must
  // produce bit-identical trajectories on both transient-capable backends.
  const auto fp = small_plan();
  const auto& blocks = fp.blocks();
  const auto technology = tech();
  for (ThermalBackend backend : {ThermalBackend::Fdm, ThermalBackend::Spectral}) {
    auto opts = fast_opts();
    opts.backend = backend;
    opts.t_stop = 4e-3;
    const auto via_activity = solve_transient_cosim(technology, fp, constant_activity(), opts);
    const PowerUpdateHook hook = [&](long long, double, std::span<const double> temps,
                                     std::span<double> p_dyn, std::span<double> p_leak) {
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        p_dyn[i] = blocks[i].p_dynamic;  // constant activity 1.0
        p_leak[i] = blocks[i].leakage_power(technology, temps[i], opts.vb);
      }
    };
    const auto via_hook = solve_transient_cosim(technology, fp, hook, opts);
    ASSERT_EQ(via_hook.times.size(), via_activity.times.size());
    for (std::size_t k = 0; k < via_hook.times.size(); ++k) {
      EXPECT_EQ(via_hook.times[k], via_activity.times[k]);
      EXPECT_EQ(via_hook.leakage_power[k], via_activity.leakage_power[k]);
      EXPECT_EQ(via_hook.dynamic_power[k], via_activity.dynamic_power[k]);
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        EXPECT_EQ(via_hook.block_temps[k][i], via_activity.block_temps[k][i])
            << "backend " << static_cast<int>(backend) << " t " << via_hook.times[k];
      }
    }
  }
}

TEST(TransientCosimHook, EpochHeldPowersMatchPerStepWhenPowersAreConstant) {
  // With genuinely constant powers (no leakage content, constant activity)
  // holding them over 4-step epochs must not change the integration at all:
  // the same sources drive every step either way. The interior-step readback
  // skip and the backends' changed-power caches must both be invisible.
  Rng rng(12);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = 3.0;
  cfg.gates_per_mm2 = 0.0;  // leakage-free: powers are truly constant
  const auto fp = floorplan::make_uniform_grid(tech(), die_1mm(), 2, 2, cfg, rng);
  for (ThermalBackend backend : {ThermalBackend::Fdm, ThermalBackend::Spectral}) {
    auto opts = fast_opts();
    opts.backend = backend;
    opts.t_stop = 4.8e-3;    // 24 steps
    opts.record_every = 4;   // records land on epoch boundaries of both runs
    const auto per_step = solve_transient_cosim(tech(), fp, constant_activity(), opts);
    opts.power_update_every = 4;
    const auto per_epoch = solve_transient_cosim(tech(), fp, constant_activity(), opts);
    ASSERT_EQ(per_epoch.times.size(), per_step.times.size());
    for (std::size_t k = 0; k < per_epoch.times.size(); ++k) {
      for (std::size_t i = 0; i < fp.blocks().size(); ++i) {
        EXPECT_EQ(per_epoch.block_temps[k][i], per_step.block_temps[k][i])
            << "backend " << static_cast<int>(backend) << " t " << per_epoch.times[k];
      }
    }
    // The epoch run ingested the unchanged powers once; the per-step run's
    // backend saw the same thing (the caches key on values, not call
    // cadence) — both served every step.
    EXPECT_EQ(per_epoch.backend_stats.transient_steps, 24);
    EXPECT_EQ(per_epoch.backend_stats.transient_power_updates, 1);
    EXPECT_EQ(per_step.backend_stats.transient_power_updates, 1);
  }
}

TEST(TransientCosimHook, HookSeesEpochBoundariesAndItsPowersAreHeld) {
  const auto fp = small_plan();
  auto opts = fast_opts();
  opts.backend = ThermalBackend::Spectral;
  opts.dt = 1e-4;
  opts.t_stop = 3e-3;          // 30 steps
  opts.power_update_every = 10;  // 3 epochs
  opts.record_every = 10;
  std::vector<long long> epochs_seen;
  std::vector<double> times_seen;
  double first_temp = -1.0;
  const PowerUpdateHook hook = [&](long long epoch, double t, std::span<const double> temps,
                                   std::span<double> p_dyn, std::span<double> p_leak) {
    epochs_seen.push_back(epoch);
    times_seen.push_back(t);
    if (first_temp < 0.0) first_temp = temps[0];
    for (std::size_t i = 0; i < p_dyn.size(); ++i) {
      p_dyn[i] = 0.5 + 0.25 * static_cast<double>(epoch);  // distinct per epoch
      p_leak[i] = 0.01;
    }
  };
  const auto r = solve_transient_cosim(tech(), fp, hook, opts);
  ASSERT_EQ(epochs_seen.size(), 3u);
  EXPECT_EQ(epochs_seen, (std::vector<long long>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(times_seen[0], 0.0);
  EXPECT_DOUBLE_EQ(times_seen[1], 1e-3);
  EXPECT_DOUBLE_EQ(times_seen[2], 2e-3);
  EXPECT_DOUBLE_EQ(first_temp, die_1mm().t_sink);  // epoch 0 starts at the sink
  // Recorded totals are the epoch's held powers (4 blocks each).
  ASSERT_EQ(r.dynamic_power.size(), 4u);  // t = 0 plus the 3 epoch-end records
  EXPECT_DOUBLE_EQ(r.dynamic_power[0], 4 * 0.5);
  EXPECT_DOUBLE_EQ(r.dynamic_power[1], 4 * 0.5);
  EXPECT_DOUBLE_EQ(r.dynamic_power[2], 4 * 0.75);
  EXPECT_DOUBLE_EQ(r.dynamic_power[3], 4 * 1.0);
  EXPECT_DOUBLE_EQ(r.leakage_power[3], 4 * 0.01);
}

TEST(TransientCosimHook, RejectsBadEpochConfigurationAndNullHook) {
  const auto fp = small_plan();
  auto opts = fast_opts();
  opts.power_update_every = 0;
  EXPECT_THROW(solve_transient_cosim(tech(), fp, constant_activity(), opts),
               PreconditionError);
  opts = fast_opts();
  EXPECT_THROW(solve_transient_cosim(tech(), fp, PowerUpdateHook{}, opts),
               PreconditionError);
}

TEST(TransientCosimGoldens, ActivityProfileRunMatchesGoldens) {
  // Hexfloat pins of a short spectral run driven by an activity profile:
  // the profile hook's leakage evaluation and the plant feed these numbers.
  TransientCosimOptions opts;
  opts.backend = ThermalBackend::Spectral;
  opts.spectral.modes_x = 32;
  opts.spectral.modes_y = 32;
  opts.dt = 2e-4;
  opts.t_stop = 4e-3;
  opts.record_every = 20;
  const ActivityProfile alternating = [](std::size_t i, double t) {
    return 0.5 + 0.5 * static_cast<double>((i + static_cast<std::size_t>(t * 1e3)) % 2);
  };
  const auto r = solve_transient_cosim(tech(), small_plan(), alternating, opts);
  ASSERT_EQ(r.times.size(), 2u);
  EXPECT_EQ(r.leakage_power.back(), 0x1.0aa3b32ac04d8p-13);
  const std::vector<double> final_temps = {0x1.4563e2c4a4831p+8, 0x1.42cecab966966p+8,
                                           0x1.4563e28448c3ep+8, 0x1.42cec866c973bp+8};
  ASSERT_EQ(r.block_temps.back().size(), final_temps.size());
  for (std::size_t i = 0; i < final_temps.size(); ++i) {
    EXPECT_EQ(r.block_temps.back()[i], final_temps[i]) << "block " << i;
  }
}

}  // namespace
}  // namespace ptherm::core
