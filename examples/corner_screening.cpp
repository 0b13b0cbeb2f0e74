// V/f corner screening through the batched scenario engine: every supply x
// frequency operating point of a manycore plan solved concurrently
// (power-thermal fixed point each) against ONE shared geometry precompute.
// The screen answers the sign-off question "which corners are thermally
// safe?" — a corner passes when its solve converges (no leakage-thermal
// runaway) and its hottest block stays under the junction limit. Dynamic
// power scales as (V/V0)^2 (f/f0) through the power model; leakage sees the
// DIBL-consistent supply rewrite (device::at_supply), so low-V corners leak
// exponentially less — the asymmetry the screen exists to expose.
//
// Build & run:  ./examples/corner_screening [analytic|fdm|spectral]
//               (default spectral; unknown or trailing arguments fail)
#include <cstddef>
#include <cstdio>
#include <iostream>

#include "core/api.hpp"
#include "core/scenario_batch.hpp"
#include "floorplan/generators.hpp"
#include "transient_backend_arg.hpp"

int main(int argc, char** argv) {
  using namespace ptherm;

  const auto backend = examples::parse_steady_backend(argc, argv);
  if (!backend) return examples::kUsageExitStatus;
  core::CosimOptions opts;
  opts.backend = *backend;
  if (opts.backend == core::ThermalBackend::Fdm) {
    opts.fdm.nx = 24;
    opts.fdm.ny = 24;
    opts.fdm.nz = 12;
  }

  thermal::Die die;
  die.width = 4e-3;
  die.height = 4e-3;
  die.thickness = 350e-6;
  die.k_si = kSiliconThermalConductivity;
  die.t_sink = celsius(45.0);

  Rng rng(314);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = 24.0;
  cfg.gates_per_mm2 = 50e3;
  const auto tech = device::Technology::cmos012();
  const auto fp = floorplan::make_manycore(tech, die, 3, 3, cfg, rng);

  const double t_limit = celsius(110.0);
  const double v_fracs[] = {0.8, 0.9, 1.0, 1.1};
  const double f_scales[] = {0.5, 0.75, 1.0};

  core::ScenarioBatch batch(tech, fp, opts);
  for (const double vf : v_fracs) {
    for (const double fs : f_scales) batch.add_vf_corner(tech.vdd * vf, fs);
  }
  const auto results = batch.solve_all();

  std::cout << "Corner screening (" << batch.backend().name() << " backend, "
            << (batch.matrix_free() ? "matrix-free" : "dense") << " influence): "
            << results.size() << " corners over " << batch.block_count()
            << " blocks, junction limit " << to_celsius(t_limit) << " C\n";
  std::cout << "  V/Vnom  f/fnom  P_dyn_W  P_leak_mW  Tmax_C  verdict\n";

  std::size_t k = 0;
  std::size_t safe = 0;
  bool all_resolved = true;
  for (const double vf : v_fracs) {
    for (const double fs : f_scales) {
      const auto& r = results[k++];
      const bool pass = r.converged && r.max_temperature <= t_limit;
      safe += pass ? 1 : 0;
      all_resolved = all_resolved && (r.converged || r.runaway);
      std::printf("  %6.2f  %6.2f  %7.2f  %9.3f  %6.1f  %s\n", vf, fs, r.total_dynamic,
                  1e3 * r.total_leakage, to_celsius(r.max_temperature),
                  r.runaway                    ? "RUNAWAY"
                  : !r.converged               ? "UNRESOLVED"
                  : r.max_temperature > t_limit ? "over-limit"
                                                : "safe");
    }
  }

  const auto stats = batch.cost_stats();
  std::cout << "  " << safe << "/" << results.size() << " corners safe; "
            << stats.batched_matvecs << " blocked sweeps for "
            << stats.picard_iterations_total << " scenario-iterations ("
            << stats.masked_iterations_saved << " saved by convergence masks)\n";

  // The nominal corner of a sane plan must screen as safe; and every corner
  // must resolve to a definite verdict (converged or flagged runaway).
  const std::size_t nominal = 8;  // vf = 1.0 (3rd of 4), fs = 1.0 (3rd of 3)
  if (!results[nominal].converged || results[nominal].max_temperature > t_limit) {
    std::cerr << "nominal corner failed the screen\n";
    return 1;
  }
  return all_resolved ? 0 : 1;
}
