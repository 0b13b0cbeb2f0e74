// Golden values for the two kernels a fresh steady solve spends its time in,
// stored as hexfloats (tests/data/influence_goldens.txt) so every comparison
// is bitwise:
//  * analytic_influence_columns, the image-model influence build, on seeded
//    make_uniform_grid / make_manycore / make_hotspot_map plans and on a
//    hand-made plan of edge cases (a source centred on the x = 0 wall, a
//    source on the y = 0 wall, a partly clipped corner source, a fully
//    off-die source, a line source, and samples off the block centres and
//    outside the die), under the default images, lateral order 0 and no
//    bottom images;
//  * SpectralThermalSolver::apply_influence, the matrix-free apply, for 1, 5
//    and 37 sources with a block of 64 power vectors; blocks of 1 and 3
//    vectors must reproduce the first vectors of that block.
// Equivalence tests compare two routes through a kernel with each other;
// these compare the kernels with fixed numbers, so a change that moves any
// bit of either fails here.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "floorplan/generators.hpp"
#include "thermal/backend.hpp"
#include "thermal/spectral.hpp"

namespace ptherm {
namespace {

using thermal::HeatSource;
using thermal::SurfaceSample;

/// One pinned result: `rows` x `cols` doubles, row-major.
struct GoldenCase {
  std::string name;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<double> values;
};

thermal::Die die(double width, double height, double thickness) {
  thermal::Die d;
  d.width = width;
  d.height = height;
  d.thickness = thickness;
  d.k_si = 148.0;
  d.t_sink = 358.15;
  return d;
}

std::vector<SurfaceSample> centres(const std::vector<HeatSource>& sources) {
  std::vector<SurfaceSample> samples;
  for (const auto& s : sources) samples.push_back({s.cx, s.cy});
  return samples;
}

GoldenCase analytic_case(std::string name, const thermal::Die& d,
                         const std::vector<HeatSource>& sources,
                         const std::vector<SurfaceSample>& samples,
                         const thermal::ImageOptions& opts) {
  const numerics::Matrix r = thermal::analytic_influence_columns(d, sources, samples, opts);
  GoldenCase c{std::move(name), r.rows(), r.cols(), {}};
  for (std::size_t i = 0; i < r.rows(); ++i) {
    for (std::size_t j = 0; j < r.cols(); ++j) c.values.push_back(r(i, j));
  }
  return c;
}

/// The generators only supply geometry here (the build ignores powers).
std::vector<GoldenCase> analytic_plan_cases() {
  const device::Technology tech = device::Technology::cmos012();
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = 100.0;
  const thermal::Die d4 = die(4e-3, 4e-3, 300e-6);
  const thermal::Die d1 = die(1e-3, 1e-3, 350e-6);
  std::vector<GoldenCase> cases;
  const auto add = [&](std::string name, const thermal::Die& d, const floorplan::Floorplan& fp) {
    const auto sources = fp.heat_sources(tech);
    cases.push_back(analytic_case(std::move(name), d, sources, centres(sources), {}));
  };
  Rng rng(31);
  add("analytic_grid_4x4_4mm", d4, floorplan::make_uniform_grid(tech, d4, 4, 4, cfg, rng));
  add("analytic_grid_3x3_1mm", d1, floorplan::make_uniform_grid(tech, d1, 3, 3, cfg, rng));
  add("analytic_manycore_3x3_4mm", d4, floorplan::make_manycore(tech, d4, 3, 3, cfg, rng));
  add("analytic_hotspot_4_4mm", d4, floorplan::make_hotspot_map(tech, d4, 4, 0.35, cfg, rng));
  return cases;
}

/// A 2 mm x 1.5 mm die whose sources and samples sit where the image model's
/// special cases live.
std::vector<GoldenCase> analytic_edge_cases() {
  const thermal::Die d = die(2e-3, 1.5e-3, 200e-6);
  const std::vector<HeatSource> sources = {
      {0.0, 0.6e-3, 0.3e-3, 0.2e-3, 1.0},         // centred on the x = 0 wall
      {1.95e-3, 1.45e-3, 0.2e-3, 0.3e-3, 1.0},    // clipped at the far corner
      {2.5e-3, 0.5e-3, 0.2e-3, 0.2e-3, 1.0},      // fully off the die
      {1.0e-3, 0.75e-3, 0.1e-3, 0.6e-3, 1.0},     // line source along y
      {0.4e-3, 0.2e-3, 0.25e-3, 0.25e-3, 1.0},    // square, near a corner
      {1.5e-3, 0.0, 0.4e-3, 0.1e-3, 1.0},         // centred on the y = 0 wall
  };
  const std::vector<SurfaceSample> samples = {
      {0.0, 0.6e-3},          // on the wall, at source 0's centre
      {1.9e-3, 1.4e-3},       // inside source 1, off its centre
      {2.1e-3, 0.5e-3},       // beyond the x = W wall
      {1.02e-3, 0.9e-3},      // inside the line source, off its centre
      {-0.1e-3, -0.05e-3},    // below both walls
      {1.5e-3, 0.05e-3},      // inside source 5, off its centre
  };
  thermal::ImageOptions no_lateral;
  no_lateral.lateral_order = 0;
  thermal::ImageOptions no_bottom;
  no_bottom.bottom_images = false;
  return {analytic_case("analytic_edges_default", d, sources, samples, {}),
          analytic_case("analytic_edges_lateral_order_0", d, sources, samples, no_lateral),
          analytic_case("analytic_edges_no_bottom_images", d, sources, samples, no_bottom)};
}

constexpr std::size_t kVectors = 64;

thermal::SpectralThermalSolver spectral_solver() {
  thermal::SpectralOptions opts;
  opts.modes_x = 31;  // unequal, odd counts: an axis mix-up cannot cancel
  opts.modes_y = 24;
  return thermal::SpectralThermalSolver(die(4e-3, 3e-3, 300e-6), opts);
}

/// n seeded rectangles; with n > 1 the last two are partly and fully off-die.
std::vector<HeatSource> spectral_sources(std::size_t n) {
  Rng rng(101 + n);
  std::vector<HeatSource> sources;
  for (std::size_t j = 0; j < n; ++j) {
    sources.push_back({rng.uniform(0.2e-3, 3.8e-3), rng.uniform(0.2e-3, 2.8e-3),
                       rng.uniform(0.1e-3, 0.6e-3), rng.uniform(0.1e-3, 0.6e-3), 0.0});
  }
  if (n > 1) {
    sources[n - 2].cx = 3.9e-3;
    sources[n - 1].cx = 5.0e-3;
  }
  return sources;
}

/// Vector k of a block; the same for every block size, so a smaller block is
/// a prefix of a larger one. Every seventh power and all of vector 5 are 0.
std::vector<double> spectral_powers(std::size_t n, std::size_t count) {
  Rng rng(202 + n);
  std::vector<double> powers(count * n);
  for (std::size_t i = 0; i < powers.size(); ++i) {
    const double p = rng.uniform(0.0, 2.0);
    powers[i] = (i % 7 == 3 || i / n == 5) ? 0.0 : p;
  }
  return powers;
}

std::vector<double> spectral_apply(std::size_t n, std::size_t count) {
  const auto solver = spectral_solver();
  const auto sources = spectral_sources(n);
  auto proj = solver.make_influence_projection(sources, centres(sources));
  const std::vector<double> powers = spectral_powers(n, count);
  std::vector<double> rises(count * n);
  solver.apply_influence(proj, powers, rises, count);
  return rises;
}

const std::size_t kSpectralSizes[] = {1, 5, 37};

std::vector<GoldenCase> spectral_cases() {
  std::vector<GoldenCase> cases;
  for (const std::size_t n : kSpectralSizes) {
    cases.push_back({"spectral_apply_n" + std::to_string(n), kVectors, n,
                     spectral_apply(n, kVectors)});
  }
  return cases;
}

std::map<std::string, GoldenCase> load_goldens() {
  std::map<std::string, GoldenCase> goldens;
  std::ifstream in(std::string(PTHERM_TEST_DATA_DIR) + "/influence_goldens.txt");
  GoldenCase* current = nullptr;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::string word;
    row >> word;
    if (word == "case") {
      std::string name;
      row >> name;
      current = &goldens[name];
      current->name = name;
      row >> current->rows >> current->cols;
      continue;
    }
    if (current == nullptr) continue;
    do {
      current->values.push_back(std::strtod(word.c_str(), nullptr));
    } while (row >> word);
  }
  return goldens;
}

const std::map<std::string, GoldenCase>& goldens() {
  static const std::map<std::string, GoldenCase> g = load_goldens();
  return g;
}

/// Bitwise comparison of the first `values.size()` golden entries; reports
/// the mismatch count and the first mismatch instead of one line per entry.
void expect_bitwise(const std::string& name, const std::vector<double>& values) {
  const auto it = goldens().find(name);
  ASSERT_NE(it, goldens().end()) << "no golden case " << name;
  const GoldenCase& want = it->second;
  ASSERT_EQ(want.values.size(), want.rows * want.cols) << name;
  ASSERT_LE(values.size(), want.values.size()) << name;
  std::size_t mismatches = 0;
  std::size_t first = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(values[i]) !=
        std::bit_cast<std::uint64_t>(want.values[i])) {
      if (mismatches++ == 0) first = i;
    }
  }
  EXPECT_EQ(mismatches, 0u) << name << ": first mismatch at entry " << first << " (row "
                            << first / want.cols << ", column " << first % want.cols
                            << "): got " << std::hexfloat << values[first] << ", want "
                            << want.values[first];
}

void expect_case(const GoldenCase& c) {
  const auto it = goldens().find(c.name);
  ASSERT_NE(it, goldens().end()) << "no golden case " << c.name;
  EXPECT_EQ(c.rows, it->second.rows) << c.name;
  EXPECT_EQ(c.cols, it->second.cols) << c.name;
  ASSERT_EQ(c.values.size(), it->second.values.size()) << c.name;
  expect_bitwise(c.name, c.values);
}

TEST(InfluenceGoldens, AnalyticColumnsOnGeneratedPlans) {
  for (const GoldenCase& c : analytic_plan_cases()) expect_case(c);
}

TEST(InfluenceGoldens, AnalyticColumnsOnEdgeCases) {
  const auto cases = analytic_edge_cases();
  for (const GoldenCase& c : cases) expect_case(c);
  // The fully off-die source radiates nothing under any image options.
  for (const GoldenCase& c : cases) {
    for (std::size_t i = 0; i < c.rows; ++i) EXPECT_EQ(c.values[i * c.cols + 2], 0.0) << c.name;
  }
}

TEST(InfluenceGoldens, SpectralApplyBlockOf64) {
  for (const GoldenCase& c : spectral_cases()) expect_case(c);
}

TEST(InfluenceGoldens, SpectralApplySmallBlocksArePrefixes) {
  for (const std::size_t n : kSpectralSizes) {
    for (const std::size_t count : {std::size_t{1}, std::size_t{3}}) {
      SCOPED_TRACE("count " + std::to_string(count));
      expect_bitwise("spectral_apply_n" + std::to_string(n), spectral_apply(n, count));
    }
  }
}

}  // namespace
}  // namespace ptherm
