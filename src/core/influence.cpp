#include "core/influence.hpp"

namespace ptherm::core {

std::vector<InfluenceSample> block_centre_samples(const floorplan::Floorplan& fp) {
  std::vector<InfluenceSample> samples;
  samples.reserve(fp.blocks().size());
  for (const auto& b : fp.blocks()) samples.push_back({b.rect.cx(), b.rect.cy()});
  return samples;
}

}  // namespace ptherm::core
