#include "radiation/plugin.hpp"

#include "obs/trace.hpp"

namespace artsci::radiation {

RadiationPlugin::RadiationPlugin(DetectorConfig cfg, std::size_t speciesIdx)
    : speciesIdx_(speciesIdx), acc_(std::move(cfg)) {}

void RadiationPlugin::onStepEnd(pic::Simulation& sim) {
  TRACE_SCOPE("radiation", "accumulate");
  const auto& particles = sim.species(speciesIdx_);
  acc_.accumulate(particles, sim.betaDotX(speciesIdx_),
                  sim.betaDotY(speciesIdx_), sim.betaDotZ(speciesIdx_),
                  sim.time(), sim.dt(), sim.grid());
}

RegionRadiationPlugin::RegionRadiationPlugin(DetectorConfig cfg,
                                             std::size_t speciesIdx,
                                             double vortexHalfWidthCells)
    : speciesIdx_(speciesIdx),
      vortexHalfWidth_(vortexHalfWidthCells),
      acc_(std::move(cfg), 3) {}

std::vector<double> RegionRadiationPlugin::intensity(
    pic::KhiRegion region, std::size_t directionIdx) const {
  return acc_.intensity(directionIdx, static_cast<std::size_t>(region));
}

void RegionRadiationPlugin::onStepEnd(pic::Simulation& sim) {
  TRACE_SCOPE("radiation", "accumulate");
  const auto& particles = sim.species(speciesIdx_);
  const long ny = sim.grid().ny;
  region_.resize(particles.size());
  for (std::size_t i = 0; i < particles.size(); ++i)
    region_[i] = static_cast<std::uint8_t>(
        pic::classifyKhiRegion(particles.y[i], ny, vortexHalfWidth_));
  acc_.accumulate(particles, sim.betaDotX(speciesIdx_),
                  sim.betaDotY(speciesIdx_), sim.betaDotZ(speciesIdx_),
                  sim.time(), sim.dt(), sim.grid(), region_);
}

}  // namespace artsci::radiation
