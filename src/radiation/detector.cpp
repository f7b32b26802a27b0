#include "radiation/detector.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "common/target_clones.hpp"
#include "common/units.hpp"
#include "radiation/sincos.hpp"

namespace artsci::radiation {
namespace {

/// Strided partial sums per component: lane u takes packed particles
/// q*8 + u, the tail below the last full group lands in lanes 0.. in order,
/// and the lanes are added 0..7. The order is fixed here, not by the
/// vector width, so every clone and thread count gives the same bits.
constexpr std::size_t kLanes = 8;

/// Below this many (particle, slot) pairs a step runs on the calling
/// thread: forking a team would cost more than the sum. Same bits either
/// way, since no sum order depends on the team.
constexpr std::size_t kMinParallelPairs = std::size_t{1} << 14;

/// sum_p k_p e^{-i omega nr_p} over one packed group. out[c] and out[c+3]
/// are the real and imaginary parts of component c (x, y, z).
ARTSCI_TARGET_CLONES
void phaseSum(const double* __restrict kx, const double* __restrict ky,
              const double* __restrict kz, const double* __restrict nr,
              std::size_t count, double omega, double* __restrict out) {
  double cx[kLanes] = {}, cy[kLanes] = {}, cz[kLanes] = {};
  double sx[kLanes] = {}, sy[kLanes] = {}, sz[kLanes] = {};
  std::size_t q = 0;
  for (; q + kLanes <= count; q += kLanes) {
#pragma omp simd
    for (std::size_t u = 0; u < kLanes; ++u) {
      const SinCos e = sincosBounded(omega * nr[q + u]);
      cx[u] += kx[q + u] * e.cos;
      cy[u] += ky[q + u] * e.cos;
      cz[u] += kz[q + u] * e.cos;
      sx[u] += kx[q + u] * e.sin;
      sy[u] += ky[q + u] * e.sin;
      sz[u] += kz[q + u] * e.sin;
    }
  }
  for (std::size_t u = 0; q < count; ++q, ++u) {
    const SinCos e = sincosBounded(omega * nr[q]);
    cx[u] += kx[q] * e.cos;
    cy[u] += ky[q] * e.cos;
    cz[u] += kz[q] * e.cos;
    sx[u] += kx[q] * e.sin;
    sy[u] += ky[q] * e.sin;
    sz[u] += kz[q] * e.sin;
  }
  const double* lanes[6] = {cx, cy, cz, sx, sy, sz};
  for (std::size_t c = 0; c < 6; ++c) {
    double s = lanes[c][0];
    for (std::size_t u = 1; u < kLanes; ++u) s += lanes[c][u];
    out[c] = c < 3 ? s : -s;  // e^{-ix} = cos x - i sin x
  }
}

}  // namespace

std::vector<double> logFrequencyAxis(double omegaMin, double omegaMax,
                                     std::size_t count) {
  ARTSCI_EXPECTS(omegaMin > 0 && omegaMax > omegaMin && count >= 2);
  std::vector<double> out(count);
  const double logMin = std::log10(omegaMin);
  const double step = (std::log10(omegaMax) - logMin) /
                      static_cast<double>(count - 1);
  for (std::size_t i = 0; i < count; ++i)
    out[i] = std::pow(10.0, logMin + step * static_cast<double>(i));
  return out;
}

DetectorConfig DetectorConfig::defaultKhi(std::size_t frequencyCount) {
  DetectorConfig cfg;
  // One detector on the +x axis: the +beta stream approaches it, the
  // -beta stream recedes (Fig 1's "approaching"/"receding" arrows).
  cfg.directions = {Vec3d{1.0, 0.0, 0.0}};
  cfg.frequencies = logFrequencyAxis(0.1, 100.0, frequencyCount);
  return cfg;
}

SpectralAccumulator::SpectralAccumulator(DetectorConfig cfg,
                                         std::size_t groups)
    : cfg_(std::move(cfg)), groups_(groups) {
  ARTSCI_EXPECTS(!cfg_.directions.empty());
  ARTSCI_EXPECTS(!cfg_.frequencies.empty());
  ARTSCI_EXPECTS(groups_ >= 1 && groups_ <= 256);
  for (const auto& n : cfg_.directions)
    ARTSCI_EXPECTS_MSG(std::abs(n.norm() - 1.0) < 1e-9,
                       "detector directions must be unit vectors");
  amp_.assign(groups_ * cfg_.directions.size() * cfg_.frequencies.size() * 3,
              std::complex<double>(0.0, 0.0));
}

void SpectralAccumulator::reset() {
  std::fill(amp_.begin(), amp_.end(), std::complex<double>(0.0, 0.0));
}

void SpectralAccumulator::accumulate(
    const pic::ParticleBuffer& particles, const std::vector<double>& bdx,
    const std::vector<double>& bdy, const std::vector<double>& bdz,
    double time, double dt, const pic::GridSpec& grid,
    std::span<const std::uint8_t> groupOf) {
  ARTSCI_EXPECTS_MSG(bdx.size() == particles.size(),
                     "betaDot arrays missing — build the Simulation with "
                     "recordBetaDot=true");
  ARTSCI_EXPECTS(bdy.size() == bdx.size() && bdz.size() == bdx.size());
  ARTSCI_EXPECTS(groupOf.empty() || groupOf.size() == particles.size());
  const std::size_t count = particles.size();
  const std::size_t nDir = cfg_.directions.size();
  const std::size_t nFreq = cfg_.frequencies.size();

  // Stage 1a: pack group by group (counting sort, ascending index).
  groupBegin_.assign(groups_ + 1, 0);
  if (groupOf.empty()) groupBegin_[1] = count;
  for (const std::uint8_t g : groupOf) {
    ARTSCI_EXPECTS_MSG(g < groups_, "particle group label out of range");
    ++groupBegin_[g + 1];
  }
  std::partial_sum(groupBegin_.begin(), groupBegin_.end(), groupBegin_.begin());
  std::array<std::size_t, 256> cursor{};
  std::copy(groupBegin_.begin(), groupBegin_.end() - 1, cursor.begin());
  order_.resize(count);
  for (std::size_t i = 0; i < count; ++i)
    order_[cursor[groupOf.empty() ? 0 : groupOf[i]]++] = i;

  kx_.resize(nDir * count);
  ky_.resize(nDir * count);
  kz_.resize(nDir * count);
  nr_.resize(nDir * count);
  double maxAbsOmega = 0.0;
  for (const double omega : cfg_.frequencies)
    maxAbsOmega = std::max(maxAbsOmega, std::abs(omega));
  double maxAbsNr = 0.0;
  const std::size_t slots = groups_ * nDir * nFreq;

#pragma omp parallel if (count * slots >= kMinParallelPairs)
  {
    // Stage 1b: frequency-independent terms per (direction, packed
    // particle), and the largest |n.r| for the phase-range contract.
#pragma omp for schedule(static) reduction(max : maxAbsNr)
    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t i = order_[j];
      const double invGamma = 1.0 / particles.gamma(i);
      const Vec3d beta{particles.ux[i] * invGamma, particles.uy[i] * invGamma,
                       particles.uz[i] * invGamma};
      const Vec3d betaDot{bdx[i], bdy[i], bdz[i]};
      const Vec3d r{particles.x[i] * grid.dx, particles.y[i] * grid.dy,
                    particles.z[i] * grid.dz};
      const double wdt = particles.w[i] * dt;
      for (std::size_t d = 0; d < nDir; ++d) {
        const Vec3d n = cfg_.directions[d];
        const double oneMinusNBeta = 1.0 - n.dot(beta);
        // Far-field kernel n x ((n - beta) x betaDot) / (1 - n.beta)^2.
        const Vec3d kernel = n.cross((n - beta).cross(betaDot)) *
                             (wdt / (oneMinusNBeta * oneMinusNBeta));
        const std::size_t at = d * count + j;
        kx_[at] = kernel.x;
        ky_[at] = kernel.y;
        kz_[at] = kernel.z;
        nr_[at] = n.dot(r);
        maxAbsNr = std::max(maxAbsNr, std::abs(nr_[at]));
      }
    }
    // The loop's barrier has published the reduced maximum to every
    // thread, so all of them take the same branch; out of range, no slot
    // is touched and the contract below throws outside the region.
    if (maxAbsOmega * maxAbsNr <= kSincosMaxArg) {
      // Stages 2+3: one work item per (group, direction, frequency) slot;
      // each owns its amplitudes, and phaseSum alone fixes its sum order.
#pragma omp for schedule(static, 1)
      for (std::size_t s = 0; s < slots; ++s) {
        const std::size_t f = s % nFreq;
        const std::size_t d = s / nFreq % nDir;
        const std::size_t g = s / nFreq / nDir;
        const std::size_t begin = groupBegin_[g];
        const std::size_t size = groupBegin_[g + 1] - begin;
        if (size == 0) continue;
        const std::size_t at = d * count + begin;
        const double omega = cfg_.frequencies[f];
        double sum[6];
        phaseSum(kx_.data() + at, ky_.data() + at, kz_.data() + at,
                 nr_.data() + at, size, omega, sum);
        // Macro-particle form factor (Gaussian cloud of the given radius).
        double ff = 1.0;
        if (cfg_.formFactorRadius > 0.0) {
          const double x = omega * cfg_.formFactorRadius;
          ff = std::exp(-0.5 * x * x);
        }
        const std::complex<double> timePhase = std::polar(ff, omega * time);
        for (std::size_t c = 0; c < 3; ++c)
          amp_[slot(g, d, f, c)] +=
              timePhase * std::complex<double>(sum[c], sum[c + 3]);
      }
    }
  }
  ARTSCI_EXPECTS_MSG(maxAbsOmega * maxAbsNr <= kSincosMaxArg,
                     "radiation phase omega*n.r exceeds the accurate sincos "
                     "range; shrink the domain or the frequency band");
}

std::vector<double> SpectralAccumulator::intensity(std::size_t directionIdx,
                                                   std::size_t group) const {
  ARTSCI_EXPECTS(directionIdx < cfg_.directions.size());
  ARTSCI_EXPECTS(group < groups_);
  std::vector<double> out(cfg_.frequencies.size());
  for (std::size_t f = 0; f < out.size(); ++f) {
    double s = 0.0;
    for (std::size_t c = 0; c < 3; ++c)
      s += std::norm(amp_[slot(group, directionIdx, f, c)]);
    out[f] = s;
  }
  return out;
}

std::array<std::complex<double>, 3> SpectralAccumulator::amplitude(
    std::size_t directionIdx, std::size_t freqIdx, std::size_t group) const {
  ARTSCI_EXPECTS(directionIdx < cfg_.directions.size());
  ARTSCI_EXPECTS(freqIdx < cfg_.frequencies.size());
  ARTSCI_EXPECTS(group < groups_);
  return {amp_[slot(group, directionIdx, freqIdx, 0)],
          amp_[slot(group, directionIdx, freqIdx, 1)],
          amp_[slot(group, directionIdx, freqIdx, 2)]};
}

double expectedDopplerUpshift(double betaTowardDetector) {
  return units::dopplerFactor(betaTowardDetector);
}

}  // namespace artsci::radiation
