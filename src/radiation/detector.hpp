/// \file detector.hpp
/// Synthetic far-field radiation detector (the stand-in for PIConGPU's
/// radiation plugin [Pausch et al. 2014]). For each detector direction n
/// and frequency omega it accumulates the classical Lienard-Wiechert
/// far-field amplitude
///
///   A(n, omega) = sum_steps sum_p w_p
///       [ n x ((n - beta_p) x dbeta_p/dt) ] / (1 - n . beta_p)^2
///       * exp(i omega (t - n . r_p))  * dt
///
/// (c = 1, plasma units), and reports the spectral intensity
/// d^2 I / (d omega d Omega) ~ |A|^2 — spectrally and angularly resolved,
/// resolving frequencies far above the grid's Nyquist limit, which is the
/// whole point of the plugin versus the PIC field solver.
#pragma once

#include <array>
#include <complex>
#include <cstdint>
#include <span>
#include <vector>

#include "common/vec3.hpp"
#include "pic/grid.hpp"
#include "pic/particles.hpp"

namespace artsci::radiation {

/// Log-spaced frequency axis in omega_pe units (Fig 9a uses 1e-1..1e2).
std::vector<double> logFrequencyAxis(double omegaMin, double omegaMax,
                                     std::size_t count);

struct DetectorConfig {
  std::vector<Vec3d> directions;    ///< unit observation vectors
  std::vector<double> frequencies;  ///< in omega_pe

  /// Optional macro-particle form factor F(omega): multiplies each
  /// macroparticle's amplitude to model its finite extent [Pausch et al.
  /// 2018]. Radius is the CIC cloud half-width in plasma units; 0 disables
  /// (point particles, fully coherent macroparticles).
  double formFactorRadius = 0.0;

  static DetectorConfig defaultKhi(std::size_t frequencyCount = 64);
};

/// Accumulates complex vector amplitudes over simulation steps, for one or
/// more particle groups (the region plugin keeps one group per KHI region).
///
/// Each step runs in three stages. (1) One O(N) pass packs the particles
/// group by group, in ascending index, and writes the frequency-independent
/// terms per direction into reused SoA scratch: k = w·dt·kernel and n·r.
/// (2) The time phase is factored out of the particle sum,
///   A_f += F(omega_f) e^{i omega_f t} sum_p k_p e^{-i omega_f n.r_p},
/// so the form factor and e^{i omega t} cost one libm call per frequency.
/// (3) The inner sum runs a branch-free vectorized sincos (sincos.hpp) over
/// fixed 8-lane strided partial sums, one OpenMP work item per (group,
/// direction, frequency). Amplitudes are bit-identical across thread
/// counts and ISA clones.
class SpectralAccumulator {
 public:
  explicit SpectralAccumulator(DetectorConfig cfg, std::size_t groups = 1);

  /// Add one step's contributions of a particle buffer. bd* are the
  /// per-particle accelerations d(beta)/dt recorded by the pusher.
  /// `groupOf` (one label below the constructor's `groups` per particle)
  /// sends each particle to its group; empty puts every particle in group
  /// 0. Throws ContractError, before any amplitude changes, when a phase
  /// omega·n·r leaves ±kSincosMaxArg (radiation/sincos.hpp).
  void accumulate(const pic::ParticleBuffer& particles,
                  const std::vector<double>& bdx,
                  const std::vector<double>& bdy,
                  const std::vector<double>& bdz, double time, double dt,
                  const pic::GridSpec& grid,
                  std::span<const std::uint8_t> groupOf = {});

  /// |A|^2 spectrum for one direction (length = frequencies().size()).
  std::vector<double> intensity(std::size_t directionIdx,
                                std::size_t group = 0) const;

  /// Raw complex amplitude (3 components) at (direction, frequency).
  std::array<std::complex<double>, 3> amplitude(std::size_t directionIdx,
                                                std::size_t freqIdx,
                                                std::size_t group = 0) const;

  const DetectorConfig& config() const { return cfg_; }
  const std::vector<double>& frequencies() const { return cfg_.frequencies; }
  std::size_t directionCount() const { return cfg_.directions.size(); }

  void reset();

 private:
  DetectorConfig cfg_;
  std::size_t groups_;
  /// Layout: [group][dir][freq][component].
  std::vector<std::complex<double>> amp_;
  std::size_t slot(std::size_t g, std::size_t d, std::size_t f,
                   std::size_t c) const {
    return ((g * cfg_.directions.size() + d) * cfg_.frequencies.size() + f) *
               3 +
           c;
  }

  // Stage-1 scratch, reused across steps. Packed position j holds particle
  // order_[j]; group g owns positions [groupBegin_[g], groupBegin_[g+1]).
  // The term arrays are [direction][packed position].
  std::vector<std::size_t> order_;
  std::vector<std::size_t> groupBegin_;
  std::vector<double> kx_, ky_, kz_, nr_;
};

/// Analytic check helper: relativistic Doppler cutoff of a gyrating
/// particle seen along +x when it moves with beta_x toward the detector.
double expectedDopplerUpshift(double betaTowardDetector);

}  // namespace artsci::radiation
