/// Far-field detector tests: physics checks (gyration line, Doppler
/// shift, coherence scaling, form factor), the kernel against the naive
/// per-(particle, frequency) reference below, bit-identity across OpenMP
/// thread counts, and the bounded-argument sincos against libm.
#ifdef _OPENMP
#include <omp.h>
#endif

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "pic/khi.hpp"
#include "radiation/plugin.hpp"
#include "radiation/sincos.hpp"

namespace artsci::radiation {
namespace {

using pic::GridSpec;
using pic::ParticleBuffer;

/// Reference far-field sum: the direct loop over (direction, frequency,
/// particle), recomputing every term and calling libm for each phase
/// omega (t - n.r). SpectralAccumulator must agree with it.
class NaiveDetector {
 public:
  explicit NaiveDetector(DetectorConfig cfg) : cfg_(std::move(cfg)) {
    amp_.assign(cfg_.directions.size() * cfg_.frequencies.size() * 3, {});
  }

  void accumulate(const ParticleBuffer& particles,
                  const std::vector<double>& bdx,
                  const std::vector<double>& bdy,
                  const std::vector<double>& bdz, double time, double dt,
                  const GridSpec& grid,
                  const std::vector<std::size_t>* subset = nullptr) {
    const std::size_t count = subset ? subset->size() : particles.size();
    const std::size_t nFreq = cfg_.frequencies.size();
    for (std::size_t d = 0; d < cfg_.directions.size(); ++d) {
      for (std::size_t f = 0; f < nFreq; ++f) {
        const Vec3d n = cfg_.directions[d];
        const double omega = cfg_.frequencies[f];
        double ff = 1.0;
        if (cfg_.formFactorRadius > 0.0) {
          const double x = omega * cfg_.formFactorRadius;
          ff = std::exp(-0.5 * x * x);
        }
        std::complex<double> ax{}, ay{}, az{};
        for (std::size_t s = 0; s < count; ++s) {
          const std::size_t i = subset ? (*subset)[s] : s;
          const double g = particles.gamma(i);
          const Vec3d beta{particles.ux[i] / g, particles.uy[i] / g,
                           particles.uz[i] / g};
          const Vec3d betaDot{bdx[i], bdy[i], bdz[i]};
          const double oneMinusNBeta = 1.0 - n.dot(beta);
          const Vec3d kernel = n.cross((n - beta).cross(betaDot)) *
                               (1.0 / (oneMinusNBeta * oneMinusNBeta));
          const Vec3d r{particles.x[i] * grid.dx, particles.y[i] * grid.dy,
                        particles.z[i] * grid.dz};
          const double phase = omega * (time - n.dot(r));
          const std::complex<double> rot{std::cos(phase), std::sin(phase)};
          const double wff = particles.w[i] * ff * dt;
          ax += kernel.x * wff * rot;
          ay += kernel.y * wff * rot;
          az += kernel.z * wff * rot;
        }
        amp_[(d * nFreq + f) * 3 + 0] += ax;
        amp_[(d * nFreq + f) * 3 + 1] += ay;
        amp_[(d * nFreq + f) * 3 + 2] += az;
      }
    }
  }

  std::vector<double> intensity(std::size_t d) const {
    const std::size_t nFreq = cfg_.frequencies.size();
    std::vector<double> out(nFreq);
    for (std::size_t f = 0; f < nFreq; ++f)
      for (std::size_t c = 0; c < 3; ++c)
        out[f] += std::norm(amp_[(d * nFreq + f) * 3 + c]);
    return out;
  }

 private:
  DetectorConfig cfg_;
  std::vector<std::complex<double>> amp_;
};

/// max_f |a_f - b_f| / max_f |b_f|.
double relativeToPeak(const std::vector<double>& a,
                      const std::vector<double>& b) {
  double diff = 0.0, peak = 0.0;
  for (std::size_t f = 0; f < b.size(); ++f) {
    diff = std::max(diff, std::abs(a[f] - b[f]));
    peak = std::max(peak, std::abs(b[f]));
  }
  return diff / peak;
}

/// The 40-step KHI used by the oracle tests. The electrons stream without
/// co-moving ions, so their current drives real fields and accelerations.
std::unique_ptr<pic::Simulation> makeKhi(pic::KhiSpecies* species) {
  pic::KhiConfig kcfg;
  kcfg.grid = GridSpec{8, 32, 4, 0.25, 0.25, 0.25};
  kcfg.dt = 0.08;
  kcfg.particlesPerCell = 2;
  kcfg.mobileIons = false;
  pic::SimulationConfig sc;
  sc.grid = kcfg.grid;
  sc.dt = kcfg.dt;
  sc.recordBetaDot = true;
  auto sim = std::make_unique<pic::Simulation>(sc);
  *species = initializeKhi(*sim, kcfg);
  return sim;
}

/// Runs the naive reference beside the plugins, on the same step state:
/// `all` sees every particle, `regions[r]` the particles of KHI region r.
struct OracleProbe : pic::Plugin {
  OracleProbe(const DetectorConfig& cfg, std::size_t species,
              double vortexHalfWidth)
      : species(species),
        vortexHalfWidth(vortexHalfWidth),
        all(cfg),
        regions(3, NaiveDetector(cfg)) {}

  const char* name() const override { return "radiation/oracle"; }
  void onStepEnd(pic::Simulation& sim) override {
    const auto& p = sim.species(species);
    std::vector<std::size_t> subset[3];
    for (std::size_t i = 0; i < p.size(); ++i)
      subset[static_cast<std::size_t>(pic::classifyKhiRegion(
                 p.y[i], sim.grid().ny, vortexHalfWidth))]
          .push_back(i);
    const auto& bx = sim.betaDotX(species);
    const auto& by = sim.betaDotY(species);
    const auto& bz = sim.betaDotZ(species);
    all.accumulate(p, bx, by, bz, sim.time(), sim.dt(), sim.grid());
    for (std::size_t r = 0; r < 3; ++r)
      regions[r].accumulate(p, bx, by, bz, sim.time(), sim.dt(), sim.grid(),
                            &subset[r]);
  }

  std::size_t species;
  double vortexHalfWidth;
  NaiveDetector all;
  std::vector<NaiveDetector> regions;
};

/// Drive a single synthetic "gyrating" particle: circular velocity in the
/// x-y plane at angular frequency omega0, with mean drift betaDrift along
/// x. Returns the intensity spectrum seen by a detector along +x.
std::vector<double> gyratingSpectrum(double omega0, double betaDrift,
                                     double betaPerp,
                                     const std::vector<double>& freqs,
                                     int steps = 4000, double dt = 0.01) {
  DetectorConfig cfg;
  cfg.directions = {Vec3d{1, 0, 0}};
  cfg.frequencies = freqs;
  SpectralAccumulator acc(cfg);

  GridSpec grid{8, 8, 8, 1.0, 1.0, 1.0};
  ParticleBuffer p({-1.0, 1.0, "e"});
  p.push({4, 4, 4}, {}, 1.0);
  std::vector<double> bdx(1), bdy(1), bdz(1);

  double xPos = 4.0, yPos = 4.0;
  for (int s = 0; s < steps; ++s) {
    const double t = s * dt;
    const double bx = betaDrift + betaPerp * std::cos(omega0 * t);
    const double by = betaPerp * std::sin(omega0 * t);
    const double b2 = bx * bx + by * by;
    const double gamma = 1.0 / std::sqrt(1.0 - b2);
    p.x[0] = xPos;
    p.y[0] = yPos;
    p.ux[0] = gamma * bx;
    p.uy[0] = gamma * by;
    bdx[0] = -betaPerp * omega0 * std::sin(omega0 * t);
    bdy[0] = betaPerp * omega0 * std::cos(omega0 * t);
    bdz[0] = 0.0;
    acc.accumulate(p, bdx, bdy, bdz, t, dt, grid);
    xPos += bx * dt;
    yPos += by * dt;
  }
  return acc.intensity(0);
}

std::size_t peakIndex(const std::vector<double>& spectrum) {
  return static_cast<std::size_t>(
      std::max_element(spectrum.begin(), spectrum.end()) -
      spectrum.begin());
}

TEST(Detector, LogFrequencyAxis) {
  const auto f = logFrequencyAxis(0.1, 100.0, 4);
  ASSERT_EQ(f.size(), 4u);
  EXPECT_NEAR(f[0], 0.1, 1e-12);
  EXPECT_NEAR(f[1], 1.0, 1e-12);
  EXPECT_NEAR(f[3], 100.0, 1e-9);
}

TEST(Detector, RejectsNonUnitDirections) {
  DetectorConfig cfg;
  cfg.directions = {Vec3d{2, 0, 0}};
  cfg.frequencies = {1.0};
  EXPECT_THROW(SpectralAccumulator acc(cfg), ContractError);
}

TEST(Detector, InertialMotionRadiatesNothing) {
  // betaDot = 0 -> no radiation regardless of velocity.
  DetectorConfig cfg = DetectorConfig::defaultKhi(16);
  SpectralAccumulator acc(cfg);
  GridSpec grid{8, 8, 8, 1, 1, 1};
  ParticleBuffer p({-1.0, 1.0, "e"});
  p.push({4, 4, 4}, {0.5, 0, 0}, 1.0);
  std::vector<double> zero(1, 0.0);
  for (int s = 0; s < 100; ++s)
    acc.accumulate(p, zero, zero, zero, s * 0.01, 0.01, grid);
  for (double v : acc.intensity(0)) EXPECT_EQ(v, 0.0);
}

TEST(Detector, GyratingParticleEmitsAtGyrofrequency) {
  // Non-drifting slow gyration: the spectral peak sits at omega0.
  const auto freqs = logFrequencyAxis(0.5, 20.0, 96);
  const auto spec = gyratingSpectrum(3.0, 0.0, 0.05, freqs);
  const double peakFreq = freqs[peakIndex(spec)];
  EXPECT_NEAR(peakFreq, 3.0, 0.4);
}

TEST(Detector, DopplerUpshiftForApproachingEmitter) {
  // The approaching emitter's line moves up by 1/(1 - beta), the receding
  // one's down by 1/(1 + beta): the Fig 9(a) cutoff asymmetry.
  const double omega0 = 3.0, beta = 0.2;
  const auto freqs = logFrequencyAxis(0.5, 30.0, 192);
  const auto specTowards = gyratingSpectrum(omega0, +beta, 0.02, freqs);
  const auto specAway = gyratingSpectrum(omega0, -beta, 0.02, freqs);
  const double fTowards = freqs[peakIndex(specTowards)];
  const double fAway = freqs[peakIndex(specAway)];
  const double expectedRatio = (1.0 + beta) / (1.0 - beta);  // = 1.5
  EXPECT_NEAR(fTowards / fAway, expectedRatio, 0.25);
  EXPECT_GT(fTowards, omega0);
  EXPECT_LT(fAway, omega0);
}

TEST(Detector, CoherentScalingIsQuadraticInWeight) {
  // A macroparticle of weight w radiates coherently: I ~ w^2.
  const auto freqs = logFrequencyAxis(1.0, 10.0, 16);
  DetectorConfig cfg;
  cfg.directions = {Vec3d{1, 0, 0}};
  cfg.frequencies = freqs;
  GridSpec grid{8, 8, 8, 1, 1, 1};

  auto intensityForWeight = [&](double w) {
    SpectralAccumulator acc(cfg);
    ParticleBuffer p({-1.0, 1.0, "e"});
    p.push({4, 4, 4}, {0, 0, 0}, w);
    std::vector<double> bdx(1), bdy(1), bdz(1);
    for (int s = 0; s < 500; ++s) {
      const double t = s * 0.01;
      bdy[0] = 0.05 * std::cos(3.0 * t);
      acc.accumulate(p, bdx, bdy, bdz, t, 0.01, grid);
    }
    const auto spec = acc.intensity(0);
    return *std::max_element(spec.begin(), spec.end());
  };
  const double i1 = intensityForWeight(1.0);
  const double i3 = intensityForWeight(3.0);
  EXPECT_NEAR(i3 / i1, 9.0, 1e-6);
}

TEST(Detector, RandomPhaseEnsembleScalesLinearly) {
  // N particles at random positions emit with random relative phases:
  // the ensemble intensity grows ~N (incoherent), not N^2.
  const auto freqs = std::vector<double>{5.0};
  DetectorConfig cfg;
  cfg.directions = {Vec3d{1, 0, 0}};
  cfg.frequencies = freqs;
  GridSpec grid{64, 8, 8, 1.0, 1.0, 1.0};

  auto ensembleIntensity = [&](int n, std::uint64_t seed) {
    SpectralAccumulator acc(cfg);
    ParticleBuffer p({-1.0, 1.0, "e"});
    Rng rng(seed);
    for (int i = 0; i < n; ++i)
      p.push({rng.uniform(0, 64), rng.uniform(0, 8), rng.uniform(0, 8)},
             {0, 0, 0}, 1.0);
    std::vector<double> bdx(p.size(), 0.0), bdy(p.size()), bdz(p.size(), 0.0);
    for (int s = 0; s < 200; ++s) {
      const double t = s * 0.01;
      for (std::size_t i = 0; i < p.size(); ++i)
        bdy[i] = 0.05 * std::cos(5.0 * t);
      acc.accumulate(p, bdx, bdy, bdz, t, 0.01, grid);
    }
    return acc.intensity(0)[0];
  };
  // Average over seeds to tame the fluctuation of the random-phase sum.
  double i4 = 0, i64 = 0;
  for (std::uint64_t s = 0; s < 8; ++s) {
    i4 += ensembleIntensity(4, 11 + s);
    i64 += ensembleIntensity(64, 101 + s);
  }
  const double ratio = i64 / i4;  // expectation: 16 (linear), not 256
  EXPECT_GT(ratio, 4.0);
  EXPECT_LT(ratio, 80.0);
}

TEST(Detector, FormFactorSuppressesHighFrequencies) {
  DetectorConfig cfg;
  cfg.directions = {Vec3d{1, 0, 0}};
  cfg.frequencies = {1.0, 50.0};
  cfg.formFactorRadius = 0.2;
  GridSpec grid{8, 8, 8, 1, 1, 1};

  auto run = [&](const DetectorConfig& c) {
    SpectralAccumulator acc(c);
    ParticleBuffer p({-1.0, 1.0, "e"});
    p.push({4, 4, 4}, {}, 1.0);
    std::vector<double> z(1, 0.0), bdy(1);
    for (int s = 0; s < 400; ++s) {
      const double t = s * 0.005;
      // Broadband kick: short acceleration burst.
      bdy[0] = (s < 10) ? 0.1 : 0.0;
      acc.accumulate(p, z, bdy, z, t, 0.005, grid);
    }
    return acc;
  };
  DetectorConfig noFF = cfg;
  noFF.formFactorRadius = 0.0;
  const auto withFF = run(cfg).intensity(0);
  const auto without = run(noFF).intensity(0);
  // Low frequency barely affected; high frequency strongly suppressed.
  EXPECT_GT(withFF[0] / without[0], 0.9);
  EXPECT_LT(withFF[1] / without[1], 0.1);
}

TEST(RadiationPluginTest, AccumulatesOverSimulationSteps) {
  pic::SimulationConfig sc;
  sc.grid = GridSpec{8, 8, 8, 0.3, 0.3, 0.3};
  sc.dt = 0.1;
  sc.recordBetaDot = true;
  pic::Simulation sim(sc);
  const auto s = sim.addSpecies({-1.0, 1.0, "e"});
  sim.species(s).push({4, 4, 4}, {0.1, 0, 0}, 1.0);
  sim.fieldB().z.fill(1.0);  // gyration -> radiation

  DetectorConfig cfg = DetectorConfig::defaultKhi(24);
  auto plugin = std::make_shared<RadiationPlugin>(cfg, s);
  sim.addPlugin(plugin);
  sim.run(200);

  const auto spec = plugin->accumulator().intensity(0);
  double total = 0;
  for (double v : spec) total += v;
  EXPECT_GT(total, 0.0);
}

TEST(RadiationPluginTest, RequiresBetaDotRecording) {
  pic::SimulationConfig sc;
  sc.grid = GridSpec{8, 8, 8, 0.3, 0.3, 0.3};
  sc.dt = 0.1;
  sc.recordBetaDot = false;  // forgot to enable
  pic::Simulation sim(sc);
  const auto s = sim.addSpecies({-1.0, 1.0, "e"});
  sim.species(s).push({4, 4, 4}, {0.1, 0, 0}, 1.0);
  auto plugin =
      std::make_shared<RadiationPlugin>(DetectorConfig::defaultKhi(8), s);
  sim.addPlugin(plugin);
  EXPECT_THROW(sim.step(), ContractError);
}

TEST(RegionRadiationPluginTest, SplitsByRegion) {
  pic::KhiConfig kcfg;
  kcfg.grid = GridSpec{8, 32, 4, 0.25, 0.25, 0.25};
  kcfg.dt = 0.08;
  kcfg.particlesPerCell = 2;
  pic::SimulationConfig sc;
  sc.grid = kcfg.grid;
  sc.dt = kcfg.dt;
  sc.recordBetaDot = true;
  pic::Simulation sim(sc);
  const auto sp = initializeKhi(sim, kcfg);
  auto plugin = std::make_shared<RegionRadiationPlugin>(
      DetectorConfig::defaultKhi(16), sp.electrons, 3.0);
  sim.addPlugin(plugin);
  sim.run(30);
  for (auto region :
       {pic::KhiRegion::kApproaching, pic::KhiRegion::kReceding,
        pic::KhiRegion::kVortex}) {
    const auto spec = plugin->intensity(region);
    double total = 0;
    for (double v : spec) total += v;
    EXPECT_GT(total, 0.0) << pic::khiRegionName(region);
  }
}

TEST(DetectorOracle, KhiSpectraMatchNaiveReference) {
  // Two directions, point particles and a finite form factor, over a
  // 40-step KHI: the whole-buffer plugin and all three region groups.
  for (const double radius : {0.0, 0.05}) {
    DetectorConfig cfg = DetectorConfig::defaultKhi(16);
    cfg.directions = {Vec3d{1, 0, 0}, Vec3d{0.6, 0.8, 0}};
    cfg.formFactorRadius = radius;
    pic::KhiSpecies sp;
    auto sim = makeKhi(&sp);
    auto whole = std::make_shared<RadiationPlugin>(cfg, sp.electrons);
    auto regions =
        std::make_shared<RegionRadiationPlugin>(cfg, sp.electrons, 3.0);
    auto oracle = std::make_shared<OracleProbe>(cfg, sp.electrons, 3.0);
    sim->addPlugin(whole);
    sim->addPlugin(regions);
    sim->addPlugin(oracle);
    sim->run(40);

    for (std::size_t d = 0; d < 2; ++d) {
      const auto ref = oracle->all.intensity(d);
      EXPECT_GT(*std::max_element(ref.begin(), ref.end()), 0.0);
      EXPECT_LT(relativeToPeak(whole->accumulator().intensity(d), ref), 1e-12)
          << "radius " << radius << " direction " << d;
      for (auto region :
           {pic::KhiRegion::kApproaching, pic::KhiRegion::kReceding,
            pic::KhiRegion::kVortex}) {
        const auto regionRef =
            oracle->regions[static_cast<std::size_t>(region)].intensity(d);
        EXPECT_GT(*std::max_element(regionRef.begin(), regionRef.end()), 0.0);
        EXPECT_LT(relativeToPeak(regions->intensity(region, d), regionRef),
                  1e-12)
            << "radius " << radius << " direction " << d << " "
            << pic::khiRegionName(region);
      }
    }
  }
}

TEST(DetectorOracle, AmplitudesBitIdenticalAcrossThreadCounts) {
  // Ragged groups (sizes not multiples of the 8 summation lanes), two
  // directions, several steps: every amplitude bit must match the
  // 1-thread run for teams of 2, 3 and 4.
  DetectorConfig cfg = DetectorConfig::defaultKhi(29);
  cfg.directions = {Vec3d{1, 0, 0}, Vec3d{0, 0.6, 0.8}};
  cfg.formFactorRadius = 0.02;
  GridSpec grid{16, 16, 16, 0.2, 0.2, 0.2};
  ParticleBuffer p({-1.0, 1.0, "e"});
  Rng rng(21);
  const std::size_t n = 1237;
  std::vector<std::uint8_t> group(n);
  std::vector<double> bdx(n), bdy(n), bdz(n);
  for (std::size_t i = 0; i < n; ++i) {
    p.push({rng.uniform(0, 16), rng.uniform(0, 16), rng.uniform(0, 16)},
           {rng.normal(0, 0.3), rng.normal(0, 0.3), rng.normal(0, 0.3)},
           rng.uniform(0.5, 1.5));
    bdx[i] = rng.normal(0, 0.1);
    bdy[i] = rng.normal(0, 0.1);
    bdz[i] = rng.normal(0, 0.1);
    group[i] = static_cast<std::uint8_t>(rng.uniformInt(3));
  }

  auto run = [&](int threads) {
#ifdef _OPENMP
    omp_set_num_threads(threads);
#else
    (void)threads;
#endif
    SpectralAccumulator acc(cfg, 3);
    for (int s = 0; s < 5; ++s)
      acc.accumulate(p, bdx, bdy, bdz, 0.1 * s, 0.1, grid, group);
    return acc;
  };
  const SpectralAccumulator serial = run(1);
  for (int threads : {2, 3, 4}) {
    const SpectralAccumulator team = run(threads);
    for (std::size_t g = 0; g < 3; ++g)
      for (std::size_t d = 0; d < 2; ++d)
        for (std::size_t f = 0; f < cfg.frequencies.size(); ++f) {
          const auto a = team.amplitude(d, f, g);
          const auto b = serial.amplitude(d, f, g);
          for (std::size_t c = 0; c < 3; ++c) {
            ASSERT_EQ(a[c].real(), b[c].real())
                << threads << " threads g" << g << " d" << d << " f" << f;
            ASSERT_EQ(a[c].imag(), b[c].imag())
                << threads << " threads g" << g << " d" << d << " f" << f;
          }
        }
  }
#ifdef _OPENMP
  omp_set_num_threads(omp_get_num_procs());
#endif
}

TEST(Sincos, MatchesLibmOverTheContractRange) {
  double worst = 0.0;
  auto check = [&](double x) {
    const SinCos e = sincosBounded(x);
    worst = std::max(worst, std::abs(e.sin - std::sin(x)));
    worst = std::max(worst, std::abs(e.cos - std::cos(x)));
  };
  Rng rng(5);
  for (int i = 0; i < 200000; ++i) {
    check(rng.uniform(-kSincosMaxArg, kSincosMaxArg));
    check(rng.uniform(-2000.0, 2000.0));
    check(rng.uniform(-4.0, 4.0));
  }
  // Near multiples of pi/2, where the reduction cancels hardest.
  for (long k = -(1L << 19); k <= (1L << 19); k += 997) {
    const double x = static_cast<double>(k) * (units::kPi / 2);
    check(x);
    check(std::nextafter(x, 0.0));
    check(std::nextafter(x, 2.0 * x + 1.0));
  }
  check(kSincosMaxArg);
  check(-kSincosMaxArg);
  check(0.0);
  check(1e-300);
  EXPECT_LE(worst, 4e-16);
}

TEST(Detector, PhaseOutsideSincosRangeIsAContractError) {
  DetectorConfig cfg;
  cfg.directions = {Vec3d{1, 0, 0}};
  cfg.frequencies = {1.0, 1e6};  // 1e6 * n.r = 4e6 > 2^19 pi/2
  SpectralAccumulator acc(cfg);
  GridSpec grid{8, 8, 8, 1, 1, 1};
  ParticleBuffer p({-1.0, 1.0, "e"});
  p.push({4, 4, 4}, {}, 1.0);
  std::vector<double> bd(1, 0.1);
  EXPECT_THROW(acc.accumulate(p, bd, bd, bd, 0.0, 0.1, grid), ContractError);
  // Rejected before any slot is touched.
  EXPECT_EQ(acc.amplitude(0, 0)[1], std::complex<double>(0.0, 0.0));

  p.x[0] = 0.5;  // 5e5 < 2^19 pi/2: inside the range again
  EXPECT_NO_THROW(acc.accumulate(p, bd, bd, bd, 0.0, 0.1, grid));
}

}  // namespace
}  // namespace artsci::radiation
