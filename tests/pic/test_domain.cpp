/// Bit-level determinism tests for the rank-decomposed driver
/// (pic/domain.hpp): multi-rank runs must be bit-identical to the
/// single-rank fused Simulation — fields AND particle state — for any
/// rank count, any OMP thread count, and any repetition, including slab
/// edge cases (ragged tile columns, one cell per rank) and migration
/// across the periodic seam. Also pins the ownerOf/distribute
/// out-of-domain contract (no silent last-rank fallback). This is the
/// test docs/ARCHITECTURE.md's determinism table points at for the
/// distributed driver.
#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "pic/domain.hpp"
#include "pic/khi.hpp"
#include "pic/simulation.hpp"

namespace artsci::pic {
namespace {

/// Restores the global OMP thread count on scope exit so one test cannot
/// perturb the others.
struct ThreadCountGuard {
#ifdef _OPENMP
  int saved = omp_get_max_threads();
  ~ThreadCountGuard() { omp_set_num_threads(saved); }
#endif
  void set(int n) {
#ifdef _OPENMP
    omp_set_num_threads(n);
#else
    (void)n;
#endif
  }
};

bool bitEqual(const Field3& a, const Field3& b) {
  return a.raw().size() == b.raw().size() &&
         std::memcmp(a.raw().data(), b.raw().data(),
                     a.raw().size() * sizeof(double)) == 0;
}

bool bitEqual(const VectorField& a, const VectorField& b) {
  return bitEqual(a.x, b.x) && bitEqual(a.y, b.y) && bitEqual(a.z, b.z);
}

bool columnBitEqual(const std::vector<double>& a,
                    const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Order the whole buffer by the canonical x-major phase-space key. Rank
/// buffer concatenation order depends on the decomposition, so particle
/// state is compared as a canonically ordered multiset.
ParticleBuffer canonicalOrder(const ParticleBuffer& p) {
  std::vector<std::size_t> idx(p.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::sort(idx.begin(), idx.end(), [&p](std::size_t a, std::size_t c) {
    if (p.x[a] != p.x[c]) return p.x[a] < p.x[c];
    if (p.y[a] != p.y[c]) return p.y[a] < p.y[c];
    if (p.z[a] != p.z[c]) return p.z[a] < p.z[c];
    if (p.ux[a] != p.ux[c]) return p.ux[a] < p.ux[c];
    if (p.uy[a] != p.uy[c]) return p.uy[a] < p.uy[c];
    if (p.uz[a] != p.uz[c]) return p.uz[a] < p.uz[c];
    return p.w[a] < p.w[c];
  });
  ParticleBuffer out(p.info());
  out.reserve(p.size());
  for (std::size_t i : idx)
    out.push({p.x[i], p.y[i], p.z[i]}, {p.ux[i], p.uy[i], p.uz[i]}, p.w[i]);
  return out;
}

bool sameParticleMultiset(const ParticleBuffer& a, const ParticleBuffer& b) {
  if (a.size() != b.size()) return false;
  const ParticleBuffer ca = canonicalOrder(a);
  const ParticleBuffer cb = canonicalOrder(b);
  return columnBitEqual(ca.x, cb.x) && columnBitEqual(ca.y, cb.y) &&
         columnBitEqual(ca.z, cb.z) && columnBitEqual(ca.ux, cb.ux) &&
         columnBitEqual(ca.uy, cb.uy) && columnBitEqual(ca.uz, cb.uz) &&
         columnBitEqual(ca.w, cb.w);
}

/// Build a DistributedSimulation with the same KHI state a Simulation
/// gets from initializeKhi (staged through a scratch Simulation).
DistributedSimulation makeDistributedKhi(const KhiConfig& kcfg,
                                         std::size_t ranks,
                                         TileDepositConfig tiles) {
  DistributedSimulation::Config dc;
  dc.grid = kcfg.grid;
  dc.dt = kcfg.dt;
  dc.ranks = ranks;
  dc.tiles = tiles;
  DistributedSimulation dist(dc);
  SimulationConfig sc;
  sc.grid = kcfg.grid;
  sc.dt = kcfg.dt;
  sc.tiles = tiles;
  Simulation tmp(sc);
  const KhiSpecies sp = initializeKhi(tmp, kcfg);
  const std::size_t e = dist.addSpecies(tmp.species(sp.electrons).info());
  const std::size_t i = dist.addSpecies(tmp.species(sp.ions).info());
  dist.staging(e).append(tmp.species(sp.electrons));
  dist.staging(i).append(tmp.species(sp.ions));
  dist.distribute();
  return dist;
}

KhiConfig smallKhi() {
  KhiConfig kcfg;
  kcfg.grid = GridSpec{16, 16, 4, 0.25, 0.25, 0.25};
  kcfg.dt = 0.08;
  kcfg.particlesPerCell = 2;
  return kcfg;
}

/// Core check: a distributed run equals the single-rank fused Simulation
/// bit-for-bit (fields and the particle multiset of every species).
void expectMatchesSimulation(const KhiConfig& kcfg, std::size_t ranks,
                             TileDepositConfig tiles, long steps) {
  SimulationConfig sc;
  sc.grid = kcfg.grid;
  sc.dt = kcfg.dt;
  sc.tiles = tiles;
  Simulation ref(sc);
  const KhiSpecies sp = initializeKhi(ref, kcfg);
  ref.run(steps);

  DistributedSimulation dist = makeDistributedKhi(kcfg, ranks, tiles);
  dist.run(steps);

  EXPECT_TRUE(bitEqual(dist.fieldE(), ref.fieldE())) << ranks << " ranks: E";
  EXPECT_TRUE(bitEqual(dist.fieldB(), ref.fieldB())) << ranks << " ranks: B";
  EXPECT_TRUE(bitEqual(dist.currentJ(), ref.currentJ()))
      << ranks << " ranks: J";
  EXPECT_TRUE(sameParticleMultiset(dist.gatherSpecies(0),
                                   ref.species(sp.electrons)))
      << ranks << " ranks: electrons";
  EXPECT_TRUE(sameParticleMultiset(dist.gatherSpecies(1),
                                   ref.species(sp.ions)))
      << ranks << " ranks: ions";
}

TEST(Domain, BitIdenticalToSingleRankAcrossRankCounts) {
  const KhiConfig kcfg = smallKhi();
  const TileDepositConfig tiles{4, 8};  // 4 tile columns -> up to 4 ranks
  for (const std::size_t ranks : {1u, 2u, 4u})
    expectMatchesSimulation(kcfg, ranks, tiles, 12);
}

TEST(Domain, BitIdenticalAcrossThreadCounts) {
  // Large enough that at 8 threads (4 per rank) every OpenMP region of a
  // rank step runs on the team: about 5000 particles per rank and
  // species, 1024-cell slabs.
  KhiConfig kcfg = smallKhi();
  kcfg.grid = GridSpec{32, 16, 4, 0.25, 0.25, 0.25};
  kcfg.particlesPerCell = 5;
  const TileDepositConfig tiles{4, 8};
  ThreadCountGuard guard;

  guard.set(1);
  DistributedSimulation base = makeDistributedKhi(kcfg, 2, tiles);
  base.run(12);
  const ParticleBuffer baseE = base.gatherSpecies(0);

  for (const int threads : {2, 3, 8}) {
    guard.set(threads);
    DistributedSimulation other = makeDistributedKhi(kcfg, 2, tiles);
    other.run(12);
    EXPECT_TRUE(bitEqual(other.fieldE(), base.fieldE())) << threads;
    EXPECT_TRUE(bitEqual(other.fieldB(), base.fieldB())) << threads;
    EXPECT_TRUE(sameParticleMultiset(other.gatherSpecies(0), baseE))
        << threads;
  }
}

TEST(Domain, RepeatedRunsIdenticalIncludingBufferOrder) {
  const KhiConfig kcfg = smallKhi();
  const TileDepositConfig tiles{4, 8};
  DistributedSimulation a = makeDistributedKhi(kcfg, 4, tiles);
  DistributedSimulation b = makeDistributedKhi(kcfg, 4, tiles);
  a.run(12);
  b.run(12);
  EXPECT_TRUE(bitEqual(a.fieldE(), b.fieldE()));
  EXPECT_TRUE(bitEqual(a.fieldB(), b.fieldB()));
  for (std::size_t s = 0; s < 2; ++s) {
    // Repetition is deterministic down to rank buffer order (migration
    // absorb order is fixed), so gathered columns match elementwise —
    // stronger than the multiset comparison.
    const ParticleBuffer pa = a.gatherSpecies(s);
    const ParticleBuffer pb = b.gatherSpecies(s);
    EXPECT_TRUE(columnBitEqual(pa.x, pb.x));
    EXPECT_TRUE(columnBitEqual(pa.ux, pb.ux));
    EXPECT_TRUE(columnBitEqual(pa.w, pb.w));
  }
}

TEST(Domain, MigrationAcrossPeriodicWrapMatchesSingleRank) {
  // Counter-streaming KHI plasma on a short-x box: the +-x streams cross
  // slab boundaries and the x=0 periodic seam within a few steps, so
  // this exercises migration in both directions including the wrap.
  // Conservation plus bit-identity with the (migration-free) single-rank
  // driver pins the migration path end to end.
  KhiConfig kcfg = smallKhi();
  kcfg.grid = GridSpec{8, 16, 4, 0.25, 0.25, 0.25};
  kcfg.beta = 0.3;  // faster streams: guaranteed boundary crossings
  const TileDepositConfig tiles{2, 8};  // 4 columns on nx=8
  DistributedSimulation probe = makeDistributedKhi(kcfg, 4, tiles);
  const std::size_t before = probe.gatherSpecies(0).size();
  expectMatchesSimulation(kcfg, 4, tiles, 15);
  probe.run(15);
  EXPECT_EQ(probe.gatherSpecies(0).size(), before);
  for (double x : probe.gatherSpecies(0).x) {
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 8.0);
  }
}

TEST(Domain, RaggedAndSingleCellSlabsMatchSingleRank) {
  // nx % ranks != 0 with a ragged last tile column: nx=17 over 3 ranks
  // on 4-cell columns -> slabs of 8, 5, and 4 cells.
  KhiConfig ragged = smallKhi();
  ragged.grid = GridSpec{17, 8, 4, 0.25, 0.25, 0.25};
  expectMatchesSimulation(ragged, 3, TileDepositConfig{4, 8}, 8);

  // One cell per rank: nx=4 over 4 ranks on single-cell tile columns.
  KhiConfig tiny = smallKhi();
  tiny.grid = GridSpec{4, 8, 4, 0.25, 0.25, 0.25};
  expectMatchesSimulation(tiny, 4, TileDepositConfig{1, 8}, 8);
}

TEST(Domain, SlabsAreWholeTileColumnsAndCoverGrid) {
  DistributedSimulation::Config dc;
  dc.grid = GridSpec{17, 8, 8, 0.25, 0.25, 0.25};
  dc.dt = 0.05;
  dc.ranks = 4;
  dc.tiles = TileDepositConfig{4, 8};  // 5 ragged columns for 4 ranks
  DistributedSimulation dist(dc);
  long prevEnd = 0;
  for (std::size_t r = 0; r < 4; ++r) {
    const auto [b, e] = dist.slabOf(r);
    EXPECT_EQ(b, prevEnd);
    EXPECT_GT(e, b);
    EXPECT_EQ(b % 4, 0) << "slab boundaries must sit on tile columns";
    prevEnd = e;
  }
  EXPECT_EQ(prevEnd, 17);
}

TEST(Domain, RejectsMoreRanksThanTileColumns) {
  DistributedSimulation::Config dc;
  dc.grid = GridSpec{16, 8, 8, 0.25, 0.25, 0.25};
  dc.dt = 0.05;
  dc.ranks = 4;  // default 8-cell tiles give only 2 columns
  EXPECT_THROW(DistributedSimulation{dc}, ContractError);
  dc.tiles = TileDepositConfig{4, 8};
  EXPECT_NO_THROW(DistributedSimulation{dc});
}

TEST(Domain, OwnerOfRejectsOutOfDomainAndNaN) {
  DistributedSimulation::Config dc;
  dc.grid = GridSpec{16, 8, 8, 0.25, 0.25, 0.25};
  dc.dt = 0.05;
  dc.ranks = 2;
  DistributedSimulation dist(dc);
  EXPECT_EQ(dist.ownerOf(0.0), 0u);
  EXPECT_EQ(dist.ownerOf(15.999), 1u);
  EXPECT_THROW(dist.ownerOf(-0.001), ContractError);
  EXPECT_THROW(dist.ownerOf(16.0), ContractError);
  EXPECT_THROW(dist.ownerOf(std::numeric_limits<double>::quiet_NaN()),
               ContractError);
  EXPECT_THROW(dist.ownerOf(std::numeric_limits<double>::infinity()),
               ContractError);
}

TEST(Domain, DistributeRejectsUnwrappedPositions) {
  DistributedSimulation::Config dc;
  dc.grid = GridSpec{16, 8, 8, 0.25, 0.25, 0.25};
  dc.dt = 0.05;
  dc.ranks = 2;

  {
    DistributedSimulation dist(dc);
    dist.addSpecies({-1.0, 1.0, "e"});
    dist.staging(0).push({16.5, 1.0, 1.0}, {}, 1.0);  // x out of range
    EXPECT_THROW(dist.distribute(), ContractError);
  }
  {
    DistributedSimulation dist(dc);
    dist.addSpecies({-1.0, 1.0, "e"});
    dist.staging(0).push({1.0, -2.0, 1.0}, {}, 1.0);  // y out of range
    EXPECT_THROW(dist.distribute(), ContractError);
  }
  {
    DistributedSimulation dist(dc);
    dist.addSpecies({-1.0, 1.0, "e"});
    dist.staging(0).push(
        {std::numeric_limits<double>::quiet_NaN(), 1.0, 1.0}, {}, 1.0);
    EXPECT_THROW(dist.distribute(), ContractError);
  }
  {
    // The valid case still lands every particle on its owner.
    DistributedSimulation dist(dc);
    dist.addSpecies({-1.0, 1.0, "e"});
    dist.staging(0).push({1.0, 1.0, 1.0}, {}, 1.0);
    dist.staging(0).push({15.0, 1.0, 1.0}, {}, 2.0);
    dist.distribute();
    EXPECT_EQ(dist.gatherSpecies(0).size(), 2u);
  }
}

}  // namespace
}  // namespace artsci::pic
