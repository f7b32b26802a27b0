#include "pic/fused_pipeline.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/trace.hpp"
#include "pic/interpolate.hpp"
#include "pic/pusher.hpp"

namespace artsci::pic {

namespace {

/// Below this many particles the tile pass runs on the calling thread.
/// An empty parallel region of a 4-thread team cost 2 us with the team
/// spinning and 17 us once it sleeps (libgomp, 4-vCPU VM, Release), and
/// the pass costs about 460 ns per particle on one thread; from 128
/// particles (~60 us) the team saves several times its start-up. Same
/// bits either way: no sum order depends on the team.
constexpr std::size_t kMinParallelParticles = 128;

/// Read accessor over one component's halo-padded tile cache. Global node
/// indices translate by the padded origin with precomputed strides — the
/// per-access periodic wrap (three modulo ops per Field3::at) is gone;
/// wrapping happened once when the cache row was filled.
struct CacheAt {
  const double* base;
  long originX;  ///< global x of padded local index 0 (tile x0 - 1)
  long originY;  ///< global y of padded local index 0 (tile y0 - 1)
  long strideY;  ///< padded y extent
  long strideZ;  ///< padded z extent
  const double* at(long i, long j, long k) const {
    return base + ((i - originX) * strideY + (j - originY)) * strideZ +
           (k + 1);
  }
};

/// Largest particle block whose staggered (floor, frac) pairs are staged.
constexpr std::size_t kBlock = 64;

/// The 6 distinct staggered (floor, frac) pairs of a block of particles,
/// SoA: index [s][u] is the pair for stagger offset s ? 0.5 : 0.0 of
/// particle u of the block.
struct StagedPairs {
  long ix[2][kBlock], iy[2][kBlock], iz[2][kBlock];
  double fx[2][kBlock], fy[2][kBlock], fz[2][kBlock];
};

/// CIC gather of one Yee component whose stagger selector (0 -> offset
/// 0.0 pair, 1 -> offset 0.5 pair, per axis) is fixed at compile time.
/// The 8 corners sit at fixed offsets from one base pointer, and the
/// terms add in (a,b,c)-ascending order with gatherStaggeredAt's weight
/// expression, so the value is bit-identical to the split path's.
template <int SX, int SY, int SZ>
double gatherComponent(const CacheAt& f, const StagedPairs& st,
                       std::size_t u) {
  const double fxv = st.fx[SX][u], fyv = st.fy[SY][u], fzv = st.fz[SZ][u];
  const double gx = 1.0 - fxv, gy = 1.0 - fyv, gz = 1.0 - fzv;
  const double* c = f.at(st.ix[SX][u], st.iy[SY][u], st.iz[SZ][u]);
  const long dx = f.strideY * f.strideZ;
  const long dy = f.strideZ;
  double acc = 0.0;
  acc += gx * gy * gz * c[0];
  acc += gx * gy * fzv * c[1];
  acc += gx * fyv * gz * c[dy];
  acc += gx * fyv * fzv * c[dy + 1];
  acc += fxv * gy * gz * c[dx];
  acc += fxv * gy * fzv * c[dx + 1];
  acc += fxv * fyv * gz * c[dx + dy];
  acc += fxv * fyv * fzv * c[dx + dy + 1];
  return acc;
}

/// Copy `f` over the tile's gather footprint [x0-1, x0+spanX+1) x
/// [y0-1, ...) x [-1, nz+1) into `dst`, wrapping once per cache row. The
/// CIC gather of a staggered sample reads at most one node beyond the
/// owned cells per side, so a halo of 1 suffices.
void fillCache(double* dst, const Field3& f, long x0, long spanX, long y0,
               long spanY, const GridSpec& g) {
  const long padY = spanY + 2;
  const long padZ = g.nz + 2;
  const double* raw = f.raw().data();
  for (long li = 0; li < spanX + 2; ++li) {
    const long gi = Field3::wrap(x0 - 1 + li, g.nx);
    for (long lj = 0; lj < padY; ++lj) {
      const long gj = Field3::wrap(y0 - 1 + lj, g.ny);
      const double* src = raw + (gi * g.ny + gj) * g.nz;
      double* row = dst + (li * padY + lj) * padZ;
      row[0] = src[g.nz - 1];
      std::memcpy(row + 1, src, sizeof(double) * static_cast<std::size_t>(g.nz));
      row[g.nz + 1] = src[0];
    }
  }
}

}  // namespace

FusedPipeline::FusedPipeline(const GridSpec& grid, TileDepositConfig accumCfg)
    : grid_(grid),
      index_(grid, accumCfg.tileEdgeX, accumCfg.tileEdgeY, grid.nz) {}

void FusedPipeline::pushAndDeposit(ParticleBuffer& p, const VectorField& E,
                                   const VectorField& B, VectorField& J,
                                   double dt, DepositBuffer& accum,
                                   std::vector<double>* bdx,
                                   std::vector<double>* bdy,
                                   std::vector<double>* bdz) {
  pushAndScatter(p, E, B, dt, accum, bdx, bdy, bdz);
  // Fixed-order tile reduction (shared with the split path).
  if (!p.empty()) {
    TRACE_SCOPE("pic", "reduce");
    accum.reduce(J, index_);
  }
}

void FusedPipeline::pushAndScatter(ParticleBuffer& p, const VectorField& E,
                                   const VectorField& B, double dt,
                                   DepositBuffer& accum,
                                   std::vector<double>* bdx,
                                   std::vector<double>* bdy,
                                   std::vector<double>* bdz) {
  ARTSCI_EXPECTS(dt > 0);
  ARTSCI_EXPECTS(accum.grid().nx == grid_.nx && accum.grid().ny == grid_.ny &&
                 accum.grid().nz == grid_.nz && accum.grid().dx == grid_.dx &&
                 accum.grid().dy == grid_.dy && accum.grid().dz == grid_.dz);
  // Full geometry match: equal tile counts alone would let mismatched
  // edges scatter outside a tile's padded accumulator.
  ARTSCI_EXPECTS(accum.tileCount() == index_.tileCount() &&
                 accum.tilesX() == index_.tilesX() &&
                 accum.tileEdgeX() == index_.tileEdgeX() &&
                 accum.tileEdgeY() == index_.tileEdgeY());
  ARTSCI_EXPECTS((bdx == nullptr) == (bdy == nullptr) &&
                 (bdx == nullptr) == (bdz == nullptr));
  const std::size_t n = p.size();

  // The one binning pass of the step, by the pre-push (= Esirkepov-
  // center) position. bin() is stable, so each tile keeps last step's
  // canonical order; the tile pass below restores the canonical order of
  // the few particles that moved, the same order the split path's
  // SupercellIndex::sort leaves the buffer in (its deposit re-binning is
  // stable, hence order-preserving), which is what keeps the two paths
  // bit-identical. Runs even for an empty buffer so index() always
  // reflects *this* call's occupancy.
  bool wrapped;
  {
    TRACE_SCOPE("pic", "supercell_sort");
    wrapped = index_.bin(p.x.data(), p.y.data(), p.z.data(), n);
  }
  ARTSCI_EXPECTS_MSG(wrapped,
                     "fused pipeline: particle position outside [0, n) — "
                     "positions must be periodically wrapped");
  if (n == 0) return;

  if (bdx != nullptr) {
    bdx->resize(n);
    bdy->resize(n);
    bdz->resize(n);
  }
  // The tile pass reads `p` only to gather each tile into `s`, then
  // updates `s`; the columns are swapped after the region.
  staging_.resize(n);
  ParticleBuffer& s = staging_;

  const double qOverM = p.info().charge / p.info().mass;
  const double q = p.info().charge;
  const GridSpec& g = grid_;
  const double lx = static_cast<double>(g.nx);
  const double ly = static_cast<double>(g.ny);
  const double lz = static_cast<double>(g.nz);
  const long tiles = index_.tileCount();
  // Tile 0 is never ragged, so its spans bound every tile's cache size.
  const DepositBuffer::TileExtent e0 = accum.extentOf(0);
  const std::size_t compStride =
      static_cast<std::size_t>((e0.x1 - e0.x0 + 2) * (e0.y1 - e0.y0 + 2) *
                               (g.nz + 2));

  // Displacement guard: collected as a flag (throwing inside an OpenMP
  // region would terminate) and raised after the region. Oversized
  // displacements cannot corrupt memory — the Esirkepov scatter only
  // emits indices within +-2 of floor(old position) by construction —
  // they would just deposit unphysical currents and wrap wrongly.
  bool displacementOk = true;

#ifdef _OPENMP
  const std::size_t teamSize =
      static_cast<std::size_t>(omp_get_max_threads());
#else
  const std::size_t teamSize = 1;
#endif
  if (threads_.size() < teamSize) threads_.resize(teamSize);

#ifdef _OPENMP
#pragma omp parallel reduction(&& : displacementOk) \
    if (n >= kMinParallelParticles)
#endif
  {
    // One span per worker thread covering its whole share of the tile
    // loop — per-tile (let alone per-particle) spans would swamp the ring.
    TRACE_SCOPE("pic", "tile_pass");
    // This thread's scratch, reused across its tiles and across steps
    // (grow-only; no allocation in the steady state).
#ifdef _OPENMP
    ThreadScratch& mine =
        threads_[static_cast<std::size_t>(omp_get_thread_num())];
#else
    ThreadScratch& mine = threads_[0];
#endif
    mine.cache.resize(6 * compStride);
    double* const cache = mine.cache.data();
#ifdef _OPENMP
#pragma omp for schedule(dynamic)
#endif
    for (long t = 0; t < tiles; ++t) {
      const SupercellIndex::Range range = index_.tileRange(t);
      if (range.begin == range.end) continue;
      // Canonical order of this tile, gathered into the staging columns
      // while the tile is still in cache; the pass runs on those.
      index_.orderTile(t, p, s, mine.keys);

      const DepositBuffer::TileExtent e = accum.extentOf(t);
      const long spanX = e.x1 - e.x0;
      const long spanY = e.y1 - e.y0;
      const long padY = spanY + 2;
      const long padZ = g.nz + 2;

      const Field3* comps[6] = {&E.x, &E.y, &E.z, &B.x, &B.y, &B.z};
      for (int c = 0; c < 6; ++c)
        fillCache(cache + static_cast<std::size_t>(c) * compStride,
                  *comps[c], e.x0, spanX, e.y0, spanY, g);
      const auto at = [&](int c) {
        return CacheAt{cache + static_cast<std::size_t>(c) * compStride,
                       e.x0 - 1, e.y0 - 1, padY, padZ};
      };
      const CacheAt ex = at(0), ey = at(1), ez = at(2);
      const CacheAt bx = at(3), by = at(4), bz = at(5);

      const DepositBuffer::TileAccum sink = accum.zeroedTile(t);

      // (a) gather, with SoA-staged addressing. Yee staggering only ever
      // offsets an axis by 0 or 0.5, so a particle has just 6 distinct
      // staggered (floor, frac) pairs — two per axis — not the 18 the
      // six per-component gatherStaggeredAt calls recomputed. Phase 1
      // stages those pairs for a block of particles in SoA form (a flat
      // simd loop); the per-particle pass then gathers each component
      // from its compile-time pair selection (gatherComponent), so every
      // field value is bit-identical to the split path's gatherE/B
      // (pinned by test_fused_pipeline). Keeping the corner accumulation
      // particle-outer matters: a corner-outer/particle-inner layout is
      // an indirect gather the compiler cannot vectorize, and measured
      // ~20% slower end-to-end than this form.
      StagedPairs st;
      for (std::size_t blk = range.begin; blk < range.end; blk += kBlock) {
        const std::size_t m = std::min(kBlock, range.end - blk);
        for (int h = 0; h < 2; ++h) {
          const double off = h ? 0.5 : 0.0;
#ifdef _OPENMP
#pragma omp simd
#endif
          for (std::size_t u = 0; u < m; ++u) {
            const double gx = s.x[blk + u] - off;
            const double gy = s.y[blk + u] - off;
            const double gz = s.z[blk + u] - off;
            const long i0 = static_cast<long>(std::floor(gx));
            const long j0 = static_cast<long>(std::floor(gy));
            const long k0 = static_cast<long>(std::floor(gz));
            st.ix[h][u] = i0;
            st.iy[h][u] = j0;
            st.iz[h][u] = k0;
            st.fx[h][u] = gx - static_cast<double>(i0);
            st.fy[h][u] = gy - static_cast<double>(j0);
            st.fz[h][u] = gz - static_cast<double>(k0);
          }
        }
        for (std::size_t u = 0; u < m; ++u) {
          const std::size_t i = blk + u;
          const double ox = s.x[i], oy = s.y[i], oz = s.z[i];
          // Per component the (x, y, z) selector is its Yee stagger.
          const Vec3d Ep{gatherComponent<1, 0, 0>(ex, st, u),
                         gatherComponent<0, 1, 0>(ey, st, u),
                         gatherComponent<0, 0, 1>(ez, st, u)};
          const Vec3d Bp{gatherComponent<0, 1, 1>(bx, st, u),
                         gatherComponent<1, 0, 1>(by, st, u),
                         gatherComponent<1, 1, 0>(bz, st, u)};
          // (b) push + move.
          const Vec3d uOld{s.ux[i], s.uy[i], s.uz[i]};
          const double gOld = std::sqrt(1.0 + uOld.dot(uOld));
          const Vec3d uNew = borisPush(uOld, Ep, Bp, qOverM, dt);
          const double gNew = std::sqrt(1.0 + uNew.dot(uNew));
          s.ux[i] = uNew.x;
          s.uy[i] = uNew.y;
          s.uz[i] = uNew.z;
          if (bdx != nullptr) {
            (*bdx)[i] = (uNew.x / gNew - uOld.x / gOld) / dt;
            (*bdy)[i] = (uNew.y / gNew - uOld.y / gOld) / dt;
            (*bdz)[i] = (uNew.z / gNew - uOld.z / gOld) / dt;
          }
          const double nx1 = ox + uNew.x / gNew * dt / g.dx;
          const double ny1 = oy + uNew.y / gNew * dt / g.dy;
          const double nz1 = oz + uNew.z / gNew * dt / g.dz;
          displacementOk = displacementOk && std::abs(nx1 - ox) < 1.0 &&
                           std::abs(ny1 - oy) < 1.0 &&
                           std::abs(nz1 - oz) < 1.0;
          // (c) deposit from the unwrapped displacement, straight into the
          // tile's private accumulator — the support-clipped bit-exact
          // replica of detail::scatterEsirkepov.
          DepositBuffer::scatterEsirkepovTile(g, ox, oy, oz, nx1, ny1, nz1,
                                              q * s.w[i], dt, sink);
          // (d) wrap in place — the old position died in this iteration's
          // registers; no snapshot vectors, no separate wrap sweep.
          s.x[i] = wrapCoordinate(nx1, lx);
          s.y[i] = wrapCoordinate(ny1, ly);
          s.z[i] = wrapCoordinate(nz1, lz);
        }
      }
    }
  }
  // Every slot was written by exactly one tile's gather: the staging
  // columns now hold the whole updated buffer in canonical order.
  p.swapColumns(s);
  ARTSCI_EXPECTS_MSG(displacementOk,
                     "fused pipeline: particle displacement >= 1 cell in one "
                     "step — dt violates the CFL displacement bound");
}

}  // namespace artsci::pic
