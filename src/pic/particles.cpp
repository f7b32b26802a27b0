#include "pic/particles.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace artsci::pic {

void ParticleBuffer::reserve(std::size_t n) {
  x.reserve(n);
  y.reserve(n);
  z.reserve(n);
  ux.reserve(n);
  uy.reserve(n);
  uz.reserve(n);
  w.reserve(n);
}

void ParticleBuffer::clear() {
  x.clear();
  y.clear();
  z.clear();
  ux.clear();
  uy.clear();
  uz.clear();
  w.clear();
}

void ParticleBuffer::push(const Vec3d& position, const Vec3d& momentum,
                          double weight) {
  x.push_back(position.x);
  y.push_back(position.y);
  z.push_back(position.z);
  ux.push_back(momentum.x);
  uy.push_back(momentum.y);
  uz.push_back(momentum.z);
  w.push_back(weight);
}

void ParticleBuffer::append(const ParticleBuffer& other) {
  x.insert(x.end(), other.x.begin(), other.x.end());
  y.insert(y.end(), other.y.begin(), other.y.end());
  z.insert(z.end(), other.z.begin(), other.z.end());
  ux.insert(ux.end(), other.ux.begin(), other.ux.end());
  uy.insert(uy.end(), other.uy.begin(), other.uy.end());
  uz.insert(uz.end(), other.uz.begin(), other.uz.end());
  w.insert(w.end(), other.w.begin(), other.w.end());
}

void ParticleBuffer::swapRemove(std::size_t i) {
  ARTSCI_EXPECTS(i < size());
  const std::size_t last = size() - 1;
  x[i] = x[last];
  y[i] = y[last];
  z[i] = z[last];
  ux[i] = ux[last];
  uy[i] = uy[last];
  uz[i] = uz[last];
  w[i] = w[last];
  x.pop_back();
  y.pop_back();
  z.pop_back();
  ux.pop_back();
  uy.pop_back();
  uz.pop_back();
  w.pop_back();
}

void ParticleBuffer::resize(std::size_t n) {
  x.resize(n);
  y.resize(n);
  z.resize(n);
  ux.resize(n);
  uy.resize(n);
  uz.resize(n);
  w.resize(n);
}

void ParticleBuffer::swapColumns(ParticleBuffer& other) {
  x.swap(other.x);
  y.swap(other.y);
  z.swap(other.z);
  ux.swap(other.ux);
  uy.swap(other.uy);
  uz.swap(other.uz);
  w.swap(other.w);
}

double ParticleBuffer::gamma(std::size_t i) const {
  const double u2 = ux[i] * ux[i] + uy[i] * uy[i] + uz[i] * uz[i];
  return std::sqrt(1.0 + u2);
}

Vec3d ParticleBuffer::velocity(std::size_t i) const {
  const double g = gamma(i);
  return {ux[i] / g, uy[i] / g, uz[i] / g};
}

double ParticleBuffer::kineticEnergy() const {
  double e = 0.0;
  for (std::size_t i = 0; i < size(); ++i)
    e += w[i] * (gamma(i) - 1.0) * info_.mass;
  return e;
}

Vec3d ParticleBuffer::totalMomentum() const {
  Vec3d p{};
  for (std::size_t i = 0; i < size(); ++i) {
    p.x += w[i] * ux[i] * info_.mass;
    p.y += w[i] * uy[i] * info_.mass;
    p.z += w[i] * uz[i] * info_.mass;
  }
  return p;
}

namespace {

/// Below this many particles bin() and sort() run on the calling thread.
/// An empty parallel region of a 4-thread team cost 2 us with the team
/// spinning and 17 us once it sleeps (libgomp, 4-vCPU VM, Release);
/// binning, and ordering plus gathering, each cost about 15 ns per
/// particle on one thread, so 4096 particles (~60 us) is where the team
/// saves several times its start-up. Same bits either way: no result
/// depends on the team.
constexpr std::size_t kMinParallelParticles = 4096;

/// Order-preserving 64-bit image of a double: for non-NaN a and b,
/// orderedKey(a) < orderedKey(b) exactly when a < b, and the keys are
/// equal exactly when a == b. Adding +0.0 folds -0.0 into +0.0; then the
/// sign bit is set on non-negative values and every bit flipped on
/// negative ones, which turns the IEEE layout into unsigned order.
std::uint64_t orderedKey(double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v + 0.0);
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  return (bits & kSign) != 0 ? ~bits : bits | kSign;
}

/// Run length the in-tile sort insertion-sorts before merging.
constexpr std::size_t kRun = 32;

template <class Before>
void insertionSort(SupercellIndex::SortKey* k, std::size_t m,
                   const Before& before) {
  for (std::size_t i = 1; i < m; ++i) {
    const SupercellIndex::SortKey e = k[i];
    std::size_t j = i;
    for (; j > 0 && before(e, k[j - 1]); --j) k[j] = k[j - 1];
    k[j] = e;
  }
}

/// Merge the sorted neighbours a = k[0, na) and b = k[na, na + nb) in
/// place. Only their overlap moves: the head of a below b's first key and
/// the tail of b above a's last key are found by binary search and stay
/// put, and the shorter side of what is left goes to `spare` (room for
/// min(na, nb) keys). Runs already in order cost one comparison.
template <class Before>
void mergeRuns(SupercellIndex::SortKey* k, std::size_t na, std::size_t nb,
               SupercellIndex::SortKey* spare, const Before& before) {
  SupercellIndex::SortKey* const b = k + na;
  if (!before(b[0], b[-1])) return;
  SupercellIndex::SortKey* const lo = std::upper_bound(k, b, b[0], before);
  SupercellIndex::SortKey* const hi =
      std::lower_bound(b, b + nb, b[-1], before);
  const auto la = static_cast<std::size_t>(b - lo);
  const auto lb = static_cast<std::size_t>(hi - b);
  if (la <= lb) {
    // Forward: a's overlap to spare, merge up from lo.
    std::copy(lo, b, spare);
    std::size_t x = 0, y = 0, out = 0;
    while (x < la && y < lb)
      lo[out++] = before(b[y], spare[x]) ? b[y++] : spare[x++];
    while (x < la) lo[out++] = spare[x++];
  } else {
    // Backward: b's overlap to spare, merge down from hi.
    std::copy(b, hi, spare);
    std::size_t x = la, y = lb, out = la + lb;
    while (x > 0 && y > 0)
      lo[--out] = before(spare[y - 1], lo[x - 1]) ? lo[--x] : spare[--y];
    while (y > 0) lo[--out] = spare[--y];
  }
}

long clampedEdge(long edge, long cells) {
  ARTSCI_EXPECTS(edge >= 1 && cells >= 1);
  return std::min(edge, cells);
}

}  // namespace

SupercellIndex::SupercellIndex(const GridSpec& grid, long tileEdge)
    : SupercellIndex(grid, tileEdge, tileEdge, tileEdge) {}

SupercellIndex::SupercellIndex(const GridSpec& grid, long edgeX, long edgeY,
                               long edgeZ)
    : edgeX_(clampedEdge(edgeX, grid.nx)),
      edgeY_(clampedEdge(edgeY, grid.ny)),
      edgeZ_(clampedEdge(edgeZ, grid.nz)),
      grid_(grid) {
  tilesX_ = (grid.nx + edgeX_ - 1) / edgeX_;
  tilesY_ = (grid.ny + edgeY_ - 1) / edgeY_;
  tilesZ_ = (grid.nz + edgeZ_ - 1) / edgeZ_;
}

long SupercellIndex::tileOf(double xCell, double yCell, double zCell) const {
  long ti = static_cast<long>(std::floor(xCell)) / edgeX_;
  long tj = static_cast<long>(std::floor(yCell)) / edgeY_;
  long tk = static_cast<long>(std::floor(zCell)) / edgeZ_;
  ti = std::clamp(ti, 0L, tilesX_ - 1);
  tj = std::clamp(tj, 0L, tilesY_ - 1);
  tk = std::clamp(tk, 0L, tilesZ_ - 1);
  return (ti * tilesY_ + tj) * tilesZ_ + tk;
}

Vec3d SupercellIndex::tileCenter(long tile) const {
  ARTSCI_EXPECTS(tile >= 0 && tile < tileCount());
  const long tk = tile % tilesZ_;
  const long tj = (tile / tilesZ_) % tilesY_;
  const long ti = tile / (tilesY_ * tilesZ_);
  return {(static_cast<double>(ti) + 0.5) * static_cast<double>(edgeX_),
          (static_cast<double>(tj) + 0.5) * static_cast<double>(edgeY_),
          (static_cast<double>(tk) + 0.5) * static_cast<double>(edgeZ_)};
}

bool SupercellIndex::bin(const double* xs, const double* ys, const double* zs,
                         std::size_t n) {
  ARTSCI_EXPECTS(n <= static_cast<std::size_t>(UINT32_MAX));
  const long nl = static_cast<long>(n);
  tileOf_.resize(n);
  perm_.resize(n);

  // Tile keys (parallel; order-independent). Out-of-domain positions are
  // flagged rather than thrown here — throwing inside an OpenMP region
  // would terminate — and their keys clamped so the ranges stay valid.
  bool inDomain = true;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) reduction(&& : inDomain) \
    if (n >= kMinParallelParticles)
#endif
  for (long i = 0; i < nl; ++i) {
    const auto s = static_cast<std::size_t>(i);
    const long ci = static_cast<long>(std::floor(xs[s]));
    const long cj = static_cast<long>(std::floor(ys[s]));
    const long ck = static_cast<long>(std::floor(zs[s]));
    const bool ok = ci >= 0 && ci < grid_.nx && cj >= 0 && cj < grid_.ny &&
                    ck >= 0 && ck < grid_.nz;
    inDomain = inDomain && ok;
    // Same key arithmetic as tileOf(), reusing the floors computed for
    // the domain check above.
    const long ti = std::clamp(ci / edgeX_, 0L, tilesX_ - 1);
    const long tj = std::clamp(cj / edgeY_, 0L, tilesY_ - 1);
    const long tk = std::clamp(ck / edgeZ_, 0L, tilesZ_ - 1);
    tileOf_[s] = static_cast<std::int32_t>((ti * tilesY_ + tj) * tilesZ_ + tk);
  }

  // Stable counting sort: per-tile order is ascending particle index.
  // Serial: O(N) with trivial constants next to the per-particle physics.
  const long tiles = tileCount();
  cursor_.assign(static_cast<std::size_t>(tiles) + 1, 0);
  for (long i = 0; i < nl; ++i)
    ++cursor_[static_cast<std::size_t>(tileOf_[static_cast<std::size_t>(i)]) +
              1];
  for (long t = 0; t < tiles; ++t)
    cursor_[static_cast<std::size_t>(t) + 1] +=
        cursor_[static_cast<std::size_t>(t)];
  ranges_.assign(static_cast<std::size_t>(tiles), Range{});
  for (long t = 0; t < tiles; ++t)
    ranges_[static_cast<std::size_t>(t)] = {
        cursor_[static_cast<std::size_t>(t)],
        cursor_[static_cast<std::size_t>(t) + 1]};
  for (long i = 0; i < nl; ++i) {
    const auto s = static_cast<std::size_t>(i);
    perm_[cursor_[static_cast<std::size_t>(tileOf_[s])]++] =
        static_cast<std::uint32_t>(i);
  }
  return inDomain;
}

void SupercellIndex::orderTile(long t, const ParticleBuffer& src,
                               ParticleBuffer& dst,
                               std::vector<SortKey>& keys) {
  const Range r = tileRange(t);
  const std::size_t m = r.end - r.begin;
  if (m == 0) return;
  std::uint32_t* idx = perm_.data() + r.begin;
  // m keys, then room for the larger half a merge may set aside.
  if (keys.size() < m + m / 2) keys.resize(m + m / 2);
  SortKey* const k = keys.data();
  for (std::size_t i = 0; i < m; ++i)
    k[i] = {orderedKey(src.x[idx[i]]), idx[i]};

  // Canonical order: ascending x-major phase-space key. Equal x keys mean
  // equal x, so a tie goes on to y, z, ux, uy, uz, w and, past all seven,
  // to the input index. The order is strict and total, so every correct
  // sort yields this one permutation.
  const auto before = [&src](const SortKey& a, const SortKey& b) {
    if (a.x != b.x) return a.x < b.x;
    const auto i = static_cast<std::size_t>(a.index);
    const auto j = static_cast<std::size_t>(b.index);
    if (src.y[i] != src.y[j]) return src.y[i] < src.y[j];
    if (src.z[i] != src.z[j]) return src.z[i] < src.z[j];
    if (src.ux[i] != src.ux[j]) return src.ux[i] < src.ux[j];
    if (src.uy[i] != src.uy[j]) return src.uy[i] < src.uy[j];
    if (src.uz[i] != src.uz[j]) return src.uz[i] < src.uz[j];
    if (src.w[i] != src.w[j]) return src.w[i] < src.w[j];
    return a.index < b.index;
  };
  for (std::size_t b = 0; b < m; b += kRun)
    insertionSort(k + b, std::min(kRun, m - b), before);
  for (std::size_t width = kRun; width < m; width *= 2)
    for (std::size_t b = 0; b + width < m; b += 2 * width)
      mergeRuns(k + b, width, std::min(width, m - b - width), k + m, before);

  for (std::size_t i = 0; i < m; ++i) {
    const auto s = static_cast<std::size_t>(k[i].index);
    const std::size_t d = r.begin + i;
    idx[i] = k[i].index;
    dst.x[d] = src.x[s];
    dst.y[d] = src.y[s];
    dst.z[d] = src.z[s];
    dst.ux[d] = src.ux[s];
    dst.uy[d] = src.uy[s];
    dst.uz[d] = src.uz[s];
    dst.w[d] = src.w[s];
  }
}

bool SupercellIndex::sort(ParticleBuffer& buffer) {
  const std::size_t n = buffer.size();
  const bool inDomain =
      bin(buffer.x.data(), buffer.y.data(), buffer.z.data(), n);
  scratch_.resize(n);
#ifdef _OPENMP
  const auto team = static_cast<std::size_t>(omp_get_max_threads());
#else
  const std::size_t team = 1;
#endif
  if (keys_.size() < team) keys_.resize(team);
  const long tiles = tileCount();
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic) if (n >= kMinParallelParticles)
#endif
  for (long t = 0; t < tiles; ++t) {
#ifdef _OPENMP
    std::vector<SortKey>& keys =
        keys_[static_cast<std::size_t>(omp_get_thread_num())];
#else
    std::vector<SortKey>& keys = keys_[0];
#endif
    orderTile(t, buffer, scratch_, keys);
  }
  buffer.swapColumns(scratch_);
  return inDomain;
}

}  // namespace artsci::pic
