#include "pic/fields.hpp"

#include <cmath>

namespace artsci::pic {

namespace {

/// Below this many cells a solver loop runs on the calling thread. An
/// empty parallel region of a 4-thread team cost 2 us with the team
/// spinning and 17 us once it sleeps (libgomp, 4-vCPU VM, Release); the
/// updates cost 45-65 ns per cell on one thread, so 1024 cells (~50 us)
/// is where the team saves several times its start-up. Same bits either
/// way: every cell is updated independently.
constexpr long kMinParallelCells = 1024;

}  // namespace

FieldSolver::FieldSolver(const GridSpec& grid) : grid_(grid) {
  ARTSCI_EXPECTS(grid.nx > 1 && grid.ny > 1 && grid.nz > 1);
  ARTSCI_EXPECTS(grid.dx > 0 && grid.dy > 0 && grid.dz > 0);
}

double FieldSolver::cflNumber(double dt) const {
  return dt * std::sqrt(1.0 / (grid_.dx * grid_.dx) +
                        1.0 / (grid_.dy * grid_.dy) +
                        1.0 / (grid_.dz * grid_.dz));
}

void FieldSolver::updateBHalf(VectorField& B, const VectorField& E, double dt,
                              long iBegin, long iEnd) const {
  const long ny = grid_.ny, nz = grid_.nz;
  if (iEnd < 0) iEnd = grid_.nx;
  const long nx = iEnd;
  // Bx(i, j+1/2, k+1/2) -= dt/2 * ( dEz/dy - dEy/dz )
#pragma omp parallel for collapse(2) schedule(static) \
    if ((nx - iBegin) * ny * nz >= kMinParallelCells)
  for (long i = iBegin; i < nx; ++i) {
    for (long j = 0; j < ny; ++j) {
      for (long k = 0; k < nz; ++k) {
        const double curlEx =
            (E.z.at(i, j + 1, k) - E.z.at(i, j, k)) / grid_.dy -
            (E.y.at(i, j, k + 1) - E.y.at(i, j, k)) / grid_.dz;
        const double curlEy =
            (E.x.at(i, j, k + 1) - E.x.at(i, j, k)) / grid_.dz -
            (E.z.at(i + 1, j, k) - E.z.at(i, j, k)) / grid_.dx;
        const double curlEz =
            (E.y.at(i + 1, j, k) - E.y.at(i, j, k)) / grid_.dx -
            (E.x.at(i, j + 1, k) - E.x.at(i, j, k)) / grid_.dy;
        B.x.at(i, j, k) -= 0.5 * dt * curlEx;
        B.y.at(i, j, k) -= 0.5 * dt * curlEy;
        B.z.at(i, j, k) -= 0.5 * dt * curlEz;
      }
    }
  }
}

void FieldSolver::updateE(VectorField& E, const VectorField& B,
                          const VectorField& J, double dt, long iBegin,
                          long iEnd) const {
  const long ny = grid_.ny, nz = grid_.nz;
  if (iEnd < 0) iEnd = grid_.nx;
  const long nx = iEnd;
#pragma omp parallel for collapse(2) schedule(static) \
    if ((nx - iBegin) * ny * nz >= kMinParallelCells)
  for (long i = iBegin; i < nx; ++i) {
    for (long j = 0; j < ny; ++j) {
      for (long k = 0; k < nz; ++k) {
        // curl B evaluated at the E staggering (backward differences).
        const double curlBx =
            (B.z.at(i, j, k) - B.z.at(i, j - 1, k)) / grid_.dy -
            (B.y.at(i, j, k) - B.y.at(i, j, k - 1)) / grid_.dz;
        const double curlBy =
            (B.x.at(i, j, k) - B.x.at(i, j, k - 1)) / grid_.dz -
            (B.z.at(i, j, k) - B.z.at(i - 1, j, k)) / grid_.dx;
        const double curlBz =
            (B.y.at(i, j, k) - B.y.at(i - 1, j, k)) / grid_.dx -
            (B.x.at(i, j, k) - B.x.at(i, j - 1, k)) / grid_.dy;
        E.x.at(i, j, k) += dt * (curlBx - J.x.at(i, j, k));
        E.y.at(i, j, k) += dt * (curlBy - J.y.at(i, j, k));
        E.z.at(i, j, k) += dt * (curlBz - J.z.at(i, j, k));
      }
    }
  }
}

double FieldSolver::maxDivB(const VectorField& B) const {
  const long nx = grid_.nx, ny = grid_.ny, nz = grid_.nz;
  double maxAbs = 0.0;
#pragma omp parallel for collapse(2) reduction(max : maxAbs) \
    if (nx * ny * nz >= kMinParallelCells)
  for (long i = 0; i < nx; ++i) {
    for (long j = 0; j < ny; ++j) {
      for (long k = 0; k < nz; ++k) {
        const double div =
            (B.x.at(i + 1, j, k) - B.x.at(i, j, k)) / grid_.dx +
            (B.y.at(i, j + 1, k) - B.y.at(i, j, k)) / grid_.dy +
            (B.z.at(i, j, k + 1) - B.z.at(i, j, k)) / grid_.dz;
        maxAbs = std::max(maxAbs, std::abs(div));
      }
    }
  }
  return maxAbs;
}

double FieldSolver::electricEnergy(const VectorField& E) const {
  return E.energy() * grid_.cellVolume();
}

double FieldSolver::magneticEnergy(const VectorField& B) const {
  return B.energy() * grid_.cellVolume();
}

double FieldSolver::fieldEnergy(const VectorField& E,
                                const VectorField& B) const {
  return electricEnergy(E) + magneticEnergy(B);
}

}  // namespace artsci::pic
