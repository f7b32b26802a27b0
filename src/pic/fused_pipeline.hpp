/// \file fused_pipeline.hpp
/// Supercell-fused particle pipeline (PIConGPU's supercell design
/// [Hoenig et al. 2010] applied to the whole particle update): one stable
/// counting sort per step, then a single per-tile pass that
///  (o) puts the tile in canonical order and gathers it into staging
///      columns (SupercellIndex::orderTile — incremental, since the tile
///      arrives in last step's order),
///  (a) gathers E/B from per-tile halo-padded read caches — precomputed
///      strides, no per-access periodic-wrap arithmetic, the 8 corners of
///      each Yee component at fixed offsets from one base index,
///  (b) runs the Boris push and the move,
///  (c) scatters Esirkepov current straight into the tile's private
///      DepositBuffer accumulator, and
///  (d) wraps positions in place,
/// and swaps the staging columns in after the pass.
///
/// This replaces the legacy split path's three full-population sweeps
/// (scalar wrapped gather + push, a re-binning deposit with its own
/// counting sort, a separate wrap pass) and its old-position snapshot
/// vectors — old positions live in the tile loop's registers instead.
/// The in-tile ordering and the 7-column gather run inside the tile pass,
/// so a species step forks two OpenMP regions (bin, tile pass) and each
/// tile is gathered while it is in cache. bench/particle_pipeline.cpp
/// measures the A/B (target >= 1.5x particle updates/s on the quick-demo
/// KHI at 8 threads).
///
/// Determinism: each tile is ordered canonically by phase-space key (a
/// pure function of the particle multiset — see SupercellIndex; the same
/// permutation SupercellIndex::sort produces), tile caches are copies,
/// per-particle arithmetic is shared with the split path
/// (interpolate.hpp / pusher.hpp / deposit.hpp kernels), per-tile
/// scatter order is the sorted order, and the reduction is the fixed-
/// order DepositBuffer reduce — so a fused step is bit-identical across
/// OMP thread counts, schedules, and repeated runs, bit-identical to
/// the split tiled path up to the (deterministic) particle reordering,
/// and bit-identical to the rank-decomposed driver for any rank count
/// (pic/domain.hpp). Enforced by tests/pic/test_fused_pipeline.cpp and
/// tests/pic/test_domain.cpp.
#pragma once

#include <vector>

#include "pic/deposit_buffer.hpp"
#include "pic/grid.hpp"
#include "pic/particles.hpp"

namespace artsci::pic {

/// Which particle-update path Simulation::step() runs. A/B selectable
/// like DepositMode; both produce bit-identical fields.
enum class ParticlePipeline {
  Split,  ///< legacy: gather+push sweep, re-binning deposit, wrap sweep
  Fused,  ///< supercell-tiled single pass (default; needs DepositMode::Tiled)
};

/// Driver of the fused per-tile pass. Owns the supercell index used for
/// the per-step binning and the staging columns the pass writes;
/// accumulator storage and the fixed-order reduction are shared with the
/// split path through DepositBuffer. Not thread-safe (internally
/// OpenMP-parallel): one instance per simulation driver.
class FusedPipeline {
 public:
  /// Tile geometry is taken from `accumCfg` and must match the
  /// DepositBuffer later passed to pushAndDeposit (checked there).
  explicit FusedPipeline(const GridSpec& grid, TileDepositConfig accumCfg = {});

  /// One fused update of every particle in `p`: bin by supercell, then
  /// per tile order/gather/push/move/deposit/wrap, then reduce the tile
  /// accumulators into J (accumulates; caller zeroes J per step).
  /// Positions must be wrapped into [0, n) on entry (throws otherwise);
  /// per-particle displacement must stay under one cell per axis (the
  /// CFL bound guarantees this — violated means dt is invalid, throws).
  /// `bdx/bdy/bdz`, when non-null, receive d(beta)/dt per particle,
  /// index-parallel to the *post-sort* SoA columns (all three or none).
  void pushAndDeposit(ParticleBuffer& p, const VectorField& E,
                      const VectorField& B, VectorField& J, double dt,
                      DepositBuffer& accum, std::vector<double>* bdx = nullptr,
                      std::vector<double>* bdy = nullptr,
                      std::vector<double>* bdz = nullptr);

  /// The fused pass *without* the final reduction: bin, then per tile
  /// order/gather/push/move/deposit/wrap, leaving the tile accumulators in
  /// `accum` populated for the occupied tiles of index(). The
  /// rank-decomposed driver uses this so every rank can scatter into its
  /// private accumulators concurrently and the cross-rank reduction can
  /// run as its own collectively-ordered phase (DepositBuffer::
  /// reduceTileRows); same contract as pushAndDeposit otherwise.
  void pushAndScatter(ParticleBuffer& p, const VectorField& E,
                      const VectorField& B, double dt, DepositBuffer& accum,
                      std::vector<double>* bdx = nullptr,
                      std::vector<double>* bdy = nullptr,
                      std::vector<double>* bdz = nullptr);

  /// Post-sort supercell occupancy of the most recent pushAndDeposit.
  const SupercellIndex& index() const { return index_; }

 private:
  /// One worker thread's scratch (grow-only, reused across steps so the
  /// hot loop never allocates). Contents are fully rewritten per tile, so
  /// reuse cannot leak state between tiles or steps.
  struct ThreadScratch {
    std::vector<double> cache;  ///< E/B tile caches, 6 components
    std::vector<SupercellIndex::SortKey> keys;  ///< in-tile order keys
  };

  GridSpec grid_;
  SupercellIndex index_;  ///< binned only; its sort() staging stays empty
  std::vector<ThreadScratch> threads_;
  /// The tile pass's output columns, swapped with the buffer's after it.
  ParticleBuffer staging_;
};

}  // namespace artsci::pic
