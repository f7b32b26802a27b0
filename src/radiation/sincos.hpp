/// \file sincos.hpp
/// Branch-free sin/cos of a bounded argument, for the radiation phase sum.
/// The body is straight-line double arithmetic (no table, no libm call, no
/// data-dependent branch), so a `#pragma omp simd` loop vectorizes it and
/// every ISA gives the same bits as long as the caller is compiled without
/// FMA contraction.
///
/// Reduction: Cody–Waite x = n·π/2 + r with π/2 split in three 33-bit parts
/// (fdlibm's e_rem_pio2 "medium" case, all three rounds taken). For
/// |x| ≤ kSincosMaxArg the quotient n has at most 20 bits, so each n·part
/// product is exact and r carries ~118 good bits as a head/tail pair.
/// Kernels: the fdlibm/FreeBSD minimax polynomials on |r| ≤ π/4
/// (k_sin.c/k_cos.c), each within 1 ulp of the true value there.
#pragma once

#include <bit>
#include <cstdint>

namespace artsci::radiation {

/// Largest |x| the reduction keeps accurate: 2^19·π/2.
inline constexpr double kSincosMaxArg = 524288.0 * 1.57079632679489661923;

struct SinCos {
  double sin;
  double cos;
};

/// sin(x) and cos(x) for |x| ≤ kSincosMaxArg (not checked here: the
/// caller bounds its arguments once per batch).
inline SinCos sincosBounded(double x) {
  constexpr double kInvPio2 = 6.36619772367581382433e-01;
  constexpr double kPio2_1 = 1.57079632673412561417e+00;   // first 33 bits
  constexpr double kPio2_2 = 6.07710050630396597660e-11;   // second 33 bits
  constexpr double kPio2_2t = 2.02226624879595063154e-21;  // pi/2 - (1+2)
  constexpr double kPio2_3 = 2.02226624871116645580e-21;   // third 33 bits
  constexpr double kPio2_3t = 8.47842766036889956997e-32;  // pi/2 - (1+2+3)
  // 1.5·2^52: adding it rounds to the nearest integer, which then sits in
  // the low mantissa bits (two's complement, so n mod 4 survives for n<0).
  constexpr double kRoundShift = 6755399441055744.0;

  const double shifted = x * kInvPio2 + kRoundShift;
  const double fn = shifted - kRoundShift;
  const std::uint64_t quadrant = std::bit_cast<std::uint64_t>(shifted);

  double r = x - fn * kPio2_1;
  double t = r;
  double w = fn * kPio2_2;
  r = t - w;
  w = fn * kPio2_2t - ((t - r) - w);
  t = r;
  w = fn * kPio2_3;
  r = t - w;
  w = fn * kPio2_3t - ((t - r) - w);
  const double y0 = r - w;
  const double y1 = (r - y0) - w;

  constexpr double S1 = -1.66666666666666324348e-01;
  constexpr double S2 = 8.33333333332248946124e-03;
  constexpr double S3 = -1.98412698298579493134e-04;
  constexpr double S4 = 2.75573137070700676789e-06;
  constexpr double S5 = -2.50507602534068634195e-08;
  constexpr double S6 = 1.58969099521155010221e-10;
  constexpr double C1 = 4.16666666666666019037e-02;
  constexpr double C2 = -1.38888888888741095749e-03;
  constexpr double C3 = 2.48015872894767294178e-05;
  constexpr double C4 = -2.75573143513906633035e-07;
  constexpr double C5 = 2.08757232129817482790e-09;
  constexpr double C6 = -1.13596475577881948265e-11;

  const double z = y0 * y0;
  const double z2 = z * z;
  const double v = z * y0;
  const double rs = S2 + z * (S3 + z * S4) + z * z2 * (S5 + z * S6);
  const double sinR = y0 - ((z * (0.5 * y1 - v * rs) - y1) - v * S1);
  const double rc =
      z * (C1 + z * (C2 + z * C3)) + z2 * z2 * (C4 + z * (C5 + z * C6));
  const double hz = 0.5 * z;
  const double oneMinusHz = 1.0 - hz;
  const double cosR =
      oneMinusHz + (((1.0 - oneMinusHz) - hz) + (z * rc - y0 * y1));

  // x = r + n·π/2: odd n swaps sin and cos; the sign flips follow n mod 4.
  const bool swap = (quadrant & 1) != 0;
  const bool negSin = (quadrant & 2) != 0;
  const bool negCos = ((quadrant + 1) & 2) != 0;
  const double s = swap ? cosR : sinR;
  const double c = swap ? sinR : cosR;
  return {negSin ? -s : s, negCos ? -c : c};
}

}  // namespace artsci::radiation
