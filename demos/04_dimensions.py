#!/usr/bin/env python3
"""Minkowski and Hausdorff dimensions.

Both dimensions are explicit functionals of the density vector and the
transition matrix: Minkowski is a weighted series over log_m |A^(i-1)|,
Hausdorff combines the chain transfer sums T(i) with the positive
solution of t_i^(gamma/alpha) = sum_j A(i,j) t_j.  They coincide exactly
when the row sums of A are equal.
"""

import math

from beattydim import (
    GOLDEN_MEAN,
    BinaryMatrix,
    ParamTuple,
    dimension_report,
    dims_coincide,
    solve_t,
)

print("=" * 72)
print("1. The doubling shift over the golden-mean matrix")
print("=" * 72)

p = ParamTuple(1, 0, 2, 0)
rep = dimension_report(p, GOLDEN_MEAN)
print(f"region   : {rep.region.id} ({rep.region.certificate})")
print(f"dim_M    : {rep.dim_M.value:.12f}  (+/- {rep.dim_M.err:.1e})")
print(f"dim_H    : {rep.dim_H.value:.12f}  (+/- {rep.dim_H.err:.1e})")
print(f"coincide : {rep.coincide} (row sums {GOLDEN_MEAN.row_sums} differ)")
sol = solve_t(GOLDEN_MEAN, 2.0)
print(f"t vector : {tuple(round(t, 10) for t in sol.t)}, certificate "
      f"{sol.residual:.1e} ({sol.iterations} solver steps)")
print(f"           dim_H = (1/2) log2(t0 + t1) = {0.5 * math.log2(sum(sol.t)):.12f}")

print()
print("=" * 72)
print("2. Equal row sums force the dimensions together")
print("=" * 72)
for matrix, name in [
    (BinaryMatrix.all_ones(2), "full shift (m=2)"),
    (BinaryMatrix([[0, 1], [1, 0]]), "swap matrix"),
    (BinaryMatrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]]), "circulant, rows = 2"),
    (GOLDEN_MEAN, "golden mean"),
]:
    rep = dimension_report(p, matrix, which="both")
    gap = rep.dim_M.value - rep.dim_H.value
    print(f"  {name:<22} rows equal: {str(dims_coincide(matrix)):<5} "
          f"dim_M - dim_H = {gap:+.2e}")

print()
print("=" * 72)
print("3. Across regions (golden-mean matrix)")
print("=" * 72)
for tup in [(1, 0, 2, 0), (2, 1, 4, 0), (2, 0, 4, 2), (2, 0, 3, 0),
            ("sqrt(2)", 0, "sqrt(3)", 0), ("sqrt(2)", 0, "2+sqrt(2)", 0)]:
    rep = dimension_report(ParamTuple(*tup), GOLDEN_MEAN)
    print(f"  {str(tup):>28}  {rep.region.id:<4} "
          f"dim_M={rep.dim_M.value:.8f}  dim_H={rep.dim_H.value:.8f}")

print()
print("=" * 72)
print("4. The open region falls back to measurement")
print("=" * 72)
rep = dimension_report(ParamTuple("sqrt(2)", 0, "3*sqrt(2)", 0), GOLDEN_MEAN,
                       n=50_000)
print(f"region  : {rep.region.id}")
print(f"dim_M   : {rep.dim_M.value:.6f}, dim_H: {rep.dim_H.value:.6f}")
for w in rep.warnings:
    print(f"warning : {w}")
