#!/usr/bin/env python3
"""Chain decomposition and density vectors.

The index constraints couple positions along chains x, f(x), f(f(x)), ...
where f maps the k-th left index to the k-th right index.  Classifying
every chain head -- never both sequences (A_1), exits after i-1 steps
(A_i), never exits (A_infinity) -- splits [1, n] into disjoint chains
plus a sparse residual, and the head frequencies d_i are the densities
that the dimension formulas consume.
"""

import io

from beattydim import (
    ParamTuple,
    classify_region,
    closed_form_d,
    decompose,
    empirical_densities,
    rational_d,
)

print("=" * 72)
print("1. A small window, fully decomposed: alpha=2, gamma=3")
print("=" * 72)

p = ParamTuple(2, 0, 3, 0)
dec = decompose(p, 30)
print("S(2,0) = evens, S(3,0) = multiples of 3; chains on [1, 30]:")
for ch in dec.chains:
    if len(ch.elements) > 1:
        print(f"  head {ch.head:>2} [{ch.cls.label():>9}]  {' -> '.join(map(str, ch.elements))}")
singles = [ch.head for ch in dec.chains if len(ch.elements) == 1]
print(f"  singletons (A_1 or truncated): {singles}")
print(f"  residual: {dec.residual or 'empty'}")
print(f"  A_(i,j) head counts (class i, j elements visible): {dec.counts}")

print()
print("CSV dump of the first rows (x, class, chain id, position):")
buf = io.StringIO()
dec.to_csv(buf)
for line in buf.getvalue().splitlines()[:8]:
    print("  " + line)

print()
print("=" * 72)
print("2. Empirical densities converge to the exact ones")
print("=" * 72)

exact = rational_d(p)
print("exact (residue machinery):  d_1 = 1/3, d_i = 1/(3*2^(i-1)), d_inf = 0")
for n in (1000, 10_000, 100_000):
    emp = empirical_densities(p, [(1, n)])
    row = "  ".join(f"d{i}={emp.entry_float(i):.5f}" for i in (1, 2, 3, 4))
    print(f"  n={n:>7}: {row}  dinf={emp.d_inf_float():.5f}")
row = "  ".join(f"d{i}={float(exact.entry(i)):.5f}" for i in (1, 2, 3, 4))
print(f"  exact    : {row}  dinf={float(exact.d_inf):.5f}")

print()
print("=" * 72)
print("3. Infinite chains and the horizon")
print("=" * 72)

p9 = ParamTuple(2, 0, 4, 2)
emp = empirical_densities(p9, [(1, 50_000)])
print("alpha=2, beta=0, gamma=4, delta=2: every chain head survives forever")
print(f"  empirical: d1 = {emp.entry_float(1):.5f}, candidate mass = {emp.d_inf_float():.5f}")
d = closed_form_d(p9, classify_region(p9))
print(f"  exact    : d1 = {d.finite[0]}, d_inf = {d.d_inf}")
print("  (infinity candidates are counted separately from long finite chains,")
print("   and the estimate is re-checked at twice the horizon)")

print()
print("=" * 72)
print("4. The refined split d_(i,j)")
print("=" * 72)

d = rational_d(p)
rho = 1 / p.ratio.value  # alpha/gamma
print("how many of a class-i chain's elements land inside [1, n]:")
for i in (2, 3):
    # d(i,j) = d_i*(rho^(j-1) - rho^j) for j < i, and d(i,i) = d_i*rho^(i-1)
    row = [d.entry(i) * (rho ** (j - 1) - rho ** j) for j in range(1, i)]
    row.append(d.entry(i) * rho ** (i - 1))
    row = ", ".join(f"d({i},{j}) = {v}" for j, v in enumerate(row, start=1))
    print(f"  i={i}: {row}")
print("each row telescopes exactly to d_i; the counting oracle in the test")
print("suite confirms the split against measured A_(i,j) frequencies.")
