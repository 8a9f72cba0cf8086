#!/usr/bin/env python3
"""Exact parameter arithmetic: floors you can trust.

Every count in this package starts from floor(tau*k + eta).  A float
evaluation of floor(3*sqrt(2)) is one rounding error away from being
wrong, so parameters live in exact representations: rationals, quadratic
surds a + b*sqrt(d), and sums of square roots of several radicands.
Every sign and floor of them is decided exactly.
"""

from beattydim import (
    ParamTuple,
    floor_linear,
    frac,
    member,
    parse_real,
    rational,
    surd,
)
from beattydim.beatty import BeattyPair

print("=" * 72)
print("1. Three representation tiers")
print("=" * 72)

half = rational(3, 2)
root2 = surd(0, 1, 2)
mixed = parse_real("1+2*sqrt(5)/3")
print(f"rational  : {half!r}")
print(f"surd      : {root2!r}")
print(f"parsed    : {mixed!r}   (grammar: rational +/- rational*sqrt(int))")

print()
print("Floors are exact by integer-square comparison, never by float:")
for k in (3, 5, 12, 10**9):
    print(f"  floor(sqrt(2) * {k}) = {floor_linear(root2, k, 0)}")
print(f"  floor(3/2 * 5 + 1/3) = {floor_linear(half, 5, rational(1, 3))}")
print(f"  frac(sqrt(2)) = {frac(root2)!r}")

print()
print("=" * 72)
print("2. Beatty sequences and unique inversion")
print("=" * 72)



def values_up_to(tau, eta, limit):
    """floor(tau*k + eta) for the k whose floor lands in [1, limit]."""
    pair = BeattyPair(tau, eta)
    return [pair.floor(k) for k in range(pair.first_k, pair.first_k_at(limit + 1))]


print(f"S(sqrt(2), 0) up to 20: {values_up_to(root2, 0, 20)}")
print(f"S(3/2, 1/3)   up to 20: {values_up_to(half, rational(1, 3), 20)}")
print()
print("Each value comes from exactly one k (the index maps are injective):")
for x in (4, 5, 6):
    print(f"  member({x}, sqrt(2), 0) -> k = {member(x, root2, 0)}")

print()
print("=" * 72)
print("3. Sums of square roots: the multi-radicand tier")
print("=" * 72)

s = parse_real("sqrt(2)+sqrt(3)")
print(f"parsed    : {s!r}")
print(f"floor((sqrt(2)+sqrt(3)) * 10^9) = {floor_linear(s, 10**9, 0)}")
print(f"floor((sqrt(2)+sqrt(3)) * 10^30) = {floor_linear(s, 10**30, 0)}")
print(f"(sqrt(2)+sqrt(3)) * (sqrt(3)-sqrt(2)) = {s * parse_real('sqrt(3)-sqrt(2)')!r}")
print(f"1/(sqrt(2)+sqrt(3)) = {1 / s!r}")
print("(coefficients are canonical, so a hidden integer is found exactly)")
try:
    ParamTuple("sqrt(2)+sqrt(3)", "sqrt(5)", "sqrt(7)+sqrt(11)", 0)
except ValueError as exc:
    print(f"radicand cap: {exc}")

print()
print("=" * 72)
print("4. Validated parameter tuples")
print("=" * 72)

p = ParamTuple("sqrt(2)", 0, "2+sqrt(2)", 0)
print(f"tuple  : {p!r}")
print(f"ratio  : gamma/alpha = {p.ratio!r} = {p.ratio.approx():.6f}")
try:
    ParamTuple(2, 0, 2, 0)
except ValueError as exc:
    print(f"alpha < gamma is enforced: {exc}")
