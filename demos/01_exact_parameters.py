#!/usr/bin/env python3
"""Exact parameter arithmetic: floors you can trust.

Every count in this package starts from floor(tau*k + eta).  A float
evaluation of floor(3*sqrt(2)) is one rounding error away from being
wrong, so parameters live in exact representations: rationals, quadratic
surds a + b*sqrt(d), and (for other computable reals) adaptive-precision
intervals that refuse to guess.
"""

from fractions import Fraction
from math import isqrt

from beattydim import (
    Interval,
    ParamTuple,
    PrecisionExhausted,
    beatty_values,
    floor_linear,
    frac,
    member,
    parse_real,
    rational,
    surd,
)

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

print(f"S(sqrt(2), 0) up to 20: {beatty_values(root2, 0, 20)}")
print(f"S(3/2, 1/3)   up to 20: {beatty_values(half, rational(1, 3), 20)}")
print()
print("Each value comes from exactly one k (the index maps are injective):")
for x in (4, 5, 6):
    print(f"  member({x}, sqrt(2), 0) -> k = {member(x, root2, 0)}")

print()
print("=" * 72)
print("3. The interval tier and its honest failure mode")
print("=" * 72)


def sqrt2_enclosure(bits):
    r = isqrt(2 << (2 * bits))
    return (Fraction(r, 1 << bits), Fraction(r + 1, 1 << bits))


iv = Interval(sqrt2_enclosure)
print(f"interval sqrt(2): {iv!r}")
print(f"floor(3 * interval_sqrt2) = {floor_linear(iv, 3, 0)} (refined until decided)")


def secretly_two(bits):
    eps = Fraction(1, 1 << bits)
    return (2 - eps, 2 + eps)


try:
    Interval(secretly_two).floor(max_bits=1024)
except PrecisionExhausted as exc:
    print(f"hidden integer -> PrecisionExhausted: {exc}")
print("(a value that straddles an integer at every precision needs an exact tier)")

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
