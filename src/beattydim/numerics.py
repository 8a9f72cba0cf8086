"""Exact and adaptive-precision real arithmetic with decidable floors.

Parameters of a Beatty multiple shift are arbitrary reals, but every
downstream count hinges on evaluating floors like ``⌊τ·k + η⌋`` *exactly*.
Three representation tiers make that possible:

* ``Rational`` -- a ``fractions.Fraction`` in lowest terms.
* ``QuadraticSurd`` -- ``a + b·√d`` with rational a, b (b ≠ 0) and
  square-free d ≥ 2.  Floors and sign tests reduce to integer-square
  comparisons, so they are exact.
* ``Interval`` -- a deterministic enclosure ``[lo, hi]`` with a
  precision-doubling refiner, for computable reals outside the exact
  tiers.  Floors are resolved by refining until the enclosure pins the
  integer part; failure past a precision cap raises
  ``PrecisionExhausted`` (the value may *be* an integer, in which case
  the caller must supply an exact representation).

Arithmetic stays in the exact tiers whenever the result is again
rational or a single-radical surd; anything that would leave those
fields (e.g. products mixing √2 and √3 non-trivially) degrades to an
``Interval`` built from the operands' enclosures.  All values are
immutable; refinement returns new objects.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt
from typing import Callable, Tuple, Union

INTERVAL_START_BITS = 128
INTERVAL_MAX_BITS = 8192
RADICAND_MAX = 10**12  # parse_real splits radicands by trial division

_EncFn = Callable[[int], Tuple[Fraction, Fraction]]


class PrecisionExhausted(ArithmeticError):
    """Interval refinement hit the precision cap while a floor or
    comparison is still ambiguous.  Usually means the true value is (or
    is suspiciously close to) an integer and needs an exact tier."""


def _squarefree(d: int) -> tuple[int, int]:
    """Split d = s**2 * d0 with d0 square-free; returns (s, d0)."""
    if d <= 0:
        raise ValueError(f"radicand must be positive, got {d}")
    s, d0, f = 1, 1, 2
    n = d
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            s *= f ** (e // 2)
            if e % 2:
                d0 *= f
        f += 1 if f == 2 else 2
    d0 *= n
    return s, d0


class Real:
    """Common base; concrete tiers are Rational, QuadraticSurd, Interval."""

    __slots__ = ()

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        raise NotImplementedError

    def floor(self, max_bits: int = INTERVAL_MAX_BITS) -> int:
        raise NotImplementedError

    def approx(self) -> float:
        lo, hi = self.enclosure(96)
        return float((lo + hi) / 2)

    def __float__(self) -> float:
        return self.approx()

    # arithmetic (delegates to module dispatch; accepts ints/Fractions)
    def __add__(self, other):
        return _add(self, as_real(other))

    def __radd__(self, other):
        return _add(as_real(other), self)

    def __sub__(self, other):
        return _add(self, _neg(as_real(other)))

    def __rsub__(self, other):
        return _add(as_real(other), _neg(self))

    def __mul__(self, other):
        return _mul(self, as_real(other))

    def __rmul__(self, other):
        return _mul(as_real(other), self)

    def __truediv__(self, other):
        return _div(self, as_real(other))

    def __rtruediv__(self, other):
        return _div(as_real(other), self)

    def __neg__(self):
        return _neg(self)

    def __abs__(self):
        return _abs(self)

    def __lt__(self, other):
        return compare(self, as_real(other)) < 0

    def __le__(self, other):
        return compare(self, as_real(other)) <= 0

    def __gt__(self, other):
        return compare(self, as_real(other)) > 0

    def __ge__(self, other):
        return compare(self, as_real(other)) >= 0


class Rational(Real):
    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", Fraction(value))

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Rational is immutable")

    @property
    def numerator(self) -> int:
        return self.value.numerator

    @property
    def denominator(self) -> int:
        return self.value.denominator

    def is_integer(self) -> bool:
        return self.value.denominator == 1

    def as_fraction(self) -> Fraction:
        return self.value

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        return (self.value, self.value)

    def floor(self, max_bits: int = INTERVAL_MAX_BITS) -> int:
        return self.value.numerator // self.value.denominator

    def approx(self) -> float:
        return float(self.value)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.value == other
        if isinstance(other, Rational):
            return self.value == other.value
        if isinstance(other, QuadraticSurd):
            return False  # surds are normalized to have b != 0, hence irrational
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"Rational({self.value})"


class QuadraticSurd(Real):
    """Value a + b*sqrt(d); d square-free >= 2, b != 0 after normalization."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Fraction, b: Fraction, d: int):
        # callers go through surd() or pass a square-free d; this constructor
        # trusts normalized input
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *a):
        raise AttributeError("QuadraticSurd is immutable")

    def is_integer(self) -> bool:
        return False

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        root = isqrt(self.d << (2 * bits))
        lo_r = Fraction(root, 1 << bits)
        hi_r = Fraction(root + 1, 1 << bits)
        if self.b >= 0:
            return (self.a + self.b * lo_r, self.a + self.b * hi_r)
        return (self.a + self.b * hi_r, self.a + self.b * lo_r)

    def floor(self, max_bits: int = INTERVAL_MAX_BITS) -> int:
        z = self.a.denominator * self.b.denominator // gcd(
            self.a.denominator, self.b.denominator
        )
        x = self.a.numerator * (z // self.a.denominator)
        y = self.b.numerator * (z // self.b.denominator)
        return _surd_floor_ints(x, y, self.d, z)

    def __eq__(self, other):
        if isinstance(other, QuadraticSurd):
            return (self.a, self.b, self.d) == (other.a, other.b, other.d)
        if isinstance(other, (int, Fraction, Rational)):
            return False
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        return f"QuadraticSurd({self.a} + {self.b}*sqrt({self.d}))"


class Interval(Real):
    """Deterministic enclosure with a precision-doubling refiner.

    ``fn(bits)`` must return a (lo, hi) Fraction pair enclosing the true
    value, with width -> 0 as bits grows.  Enclosures are intersected
    with the best one already known, so refinement is monotone.
    """

    __slots__ = ("_fn", "_lo", "_hi", "_bits")

    def __init__(self, fn: _EncFn, bits: int = INTERVAL_START_BITS,
                 known: tuple[Fraction, Fraction] | None = None):
        lo, hi = fn(bits)
        if known is not None:
            lo, hi = max(lo, known[0]), min(hi, known[1])
        if lo > hi:
            raise ValueError("refiner produced inconsistent enclosures")
        object.__setattr__(self, "_fn", fn)
        object.__setattr__(self, "_lo", Fraction(lo))
        object.__setattr__(self, "_hi", Fraction(hi))
        object.__setattr__(self, "_bits", bits)

    def __setattr__(self, *a):
        raise AttributeError("Interval is immutable")

    @property
    def lo(self) -> Fraction:
        return self._lo

    @property
    def hi(self) -> Fraction:
        return self._hi

    def refine(self, bits: int) -> "Interval":
        """New interval refined to `bits`; always a sub-interval of self."""
        return Interval(self._fn, bits, known=(self._lo, self._hi))

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        if bits <= self._bits:
            return (self._lo, self._hi)
        lo, hi = self._fn(bits)
        return (max(lo, self._lo), min(hi, self._hi))

    def is_integer(self) -> bool:
        raise NotImplementedError("undecidable for interval representations")

    def floor(self, max_bits: int = INTERVAL_MAX_BITS) -> int:
        bits = max(self._bits, INTERVAL_START_BITS)
        while True:
            lo, hi = self.enclosure(bits)
            flo = lo.numerator // lo.denominator
            fhi = hi.numerator // hi.denominator
            if flo == fhi or lo == hi:
                return flo
            if bits >= max_bits:
                raise PrecisionExhausted(
                    f"floor still ambiguous at {bits} bits: enclosure "
                    f"[{float(lo)}, {float(hi)}] straddles an integer"
                )
            bits = min(2 * bits, max_bits)

    def __repr__(self):
        return f"Interval([{float(self._lo)}, {float(self._hi)}] @{self._bits}b)"


RealLike = Union[Real, int, Fraction]


def _surd_floor_ints(x: int, y: int, d: int, z: int) -> int:
    """floor((x + y*sqrt(d)) / z) for integers x, y, z>0, square-free d>=2.

    Exact: candidate from isqrt, then at most one adjustment step decided
    by an integer-square comparison.  y*sqrt(d) is irrational for y != 0,
    so ties cannot occur.
    """
    if y == 0:
        return x // z
    if y > 0:
        w = isqrt(y * y * d)
    else:
        w = -isqrt(y * y * d) - 1
    n = (x + w) // z
    # true value lies in [(x+w)/z, (x+w+1)/z); floor is n or n+1
    while _surd_gt_int(x, y, d, z, n + 1):
        n += 1
    return n


def _surd_gt_int(x: int, y: int, d: int, z: int, t: int) -> bool:
    """Decide (x + y*sqrt(d))/z >= t exactly (equality impossible, y != 0)."""
    s = t * z - x  # compare y*sqrt(d) vs s
    if y > 0:
        return s < 0 or y * y * d > s * s
    return s < 0 and y * y * d < s * s


def _surd_sign(a: Fraction, b: Fraction, d: int) -> int:
    """Sign of a + b*sqrt(d) with b != 0 (never zero)."""
    if a == 0:
        return 1 if b > 0 else -1
    if b > 0:
        if a > 0:
            return 1
        return 1 if b * b * d > a * a else -1
    if a < 0:
        return -1
    return 1 if a * a > b * b * d else -1


# ---------------------------------------------------------------------------
# constructors and normalization
# ---------------------------------------------------------------------------

def rational(num, den=1) -> Rational:
    return Rational(Fraction(num, den))


def surd(a, b, d: int) -> Real:
    """Normalized a + b*sqrt(d): square factors pulled out of d, b = 0 or
    perfect-square d collapse to Rational.  Idempotent."""
    a, b = Fraction(a), Fraction(b)
    if b == 0:
        return Rational(a)
    s, d0 = _squarefree(d)
    if d0 == 1:
        return Rational(a + b * s)
    return QuadraticSurd(a, b * s, d0)


def _in_field(a: Fraction, b: Fraction, d: int) -> Real:
    """a + b*sqrt(d) for a square-free d >= 2: ``surd`` without the
    re-split of d."""
    return QuadraticSurd(a, b, d) if b else Rational(a)


def normalize(x: RealLike) -> Real:
    """Canonical form; normalizing twice equals normalizing once."""
    x = as_real(x)
    if isinstance(x, QuadraticSurd):
        return surd(x.a, x.b, x.d)
    return x


def as_real(x: RealLike) -> Real:
    if isinstance(x, Real):
        return x
    if isinstance(x, (int, Fraction)):
        return Rational(Fraction(x))
    raise TypeError(f"cannot interpret {x!r} as a real parameter")


def is_exact(x: Real) -> bool:
    return isinstance(x, (Rational, QuadraticSurd))


def as_fraction(x: Real) -> Fraction:
    if isinstance(x, Rational):
        return x.value
    raise ValueError(f"{x!r} is not rational")


# ---------------------------------------------------------------------------
# arithmetic dispatch
# ---------------------------------------------------------------------------

def _add(x: Real, y: Real) -> Real:
    if isinstance(x, Rational) and isinstance(y, Rational):
        return Rational(x.value + y.value)
    if isinstance(x, Rational) and isinstance(y, QuadraticSurd):
        return QuadraticSurd(y.a + x.value, y.b, y.d)
    if isinstance(x, QuadraticSurd) and isinstance(y, Rational):
        return QuadraticSurd(x.a + y.value, x.b, x.d)
    if isinstance(x, QuadraticSurd) and isinstance(y, QuadraticSurd) and x.d == y.d:
        return _in_field(x.a + y.a, x.b + y.b, x.d)

    def fn(bits):
        lx, hx = x.enclosure(bits + 2)
        ly, hy = y.enclosure(bits + 2)
        return (lx + ly, hx + hy)

    return Interval(fn)


def _neg(x: Real) -> Real:
    if isinstance(x, Rational):
        return Rational(-x.value)
    if isinstance(x, QuadraticSurd):
        return QuadraticSurd(-x.a, -x.b, x.d)

    def fn(bits):
        lo, hi = x.enclosure(bits)
        return (-hi, -lo)

    return Interval(fn)


def _abs(x: Real) -> Real:
    s = sign(x)
    return _neg(x) if s < 0 else x


def _mul(x: Real, y: Real) -> Real:
    if isinstance(x, Rational) and isinstance(y, Rational):
        return Rational(x.value * y.value)
    if isinstance(x, Rational) and isinstance(y, QuadraticSurd):
        return _in_field(x.value * y.a, x.value * y.b, y.d)
    if isinstance(x, QuadraticSurd) and isinstance(y, Rational):
        return _in_field(x.a * y.value, x.b * y.value, x.d)
    if isinstance(x, QuadraticSurd) and isinstance(y, QuadraticSurd):
        if x.d == y.d:
            return _in_field(
                x.a * y.a + x.b * y.b * x.d, x.a * y.b + x.b * y.a, x.d
            )
        if x.a == 0 and y.a == 0:
            # b1*sqrt(d1) * b2*sqrt(d2) = b1*b2*g*sqrt((d1/g)*(d2/g)) with
            # g = gcd(d1, d2): coprime square-free factors, neither 1
            g = gcd(x.d, y.d)
            return QuadraticSurd(Fraction(0), x.b * y.b * g,
                                 (x.d // g) * (y.d // g))

    def fn(bits):
        coarse_x = x.enclosure(16)
        coarse_y = y.enclosure(16)
        mag = max(1, abs(coarse_x[0]), abs(coarse_x[1]),
                  abs(coarse_y[0]), abs(coarse_y[1]))
        slack = int(mag).bit_length() + 4
        lx, hx = x.enclosure(bits + slack)
        ly, hy = y.enclosure(bits + slack)
        prods = (lx * ly, lx * hy, hx * ly, hx * hy)
        return (min(prods), max(prods))

    return Interval(fn)


def _reciprocal(x: Real) -> Real:
    if isinstance(x, Rational):
        if x.value == 0:
            raise ZeroDivisionError("division by exact zero")
        return Rational(1 / x.value)
    if isinstance(x, QuadraticSurd):
        norm = x.a * x.a - x.b * x.b * x.d  # nonzero: x irrational
        return _in_field(x.a / norm, -x.b / norm, x.d)

    def fn(bits):
        bb = max(bits, INTERVAL_START_BITS)
        while True:
            lo, hi = x.enclosure(bb)
            if lo > 0 or hi < 0:
                return (min(1 / lo, 1 / hi), max(1 / lo, 1 / hi))
            if bb >= INTERVAL_MAX_BITS:
                raise PrecisionExhausted(
                    "reciprocal of an enclosure straddling zero"
                )
            bb = min(2 * bb, INTERVAL_MAX_BITS)

    return Interval(fn)


def _div(x: Real, y: Real) -> Real:
    return _mul(x, _reciprocal(y))


# ---------------------------------------------------------------------------
# sign, comparison
# ---------------------------------------------------------------------------

def sign(x: Real) -> int:
    """Exact for the exact tiers; adaptive with PrecisionExhausted for
    intervals that keep straddling zero."""
    if isinstance(x, Rational):
        v = x.value
        return (v > 0) - (v < 0)
    if isinstance(x, QuadraticSurd):
        return _surd_sign(x.a, x.b, x.d)
    bits = INTERVAL_START_BITS
    while True:
        lo, hi = x.enclosure(bits)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        if lo == hi:  # exactly zero
            return 0
        if bits >= INTERVAL_MAX_BITS:
            raise PrecisionExhausted(
                f"sign still ambiguous at {bits} bits"
            )
        bits = min(2 * bits, INTERVAL_MAX_BITS)


def compare(x: RealLike, y: RealLike) -> int:
    """-1, 0, or 1.  Exact whenever both operands live in one quadratic
    field; cross-field and interval comparisons refine adaptively (two
    genuinely equal values that are not syntactically comparable raise
    PrecisionExhausted at the cap)."""
    x, y = as_real(x), as_real(y)
    if isinstance(x, Rational) and isinstance(y, Rational):
        return (x.value > y.value) - (x.value < y.value)
    exact_pair = is_exact(x) and is_exact(y)
    if exact_pair:
        same_field = (
            isinstance(x, Rational) or isinstance(y, Rational)
            or x.d == y.d  # type: ignore[union-attr]
        )
        if same_field:
            return sign(_add(x, _neg(y)))
        # distinct square-free radicands: values can never be equal
        bits = INTERVAL_START_BITS
        while bits <= INTERVAL_MAX_BITS:
            lx, hx = x.enclosure(bits)
            ly, hy = y.enclosure(bits)
            if hx < ly:
                return -1
            if hy < lx:
                return 1
            bits *= 2  # distinct algebraics separate quickly
        raise PrecisionExhausted("cross-field comparison did not separate")
    return sign(_add(x, _neg(y)))


def is_integer(x: Real) -> bool:
    """Exact tiers only; intervals are undecidable and raise."""
    if isinstance(x, Rational):
        return x.value.denominator == 1
    if isinstance(x, QuadraticSurd):
        return False
    raise NotImplementedError("undecidable for interval representations")


# ---------------------------------------------------------------------------
# floors and fractional parts
# ---------------------------------------------------------------------------

def ceil_value(x: RealLike) -> int:
    return -as_real(_neg(as_real(x))).floor()


def floor_linear(tau: RealLike, k: int, eta: RealLike) -> int:
    """⌊τ·k + η⌋, exact for exact tiers, adaptive for intervals."""
    tau, eta = as_real(tau), as_real(eta)
    return _add(_mul(tau, Rational(Fraction(k))), eta).floor()


def frac(x: RealLike) -> Real:
    """x - ⌊x⌋ in the same representation family, in [0, 1)."""
    x = as_real(x)
    n = x.floor()
    return _add(x, Rational(Fraction(-n)))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_RAT_RE = re.compile(r"^(\d+)(?:/(\d+))?$")
_DEC_RE = re.compile(r"^(?:\d+\.\d*|\.\d+)$")
_SQRT_RE = re.compile(
    r"^(?:(\d+(?:/\d+)?|\d+\.\d*|\.\d+)\*)?sqrt\((\d+)\)(?:/(\d+))?$"
)


def _parse_unsigned_rational(text: str) -> Fraction:
    m = _RAT_RE.match(text)
    if m:
        den = int(m.group(2)) if m.group(2) else 1
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(m.group(1)), den)
    if _DEC_RE.match(text):
        return Fraction(text)
    raise ValueError(f"cannot parse number {text!r}")


def _split_signed_terms(text: str) -> list[tuple[int, str]]:
    terms, depth, cur, sgn = [], 0, [], 1
    first = True
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and not first:
            terms.append((sgn, "".join(cur)))
            sgn = 1 if ch == "+" else -1
            cur = []
        elif ch in "+-" and depth == 0 and first:
            sgn = 1 if ch == "+" else -1
        else:
            cur.append(ch)
        first = False
    terms.append((sgn, "".join(cur)))
    return terms


def parse_real(text: str) -> Real:
    """Parameter grammar: integers ("3"), rationals ("7/2"), decimal
    literals ("2.5", exact), and surd expressions of the form
    rational ± rational·sqrt(int), e.g. "1+2*sqrt(5)/3" or "sqrt(2)",
    with every radicand in [1, RADICAND_MAX].
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty parameter")
    total: Real = Rational(Fraction(0))
    for sgn, term in _split_signed_terms(s):
        if not term:
            raise ValueError(f"dangling sign in {text!r}")
        m = _SQRT_RE.match(term)
        if m:
            coef = _parse_unsigned_rational(m.group(1)) if m.group(1) else Fraction(1)
            if m.group(3):
                if int(m.group(3)) == 0:
                    raise ValueError(f"zero denominator in {text!r}")
                coef /= int(m.group(3))
            radicand = int(m.group(2))
            if not 1 <= radicand <= RADICAND_MAX:
                raise ValueError(
                    f"radicand in {text!r} must lie in [1, {RADICAND_MAX}]")
            value = surd(0, sgn * coef, radicand)
        else:
            value = Rational(sgn * _parse_unsigned_rational(term))
        total = _add(total, value)
    return normalize(total)
