"""Exact real arithmetic with decidable signs and floors.

Parameters of a Beatty multiple shift are arbitrary reals, but every
downstream count hinges on evaluating floors like ``⌊τ·k + η⌋`` *exactly*.
The parameter grammar yields sums of rational multiples of square roots,
and three tiers hold every such sum exactly:

* ``Rational`` -- a ``fractions.Fraction`` in lowest terms.
* ``QuadraticSurd`` -- ``a + b·√d`` with rational a, b (b ≠ 0) and
  square-free d ≥ 2.  Floors and sign tests reduce to integer-square
  comparisons.  Signs, reciprocals and same-field products are taken
  on the integer numerators p + q·√d of a, b over one denominator z
  (the sign from p² against q²·d, 1/x = z·(p − q·√d)/(p² − q²·d)), so
  each result builds its ``Fraction``s once.
* ``RadicalSum`` -- ``c_1 + Σ c_r·√r`` over two or more square-free
  radicands r ≥ 2, one ``Fraction`` c_r ≠ 0 each.  Square roots of
  distinct square-free integers are linearly independent over Q
  (Besicovitch, J. London Math. Soc. 1940), so the coefficients are
  canonical: equality is a comparison of coefficients, and a
  ``RadicalSum`` is never rational.  Sign and reciprocal split x = u +
  v·√p over a factor p of the radicands and recurse toward Q; a floor
  is an isqrt enclosure, settled by one exact sign test where an integer
  lies inside it.

Every tier has one integer enclosure, ``_bounds(bits)``: (s, w, den)
with s/den <= x <= (s + w)/den.  ``Real._bounds`` takes one isqrt per
radicand over the common denominator of the coefficients, for the two
irrational tiers; a ``Rational`` is its own bound, w = 0.
``enclosure``, ``approx`` and ``_common_bounds`` (several values over
one denominator) read it, so no other code re-derives an enclosure.

Arithmetic returns the smallest tier that holds the result, so values
in one quadratic field keep their fast paths.  All values are immutable.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Union

RADICAND_MAX = 10**12  # parse_real splits radicands by trial division

_ZERO = Fraction(0)


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
    """Common base; concrete tiers are Rational, QuadraticSurd, RadicalSum.
    Each is a sum c_1 + Σ c_r·√r of its ``_coeffs``, enclosed by
    ``_bounds``."""

    __slots__ = ()

    def _bounds(self, bits: int) -> tuple[int, int, int]:
        """(s, w, den) with s/den <= x <= (s + w)/den and w/den = sum over
        r >= 2 of |c_r|/2^bits: one isqrt of r*4^bits per radicand, over
        the common denominator z of the coefficients, den = z*2^bits.
        Both bounds are strict, x being irrational on the two tiers that
        use this; ``Rational._bounds`` is exact, w = 0."""
        c = _coeffs(self)
        z = lcm(*(v.denominator for v in c.values()))
        s = w = 0
        for r, v in c.items():
            X = v.numerator * (z // v.denominator)
            if r == 1:
                s += X << bits
                continue
            root = isqrt(r << (2 * bits))  # root < 2^bits*sqrt(r) < root + 1
            s += X * root if X > 0 else X * (root + 1)
            w += abs(X)
        return s, w, z << bits

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        """(lo, hi) with lo <= x <= hi, from ``_bounds(bits)``."""
        s, w, den = self._bounds(bits)
        return (Fraction(s, den), Fraction(s + w, den))

    def floor(self) -> int:
        raise NotImplementedError

    def approx(self) -> float:
        """The float nearest the midpoint of the 96-bit ``_bounds``
        (int / int division rounds correctly); OverflowError past the
        float range."""
        s, w, den = self._bounds(96)
        return (2 * s + w) / (2 * den)

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
        if type(value) is not Fraction:
            value = Fraction(value)
        object.__setattr__(self, "value", value)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Rational is immutable")

    def _bounds(self, bits: int) -> tuple[int, int, int]:
        return (self.value.numerator, 0, self.value.denominator)  # exact

    def floor(self) -> int:
        return self.value.numerator // self.value.denominator

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

    def floor(self) -> int:
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


class RadicalSum(Real):
    """Value sum c_r*sqrt(r) over square-free r, held as ``terms``: the
    (r, c_r) pairs with c_r != 0 in increasing r, r = 1 for the rational
    part, and at least two radicands r >= 2.  Build it with
    ``_from_coeffs``, which returns a smaller tier where one holds the
    value."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[int, Fraction], ...]):
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *a):
        raise AttributeError("RadicalSum is immutable")

    def floor(self) -> int:
        """The integer part from an enclosure narrower than 2^-32: each
        |c_r| is below 2^(e + 1), e the largest numerator-minus-denominator
        bit length, and their sum below 2^(e + 1 + L) for L the bit length
        of the term count.  Where an integer n lies inside it, the exact
        sign of x - n decides: x is irrational, so it is never n."""
        e = max(c.numerator.bit_length() - c.denominator.bit_length()
                for r, c in self.terms if r > 1)
        s, w, den = self._bounds(
            max(0, e + 33 + len(self.terms).bit_length()))
        lo, hi = s // den, (s + w) // den
        if lo == hi or compare(self, hi) < 0:
            return lo
        return hi

    def __eq__(self, other):
        if isinstance(other, RadicalSum):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction, Rational, QuadraticSurd)):
            return False
        return NotImplemented

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        body = " + ".join(f"{c}" if r == 1 else f"{c}*sqrt({r})"
                          for r, c in self.terms)
        return f"RadicalSum({body})"


RealLike = Union[Real, int, Fraction]


def _surd_floor_ints(x: int, y: int, d: int, z: int) -> int:
    """floor((x + y*sqrt(d)) / z) for integers x, y, z>0, square-free d>=2.

    Exact: w = floor(y*sqrt(d)) comes from isqrt.  For y != 0, y*sqrt(d)
    is irrational, so x + y*sqrt(d) lies strictly between the integers
    x + w and x + w + 1, and no multiple of z lies strictly between
    them: the floor is (x + w) // z (x // z for y = 0).
    """
    w = isqrt(y * y * d)
    return (x + (w if y >= 0 else -w - 1)) // z


def _over_one_den(a: Fraction, b: Fraction) -> tuple[int, int, int]:
    """(p, q, z) with a = p/z, b = q/z and z = a.den*b.den > 0: the
    surd tier takes its signs, products and reciprocals on these."""
    return (a.numerator * b.denominator, b.numerator * a.denominator,
            a.denominator * b.denominator)


def _surd_sign(a: Fraction, b: Fraction, d: int) -> int:
    """Sign of a + b*sqrt(d) with b != 0 (never zero): the sign of p +
    q*sqrt(d) over ``_over_one_den``.  Where p and q differ in sign, p^2
    against q^2*d decides."""
    p, q, _ = _over_one_den(a, b)
    sp, sq = (p > 0) - (p < 0), 1 if q > 0 else -1
    if sp == 0 or sp == sq:
        return sp or sq
    return sp if p * p > q * q * d else -sp


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


def as_fraction(x: Real) -> Fraction:
    if isinstance(x, Rational):
        return x.value
    raise ValueError(f"{x!r} is not rational")


def _coeffs(x: Real) -> dict[int, Fraction]:
    """{r: c_r} with x = sum c_r*sqrt(r), r = 1 for the rational part."""
    if isinstance(x, Rational):
        return {1: x.value}
    if isinstance(x, QuadraticSurd):
        return {1: x.a, x.d: x.b}
    return dict(x.terms)


def _common_bounds(xs, bits: int) -> tuple[list[tuple[int, int]], int]:
    """([(s, w), ...], den): each x's ``_bounds(bits)`` over one common
    denominator, s/den <= x <= (s + w)/den."""
    bounds = [x._bounds(bits) for x in xs]
    den = lcm(*(d for _, _, d in bounds))
    return [(s * (den // d), w * (den // d)) for s, w, d in bounds], den


def _from_coeffs(c: dict[int, Fraction]) -> Real:
    """sum c[r]*sqrt(r) over square-free r in the smallest tier."""
    roots = sorted(r for r, v in c.items() if r > 1 and v)
    a = c.get(1, _ZERO)
    if not roots:
        return Rational(a)
    if len(roots) == 1:
        return QuadraticSurd(a, c[roots[0]], roots[0])
    return RadicalSum(((1, a),) * (a != 0) + tuple((r, c[r]) for r in roots))


def _split_factor(x: RadicalSum) -> int:
    """A p >= 2 that divides or is coprime to each radicand of x, so
    that x = u + v*sqrt(p) with no radicand of u or v divisible by p.
    p is the gcd of one radicand with each later one that shares a
    factor with it; each step keeps a divisor of the last p, so p ends
    up as a prime would, without factoring any radicand."""
    p = 0
    for r, _ in x.terms:
        g = gcd(p, r)
        if g > 1:
            p = g
    return p


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
    c = _coeffs(x)
    for r, v in _coeffs(y).items():
        c[r] = c.get(r, _ZERO) + v
    return _from_coeffs(c)


def _neg(x: Real) -> Real:
    if isinstance(x, Rational):
        return Rational(-x.value)
    if isinstance(x, QuadraticSurd):
        return QuadraticSurd(-x.a, -x.b, x.d)
    return RadicalSum(tuple((r, -c) for r, c in x.terms))


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
        if x.d == y.d:  # over the product of the two denominators
            d = x.d
            p1, q1, z1 = _over_one_den(x.a, x.b)
            p2, q2, z2 = _over_one_den(y.a, y.b)
            z = z1 * z2
            return _in_field(Fraction(p1 * p2 + q1 * q2 * d, z),
                             Fraction(p1 * q2 + q1 * p2, z), d)
        if x.a == 0 and y.a == 0:
            # b1*sqrt(d1) * b2*sqrt(d2) = b1*b2*g*sqrt((d1/g)*(d2/g)) with
            # g = gcd(d1, d2): coprime square-free factors, neither 1
            g = gcd(x.d, y.d)
            return QuadraticSurd(Fraction(0), x.b * y.b * g,
                                 (x.d // g) * (y.d // g))
    # sqrt(r1)*sqrt(r2) = g*sqrt((r1/g)*(r2/g)), g = gcd(r1, r2)
    c: dict[int, Fraction] = {}
    cy = _coeffs(y).items()
    for r1, v1 in _coeffs(x).items():
        for r2, v2 in cy:
            g = gcd(r1, r2)
            r = (r1 // g) * (r2 // g)
            c[r] = c.get(r, _ZERO) + v1 * v2 * g
    return _from_coeffs(c)


def _reciprocal(x: Real) -> Real:
    if isinstance(x, Rational):
        if x.value == 0:
            raise ZeroDivisionError("division by exact zero")
        return Rational(1 / x.value)
    if isinstance(x, QuadraticSurd):
        # x = (p + q*sqrt(d))/z, so 1/x = z*(p - q*sqrt(d))/(p^2 - q^2*d),
        # a nonzero norm: x is irrational
        p, q, z = _over_one_den(x.a, x.b)
        norm = p * p - q * q * x.d
        return QuadraticSurd(Fraction(z * p, norm), Fraction(-z * q, norm),
                             x.d)
    # x = u + v*sqrt(p): 1/x = (u - v*sqrt(p)) / (u^2 - p*v^2), whose
    # denominator has no radicand divisible by p and is not 0
    p = _split_factor(x)
    conj = RadicalSum(tuple((r, -c if r % p == 0 else c) for r, c in x.terms))
    return _mul(conj, _reciprocal(_mul(x, conj)))


def _div(x: Real, y: Real) -> Real:
    return _mul(x, _reciprocal(y))


# ---------------------------------------------------------------------------
# sign, comparison
# ---------------------------------------------------------------------------

def sign(x: Real) -> int:
    """-1, 0 or 1, exactly.  A RadicalSum x = u + v*sqrt(p)
    (``_split_factor``) has v != 0: its sign is that of u where u and v
    agree or u = 0, and otherwise that of u times the sign of u^2 -
    p*v^2.  u, v and u^2 - p*v^2 have fewer radicand factors than x, so
    the recursion ends in the exact tiers."""
    if isinstance(x, Rational):
        v = x.value
        return (v > 0) - (v < 0)
    if isinstance(x, QuadraticSurd):
        return _surd_sign(x.a, x.b, x.d)
    p = _split_factor(x)
    u = _from_coeffs({r: c for r, c in x.terms if r % p})
    v = _from_coeffs({r // p: c for r, c in x.terms if r % p == 0})
    su, sv = sign(u), sign(v)
    if su == 0 or su == sv:
        return su or sv
    return su * sign(_add(_mul(u, u), _mul(Rational(Fraction(-p)), _mul(v, v))))


def compare(x: RealLike, y: RealLike) -> int:
    """-1, 0, or 1: the sign of x - y, exactly."""
    x, y = as_real(x), as_real(y)
    if isinstance(x, Rational) and isinstance(y, Rational):
        return (x.value > y.value) - (x.value < y.value)
    return sign(_add(x, _neg(y)))


# ---------------------------------------------------------------------------
# floors and fractional parts
# ---------------------------------------------------------------------------

def ceil_value(x: RealLike) -> int:
    return -as_real(_neg(as_real(x))).floor()


def floor_linear(tau: RealLike, k: int, eta: RealLike) -> int:
    """⌊τ·k + η⌋, exactly."""
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

    The terms collect into one coefficient per square-free radicand
    (each radicand is split once), and the value is built from them once.
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty parameter")
    if _RAT_RE.match(s):
        return Rational(_parse_unsigned_rational(s))
    c: dict[int, Fraction] = {}
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
            if not coef:
                continue
            root, radicand = _squarefree(radicand)
            coef *= root
        else:
            coef, radicand = _parse_unsigned_rational(term), 1
        c[radicand] = c.get(radicand, _ZERO) + (coef if sgn > 0 else -coef)
    return _from_coeffs(c)
