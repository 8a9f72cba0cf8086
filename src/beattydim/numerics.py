"""Exact real arithmetic with decidable signs and floors.

Parameters of a Beatty multiple shift are arbitrary reals, but every
downstream count hinges on evaluating floors like ``⌊τ·k + η⌋`` *exactly*.
The parameter grammar yields sums of rational multiples of square roots,
and one form holds every such sum exactly: an integer numerator n_r per
square-free radicand r (r = 1 for the rational part) over one positive
denominator z,

    x = (Σ n_r·√r) / z,   no n_r zero,   gcd(z, n_r, ...) = 1.

Square roots of distinct square-free integers are linearly independent
over Q (Besicovitch, J. London Math. Soc. 1940), so the form is
canonical: every value is reduced by one gcd when it is built
(``_make``), and equality and hashing compare numerators and
denominator.  ``_make`` picks the class by the number of radicands
r >= 2: none gives a ``Rational``, which keeps its value as a
``fractions.Fraction``; one gives a ``QuadraticSurd`` a + b·√d, read
through the views ``a``, ``b``, ``d``; two or more give a
``RadicalSum``, read through ``terms``.  The classes differ only in
these views and in ``__repr__``: the arithmetic is written once, on the
numerators.

A sign splits x = u + v·√p over a factor p of the radicands and
recurses on u, v and u² − p·v², in integers; for one radicand that is
the test of p² against q²·d for p + q·√d.  A reciprocal multiplies by
the conjugate u − v·√p on the same split.  A floor takes one isqrt per
term, settled by one exact sign test where an integer lies inside the
enclosure (never for one radicand).

Every value has one integer enclosure, ``_bounds(bits)``: (s, w, den)
with s/den <= x <= (s + w)/den, one isqrt per radicand, w = 0 for a
rational.  ``enclosure``, ``approx`` and ``_common_bounds`` (several
values over one denominator) read it, so no other code re-derives an
enclosure.  All values are immutable.
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
    """Common base of Rational, QuadraticSurd and RadicalSum: the value
    (Σ n_r·√r)/z of ``_nums`` = {r: n_r}, in increasing r, over ``_den``
    = z, in the canonical form of the module docstring."""

    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _bounds(self, bits: int) -> tuple[int, int, int]:
        """(s, w, den) with s/den <= x <= (s + w)/den and w/den = sum over
        r >= 2 of |n_r|/(z*2^bits): one isqrt of r*4^bits per radicand,
        den = z*2^bits.  Both bounds are strict where x is irrational."""
        s = w = 0
        for r, n in self._nums.items():
            if r == 1:
                s += n << bits
                continue
            root = isqrt(r << (2 * bits))  # root < 2^bits*sqrt(r) < root + 1
            s += n * root if n > 0 else n * (root + 1)
            w += abs(n)
        return s, w, self._den << bits

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        """(lo, hi) with lo <= x <= hi, from ``_bounds(bits)``."""
        s, w, den = self._bounds(bits)
        return (Fraction(s, den), Fraction(s + w, den))

    def floor(self) -> int:
        return _floor(self._nums, self._den)

    def approx(self) -> float:
        """The float nearest the midpoint of the 96-bit ``_bounds``
        (int / int division rounds correctly); OverflowError past the
        float range."""
        s, w, den = self._bounds(96)
        return (2 * s + w) / (2 * den)

    def __float__(self) -> float:
        return self.approx()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Rational(other)
        elif not isinstance(other, Real):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash((tuple(self._nums.items()), self._den))

    # arithmetic (delegates to the module functions; accepts ints/Fractions)
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
    """A rational value, kept as the Fraction ``value``: its numerator
    over its denominator is the canonical form, and it hashes as that
    Fraction, to which (and to an equal int) it compares equal."""

    __slots__ = ("value",)

    def __init__(self, value):
        if type(value) is not Fraction:
            value = Fraction(value)
        object.__setattr__(self, "value", value)

    @property
    def _nums(self) -> dict[int, int]:
        n = self.value.numerator
        return {1: n} if n else {}

    @property
    def _den(self) -> int:
        return self.value.denominator

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"Rational({self.value})"


class QuadraticSurd(Real):
    """Value a + b*sqrt(d) with one square-free radicand d >= 2 and
    b != 0.  ``QuadraticSurd(a, b, d)`` is ``surd(a, b, d)``, which
    returns a Rational for b = 0 or a square d."""

    __slots__ = ("_nums", "_den")

    def __new__(cls, a, b, d: int):
        return surd(a, b, d)

    @property
    def a(self) -> Fraction:
        return Fraction(self._nums.get(1, 0), self._den)

    @property
    def b(self) -> Fraction:
        return Fraction(self._nums[self.d], self._den)

    @property
    def d(self) -> int:
        return next(reversed(self._nums))

    def __repr__(self):
        return f"QuadraticSurd({self.a} + {self.b}*sqrt({self.d}))"


class RadicalSum(Real):
    """Value sum c_r*sqrt(r) over two or more square-free radicands
    r >= 2, read through ``terms``: the (r, c_r) pairs with c_r != 0 in
    increasing r, r = 1 for the rational part.  ``RadicalSum(terms)``
    sums ``surd(0, c, r)`` over the pairs, so it returns a smaller class
    where one holds the value."""

    __slots__ = ("_nums", "_den")

    def __new__(cls, terms):
        return sum((surd(0, c, r) for r, c in terms), Rational(_ZERO))

    @property
    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        z = self._den
        return tuple((r, Fraction(n, z)) for r, n in self._nums.items())

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


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _make(c: dict[int, int], z: int) -> Real:
    """The value (Σ c[r]·√r)/z, for square-free r, no zero c[r] and
    z != 0, in the canonical form: radicands in increasing order,
    numerators and denominator divided by their gcd and signed so that
    the denominator is positive.  The class follows from the number of
    radicands r >= 2; a ``Fraction`` reduces a rational value itself."""
    k = len(c) - (1 in c)
    if not k:
        return Rational(Fraction(c.get(1, 0), z))
    g = gcd(z, *c.values())
    if z < 0:
        g = -g
    x = object.__new__(QuadraticSurd if k == 1 else RadicalSum)
    object.__setattr__(x, "_nums", {r: c[r] // g for r in sorted(c)})
    object.__setattr__(x, "_den", z // g)
    return x


def _from_fractions(c: dict[int, Fraction]) -> Real:
    """sum c[r]*sqrt(r) over square-free r, over the lcm of the
    denominators."""
    z = lcm(*(v.denominator for v in c.values()))
    return _make({r: v.numerator * (z // v.denominator)
                  for r, v in c.items() if v}, z)


def rational(num, den=1) -> Rational:
    return Rational(Fraction(num, den))


def surd(a, b, d: int) -> Real:
    """a + b*sqrt(d), square factors pulled out of d; b = 0 or a
    perfect-square d give a Rational."""
    a, b = Fraction(a), Fraction(b)
    if b == 0:
        return Rational(a)
    s, d0 = _squarefree(d)
    if d0 == 1:
        return Rational(a + b * s)
    return _from_fractions({1: a, d0: b * s})


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


def _common_bounds(xs, bits: int) -> tuple[list[tuple[int, int]], int]:
    """([(s, w), ...], den): each x's ``_bounds(bits)`` over one common
    denominator, s/den <= x <= (s + w)/den."""
    bounds = [x._bounds(bits) for x in xs]
    den = lcm(*(d for _, _, d in bounds))
    return [(s * (den // d), w * (den // d)) for s, w, d in bounds], den


# ---------------------------------------------------------------------------
# arithmetic on the numerators
#
# The helpers below take and return numerator dicts {r: n} without zero
# entries (only ``_floor`` may set the rational one to 0); only ``_make``
# reduces them to a value.
# ---------------------------------------------------------------------------

def _combine(x: Real, y: Real, a: int, b: int) -> tuple[dict[int, int], int]:
    """The numerators and denominator of a*x + b*y, over x.den * y.den."""
    xz, yz = x._den, y._den
    c = {r: a * n * yz for r, n in x._nums.items()}
    for r, n in y._nums.items():
        c[r] = c.get(r, 0) + b * n * xz
    if 0 in c.values():
        c = {r: n for r, n in c.items() if n}
    return c, xz * yz


def _product(x: dict[int, int], y: dict[int, int]) -> dict[int, int]:
    """The numerators of (Σ x[r]·√r)(Σ y[r]·√r), with sqrt(r1)*sqrt(r2) =
    g*sqrt((r1/g)*(r2/g)) for g = gcd(r1, r2)."""
    c: dict[int, int] = {}
    for r1, n1 in x.items():
        for r2, n2 in y.items():
            g = gcd(r1, r2)
            r = (r1 // g) * (r2 // g)
            c[r] = c.get(r, 0) + n1 * n2 * g
    return {r: n for r, n in c.items() if n}


def _split_factor(c: dict[int, int]) -> int:
    """A p >= 2 that divides or is coprime to each radicand of c (which
    has two or more), so that Σ c[r]·√r = u + v*sqrt(p) with no radicand
    of u or v divisible by p.  p is the gcd of one radicand
    with each later one that shares a factor with it; each step keeps a
    divisor of the last p, so p ends up as a prime would, without
    factoring any radicand."""
    p = 0
    for r in c:
        g = gcd(p, r)
        if g > 1:
            p = g
    return p


def _sign(c: dict[int, int]) -> int:
    """Sign of Σ c[r]·√r, exactly.  With p from ``_split_factor`` the sum
    is u + v*sqrt(p), v != 0: its sign is that of u where u and v agree
    or u = 0, and otherwise that of u times the sign of u^2 - p*v^2.
    u, v and u^2 - p*v^2 have fewer radicand factors, so the recursion
    ends at one radicand, u + v*sqrt(d) with integers u and v, where the
    same rule compares u^2 with v^2*d."""
    k = len(c) - (1 in c)
    if k > 1:
        p = _split_factor(c)
        u = {r: n for r, n in c.items() if r % p}
        v = {r // p: n for r, n in c.items() if not r % p}
        su, sv = _sign(u), _sign(v)
        if su == 0 or su == sv:
            return su or sv
        norm = _product(u, u)
        for r, n in _product(v, v).items():
            norm[r] = norm.get(r, 0) - p * n
        return su * _sign({r: n for r, n in norm.items() if n})
    u = c.get(1, 0)
    su = (u > 0) - (u < 0)
    if k == 0:
        return su
    d = max(c)
    v = c[d]
    sv = 1 if v > 0 else -1
    if su == 0 or su == sv:
        return su or sv
    return su if u * u > v * v * d else -su


def _inverse(c: dict[int, int]) -> tuple[dict[int, int], int]:
    """(w, z) with 1/(Σ c[r]·√r) = (Σ w[r]·√r)/z.  With Σ c[r]·√r = u +
    v*sqrt(p) (``_split_factor``), 1/x = (u - v*sqrt(p)) / (u^2 -
    p*v^2), whose denominator has fewer radicand factors and is not 0;
    the recursion ends at one radicand, (u - v*sqrt(d))/(u^2 - v^2*d)
    with integers u and v."""
    k = len(c) - (1 in c)
    if k > 1:
        p = _split_factor(c)
        conj = {r: -n if r % p == 0 else n for r, n in c.items()}
        w, z = _inverse(_product(c, conj))
        return _product(conj, w), z
    u = c.get(1, 0)
    if not k:
        if not u:
            raise ZeroDivisionError("division by exact zero")
        return {1: 1}, u
    d = max(c)
    v = c[d]
    return {r: -n if r == d else n for r, n in c.items()}, u * u - v * v * d


def _floor(c: dict[int, int], z: int) -> int:
    """floor((Σ c[r]·√r)/z) for z > 0.  Each of the k terms with r >= 2
    lies strictly between the integers f and f + 1 for f =
    floor(c[r]*sqrt(r)*2^bits) from one isqrt, so (Σ c[r]·√r)*2^bits
    lies strictly between s and s + k.  For k <= 1, at bits = 0, no
    multiple of z lies strictly inside and the floor is s // z.  For
    k >= 2, bits narrows the enclosure below 2^-32; where an integer m
    lies inside it, the exact sign of x - m decides (x is irrational,
    never m)."""
    k = len(c) - (1 in c)
    bits = max(0, 33 + k.bit_length() - z.bit_length()) if k > 1 else 0
    s = 0
    for r, n in c.items():
        if r == 1:
            s += n << bits
            continue
        f = isqrt((n * n * r) << (2 * bits))
        s += f if n > 0 else -f - 1
    den = z << bits
    lo, hi = s // den, (s + max(k - 1, 0)) // den
    if lo == hi:
        return lo
    c = dict(c)
    c[1] = c.get(1, 0) - hi * z
    return lo if _sign(c) < 0 else hi


def _add(x: Real, y: Real) -> Real:
    return _make(*_combine(x, y, 1, 1))


def _neg(x: Real) -> Real:
    return _make({r: -n for r, n in x._nums.items()}, x._den)


def _abs(x: Real) -> Real:
    s = sign(x)
    return _neg(x) if s < 0 else x


def _mul(x: Real, y: Real) -> Real:
    return _make(_product(x._nums, y._nums), x._den * y._den)


def _reciprocal(x: Real) -> Real:
    w, z = _inverse(x._nums)
    xz = x._den
    return _make({r: n * xz for r, n in w.items()}, z)


def _div(x: Real, y: Real) -> Real:
    return _mul(x, _reciprocal(y))


# ---------------------------------------------------------------------------
# sign, comparison
# ---------------------------------------------------------------------------

def sign(x: Real) -> int:
    """-1, 0 or 1, exactly (``_sign`` of the numerators)."""
    return _sign(x._nums)


def compare(x: RealLike, y: RealLike) -> int:
    """-1, 0, or 1: the sign of x - y, exactly."""
    return _sign(_combine(as_real(x), as_real(y), 1, -1)[0])


# ---------------------------------------------------------------------------
# floors and fractional parts
# ---------------------------------------------------------------------------

def ceil_value(x: RealLike) -> int:
    return -_neg(as_real(x)).floor()


def floor_linear(tau: RealLike, k: int, eta: RealLike) -> int:
    """⌊τ·k + η⌋, exactly."""
    return _floor(*_combine(as_real(tau), as_real(eta), k, 1))


def frac(x: RealLike) -> Real:
    """x - ⌊x⌋ in the same representation family, in [0, 1)."""
    x = as_real(x)
    return _add(x, Rational(Fraction(-x.floor())))


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
    return _from_fractions(c)
