"""Parameter-region classification and closed-form density vectors.

The parameter space {1 <= alpha < gamma} splits into regions with known
density vectors:

* R1   alpha = 1 (any gamma > 1):            d = (0, 0, 0.., 1 - 1/gamma)
* R2   alpha, gamma rational, alpha > 1:     residue-cover count (rational_d)
* R3   alpha irrational, gamma rational:     d_i = (alpha-1)(gamma-1)/(alpha^i gamma)
* R4   alpha, gamma irrational with {1, 1/alpha, 1/gamma} Q-independent:
       same formula as R3
* R5   dependent irrationals passing one of two witness conditions
       ((i): n/alpha + m/gamma = 1 with n*beta/alpha + m*delta/gamma
       integral; (ii): gamma/alpha = m/n in lowest terms with
       1 - m/alpha >= {m(beta-delta)/alpha} >= m/alpha):
       d = (1 - 1/alpha - 1/gamma, 1/alpha, 0.., 0)
* R6Open  dependent irrationals for which neither condition holds (both
       are decided exactly in the shared field): no closed form is
       known (open problem); empirical estimation only.
* R7..R10  the all-integer classification by alpha = 1 / divisibility of
       beta - delta by (alpha, gamma) / alpha_1 = 1.

Every tuple with rational alpha and gamma (R1 with rational gamma, R2,
R7..R10) takes its vector from one residue-cover count, ``rational_d``;
the region id only names the provenance.  The direct R7..R10 formulas
live in the test suite, as the independent reference that the count
must match exactly.

For quadratic surds Q-linear independence of {1, 1/alpha, 1/gamma} is
decided exactly: distinct square-free radicands are always independent,
a shared radicand always dependent.  A tuple with a parameter of two or
more radicands (a ``RadicalSum``) classifies as Unknown: the regions
are stated for rational and single-radicand parameters.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact
from fractions import Fraction
from math import gcd
from typing import Optional

from .beatty import BeattyPair, ParamTuple
from .chains import DEFAULT_K, ClosedForm, DensityVector
from .numerics import (
    QuadraticSurd,
    RadicalSum,
    Rational,
    Real,
    RealLike,
    _add,
    _div,
    _mul,
    _neg,
    _reciprocal,
    compare,
    frac,
)


class NoClosedForm(ValueError):
    """Requested a closed-form density vector for R6Open/Unknown."""


class NotRational(ValueError):
    """Residue-cover densities need rational alpha and gamma."""


_ZERO = Fraction(0)


@dataclass(frozen=True, slots=True)
class RegionId:
    id: str  # "R1".."R5", "R6Open", "R7".."R10", "Unknown"
    certificate: str

    def has_closed_form(self) -> bool:
        return self.id not in ("R6Open", "Unknown")


# ---------------------------------------------------------------------------
# residue covers
# ---------------------------------------------------------------------------

def residue_set(a: int, b: int, beta: RealLike) -> frozenset:
    """{ floor(beta + b*h/a) mod b : 0 <= h <= a-1 }; size is exactly a
    for coprime a <= b (the floors are strictly increasing and span less
    than one full period).  One ``BeattyPair.floor`` takes every floor:
    integer divisions for rational beta, one isqrt each for a surd."""
    if a < 1 or b < 1 or a > b:
        raise ValueError("need 1 <= a <= b (alpha = b/a >= 1)")
    if gcd(a, b) != 1:
        raise ValueError("a and b must be coprime")
    floor_at = BeattyPair(Rational(Fraction(b, a)), beta).floor
    out = frozenset(floor_at(h) % b for h in range(a))
    if len(out) != a:
        raise AssertionError("residue set size invariant violated")
    return out


def g_density(a: int, b: int, i: int, j: int) -> Fraction:
    """Density of (a*N + i) ∩ (b*N + j): (a,b)/(a*b) when (a,b) | (i-j),
    else the progressions are disjoint and the density is 0."""
    if not (0 <= i < a and 0 <= j < b):
        raise ValueError("residues must satisfy 0 <= i < a, 0 <= j < b")
    g0 = gcd(a, b)
    if (i - j) % g0 == 0:
        return Fraction(g0, a * b)
    return Fraction(0)


def rational_d(p: ParamTuple, K: int = DEFAULT_K) -> DensityVector:
    """Exact density vector for rational alpha = b/a, gamma = d/c.

    Residues i mod b and j mod d meet with density g/(b*d), g = gcd(b, d),
    exactly when i = j (mod g) (``g_density``).  With S the number of such
    pairs in R_a^b x R_c^d, counted class by class mod g in O(a + c):
      stay    = g*S/(b*d)   mass(S_ab ∩ S_cd),
      d_1     = 1 - a/b - c/d + stay   (in neither sequence),
      entry   = a/b - stay  mass(S_ab \\ S_cd)   (chain heads),
      ratio   = stay*d/c    mass(S_ab ∩ S_cd) / mass(S_cd)   (stay prob.),
      d_i     = entry * ratio^(i-2) * (1 - ratio)   for i >= 2,
      d_inf   = entry * ratio^infinity  (0 if ratio < 1, entry at ratio = 1).
    """
    if K < 2:
        raise ValueError("K must be >= 2")
    if not (isinstance(p.alpha, Rational) and isinstance(p.gamma, Rational)):
        raise NotRational("alpha and gamma must be rational")
    al, gm = p.alpha.value, p.gamma.value
    a, b = al.denominator, al.numerator
    c, d = gm.denominator, gm.numerator
    g = gcd(b, d)
    per_class = Counter(i % g for i in residue_set(a, b, p.beta))
    pairs = sum(per_class[j % g] for j in residue_set(c, d, p.delta))
    stay = Fraction(g * pairs, b * d)
    entry = Fraction(a, b) - stay
    ratio = stay * Fraction(d, c)
    d1 = 1 - Fraction(a, b) - Fraction(c, d) + stay
    # d_3 .. d_K follow from d_2 by the ratio, so the vector stores two
    # entries whatever K is
    return DensityVector(
        head=(d1, entry * (1 - ratio)),
        d_inf=entry if ratio == 1 else _ZERO,
        K=K,
        provenance=ClosedForm("R2"),
        tail_ratio=ratio,
    )


# ---------------------------------------------------------------------------
# witness conditions for dependent irrational pairs
# ---------------------------------------------------------------------------

def _is_integral(x: Real) -> bool:
    return isinstance(x, Rational) and x.value.denominator == 1


def q_independent(alpha: Real, gamma: Real) -> bool:
    """Is {1, 1/alpha, 1/gamma} linearly independent over Q?

    Exactly decidable for values of at most one radicand: a rational
    member makes the set dependent outright; two quadratic surds are
    independent iff their square-free radicands differ (a shared
    radicand always admits a nontrivial rational relation, distinct ones
    never do).  A value of two or more radicands raises ValueError."""
    if isinstance(alpha, RadicalSum) or isinstance(gamma, RadicalSum):
        raise ValueError("Q-independence is decided for rational and "
                         "single-radicand values only")
    if isinstance(alpha, Rational) or isinstance(gamma, Rational):
        return False
    return alpha.d != gamma.d


def _condition_i(p: ParamTuple) -> Optional[tuple[int, int]]:
    """Positive integers (n, m) with n/alpha + m/gamma = 1 and
    n*beta/alpha + m*delta/gamma integral, for alpha and gamma in one
    field Q(sqrt D).

    With 1/alpha = a1 + b1 sqrt D and 1/gamma = a2 + b2 sqrt D the first
    condition is the linear system n a1 + m a2 = 1, n b1 + m b2 = 0.  Its
    only solution is n = b2/det, m = -b1/det with det = a1 b2 - a2 b1.
    det = 0 admits none: b1, b2 != 0 then give (a1, a2) = c (b1, b2), so
    n a1 + m a2 = c (n b1 + m b2) = 0."""
    inv_a, inv_g = _reciprocal(p.alpha), _reciprocal(p.gamma)
    det = inv_a.a * inv_g.b - inv_g.a * inv_a.b
    if det == 0:
        return None
    n, m = inv_g.b / det, -inv_a.b / det
    if n.denominator != 1 or m.denominator != 1 or n < 1 or m < 1:
        return None
    w = _add(
        _mul(Rational(n), _mul(p.beta, inv_a)),
        _mul(Rational(m), _mul(p.delta, inv_g)),
    )
    return (n.numerator, m.numerator) if _is_integral(w) else None


def _condition_ii(p: ParamTuple) -> Optional[tuple[int, int]]:
    """Coprime (n, m) with n/alpha = m/gamma (i.e. gamma/alpha = m/n) and
    1 - m/alpha >= {m(beta-delta)/alpha} >= m/alpha."""
    if not isinstance(p.ratio, Rational):
        return None
    mn = p.ratio.value
    m, n = mn.numerator, mn.denominator
    m_over_a = _mul(Rational(Fraction(m)), _reciprocal(p.alpha))
    u = frac(_mul(Rational(Fraction(m)), _div(_add(p.beta, _neg(p.delta)), p.alpha)))
    upper = _add(Rational(Fraction(1)), _neg(m_over_a))
    if compare(u, m_over_a) >= 0 and compare(upper, u) >= 0:
        return (n, m)
    return None


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def classify_region(p: ParamTuple) -> RegionId:
    """Decision tree over the rationality and independence of the
    parameters.  Total: every tuple receives a region (possibly R6Open);
    a tuple with a parameter of two or more radicands is Unknown."""
    al, be, gm, de = p.alpha, p.beta, p.gamma, p.delta
    if any(isinstance(v, RadicalSum) for v in (al, be, gm, de)):
        return RegionId(
            "Unknown",
            "a parameter is a sum of square roots of two or more distinct "
            "radicands: the regions cover rational and single-radicand "
            "parameters only",
        )

    all_int = all(
        isinstance(v, Rational) and v.value.denominator == 1
        for v in (al, be, gm, de)
    )
    if all_int:
        A, B = al.value.numerator, be.value.numerator
        G, D = gm.value.numerator, de.value.numerator
        if A == 1:
            return RegionId("R7", f"integer tuple with alpha = 1 (gamma = {G})")
        g0 = gcd(A, G)
        if (B - D) % g0 != 0:
            return RegionId(
                "R8",
                f"integer tuple: (alpha,gamma) = {g0} does not divide "
                f"beta - delta = {B - D}",
            )
        a1 = A // g0
        if a1 == 1:
            return RegionId(
                "R9",
                f"integer tuple: {g0} | {B - D}, alpha_1 = 1 (alpha divides gamma)",
            )
        return RegionId(
            "R10", f"integer tuple: {g0} | {B - D}, alpha_1 = {a1} > 1"
        )

    if isinstance(al, Rational) and al.value == 1:
        return RegionId("R1", "alpha = 1, gamma > 1")

    if isinstance(al, Rational) and isinstance(gm, Rational):
        return RegionId(
            "R2",
            f"alpha = {al.value}, gamma = {gm.value} rational with alpha > 1",
        )

    if isinstance(al, QuadraticSurd) and isinstance(gm, QuadraticSurd):
        if q_independent(al, gm):
            return RegionId(
                "R4",
                f"{{1, 1/alpha, 1/gamma}} Q-independent: distinct square-free "
                f"radicands {al.d} and {gm.d}",
            )
        w = _condition_i(p)
        if w is not None:
            return RegionId(
                "R5",
                f"dependent irrationals; condition (i) witness n={w[0]}, m={w[1]}",
            )
        w = _condition_ii(p)
        if w is not None:
            return RegionId(
                "R5",
                f"dependent irrationals; condition (ii) witness n={w[0]}, m={w[1]}",
            )
        return RegionId(
            "R6Open",
            f"dependent irrationals (shared radicand {al.d}); neither witness "
            "condition holds; no closed form is known",
        )

    if isinstance(al, QuadraticSurd) and isinstance(gm, Rational):
        return RegionId(
            "R3", f"alpha irrational (radicand {al.d}), gamma = {gm.value} rational"
        )

    return RegionId(
        "Unknown",
        "alpha rational > 1 with gamma irrational: not covered by any "
        "closed form",
    )


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def closed_form_d(p: ParamTuple, r: RegionId, K: int = DEFAULT_K) -> DensityVector:
    """Exact density vector for a region with a known formula.  Rational
    alpha and gamma take ``rational_d`` (exact Fractions) whatever the
    region; surd regions yield floats evaluated from exact enclosures."""
    rid = r.id
    if K < 2:
        raise ValueError("K must be >= 2")
    if not r.has_closed_form():
        raise NoClosedForm(f"region {rid} has no closed-form density vector")

    prov = ClosedForm(rid)
    if isinstance(p.alpha, Rational) and isinstance(p.gamma, Rational):
        return replace(rational_d(p, K), provenance=prov)

    if rid == "R1":  # gamma is a surd
        try:
            inv_g = 1.0 / p.gamma.approx()
        except OverflowError:  # gamma past the float range
            inv_g = _reciprocal(p.gamma).approx()
        return DensityVector(
            head=(0.0,) * K, d_inf=1.0 - inv_g, K=K,
            provenance=prov, tail_ratio=0.0,
        )

    if rid == "R5":
        # exact cancellation is common here (complementary pairs have
        # 1/alpha + 1/gamma = 1 exactly), so evaluate in the surd field
        inv_a, inv_g = _reciprocal(p.alpha), _reciprocal(p.gamma)
        d1 = _add(Rational(Fraction(1)), _neg(_add(inv_a, inv_g))).approx()
        return DensityVector(
            head=(d1, inv_a.approx()) + (0.0,) * (K - 2), d_inf=0.0, K=K,
            provenance=prov, tail_ratio=0.0,
        )

    # R3 / R4: d_i = (alpha-1)(gamma-1) / (alpha^i * gamma)
    af = p.alpha.approx()
    try:
        gf = p.gamma.approx()
        top = (af - 1.0) * (gf - 1.0) / gf
    except OverflowError:  # gamma past the float range
        top = (af - 1.0) * (1.0 - _reciprocal(p.gamma).approx())
    finite = []
    for i in range(1, K + 1):
        try:
            finite.append(top / af ** i)
        except OverflowError:  # af**i is past the float range
            finite.append(finite[-1] / af)
    return DensityVector(
        head=tuple(finite), d_inf=0.0, K=K, provenance=prov,
        tail_ratio=1.0 / af,
    )


# ---------------------------------------------------------------------------
# report payload
# ---------------------------------------------------------------------------

_LEAF_BITS = 1024  # the pieces the split leaves to Decimal(int)
# exact Decimal arithmetic: any rounding would raise
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])


def digits(count: int) -> str:
    """Decimal digits of an integer; unlike str(int), not capped at
    Python's int-to-str digit limit.

    Decimal(int) takes time quadratic in the digits, so it only converts
    pieces of at most ``_LEAF_BITS`` bits.  A longer count is split by
    bits, x = hi 2^h + lo with h half its bit length, and the halves are
    put together in exact Decimal arithmetic, whose products are
    sub-quadratic; the powers 2^h are shared between the branches."""
    if count < 0:
        return "-" + digits(-count)
    powers: dict[int, Decimal] = {}

    def two_to(w: int) -> Decimal:
        if w not in powers:
            powers[w] = (Decimal(1 << w) if w <= _LEAF_BITS else
                         _EXACT.multiply(two_to(w // 2), two_to(w - w // 2)))
        return powers[w]

    def convert(x: int, w: int) -> Decimal:  # x < 2^w
        if w <= _LEAF_BITS:
            return Decimal(x)
        h = w // 2
        hi = x >> h
        return _EXACT.add(_EXACT.multiply(convert(hi, w - h), two_to(h)),
                          convert(x - (hi << h), h))

    return str(convert(count, count.bit_length()))


def _num_payload(v) -> object:
    if isinstance(v, Fraction):
        num = digits(v.numerator)
        return num if v.denominator == 1 else f"{num}/{digits(v.denominator)}"
    return float(v)


def density_payload(d: DensityVector) -> dict:
    out = {
        "finite": [_num_payload(v) for v in d.finite],
        "d_inf": _num_payload(d.d_inf),
        "K": d.K,
    }
    if d.diagnostic is not None:
        out["diagnostic"] = d.diagnostic
    return out


def region_report(p: ParamTuple, K: int = DEFAULT_K) -> dict:
    """JSON-ready {region, certificate, d, exact} payload."""
    r = classify_region(p)
    if r.has_closed_form():
        d = closed_form_d(p, r, K)
        return {
            "region": r.id,
            "certificate": r.certificate,
            "d": density_payload(d),
            "exact": d.is_exact(),
        }
    return {"region": r.id, "certificate": r.certificate, "d": None, "exact": False}
