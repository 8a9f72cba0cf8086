"""Beatty sequence membership, the chain map f, and constraint edges.

A parameter tuple (alpha, beta, gamma, delta) with 1 <= alpha < gamma
induces the sequence sets

    S(tau, eta) = { floor(tau*k + eta) : k = 1, 2, ... }  intersected with N,

the map f(floor(alpha*k + beta)) = floor(gamma*k + delta) (well defined
because k |-> floor(tau*k + eta) is injective for tau >= 1), and the
pair constraints A(x_u, x_v) = 1 over the edges (u, v) generated per k.

Besides the general exact operations, this module holds the
``BeattyPair`` of a sequence (a ``ParamTuple`` owns one per sequence),
with integer-only closures and int64 lane kernels for its floors and
memberships: million-scale window scans cannot afford generic object
arithmetic per element.  For rational parameters everything reduces to
integer ceil/floor divisions; for quadratic surds to one or two
integer-square-root comparisons.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm
from typing import Callable, Optional

import numpy as np

from .numerics import (
    QuadraticSurd,
    Rational,
    Real,
    RealLike,
    _add,
    _coeffs,
    _div,
    _mul,
    _neg,
    _surd_floor_ints,
    as_real,
    ceil_value,
    compare,
    floor_linear,
    normalize,
    parse_real,
)

# distinct square-free radicands per tuple: 2^RADICAND_CAP bounds the
# terms of every value the tuple's arithmetic builds
RADICAND_CAP = 4


def _coerce(v) -> Real:
    if isinstance(v, str):
        return parse_real(v)
    return normalize(as_real(v))


class ParamTuple:
    """Validated parameter tuple with the derived ratio gamma/alpha and
    the two sequences' pairs (BeattyPair(alpha, beta), BeattyPair(gamma,
    delta)).  The pairs are built on first use and kept, so every layer
    that scans, walks or counts this tuple shares one exact setup of each
    sequence; the tuple is otherwise immutable.  Its four parameters may
    use at most RADICAND_CAP distinct square-free radicands together."""

    __slots__ = ("alpha", "beta", "gamma", "delta", "ratio", "_pairs")

    def __init__(self, alpha, beta, gamma, delta):
        alpha, beta = _coerce(alpha), _coerce(beta)
        gamma, delta = _coerce(gamma), _coerce(delta)
        radicands = {r for v in (alpha, beta, gamma, delta)
                     for r in _coeffs(v) if r > 1}
        if len(radicands) > RADICAND_CAP:
            raise ValueError(
                f"the parameters use {len(radicands)} distinct square-free "
                f"radicands; at most {RADICAND_CAP} are supported")
        if compare(alpha, 1) < 0:
            raise ValueError("alpha must satisfy alpha >= 1")
        if compare(alpha, gamma) >= 0:
            raise ValueError("parameters must satisfy alpha < gamma")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "ratio", _div(gamma, alpha))

    def __setattr__(self, *a):
        raise AttributeError("ParamTuple is immutable")

    @property
    def pairs(self) -> tuple[BeattyPair, BeattyPair]:
        """(BeattyPair(alpha, beta), BeattyPair(gamma, delta)), built on
        first use."""
        try:
            return self._pairs
        except AttributeError:
            pairs = (BeattyPair(self.alpha, self.beta),
                     BeattyPair(self.gamma, self.delta))
            object.__setattr__(self, "_pairs", pairs)
            return pairs

    def __repr__(self):
        return (f"ParamTuple({self.alpha!r}, {self.beta!r}, "
                f"{self.gamma!r}, {self.delta!r})")


# ---------------------------------------------------------------------------
# exact operations
# ---------------------------------------------------------------------------

def member(x: int, tau: RealLike, eta: RealLike) -> Optional[int]:
    """The unique k >= 1 with floor(tau*k + eta) = x, or None.

    floor(tau*k + eta) = x iff k lies in [(x-eta)/tau, (x+1-eta)/tau), a
    window of length 1/tau <= 1, so the smallest integer >= the left
    endpoint is the only candidate.
    """
    if x < 1:
        raise ValueError("membership is asked for positive integers only")
    tau, eta = as_real(tau), as_real(eta)
    k = ceil_value(_div(_add(Rational(Fraction(x)), _neg(eta)), tau))
    if k >= 1 and floor_linear(tau, k, eta) == x:
        return k
    return None


def constraint_edges(p: ParamTuple, n: int) -> list[tuple[int, int]]:
    """All pairs (floor(alpha*k+beta), floor(gamma*k+delta)) over k >= 1
    with both coordinates in [1, n], in k order.

    Both floors increase with k, so both are >= 1 from max(first_k) on,
    and both are <= n on a prefix of those k: the edges are the one
    block of k up to the first k where either floor passes n, evaluated
    by the pairs' lane kernels, with every floor in [1, n]."""
    u, v = _edge_lanes(p, n)
    return list(zip(u.tolist(), v.tolist()))


def _edge_lanes(p: ParamTuple, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (u, v) columns of ``constraint_edges(p, n)`` as int64 arrays."""
    if n < 1:
        raise ValueError("window size must be >= 1")
    a, g = p.pairs
    k0 = max(a.first_k, g.first_k)
    count = max(0, min(a.first_k_at(n + 1), g.first_k_at(n + 1)) - k0)
    if k0 > count:  # shifted pairs: lane i holds k = k0 + i
        a, g = (BeattyPair(q.tau, _add(q.eta, _mul(q.tau, Rational(k0))))
                for q in (a, g))
        k0 = 0
    k = np.arange(k0, k0 + count, dtype=np.int64)
    return a.floor_lanes(k), g.floor_lanes(k)


# ---------------------------------------------------------------------------
# Beatty pairs
#
# An exact pair (tau, eta) within one quadratic field has the linear form
#     tau*k + eta = ((A*k + E) + (B*k + F) * sqrt(D)) / Z
# with integer A, B, E, F, Z > 0, and so has its inverse x -> (x - eta)/tau.
# Scalar floors then cost one isqrt (none when B = F = 0), which is what
# makes 10^6-element scans affordable.
#
# The lane kernels take the same floors and memberships over a numpy
# array of int64 lanes, in one guarded pass each.  Rational pairs use
# int64 arithmetic where A*k + E (or Z*x - E) cannot overflow.  Every
# other pair (surds, pairs with two or more radicands) evaluates tau*k + eta,
# or the quotient (x - eta)/tau, in float64 next to an explicit per-lane
# bound on its error, and keeps a lane only when the bound settles the
# floor, or the ceiling and the membership test (the filter-then-exact
# pattern of Shewchuk's robust predicates).  Lanes that fail either
# guard take the scalar closures, so no result depends on a float
# rounding decision.  Callers keep the results inside int64.
# ---------------------------------------------------------------------------

LANE_BOUND = 1 << 62  # |A*k + E| stays below this on the int64 path
_U = 2.0 ** -53  # unit roundoff of float64
_SLACK = 2.0 ** -40  # absolute floor of every float error bound


def _parts(x: Real) -> Optional[tuple[Fraction, Fraction, int]]:
    if isinstance(x, Rational):
        return (x.value, Fraction(0), 0)
    if isinstance(x, QuadraticSurd):
        return (x.a, x.b, x.d)
    return None


def _linear_form(tau: Real, eta: Real):
    """Integer linear form of k -> tau*k + eta, or None if the two values
    do not live in a common quadratic field."""
    pt, pe = _parts(tau), _parts(eta)
    if pt is None or pe is None:
        return None
    (ta, tb, td), (ea, eb, ed) = pt, pe
    if td and ed and td != ed:
        return None
    d = td or ed
    dens = [ta.denominator, tb.denominator, ea.denominator, eb.denominator]
    z = 1
    for q in dens:
        z = z * q // gcd(z, q)
    A = ta.numerator * (z // ta.denominator)
    B = tb.numerator * (z // tb.denominator)
    E = ea.numerator * (z // ea.denominator)
    F = eb.numerator * (z // eb.denominator)
    return (A, B, E, F, z, d)


def _float_pair(x: Real) -> Optional[tuple[float, float]]:
    """(v, e) with |x - v| <= e; None if the value does not fit a float.

    v is the float nearest the midpoint of a 96-bit enclosure [lo, hi] of
    x, and e rounds max(hi - v, v - lo) up.  The enclosure is held as
    integers lo_n/den and hi_n/den: a rational or surd (X + Y*sqrt(D))/Z
    takes one isqrt of D * 2^192, and only a RadicalSum asks for its
    enclosure.  int / int true division rounds correctly, so no Fraction
    arithmetic is done."""
    parts = _parts(x)
    if parts is not None:  # x = a + b*sqrt(d), b = d = 0 for a rational
        a, b, d = parts
        z = lcm(a.denominator, b.denominator)
        X = a.numerator * (z // a.denominator) << 96
        Y = b.numerator * (z // b.denominator)
        r = isqrt(d << 192)  # r <= 2^96 sqrt(d) < r + 1
        lo_n, hi_n = sorted((X + Y * r, X + Y * (r + 1)))
        den = z << 96
    else:
        lo, hi = x.enclosure(96)
        den = lo.denominator * hi.denominator
        lo_n = lo.numerator * hi.denominator
        hi_n = hi.numerator * lo.denominator
    try:
        v = (lo_n + hi_n) / (2 * den)
    except OverflowError:
        return None
    vn, vd = v.as_integer_ratio()
    gap = max(hi_n * vd - vn * den, vn * den - lo_n * vd)
    # the division rounds to nearest; the factor rounds the bound up
    return v, gap / (den * vd) * (1 + 2.0 ** -50) + 2.0 ** -1074


def _gap_floor(a: BeattyPair, g: BeattyPair) -> float:
    """A positive float at or below gamma - alpha for the pairs a of
    S(alpha, beta) and g of S(gamma, delta), from their float
    enclosures, or 0.0 where a value does not fit a float or the gap is
    not clearly positive.  The three roundings of the difference are at
    most 4u times the sum s of its operands' magnitudes."""
    if a._floats is None or g._floats is None:
        return 0.0
    t, et = a._floats[:2]
    tg, etg = g._floats[:2]
    gap = (tg - etg) - (t + et) - 8.0 * _U * (tg + etg + t + et)
    return gap if gap > 0.0 else 0.0


def _scalar_lanes(out: np.ndarray, bad: np.ndarray, lanes: np.ndarray,
                  fn: Callable[[int], int]) -> np.ndarray:
    for i in np.flatnonzero(bad):
        out[i] = fn(int(lanes[i]))
    return out


def _all_scalar(fn: Callable[[int], int]) -> Callable[[np.ndarray], np.ndarray]:
    return lambda v: np.array([fn(x) for x in v.tolist()], dtype=np.int64)


class BeattyPair:
    """The map k -> floor(tau*k + eta) of one sequence S(tau, eta), and
    its inverse x -> k on the sequence, for tau >= 1 (tau > 0 suffices
    for the floors).

    The linear form is computed here.  The rest is built on first use
    and kept, in integer arithmetic on the form: the inverse form, the
    float enclosures, the scalar closures ``floor`` and ``member`` (x ->
    its k, or 0), the int64 lane kernels ``floor_lanes`` and
    ``member_lanes``, and ``first_k``.  Outside a common quadratic field
    every closure takes the generic exact operations.  The sequences of
    a tuple take their pairs from ``ParamTuple.pairs``, so this setup
    runs once per sequence."""

    def __init__(self, tau: RealLike, eta: RealLike):
        self.tau, self.eta = as_real(tau), as_real(eta)
        self.form = _linear_form(self.tau, self.eta)

    @cached_property
    def _inverse(self):
        """Linear form of x -> (x - eta)/tau, or None without a forward
        form (the inverse then leaves the field as well).

        With P = Z*x - E, (x - eta)/tau = (P - F*sqrt(D))/(A + B*sqrt(D))
        = ((A*P + B*F*D) - (B*P + A*F)*sqrt(D)) / (A^2 - B^2*D), in
        integers; dividing out the common factor and the sign gives the
        form _linear_form builds from the reduced coefficients."""
        if self.form is None:
            return None
        A, B, E, F, Z, D = self.form
        form = (A * Z, -B * Z, B * F * D - A * E, B * E - A * F,
                A * A - B * B * D)
        c = gcd(*form) * (1 if form[4] > 0 else -1)
        return (*(v // c for v in form), D)

    @cached_property
    def _floats(self) -> Optional[tuple[float, float, float, float]]:
        """(t, et, e, ee) with |tau - t| <= et and |eta - e| <= ee, or
        None if a value does not fit a float."""
        ft, fe = _float_pair(self.tau), _float_pair(self.eta)
        return None if ft is None or fe is None else ft + fe

    @cached_property
    def floor(self) -> Callable[[int], int]:
        """k -> floor(tau*k + eta)."""
        tau, eta = self.tau, self.eta
        if self.form is None:
            return lambda k: floor_linear(tau, k, eta)
        A, B, E, F, Z, D = self.form
        if B == 0 and F == 0:
            return lambda k: (A * k + E) // Z
        sf = _surd_floor_ints
        return lambda k: sf(A * k + E, B * k + F, D, Z)

    @cached_property
    def member(self) -> Callable[[int], int]:
        """x -> the k >= 1 with floor(tau*k + eta) = x, or 0, for x >= 1.

        x is a member iff k = ceil((x - eta)/tau) satisfies k >= 1 and
        floor(tau*k + eta) = x; both reduce to flat integer expressions in
        the common-field case (scans call this millions of times)."""
        tau, eta, floor = self.tau, self.eta, self.floor
        if self._inverse is None:
            return lambda x: member(x, tau, eta) or 0
        A1, B1, E1, F1, Z1, D1 = self._inverse
        sf = _surd_floor_ints

        def fast(x: int) -> int:
            X, Y = A1 * x + E1, B1 * x + F1
            k = -((-X) // Z1) if Y == 0 else -sf(-X, -Y, D1, Z1)
            return k if k >= 1 and floor(k) == x else 0

        return fast

    @cached_property
    def first_k(self) -> int:
        """The first k >= 1 with floor(tau*k + eta) >= 1."""
        return self.first_k_at(1)

    def first_k_at(self, x: int) -> int:
        """The first k >= 1 with floor(tau*k + eta) >= x.

        Loops over k start or end here, so a large shift costs nothing:
        k >= (x - eta)/tau is the condition, so the answer is max(1,
        ceil((x - eta)/tau)).  With the inverse form that ceiling is one
        exact ``_surd_floor_ints`` (an integer division for rational
        pairs), the expression ``member`` evaluates; other pairs take
        the exact quotient's ceiling."""
        if self._inverse is not None:
            A1, B1, E1, F1, Z1, D1 = self._inverse
            return max(1, -_surd_floor_ints(-(A1 * x + E1), -(B1 * x + F1),
                                            D1, Z1))
        return max(1, ceil_value(
            _div(_add(Rational(Fraction(x)), _neg(self.eta)), self.tau)))

    @cached_property
    def floor_lanes(self) -> Callable[[np.ndarray], np.ndarray]:
        """Vectorized exact k -> floor(tau*k + eta) over int64 lanes."""
        scalar = self.floor
        form = self.form
        if form is not None and form[1] == form[3] == 0:
            A, _, E, _, Z, _ = form
            if A < LANE_BOUND and abs(E) < LANE_BOUND and Z < LANE_BOUND:
                kmax = (LANE_BOUND - abs(E)) // A

                def rational(k: np.ndarray) -> np.ndarray:
                    ok = np.abs(k) <= kmax
                    if ok.all():
                        return (A * k + E) // Z
                    out = np.where(ok, k, 0)
                    out = (A * out + E) // Z
                    return _scalar_lanes(out, ~ok, k, scalar)

                return rational
        if self._floats is None:
            return _all_scalar(scalar)
        t, et, e, ee = self._floats
        # |tau*k + eta - fl(fl(t*k) + e)| <= |k|(et + 4u|t|) + ee + 2u|e|,
        # counting the int64 -> float64 rounding of k; doubling covers the
        # rounding of the bound itself.
        c1 = 2.0 * (et + 4.0 * _U * abs(t))
        c0 = 2.0 * (ee + 2.0 * _U * abs(e)) + _SLACK

        def filtered(k: np.ndarray) -> np.ndarray:
            kf = k.astype(np.float64)
            with np.errstate(invalid="ignore", over="ignore"):
                v = kf * t + e
                fl = np.floor(v)
                frac = v - fl
                err = np.abs(kf) * c1 + c0
                ok = (frac > err) & (frac < 1.0 - err)
            if ok.all():
                return fl.astype(np.int64)
            out = np.where(ok, fl, 0.0).astype(np.int64)
            return _scalar_lanes(out, ~ok, k, scalar)

        return filtered

    @cached_property
    def member_lanes(self) -> Callable[[np.ndarray], np.ndarray]:
        """Vectorized exact x -> the k >= 1 with floor(tau*k + eta) = x, or
        0 for non-members, over int64 lanes x >= 1.

        The only candidate is k = ceil((x - eta)/tau), and x is a member
        iff k >= 1 and k < (x + 1 - eta)/tau (see ``member``); one pass
        decides both from the quotient.  Rational pairs do it exactly in
        int64 with the forward form; otherwise the float quotient, its
        error bound and a bound on the error of 1/tau must settle the
        ceiling and the sign of k - (x + 1 - eta)/tau.  Lanes that fail a
        guard take the scalar ``member``."""
        form = self.form
        if form is not None and form[1] == form[3] == 0:
            A, _, E, _, Z, _ = form
            if A < LANE_BOUND and abs(E) < LANE_BOUND and Z < LANE_BOUND:
                xmax = (LANE_BOUND - abs(E)) // Z

                def rational(x: np.ndarray) -> np.ndarray:
                    # t = Z*x - E and k = ceil(t/A): x = floor((A*k + E)/Z)
                    # iff A*k - t < Z.  |t| <= LANE_BOUND and A*k < t + A.
                    ok = x <= xmax
                    t = Z * np.where(ok, x, 0) - E
                    k = -((-t) // A)
                    out = np.where((k >= 1) & (A * k - t < Z), k, 0)
                    return out if ok.all() else _scalar_lanes(
                        out, ~ok, x, self.member)

                return rational
        if self._floats is None or self._floats[1] > 0.5:
            return _all_scalar(self.member)
        t, et, e, ee = self._floats
        # With N' = fl(x - e) and q' = fl(N'/t), tau >= 1 and et <= 1/2:
        # |(x - eta)/tau - q'| <= ee + 2u(|x| + |e|) + 2|N'|et + 2u|q'|, which
        # |N'|*c1 + c0 bounds with a factor 2 to spare.
        c1 = 4.0 * et + 16.0 * _U
        c0 = 2.0 * ee + 16.0 * _U * abs(e) + _SLACK
        # k = ceil(fl(q' - err)) is the ceiling of (x - eta)/tau once
        # fl(k - q') >= err.  r = fl(1/t): t >= tau - et >= 1/2, so
        # |1/tau - 1/t| = |t - tau|/(tau*t) <= 2et, and the division adds
        # u/t <= 2u.  Then k - q' lies in [0, 1] and r in (0, 2], so s =
        # fl(fl(k - q') - r) rounds twice by at most 2u each, and
        # |k - (x + 1 - eta)/tau - s| <= err + 2et + 6u < err + c_r: x is a
        # member iff k >= 1 and s < 0, once |s| clears that margin.
        r = 1.0 / t
        c_r = 2.0 * et + 8.0 * _U + _SLACK

        def filtered(x: np.ndarray) -> np.ndarray:
            with np.errstate(invalid="ignore", over="ignore"):
                num = x.astype(np.float64) - e
                q = num / t
                err = np.abs(num) * c1 + c0
                k = np.ceil(q - err)
                d = k - q
                s = d - r
                ok = ((d >= err) & (np.abs(s) > err + c_r)
                      & (np.abs(k) < LANE_BOUND))
                k = np.where(ok & (s < 0) & (k >= 1), k, 0.0)
            out = k.astype(np.int64)
            return out if ok.all() else _scalar_lanes(out, ~ok, x, self.member)

        return filtered


def floor_fn(tau: RealLike, eta: RealLike) -> Callable[[int], int]:
    """``BeattyPair(tau, eta).floor``."""
    return BeattyPair(tau, eta).floor


def membership_fn(tau: RealLike, eta: RealLike) -> Callable[[int], bool]:
    """Predicate x -> (x in S(tau, eta)) for x >= 1, from
    ``BeattyPair(tau, eta).member``."""
    member_k = BeattyPair(tau, eta).member
    return lambda x: member_k(x) > 0
