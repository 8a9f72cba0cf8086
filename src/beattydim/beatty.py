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
integer-square-root comparisons; for sums over more radicands to one
integer square root per radicand.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm
from typing import Callable, Optional

import numpy as np

from .numerics import (
    Real,
    RealLike,
    _floor,
    _inverse,
    _product,
    _surd_floor_ints,
    as_real,
    ceil_value,
    compare,
    floor_linear,
    parse_real,
)

# distinct square-free radicands per tuple: 2^RADICAND_CAP bounds the
# terms of every value the tuple's arithmetic builds
RADICAND_CAP = 4


def _coerce(v) -> Real:
    if isinstance(v, str):
        return parse_real(v)
    return as_real(v)


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
                     for r in v._nums if r > 1}
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
        object.__setattr__(self, "ratio", gamma / alpha)

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
    k = ceil_value((x - eta) / tau)
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
        a, g, k0 = a.shifted(k0), g.shifted(k0), 0
    k = np.arange(k0, k0 + count, dtype=np.int64)
    return a.floor_lanes(k), g.floor_lanes(k)


# ---------------------------------------------------------------------------
# Beatty pairs
#
# Every exact pair (tau, eta) has the linear form (T, H, Z) with
#     tau*k + eta = (Σ (T[r]*k + H[r])·√r) / Z,
# the integer numerators of tau and eta per square-free radicand r (r = 1
# for the rational part; each value's ``_nums``, see ``numerics``) over
# the lcm Z of their denominators.  Its inverse x -> x*(1/tau) - eta/tau
# is a form of the same kind, taken from this one in integers.  A scalar
# floor of a form is one integer division without radicands, one isqrt
# with one, and one isqrt per radicand with more (and an exact sign where
# an integer lies in the enclosure): 10^6-element scans stay affordable.
#
# The lane kernels take the same floors and memberships over a numpy
# array of int64 lanes, in one guarded pass each.  Rational pairs,
# tau*k + eta = (A*k + E)/Z, use int64 arithmetic where A*k + E (or
# Z*x - E) cannot overflow.  Every other pair (surds, pairs with two or
# more radicands) evaluates tau*k + eta, or the quotient (x - eta)/tau,
# in float64 next to an explicit per-lane bound on its error, and keeps
# a lane only when the bound settles the floor, or the ceiling and the
# membership test (the filter-then-exact pattern of Shewchuk's robust
# predicates).  The floats and their error bounds come from the values'
# ``_bounds``.  Lanes that fail either guard take the scalar closures,
# so no result depends on a float rounding decision.  Callers keep the
# results inside int64.
# ---------------------------------------------------------------------------

LANE_BOUND = 1 << 62  # |A*k + E| stays below this on the int64 path
_U = 2.0 ** -53  # unit roundoff of float64
_SLACK = 2.0 ** -40  # absolute floor of every float error bound


def _linear_form(tau: Real, eta: Real):
    """The linear form (T, H, Z) of k -> tau*k + eta: the numerators of
    tau and eta over the lcm Z of their denominators."""
    z = lcm(tau._den, eta._den)
    mt, me = z // tau._den, z // eta._den
    return ({r: n * mt for r, n in tau._nums.items()},
            {r: n * me for r, n in eta._nums.items()}, z)


def _radicands(form) -> list[int]:
    """The radicands r >= 2 of a form, in increasing order."""
    T, H, _ = form
    return sorted({*T, *H} - {1})


def _floor_fn(form, roots: list[int]) -> Callable[[int], int]:
    """k -> floor((Σ (T[r]*k + H[r])·√r) / Z) for the form (T, H, Z)
    with the radicands ``roots``: one integer division without
    radicands, one ``_surd_floor_ints`` with one, ``numerics._floor``
    with more."""
    T, H, Z = form
    A, E = T.get(1, 0), H.get(1, 0)
    if not roots:
        return lambda k: (A * k + E) // Z
    if len(roots) == 1:
        D = roots[0]
        B, F = T.get(D, 0), H.get(D, 0)
        sf = _surd_floor_ints
        return lambda k: sf(A * k + E, B * k + F, D, Z)
    terms = [(r, T.get(r, 0), H.get(r, 0)) for r in (1, *roots)]
    return lambda k: _floor(
        {r: v for r, t, h in terms if (v := t * k + h)}, Z)


def _float_pair(x: Real) -> Optional[tuple[float, float]]:
    """(v, e) with |x - v| <= e; None if the value does not fit a float.

    v is the float nearest the midpoint of x's 96-bit ``_bounds`` [lo,
    hi] (that is, ``x.approx()``), and e rounds max(hi - v, v - lo) up.
    The bounds are integers over one denominator, and int / int true
    division rounds correctly, so no Fraction arithmetic is done."""
    lo_n, w, den = x._bounds(96)
    hi_n = lo_n + w
    try:
        v = (lo_n + hi_n) / (2 * den)
    except OverflowError:
        return None
    vn, vd = v.as_integer_ratio()
    gap = max(hi_n * vd - vn * den, vn * den - lo_n * vd)
    # the division rounds to nearest; the factor rounds the bound up
    return v, gap / (den * vd) * (1 + 2.0 ** -50) + 2.0 ** -1074


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

    The linear form and its radicands (``radicands``, increasing) are
    computed here.  The rest is built on first use and kept: the
    inverse form (from the linear form, in integers), the floats of tau
    and eta with their error bounds, the scalar closures
    ``floor`` and ``member`` (x -> its k, or 0), the int64 lane kernels
    ``floor_lanes`` and ``member_lanes``, ``first_k``, and the
    ``shifted`` pairs.  Every closure reads a form, so no pair takes an
    exact 1/tau.  The sequences of a tuple take their pairs from
    ``ParamTuple.pairs``, so this setup runs once per sequence."""

    def __init__(self, tau: RealLike, eta: RealLike):
        self.tau, self.eta = as_real(tau), as_real(eta)
        self.form = _linear_form(self.tau, self.eta)
        self.radicands = _radicands(self.form)

    def shifted(self, k0: int) -> BeattyPair:
        """The pair of k -> floor(tau*(k0 + k) + eta), built once per k0
        and kept: lanes that start at a large k0 stay small."""
        shifts = self._shifts
        if k0 not in shifts:
            shifts[k0] = BeattyPair(self.tau, self.eta + self.tau * k0)
        return shifts[k0]

    @cached_property
    def _shifts(self) -> dict[int, BeattyPair]:
        return {}

    @cached_property
    def _inverse(self):
        """Linear form of x -> x*(1/tau) - eta/tau.

        From the forward form (T, H, Z) in integers: with 1/(Σ T[r]·√r)
        = (Σ w[r]·√r)/z (``numerics._inverse``), (x - eta)/tau = (Z*x -
        Σ H[r]·√r)(Σ w[r]·√r)/z.  One gcd reduces the form over a
        positive denominator, so it equals ``_linear_form`` of the exact
        values 1/tau and -eta/tau."""
        T, H, Z = self.form
        w, z = _inverse(T)
        h = _product(H, w)
        g = gcd(z, Z * gcd(*w.values()), *h.values())
        if z < 0:
            g = -g
        return ({r: Z * n // g for r, n in w.items()},
                {r: -n // g for r, n in h.items()}, z // g)

    @cached_property
    def _floats(self) -> Optional[tuple[float, float, float, float]]:
        """(t, et, e, ee) with |tau - t| <= et and |eta - e| <= ee, or
        None if a value does not fit a float."""
        ft, fe = _float_pair(self.tau), _float_pair(self.eta)
        return None if ft is None or fe is None else ft + fe

    @cached_property
    def floor(self) -> Callable[[int], int]:
        """k -> floor(tau*k + eta), from the forward form."""
        return _floor_fn(self.form, self.radicands)

    @cached_property
    def member(self) -> Callable[[int], int]:
        """x -> the k >= 1 with floor(tau*k + eta) = x, or 0, for x >= 1.

        x is a member iff k = ceil((x - eta)/tau) satisfies k >= 1 and
        floor(tau*k + eta) = x; with at most one radicand the ceiling is
        one flat integer expression, inlined here (scans call this
        millions of times), and ``_k_at`` otherwise."""
        floor, roots = self.floor, self.radicands
        if len(roots) > 1:
            k_at = self._k_at
            return lambda x: k if (k := k_at(x)) >= 1 and floor(k) == x else 0
        T1, H1, Z1 = self._inverse  # no radicand but the pair's
        D1 = roots[0] if roots else 0
        A1, B1 = T1.get(1, 0), T1.get(D1, 0)
        E1, F1 = H1.get(1, 0), H1.get(D1, 0)
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
        ``_k_at(x)``)."""
        return max(1, self._k_at(x))

    @cached_property
    def _k_at(self) -> Callable[[int], int]:
        """x -> ceil((x - eta)/tau), exactly: minus the floor of the
        negated inverse form, so no floor of the pair is taken."""
        T1, H1, Z1 = self._inverse
        form = ({r: -n for r, n in T1.items()},
                {r: -n for r, n in H1.items()}, Z1)
        neg = _floor_fn(form, _radicands(form))
        return lambda x: -neg(x)

    @cached_property
    def floor_lanes(self) -> Callable[[np.ndarray], np.ndarray]:
        """Vectorized exact k -> floor(tau*k + eta) over int64 lanes."""
        scalar = self.floor
        T, H, Z = self.form
        if not self.radicands:
            A, E = T[1], H.get(1, 0)
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
        T, H, Z = self.form
        if not self.radicands:
            A, E = T[1], H.get(1, 0)
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
