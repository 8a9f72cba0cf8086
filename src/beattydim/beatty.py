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

from contextlib import nullcontext
from functools import cached_property, partial
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
    return a.floor_lanes(k, k0 + count), g.floor_lanes(k, k0 + count)


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
# array of int64 lanes, in one guarded pass each (a pair's floor and
# member arms).  Rational pairs, tau*k + eta = (A*k + E)/Z, use int64
# arithmetic where A*k + E (or Z*x - E) cannot overflow.  Every other
# pair (surds, pairs with two or more radicands) evaluates tau*k + eta,
# or the quotient (x - eta)/tau, in float64 next to an explicit bound on
# its error, and keeps a lane only when the bound settles the floor, or
# the ceiling and the membership test (the filter-then-exact pattern of
# Shewchuk's robust predicates).  The floats and their error bounds come
# from the values' ``_bounds``; a call that knows a bound on its lanes
# takes one error bound for all of them while that stays tight, and one
# per lane otherwise.  A pair whose values do not fit a float settles no
# lane.  ``step_lanes`` runs one pair's member arm and the other's floor
# arm as one chain step.  Each kernel keeps the lanes its pass settles
# and makes one scalar call for each other lane (``_settled``), so no
# result depends on a float rounding decision.  Callers keep the results
# inside int64.
# ---------------------------------------------------------------------------

LANE_BOUND = 1 << 62  # |A*k + E| stays below this on the int64 path
_U = 2.0 ** -53  # unit roundoff of float64
_SLACK = 2.0 ** -40  # absolute floor of every float error bound
_TIGHT = 2.0 ** -20  # largest error bound one call takes for all its lanes
LEFT_SA = -(1 << 63)  # step_lanes' value of a lane outside S(alpha, beta)


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


def _tight(bound: Optional[float], c1: float, c0: float) -> Optional[float]:
    """bound*c1 + c0, one error bound for every lane of a call whose
    magnitude is at most bound, if that stays at most _TIGHT; else None,
    and the call takes its bounds per lane (a few lanes far out would
    otherwise send every lane to the scalar closures)."""
    if bound is None:
        return None
    err = bound * c1 + c0
    return err if err <= _TIGHT else None


def _float_context(floats: tuple[float, ...]) -> Callable[[], object]:
    """The context a float arm runs its numpy passes in.  With every float
    of the pair below 2^900 and every lane below 2^63, no product, sum or
    quotient of a pass can overflow or be nan, so nothing needs silencing
    (np.errstate costs 1-4 us a call); otherwise np.errstate silences
    both, and a lane that overflows fails the arm's guard."""
    if all(abs(f) < 2.0 ** 900 for f in floats):
        return nullcontext
    return partial(np.errstate, invalid="ignore", over="ignore")


def _affine(v: np.ndarray, a: int, b: int = 0, z: int = 1) -> np.ndarray:
    """(a*v + b) // z over int64 lanes, leaving out the steps that change
    nothing (v itself for a = z = 1, b = 0)."""
    if a != 1:
        v = a * v
    if b:
        v = v + b
    return v if z == 1 else v // z


def _unsettled(v: np.ndarray, bound) -> tuple[np.ndarray, np.ndarray]:
    """The arm of a pair without a sound float pass: it settles no
    lane."""
    return np.zeros(v.shape, dtype=np.int64), np.zeros(v.shape, dtype=bool)


def _settled(arm, scalar: Callable[[int], int]) -> Callable[..., np.ndarray]:
    """The lane kernel of a guarded pass ``arm``: (v, bound) -> its
    values on the lanes the pass settles (ok None: all of them), and
    scalar(v) on each other lane."""
    def lanes(v: np.ndarray, bound=None) -> np.ndarray:
        out, ok = arm(v, bound)
        if ok is None or ok.all():
            return out.astype(np.int64, copy=False)
        out = np.where(ok, out, 0).astype(np.int64, copy=False)
        bad = np.flatnonzero(~ok)
        out[bad] = [scalar(x) for x in v[bad].tolist()]
        return out

    return lanes


class BeattyPair:
    """The map k -> floor(tau*k + eta) of one sequence S(tau, eta), and
    its inverse x -> k on the sequence, for tau >= 1 (tau > 0 suffices
    for the floors).

    The linear form and its radicands (``radicands``, increasing) are
    computed here.  The rest is built on first use and kept: the
    inverse form (from the linear form, in integers), the floats of tau
    and eta with their error bounds, the scalar closures
    ``floor`` and ``member`` (x -> its k, or 0), a floor arm and a member
    arm (the guarded passes, never None), the int64 lane kernels
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

        The only candidate is k = ceil((x - eta)/tau) (``_k_at``), and x
        is a member iff k >= 1 and floor(tau*k + eta) = x."""
        k_at, floor = self._k_at, self.floor
        return lambda x: k if (k := k_at(x)) >= 1 and floor(k) == x else 0

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
    def _int_form(self) -> Optional[tuple[int, int, int]]:
        """(A, E, Z) with tau*k + eta = (A*k + E)/Z, for a rational pair
        whose A, |E| and Z stay below LANE_BOUND; None otherwise."""
        T, H, Z = self.form
        if self.radicands:
            return None
        A, E = T[1], H.get(1, 0)
        if A < LANE_BOUND and abs(E) < LANE_BOUND and Z < LANE_BOUND:
            return A, E, Z
        return None

    @cached_property
    def _floor_arm(self):
        """The guarded pass of ``floor_lanes``: (k, kb) -> (floors, ok)
        for lanes k, int64 or integer-valued float64, with |k| <= kb on
        every lane that counts (kb None: no bound known).  The floors are
        int64 on the exact arm and float64 otherwise, and ok masks the
        lanes they settle (None: all of them).  A pair whose values do
        not fit a float settles no lane."""
        form = self._int_form
        if form is not None:
            A, E, Z = form
            kmax = (LANE_BOUND - abs(E)) // A

            def rational(k, kb):
                if kb is None or kb > kmax:
                    ok = np.abs(k) <= kmax
                    if not ok.all():
                        return _affine(np.where(ok, k, 0), A, E, Z), ok
                return _affine(k, A, E, Z), None

            return rational
        if self._floats is None:
            return _unsettled
        t, et, e, ee = self._floats
        quiet = _float_context(self._floats)
        # |tau*k + eta - fl(fl(t*k) + e)| <= |k|(et + 4u|t|) + ee + 2u|e|,
        # counting the int64 -> float64 rounding of k; doubling covers the
        # rounding of the bound itself.
        c1 = 2.0 * (et + 4.0 * _U * abs(t))
        c0 = 2.0 * (ee + 2.0 * _U * abs(e)) + _SLACK

        def filtered(k, kb):
            kf = k.astype(np.float64, copy=False)
            with quiet():
                v = kf * t
                if e:
                    v += e
                fl = np.floor(v)
                err = _tight(kb, c1, c0)
                if err is None:
                    err = np.abs(kf) * c1 + c0
                v -= fl  # the fraction, to lie in (err, 1 - err)
                v -= 0.5
                ok = np.abs(v, out=v) < 0.5 - err
            return fl, ok

        return filtered

    @cached_property
    def _member_arm(self):
        """The guarded pass of ``member_lanes``: (x, top) -> (k, ok) for
        int64 lanes 1 <= x <= top (top None: no bound known).  k holds
        each settled member's index and 0 on every other lane, int64 on
        the exact arm and float64 otherwise, and ok masks the settled
        lanes (None: all of them).  A pair whose values do not fit a
        float, or whose float error on tau exceeds 1/2, settles no lane.

        The only candidate is k = ceil((x - eta)/tau), and x is a member
        iff k >= 1 and k < (x + 1 - eta)/tau (see ``member``); one pass
        decides both from the quotient.  Rational pairs do it exactly in
        int64 with the forward form; otherwise the float quotient, its
        error bound and a bound on the error of 1/tau must settle the
        ceiling and the sign of k - (x + 1 - eta)/tau."""
        form = self._int_form
        if form is not None:
            A, E, Z = form
            xmax = (LANE_BOUND - abs(E)) // Z

            # with E < Z every lane x >= 1 has t > 0, so k >= 1; with
            # A = 1 (tau = 1) every k has A*k - t = 0
            positive = E < Z

            def rational(x, top):
                # t = Z*x - E and k = ceil(t/A): x = floor((A*k + E)/Z)
                # iff A*k - t < Z.  |t| <= LANE_BOUND and A*k < t + A.
                ok = None if top is not None and top <= xmax else x <= xmax
                if ok is not None and ok.all():
                    ok = None
                zx = _affine(x if ok is None else np.where(ok, x, 0), Z)
                k = _affine(zx, 1, A - 1 - E, A)
                hit = None if A == 1 else _affine(k, A) - zx < Z - E
                if not positive:
                    hit = k >= 1 if hit is None else hit & (k >= 1)
                if ok is not None:
                    hit = ok if hit is None else hit & ok
                return k if hit is None else k * hit, ok

            return rational
        if self._floats is None or self._floats[1] > 0.5:
            return _unsettled
        t, et, e, ee = self._floats
        quiet = _float_context(self._floats)
        # With N' = fl(x - e) and q' = fl(N'/t), tau >= 1 and et <= 1/2:
        # |(x - eta)/tau - q'| <= ee + 2u(|x| + |e|) + 2|N'|et + 2u|q'|, which
        # |N'|*c1 + c0 bounds with a factor 2 to spare; so does
        # (top + |e|)*c1 + c0, as |N'| <= (top + |e|)(1 + u).
        c1 = 4.0 * et + 16.0 * _U
        c0 = 2.0 * ee + 16.0 * _U * abs(e) + _SLACK
        # k = ceil(fl(q' - err)) is the ceiling of (x - eta)/tau once
        # fl(k - q') >= err.  r = fl(1/t): t >= tau - et >= 1/2, so
        # |1/tau - 1/t| = |t - tau|/(tau*t) <= 2et, and the division adds
        # u/t <= 2u.  Then k - q' lies in [0, 1] and r in (0, 2], so s =
        # fl(fl(k - q') - r) rounds twice by at most 2u each, and
        # |k - (x + 1 - eta)/tau - s| <= err + 2et + 6u < err + c_r: x is a
        # member iff k >= 1 and s < 0, once |s| clears that margin.  As
        # err >= 16u|N'| >= 8u|q'|, a settled ceiling has |k| < 2^53.
        r = 1.0 / t
        c_r = 2.0 * et + 8.0 * _U + _SLACK
        # with eta < 1 every lane x >= 1 has (x - eta)/tau > 0, so k >= 1
        positive = e + ee < 1.0

        def filtered(x, top):
            with quiet():
                num = x.astype(np.float64)
                if e:
                    num -= e
                q = num / t
                err = _tight(None if top is None else top + abs(e), c1, c0)
                if err is None:
                    err = np.abs(num) * c1 + c0
                k = np.ceil(q - err)
                d = k - q
                s = d - r
                ok = (d >= err) & (np.abs(s) > err + c_r)
                hit = ok & (s < 0)
                if not positive:
                    hit &= k >= 1
                return k * hit, ok

        return filtered

    @cached_property
    def floor_lanes(self) -> Callable[..., np.ndarray]:
        """Vectorized exact k -> floor(tau*k + eta) over int64 lanes; a
        caller that knows a bound on every |k| may pass it."""
        return _settled(self._floor_arm, self.floor)

    @cached_property
    def member_lanes(self) -> Callable[..., np.ndarray]:
        """Vectorized exact x -> the k >= 1 with floor(tau*k + eta) = x, or
        0 for non-members, over int64 lanes x >= 1, in one guarded pass
        (``_member_arm``) and the scalar ``member`` on each lane it does
        not settle; a caller that knows a bound above every x may pass
        it."""
        return _settled(self._member_arm, self.member)

    @cached_property
    def _index_bound(self) -> Callable[[int], Optional[float]]:
        """top -> a bound above the index k of every member x <= top, for
        tau >= 1.

        x = floor(tau*k + eta) <= top gives k < (top + 1 - eta)/tau:
        exact on the int64 arm's forms, from the floats of tau and eta,
        rounded up, otherwise, and None without floats."""
        if self._int_form is not None:
            A, E, Z = self._int_form
            return lambda top: -((E - Z * (top + 1)) // A)
        if self._floats is None:
            return lambda top: None
        t, et, e, ee = self._floats
        lo, hi = max(1.0, t - et), abs(e) + ee
        return lambda top: (top + 1 + hi) / lo * (1 + 2.0 ** -50) + 1


def step_lanes(a: BeattyPair,
               g: BeattyPair) -> Callable[[np.ndarray, int], np.ndarray]:
    """The step kernel of a chain walk, for the pairs a of S(alpha, beta)
    and g of S(gamma, delta): (y, top) -> g.floor(a.member(y)) on every
    int64 lane y, or LEFT_SA where a.member(y) = 0 (y left S(alpha,
    beta)).  Lanes satisfy 1 <= y <= top, and every member x <= top has
    its index below LANE_BOUND and that index's floor in g inside
    (-LANE_BOUND, LANE_BOUND) (``chains._lane_guard``).

    One guarded pass: a's member arm, then g's floor arm on every lane (k
    = 0 outside SA), each exact in int64 on a rational pair and in
    float64 otherwise, with error bounds taken once per call from top and
    the index bound of top where those stay tight.  A lane that either
    arm leaves unsettled takes the scalar ``member``, then ``floor``."""
    member, floor = a._member_arm, g._floor_arm
    exact, bound = g._int_form is not None, a._index_bound

    def step(y: np.ndarray, top: int):
        k, ok = member(y, top)
        if exact and k.dtype != np.int64:
            k = k.astype(np.int64)  # 0 outside SA, |k| < 2^53 inside
        fl, fine = floor(k, bound(top))
        hit = k >= 1
        out = np.where(hit, fl, LEFT_SA)
        if fine is not None:
            fine = fine >= hit  # settled, or outside SA: no floor needed
            ok = fine if ok is None else ok & fine
        return out, ok

    def fallback(y: int) -> int:
        k = a.member(y)
        return g.floor(k) if k else LEFT_SA

    return _settled(step, fallback)


def floor_fn(tau: RealLike, eta: RealLike) -> Callable[[int], int]:
    """``BeattyPair(tau, eta).floor``."""
    return BeattyPair(tau, eta).floor


def membership_fn(tau: RealLike, eta: RealLike) -> Callable[[int], bool]:
    """Predicate x -> (x in S(tau, eta)) for x >= 1, from
    ``BeattyPair(tau, eta).member``."""
    member_k = BeattyPair(tau, eta).member
    return lambda x: member_k(x) > 0
