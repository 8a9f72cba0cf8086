import timeit
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beattydim import (
    ParamTuple,
    constraint_edges,
    floor_linear,
    member,
)
from beattydim.beatty import (LANE_BOUND, LEFT_SA, BeattyPair, _float_pair,
                              _linear_form, step_lanes)
from beattydim import beatty as beatty_mod
from beattydim import numerics as numerics_mod
from beattydim.chains import _growth_start, _lane_guard
from beattydim.numerics import (
    QuadraticSurd,
    RadicalSum,
    Rational,
    as_fraction,
    as_real,
    ceil_value,
    compare,
    parse_real,
    rational,
    surd,
)
from conftest import (
    NonPositiveImage,
    NotInDomain,
    f_map,
    assert_lane_guard_promise,
    beatty_values,
    first_k_at_reference,
    fraction_inverse_form,
    reference_chain_bound,
    reference_floor_linear,
    reference_member,
    scalar_constraint_edges,
    terms_enclosure,
    value_terms,
)


def test_member_examples():
    assert member(4, surd(0, 1, 2), 0) == 3  # floor(3*sqrt(2)) = 4
    assert member(3, rational(2), 0) is None  # evens only
    # derived oracle: scan k = 1..6 with exact floors
    want = [k for k in range(1, 7) if floor_linear(rational(3, 2), k, rational(1, 3)) == 7]
    assert want == [5]
    assert member(7, rational(3, 2), rational(1, 3)) == 5


def test_f_map_examples():
    assert f_map(3, ParamTuple(1, 0, 2, 0)) == 6
    assert f_map(4, ParamTuple(2, 0, 3, 0)) == 6
    p = ParamTuple(surd(0, 1, 2), 0, surd(0, 2, 2), 0)
    assert f_map(4, p) == 8  # k=3, floor(6*sqrt(2)) = 8


def test_f_map_errors():
    with pytest.raises(NotInDomain):
        f_map(3, ParamTuple(2, 0, 3, 0))  # 3 is odd
    with pytest.raises(NonPositiveImage):
        f_map(2, ParamTuple(2, 0, 3, -4))  # f(2) = floor(3 - 4) = -1


def test_constraint_edges_examples():
    assert constraint_edges(ParamTuple(1, 0, 2, 0), 5) == [(1, 2), (2, 4)]
    assert constraint_edges(ParamTuple(2, 0, 3, 0), 9) == [(2, 3), (4, 6), (6, 9)]
    assert constraint_edges(ParamTuple("3/2", 0, 2, 1), 1) == []  # floor(gamma+delta)=3>1


def test_param_tuple_validation():
    with pytest.raises(ValueError):
        ParamTuple("1/2", 0, 2, 0)  # alpha < 1
    with pytest.raises(ValueError):
        ParamTuple(2, 0, 2, 0)  # alpha = gamma
    p = ParamTuple(2, 1, 4, 0)
    assert as_fraction(reference_chain_bound(p)) == 4  # (4*(1+1)+2*0)/(4-2)
    assert as_fraction(p.ratio) == 2


@given(
    p=st.integers(min_value=1, max_value=40),
    q=st.integers(min_value=1, max_value=12),
    en=st.integers(min_value=-30, max_value=30),
    ed=st.integers(min_value=1, max_value=12),
    k1=st.integers(min_value=1, max_value=10_000),
    k2=st.integers(min_value=1, max_value=10_000),
)
@settings(deadline=None)
def test_injectivity_rational(p, q, en, ed, k1, k2):
    # floor(tau*k + eta) collides iff k1 = k2, for tau >= 1
    tau = rational(Fraction(max(p, q), q))
    eta = rational(Fraction(en, ed))
    f1 = floor_linear(tau, k1, eta)
    f2 = floor_linear(tau, k2, eta)
    assert (f1 == f2) == (k1 == k2)


@given(
    b=st.fractions(min_value=Fraction(1, 4), max_value=3),
    d=st.sampled_from([2, 3, 5, 7, 10]),
    en=st.fractions(min_value=-4, max_value=4),
    k1=st.integers(min_value=1, max_value=10_000),
    k2=st.integers(min_value=1, max_value=10_000),
)
@settings(max_examples=150, deadline=None)
def test_injectivity_surd(b, d, en, k1, k2):
    tau = surd(1, b, d)  # 1 + b*sqrt(d) >= 1
    eta = surd(en, b / 3, d)
    f1 = floor_linear(tau, k1, eta)
    f2 = floor_linear(tau, k2, eta)
    assert (f1 == f2) == (k1 == k2)


@pytest.mark.parametrize("tup", [
    (2, 0, 3, 0), ("3/2", "1/3", 3, "1/5"),
    ("sqrt(2)", 0, "sqrt(3)", 0), ("sqrt(2)", "1/3", "2+sqrt(2)", "1/5"),
])
def test_member_f_consistency(tup, rng):
    p = ParamTuple(*tup)
    for k in sorted(set(rng.integers(1, 10_000, size=60).tolist()) | {1, 2, 3}):
        x = floor_linear(p.alpha, int(k), p.beta)
        if x < 1:
            continue
        assert member(x, p.alpha, p.beta) == k
        assert f_map(x, p) == floor_linear(p.gamma, int(k), p.delta)


def _rpow(r, l):
    out = as_real(1)
    for _ in range(l):
        out = out * r
    return out


@pytest.mark.parametrize("tup", [
    (1, 0, 2, 0), (2, 1, 4, 0), ("3/2", 0, 3, 0), ("sqrt(2)", 0, "sqrt(3)", 0),
    (2, 1000, 5, "-3/2"),  # gamma*|beta| dominates C
])
def test_growth_sandwich(tup, rng):
    # (gamma/alpha)^l (x - C) < f^l(x) < (gamma/alpha)^l (x + C)
    p = ParamTuple(*tup)
    c = reference_chain_bound(p)
    heads = sorted(set(rng.integers(1, 5000, size=12).tolist()))
    for x0 in heads:
        if member(x0, p.alpha, p.beta) is None:
            continue
        x = x0
        for l in range(0, 21):
            ratio_l = _rpow(p.ratio, l)
            lo = ratio_l * (as_real(x0) - c)
            hi = ratio_l * (as_real(x0) + c)
            assert compare(lo, as_real(x)) < 0
            assert compare(as_real(x), hi) < 0
            if member(x, p.alpha, p.beta) is None:
                break
            x = f_map(x, p)


@pytest.mark.parametrize("tup", [
    (2, 0, 3, 0), ("7/3", "1/2", "10/3", "-1/2"),
    ("sqrt(2)", 0, "sqrt(3)", 0), ("sqrt(5)", "1/3", "2*sqrt(5)", 2),
    ("sqrt(2)", "sqrt(2)", "sqrt(3)", 0),  # mixed-field eta, generic fallback
])
def test_fast_paths_match_generic(tup):
    p = ParamTuple(*tup)
    a, g = BeattyPair(p.alpha, p.beta), BeattyPair(p.gamma, p.delta)
    for x in range(1, 400):
        ref = member(x, p.alpha, p.beta)
        assert a.member(x) == (ref or 0)
        if ref is not None:
            assert g.floor(a.member(x)) == floor_linear(p.gamma, ref, p.delta)


def test_beatty_values():
    assert beatty_values(rational(2), 0, 10) == [2, 4, 6, 8, 10]
    assert beatty_values(surd(0, 1, 2), 0, 8) == [1, 2, 4, 5, 7, 8]
    # negative eta: non-positive values are dropped per the N-intersection
    assert beatty_values(rational(1), rational(-2), 4) == [1, 2, 3, 4]


@st.composite
def _kernel_case(draw):
    """(tau, eta, ks): a parameter pair of every kind the kernel takes,
    with lanes that include exact-integer values of tau*k + eta and k on
    both sides of the int64 guard of the rational path."""
    kind = draw(st.sampled_from(["rational", "surd", "cross", "multi"]))
    shift = draw(st.sampled_from([0, -300, -10**11]))  # large negative shifts
    d = draw(st.sampled_from([2, 3, 5, 7]))
    b = draw(st.fractions(min_value=Fraction(1, 8), max_value=3,
                          max_denominator=12))
    m = draw(st.integers(min_value=-40, max_value=40))
    ea = draw(st.integers(min_value=-20, max_value=20)) + shift
    ks = [m, 0, 1, 2, 3]
    if kind == "rational":
        num = draw(st.integers(min_value=1, max_value=10**6))
        den = draw(st.integers(min_value=1, max_value=num))
        tau = rational(num, den)
        eta = rational(Fraction(ea) + draw(st.fractions(
            min_value=-1, max_value=1, max_denominator=50)))
        T, H, Z = _linear_form(tau, eta)
        A, E = T[1], H.get(1, 0)
        kmax = (LANE_BOUND - abs(E)) // A
        ks += [kmax - 1, kmax, kmax + 1, -kmax, -kmax - 1]
        ks += [m * Z, m * Z + 1]  # tau*k + eta is an integer at one of these
    elif kind == "surd":
        # tau*m + eta = m + ea exactly
        tau, eta = surd(1, b, d), surd(ea, -b * m, d)
    elif kind == "cross":
        d2 = draw(st.sampled_from([x for x in (2, 3, 5, 7, 11) if x != d]))
        tau, eta = surd(1, b, d), surd(ea, b / 3, d2)
    else:
        # tau of two radicands, tau*m + eta = m + ea exactly
        d2 = draw(st.sampled_from([x for x in (2, 3, 5, 7, 11) if x != d]))
        tau = surd(1, b, d) + surd(0, b / 5, d2)
        eta = rational(m + ea) - tau * m
    ks += draw(st.lists(st.integers(min_value=-2**40, max_value=2**40),
                        max_size=20))
    ks += [2**52, 2**53 + 1, -(2**55)]  # past the float filter
    return tau, eta, ks


@st.composite
def _edge_case(draw):
    """(p, n): alpha rational, a surd with shifts from its own field or
    another one, or a sum of two radicands, and shifts of size up to 10^6
    or 10^30.
    Shifts place edges near k = K (about that size).  For exact tuples
    they may put alpha*k + beta and gamma*k + delta exactly on integers
    in [1, n] at one k = K + j, an edge where only the kernel's error
    bound keeps the floors exact."""
    kind = draw(st.sampled_from(["rational", "surd", "surd", "cross",
                                 "multi"]))
    exact = kind in ("rational", "surd")
    n = draw(st.integers(min_value=1, max_value=3000 if exact else 300))
    d = draw(st.sampled_from([2, 3, 5, 7]))
    b = draw(st.fractions(min_value=Fraction(1, 8), max_value=3,
                          max_denominator=12))
    if kind == "rational":
        alpha = rational(draw(st.fractions(min_value=1, max_value=4,
                                           max_denominator=9)))
    else:
        alpha = surd(1, b, d)
    gamma = alpha + draw(st.fractions(min_value=Fraction(1, 5), max_value=4,
                                      max_denominator=7))
    if kind == "multi":
        d2 = draw(st.sampled_from([x for x in (2, 3, 5, 7, 11) if x != d]))
        alpha, gamma = (v + surd(0, b / 5, d2) for v in (alpha, gamma))
    size = draw(st.sampled_from([0, 10**6, 10**30]))
    K = size + draw(st.integers(min_value=0, max_value=n))
    j = draw(st.integers(min_value=0, max_value=n))

    def shift(tau):
        half = Fraction(2 * draw(st.integers(0, 3)) + 1, 8)
        way = draw(st.sampled_from(["plain", "near", "hit", "hit"] if exact
                                   else ["plain", "near", "near"]))
        if way == "plain":  # either sign, up to size
            return rational(draw(st.integers(-size, size)) + half)
        if way == "hit":  # tau*(K + j) + shift is an integer in [1, n]
            return draw(st.integers(1, n)) - tau * (K + j)
        c = draw(st.integers(min_value=-n, max_value=2 * n))
        eta = rational(c - floor_linear(tau, K, 0) + half)
        if kind == "cross":
            d2 = draw(st.sampled_from([x for x in (2, 3, 5, 7, 11) if x != d]))
            eta = eta + surd(0, b / 3, d2)
        return eta

    return ParamTuple(alpha, shift(alpha), gamma, shift(gamma)), n


@given(case=_edge_case())
@settings(max_examples=150, deadline=None)
def test_constraint_edges_match_scalar_reference(case):
    p, n = case
    edges = constraint_edges(p, n)
    assert edges == scalar_constraint_edges(p, n)
    if isinstance(p.alpha, RadicalSum):
        assert edges == scalar_constraint_edges(p, n, reference_floor_linear)
    assert all(type(x) is int for e in edges for x in e)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
@pytest.mark.parametrize("b", [Fraction(1), Fraction(1, 3), Fraction(5, 7)])
def test_constraint_edges_through_exact_integer_values(b, d):
    # alpha*m + beta = 5 and gamma*m + delta = 9 exactly: the float sums
    # land on either side of those integers, so only the kernel's error
    # bound keeps the edge (5, 9) and its neighbours exact
    alpha = surd(1, b, d)
    gamma = alpha + Fraction(1, 2)
    for m in (7, 300, 2999, 10**6 + 1, 10**30 + 7):
        p = ParamTuple(alpha, 5 - alpha * m, gamma, 9 - gamma * m)
        assert constraint_edges(p, 3000) == scalar_constraint_edges(p, 3000)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
@pytest.mark.parametrize("b", [Fraction(1), Fraction(1, 3), Fraction(5, 7)])
def test_kernel_floors_exact_integer_values(b, d):
    # tau*m + eta = m + ea exactly; the float sum lands on either side of
    # the integer, so only the error bound keeps these lanes exact
    tau = surd(1, b, d)
    for ea in (0, -300):
        for m in range(-30, 31):
            eta = surd(ea, -b * m, d)
            got = BeattyPair(tau, eta).floor_lanes(np.array([m - 1, m, m + 1]))
            assert got.tolist() == [floor_linear(tau, k, eta)
                                    for k in (m - 1, m, m + 1)], (ea, m)


def _references(tau):
    """(floor, member) the kernels are checked against: the generic exact
    operations, and for a RadicalSum tau, whose pairs take those
    operations themselves, the isqrt-enclosure references."""
    if isinstance(tau, RadicalSum):
        return reference_floor_linear, reference_member
    return floor_linear, member


@given(case=_kernel_case())
@settings(max_examples=120, deadline=None)
def test_kernel_matches_scalar_floors_and_membership(case):
    tau, eta, ks = case
    pair = BeattyPair(tau, eta)
    ref_floor, ref_member = _references(tau)
    want = {v: ref_floor(tau, v, eta) for v in ks}
    # every scalar walk step is pair.member, then pair.floor
    assert [pair.floor(v) for v in ks] == [want[v] for v in ks]
    k = pair.first_k
    assert pair.floor(k) >= 1 and (k == 1 or pair.floor(k - 1) < 1)
    # the kernel's contract: every floor fits in int64
    ks = [v for v in ks if -2**63 <= want[v] < 2**63]
    floors = pair.floor_lanes(np.array(ks, dtype=np.int64))
    assert floors.tolist() == [want[v] for v in ks]
    xs = sorted({int(v) + dv for v in floors for dv in (-1, 0, 1)
                 if 1 <= int(v) + dv < LANE_BOUND} | set(range(1, 40)))
    ref = [ref_member(v, tau, eta) or 0 for v in xs]
    assert [pair.member(v) for v in xs] == ref
    assert pair.member_lanes(np.array(xs, dtype=np.int64)).tolist() == ref


@st.composite
def _membership_boundary_case(draw):
    """(tau, eta, xs): a pair and lanes x right at the membership
    boundary.  For surd pairs and pairs with a tau of two radicands,
    tau*m + eta lands exactly on (or 2^-30 above) an integer X, so x =
    X - 1 has its candidate k = m with k - (x + 1 - eta)/tau at (or next
    to) 0, which only the error
    bound of the one-pass test decides; cross-field pairs come 2^-30
    close in the same way.  Rational pairs put x next to the int64 guard
    of their exact path."""
    kind = draw(st.sampled_from(["rational", "surd", "cross", "multi"]))
    d = draw(st.sampled_from([2, 3, 5, 7]))
    b = draw(st.sampled_from([Fraction(1), Fraction(1, 3), Fraction(5, 7),
                              Fraction(9, 4)]))
    m = draw(st.one_of(st.integers(1, 2**12), st.integers(2**20, 2**40)))
    ea = draw(st.integers(-300, 300))
    tiny = rational(Fraction(1, 2**30))
    tau = surd(1, b, d)
    eta = surd(ea, -b * m, d)  # tau*m + eta = m + ea exactly
    if kind == "rational":
        num = draw(st.integers(min_value=1, max_value=10**6))
        den = draw(st.integers(min_value=1, max_value=num))
        tau = rational(num, den)
        eta = rational(Fraction(ea) + draw(st.fractions(
            min_value=-1, max_value=1, max_denominator=50)))
        T, H, Z = _linear_form(tau, eta)
        A, E = T[1], H.get(1, 0)
        xmax = (LANE_BOUND - abs(E)) // Z
        kx = (xmax * Z - E) // A
        pair = BeattyPair(tau, eta)
        ks = [kx + dk for dk in range(-2, 3)] + [m]
        return tau, eta, [xmax + dx for dx in range(-2, 3)] + [
            pair.floor(k) + dx for k in ks for dx in (-1, 0, 1)]
    if kind == "cross":
        d2 = draw(st.sampled_from([x for x in (2, 3, 5, 7) if x != d]))
        eta = surd(ea, -b * m, d) + surd(0, Fraction(1, 2**30), d2)
    elif kind == "multi":
        d2 = draw(st.sampled_from([x for x in (2, 3, 5, 7) if x != d]))
        tau = tau + surd(0, b / 5, d2)
        eta = rational(m + ea) - tau * m
        if draw(st.booleans()):
            eta = eta + tiny
    elif draw(st.booleans()):
        eta = eta + tiny
    X = m + ea
    return tau, eta, [X - 1, X, X + 1, X + 2]


@given(case=_membership_boundary_case())
@settings(max_examples=200, deadline=None)
def test_member_lanes_at_the_membership_boundary(case):
    tau, eta, xs = case
    xs = sorted({x for x in xs if 1 <= x < 2**63})
    pair = BeattyPair(tau, eta)
    ref_member = _references(tau)[1]
    ref = [ref_member(x, tau, eta) or 0 for x in xs]
    assert [pair.member(x) for x in xs] == ref
    assert pair.member_lanes(np.array(xs, dtype=np.int64)).tolist() == ref


@pytest.mark.parametrize("scale", [10**300, 10**400])
def test_member_lanes_all_scalar_past_the_float_filter(scale):
    # tau = scale*sqrt(2): at 10^300 the float error of tau is above 1/2,
    # at 10^400 tau does not fit a float, so the member arm settles no
    # lane and every lane takes the scalar member; eta = 5 - tau puts the
    # member 5 (k = 1) in the lanes
    tau = surd(0, scale, 2)
    eta = surd(5, -scale, 2)
    pair = BeattyPair(tau, eta)
    floats = pair._floats
    assert floats is None if scale > 10**308 else floats[1] > 0.5
    xs = [*range(1, 200), LANE_BOUND - 1, LANE_BOUND, 2**63 - 1]
    lanes = np.array(xs, dtype=np.int64)
    _, ok = pair._member_arm(lanes, None)
    assert not ok.any()
    ref = [member(x, tau, eta) or 0 for x in xs]
    assert ref[4] == 1 and sum(ref) == 1
    assert pair.member_lanes(lanes).tolist() == ref


@pytest.mark.parametrize("power", [269, 272, 290])
def test_float_arms_warn_nowhere_at_the_int64_ends(power):
    # floats below 2^900 (10^269*sqrt(2)) run the arms without
    # np.errstate; larger ones silence it, and at 10^290 the product of
    # tau and a lane near 2^63 overflows.  No lane at either end of int64
    # may raise a RuntimeWarning (an error in this suite), and every lane
    # an arm settles is exact.
    scale = 10**power
    big = surd(0, scale, 2)
    ends = np.array([-(2**63 - 1), -1, 0, 1, 2**63 - 1], dtype=np.int64)
    pair = BeattyPair(big, rational(7))
    fl, ok = pair._floor_arm(ends, None)
    for k, f, settled in zip(ends.tolist(), fl.tolist(), ok.tolist()):
        assert not settled or f == floor_linear(big, k, rational(7))
    # eta above every lane: no lane is a member
    pair = BeattyPair(surd(0, 1, 2), surd(0, scale, 3))
    xs = ends[ends > 0]
    k, ok = pair._member_arm(xs, None)
    assert not (k * ok).any()
    assert pair.member_lanes(xs).tolist() == [0] * xs.size


def _step_reference(p, ys):
    """Each lane's scalar step: a.member, then g.floor, or LEFT_SA."""
    a, g = p.pairs
    return [g.floor(k) if (k := a.member(y)) else LEFT_SA for y in ys]


def _assert_step_matches_scalar(p, ys):
    """The step kernel of p on the lanes ys <= the lane guard, with top
    the largest lane (bounds taken once per call) and the guard itself
    (bounds taken per lane where one bound is loose)."""
    guard = _lane_guard(p)
    ys = sorted({y for y in ys if 1 <= y <= guard})
    if not ys:
        return
    step = step_lanes(*p.pairs)
    ref = _step_reference(p, ys)
    lanes = np.array(ys, dtype=np.int64)
    assert step(lanes, ys[-1]).tolist() == ref
    assert step(lanes, guard).tolist() == ref


def _guard_lanes(p):
    """Lanes next to the lane guard: the guard and its neighbours below,
    and the last member of S(alpha, beta) at or below it with its
    neighbours."""
    a = p.pairs[0]
    guard = _lane_guard(p)
    k = a.first_k_at(guard + 1) - 1  # the last member index <= guard
    last = a.floor(k) if k >= 1 else guard
    return [guard - 2, guard - 1, guard, last - 1, last, last + 1]


@st.composite
def _step_case(draw):
    """A tuple whose (alpha, beta) comes from ``_membership_boundary_case``
    (rational, surd, cross-field or two-radicand alpha), with (gamma,
    delta) rational, in alpha's field, a surd over a drawn radicand, over
    two radicands, or past the float range; and lanes at alpha's
    membership boundary.  An integer offset from (alpha, beta) lands
    gamma*k + delta on an integer wherever alpha*k + beta does, so there
    only the floor arm's error bound decides."""
    tau, eta, xs = draw(_membership_boundary_case())
    kind = draw(st.sampled_from(
        ["rational", "same-field", "offset", "surd", "multi", "past-float"]))
    c = ceil_value(tau) + 1  # an integer above tau
    delta = rational(draw(st.fractions(min_value=-5, max_value=5,
                                       max_denominator=12)))
    if kind == "rational":
        gamma = rational(c) + rational(1, draw(st.integers(2, 9)))
    elif kind == "same-field":
        gamma = tau * draw(st.sampled_from([2, 3, Fraction(5, 2)]))
    elif kind == "offset":
        gamma = tau + draw(st.integers(1, 3))
        delta = eta + draw(st.integers(-3, 3))
    elif kind == "surd":
        gamma = surd(c, 1, draw(st.sampled_from([2, 3, 5, 7])))
    elif kind == "multi":
        gamma = surd(c, 1, 2) + surd(0, 1, 3)
    else:  # gamma*1 + delta = 5, gamma*2 + delta past the float range
        gamma = surd(0, 10**400, 2)
        delta = 5 - gamma
    return ParamTuple(tau, eta, gamma, delta), xs


@given(case=_step_case())
@settings(max_examples=200, deadline=None)
def test_step_kernel_matches_scalar_member_then_floor(case):
    # one guarded pass of a's member arm and g's floor arm per lane, at
    # alpha's membership boundary (only the member arm's error bound
    # decides there) and next to the lane guard (floors near 2^62, the
    # exact arms' int64 limits, and per-lane bounds with top = guard)
    p, xs = case
    _assert_step_matches_scalar(p, [*xs, *_guard_lanes(p)])


@pytest.mark.parametrize("scale", [10**300, 10**400])
def test_step_kernel_with_alpha_past_the_float_filter(scale):
    # alpha = scale*sqrt(2) has no sound float member arm: it settles no
    # lane, so every lane takes the scalar member, then floor; beta = 5 -
    # alpha puts the member 5 (k = 1) in the lanes
    # and gamma = 2*alpha, delta = 7 - gamma its image 7
    alpha = surd(0, scale, 2)
    p = ParamTuple(alpha, 5 - alpha, alpha * 2, 7 - alpha * 2)
    ys = [*range(1, 200), *_guard_lanes(p)]
    _, ok = p.pairs[0]._member_arm(np.array(ys, dtype=np.int64), None)
    assert not ok.any()
    assert _lane_guard(p) >= 200
    assert _step_reference(p, ys)[3:6] == [LEFT_SA, 7, LEFT_SA]
    _assert_step_matches_scalar(p, ys)


# ---------------------------------------------------------------------------
# the constants of a pair from its integer linear forms
# ---------------------------------------------------------------------------

_SIZES = st.sampled_from([1, 10**6, 10**30])


@st.composite
def _exact_shift(draw, d, size=None):
    """A rational, or a value of Q(sqrt(d)), of size up to ``size`` (one
    of 1, 10^6 and 10^30 by default), either sign."""
    size = draw(_SIZES) if size is None else size
    a = draw(st.integers(-size, size)) + draw(st.fractions(
        min_value=-1, max_value=1, max_denominator=60))
    if draw(st.booleans()):
        return rational(a)
    b = draw(st.integers(-size, size)) + draw(st.fractions(
        min_value=-1, max_value=1, max_denominator=60))
    return surd(a, b or 1, d)


@st.composite
def _exact_tau(draw, d):
    """tau >= 1: a rational, or a + b*sqrt(d) with either sign of b."""
    if draw(st.booleans()):
        return rational(draw(st.fractions(min_value=1, max_value=50,
                                          max_denominator=1000)))
    b = draw(st.fractions(min_value=Fraction(1, 40), max_value=6,
                          max_denominator=40))
    b = b if draw(st.booleans()) else -b
    a = draw(st.fractions(min_value=-6, max_value=20, max_denominator=40))
    tau = surd(a, b, d)
    if compare(tau, 1) < 0:  # lift it past 1 by an integer
        tau = tau + (1 - tau.floor())
    return tau


@st.composite
def _exact_pair(draw):
    """(tau, eta) in one quadratic field, or both rational."""
    d = draw(st.sampled_from([2, 3, 5, 7, 10]))
    return draw(_exact_tau(d)), draw(_exact_shift(d))


@st.composite
def _radical_pair(draw):
    """(tau, eta) over zero to three radicands: tau of ``_exact_tau``
    plus up to two more surd terms, lifted past 1, and eta a sum of
    ``_exact_shift`` values over up to three radicands, in tau's
    radicands or not."""
    ds = draw(st.lists(st.sampled_from([2, 3, 5, 7, 10]), min_size=1,
                       max_size=3, unique=True))
    tau = draw(_exact_tau(ds[0]))
    for d in ds[1:]:
        tau = tau + surd(0, draw(st.fractions(
            min_value=-3, max_value=3, max_denominator=40)), d)
    if compare(tau, 1) < 0:
        tau = tau + (1 - tau.floor())
    es = draw(st.lists(st.sampled_from([2, 3, 5, 7, 10, 11]), max_size=3,
                       unique=True))
    return tau, sum((draw(_exact_shift(d)) for d in es), rational(0))


@given(case=st.one_of(_exact_pair(), _radical_pair()),
       x=st.one_of(st.integers(1, 300), st.integers(1, 10**30)))
@settings(max_examples=300, deadline=None)
def test_first_k_at_from_the_inverse_form(case, x):
    tau, eta = case
    pair = BeattyPair(tau, eta)
    want = first_k_at_reference(pair, x)
    floor, seen = pair.floor, []
    pair.__dict__["floor"] = lambda k: seen.append(k) or floor(k)
    assert pair.first_k_at(x) == want
    # the ceiling is exact: no floor is taken to settle it
    assert seen == []


@pytest.mark.parametrize("tau,eta", [
    (rational(7, 3), rational(Fraction(1, 2) - 10**30)),
    (surd(0, 1, 2), rational(-10**30)),
    (surd(1, 1, 3), surd(Fraction(1, 3), 10**20, 3)),
    (rational(5, 2), surd(0, Fraction(-1, 7), 5)),
    (parse_real("sqrt(2)+sqrt(3)"), parse_real("0")),
    (parse_real("1+sqrt(2)"), parse_real("1/3+sqrt(5)")),
])
def test_first_k_at_takes_no_enclosure_on_exact_pairs(tau, eta, monkeypatch):
    pair = BeattyPair(tau, eta)
    xs = [1, 2, 77, 10**12, 10**30]
    want = [first_k_at_reference(pair, x) for x in xs]

    def refuse(self, bits):
        raise AssertionError("an enclosure was asked for")

    for cls in (Rational, QuadraticSurd, RadicalSum):
        monkeypatch.setattr(cls, "enclosure", refuse)
        monkeypatch.setattr(cls, "_bounds", refuse)
    assert [pair.first_k_at(x) for x in xs] == want


def _float_pair_from_enclosure(x):
    """(v, e) from the Fractions of the reference's 96-bit enclosure."""
    lo, hi = terms_enclosure(value_terms(x), 96)
    v = float((lo + hi) / 2)
    fv = Fraction(v)
    return v, float(max(hi - fv, fv - lo)) * (1 + 2.0 ** -50) + 2.0 ** -1074


@st.composite
def _exact_value(draw):
    """A rational, a surd or a sum over two or three radicands, scaled
    down by up to 10^40."""
    ds = draw(st.lists(st.sampled_from([2, 3, 5, 7, 10]), min_size=1,
                       max_size=3, unique=True))
    x = sum((draw(_exact_shift(d)) for d in ds), rational(0))
    scale = draw(st.sampled_from([1, 1, Fraction(1, 10**9),
                                  Fraction(1, 10**40)]))
    return x * rational(scale)


@given(x=_exact_value())
@settings(max_examples=300, deadline=None)
def test_float_pair_encloses_the_value(x):
    v, e = _float_pair(x)
    lo, hi = x.enclosure(256)
    assert Fraction(v) - Fraction(e) <= lo and hi <= Fraction(v) + Fraction(e)
    # the integer bounds give the bits the Fraction midpoint gives, on
    # every tier, and approx() is that midpoint's float
    assert (v, e) == _float_pair_from_enclosure(x)
    assert x.approx() == v


@st.composite
def _wide_pair(draw):
    """(tau, eta) of ``_exact_pair``, or with tau != 0 of either sign whose
    coefficients reach 10^30 over denominators up to 10^30."""
    d = draw(st.sampled_from([2, 3, 5, 7, 10]))
    if draw(st.booleans()):
        tau = draw(_exact_tau(d))
    else:
        big = st.integers(-10**30, 10**30)
        den = st.integers(1, 10**30)
        a, b = (Fraction(draw(big), draw(den)) for _ in range(2))
        tau = rational(a or 1) if draw(st.booleans()) else surd(a, b or 1, d)
    return tau, draw(_exact_shift(d))


@given(case=_wide_pair())
@settings(max_examples=300, deadline=None)
def test_inverse_form_matches_the_fraction_formula(case):
    pair = BeattyPair(*case)
    assert pair._inverse == fraction_inverse_form(pair)


@given(case=_radical_pair())
@settings(max_examples=200, deadline=None)
def test_inverse_form_is_the_form_of_the_exact_inverse(case):
    tau, eta = case
    T1, H1, Z1 = BeattyPair(tau, eta)._inverse
    assert (T1, H1, Z1) == _linear_form(1 / tau, -(eta / tau))


@pytest.mark.parametrize("tau,etas", [
    ("7/3", ["1/3", "sqrt(3)-5/2"]),
    ("sqrt(2)", ["-4/7", "1/2-3*sqrt(2)"]),
    ("1/2+sqrt(5)/2", ["10", "sqrt(5)/3"]),
    ("sqrt(2)+sqrt(3)", ["0"]),
    ("1+sqrt(2)", ["1/3+sqrt(5)"]),
])
def test_one_field_pairs_take_no_reciprocal(tau, etas, monkeypatch):
    # the inverse form comes from the forward form in integers, so no
    # pair divides by tau, not even once: not in one field, and not
    # over several radicands either
    calls, recip = [], numerics_mod._reciprocal

    def counted(x):
        calls.append(x)
        return recip(x)

    for mod in (beatty_mod, numerics_mod):  # wherever a caller finds it
        monkeypatch.setattr(mod, "_reciprocal", counted, raising=False)
    for eta in etas:
        pair = BeattyPair(parse_real(tau), parse_real(eta))
        calls.clear()
        got = [pair.member(x) for x in range(1, 101)]
        starts = [pair.first_k_at(x) for x in (1, 50, 10**12)]
        assert calls == []
        assert got == [reference_member(x, pair.tau, pair.eta) or 0
                       for x in range(1, 101)]
        assert starts == [first_k_at_reference(pair, x)
                          for x in (1, 50, 10**12)]


def test_float_pair_past_the_float_range():
    assert _float_pair(rational(10**400)) is None
    assert _float_pair(surd(0, 10**400, 2)) is None
    v, e = _float_pair(rational(Fraction(1, 10**400)))
    assert v == 0.0 and 0 < e < 2.0 ** -1000


@st.composite
def _exact_tuple(draw):
    """A tuple in one quadratic field (or all rational), shifts up to
    10^30, gamma - alpha from 1/40 up."""
    d = draw(st.sampled_from([2, 3, 5, 7, 10]))
    alpha = draw(_exact_tau(d))
    step = draw(_exact_shift(d, size=5))
    if compare(step, rational(Fraction(1, 40))) < 0:
        step = rational(Fraction(1, 40)) + abs(step)
    return ParamTuple(alpha, draw(_exact_shift(d)), alpha + step,
                      draw(_exact_shift(d)))


@given(p=_exact_tuple())
@settings(max_examples=200, deadline=None)
def test_growth_start_and_lane_guard_on_exact_tuples(p):
    k = _growth_start(*p.pairs)
    assert k >= 1
    assert compare((1 + p.beta - p.delta) / (p.gamma - p.alpha), k) <= 0
    assert_lane_guard_promise(p, _lane_guard(p))


_RATIONAL = st.fractions(min_value=-10**6, max_value=10**6,
                         max_denominator=10**6)


@given(alpha=st.fractions(min_value=1, max_value=50, max_denominator=10**4),
       step=st.fractions(min_value=Fraction(1, 10**9), max_value=50,
                         max_denominator=10**9),
       beta=_RATIONAL, delta=_RATIONAL)
@example(alpha=2, step=1, beta=0, delta=0)
@example(alpha=3, step=2, beta=1, delta=0)
@example(alpha=1, step=1, beta=0, delta=0)
@example(alpha=Fraction(3, 2), step=Fraction(3, 2), beta=0, delta=-50)
@example(alpha=1, step=1, beta=5, delta=0)
@example(alpha=2, step=Fraction(1, 4), beta=Fraction(1, 3), delta=-10**30)
@settings(max_examples=200, deadline=None)
def test_growth_start_is_the_exact_ceiling_on_rational_tuples(
        alpha, step, beta, delta):
    alpha, step, beta, delta = map(Fraction, (alpha, step, beta, delta))
    q = (1 + beta - delta) / step
    p = ParamTuple(alpha, beta, alpha + step, delta)
    assert _growth_start(*p.pairs) == max(1, -(-q.numerator // q.denominator))


@pytest.mark.parametrize("tup", [
    (1, 0, f"{10**400}*sqrt(2)", 0),
    (1, 0, f"1+sqrt(2)/{10**30}", 0),
])
def test_growth_start_is_fast_at_extreme_gaps(tup):
    # gamma - alpha past the float range, and below 2^-99
    p = ParamTuple(*tup)
    a, g = p.pairs
    k = _growth_start(a, g)
    assert k >= 1
    assert compare((1 + p.beta - p.delta) / (p.gamma - p.alpha), k) <= 0
    assert k < 2 * max(1, ceil_value((1 + p.beta - p.delta)
                                     / (p.gamma - p.alpha)))
    assert min(timeit.repeat(lambda: _growth_start(a, g), number=1,
                             repeat=5)) < 1e-3


@pytest.mark.parametrize("tup", [
    ("sqrt(2)", 0, f"{10**400}*sqrt(2)", 0),
    (1, f"{10**400}", 3, "sqrt(2)"),
    (1, 0, "7/3", f"-{10**400}*sqrt(5)"),
])
def test_chain_bound_and_lane_guard_past_the_float_range(tup):
    # a value that does not fit a float: the guard still comes from exact
    # floors, and keeps no iterate or every one below 2^62 (no member of
    # S(1, 10^400) lies below it)
    p = ParamTuple(*tup)
    guard = _lane_guard(p)
    assert guard in (0, LANE_BOUND)
    assert_lane_guard_promise(p, guard)
