import io
from fractions import Fraction
from math import inf, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beattydim import (
    ParamTuple,
    HorizonTooSmall,
    decompose,
    empirical_densities,
)
from beattydim.beatty import LANE_BOUND, BeattyPair, member
from beattydim.chains import (
    _INFINITE,
    _RESIDUAL,
    A1,
    Chain,
    ChainClass,
    _ScanContext,
    _certificate,
    _lane_guard,
    _window_counts,
    default_horizon,
    finite_class,
    infinity_candidate,
)
from beattydim.numerics import Rational, ceil_value, rational, surd
from conftest import (REGION_TUPLES, NonPositiveImage, beatty_values,
                      dij_row, f_map, reference_chain_bound,
                      reference_floor_linear, reference_member,
                      reference_suffix)

NOT_HEAD = ChainClass("not_head")


def classify_head(x, p, horizon):
    """Reference classifier via the generic exact operations.

    NonPositiveImage propagates if the trajectory leaves the positive
    integers (the scan records such heads as residual)."""
    if member(x, p.gamma, p.delta) is not None:
        return NOT_HEAD
    if member(x, p.alpha, p.beta) is None:
        return A1
    y = f_map(x, p)
    j = 1
    while True:
        if member(y, p.alpha, p.beta) is None:
            return finite_class(j + 1)
        if j >= horizon:
            return infinity_candidate(horizon)
        y = f_map(y, p)
        j += 1


def certificate(p):
    """chains._certificate on the two pairs of p."""
    return _certificate(*p.pairs)


def scalar_decompose(p, n, horizon=None):
    """Reference for decompose: one scalar walk per head of [1, n + C],
    as (chains, residual, counts), with no certificate."""
    if horizon is None:
        horizon = default_horizon(p, n)
    bound = n + ceil_value(reference_chain_bound(p))
    ctx = _ScanContext(p, bound)
    ctx.Y = None  # walk reads only Y: no chain is proved
    covered = bytearray(n + 1)
    chains, counts = [], {}
    for x in range(1, bound + 1):
        if ctx.sg[x]:
            continue
        if ctx.sa[x]:
            rec = []
            kind, val, _ = ctx.walk(x, horizon, n, rec=rec)
            if kind == "residual" or not rec:
                continue
            if kind == "finite":
                cls = finite_class(val)
                key = (val, len(rec))
                counts[key] = counts.get(key, 0) + 1
            else:
                cls = infinity_candidate(horizon)
        elif x <= n:
            cls, rec = A1, [x]
            counts[(1, 1)] = counts.get((1, 1), 0) + 1
        else:
            continue
        chains.append(Chain(x, cls, tuple(rec)))
        for e in rec:
            covered[e] = 1
    residual = tuple(x for x in range(1, n + 1) if not covered[x])
    return tuple(chains), residual, counts


def scalar_window_counts(ctx, lo, hi, horizon, probe):
    """Reference for _window_counts: one scalar walk per head to the
    horizon, then, with probe, every candidate resumed in walk to twice
    the horizon, as (a1, finite, cand, moved), class keys in ascending
    order; ctx is rebuilt on [1, hi] without the certificate."""
    ctx = _ScanContext(ctx.p, hi)
    ctx.Y = None
    a1 = cand = moved = 0
    finite, survivors = {}, []
    for x in range(lo, hi + 1):
        if ctx.sg[x]:
            continue
        if not ctx.sa[x]:
            a1 += 1
            continue
        kind, val, y = ctx.walk(x, horizon)
        if kind == "finite":
            finite[val] = finite.get(val, 0) + 1
        elif kind == "cand":
            cand += 1
            survivors.append(y)
    for y in survivors if probe else ():
        kind, val = ctx.walk(y, 2 * horizon, j=horizon)[:2]
        if kind in ("finite", "residual"):
            moved += 1
            cand -= 1
        if kind == "finite":
            finite[val] = finite.get(val, 0) + 1
    return a1, dict(sorted(finite.items())), cand, moved


def assert_counts_match(p, lo, hi, horizon=None, probe=True):
    """_window_counts equals the scalar reference, class keys in
    ascending order; returns the number of moved candidates."""
    if horizon is None:
        horizon = default_horizon(p, hi)
    ctx = _ScanContext(p, hi)
    got = _window_counts(ctx, lo, hi, horizon, probe)
    ref = scalar_window_counts(ctx, lo, hi, horizon, probe)
    assert got == ref
    assert list(got[1]) == sorted(got[1])
    return got[3]


def assert_matches_scalar(p, n, horizon=None):
    chains, residual, counts = scalar_decompose(p, n, horizon)
    dec = decompose(p, n, horizon)
    assert dec.chains == chains
    assert dec.residual == residual
    assert list(dec.counts.items()) == list(counts.items())


def test_classify_head_examples():
    assert classify_head(3, ParamTuple(1, 0, 2, 0), 40).tag == "infinity"
    assert classify_head(7, ParamTuple(2, 0, 3, 0), 40) == A1
    assert classify_head(2, ParamTuple(2, 0, 3, 0), 40) == finite_class(2)
    assert classify_head(6, ParamTuple(2, 0, 3, 0), 40) == NOT_HEAD
    assert classify_head(4, ParamTuple(2, 0, 3, 0), 40) == finite_class(3)  # 4->6->9


def test_classify_head_residual_abort():
    # trajectory 4 -> 2 -> floor(3*1 - 4) = -1 leaves N; the reference
    # classifier propagates, decompose records the elements as residual
    with pytest.raises(NonPositiveImage):
        classify_head(4, ParamTuple(2, 0, 3, -4), 40)


def test_decompose_doubling():
    dec = decompose(ParamTuple(1, 0, 2, 0), 7)
    got = {(c.head, c.elements) for c in dec.chains}
    assert got == {(1, (1, 2, 4)), (3, (3, 6)), (5, (5,)), (7, (7,))}
    assert dec.residual == ()
    assert all(c.cls.tag == "infinity" for c in dec.chains)


def test_decompose_two_three():
    # S(2,0) = evens, S(3,0) = multiples of 3; head 4 runs 4 -> 6 -> 9
    dec = decompose(ParamTuple(2, 0, 3, 0), 6)
    by_head = {c.head: c for c in dec.chains}
    assert by_head[1].cls == A1 and by_head[5].cls == A1
    assert by_head[2].cls == finite_class(2) and by_head[2].elements == (2, 3)
    assert by_head[4].cls == finite_class(3) and by_head[4].elements == (4, 6)
    assert dec.residual == ()
    assert dec.counts == {(1, 1): 2, (2, 2): 1, (3, 2): 1}


@pytest.mark.parametrize("key", sorted(REGION_TUPLES))
@pytest.mark.parametrize("n", [50, 137, 1000])
def test_partition(key, n):
    dec = decompose(REGION_TUPLES[key], n)
    covered = [x for c in dec.chains for x in c.elements] + list(dec.residual)
    assert sorted(covered) == list(range(1, n + 1))


# tuples with residual elements, and whether some chain left N: chains
# that leave N, then fixed points of f and headless cycles (the last
# three from the verify benchmark catalog)
RESIDUAL_TUPLES = [
    (("3/2", 0, 3, -50), 300, True),
    ((2, 0, 3, -4), 50, True),
    (("sqrt(2)", 0, "sqrt(3)", 0), 2000, False),
    (("sqrt(2)", "1/4", "sqrt(3)", "1/4"), 2000, False),
    (("sqrt(2)", "sqrt(7)", "sqrt(3)", "1/3"), 130, False),
]
COLUMN_CASES = [
    *(pytest.param(REGION_TUPLES[k], 300, False, id=k)
      for k in sorted(REGION_TUPLES)),
    *(pytest.param(ParamTuple(*t), n, left, id=f"residual-{i}")
      for i, (t, n, left) in enumerate(RESIDUAL_TUPLES)),
]


def eager_counts(dec):
    """The (i, j) tally that decompose built eagerly before ``counts``
    was computed on first read: one np.unique over i*(n+1)+j, keyed in
    the order of each key's first chain."""
    n, lengths = dec.n, np.diff(dec.offsets)
    fin = dec.classes >= 1
    keys = dec.classes[fin] * (n + 1) + lengths[fin]
    uniq, at, tally = np.unique(keys, return_index=True, return_counts=True)
    return {divmod(int(uniq[u]), n + 1): int(tally[u]) for u in np.argsort(at)}


@pytest.mark.parametrize("p,n,left", COLUMN_CASES)
def test_lazy_counts_equal_the_eager_tally(p, n, left):
    dec = decompose(p, n)
    assert "counts" not in vars(dec)  # computed on first read
    want = eager_counts(dec)
    assert list(dec.counts.items()) == list(want.items())
    assert dec.counts is dec.counts


@pytest.mark.parametrize("p,n,left", COLUMN_CASES)
def test_length_counts_equal_the_sorted_tally(p, n, left):
    dec = decompose(p, n)
    lengths, tally = np.unique(np.diff(dec.offsets), return_counts=True)
    want = dict(zip(lengths.tolist(), tally.tolist()))
    assert list(dec.length_counts().items()) == list(want.items())


def scalar_columns(p, n, horizon):
    """decompose's columns (heads, classes, offsets, elements) as int64
    arrays, and the residual, from the scalar reference's chains."""
    chains, residual, _ = scalar_decompose(p, n, horizon)
    code = {"A1": lambda c: 1, "finite": lambda c: c.i,
            "infinity": lambda c: _INFINITE}
    lengths = [len(c.elements) for c in chains]
    cols = ([c.head for c in chains],
            [code[c.cls.tag](c.cls) for c in chains],
            np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)]),
            [x for c in chains for x in c.elements])
    return [np.array(col, dtype=np.int64) for col in cols], residual


@pytest.mark.parametrize("p,n,left", COLUMN_CASES)
def test_decompose_columns_match_scalar_walk(p, n, left, monkeypatch):
    # the walk's arrays are kept as they are where every chain has an
    # element in [1, n] and none left N, and compressed otherwise; the
    # columns are the same either way
    walk_heads, kept = _ScanContext.walk_heads, []

    def spy(self, *args):
        w = walk_heads(self, *args)
        kept.append(bool(((w.cls != _RESIDUAL)
                          & (np.diff(w.offsets) > 0)).all()))
        return w

    monkeypatch.setattr(_ScanContext, "walk_heads", spy)
    dec = decompose(p, n)
    cols, residual = scalar_columns(p, n, default_horizon(p, n))
    for name, want in zip(("heads", "classes", "offsets", "elements"), cols):
        got = getattr(dec, name)
        assert got.dtype == np.int64, name
        assert got.tolist() == want.tolist(), name
    assert (dec.residual, dec.horizon) == (residual, default_horizon(p, n))
    assert kept == [not left]


@pytest.mark.parametrize("tup,n", [
    # the last FINISH lanes of the stream resume in walk, several of
    # them with more than one element left in [1, n]
    pytest.param(("3/2", 0, 3, 0), 300, id="finish"),
    pytest.param((1, 0, "1+sqrt(3)", "1/3"), 2000, id="finish-surd"),
    # gamma past the lane bound: the guard is 3, so a lane at 5 passes
    # it after one step and resumes in walk at step 1
    pytest.param((2, 0, f"{10**19}*sqrt(2)", f"5-{10**19}*sqrt(2)"), 100,
                 id="guard"),
])
def test_resumed_lanes_see_their_elements_in_trajectory_order(tup, n,
                                                              monkeypatch):
    p = ParamTuple(*tup)
    walk, resumed = _ScanContext.walk, []

    def spy(self, y, horizon, cutoff=0, rec=None, j=0):
        out = walk(self, y, horizon, cutoff, rec, j)
        if rec is not None:
            resumed.append((j, len(rec)))
        return out

    monkeypatch.setattr(_ScanContext, "walk", spy)
    dec = decompose(p, n)
    monkeypatch.undo()
    if tup[0] == 2:
        assert _lane_guard(p) == 3 and any(j == 1 for j, _ in resumed)
    else:
        assert sum(seen >= 3 for _, seen in resumed) >= 2
    ctx = _ScanContext(p, n)
    for c in dec.chains:
        rec = []
        ctx.walk(c.head, dec.horizon, n, rec)
        assert c.elements == tuple(rec), c.head


def test_partition_with_anomalies():
    # negative delta: aborted chains and a self-loop land in the residual
    p = ParamTuple(2, 0, 3, -4)
    dec = decompose(p, 50)
    covered = [x for c in dec.chains for x in c.elements] + list(dec.residual)
    assert sorted(covered) == list(range(1, 51))
    assert set(dec.residual) == {2, 4, 8}
    assert len(decompose(p, 50).residual) == 3


@pytest.mark.parametrize("tup", [
    (2, 0, 3, 0), (2, 1, 4, 0), ("3/2", "1/3", "7/2", "-1/2"),
    ("sqrt(2)", 0, "sqrt(3)", 0), (1, 0, 2, 0), (2, 0, 4, 2),
])
def test_scan_matches_reference_classifier(tup):
    # the optimized window scan and the plain exact classifier must agree
    # head by head
    p = ParamTuple(*tup)
    n = 300
    dec = decompose(p, n)
    by_head = {c.head: c.cls for c in dec.chains}
    for x in range(1, n + 1):
        ref = classify_head(x, p, dec.horizon)
        if ref.tag == "not_head":
            assert x not in by_head
        elif ref.tag == "infinity":
            assert by_head[x].tag == "infinity", x
        else:
            assert by_head[x] == ref, x


@pytest.mark.parametrize("key,H", [("R2", 6), ("R9", 6), ("R1", 1), ("R10", 6)])
def test_resumed_walk_matches_fresh_walk(key, H):
    # a walk resumed at step H from a horizon-H survivor must end
    # exactly where a fresh walk to 2H ends.  Without the certificate,
    # survivors stay candidates in R2/R9 and R1 and mostly turn finite
    # in R10.
    p = REGION_TUPLES[key]
    n = 2000
    ctx = _ScanContext(p, n)
    ctx.Y = None
    resumed = 0
    for x in range(1, n + 1):
        if ctx.sg[x] or not ctx.sa[x]:
            continue
        kind, _, y = ctx.walk(x, H)
        if kind == "cand":
            assert ctx.walk(y, 2 * H, j=H) == ctx.walk(x, 2 * H), x
            resumed += 1
    assert resumed > 0


def walked_chains(p, horizon, n=2000):
    """The trajectory of every head in [1, n], walked by the scalar
    reference with every element visible and no certificate."""
    ctx = _ScanContext(p, n)
    ctx.Y = None
    chains = []
    for x in range(1, n + 1):
        if ctx.sa[x] and not ctx.sg[x]:
            rec = []
            ctx.walk(x, horizon, inf, rec)
            chains.append(rec)
    return chains


def assert_strictly_monotone(chains):
    for rec in chains:
        steps = [b - a for a, b in zip(rec, rec[1:])]
        assert all(s > 0 for s in steps) or all(s < 0 for s in steps), rec


@st.composite
def _monotone_case(draw):
    """A rational tuple, or one in a single quadratic field Q(sqrt(d)),
    with shifts in [-100, 100]."""
    if draw(st.booleans()):
        b = draw(st.integers(1, 12))
        alpha = Fraction(b, draw(st.integers(1, b)))
        c = draw(st.integers(1, 8))
        gamma = Fraction(int(alpha * c) + draw(st.integers(1, 16)), c)
        shift = st.builds(rational, st.integers(-100, 100), st.integers(1, 6))
        return ParamTuple(rational(alpha), draw(shift), rational(gamma),
                          draw(shift))
    d = draw(st.sampled_from([2, 3, 5]))
    alpha = surd(draw(st.integers(1, 3)), Fraction(draw(st.integers(1, 4)), 2), d)
    a, b = draw(st.integers(0, 3)), draw(st.integers(1, 4))
    gamma = alpha + surd(a, Fraction(b, 2), d)
    # |c/den + e*sqrt(d)| <= 80 + 3*sqrt(5) < 100
    shift = st.builds(surd, st.integers(-80, 80), st.integers(-3, 3),
                      st.just(d))
    return ParamTuple(alpha, draw(shift), gamma, draw(shift))


@given(p=_monotone_case())
@settings(max_examples=40, deadline=None)
def test_chains_are_strictly_monotone(p):
    # each step moves by g(k) = floor(gamma*k + delta) - floor(alpha*k +
    # beta), which keeps the sign of an increasing h(k) = (gamma -
    # alpha)*k + delta - beta: a chain steps up throughout or down
    # throughout (the lemma in the chains module)
    assert_strictly_monotone(walked_chains(p, 40))


@pytest.mark.parametrize("tup", [
    ("3/2", 0, 3, -500), (1, 0, "21/20", -7), ("sqrt(2)", 3, "sqrt(3)", -40),
])
def test_decreasing_chains_are_strictly_monotone(tup):
    p = ParamTuple(*tup)
    chains = walked_chains(p, default_horizon(p, 2000))
    assert_strictly_monotone(chains)
    assert any(len(rec) >= 3 and rec[1] < rec[0] for rec in chains)
    assert any(len(rec) >= 3 and rec[1] > rec[0] for rec in chains)


def reference_class(x, p, horizon):
    """(class, trajectory) of the head x by the isqrt-enclosure reference
    floors and memberships, or (None, ()) when x is not a head; the walk
    stops after horizon steps.  The trajectory must stay positive."""
    if reference_member(x, p.gamma, p.delta) is not None:
        return None, ()
    rec = [x]
    for j in range(horizon + 1):
        k = reference_member(rec[-1], p.alpha, p.beta)
        if k is None:
            return (finite_class(j + 1) if j else A1), tuple(rec)
        if j == horizon:
            return infinity_candidate(horizon), tuple(rec)
        rec.append(reference_floor_linear(p.gamma, k, p.delta))
        assert rec[-1] >= 1


def test_multi_radicand_parameters_scan_like_the_enclosure_reference():
    # parameters of two radicands take the generic exact operations in
    # every scan layer: head by head, the decomposition and the window
    # scan must agree with walks on the isqrt-enclosure reference
    p = ParamTuple("sqrt(2)+sqrt(3)/8", "1/5", "sqrt(3)+sqrt(5)/8", "1/3")
    n = 400
    H = default_horizon(p, n)
    dec = decompose(p, n, H)
    by_head = {c.head: c for c in dec.chains}
    counts, cand = {}, 0
    for x in range(1, n + 1):
        cls, rec = reference_class(x, p, H)
        if cls is None:
            assert x not in by_head
            continue
        assert by_head[x].cls == cls, x
        assert by_head[x].elements == tuple(y for y in rec if y <= n), x
        cls, _ = reference_class(x, p, 2 * H)  # the scan's probe
        if cls.tag == "infinity":
            cand += 1
        else:
            counts[cls.label()] = counts.get(cls.label(), 0) + 1
    assert set(by_head) <= set(range(1, n + 1))
    d = empirical_densities(p, [(1, n)], horizon=H)
    assert d.d_inf == cand / n
    assert d.finite[0] == counts.pop("A1", 0) / n
    assert {i: c / n for i, c in counts.items()} == {
        finite_class(i).label(): v for i, v in enumerate(d.finite, start=1)
        if v and i > 1}


def test_bitset_matches_beatty_values():
    from beattydim.chains import _mark_bitset
    from beattydim.numerics import rational, surd

    cases = [
        (rational(2), rational(0)),
        (rational(3, 2), rational(1, 3)),
        (rational(1), rational(-2)),
        (rational(2), rational(-500)),
        (surd(0, 1, 2), rational(-300)),
        (surd(0, 1, 2), rational(0)),
        (surd(1, 1, 5), surd(0, 1, 5)),
        (rational(65, 64), rational(0)),
        (rational(101, 100), rational(1, 7)),
        (rational(2), rational(-10**30)),
        (surd(0, 1, 2), rational(-10**30)),  # a shifted pair
        (rational(3, 2), rational(10**30)),  # no member
        (surd(0, 1, 2), rational(10**30)),
        # rational tau = b/q: one period of q lanes, then doubling copies
        (rational(1), rational(0)),  # integer tau: q = 1, b = 1
        (rational(5), rational(-3)),  # q = 1, b = 5
        (rational(701, 3), rational(0)),  # a period longer than the bound
        (rational(1000, 999), rational(1, 3)),  # fewer members than q
        (rational(3, 2), rational(-10**30)),  # the shifted pair repeats
    ]
    # bounds on the period edges of S(7/2, 0): members from x0 = 3 on
    # repeat every b = 7 positions
    edges = [(rational(7, 2), rational(0), bound)
             for x in (3 + 7, 3 + 7 * 100) for bound in (x - 2, x - 1, x)]
    for tau, eta, bound in [*((t, e, 700) for t, e in cases), *edges]:
        bits = _mark_bitset(BeattyPair(tau, eta), bound)
        assert len(bits) == bound + 1
        marked = {x for x in range(1, bound + 1) if bits[x]}
        assert marked == set(beatty_values(tau, eta, bound)), (tau, eta, bound)


def test_residual_sparsity():
    for key in ("R7", "R8", "R10", "R2"):
        assert len(decompose(REGION_TUPLES[key], 10**5).residual) == 0


def test_derived_dij_telescopes():
    p = ParamTuple(2, 0, 3, 0)
    # formula check with the hypothetical d_2 = 1/2 from the derivation
    row = dij_row(p, 2, Fraction(1, 2))
    assert row == [Fraction(1, 6), Fraction(1, 3)]
    assert dij_row(p, 1, Fraction(1, 4)) == [Fraction(1, 4)]
    for i in range(2, 12):
        row = dij_row(p, i, Fraction(1, 3))
        assert sum(row) == Fraction(1, 3)


def test_derived_dij_counting_oracle():
    # anchored A_{i,j} counts for (2,0,3,0): d_2 = 1/6 splits 1/18 + 1/9
    p = ParamTuple(2, 0, 3, 0)
    n = 10**6
    counts = decompose(p, n).counts
    d2 = Fraction(1, 6)
    row = dij_row(p, 2, d2)
    assert row == [Fraction(1, 18), Fraction(1, 9)]
    for j in (1, 2):
        assert abs(counts.get((2, j), 0) / n - float(row[j - 1])) < 5e-3
    row3 = dij_row(p, 3, Fraction(1, 12))
    for j in (1, 2, 3):
        assert abs(counts.get((3, j), 0) / n - float(row3[j - 1])) < 5e-3
    # decompose tallies the same counts on a smaller window
    dec = decompose(p, 50_000)
    small = decompose(p, 50_000).counts
    assert dec.counts == small


def test_empirical_matches_closed_small():
    from beattydim import classify_region, closed_form_d

    for key in ("R8", "R10"):
        p = REGION_TUPLES[key]
        closed = closed_form_d(p, classify_region(p))
        emp = empirical_densities(p, [(1, 100_000)])
        for i in (1, 2, 3):
            assert abs(emp.entry_float(i) - float(closed.entry(i))) < 5e-3
        assert abs(emp.d_inf_float() - float(closed.d_inf)) < 5e-3


def test_anchored_vs_sliding_windows():
    p = REGION_TUPLES["R10"]
    n = 100_000
    d = empirical_densities(p, [(1, n), (n, 2 * n)])
    assert d.diagnostic is not None
    assert d.diagnostic < 5e-3


def test_horizon_too_small():
    # horizon 2 mistakes classes i in (3, 4] for infinity candidates;
    # doubling to 4 moves ~d_3 + d_4 ~ 1/8 of the mass
    with pytest.raises(HorizonTooSmall):
        empirical_densities(ParamTuple(2, 0, 3, 0), [(1, 20_000)], horizon=2)


def test_empirical_beyond_k_separated():
    d = empirical_densities(ParamTuple(2, 0, 3, 0), [(1, 50_000)], K=3)
    assert d.beyond, "classes beyond K should be tracked separately"
    assert all(i > 3 for i in d.beyond)
    # one stored form: the head holds every measured class, K or more
    assert len(d.head) == max(d.beyond) and len(d.finite) == 3
    assert all(d.entry(i) == v for i, v in d.beyond.items())
    assert d.d_inf_float() < 1e-3  # no infinite chains in R10


def test_suffix_and_entry_extension():
    from beattydim import classify_region, closed_form_d

    p = REGION_TUPLES["R10"]
    d = closed_form_d(p, classify_region(p), K=10)
    # entries continue geometrically past K: d_i = (g1-1)(a1-1)/(g1*A*a1^(i-1))
    assert d.entry(11) == Fraction(2, 3 * 2 * 2**10)
    tail = d.floats(10)[1][-1]
    assert tail == reference_suffix(d, 10)
    exact = sum(float(Fraction(2, 6 * 2 ** (i - 1))) for i in range(11, 200))
    assert abs(tail - exact) < 1e-12


def test_csv_dump():
    dec = decompose(ParamTuple(2, 0, 3, 0), 6)
    buf = io.StringIO()
    dec.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "x,class,chain_id,position_in_chain"
    rows = {tuple(l.split(",")[:2]) for l in lines[1:]}
    assert ("4", "finite(3)") in rows
    assert ("6", "finite(3)") in rows
    assert ("1", "A1") in rows
    assert len(lines) == 7  # header + one row per element of [1, 6]


def test_csv_dump_lists_residual_rows():
    # (3/2, 0, 3, -50): the chains that leave N at f(1) = -47 leave 33
    # elements of [1, 300] residual; every x appears in exactly one row
    dec = decompose(ParamTuple("3/2", 0, 3, -50), 300)
    assert len(dec.residual) == 33
    buf = io.StringIO()
    dec.to_csv(buf)
    rows = [l.split(",") for l in buf.getvalue().strip().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(1, 301))
    residual = [r for r in rows if r[1] == "residual"]
    assert [int(r[0]) for r in residual] == list(dec.residual)
    assert all(r[2:] == ["-1", "-1"] for r in residual)


@pytest.mark.parametrize("key", sorted(REGION_TUPLES))
def test_decompose_matches_scalar_reference(key):
    assert_matches_scalar(REGION_TUPLES[key], 10**5)


@pytest.mark.parametrize("tup,n", [
    (("sqrt(2)", 0, "sqrt(3)", 0), 2000),  # fixed point 1 = f(1)
    (("sqrt(2)", "1/4", "sqrt(3)", "1/4"), 2000),
    (("3/2", 0, 3, -500), 5000),  # aborted chains in the residual
    # shifted tuples: chains headed above n step down into [1, n] when
    # beta - delta is large, and none do when delta - beta is
    (("3/2", 0, 3, -50), 300),
    (("3/2", 0, 3, -100000), 10),
    (("3/2", 0, 3, -100000), 300),
    (("3/2", 1000, 3, 0), 300),
    ((2, 1000, 5, "-3/2"), 500),  # heads past n + alpha(1+|beta|+|delta|)/(gamma-alpha)
    (("3/2", -50, 3, 0), 300),
    (("3/2", 0, 3, 100000), 300),
    (("sqrt(2)", 0, "2+sqrt(2)", -1000), 500),
    # chains climbed into [1, 300] from above (134, 75 and 1 entry
    # heads): through a floor pair over two radicands, a member pair over
    # two, and a member pair without floats, whose arm settles no lane
    (("sqrt(2)", "sqrt(3)", "sqrt(5)", -1000), 300),
    (("sqrt(2)", 0, "sqrt(3)+sqrt(5)", -1000), 300),
    ((1, 0, f"{10**400}*sqrt(2)", f"150-{4*10**402}*sqrt(2)"), 300),
])
def test_decompose_matches_scalar_reference_on_anomalies(tup, n):
    assert_matches_scalar(ParamTuple(*tup), n)


@pytest.mark.parametrize("tup,n", [
    ((2, 1000, 5, "-3/2"), 500),
    (("sqrt(2)", 0, "2+sqrt(2)", -1000), 500),
    ((1, 0, "11/10", -10000), 100),
])
@pytest.mark.parametrize("horizon", [1, 2, 5])
def test_decompose_finds_heads_above_n_within_the_horizon(tup, n, horizon):
    # a chain whose head lies more than horizon steps above its entry
    # into [1, n] shows nothing there; with these short horizons some
    # entries have such heads
    assert_matches_scalar(ParamTuple(*tup), n, horizon)


GUARDS = [-1, 0, 5, 299, 300, 2000]


@pytest.mark.parametrize("guard,chunk", [
    *(pytest.param(g, None, id=str(g)) for g in GUARDS),
    *(pytest.param(g, 7, id=f"{g}-chunk7") for g in GUARDS),
])
def test_walk_resumes_past_the_lane_guard(guard, chunk, monkeypatch):
    # heads and iterates above the guard finish in the scalar walk at
    # their step; the merged chains must not change, and the window
    # counts must split resumed lanes into the horizon and doubled-horizon
    # classes (finite i, exit step from N) as the scalar reference does.
    # With 7-position slices, resumed lanes share the window's stream
    # with lanes refilled at later rounds.
    import beattydim.chains as chains_mod

    monkeypatch.setattr(chains_mod, "_lane_guard", lambda p: guard)
    if chunk is not None:
        monkeypatch.setattr(chains_mod, "CHUNK", chunk)
    moved = 0
    for tup in [("3/2", 0, 3, 0), ("3/2", 0, 3, -50), (2, 0, 3, 0),
                (1, 0, "sqrt(5)", 0), ("sqrt(2)", "1/4", "sqrt(3)", "1/4")]:
        p = ParamTuple(*tup)
        assert_matches_scalar(p, 300)
        for horizon in (2, 3, None):
            moved += assert_counts_match(p, 1, 300, horizon)
    assert moved > 0
    with pytest.raises(HorizonTooSmall):
        empirical_densities(ParamTuple(2, 0, 3, 0), [(1, 2000)], horizon=2)


@pytest.mark.parametrize("finish", ["none", "above-chunk"])
@pytest.mark.parametrize("tup,guard,chunk", [
    pytest.param(("3/2", 0, 3, -50), None, None, id="leaves-N"),
    pytest.param((2, 0, 3, 0), None, None, id="certificate"),
    pytest.param(("3/2", 0, 3, 0), None, None, id="R2-dinf"),
    pytest.param(("3/2", 0, 3, 0), 40, None, id="R2-guard"),
    pytest.param(("3/2", 0, 3, -50), 5, 7, id="leaves-N-guard-chunk7"),
    pytest.param(("sqrt(2)", 0, "sqrt(3)", 0), None, 7, id="R4-chunk7"),
    pytest.param((2, 0, 3, 0), None, 7, id="certificate-chunk7"),
    pytest.param(("sqrt(2)", "sqrt(3)", "sqrt(5)", 0), None, None,
                 id="generic"),
])
def test_scalar_finish_matches_scalar_reference(tup, guard, chunk, finish,
                                                monkeypatch):
    # the last live lanes of an exhausted stream finish in the scalar
    # walk at their steps: with no finish every lane takes vector rounds
    # to its end, and with a finish above CHUNK every lane left after the
    # stream's last draw finishes in walk.  With 7-position slices the
    # live cohorts sit at different steps when the oldest meets horizon
    # 2 or 3; a guard of 5 or 40 resumes lanes before the finish.
    import beattydim.chains as chains_mod

    if chunk is not None:
        monkeypatch.setattr(chains_mod, "CHUNK", chunk)
    if guard is not None:
        monkeypatch.setattr(chains_mod, "_lane_guard", lambda p: guard)
    monkeypatch.setattr(chains_mod, "FINISH",
                        0 if finish == "none" else chains_mod.CHUNK + 1)
    p = ParamTuple(*tup)
    assert_matches_scalar(p, 300)
    for horizon in (2, 3, None):
        assert_counts_match(p, 1, 300, horizon)


@pytest.mark.parametrize("tup,finishes", [
    (("3/2", 0, 3, 0), True),
    (("sqrt(2)", 0, "sqrt(3)", 0), True),
    (("sqrt(2)", "sqrt(3)", "sqrt(5)", 0), False),
])
def test_scalar_finish_only_for_integer_forms(tup, finishes, monkeypatch):
    # a generic pair's scalar member costs tens of microseconds, so its
    # lanes keep the vector rounds to the end
    import beattydim.chains as chains_mod

    monkeypatch.setattr(chains_mod, "FINISH", chains_mod.CHUNK + 1)
    walked = []
    walk = _ScanContext.walk

    def counted(self, *args):
        walked.append(args)
        return walk(self, *args)

    monkeypatch.setattr(_ScanContext, "walk", counted)
    p = ParamTuple(*tup)
    empirical_densities(p, [(1, 300)])
    decompose(p, 300)
    assert bool(walked) == finishes


def test_window_counts_with_the_guard_at_the_lane_bound():
    # no member of S(1, 10^400) lies below 2^62, so the lane guard is
    # capped there; the window counts still match the scalar reference
    p = ParamTuple(1, f"{10**400}", 3, "sqrt(2)")
    assert _lane_guard(p) == LANE_BOUND
    assert_counts_match(p, 1, 3000)


@pytest.mark.parametrize("key", sorted(REGION_TUPLES))
def test_window_counts_match_scalar_reference(key):
    assert_counts_match(REGION_TUPLES[key], 1, 10**5)


@pytest.mark.parametrize("key", ["R1", "R2", "R10"])
def test_window_counts_match_scalar_reference_without_probe(key):
    assert_counts_match(REGION_TUPLES[key], 1, 20_000, probe=False)


@pytest.mark.parametrize("tup", [("3/2", 0, 3, 0), (2, 0, 3, 0),
                                 (1, 0, "sqrt(5)", 0), ("3/2", 0, 3, -50)])
def test_window_counts_match_scalar_reference_off_origin(tup, monkeypatch):
    # lo > 1, window edges inside blocks, several blocks; CHUNK is fixed
    # here so that the window does not grow with the tuning constant
    import beattydim.chains as chains_mod

    monkeypatch.setattr(chains_mod, "CHUNK", 1 << 12)
    chunk = chains_mod.CHUNK
    assert_counts_match(ParamTuple(*tup), chunk - 5, 3 * chunk + 17)


@pytest.mark.parametrize("key", ["R2", "R9", "R10"])
def test_two_windows_match_scalar_reference(key, monkeypatch):
    import beattydim.chains as chains_mod

    p = REGION_TUPLES[key]
    windows = [(1, 20_000), (20_000, 30_000)]
    got = empirical_densities(p, windows)
    monkeypatch.setattr(chains_mod, "_window_counts", scalar_window_counts)
    ref = empirical_densities(p, windows)
    assert got == ref
    assert got.diagnostic is not None
    assert list((got.beyond or {}).items()) == list((ref.beyond or {}).items())


@pytest.mark.parametrize("chunk,n", [(1, 400), (7, 3000)])
@pytest.mark.parametrize("key", ["R1", "R2", "R4", "R10"])
def test_empirical_densities_independent_of_chunk(key, chunk, n, monkeypatch):
    import beattydim.chains as chains_mod

    p = REGION_TUPLES[key]
    ref = empirical_densities(p, [(1, n)], K=5)
    monkeypatch.setattr(chains_mod, "CHUNK", chunk)
    got = empirical_densities(p, [(1, n)], K=5)
    assert got == ref
    assert list((got.beyond or {}).items()) == list((ref.beyond or {}).items())


@pytest.mark.parametrize("tup,n", [
    # H = 320: long straggler tails
    pytest.param(("21/20", 0, "11/10", 0), 200_000, id="21/20,0,11/10,0"),
    pytest.param(("sqrt(2)", 0, 3, 0), 100_000, id="sqrt(2),0,3,0"),
    pytest.param((2, 1, 5, 0), 100_000, id="2,1,5,0"),
])
def test_window_pays_one_straggler_tail(tup, n, monkeypatch):
    # a window is one refilling lane stream, so its kernel rounds stay
    # near lane_steps / (CHUNK // 2) plus one tail of the probe's 2H
    # steps; a tail per block of CHUNK positions breaks the bound
    from beattydim.chains import CHUNK

    rounds = lane_steps = 0
    init = _ScanContext.__init__

    def counting_init(self, *args):
        init(self, *args)
        step = self.step  # one call per round

        def counted(y, top):
            nonlocal rounds, lane_steps
            rounds += 1
            lane_steps += y.size
            return step(y, top)

        self.step = counted

    monkeypatch.setattr(_ScanContext, "__init__", counting_init)
    p = ParamTuple(*tup)
    empirical_densities(p, [(1, n)])
    H = default_horizon(p, n)
    assert 0 < rounds <= lane_steps // (CHUNK // 2) + 2 * H + 2


# ---------------------------------------------------------------------------
# the certificate: chains proved infinite over one period
# ---------------------------------------------------------------------------

def assert_certificate_sound(p, span=None):
    """With a certificate Y, every y in [Y, Y + span] (three periods of
    the two memberships by default, 300 for irrational parameters) that
    lies in S(gamma, delta) lies in S(alpha, beta) and has f(y) > y, by
    the generic exact operations.  Returns whether there is a
    certificate."""
    Y = certificate(p)
    if Y is None:
        return False
    if span is None and isinstance(p.alpha, Rational) and isinstance(p.gamma, Rational):
        span = 3 * lcm(p.alpha.value.numerator, p.gamma.value.numerator)
    elif span is None:
        span = 300
    for y in range(Y, Y + span + 1):
        if member(y, p.gamma, p.delta) is not None:
            assert member(y, p.alpha, p.beta) is not None, (p, Y, y)
            assert f_map(y, p) > y, (p, Y, y)
    return True


_SHIFT = st.one_of(
    st.builds(rational, st.integers(-60, 60), st.integers(1, 6)),
    st.builds(surd, st.integers(-60, 60), st.sampled_from([-2, -1, 1, 3]),
              st.sampled_from([2, 3, 5])),
)


@st.composite
def _certificate_case(draw):
    """A rational alpha and gamma: the certificate may or may not exist."""
    b = draw(st.integers(1, 12))
    alpha = Fraction(b, draw(st.integers(1, b)))
    c = draw(st.integers(1, 8))
    gamma = Fraction(int(alpha * c) + draw(st.integers(1, 16)), c)
    return ParamTuple(Rational(alpha), draw(_SHIFT), Rational(gamma),
                      draw(_SHIFT))


@st.composite
def _surd_inclusion_case(draw):
    """(p, certified): a quadratic surd alpha with gamma = m*alpha and
    delta = beta + j*alpha (certified True), or a near miss of that
    family (certified False)."""
    d = draw(st.sampled_from([2, 3, 5]))
    a0, b0 = draw(st.sampled_from([(0, 1), (1, Fraction(1, 2)), (1, 1),
                                   (2, Fraction(3, 2)), (-1, 2)]))
    alpha = surd(a0, b0, d)
    beta = draw(st.one_of(
        st.builds(rational, st.integers(-60, 60), st.integers(1, 6)),
        st.builds(surd, st.integers(-60, 60), st.sampled_from([-2, -1, 1, 3]),
                  st.just(d)),
    ))
    m, j = draw(st.integers(2, 4)), draw(st.integers(-6, 6))
    gamma, delta = m * alpha, beta + j * alpha
    miss = draw(st.sampled_from([None, "half", "third", "surd", "gamma"]))
    if miss == "half":
        delta = delta + rational(1, 2)
    elif miss == "third":
        delta = delta - rational(1, 3)
    elif miss == "surd":
        delta = delta + surd(0, Fraction(1, 7), d)
    elif miss == "gamma":
        gamma = gamma + rational(1, 4)
    return ParamTuple(alpha, beta, gamma, delta), miss is None


@given(p=_certificate_case(), case=_surd_inclusion_case())
@settings(max_examples=150, deadline=None)
def test_certificate_is_sound(p, case):
    # each example checks one rational tuple and one dependent-surd tuple
    assert_certificate_sound(p)
    q, certified = case
    assert assert_certificate_sound(q) == certified


@pytest.mark.parametrize("tup,certified", [
    (("3/2", 0, 3, 0), True),  # R2: f(floor(3k/2)) = 3k = floor(3*2k/2)
    ((2, 0, 4, 2), True),  # R9: S(4, 2) is even, f(y) = 2y + 2
    ((1, 0, 2, 0), True),
    ((1, "1/3", "7/3", -5), True),
    (("3/2", 0, 3, -500), True),  # f(y) > y only from y = 1000 on
    ((2, 0, 4, "2+sqrt(2)/4"), True),  # a surd shift
    (("4/3", 0, "8/3", "1+sqrt(2)"), False),  # 7 in S(8/3, .), not S(4/3, 0)
    ((2, 0, 3, 0), False),  # R10: S(3, 0) holds odd numbers
    (("21/20", 0, "11/10", 0), False),
    ((2, 1, 4, 0), False),  # R8: S(4, 0) is even, S(2, 1) odd
    ((3, 0, 6, 1), False),
    (("65537/65536", 0, 2, 0), False),  # period past the cap
    ((2, 0, "sqrt(17)", 0), False),  # irrational gamma, alpha != 1
    (("sqrt(2)", 0, 3, 0), False),  # irrational alpha
])
def test_certificate_sweep(tup, certified):
    p = ParamTuple(*tup)
    if isinstance(p.gamma, Rational) and isinstance(p.alpha, Rational):
        assert assert_certificate_sound(p) == certified
    else:
        assert (certificate(p) is not None) == certified


@pytest.mark.parametrize("tup", [
    (1, 0, "sqrt(5)", 0), (1, 0, "sqrt(5)", -7), (1, -3, "1+sqrt(2)", "1/2"),
    (1, "sqrt(2)", "sqrt(3)", "-sqrt(5)"),
])
def test_certificate_alpha_one_any_gamma(tup):
    # S(1, beta) holds a whole integer tail, so gamma may be irrational
    assert assert_certificate_sound(ParamTuple(*tup), span=300)


@pytest.mark.parametrize("tup", [
    ("3/2", 0, 3, 0),  # rational, with a certificate period
    ("sqrt(2)", 0, "sqrt(3)", 0),
    ("sqrt(2)", "sqrt(3)", "sqrt(5)", 0),  # cross-field: generic floors
])
def test_scan_builds_each_pair_once(tup, monkeypatch):
    # a scan builds two pairs; an inverse form only for a lane that falls
    # back to the scalar member, and a shifted pair only past a table's
    # bound: at most two forward and two inverse forms here
    import beattydim.beatty as beatty_mod

    calls = 0
    form = beatty_mod._linear_form

    def counted(*args):
        nonlocal calls
        calls += 1
        return form(*args)

    monkeypatch.setattr(beatty_mod, "_linear_form", counted)
    empirical_densities(ParamTuple(*tup), [(1, 2000)])
    assert 0 < calls <= 4


def assert_matches_references(p, n):
    """decompose and the window counts (probe on, lo = 1 and lo > 1)
    equal the references, which run without the certificate; no
    candidate moves on a certified tuple."""
    assert_matches_scalar(p, n)
    moved = assert_counts_match(p, 1, n) + assert_counts_match(p, n // 3, n)
    if certificate(p) is not None:
        assert moved == 0


# the d_inf > 0 tuples of the scan benchmark catalog
DINF_TUPLES = [
    ("3/2", 0, 3, 0), (2, 0, 4, 2), (2, 1, 4, 1), (3, 0, 6, 3),
    ("5/2", 0, 5, 0), ("4/3", 0, "8/3", 0), ("3/2", "1/2", 3, 0),
    (3, 1, 6, 1),
]


@pytest.mark.parametrize("tup", DINF_TUPLES)
def test_dinf_tuples_match_references(tup):
    p = ParamTuple(*tup)
    assert certificate(p) is not None
    assert_matches_references(p, 6000)


@pytest.mark.parametrize("tup", [
    (1, 0, "5/2", 0), (1, "1/3", "7/3", -5), (1, 0, "21/20", 0),
    (1, 0, "sqrt(5)", -7), (1, -3, "1+sqrt(2)", "1/2"),
])
def test_alpha_one_tuples_match_references(tup):
    assert_matches_references(ParamTuple(*tup), 4000)


def _rational_sweep():
    import random

    rng = random.Random(20261018)
    tuples = []
    while len(tuples) < 16:
        b = rng.randint(1, 6)
        alpha = Fraction(b, rng.randint(1, b))
        c = rng.randint(1, 3)
        gamma = Fraction(int(alpha * c) + rng.randint(1, 6), c)
        beta, delta = (Fraction(rng.randint(-30, 30), rng.randint(1, 3))
                       for _ in range(2))
        tuples.append(tuple(map(str, (alpha, beta, gamma, delta))))
    return tuples


@pytest.mark.parametrize("tup", _rational_sweep(), ids=",".join)
def test_rational_sweep_matches_references(tup):
    assert_matches_references(ParamTuple(*tup), 3000)


def test_rational_sweep_has_both_outcomes():
    outcomes = {certificate(ParamTuple(*t)) is not None
                for t in _rational_sweep()}
    assert outcomes == {True, False}


def test_slow_ratio_matches_references():
    # gamma/alpha near 1: long horizons, and blocks end with few live
    # heads; 20 is in S(11/10, 0) but not in S(21/20, 0), so no certificate
    p = ParamTuple("21/20", 0, "11/10", 0)
    assert_counts_match(p, 1, 20_000)
    assert_matches_scalar(p, 3000)


# dependent surds with S(gamma, delta) inside S(alpha, beta): gamma =
# m*alpha and delta = beta + j*alpha, so every head but finitely many is
# proved infinite early instead of walking to twice the horizon
SURD_INCLUSION_TUPLES = [
    ("sqrt(2)", 0, "2*sqrt(2)", 0),
    ("sqrt(2)", 0, "3*sqrt(2)", 0),
    ("1+sqrt(3)", 0, "3+3*sqrt(3)", 0),
    ("sqrt(2)", "1/3", "2*sqrt(2)", "1/3+sqrt(2)"),
    ("sqrt(2)", "1/2", "2*sqrt(2)", "1/2-3*sqrt(2)"),  # j = -3
]


@pytest.mark.parametrize("tup", SURD_INCLUSION_TUPLES)
def test_surd_inclusion_tuples_match_references(tup):
    p = ParamTuple(*tup)
    assert assert_certificate_sound(p)
    assert_matches_references(p, 3000)


def test_surd_inclusion_scan_is_fast():
    # (sqrt(2), 0, 2*sqrt(2), 0) took 5.5 s at n = 10^5 without the
    # certificate: every head walked to twice the horizon
    import time

    p = ParamTuple(*SURD_INCLUSION_TUPLES[0])
    t0 = time.perf_counter()
    d = empirical_densities(p, [(1, 10**5)])
    assert time.perf_counter() - t0 < 2.0
    # d_1 = 1 - 1/alpha and d_inf = 1/alpha - 1/gamma
    assert abs(d.finite[0] - (1 - 2**-0.5)) < 1e-4
    assert abs(d.d_inf - 2**-1.5) < 1e-4
    assert sum(d.finite[1:]) == 0


def test_certificate_past_int64_matches_the_uncertified_scan(monkeypatch):
    # gamma = 10^19 * alpha: the surd inclusion holds from Y = floor(gamma)
    # on, past int64.  The scan stops its walks there exactly; without the
    # certificate every head walks to the horizon.  Both give one answer.
    import beattydim.chains as chains_mod

    tup = ("sqrt(2)", 0, f"{10**19}*sqrt(2)", 0)
    p = ParamTuple(*tup)
    assert certificate(p) > LANE_BOUND
    dec = decompose(p, 300)
    emp = empirical_densities(p, [(1, 300), (1, 150)])
    monkeypatch.setattr(chains_mod, "_certificate", lambda a, g: None)
    q = ParamTuple(*tup)
    ref_dec = decompose(q, 300)
    ref_emp = empirical_densities(q, [(1, 300), (1, 150)])
    assert emp == ref_emp
    assert (dec.residual, dec.counts) == (ref_dec.residual, ref_dec.counts)
    for name in ("heads", "classes", "offsets", "elements"):
        assert getattr(dec, name).tolist() == getattr(ref_dec, name).tolist()


def test_one_pair_per_sequence(monkeypatch, capsys):
    # verify (both oracles, the scan and the product check) and a scan
    # take their floors and memberships from the tuple's two pairs
    from beattydim.cli import main

    built = []
    init = BeattyPair.__init__

    def counted(self, tau, eta):
        built.append((tau, eta))
        init(self, tau, eta)

    monkeypatch.setattr(BeattyPair, "__init__", counted)
    tup = ["--alpha", "sqrt(2)", "--beta", "1/3", "--gamma", "2*sqrt(2)",
           "--delta", "5/6"]
    assert main(["verify", *tup, "--matrix", "11;10", "--n", "18"]) == 0
    assert '"status": "PASS"' in capsys.readouterr().out
    assert len(built) == 2
    built.clear()
    empirical_densities(ParamTuple("sqrt(2)", "1/3", "2*sqrt(2)", "5/6"),
                        [(1, 5000), (1, 2500)])
    assert len(built) == 2


def test_one_shifted_pair_per_sequence_and_start(monkeypatch, capsys):
    # delta = -10^6 puts the first k of S(gamma, delta) far past n, so the
    # S(gamma, delta) table and the constraint edges take shifted pairs;
    # both share the one built per (pair, k0): the tuple's two pairs and
    # the two shifted to the edges' first k
    from beattydim.cli import main

    argv = ["verify", "--alpha=sqrt(2)", "--gamma=2+sqrt(2)",
            "--delta=-1000000", "--matrix=11;10", "--n=18"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    built = []
    init = BeattyPair.__init__

    def counted(self, tau, eta):
        built.append((tau, eta))
        init(self, tau, eta)

    monkeypatch.setattr(BeattyPair, "__init__", counted)
    assert main(argv) == 0
    assert capsys.readouterr().out == out
    assert len(built) == 4
