import math
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from beattydim import (
    GOLDEN_MEAN,
    BinaryMatrix,
    CapExceeded,
    ParamTuple,
    chain_product_count,
    constraint_edges,
    count_patterns,
    decompose,
    exhaustive_count,
    finite_scale_logcount,
)
from beattydim.beatty import _edge_lanes
from beattydim.oracle import (NonPathComponent, PatternCount,
                              _component_tally, _path_starts)
from conftest import REGION_TUPLES, scalar_constraint_edges


def scalar_exhaustive_count(p, A, n):
    """Reference enumeration: word id -> digits by int64 division, in
    chunks of 2**20 words; every word checked against every scalar
    edge."""
    return _scalar_word_count(scalar_constraint_edges(p, n), A, n)


def _scalar_word_count(edges, A, n):
    m = A.m
    total_words = m**n
    allowed = np.array(A.rows, dtype=bool)
    powers = [m**i for i in range(n)]
    count = 0
    chunk = 1 << 20
    for lo in range(0, total_words, chunk):
        ids = np.arange(lo, min(lo + chunk, total_words), dtype=np.int64)
        ok = np.ones(ids.shape, dtype=bool)
        for u, v in edges:
            du = (ids // powers[u - 1]) % m
            dv = (ids // powers[v - 1]) % m
            ok &= allowed[du, dv]
        count += int(ok.sum())
    return count


def _path_count(A, length):
    """Colorings of a path with `length` vertices: DP along the edges."""
    vec = [1] * A.m
    rows = A.rows
    for _ in range(length - 1):
        vec = [sum(rows[s][t] * vec[t] for t in range(A.m)) for s in range(A.m)]
    return sum(vec)


def dict_tally(edges, n):
    """Reference component tally on [1, n]: (paths, cycles, isolated),
    paths and cycles as Counters of vertex counts, by walking each
    component through dicts, one vertex at a time."""
    out, indeg = {}, {}
    for u, v in edges:
        if u in out:
            raise NonPathComponent(f"vertex {u} has two outgoing constraints")
        out[u] = v
        indeg[v] = indeg.get(v, 0) + 1
        if indeg[v] > 1:
            raise NonPathComponent(f"vertex {v} has two incoming constraints")
    vertices = set(out) | set(indeg)
    visited = set()
    paths, cycles = Counter(), Counter()
    for start in sorted(vertices):
        if start in visited or start in indeg:
            continue
        length = 1
        visited.add(start)
        cur = start
        while cur in out:
            cur = out[cur]
            visited.add(cur)
            length += 1
        paths[length] += 1
    for start in sorted(vertices):
        if start in visited:
            continue
        length = 0
        cur = start
        while True:
            visited.add(cur)
            length += 1
            cur = out[cur]
            if cur == start:
                break
            if cur in visited:
                raise NonPathComponent("malformed cycle in constraint graph")
        cycles[length] += 1
    return paths, cycles, n - len(vertices)


def scalar_count_patterns(p, A, n):
    """Reference graph count: the dict tally of the scalar edges, one
    path DP per path length."""
    paths, cycles, isolated = dict_tally(scalar_constraint_edges(p, n), n)
    count = A.m ** isolated
    for length, c in paths.items():
        count *= _path_count(A, length) ** c
    for length, c in cycles.items():
        count *= A.trace_power(length) ** c
    components = paths.total() + cycles.total() + isolated
    return PatternCount(n=n, count=count, method="component-dp",
                        components=components)


def lane_tally(edges, n):
    """_component_tally on an edge list."""
    u = np.array([e[0] for e in edges], dtype=np.int64)
    v = np.array([e[1] for e in edges], dtype=np.int64)
    return _component_tally(u, v, n)


ORACLE_TUPLES = [
    (1, 0, 2, 0), (2, 1, 4, 0), (2, 0, 3, 0), (2, 0, 4, 2),
    ("3/2", 0, 3, 0), ("sqrt(2)", 0, "sqrt(3)", 0),
]


def test_count_patterns_free_shift():
    for m in (2, 3):
        J = BinaryMatrix.all_ones(m)
        for tup in [(1, 0, 2, 0), ("3/2", 0, 3, 0)]:
            assert count_patterns(ParamTuple(*tup), J, 10).count == m**10


def test_count_patterns_examples():
    p = ParamTuple(1, 0, 2, 0)
    pc = count_patterns(p, GOLDEN_MEAN, 4)
    # components {1,2,4} (|A^2| = 5) and {3} (2 symbols)
    assert pc.count == 10
    assert pc.components == 2
    assert count_patterns(p, GOLDEN_MEAN, 1).count == 2


def test_oracle_equality_small():
    for tup in ORACLE_TUPLES:
        p = ParamTuple(*tup)
        for n in range(1, 15):
            g = count_patterns(p, GOLDEN_MEAN, n).count
            e = exhaustive_count(p, GOLDEN_MEAN, n)
            assert g == e, (tup, n, g, e)


def test_oracle_equality_m3(rng):
    A = BinaryMatrix.from_string("110;011;101")
    for tup in ORACLE_TUPLES[:4]:
        p = ParamTuple(*tup)
        for n in (1, 5, 9, 12):
            assert count_patterns(p, A, n).count == exhaustive_count(p, A, n)


def test_self_loop_component():
    # (sqrt(2), 0, sqrt(3), 0) at k = 1 yields the edge (1, 1): the word
    # count must honor A(x_1, x_1) = 1
    p = ParamTuple("sqrt(2)", 0, "sqrt(3)", 0)
    assert count_patterns(p, GOLDEN_MEAN, 1).count == exhaustive_count(
        p, GOLDEN_MEAN, 1) == 1
    for n in range(1, 13):
        assert count_patterns(p, GOLDEN_MEAN, n).count == exhaustive_count(
            p, GOLDEN_MEAN, n)


def _component_shapes(p, n):
    """Inspect the raw edge set: (max out-degree, max in-degree, cycles)."""
    from beattydim import constraint_edges

    edges = constraint_edges(p, n)
    out, indeg = {}, {}
    for u, v in edges:
        out.setdefault(u, []).append(v)
        indeg[v] = indeg.get(v, 0) + 1
    cycles = 0
    seen = set()
    for start in sorted(out):
        if start in seen:
            continue
        cur, trail = start, set()
        while cur in out and cur not in trail and cur not in seen:
            trail.add(cur)
            cur = out[cur][0]
        if cur in trail:
            cycles += 1
        seen |= trail
    max_out = max((len(v) for v in out.values()), default=0)
    max_in = max(indeg.values(), default=0)
    return max_out, max_in, cycles


def test_component_shape():
    # degrees never exceed 1 (index-map injectivity); the standard tuples
    # have pure path components, the sqrt(2)/sqrt(3) pair one self-loop
    for key in ("R1", "R2", "R7", "R8", "R9", "R10"):
        mo, mi, cycles = _component_shapes(REGION_TUPLES[key], 500)
        assert mo <= 1 and mi <= 1 and cycles == 0, key
    mo, mi, cycles = _component_shapes(REGION_TUPLES["R4"], 500)
    assert mo == 1 and mi == 1 and cycles == 1


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        exhaustive_count(ParamTuple(1, 0, 2, 0), GOLDEN_MEAN, 40)
    with pytest.raises(CapExceeded):
        exhaustive_count(ParamTuple(1, 0, 2, 0), BinaryMatrix.all_ones(3), 20)


def test_finite_scale_logcount():
    p = ParamTuple(1, 0, 2, 0)
    assert finite_scale_logcount(p, BinaryMatrix.all_ones(2), 50) == 1.0
    assert abs(finite_scale_logcount(p, BinaryMatrix.all_ones(3), 50) - 1.0) < 1e-12
    # window doubling stabilizes
    v1 = finite_scale_logcount(p, GOLDEN_MEAN, 10_000)
    v2 = finite_scale_logcount(p, GOLDEN_MEAN, 20_000)
    assert abs(v1 - v2) < 1e-2


def test_finite_scale_logcount_refuses_an_empty_shift():
    # no word of length 12 is admissible: the count is 0, whose log is
    # undefined, and the error says so instead of a math domain error
    p = ParamTuple("sqrt(2)", 0, "sqrt(3)", 0)
    A = BinaryMatrix.from_string("011;001;110")
    assert count_patterns(p, A, 12).count == 0
    with pytest.raises(ValueError, match="no word of length 12 is admissible"):
        finite_scale_logcount(p, A, 12)


def test_logcount_precision():
    # cross-check the bit-length log against math.log on a modest count
    p = ParamTuple(1, 0, 2, 0)
    c = count_patterns(p, GOLDEN_MEAN, 120).count
    got = finite_scale_logcount(p, GOLDEN_MEAN, 120)
    assert abs(got - math.log2(c) / 120) < 1e-12


def test_chain_product_consistency():
    for key in ("R7", "R8", "R10", "R2"):
        p = REGION_TUPLES[key]
        dec = decompose(p, 2000)
        assert chain_product_count(dec, GOLDEN_MEAN, p) == count_patterns(
            p, GOLDEN_MEAN, 2000).count


def test_chain_product_refuses_constrained_residual():
    p = ParamTuple(2, 0, 3, -4)
    dec = decompose(p, 20)
    with pytest.raises(ValueError):
        chain_product_count(dec, GOLDEN_MEAN, p)


# the index pairs on [1, 14] run backwards, (6, 2), and through the
# self-loop (10, 10)
BACKWARD_TUPLE = (1, 5, 2, 0)
NON_SYMMETRIC = {
    2: ("11;10", "10;11", "11;01", "01;11"),
    3: ("110;001;111", "111;110;100", "011;101;110", "100;011;111"),
    4: ("1100;0011;1110;0101", "1000;1100;0110;1111", "0111;1011;1101;0001"),
}
# largest window under the 2**24 cap; the scalar reference is slow there
CAP_N = {2: 24, 3: 15, 4: 12}


def test_backward_tuple_edges():
    edges = constraint_edges(ParamTuple(*BACKWARD_TUPLE), 14)
    assert (6, 2) in edges and (10, 10) in edges


# surds a + b*sqrt(r) >= 1, in increasing order
SURDS = sorted(
    (a + b * math.sqrt(r), f"{a}+{b}*sqrt({r})" if a else f"{b}*sqrt({r})")
    for r in (2, 3, 5) for a in (0, 1, 2) for b in (1, 2)
)


@st.composite
def _oracle_tuples(draw):
    """Rational or surd (alpha, gamma) with rational shifts in [-6, 6]."""
    shift = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    beta, delta = str(draw(shift)), str(draw(shift))
    if draw(st.booleans()):
        alpha = draw(st.fractions(min_value=1, max_value=4, max_denominator=5))
        gamma = alpha + draw(st.fractions(min_value=Fraction(1, 5), max_value=4,
                                          max_denominator=5))
        return ParamTuple(str(alpha), beta, str(gamma), delta)
    i = draw(st.integers(min_value=0, max_value=len(SURDS) - 2))
    j = draw(st.integers(min_value=i + 1, max_value=len(SURDS) - 1))
    return ParamTuple(SURDS[i][1], beta, SURDS[j][1], delta)


@given(p=_oracle_tuples(), m=st.sampled_from([2, 3, 4]), data=st.data())
@settings(max_examples=120, deadline=None)
def test_exhaustive_count_matches_scalar_reference(p, m, data):
    A = BinaryMatrix.from_string(data.draw(st.sampled_from(NON_SYMMETRIC[m])))
    n = data.draw(st.integers(min_value=1, max_value={2: 14, 3: 9, 4: 7}[m]))
    assert exhaustive_count(p, A, n) == scalar_exhaustive_count(p, A, n)


# On Beatty edge sets every path runs one way (u < v on each edge, or
# u > v on each), and reversing a whole path keeps |A^L|, so only
# arbitrary edge sets tell A from A.T on a backward edge.
@given(m=st.sampled_from([2, 3, 4]), data=st.data())
@settings(max_examples=120, deadline=None)
def test_exhaustive_count_on_arbitrary_edges(m, data):
    A = BinaryMatrix.from_string(data.draw(st.sampled_from(NON_SYMMETRIC[m])))
    n = data.draw(st.integers(min_value=1, max_value={2: 12, 3: 8, 4: 6}[m]))
    vertex = st.integers(min_value=1, max_value=n)
    edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    with mock.patch("beattydim.oracle.constraint_edges", lambda p, n: edges):
        got = exhaustive_count(None, A, n)
    assert got == _scalar_word_count(edges, A, n)


def test_exhaustive_count_mixed_direction_path():
    # 1 -> 3 -> 2 under A = 11;01: x1 <= x3 and x3 <= x2
    with mock.patch("beattydim.oracle.constraint_edges",
                    lambda p, n: [(1, 3), (3, 2)]):
        assert exhaustive_count(None, BinaryMatrix.from_string("11;01"), 3) == 4


@pytest.mark.parametrize("text", [t for ts in NON_SYMMETRIC.values() for t in ts])
def test_backward_edges_and_self_loop_match_scalar_reference(text):
    p = ParamTuple(*BACKWARD_TUPLE)
    A = BinaryMatrix.from_string(text)
    for n in range(1, {2: 15, 3: 11, 4: 9}[A.m]):
        assert exhaustive_count(p, A, n) == scalar_exhaustive_count(p, A, n)


@pytest.mark.parametrize("text", ["11;10", "110;001;111"])
def test_exhaustive_count_at_the_cap(text):
    A = BinaryMatrix.from_string(text)
    n = CAP_N[A.m]
    for tup in [(2, 0, 3, 0), BACKWARD_TUPLE]:
        p = ParamTuple(*tup)
        assert exhaustive_count(p, A, n) == count_patterns(p, A, n).count
    with pytest.raises(CapExceeded):
        exhaustive_count(p, A, n + 1)


def _assert_same_count(p, A, n):
    got, ref = count_patterns(p, A, n), scalar_count_patterns(p, A, n)
    assert (got.count, got.components) == (ref.count, ref.components)


@pytest.mark.parametrize("text", ["11;10", "110;001;111"])
@pytest.mark.parametrize("key", sorted(REGION_TUPLES))
def test_count_patterns_matches_scalar_reference(key, text):
    _assert_same_count(REGION_TUPLES[key], BinaryMatrix.from_string(text), 2000)


@pytest.mark.parametrize("text", ["11;10", "01;11", "110;001;111", "111;110;100"])
def test_count_patterns_cycles_and_backward_edges(text):
    A = BinaryMatrix.from_string(text)
    for tup in [("sqrt(2)", 0, "sqrt(3)", 0), BACKWARD_TUPLE]:
        for n in (1, 2, 10, 14, 300, 2000):
            _assert_same_count(ParamTuple(*tup), A, n)


@pytest.mark.parametrize("n", [500, 5000])
@pytest.mark.parametrize("key", sorted(REGION_TUPLES))
def test_component_tally_matches_dict_walk(key, n):
    p = REGION_TUPLES[key]
    got = _component_tally(*_edge_lanes(p, n), n)
    assert got == dict_tally(scalar_constraint_edges(p, n), n)


@pytest.mark.parametrize("tup", [BACKWARD_TUPLE, ("sqrt(2)", 0, "sqrt(3)", 0),
                                 ("sqrt(2)", "1/4", "sqrt(3)", "1/4")])
def test_component_tally_backward_edges_and_self_loops(tup):
    p = ParamTuple(*tup)
    for n in (1, 2, 10, 14, 300, 2000):
        got = _component_tally(*_edge_lanes(p, n), n)
        assert got == dict_tally(scalar_constraint_edges(p, n), n)
        if n >= 10:
            # both floors increase with k, so every cycle is a self-loop:
            # (10, 10) for the backward tuple, (1, 1) for the others
            assert set(got[1]) == {1}


@st.composite
def _partial_injection(draw):
    """(edges, n): a graph on [1, n] with in- and out-degree at most 1,
    so its components are paths and cycles of any length, in a random
    edge order; sometimes one extra edge breaks a degree."""
    n = draw(st.integers(min_value=1, max_value=40))
    order = draw(st.permutations(range(1, n + 1)))
    cuts = sorted(draw(st.sets(st.integers(0, n), max_size=n)) | {0, n})
    edges = []
    for lo, hi in zip(cuts, cuts[1:]):
        block = order[lo:hi]
        edges += list(zip(block, block[1:]))
        if draw(st.booleans()):  # close the block into a cycle
            edges.append((block[-1], block[0]))
    edges = draw(st.permutations(edges))
    if edges and draw(st.integers(0, 4)) == 0:
        vertex = st.integers(min_value=1, max_value=n)
        edges = edges + [(draw(vertex), draw(vertex))]
    return edges, n


@given(case=_partial_injection())
@settings(max_examples=200, deadline=None)
def test_component_tally_on_arbitrary_graphs(case):
    edges, n = case
    try:
        want = dict_tally(edges, n)
    except NonPathComponent as exc:
        with pytest.raises(NonPathComponent, match=f"^{exc}$"):
            lane_tally(edges, n)
    else:
        assert lane_tally(edges, n) == want


@given(case=_partial_injection())
@settings(max_examples=200, deadline=None)
def test_path_starts_match_setdiff(case):
    # the in-degree table gives the tails no edge enters, in edge order,
    # as the sorting set difference does on graphs of paths and cycles
    edges, n = case
    u = np.array([e[0] for e in edges], dtype=np.int64)
    v = np.array([e[1] for e in edges], dtype=np.int64)
    assume(np.unique(u).size == u.size and np.unique(v).size == v.size)
    got = _path_starts(u, v, n)
    assert got.tolist() == np.setdiff1d(u, v, assume_unique=True).tolist()
    assert sorted(got.tolist()) == np.setdiff1d(u, v).tolist()
