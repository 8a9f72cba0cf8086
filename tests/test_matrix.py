import sys
from concurrent.futures import ThreadPoolExecutor

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beattydim import GOLDEN_MEAN, BinaryMatrix
from beattydim.matrix import block_sizes
from conftest import (naive_power_sums, random_binary, random_primitive,
                      reference_is_irreducible, reference_is_primitive)


def test_power_sum_examples():
    J = BinaryMatrix.all_ones(2)
    assert J.power_sum(3) == 16  # J^3 = 4J, sum 16
    assert GOLDEN_MEAN.power_sum(0) == 2
    expected = naive_power_sums([[1, 1], [1, 0]], 6)
    assert expected[:6] == [2, 3, 5, 8, 13, 21]
    for l, want in enumerate(expected):
        assert GOLDEN_MEAN.power_sum(l) == want


def naive_powers(rows, max_l):
    """A^0 .. A^max_l by literal repeated multiplication."""
    m = len(rows)
    cur = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    out = [cur]
    for _ in range(max_l):
        cur = [
            [sum(cur[i][k] * rows[k][j] for k in range(m)) for j in range(m)]
            for i in range(m)
        ]
        out.append(cur)
    return out


def test_power_sum_random(rng):
    for _ in range(10):
        m = int(rng.integers(2, 5))
        A = random_binary(rng, m)
        want = naive_power_sums([list(r) for r in A.rows], 12)
        got = [A.power_sum(l) for l in range(13)]
        assert got == want
    # long exponents on a large matrix, asked out of order
    for _ in range(2):
        A = random_binary(rng, 16)
        want = naive_power_sums([list(r) for r in A.rows], 150)
        assert A.power_sum(150) == want[150]
        assert [A.power_sum(l) for l in range(151)] == want


def test_power_sums_match_naive(rng):
    for m in (2, 3, 5, 8, 16):
        A = random_binary(rng, m)
        want = naive_power_sums([list(r) for r in A.rows], 80)
        assert A.power_sums(81) == want
        assert A.power_sums(30) == want[:30]  # a read of the memo
        assert A.power_sums(0) == []
        assert [A.power_sum(l) for l in range(81)] == want
    with pytest.raises(ValueError, match="non-negative"):
        GOLDEN_MEAN.power_sums(-1)


def test_power_sums_is_a_copy():
    A = BinaryMatrix.from_string("110;011;101")
    first = A.power_sums(10)
    first[3] = -1
    assert A.power_sums(10)[3] == A.power_sum(3) > 0


def test_all_ones_growth():
    for m in (2, 3, 5):
        J = BinaryMatrix.all_ones(m)
        for l in range(0, 9):
            assert J.power_sum(l) == m ** (l + 1)


def test_power_sum_bound(rng):
    for _ in range(15):
        m = int(rng.integers(2, 6))
        A = random_binary(rng, m)
        for l in range(10):
            assert A.power_sum(l) <= m ** (l + 1)


def test_submultiplicative(rng):
    for _ in range(15):
        m = int(rng.integers(2, 5))
        A = random_binary(rng, m)
        for l1 in range(7):
            for l2 in range(7):
                assert A.power_sum(l1 + l2) <= A.power_sum(l1) * A.power_sum(l2)


def test_block_sizes():
    assert list(block_sizes(0)) == []
    assert list(block_sizes(100)) == [32, 64, 4]
    assert list(block_sizes(300, 100)) == [32, 64, 100, 100, 4]


def test_log_power_sums_match_exact_sums_and_brackets(rng):
    # log|A^l| against the exact sums, in the blocks of block_sizes (the
    # 16x16 all-ones matrix caps them at 200 rows), and each bracket
    # holds every later increment
    n = 400
    for A in (GOLDEN_MEAN, BinaryMatrix.all_ones(16), random_primitive(rng, 3),
              random_primitive(rng, 8)):
        cap = 1000 // max(A.row_sums).bit_length()
        blocks = list(A.log_power_sums(n))
        assert [len(b[0]) for b in blocks] == list(block_sizes(n, cap))
        log_s, lo, hi = (np.concatenate(a) for a in zip(*blocks))
        exact = np.array([math.log(s) for s in A.power_sums(n + 1)])
        assert np.abs(log_s - exact[:n]).max() <= 1e-12 * n
        step = np.diff(exact)
        later_min = np.minimum.accumulate(step[::-1])[::-1]
        later_max = np.maximum.accumulate(step[::-1])[::-1]
        ok = ~np.isnan(lo)
        assert ok[-1]
        assert (later_min[ok] >= lo[ok] - 1e-11).all()
        assert (later_max[ok] <= hi[ok] + 1e-11).all()


def test_is_irreducible():
    assert BinaryMatrix.all_ones(3).is_irreducible()
    assert not BinaryMatrix([[1, 0], [0, 1]]).is_irreducible()
    assert BinaryMatrix([[0, 1], [1, 0]]).is_irreducible()
    assert GOLDEN_MEAN.is_irreducible()


def test_is_primitive():
    assert not BinaryMatrix([[0, 1], [1, 0]]).is_primitive()  # period 2
    assert GOLDEN_MEAN.is_primitive()
    assert BinaryMatrix.all_ones(2).is_primitive()
    # 3-cycle: irreducible, not primitive
    C3 = BinaryMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert C3.is_irreducible() and not C3.is_primitive()


def test_primitive_implies_irreducible(rng):
    for _ in range(40):
        A = random_binary(rng, int(rng.integers(2, 6)))
        if A.is_primitive():
            assert A.is_irreducible()


@st.composite
def _binary_rows(draw):
    m = draw(st.integers(2, 9))
    density = draw(st.sampled_from([0.15, 0.3, 0.5, 0.8]))
    return [[int(draw(st.floats(0, 1)) < density) for _ in range(m)]
            for _ in range(m)]


@given(rows=_binary_rows())
@settings(max_examples=300, deadline=None)
def test_predicates_match_reference_loops(rows):
    A = BinaryMatrix(rows)
    assert A.is_irreducible() == reference_is_irreducible(A)
    assert A.is_primitive() == reference_is_primitive(A)


def test_primitive_needs_the_wielandt_bound():
    # the Wielandt matrix: its first positive power is m**2 - 2m + 2
    for m in range(2, 10):
        rows = [[int(j == i + 1) for j in range(m)] for i in range(m)]
        rows[m - 1][0] = rows[m - 2][0] = 1
        A = BinaryMatrix(rows)
        bound = m * m - 2 * m + 2
        assert not all(map(all, A.power(bound - 1)))
        assert all(map(all, A.power(bound)))
        assert A.is_primitive() and A.is_irreducible()


def test_row_sums_equal():
    assert BinaryMatrix.all_ones(3).row_sums_equal()
    assert not GOLDEN_MEAN.row_sums_equal()
    assert BinaryMatrix([[0, 1], [1, 0]]).row_sums_equal()


def test_from_string():
    assert BinaryMatrix.from_string("11;10") == GOLDEN_MEAN
    assert BinaryMatrix.from_string("11\n10") == GOLDEN_MEAN
    with pytest.raises(ValueError):
        BinaryMatrix.from_string("12;10")
    with pytest.raises(ValueError):
        BinaryMatrix.from_string("11;1")
    with pytest.raises(ValueError):
        BinaryMatrix.from_string("1")  # m >= 2
    with pytest.raises(ValueError):
        BinaryMatrix.from_string("")


def test_trace_power():
    # golden mean cycle counts: tr A = 1, tr A^2 = 3 (Lucas numbers)
    assert GOLDEN_MEAN.trace_power(1) == 1
    assert GOLDEN_MEAN.trace_power(2) == 3
    assert GOLDEN_MEAN.trace_power(3) == 4


def test_trace_power_random(rng):
    for _ in range(10):
        A = random_binary(rng, int(rng.integers(2, 7)))
        powers = naive_powers([list(r) for r in A.rows], 12)
        assert A.power(0) == tuple(tuple(r) for r in powers[0])
        for l in range(1, 13):
            assert A.trace_power(l) == sum(powers[l][i][i] for i in range(A.m))
            assert A.power(l) == tuple(tuple(r) for r in powers[l])


def test_concurrent_power_sum():
    want = naive_power_sums([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 50)
    A, B = (BinaryMatrix.from_string("110;011;101") for _ in range(2))
    with ThreadPoolExecutor(max_workers=8) as ex:
        sums = list(ex.map(A.power_sum, [50] * 16))
        lists = list(ex.map(B.power_sums, [51] * 16))
    assert sums == [want[50]] * 16
    assert lists == [want] * 16


def test_power_sum_thread_stress(rng):
    # no lock: threads extend snapshots of (l, u_l) and may publish them
    # out of order; every memoized sum must still be exact
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            A = random_binary(rng, 6)
            want = naive_power_sums([list(r) for r in A.rows], 120)
            ls = [int(l) for l in rng.integers(0, 121, size=64)]
            with ThreadPoolExecutor(max_workers=8) as ex:
                futures = [ex.submit(A.power_sum, l) for l in ls]
                lists = [ex.submit(A.power_sums, l + 1) for l in ls]
                got = [f.result(timeout=60) for f in futures]
                got_lists = [f.result(timeout=60) for f in lists]
            assert got == [want[l] for l in ls]
            assert got_lists == [want[:l + 1] for l in ls]
            assert [A.power_sum(l) for l in range(121)] == want
    finally:
        sys.setswitchinterval(old)
