import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from beattydim import GOLDEN_MEAN, BinaryMatrix
from conftest import random_binary


def naive_power_sums(rows, max_l):
    """Independent oracle: literal repeated multiplication."""
    m = len(rows)
    out = [m]  # identity
    cur = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for _ in range(max_l):
        cur = [
            [sum(cur[i][k] * rows[k][j] for k in range(m)) for j in range(m)]
            for i in range(m)
        ]
        out.append(sum(map(sum, cur)))
    return out


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
    A = BinaryMatrix.from_string("110;011;101")
    with ThreadPoolExecutor(max_workers=8) as ex:
        results = list(ex.map(A.power_sum, [50] * 16))
    assert len(set(results)) == 1
    assert results[0] == naive_power_sums([list(r) for r in A.rows], 50)[50]


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
                got = [f.result(timeout=60) for f in futures]
            assert got == [want[l] for l in ls]
            assert [A.power_sum(l) for l in range(121)] == want
    finally:
        sys.setswitchinterval(old)
