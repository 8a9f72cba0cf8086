"""Metamorphic relations: two runs of the public API that must agree,
with no reference value to compute.

Dimensions, over ``REGION_TUPLES`` and Hypothesis-drawn primitive
matrices with m <= 4, each relation within the sum of the reported
errs:

* Kronecker product: dim(A⊗B)·ln(mk) = dim(A)·ln m + dim(B)·ln k for
  both dimensions, since |(A⊗B)^l| = |A^l|·|B^l| and the transfer sums
  and the fixed point factor the same way;
* transposition: dim_M(Aᵀ) = dim_M(A), since |A^l| = 1ᵀA^l1;
* relabelling: both dimensions are unchanged under PAPᵀ;
* inclusion: A ≤ B entrywise gives X_A ⊂ X_B, so dimensions no larger.

Densities: (α, β+α, γ, δ+γ) drops the first constraint and
(α, β+1, γ, δ+1) shifts every position by 1, so neither changes a limit
density or the region that names it.  The closed forms agree exactly;
the scans' head counts in [1, n] agree up to the heads the dropped
constraint or the window's edges move, a bound that holds at every n.
(Lind and Marcus, "An Introduction to Symbolic Dynamics and Coding",
1995, for products of shifts of finite type; Chen et al., "Metamorphic
Testing: A Review of Challenges and Opportunities", ACM Computing
Surveys 2018.)
"""

import math
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beattydim import (BinaryMatrix, ParamTuple, classify_region,
                       closed_form_d, empirical_densities, hausdorff_dim,
                       minkowski_dim)
from conftest import REGION_TUPLES

KEYS = sorted(REGION_TUPLES)


@st.composite
def _primitive(draw):
    """A primitive 0/1 matrix of size 2 to 4: the drawn matrix if it is
    primitive, else that matrix with a cycle through every state and a
    loop at state 0 added."""
    m = draw(st.integers(2, 4))
    bits = draw(st.lists(st.integers(0, 1), min_size=m * m, max_size=m * m))
    rows = [bits[i * m:(i + 1) * m] for i in range(m)]
    if not BinaryMatrix(rows).is_primitive():
        for i in range(m):
            rows[i][(i + 1) % m] = 1
        rows[0][0] = 1
    return BinaryMatrix(rows)


@cache
def _density(key):
    p = REGION_TUPLES[key]
    return closed_form_d(p, classify_region(p))


def _dims(key, A):
    """(dim_M, dim_H) of the tuple ``key`` with matrix A."""
    p, d = REGION_TUPLES[key], _density(key)
    return minkowski_dim(A, d, p), hausdorff_dim(A, d, p)


def _kronecker(A, B):
    return BinaryMatrix([a * b for a in ra for b in rb]
                        for ra in A.rows for rb in B.rows)


@pytest.mark.parametrize("key", KEYS)
@given(A=_primitive(), B=_primitive())
@settings(max_examples=10, deadline=None)
def test_kronecker_product_adds_the_scaled_dimensions(key, A, B):
    la, lb = math.log(A.m), math.log(B.m)
    for ab, a, b in zip(_dims(key, _kronecker(A, B)), _dims(key, A),
                        _dims(key, B)):
        want = (a.value * la + b.value * lb) / (la + lb)
        err = ab.err + (a.err * la + b.err * lb) / (la + lb)
        assert abs(ab.value - want) <= err, (ab, a, b)


@pytest.mark.parametrize("key", KEYS)
@given(A=_primitive())
@settings(max_examples=10, deadline=None)
def test_transposition_keeps_the_minkowski_dimension(key, A):
    m, _ = _dims(key, A)
    mt, _ = _dims(key, BinaryMatrix(zip(*A.rows)))
    assert abs(m.value - mt.value) <= m.err + mt.err


@pytest.mark.parametrize("key", KEYS)
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_relabelling_keeps_both_dimensions(key, data):
    A = data.draw(_primitive())
    perm = data.draw(st.permutations(range(A.m)))
    B = BinaryMatrix([[A.rows[i][j] for j in perm] for i in perm])
    for a, b in zip(_dims(key, A), _dims(key, B)):
        assert abs(a.value - b.value) <= a.err + b.err


@pytest.mark.parametrize("key", KEYS)
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_inclusion_gives_dimensions_no_larger(key, data):
    A = data.draw(_primitive())
    extra = data.draw(st.lists(st.integers(0, 1), min_size=A.m * A.m,
                               max_size=A.m * A.m))
    B = BinaryMatrix([[v | extra[i * A.m + j] for j, v in enumerate(r)]
                      for i, r in enumerate(A.rows)])
    for a, b in zip(_dims(key, A), _dims(key, B)):
        assert a.value <= b.value + a.err + b.err


# ---------------------------------------------------------------------------
# density re-indexing
# ---------------------------------------------------------------------------

REINDEX_TUPLES = {
    **REGION_TUPLES,
    "R2 shifted": ParamTuple("3/2", "1/3", "5/2", "-2/7"),
    "R2 shifted, coprime": ParamTuple("7/3", "-5/4", "11/2", "3/5"),
    "R3 shifted": ParamTuple("sqrt(2)", "1/2", "7/2", "-1/3"),
    "R3 surd shift": ParamTuple("1+sqrt(3)", "sqrt(3)/4", "9/2", 0),
    "R6Open": ParamTuple("sqrt(2)", 0, "3*sqrt(2)/2", "1/3"),
    "R6Open shifted": ParamTuple("sqrt(5)", "1/5", "3*sqrt(5)/2", 0),
}

# alpha = 5*sqrt(2), gamma/alpha = 3/2: condition (ii) holds with m = 3
# and {m(beta - delta)/alpha} = 1/2, but dropping the first constraint
# moves that fractional part by m(alpha - gamma)/alpha = -3/2, to 0, and
# the re-indexed tuple classifies as R6Open
CONDITION_II = ParamTuple("5*sqrt(2)", "5*sqrt(2)/6", "15*sqrt(2)/2", 0)


def _reindexed(p):
    return (ParamTuple(p.alpha, p.beta + p.alpha, p.gamma, p.delta + p.gamma),
            ParamTuple(p.alpha, p.beta + 1, p.gamma, p.delta + 1))


def _assert_same_densities(p):
    region = classify_region(p)
    for q in _reindexed(p):
        assert classify_region(q).id == region.id, q
        if not region.has_closed_form():
            continue
        d, e = closed_form_d(p, region), closed_form_d(q, region)
        assert d.finite == e.finite and d.d_inf == e.d_inf, q
        if region.id in ("R2", "R7", "R8", "R9", "R10"):
            assert all(type(v) is Fraction for v in (*d.finite, d.d_inf))


def test_reindex_tuples_cover_their_regions():
    for key, p in REINDEX_TUPLES.items():
        assert classify_region(p).id == key.split()[0], key


@pytest.mark.parametrize("key", sorted(REINDEX_TUPLES))
def test_reindexing_keeps_region_and_closed_form(key):
    _assert_same_densities(REINDEX_TUPLES[key])


@pytest.mark.xfail(strict=True, reason="condition (ii) is decided on the "
                   "given indexing of the shifts, so dropping the first "
                   "constraint can move a tuple from R5 to R6Open")
def test_reindexing_keeps_a_condition_ii_witness():
    assert classify_region(CONDITION_II).id == "R5"
    _assert_same_densities(CONDITION_II)


# ---------------------------------------------------------------------------
# scan re-indexing
# ---------------------------------------------------------------------------

SCAN_TUPLES = {
    **REGION_TUPLES,
    # the cross-field tuples of the scan benchmark: beta outside alpha's
    # field, gamma in a third one
    **{f"cross {t[0]} {t[1]}": ParamTuple(*t) for t in [
        ("sqrt(2)", "sqrt(3)", "sqrt(5)", "0"),
        ("sqrt(3)", "sqrt(2)", "sqrt(7)", "0"),
        ("sqrt(2)", "sqrt(5)", "sqrt(7)", "1/2"),
        ("sqrt(3)", "sqrt(5)", "sqrt(11)", "0"),
        ("sqrt(2)", "sqrt(7)", "sqrt(3)", "1/3"),
        ("sqrt(5)", "sqrt(2)", "sqrt(13)", "0"),
    ]},
}
SCAN_N = 10**5


def _head_counts(p):
    """The heads in [1, SCAN_N] per class 1 .. L, then the infinity
    candidates, from one scan."""
    d = empirical_densities(p, [(1, SCAN_N)])
    return [round(v * SCAN_N) for v in (*d.head, d.d_inf)]


def _gaps(c, e):
    """(largest gap in one class, summed gaps) of two ``_head_counts``."""
    size = max(len(c), len(e))
    c = c[:-1] + [0] * (size - len(c)) + c[-1:]
    e = e[:-1] + [0] * (size - len(e)) + e[-1:]
    gaps = [abs(x - y) for x, y in zip(c, e)]
    return max(gaps), sum(gaps)


@pytest.mark.parametrize("key", sorted(SCAN_TUPLES))
def test_reindexing_moves_scan_counts_by_edge_terms_only(key):
    # (α, β+α, γ, δ+γ) drops the first edge (u1, v1), v1 = f(u1), and
    # nothing else: the one chain through u1 splits, so its head takes a
    # class j <= c instead of c, and v1 becomes a head of class c - j
    # (or a class-1 position): at most 2 heads in one class, 3 in all.
    # (α, β+1, γ, δ+1) moves every chain up by 1, so the window [1, n]
    # reads [0, n - 1] of p: the position n leaves it, and one position
    # enters at the bottom: 0 itself, or the head of the one chain
    # through 0 (f is injective), which left N before.  At most 1 head
    # in one class, 2 in all.  Both maxima are reached over this set at
    # n = 2*10^4, 10^5 and 10^6, so neither bound can be tighter.
    p = SCAN_TUPLES[key]
    c = _head_counts(p)
    dropped = ParamTuple(p.alpha, p.beta + p.alpha, p.gamma, p.delta + p.gamma)
    moved = ParamTuple(p.alpha, p.beta + 1, p.gamma, p.delta + 1)
    one, total = _gaps(c, _head_counts(dropped))
    assert one <= 2 and total <= 3
    one, total = _gaps(c, _head_counts(moved))
    assert one <= 1 and total <= 2
