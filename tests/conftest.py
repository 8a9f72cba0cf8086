import math
import pathlib
import sys
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from beattydim import BinaryMatrix, ParamTuple  # noqa: E402
from beattydim.beatty import LANE_BOUND, BeattyPair, member  # noqa: E402
from beattydim.dims import _mink_tail, _rho  # noqa: E402
from beattydim.numerics import (  # noqa: E402
    Rational, _add, _div, _mul, _neg, _reciprocal, ceil_value, floor_linear)


def random_binary(rng, m):
    while True:
        rows = rng.integers(0, 2, size=(m, m))
        if rows.sum() > 0:
            return BinaryMatrix(rows.tolist())


def random_irreducible(rng, m):
    while True:
        A = random_binary(rng, m)
        if A.is_irreducible():
            return A


def random_primitive(rng, m):
    while True:
        A = random_irreducible(rng, m)
        if A.is_primitive():
            return A


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# ---------------------------------------------------------------------------
# scalar references for the chain map and the constraint edges
# ---------------------------------------------------------------------------

class NotInDomain(ValueError):
    """f applied to a value outside S(alpha, beta)."""


class NonPositiveImage(ValueError):
    """floor(gamma*k + delta) < 1: the image falls outside N (possible
    for very negative delta at small k); such elements belong to the
    residual set of the decomposition."""


def f_map(x, p):
    """f(x) = floor(gamma*k + delta) for the unique k with
    floor(alpha*k + beta) = x, by the generic exact operations."""
    k = member(x, p.alpha, p.beta)
    if k is None:
        raise NotInDomain(f"{x} is not of the form floor(alpha*k + beta)")
    y = floor_linear(p.gamma, k, p.delta)
    if y < 1:
        raise NonPositiveImage(f"f({x}) = {y} falls outside the positive integers")
    return y


def scalar_constraint_edges(p, n):
    """constraint_edges(p, n) by one scalar exact floor per k and
    sequence: k from max(first_k) while floor(gamma*k + delta) <= n,
    keeping the pairs whose first coordinate is <= n as well."""
    if n < 1:
        raise ValueError("window size must be >= 1")
    a, g = BeattyPair(p.alpha, p.beta), BeattyPair(p.gamma, p.delta)
    edges, k = [], max(a.first_k, g.first_k)
    while (v := g.floor(k)) <= n:
        u = a.floor(k)
        if u <= n:
            edges.append((u, v))
        k += 1
    return edges


def first_k_at_reference(pair, x):
    """The first k >= 1 with floor(tau*k + eta) >= x, from a lower
    enclosure of (x - eta)/tau that carries the bits of the quotient's
    magnitude on top of 64, settled by stepping k up: the generic path
    of ``BeattyPair.first_k_at``."""
    q = _div(_add(Rational(Fraction(x)), _neg(pair.eta)), pair.tau)
    mag = max(map(abs, q.enclosure(16)))
    lo, _ = q.enclosure(64 + int(mag).bit_length())
    k = max(1, -((-lo.numerator) // lo.denominator))
    while pair.floor(k) < x:
        k += 1
    return k


def reference_chain_bound(p):
    """C = (gamma*(1 + |beta|) + alpha*|delta|) / (gamma - alpha), exact.

    f(y) lies in (F(y) - 1, F(y) + gamma/alpha) for the affine F(y) =
    (gamma/alpha)*(y - beta) + delta, whose fixed point c = (gamma*beta -
    alpha*delta)/(gamma - alpha) it moves away from by the factor
    gamma/alpha.  Summing the errors over l steps gives the growth
    sandwich (gamma/alpha)^l (x - C) < f^l(x) < (gamma/alpha)^l (x + C)
    with C = |c| + gamma/(gamma - alpha), so every head whose chain
    reaches [1, n] lies in [1, n + C].  The bound (1 + |beta| + |delta|)
    * alpha/(gamma - alpha) that decompose once scanned to misses heads
    when gamma*|beta| is large: (2, 1000, 5, -3/2) has the head 1170 with
    f(1170) = 423."""
    one = Rational(Fraction(1))
    top = _add(_mul(p.gamma, _add(one, abs(p.beta))), _mul(p.alpha, abs(p.delta)))
    return _div(top, _add(p.gamma, _neg(p.alpha)))


def _first_member_index(p, ys):
    """The index of the first member of S(alpha, beta) among ys, or None."""
    for y in ys:
        if y >= 1 and (k := member(y, p.alpha, p.beta)) is not None:
            return k
    return None


def assert_lane_guard_promise(p, guard):
    """The promise of ``chains._lane_guard``, from scalar exact floors:
    every member y <= guard of S(alpha, beta) has an index k < LANE_BOUND
    whose floor(gamma*k + delta) lies in (-LANE_BOUND, LANE_BOUND).  Both
    floors grow with k, so the first and the last such member decide it.
    Unless the guard is capped at LANE_BOUND, or is 0 because floor(gamma
    + delta) <= -LANE_BOUND, the first member above it breaks the promise.
    Consecutive members lie at most ceil(alpha) apart, so each is found
    within that many membership tests."""
    gap = ceil_value(p.alpha)
    y1 = floor_linear(p.alpha, 1, p.beta)
    first = y1 if y1 >= 1 else next(
        y for y in range(1, gap + 1) if member(y, p.alpha, p.beta))
    if guard >= first:
        lo = member(first, p.alpha, p.beta)
        hi = _first_member_index(p, range(guard, guard - gap - 1, -1))
        assert hi < LANE_BOUND
        assert floor_linear(p.gamma, lo, p.delta) > -LANE_BOUND
        assert floor_linear(p.gamma, hi, p.delta) < LANE_BOUND
    if guard == LANE_BOUND or (
            guard == 0
            and floor_linear(p.gamma, 1, p.delta) <= -LANE_BOUND):
        return
    above = max(guard + 1, first)
    k = _first_member_index(p, range(above, above + gap + 1))
    assert not (k < LANE_BOUND and -LANE_BOUND
                < floor_linear(p.gamma, k, p.delta) < LANE_BOUND)


# ---------------------------------------------------------------------------
# scalar references for the dimension series and the matrix predicates
# ---------------------------------------------------------------------------

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


def recursion_power_sums(A, N):
    """|A^0| .. |A^(N-1)| by the vector recursion u_l = A u_{l-1}, one
    exact integer step at a time."""
    u, out = [1] * A.m, []
    for _ in range(N):
        out.append(sum(u))
        u = [sum(u[j] for j in range(A.m) if row[j]) for row in A.rows]
    return out


def reference_minkowski_dim(A, d, p, eps=1e-10):
    """The scalar minkowski_dim loop: rho^{i-1} by repeated products, one
    weight and one log per term, summed left to right.  The array
    version must agree to the last bit."""
    rho = _rho(p)
    N = max(d.K, 8)
    while _mink_tail(N, rho) > eps / 2 and N < 200_000:
        N += max(8, N // 8)
    tail = _mink_tail(N, rho)
    sums = recursion_power_sums(A, N)
    logm = math.log(A.m)
    dinf = d.d_inf_float()
    dv, suffix = d.floats(N)
    total = 0.0
    rp = 1.0  # rho^{i-1}
    for i in range(1, N + 1):
        w = rp * dv[i - 1] + (rp - rp * rho) * (suffix[i - 1] + dinf)
        if w:
            total += w * (math.log(sums[i - 1]) / logm)
        rp *= rho
    return total, tail + 1e-13 * max(1, N)


def reference_suffix(d, i):
    """sum_{j>i} d_j from per-entry reads: the entries i+1 .. L, L =
    max(K, len(head)), one ``entry_float`` at a time, then past L the
    closed sum of the geometric law."""
    L = max(d.K, len(d.head))
    total = 0.0
    for j in range(i + 1, L + 1):
        total += d.entry_float(j)
    if d.tail_ratio is not None and len(d.head) >= 2:
        rho, dl = float(d.tail_ratio), d.entry_float(L)
        if dl > 0 and rho > 0:
            total += dl * rho ** (max(i, L) - L + 1) / (1.0 - rho)
    return total


def reference_transfer_sums(A, rho, N):
    """[T(2), ..., T(N)] by the step-at-a-time recursion g_1 = a^rho,
    g_k = (A g_{k-1})^rho, T(i) = sum(g_{i-1})."""
    A_np = np.array(A.rows, dtype=float)
    g = np.array(A.row_sums, dtype=float) ** rho
    out = []
    for _ in range(2, N + 1):
        out.append(float(np.sum(g)))
        g = (A_np @ g) ** rho
    return out


def reference_is_irreducible(A):
    """Warshall closure of the graph of A, all true."""
    m = A.m
    reach = [[bool(v) for v in row] for row in A.rows]
    for k in range(m):
        rk = reach[k]
        for i in range(m):
            if reach[i][k]:
                ri = reach[i]
                for j in range(m):
                    if rk[j]:
                        ri[j] = True
    return all(all(row) for row in reach)


def reference_is_primitive(A):
    """Some power A^k, k up to the Wielandt bound m**2 - 2m + 2, is
    entrywise positive; the powers are taken one product at a time."""
    m = A.m
    cur = [[bool(v) for v in row] for row in A.rows]
    for _ in range(m * m - 2 * m + 2):
        if all(all(row) for row in cur):
            return True
        nxt = [[False] * m for _ in range(m)]
        for i in range(m):
            for k in range(m):
                if cur[i][k]:
                    for j in range(m):
                        if A.rows[k][j]:
                            nxt[i][j] = True
        cur = nxt
    return False


def reference_condition_i(p, search_bound):
    """R5's condition (i) by the bounded search: n = 1 .. min(floor(alpha),
    search_bound), m = gamma (1 - n/alpha) where that is a positive
    integer, accepted where n beta/alpha + m delta/gamma is an integer.
    n < alpha holds for every witness, so a bound past floor(alpha)
    makes the search complete."""
    inv_a, inv_g = _reciprocal(p.alpha), _reciprocal(p.gamma)
    one = Rational(Fraction(1))
    for n in range(1, min(p.alpha.floor(), search_bound) + 1):
        z = _mul(p.gamma, _add(one, _neg(_mul(Rational(Fraction(n)), inv_a))))
        if not (isinstance(z, Rational) and z.value.denominator == 1
                and z.value >= 1):
            continue
        m = z.value.numerator
        w = _add(_mul(Rational(Fraction(n)), _mul(p.beta, inv_a)),
                 _mul(Rational(Fraction(m)), _mul(p.delta, inv_g)))
        if isinstance(w, Rational) and w.value.denominator == 1:
            return (n, m)
    return None


# representative tuples for every region with a closed form
REGION_TUPLES = {
    "R1": ParamTuple(1, 0, "sqrt(5)", 0),
    "R2": ParamTuple("3/2", 0, 3, 0),
    "R3": ParamTuple("sqrt(2)", 0, 3, 0),
    "R4": ParamTuple("sqrt(2)", 0, "sqrt(3)", 0),
    "R5": ParamTuple("sqrt(2)", 0, "2+sqrt(2)", 0),
    "R7": ParamTuple(1, 0, 2, 0),
    "R8": ParamTuple(2, 1, 4, 0),
    "R9": ParamTuple(2, 0, 4, 2),
    "R10": ParamTuple(2, 0, 3, 0),
}


# ---------------------------------------------------------------------------
# independent references for regions.rational_d
# ---------------------------------------------------------------------------

def integer_region_d(p, rid, K):
    """(d_1 .. d_K, d_inf) from the direct formulas of the all-integer
    regions R7..R10, written out independently of the residue count."""
    A, B = p.alpha.value.numerator, p.beta.value.numerator
    G, D = p.gamma.value.numerator, p.delta.value.numerator
    zero = Fraction(0)
    if rid == "R7":
        return (zero,) * K, 1 - Fraction(1, G)
    g0 = gcd(A, G)
    if rid == "R8":
        assert (B - D) % g0 != 0
        return (1 - Fraction(1, A) - Fraction(1, G), Fraction(1, A)) + (zero,) * (K - 2), zero
    a1, g1 = A // g0, G // g0
    d1 = 1 - Fraction(1, A) - Fraction(1, G) + Fraction(1, g0 * a1 * g1)
    if rid == "R9":
        return (d1,) + (zero,) * (K - 1), Fraction(g1 - 1, A * g1)
    assert rid == "R10"
    tail = tuple(Fraction((g1 - 1) * (a1 - 1), g1 * A * a1 ** (i - 1))
                 for i in range(2, K + 1))
    return (d1,) + tail, zero


def pairwise_rational_d(p, K):
    """(d_1 .. d_K, d_inf, ratio) for rational alpha = b/a, gamma = d/c by
    summing g_density over every pair of residues, complements included:
    b*d exact additions, the definition rather than the class count."""
    from beattydim import g_density, residue_set

    a, b = p.alpha.value.denominator, p.alpha.value.numerator
    c, d = p.gamma.value.denominator, p.gamma.value.numerator
    r_ab, r_cd = residue_set(a, b, p.beta), residue_set(c, d, p.delta)
    comp_ab, comp_cd = set(range(b)) - r_ab, set(range(d)) - r_cd

    def gsum(iset, jset):
        return sum((g_density(b, d, i, j) for i in iset for j in jset),
                   Fraction(0))

    d1 = gsum(comp_ab, comp_cd)
    entry = gsum(r_ab, comp_cd)
    stay = gsum(r_ab, r_cd)
    base = sum((g_density(1, d, 0, j) for j in r_cd), Fraction(0))
    ratio = stay / base
    exitp = (base - stay) / base
    finite = (d1,) + tuple(entry * ratio ** (i - 2) * exitp
                           for i in range(2, K + 1))
    return finite, entry if ratio == 1 else Fraction(0), ratio
