import math
import pathlib
import sys
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from beattydim import BinaryMatrix, ParamTuple  # noqa: E402
from beattydim.beatty import (  # noqa: E402
    LANE_BOUND, BeattyPair, _linear_form, member)
from beattydim.dims import _transfer_rows  # noqa: E402
from beattydim.numerics import (  # noqa: E402
    RADICAND_MAX, _SQRT_RE, QuadraticSurd, Rational, _add, _div, _mul, _neg,
    _parse_unsigned_rational, _reciprocal, _split_signed_terms, ceil_value,
    floor_linear, surd)


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
# isqrt-enclosure references for signs and floors
#
# A value is read off its tier's fields as terms c*sqrt(r), square-free
# r, and bracketed by isqrt at a precision that doubles until the bracket
# decides: no sign, floor or arithmetic of ``numerics`` takes part.  Like
# terms are collected first; a sum left with an irrational term is
# irrational (Besicovitch), never an integer, so every refinement ends.
# ---------------------------------------------------------------------------

def value_terms(x):
    """[(c, r)] with x = sum c*sqrt(r), from the fields of x's tier."""
    if isinstance(x, Rational):
        return [(x.value, 1)]
    if isinstance(x, QuadraticSurd):
        return [(x.a, 1), (x.b, x.d)]
    return [(c, r) for r, c in x.terms]


def terms_enclosure(terms, bits):
    """(lo, hi) around sum c*sqrt(r) from isqrt(r*4^bits); exact terms
    (r a square) add no width."""
    lo = hi = Fraction(0)
    for c, r in terms:
        root = isqrt(r << (2 * bits))
        r_lo = Fraction(root, 1 << bits)
        r_hi = r_lo if root * root == r << (2 * bits) else \
            Fraction(root + 1, 1 << bits)
        lo += min(c * r_lo, c * r_hi)
        hi += max(c * r_lo, c * r_hi)
    return lo, hi


def _collected(terms):
    out = {}
    for c, r in terms:
        out[r] = out.get(r, 0) + c
    return [(c, r) for r, c in out.items() if c]


def reference_sign(terms):
    terms = _collected(terms)
    bits = 64
    while True:
        lo, hi = terms_enclosure(terms, bits)
        if lo > 0 or hi < 0 or lo == hi:
            return (lo > 0) - (hi < 0)
        bits *= 2


def reference_floor(terms):
    terms = _collected(terms)
    bits = 64
    while True:
        lo, hi = terms_enclosure(terms, bits)
        if math.floor(lo) == math.floor(hi):
            return math.floor(lo)
        bits *= 2


def reference_floor_linear(tau, k, eta):
    """floor(tau*k + eta) by the enclosure reference."""
    return reference_floor([(c * k, r) for c, r in value_terms(tau)]
                           + value_terms(eta))


def reference_member(x, tau, eta):
    """The k >= 1 with floor(tau*k + eta) = x, or None, for tau >= 1: the
    reference floors of the k next to (x - eta)/tau, whose 128-bit
    enclosure quotient is within 1 of it."""
    t_lo, t_hi = terms_enclosure(value_terms(tau), 128)
    e_lo, _ = terms_enclosure(value_terms(eta), 128)
    k0 = math.floor((x - e_lo) / t_lo)
    for k in range(max(1, k0 - 2), k0 + 3):
        if reference_floor_linear(tau, k, eta) == x:
            return k
    return None


# ---------------------------------------------------------------------------
# Fraction references for the integer set-up of a tuple
#
# ``numerics`` takes surd signs, reciprocals and same-field products, and
# ``BeattyPair`` its inverse form, on integer numerators; ``parse_real``
# collects one coefficient per radicand.  These are the term-by-term
# Fraction formulas they replace, which the tests check them against.
# ---------------------------------------------------------------------------

def fraction_surd_sign(a, b, d):
    """Sign of a + b*sqrt(d), b != 0, from Fraction squares."""
    if a == 0:
        return 1 if b > 0 else -1
    if b > 0:
        if a > 0:
            return 1
        return 1 if b * b * d > a * a else -1
    if a < 0:
        return -1
    return 1 if a * a > b * b * d else -1


def fraction_reciprocal(x):
    """1/x for a Rational or QuadraticSurd x != 0, over the Fraction norm
    a^2 - b^2*d."""
    if isinstance(x, Rational):
        return Rational(1 / x.value)
    norm = x.a * x.a - x.b * x.b * x.d
    return surd(x.a / norm, -x.b / norm, x.d)


def fraction_surd_product(x, y):
    """x*y for QuadraticSurds of one radicand d, from Fraction products."""
    return surd(x.a * y.a + x.b * y.b * x.d, x.a * y.b + x.b * y.a, x.d)


def fraction_inverse_form(pair):
    """The linear form of x -> x*(1/tau) - eta/tau from the exact values
    1/tau and -eta/tau, each coefficient a Fraction."""
    inv = fraction_reciprocal(pair.tau)
    return _linear_form(inv, -(pair.eta * inv))


def _literal(text):
    """An unsigned number literal as a Fraction: ``_parse_unsigned_rational``
    validates it and raises the parser's errors, ``Fraction`` reads it."""
    _parse_unsigned_rational(text)
    return Fraction(text)


def fraction_parse_real(text):
    """``parse_real`` one term at a time: every term a normal value,
    ``_add``ed onto a running sum."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty parameter")
    total = Rational(Fraction(0))
    for sgn, term in _split_signed_terms(s):
        if not term:
            raise ValueError(f"dangling sign in {text!r}")
        m = _SQRT_RE.match(term)
        if m:
            coef = _literal(m.group(1)) if m.group(1) else Fraction(1)
            if m.group(3):
                if int(m.group(3)) == 0:
                    raise ValueError(f"zero denominator in {text!r}")
                coef /= int(m.group(3))
            radicand = int(m.group(2))
            if not 1 <= radicand <= RADICAND_MAX:
                raise ValueError(
                    f"radicand in {text!r} must lie in [1, {RADICAND_MAX}]")
            value = surd(0, sgn * coef, radicand)
        else:
            value = Rational(sgn * _literal(term))
        total = _add(total, value)
    return total


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


def scalar_constraint_edges(p, n, floor_linear_at=None):
    """constraint_edges(p, n) by one scalar exact floor per k and
    sequence: k from max(first_k) while floor(gamma*k + delta) <= n,
    keeping the pairs whose first coordinate is <= n as well.  The
    floors are the pairs' scalar ones, or floor_linear_at(tau, k, eta);
    then the start is checked with it too."""
    if n < 1:
        raise ValueError("window size must be >= 1")
    a, g = BeattyPair(p.alpha, p.beta), BeattyPair(p.gamma, p.delta)
    fa, fg = a.floor, g.floor
    if floor_linear_at is not None:
        def fa(k):
            return floor_linear_at(p.alpha, k, p.beta)

        def fg(k):
            return floor_linear_at(p.gamma, k, p.delta)
    edges, k = [], max(a.first_k, g.first_k)
    assert k == 1 or min(fa(k - 1), fg(k - 1)) < 1 <= min(fa(k), fg(k))
    while (v := fg(k)) <= n:
        u = fa(k)
        if u <= n:
            edges.append((u, v))
        k += 1
    return edges


def beatty_values(tau, eta, limit):
    """All values floor(tau*k + eta) for k >= 1 that land in [1, limit],
    by the pair's scalar floor from its first_k."""
    pair = BeattyPair(tau, eta)
    out, k = [], pair.first_k
    while (v := pair.floor(k)) <= limit:
        out.append(v)
        k += 1
    return out


def dij_row(p, i, d_i):
    """d_{i,j} for j = 1..i: the head density d_i split by how many chain
    elements land in [1, n]: a factor (alpha/gamma)^{j-1} - (alpha/gamma)^j
    for j < i and (alpha/gamma)^{i-1} for j = i (the window analysis of the
    pattern-count product); the row telescopes to d_i exactly."""
    if i == 1:
        return [d_i]
    if isinstance(p.ratio, Rational) and isinstance(d_i, Fraction):
        rho = Fraction(1) / p.ratio.value
    else:
        rho = 1.0 / float(p.ratio.approx())
        d_i = float(d_i)
    row = [d_i * (rho ** (j - 1) - rho ** j) for j in range(1, i)]
    row.append(d_i * rho ** (i - 1))
    return row


def first_k_at_reference(pair, x):
    """The first k >= 1 with floor(tau*k + eta) >= x, from a lower
    enclosure of (x - eta)/tau that carries the bits of the quotient's
    magnitude on top of 64, settled by stepping k up: a reference for
    ``BeattyPair.first_k_at`` that takes no inverse form."""
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


def reference_floats(d, N):
    """``DensityVector.floats`` as a scalar loop: the entries past L =
    max(K, len(head)) one power at a time, the suffix sums one addition
    at a time from the end.  The array version must agree to the last
    bit."""
    h, r, last = len(d.head), d.tail_ratio, d.head[-1]
    L = max(d.K, h)
    run = [float(v) for v in d.head]
    if h >= 2 and isinstance(r, Fraction) and isinstance(last, Fraction):
        num, den = last.numerator, last.denominator
        for _ in range(L - h):
            num *= r.numerator
            den *= r.denominator
            run.append(num / den)
    else:
        run += [d.entry_float(i) for i in range(h + 1, L + 1)]
    dv = run[:N]
    s = 0.0
    for v in run[N:]:
        s += v
    rho, dl = ((float(r), run[-1]) if r is not None and L >= 2
               else (0.0, 0.0))
    dv += [dl * rho ** (i - L) for i in range(L + 1, N + 1)]
    if dl > 0 and rho > 0:
        s += dl * rho ** (max(N, L) - L + 1) / (1.0 - rho)
    suffix = [0.0] * N
    for i in range(N - 1, -1, -1):
        suffix[i] = s
        s += dv[i]
    return dv, suffix


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


def transfer_sums(A, rho, N):
    """[T(2), ..., T(N)] with T(i) = sum(g_{i-1}) from g_0 = 1, read off
    ``dims._transfer_rows``, the recursion ``hausdorff_dim`` runs."""
    if N < 2:
        return []
    A_np = np.array(A.rows, dtype=float)
    return _transfer_rows(A_np, rho, np.ones(A.m), N - 1).sum(axis=1).tolist()


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
