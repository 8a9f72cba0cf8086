import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from beattydim import (
    GOLDEN_MEAN,
    BinaryMatrix,
    DensityVector,
    InvalidDensity,
    ParamTuple,
    classify_region,
    closed_form_d,
    count_patterns,
    dimension_report,
    dims_coincide,
    hausdorff_dim,
    minkowski_dim,
    solve_t,
    t_phi,
)
from beattydim import empirical_densities
from beattydim.chains import ClosedForm
from beattydim import dims
from beattydim.dims import (_bracketed_sum as bracketed_sum, _hausdorff_tail,
                            _log_map, _mink_tail, _rho)
from conftest import (REGION_TUPLES, dij_row, naive_power_sums,
                      random_irreducible, random_primitive,
                      recursion_power_sums, reference_floats,
                      reference_suffix, reference_transfer_sums,
                      transfer_sums)


# alpha/gamma = 21/22 and 11/12 with geometric d_i tails
SLOW_TAILS = [("21/20", 0, "11/10", 0), ("11/10", "1/3", "6/5", 0)]

# a primitive matrix with unequal row sums
MATRIX_8 = ("10011111;11011000;11110101;10110101;"
            "11111110;10110101;10101010;11000111")


def plastic_root(tol=1e-13):
    """Bisection oracle for the real root of t^3 = t + 1."""
    lo, hi = 1.0, 2.0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if mid**3 - mid - 1 > 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def test_solve_t_all_ones():
    for m in (2, 3, 4):
        for r in (2.0, 1.5, 3.0):
            sol = solve_t(BinaryMatrix.all_ones(m), r)
            want = m ** (1 / (r - 1))
            assert all(abs(t - want) < 1e-11 for t in sol.t)
            assert sol.residual < 1e-13


def test_solve_t_golden():
    sol = solve_t(GOLDEN_MEAN, 2.0)
    t1 = plastic_root()
    assert abs(sol.t[1] - t1) < 1e-11
    assert abs(sol.t[0] - t1 * t1) < 1e-11
    assert sol.residual < 1e-13


def test_solve_t_period_two():
    # irreducible but not primitive; the fixed point is still (1, 1)
    sol = solve_t(BinaryMatrix([[0, 1], [1, 0]]), 2.0)
    assert all(abs(t - 1) < 1e-11 for t in sol.t)


def test_solve_t_validation():
    with pytest.raises(ValueError):
        solve_t(GOLDEN_MEAN, 1.0)
    with pytest.raises(ValueError):
        solve_t(BinaryMatrix([[1, 1], [0, 0]]), 2.0)  # empty row


def _gauss(M, b):
    """Solve M x = b by Gaussian elimination with partial pivoting."""
    n = len(b)
    M = [row[:] + [v] for row, v in zip(M, b)]
    for c in range(n):
        piv = max(range(c, n), key=lambda i: abs(M[i][c]))
        M[c], M[piv] = M[piv], M[c]
        for i in range(c + 1, n):
            f = M[i][c] / M[c][c]
            if f:
                for j in range(c, n + 1):
                    M[i][j] -= f * M[c][j]
    x = [0] * n
    for i in range(n - 1, -1, -1):
        x[i] = (M[i][n] - sum(M[i][j] * x[j] for j in range(i + 1, n))) / M[i][i]
    return x


def decimal_log_total(A, r: str, t_float):
    """log sum(t*) to 40 digits, for t_i^r = sum_j A(i,j) t_j: Newton on
    u = log t for u = rho log(A e^u) in 50-digit decimals, one Gaussian
    elimination per step, started from the float solution."""
    rows = [[j for j, a in enumerate(row) if a] for row in A.rows]
    with localcontext() as ctx:
        ctx.prec = 50
        rho = 1 / Decimal(r)
        u = [Decimal(math.log(t)) for t in t_float]
        for _ in range(10):
            e = [x.exp() for x in u]
            s = [sum(e[j] for j in row) for row in rows]
            J = [[Decimal(i == j) for j in range(A.m)] for i in range(A.m)]
            for i, row in enumerate(rows):
                for j in row:
                    J[i][j] -= rho * e[j] / s[i]
            delta = _gauss(J, [rho * si.ln() - ui for si, ui in zip(s, u)])
            u = [ui + di for ui, di in zip(u, delta)]
            if max(abs(d) for d in delta) < Decimal("1e-45"):
                return sum(x.exp() for x in u).ln()
    raise AssertionError("decimal Newton did not settle")


@pytest.mark.parametrize("m", [2, 16, 64])
@pytest.mark.parametrize("r", ["1.01", "1.05", "1.1", "2"])
def test_solve_t_against_decimal_reference(rng, r, m):
    # the certificate bounds the error of log sum(t), and Newton needs
    # few steps even at gamma/alpha = 1.01, where the iterates reach e^400
    A = random_primitive(rng, m)
    sol = solve_t(A, Fraction(r))
    ref = decimal_log_total(A, r, sol.t)
    assert 0 < sol.residual < 1e-9
    assert abs(Decimal(sol.log_total) - ref) <= Decimal(sol.residual)
    assert abs(Decimal(math.log(sol.total())) - ref) <= Decimal(sol.residual)
    assert sol.iterations <= 20


@pytest.mark.parametrize("r", ["1.01", "2"])
def test_solve_t_swap_against_decimal_reference(r):
    A = BinaryMatrix([[0, 1], [1, 0]])
    sol = solve_t(A, Fraction(r))
    ref = decimal_log_total(A, r, sol.t)
    assert abs(Decimal(sol.log_total) - ref) <= Decimal(sol.residual)
    assert sol.iterations <= 20


def test_solve_t_accepts_the_exact_ratio():
    # the ParamTuple ratio, a Fraction and a float give one fixed point;
    # a ratio past the float range gives rho = 0 and t = 1
    p = ParamTuple(2, 0, 3, 0)
    a, b, c = (solve_t(GOLDEN_MEAN, r).t for r in (p.ratio, Fraction(3, 2), 1.5))
    assert a == b == c
    assert solve_t(GOLDEN_MEAN, 10**400).t == (1.0, 1.0)
    with pytest.raises(ValueError, match="must exceed 1"):
        solve_t(GOLDEN_MEAN, Fraction(1))
    # above 1 exactly, but alpha/gamma rounds to 1 in float64
    with pytest.raises(FloatingPointError, match="rounds to 1"):
        solve_t(GOLDEN_MEAN, Fraction(10**20 + 1, 10**20))


def test_t_phi_row_sum_power():
    p = ParamTuple(1, 0, 2, 0)  # alpha/gamma = 1/2
    row = dij_row(p, 2, 0.5)
    got = t_phi(GOLDEN_MEAN, 2, row)
    assert abs(got - (math.sqrt(2) + 1)) < 1e-12
    for m in (2, 3, 5):
        got = t_phi(BinaryMatrix.all_ones(m), 2, row)
        assert abs(got - m * m**0.5) < 1e-12
    # R10 with its closed-form d_2: T(2) = sum of a_j^(alpha/gamma)
    p = REGION_TUPLES["R10"]
    d = closed_form_d(p, classify_region(p))
    got = t_phi(GOLDEN_MEAN, 2, dij_row(p, 2, d.entry_float(2)))
    assert abs(got - sum(a ** (2 / 3) for a in GOLDEN_MEAN.row_sums)) < 1e-12


def test_t_phi_matches_power_sum_random(rng):
    # t_phi at i = 2 equals sum of a_j^(alpha/gamma) for any matrix
    p = ParamTuple(2, 1, 4, 0)
    rho = 0.5
    for _ in range(20):
        A = random_irreducible(rng, int(rng.integers(2, 5)))
        row = dij_row(p, 2, 0.25)
        want = sum(a**rho for a in A.row_sums)
        assert abs(t_phi(A, 2, row) - want) < 1e-12


def test_minkowski_full_shift_is_one():
    for m in (2, 3):
        J = BinaryMatrix.all_ones(m)
        for key, p in REGION_TUPLES.items():
            d = closed_form_d(p, classify_region(p))
            got = minkowski_dim(J, d, p)
            assert abs(got.value - 1.0) < 1e-9, (key, got)


def test_hausdorff_full_shift_is_one():
    for m in (2, 3):
        J = BinaryMatrix.all_ones(m)
        for key, p in REGION_TUPLES.items():
            d = closed_form_d(p, classify_region(p))
            got = hausdorff_dim(J, d, p)
            assert abs(got.value - 1.0) < 1e-9, (key, got)


def test_full_shift_slow_ratio():
    # ratio gamma/alpha = 9/8: the series needs hundreds of terms, and at
    # 1 + sqrt(2)/10000 Minkowski runs to its 200,000-term cap; the
    # weight identity must still hold to the reported bound
    for args, ms in ((("4/3", 0, "3/2", 0), (2, 3)),
                     ((1, 0, "1+sqrt(2)/10000", 0), (16,))):
        p = ParamTuple(*args)
        d = closed_form_d(p, classify_region(p))
        for m in ms:
            J = BinaryMatrix.all_ones(m)
            got = minkowski_dim(J, d, p)
            assert abs(got.value - 1.0) < 1e-9, (args, m)
            got_h = hausdorff_dim(J, d, p)
            assert abs(got_h.value - 1.0) < 1e-9, (args, m)


def test_minkowski_kps_series():
    # (1,0,q,0) specialization: (q-1)^2 sum log_m|A^{i-1}| / q^{i+1}
    p = REGION_TUPLES["R7"]
    d = closed_form_d(p, classify_region(p))
    got = minkowski_dim(GOLDEN_MEAN, d, p)
    q, s, i = 2, 0.0, 1
    while True:
        term = (q - 1) ** 2 * math.log2(GOLDEN_MEAN.power_sum(i - 1)) / q ** (i + 1)
        s += term
        i += 1
        if term < 1e-16 and i > 40:
            break
    assert abs(got.value - s) < 1e-10


def test_minkowski_truncation_stability():
    p = REGION_TUPLES["R7"]
    d = closed_form_d(p, classify_region(p))
    coarse = minkowski_dim(GOLDEN_MEAN, d, p, eps=1e-6)
    fine = minkowski_dim(GOLDEN_MEAN, d, p, eps=1e-12)
    assert abs(coarse.value - fine.value) <= coarse.err


def test_hausdorff_kps():
    p = REGION_TUPLES["R7"]
    d = closed_form_d(p, classify_region(p))
    got = hausdorff_dim(GOLDEN_MEAN, d, p)
    t1 = plastic_root()
    want = 0.5 * math.log2(t1 * t1 + t1)
    assert abs(got.value - want) < 1e-9


def test_hausdorff_affine_r8():
    # (2,1,4,0): 1 - 1/2 - 1/4 + (1/2) log_m sum a_i^(1/2)
    p = REGION_TUPLES["R8"]
    d = closed_form_d(p, classify_region(p))
    got = hausdorff_dim(GOLDEN_MEAN, d, p)
    want = 1 - 0.5 - 0.25 + 0.5 * math.log2(math.sqrt(2) + 1)
    assert abs(got.value - want) < 1e-9


def test_affine_specialization_cross_checks():
    # integer tuples admit independent closed forms structured around
    # q1 = gamma/(alpha,gamma); the general series must reproduce them
    A = GOLDEN_MEAN

    # (2,0,3,0): gcd 1, q1 = 3
    p = REGION_TUPLES["R10"]
    d = closed_form_d(p, classify_region(p))
    s = sum(math.log2(A.power_sum(i - 1)) / 3 ** (i + 1) for i in range(2, 60))
    want = 1 - 5 / 9 + 4 * s
    assert abs(minkowski_dim(A, d, p).value - want) < 1e-10

    # (2,0,4,2): gcd 2, q1 = 2
    p = REGION_TUPLES["R9"]
    d = closed_form_d(p, classify_region(p))
    s = sum(math.log2(A.power_sum(i - 1)) / 2 ** (i + 1) for i in range(2, 80))
    want = 1 - 3 / 8 + 0.5 * s
    assert abs(minkowski_dim(A, d, p).value - want) < 1e-10
    sol = solve_t(A, 2.0)
    want_h = 1 - 0.5 + 0.25 * math.log2(sum(sol.t))
    assert abs(hausdorff_dim(A, d, p).value - want_h) < 1e-9

    # (2,1,4,0): coprime-free shift gap case, dim_M = 1 - 2/q + log_m|A|/q
    p = REGION_TUPLES["R8"]
    d = closed_form_d(p, classify_region(p))
    want = 1 - 2 / 4 + math.log2(A.power_sum(1)) / 4
    assert abs(minkowski_dim(A, d, p).value - want) < 1e-10


def test_dims_coincide():
    assert dims_coincide(BinaryMatrix.all_ones(3))
    assert not dims_coincide(GOLDEN_MEAN)
    assert dims_coincide(BinaryMatrix([[0, 1], [1, 0]]))


def test_invalid_density():
    p = REGION_TUPLES["R7"]
    bad = DensityVector(head=(-0.2, 0.1), d_inf=0.5, K=2,
                        provenance=ClosedForm("R7"))
    with pytest.raises(InvalidDensity):
        minkowski_dim(GOLDEN_MEAN, bad, p)
    heavy = DensityVector(head=(0.9, 0.9), d_inf=0.5, K=2,
                          provenance=ClosedForm("R7"))
    with pytest.raises(InvalidDensity):
        hausdorff_dim(GOLDEN_MEAN, heavy, p)


def test_hausdorff_r10_series():
    # geometric d_i tail: the series must converge and sit below dim_M
    p = REGION_TUPLES["R10"]
    d = closed_form_d(p, classify_region(p))
    h = hausdorff_dim(GOLDEN_MEAN, d, p)
    m = minkowski_dim(GOLDEN_MEAN, d, p)
    assert h.value <= m.value + h.err + m.err
    assert 0 < h.value < 1


def test_dimension_report_closed():
    rep = dimension_report(REGION_TUPLES["R7"], GOLDEN_MEAN)
    assert rep.region.id == "R7"
    assert rep.coincide is False
    assert rep.dim_H.value < rep.dim_M.value
    payload = rep.to_json_dict()
    assert set(payload) >= {"region", "d", "dim_M", "dim_H", "coincide", "warnings"}


def test_retained_reports_stay_small():
    # a rational closed form stores (d_1, d_2), not K exact entries, so a
    # caller that keeps many reports keeps little
    p = ParamTuple("13/12", 0, "7/6", 0)
    A = BinaryMatrix([[1, 1], [1, 0]])
    dimension_report(p, A)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kept = [dimension_report(p, A) for _ in range(100)]
        per_report = (tracemalloc.get_traced_memory()[0] - base) / len(kept)
    finally:
        tracemalloc.stop()
    assert per_report < 1500


def test_dimension_report_open_region_falls_back():
    p = ParamTuple("sqrt(2)", 0, "3*sqrt(2)", 0)
    rep = dimension_report(p, GOLDEN_MEAN, n=20_000)
    assert rep.region.id == "R6Open"
    assert any("empirical" in w for w in rep.warnings)
    assert rep.dim_M is not None and rep.dim_H is not None


def test_dimension_report_warns_not_primitive():
    # d_inf > 0 with an irreducible but imprimitive matrix
    rep = dimension_report(REGION_TUPLES["R7"], BinaryMatrix([[0, 1], [1, 0]]))
    assert any("primitive" in w for w in rep.warnings)


# ---------------------------------------------------------------------------
# the two forward recursions against the loops they replaced
# ---------------------------------------------------------------------------

def reference_hausdorff(A, d, p, eps=1e-10):
    """The former hausdorff_dim loop: one t_phi call per class i with
    d_i > 0, on the exact d_{i,j} row, with entry reads per term."""
    N = d.K
    if d.beyond:
        N = max(N, max(d.beyond))
    elif d.tail_ratio is not None and float(d.tail_ratio) > 0.0:
        while _hausdorff_tail(d, N) > eps / 2 and N < 100_000:
            N += max(8, N // 8)
    logm = math.log(A.m)
    total = d.entry_float(1)
    for i in range(2, N + 1):
        di = d.entry_float(i)
        if di > 0.0:
            total += di * math.log(t_phi(A, i, dij_row(p, i, di))) / logm
    if d.d_inf_float() > 0.0:
        total += d.d_inf_float() * math.log(solve_t(A, p.ratio).total()) / logm
    return total


_NAIVE_SUMS = {}


def reference_minkowski(A, d, p, eps=1e-10):
    """An independent minkowski_dim loop: |A^{i-1}| from full matrix
    powers, rho from 1/float(ratio), entry and suffix reads per term."""
    rho = 1.0 / float(p.ratio.approx())
    N = max(d.K, 8)
    while _mink_tail(N, rho) > eps / 2 and N < 200_000:
        N += max(8, N // 8)
    sums = _NAIVE_SUMS.get(A)
    if sums is None or len(sums) < N:
        sums = _NAIVE_SUMS[A] = naive_power_sums([list(r) for r in A.rows], N)
    logm = math.log(A.m)
    dinf = d.d_inf_float()
    total, rp = 0.0, 1.0
    for i in range(1, N + 1):
        w = (rp * d.entry_float(i)
             + (rp - rp * rho) * (reference_suffix(d, i) + dinf))
        if w:
            total += w * math.log(sums[i - 1]) / logm
        rp *= rho
    return total


def _assert_series_match(A, d, p, label):
    # the series stop where a bracket closes their rest; the full-N
    # references lie within 1e-12 and within the reported err
    h, m = hausdorff_dim(A, d, p), minkowski_dim(A, d, p)
    gap_h = abs(h.value - reference_hausdorff(A, d, p))
    gap_m = abs(m.value - reference_minkowski(A, d, p))
    assert gap_h <= min(1e-12, h.err), (label, "H")
    assert gap_m <= min(1e-12, m.err), (label, "M")


@pytest.mark.parametrize("m", [2, 3, 8, 16])
def test_series_match_reference_loops(rng, m):
    A = random_primitive(rng, m)
    for key, p in REGION_TUPLES.items():
        d = closed_form_d(p, classify_region(p))
        _assert_series_match(A, d, p, (key, m))


@pytest.mark.parametrize("args", SLOW_TAILS)
def test_series_match_reference_loops_slow_tail(rng, args):
    p = ParamTuple(*args)
    d = closed_form_d(p, classify_region(p))
    assert d.tail_ratio is not None and d.entry_float(d.K) > 0.0
    for m in (2, 3):
        _assert_series_match(random_primitive(rng, m), d, p, (args, m))


def test_series_match_reference_loops_empirical_tail(rng):
    # R6Open: empirical only, classes past K measured in `beyond`, and
    # some classes below the largest one never seen (d_i = 0)
    p = ParamTuple("sqrt(2)", 0, "3/2*sqrt(2)", 0)
    d = empirical_densities(p, [(1, 20_000)], K=3)
    assert d.beyond and max(d.beyond) > 20
    assert any(i not in d.beyond for i in range(4, max(d.beyond)))
    for m in (2, 3, 8):
        _assert_series_match(random_primitive(rng, m), d, p, m)


def test_density_floats_match_entry_reads():
    # the one-pass read the series use, against per-term entry reads
    # and the per-entry suffix reference: closed-form, slow geometric and
    # measured tails
    for d in _float_read_cases():
        for N in (1, d.K, d.K + 1, 3 * d.K + 50):
            dv, suffix = d.floats(N)
            assert len(dv) == len(suffix) == N
            for i in range(1, N + 1):
                assert abs(dv[i - 1] - d.entry_float(i)) <= 1e-15, (d, i)
                assert abs(suffix[i - 1] - reference_suffix(d, i)) <= 1e-15, (
                    d, i)


def _float_read_cases():
    """Closed forms of every region, both slow geometric tails and a
    measured R6Open vector."""
    ds = [closed_form_d(p, classify_region(p)) for p in REGION_TUPLES.values()]
    for args in SLOW_TAILS:
        p = ParamTuple(*args)
        ds.append(closed_form_d(p, classify_region(p)))
    p = ParamTuple("sqrt(2)", 0, "3/2*sqrt(2)", 0)
    ds.append(empirical_densities(p, [(1, 20_000)], K=3))
    return ds


def test_density_floats_match_scalar_loop():
    # the array power and the cumulative sum take the float steps of the
    # loop they replaced, up to the 200,000-term cap of the series
    for d in _float_read_cases():
        for N in (1, d.K, d.K + 1, 3 * d.K + 50, 200_000):
            assert d.floats(N) == reference_floats(d, N), (d, N)


def test_shorter_read_is_a_prefix_of_a_longer_one():
    # a report reads the vector once, at the larger N; each series takes
    # d_1 .. d_N off that read, and Minkowski's suffix sums start at its
    # own N, as floats(N) takes them
    for d in _float_read_cases():
        L = max(d.K, len(d.head))
        for N in (1, d.K, d.K + 1, 3 * d.K + 50):
            dv, suffix = d.floats(N)
            for M in {max(N, L), max(N, L) + 37, 2 * N + 100}:
                longer = d.floats(M)[0]
                assert longer[:N] == dv, (d, N, M)
                assert d.suffix_sums(longer, N) == suffix, (d, N, M)


def test_hausdorff_terms_match_the_probe_loop():
    # the unreduced numerator and denominator of _hausdorff_terms give
    # the N and tail bound of one entry_float read per probe
    cases = _float_read_cases() + [
        DensityVector((Fraction(1, 2), Fraction(1, 6)), 0, 3,
                      ClosedForm("R7"), tail_ratio=Fraction(999, 1000)),
        DensityVector((Fraction(1, 2),), 0, 1, ClosedForm("R7"),
                      tail_ratio=Fraction(1, 3))]
    for d in cases:
        for eps in (1e-4, 1e-10, 1e-15):
            N = max(d.K, len(d.head))
            if d.tail_ratio is not None and float(d.tail_ratio) > 0.0:
                while _hausdorff_tail(d, N) > eps / 2 and N < 100_000:
                    N += max(8, N // 8)
            assert dims._hausdorff_terms(d, eps) == (
                N, _hausdorff_tail(d, N)), (d, eps)


# Hausdorff's N passes Minkowski's: two catalog tuples whose vectors
# end at K, and a slow geometric tail under a fast ratio, whose suffix
# sums past Minkowski's N are not zero
LONGER_HAUSDORFF = [
    (("sqrt(2)", 0, 3, 0), None),
    (("sqrt(2)", "sqrt(3)", "sqrt(5)", 0), None),
    ((1, 0, 10, 0), DensityVector((Fraction(2, 5), Fraction(1, 11)), 0, 2,
                                  ClosedForm("R1"),
                                  tail_ratio=Fraction(7, 9))),
]


@pytest.mark.parametrize("args,d", LONGER_HAUSDORFF)
def test_report_reads_the_vector_once(args, d, monkeypatch):
    # Minkowski reads its terms off a longer read than its own
    # floats(N), and its suffix sums start at its own N
    p = ParamTuple(*args)
    A = BinaryMatrix.from_string("110;011;101")
    if d is None:
        d = closed_form_d(p, classify_region(p))
    rho = _rho(p)
    NM = dims._minkowski_terms(d, rho, 1e-10)
    assert NM < dims._hausdorff_terms(d, 1e-10)[0]
    own = dims._minkowski(A, d, rho, *d.floats(NM))
    floats, reads = DensityVector.floats, []

    def spy(self, N):
        reads.append(N)
        return floats(self, N)

    monkeypatch.setattr(DensityVector, "floats", spy)
    dim_m, dim_h = dims._dimensions(A, d, p, 1e-10, mink=True, haus=True)
    assert len(reads) == 1
    assert dim_m == own and dim_m == minkowski_dim(A, d, p)
    assert dim_h == hausdorff_dim(A, d, p)
    if args[0] == "sqrt(2)":
        reads.clear()
        rep = dimension_report(p, A)
        assert len(reads) == 1
        assert (rep.dim_M, rep.dim_H) == (dim_m, dim_h)


def full_minkowski(A, d, p, eps=1e-10):
    """The Minkowski series summed term by term to its full N, with the
    logs of the exact |A^l| of the scalar vector recursion: O(m^2) big
    integer additions per term, not the O(m^3) products of
    ``naive_power_sums``."""
    rho = _rho(p)
    N = max(d.K, 8)
    while _mink_tail(N, rho) > eps / 2 and N < 200_000:
        N += max(8, N // 8)
    s = recursion_power_sums(A, N)
    logm, dinf = math.log(A.m), d.d_inf_float()
    dv, suffix = d.floats(N)
    total, rp = 0.0, 1.0
    for i in range(1, N + 1):
        w = rp * dv[i - 1] + (rp - rp * rho) * (suffix[i - 1] + dinf)
        if w:
            total += w * math.log(s[i - 1]) / logm
        rp *= rho
    return total


def log_space_hausdorff(A, d, p, eps=1e-10):
    """The Hausdorff series summed term by term to its full N through
    u_k = Phi(u_{k-1}) of ``_log_map`` from u_0 = 0, with
    log T(i) = logsumexp(u_{i-1}): no float leaves its range."""
    rho = _rho(p)
    N = max(d.K, len(d.head))
    if d.tail_ratio is not None and float(d.tail_ratio) > 0.0:
        while _hausdorff_tail(d, N) > eps / 2 and N < 100_000:
            N += max(8, N // 8)
    dv, _ = d.floats(N)
    logm = math.log(A.m)
    A_np = np.array(A.rows, dtype=bool)
    u = np.zeros(A.m)
    total = dv[0]
    for i in range(2, N + 1):
        u, _ = _log_map(A_np, rho, u)
        if dv[i - 1] > 0.0:
            top = float(np.max(u))
            lse = top + math.log(float(np.sum(np.exp(u - top))))
            total += dv[i - 1] * lse / logm
    if d.d_inf_float() > 0.0:
        total += d.d_inf_float() * solve_t(A, p.ratio).log_total / logm
    return total


def test_series_within_err_of_full_references_near_one():
    # alpha/gamma = 501/502: 22,261 Minkowski terms, and transfer sums
    # that would overflow a float long before the Hausdorff N
    A = BinaryMatrix.from_string(MATRIX_8)
    p = ParamTuple("501/500", 0, "251/250", 0)
    d = closed_form_d(p, classify_region(p))
    m, h = minkowski_dim(A, d, p), hausdorff_dim(A, d, p)
    ref_m = full_minkowski(A, d, p)
    ref_h = log_space_hausdorff(A, d, p)
    assert abs(m.value - ref_m) <= m.err
    assert abs(h.value - ref_h) <= h.err
    assert abs(ref_h - 0.8023567432684916) <= 1e-13


def _closing_half_widths(monkeypatch, A, d, p):
    """The half-widths of the brackets that close the Minkowski and the
    Hausdorff series, in natural log."""
    seen = []

    def spy(*args):
        seen.append(bracketed_sum(*args))
        return seen[-1]

    monkeypatch.setattr(dims, "_bracketed_sum", spy)
    minkowski_dim(A, d, p)
    hausdorff_dim(A, d, p)
    monkeypatch.undo()
    return [half for _, half in seen]


def test_brackets_keep_their_rounding(monkeypatch):
    # near alpha/gamma = 1 the float increments of log g_k agree to a few
    # ulps within 30 steps, and with equal row sums both float spreads
    # are exactly 0 from the start: the closing brackets still have the
    # width of their rounding, and it enters err
    p = ParamTuple("501/500", 0, "251/250", 0)
    d = closed_form_d(p, classify_region(p))
    A = BinaryMatrix.from_string(MATRIX_8)
    for half in _closing_half_widths(monkeypatch, A, d, p):
        assert 0.0 < half < dims.BRACKET_TOL * math.log(8)
    J = BinaryMatrix.all_ones(3)
    for q in (p, REGION_TUPLES["R10"]):
        dq = closed_form_d(q, classify_region(q))
        for half in _closing_half_widths(monkeypatch, J, dq, q):
            assert 0.0 < half < dims.BRACKET_TOL * math.log(3)
        # with the brackets off the same series run to N without them
        m, h = minkowski_dim(J, dq, q), hausdorff_dim(J, dq, q)
        monkeypatch.setattr(dims, "BRACKET_TOL", 0.0)
        assert minkowski_dim(J, dq, q).err < m.err
        assert hausdorff_dim(J, dq, q).err < h.err
        monkeypatch.undo()


def test_transfer_sums_match_t_phi(rng):
    # every d_{i,j} row makes each t_phi exponent alpha/gamma, so one
    # recursion gives T(i) for all i; checked on float and exact rows
    cases = [(ParamTuple(1, 0, 2, 0), Fraction(1, 3)),
             (ParamTuple("sqrt(2)", 0, "sqrt(3)", 0), 0.3),
             (ParamTuple("21/20", 0, "11/10", 0), Fraction(1, 7)),
             (ParamTuple(2, 0, 5, 1), 0.05)]
    for p, di in cases:
        rho = 1.0 / float(p.ratio.approx())
        for m in (2, 3, 8):
            A = random_irreducible(rng, m)
            T = transfer_sums(A, rho, 60)
            assert len(T) == 59
            for i in range(2, 61):
                ref = t_phi(A, i, dij_row(p, i, di))
                assert abs(math.log(ref) - math.log(T[i - 2])) <= 1e-12, (p, m, i)


@pytest.mark.parametrize("m", [2, 3, 8, 12, 16])
def test_transfer_sums_match_reference_loop(rng, m):
    # the array recursion takes the same float steps as the scalar loop
    A = random_irreducible(rng, m)
    for rho in (0.5, 2 / 3, 20 / 21, 1 / 1.3, 0.0):
        for N in (0, 1, 2, 3, 17, 600):
            assert transfer_sums(A, rho, N) == reference_transfer_sums(A, rho, N)


def test_minkowski_nilpotent_matrix():
    # |A^l| = 0 from l = m on: a term of weight there has no log
    p = REGION_TUPLES["R7"]
    d = closed_form_d(p, classify_region(p))
    for text, m in (("01;00", 2), ("010;001;000", 3)):
        with pytest.raises(ValueError, match=f"nilpotent: .* l >= {m}"):
            minkowski_dim(BinaryMatrix.from_string(text), d, p)
    # weight only where |A^l| > 0: the zero sums take no log
    first = DensityVector(head=(1, 0), d_inf=0, K=2,
                          provenance=ClosedForm("R7"))
    assert minkowski_dim(BinaryMatrix.from_string("01;00"), first, p).value == 1.0


def test_hausdorff_empty_row():
    # a class i >= 2 with mass needs T(i), which needs every row nonempty
    A = BinaryMatrix([[1, 1], [0, 0]])
    p = REGION_TUPLES["R10"]
    d = closed_form_d(p, classify_region(p))
    with pytest.raises(ValueError, match="matrix has an empty row"):
        hausdorff_dim(A, d, p)
    late = DensityVector(head=(0.5, 0.0, 0.0, 0.25), d_inf=0, K=4,
                         provenance=ClosedForm("R7"))
    with pytest.raises(ValueError, match="matrix has an empty row"):
        hausdorff_dim(A, late, p)
    # d_1 alone needs no transfer sum; d_inf alone needs the fixed point
    first = DensityVector(head=(1, 0), d_inf=0, K=2,
                          provenance=ClosedForm("R7"))
    assert hausdorff_dim(A, first, p).value == 1.0
    only_inf = DensityVector(head=(0.5, 0), d_inf=0.5, K=2,
                             provenance=ClosedForm("R7"))
    with pytest.raises(ValueError, match="no positive fixed point"):
        hausdorff_dim(A, only_inf, p)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="an empty shift (f(1) = 1 and trace(A) = 0) is not "
                   "detected: dimension_report prints positive dimensions "
                   "without a warning")
def test_empty_shift_is_reported():
    # 1 = f(1) is a cycle of length 1, and trace(A) = 0 admits no word on
    # it, so no word of any length is admissible
    p = ParamTuple(1, 0, "21/20", 0)
    A = BinaryMatrix.from_string("011;001;110")
    counts = [count_patterns(p, A, n).count for n in (1, 2, 10, 100)]
    if any(counts):
        pytest.fail(f"the shift is not empty: {counts}")
    try:
        rep = dimension_report(p, A)
    except ValueError:
        return
    assert rep.warnings
