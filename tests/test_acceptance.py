"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the suite asserts every criterion at its stated tolerance.
"""

import math
import time
from fractions import Fraction

import numpy as np

from beattydim import (
    GOLDEN_MEAN,
    BinaryMatrix,
    ParamTuple,
    chain_product_count,
    classify_region,
    closed_form_d,
    count_patterns,
    decompose,
    empirical_densities,
    exhaustive_count,
    finite_scale_logcount,
    floor_linear,
    g_density,
    hausdorff_dim,
    member,
    minkowski_dim,
    rational_d,
    residue_set,
    t_phi,
)
from beattydim.numerics import as_real, compare, rational, surd
from conftest import (REGION_TUPLES, dij_row, integer_region_d,
                      random_irreducible, reference_chain_bound)


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_full_shift_normalization():
    t0 = time.time()
    worst = 0.0
    for m in (2, 3):
        J = BinaryMatrix.all_ones(m)
        for key, p in REGION_TUPLES.items():
            d = closed_form_d(p, classify_region(p))
            dm = minkowski_dim(J, d, p)
            dh = hausdorff_dim(J, d, p)
            worst = max(worst, abs(dm.value - 1), abs(dh.value - 1))
    report(1, "full shift has dim_M = dim_H = 1 for every closed-form region",
           worst < 1e-9, f"worst deviation {worst:.2e}, {time.time()-t0:.2f}s")


def _naive_entry_sums(rows, max_l):
    m = len(rows)
    sums = [m]
    cur = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(max_l):
        cur = [
            [sum(cur[i][k] * rows[k][j] for k in range(m)) for j in range(m)]
            for i in range(m)
        ]
        sums.append(sum(map(sum, cur)))
    return sums


def test_criterion_02_kps_specialization():
    t0 = time.time()
    p = REGION_TUPLES["R7"]  # (1, 0, 2, 0)
    d = closed_form_d(p, classify_region(p))
    dm = minkowski_dim(GOLDEN_MEAN, d, p)
    dh = hausdorff_dim(GOLDEN_MEAN, d, p)

    # (a) independently coded series (own matrix powers, own loop)
    q = 2
    sums = _naive_entry_sums([[1, 1], [1, 0]], 80)
    series = sum(
        (q - 1) ** 2 * math.log2(sums[i - 1]) / q ** (i + 1)
        for i in range(1, 81)
    )
    ok_a = abs(dm.value - series) < 1e-10

    # (b) bisection oracle for t^3 = t + 1
    lo, hi = 1.0, 2.0
    while hi - lo > 1e-14:
        mid = (lo + hi) / 2
        if mid**3 - mid - 1 > 0:
            hi = mid
        else:
            lo = mid
    t1 = (lo + hi) / 2
    want_h = 0.5 * math.log2(t1 * t1 + t1)
    ok_b = abs(dh.value - want_h) < 1e-9

    ok_c = dh.value < dm.value
    report(2, "KPS specialization (series, bisection root, strict gap)",
           ok_a and ok_b and ok_c,
           f"dim_M={dm.value:.12f} dim_H={dh.value:.12f}, {time.time()-t0:.2f}s")


def test_criterion_03_affine_closed_form():
    t0 = time.time()
    p = REGION_TUPLES["R8"]  # (2, 1, 4, 0)
    region = classify_region(p)
    d = closed_form_d(p, region)
    rng = np.random.default_rng(815)
    worst_h, worst_t = 0.0, 0.0
    for _ in range(25):
        A = random_irreducible(rng, int(rng.integers(2, 5)))
        got = hausdorff_dim(A, d, p).value
        want = (1 - 1 / 2 - 1 / 4
                + 0.5 * math.log(sum(a**0.5 for a in A.row_sums))
                / math.log(A.m))
        worst_h = max(worst_h, abs(got - want))
        tp = t_phi(A, 2, dij_row(p, 2, d.entry(2)))
        worst_t = max(worst_t, abs(tp - sum(a**0.5 for a in A.row_sums)))
    report(3, "affine closed form (region R8) on random irreducible matrices",
           worst_h < 1e-9 and worst_t < 1e-12,
           f"worst dim gap {worst_h:.2e}, worst t gap {worst_t:.2e}, "
           f"{time.time()-t0:.2f}s")


INTEGER_TUPLES = {
    "R7": [(1, 0, 2, 0), (1, 0, 3, 0), (1, 0, 5, 0), (1, 2, 4, 1), (1, -1, 3, 2)],
    "R8": [(2, 1, 4, 0), (4, 1, 6, 0), (6, 2, 9, 0), (4, 0, 6, 1), (6, 0, 10, 3)],
    "R9": [(2, 0, 4, 2), (3, 0, 6, 0), (2, 1, 6, 3), (4, 0, 8, 4), (5, 2, 10, 2)],
    "R10": [(2, 0, 3, 0), (4, 0, 6, 0), (6, 0, 9, 3), (4, 2, 10, 0), (9, 0, 12, 0)],
}


def test_criterion_04_integer_exactness():
    t0 = time.time()
    checked = 0
    for want_region, tuples in INTEGER_TUPLES.items():
        for tup in tuples:
            p = ParamTuple(*tup)
            region = classify_region(p)
            assert region.id == want_region, (tup, region)
            finite, d_inf = integer_region_d(p, region.id, 40)
            via_residues = rational_d(p, K=40)
            assert finite == via_residues.finite, tup
            assert d_inf == via_residues.d_inf, tup
            assert closed_form_d(p, region, K=40).finite == finite, tup
            assert all(isinstance(v, Fraction) for v in via_residues.finite)
            checked += 1
    report(4, "residue machinery = integer-region formulas, exact rationals",
           checked == 20, f"{checked} tuples, K=40, {time.time()-t0:.2f}s")


def test_criterion_05_empirical_convergence():
    t0 = time.time()
    n = 10**6
    worst = {}
    for key in ("R1", "R3", "R4", "R5", "R7", "R8", "R9", "R10"):
        p = REGION_TUPLES[key]
        closed = closed_form_d(p, classify_region(p))
        emp = empirical_densities(p, [(1, n)])
        gaps = [abs(emp.entry_float(i) - float(closed.entry(i)))
                for i in (1, 2, 3)]
        gaps.append(abs(emp.d_inf_float() - float(closed.d_inf)))
        worst[key] = max(gaps)
    bad = {k: v for k, v in worst.items() if v >= 5e-3}
    detail = " ".join(f"{k}={v:.1e}" for k, v in sorted(worst.items()))
    report(5, "empirical densities at n=1e6 match closed forms to 5e-3",
           not bad, f"{detail}, {time.time()-t0:.1f}s")


def test_criterion_06_oracle_equality():
    t0 = time.time()
    tuples = [
        REGION_TUPLES["R1"], REGION_TUPLES["R2"], REGION_TUPLES["R7"],
        REGION_TUPLES["R8"], REGION_TUPLES["R9"], REGION_TUPLES["R10"],
        REGION_TUPLES["R4"],
    ]
    m3 = BinaryMatrix.from_string("110;011;101")
    checked = 0
    for p in tuples:
        for n in list(range(1, 11)) + [14, 18, 22]:
            assert count_patterns(p, GOLDEN_MEAN, n).count == \
                exhaustive_count(p, GOLDEN_MEAN, n), (p, n)
            checked += 1
        for n in list(range(1, 7)) + [10, 14]:
            assert count_patterns(p, m3, n).count == \
                exhaustive_count(p, m3, n), (p, n, "m=3")
            checked += 1
    report(6, "graph oracle equals exhaustive enumeration (m=2 n<=22, m=3 n<=14)",
           checked == 7 * 21, f"{checked} instances, {time.time()-t0:.1f}s")


def test_criterion_07_chain_product_consistency():
    t0 = time.time()
    n = 10**4
    for key in ("R7", "R8", "R10"):
        p = REGION_TUPLES[key]
        dec = decompose(p, n)
        prod = chain_product_count(dec, GOLDEN_MEAN, p)
        graph = count_patterns(p, GOLDEN_MEAN, n).count
        assert prod == graph, key
    report(7, "chain-product count equals graph oracle exactly at n=1e4",
           True, f"R7/R8/R10, {time.time()-t0:.1f}s")


def test_criterion_08_finite_scale_growth():
    t0 = time.time()
    n = 10**5
    gaps = {}
    for key in ("R7", "R8"):
        p = REGION_TUPLES[key]
        d = closed_form_d(p, classify_region(p))
        dm = minkowski_dim(GOLDEN_MEAN, d, p).value
        fs = finite_scale_logcount(p, GOLDEN_MEAN, n)
        gaps[key] = abs(fs - dm)
    detail = " ".join(f"{k}={v:.1e}" for k, v in gaps.items())
    report(8, "finite-scale log-count at n=1e5 within 5e-3 of dim_M",
           all(v < 5e-3 for v in gaps.values()),
           f"{detail}, {time.time()-t0:.1f}s")


def test_criterion_09_coincidence_law():
    t0 = time.time()
    rng = np.random.default_rng(7011)
    reps = [REGION_TUPLES[k] for k in ("R7", "R8", "R10", "R5", "R3")]
    densities = [closed_form_d(p, classify_region(p)) for p in reps]
    violations = []
    for trial in range(200):
        m = int(rng.integers(2, 6))
        A = random_irreducible(rng, m)
        p = reps[trial % len(reps)]
        d = densities[trial % len(reps)]
        dm = minkowski_dim(A, d, p)
        dh = hausdorff_dim(A, d, p)
        equal = abs(dh.value - dm.value) < 1e-9
        if equal != A.row_sums_equal():
            violations.append((trial, A, dm.value, dh.value))
        if dh.value > dm.value + dm.err + dh.err:
            violations.append((trial, A, "dim_H above dim_M"))
    report(9, "dim_H = dim_M iff equal row sums; dim_H <= dim_M (200 matrices)",
           not violations, f"violations={violations[:2]}, {time.time()-t0:.1f}s")


def test_criterion_10_structural_properties():
    t0 = time.time()
    rng = np.random.default_rng(424242)

    # injectivity of k -> floor(tau*k + eta), rational and surd tau
    for _ in range(20):
        if rng.integers(2):
            tau = rational(int(rng.integers(1, 12)), int(rng.integers(1, 6)))
            if compare(tau, 1) < 0:
                tau = rational(1) + tau
        else:
            tau = surd(1, Fraction(int(rng.integers(1, 5)), 3),
                       int(rng.choice([2, 3, 5, 7])))
        eta = rational(int(rng.integers(-10, 10)), int(rng.integers(1, 7)))
        ks = rng.integers(1, 10_000, size=60)
        floors = {}
        for k in ks:
            v = floor_linear(tau, int(k), eta)
            if v in floors:
                assert floors[v] == int(k)
            floors[v] = int(k)

    # growth sandwich with exact arithmetic
    for key in ("R7", "R8", "R2", "R4"):
        p = REGION_TUPLES[key]
        for x0 in (1, 7, 50, 313):
            if member(x0, p.alpha, p.beta) is None:
                continue
            x, c = x0, reference_chain_bound(p)
            from conftest import f_map
            for l in range(0, 21):
                ratio_l = as_real(1)
                for _ in range(l):
                    ratio_l = ratio_l * p.ratio
                assert compare(ratio_l * (as_real(x0) - c), as_real(x)) < 0
                assert compare(as_real(x), ratio_l * (as_real(x0) + c)) < 0
                if member(x, p.alpha, p.beta) is None:
                    break
                x = f_map(x, p)

    # partition disjointness and residual sparsity
    for key, p in REGION_TUPLES.items():
        n = 20_000
        dec = decompose(p, n)
        covered = [x for c in dec.chains for x in c.elements] + list(dec.residual)
        assert sorted(covered) == list(range(1, n + 1)), key
        assert len(dec.residual) / n < 0.01, key
    for key in ("R7", "R8", "R10", "R2", "R1", "R3", "R4", "R5"):
        residual = decompose(REGION_TUPLES[key], 10**6).residual
        assert len(residual) / 10**6 < 0.01, key
    residual = decompose(REGION_TUPLES["R9"], 2 * 10**5).residual
    assert len(residual) / (2 * 10**5) < 0.01

    # g-density normalization over full residue grids
    for a in range(1, 31):
        for b in range(1, 31):
            g0 = math.gcd(a, b)
            total = sum(
                g_density(a, b, i, j) for i in range(a) for j in range(b)
                if (i - j) % g0 == 0
            )
            assert total == 1, (a, b)

    # residue-set size
    for _ in range(30):
        b = int(rng.integers(1, 40))
        a = int(rng.integers(1, b + 1))
        if math.gcd(a, b) != 1:
            continue
        beta = (
            rational(int(rng.integers(-15, 15)), int(rng.integers(1, 9)))
            if rng.integers(2)
            else surd(int(rng.integers(-3, 3)), Fraction(1, 2),
                      int(rng.choice([2, 3, 5])))
        )
        assert len(residue_set(a, b, beta)) == a

    report(10, "injectivity, growth sandwich, partition, g-normalization, "
               "residue sizes", True, f"{time.time()-t0:.1f}s")
