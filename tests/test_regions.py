import random
import time
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from beattydim import (
    DEFAULT_K,
    ClosedForm,
    NoClosedForm,
    NotRational,
    ParamTuple,
    classify_region,
    closed_form_d,
    empirical_densities,
    g_density,
    rational_d,
    region_report,
    residue_set,
)
from beattydim.numerics import (QuadraticSurd, _add, _div, _mul, as_real,
                                compare, parse_real, rational, surd)
from beattydim import regions
from beattydim.regions import _condition_i, digits
from conftest import (REGION_TUPLES, integer_region_d, pairwise_rational_d,
                      reference_condition_i, reference_floor, value_terms)


def test_residue_set_examples():
    assert residue_set(1, 2, 0) == {0}
    assert residue_set(2, 3, 0) == {0, 1}
    assert residue_set(2, 3, rational(1, 2)) == {0, 2}  # floor(1/2), floor(2)


def test_residue_set_size_invariant(rng):
    for _ in range(40):
        b = int(rng.integers(1, 30))
        a = int(rng.integers(1, b + 1))
        if gcd(a, b) != 1:
            continue
        beta = Fraction(int(rng.integers(-20, 20)), int(rng.integers(1, 9)))
        assert len(residue_set(a, b, rational(beta))) == a
    # surd shifts work too
    assert len(residue_set(3, 7, surd(0, 1, 2))) == 3


def residue_set_reference(a, b, beta):
    """residue_set with one isqrt-enclosure reference floor per residue."""
    terms = value_terms(as_real(beta))
    return frozenset(reference_floor(terms + [(Fraction(b * h, a), 1)]) % b
                     for h in range(a))


def test_residue_set_matches_generic_floors():
    # rational shifts take integer floors, surd shifts one isqrt each,
    # and a shift of two radicands the generic exact path
    rng = random.Random(20261018)
    checked = 0
    while checked < 60:
        b = rng.randint(1, 40)
        a = rng.randint(1, b)
        if gcd(a, b) != 1:
            continue
        q = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
        shifts = [
            rational(q),
            surd(q, Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)),
                 rng.choice([2, 3, 5, 7])),
            _add(surd(0, rng.choice([-1, 1]), 2), surd(q, 1, 3)),
        ]
        for beta in shifts:
            assert residue_set(a, b, beta) == residue_set_reference(a, b, beta)
        checked += 1


def test_g_density_examples():
    assert g_density(2, 3, 0, 1) == Fraction(1, 6)
    assert g_density(4, 6, 1, 2) == 0
    assert g_density(4, 6, 0, 2) == Fraction(1, 12)


def test_g_density_normalization():
    for a in range(1, 31, 3):
        for b in range(1, 31, 4):
            total = sum(
                g_density(a, b, i, j) for i in range(a) for j in range(b)
            )
            assert total == 1


def test_residue_mass_is_inverse_alpha(rng):
    # sum over the residue set of g(b,1,i,0) = a/b = 1/alpha
    for _ in range(20):
        b = int(rng.integers(2, 25))
        a = int(rng.integers(1, b))
        if gcd(a, b) != 1:
            continue
        r = residue_set(a, b, rational(int(rng.integers(-5, 5))))
        assert sum(g_density(b, 1, i, 0) for i in r) == Fraction(a, b)


def test_classify_region_examples():
    cases = {
        (1, 0, 2, 0): "R7",
        (2, 1, 4, 0): "R8",
        (2, 0, 4, 2): "R9",
        (2, 0, 3, 0): "R10",
        (2, 0, 3, 1): "R10",  # gcd 1 divides everything
        ("3/2", 0, 3, 0): "R2",
        (1, 0, "sqrt(5)", 0): "R1",
        (1, "1/2", "5/2", 0): "R1",
        ("sqrt(2)", 0, 3, 0): "R3",
        ("sqrt(2)", 0, "sqrt(3)", 0): "R4",
        ("sqrt(2)", 0, "2+sqrt(2)", 0): "R5",       # condition (i): Rayleigh pair
        ("sqrt(2)", 0, "3*sqrt(2)", 0): "R6Open",   # dependent, no witness
        ("3/2", 0, "sqrt(3)", 0): "Unknown",        # mixed rational/irrational
    }
    for tup, want in cases.items():
        got = classify_region(ParamTuple(*tup))
        assert got.id == want, (tup, got)


def test_classify_condition_ii():
    # gamma/alpha = 3/2 with {m(beta-delta)/alpha} = 1/2 inside [m/alpha, 1-m/alpha]
    p = ParamTuple(surd(0, 5, 2), surd(0, Fraction(5, 6), 2), surd(0, Fraction(15, 2), 2), 0)
    r = classify_region(p)
    assert r.id == "R5" and "condition (ii)" in r.certificate


# integers up to 10^4, spread over the scales so that the reference
# search (up to floor(alpha) steps) stays short on most draws
SCALED_INT = st.integers(min_value=0, max_value=13).flatmap(
    lambda e: st.integers(min_value=2 ** e, max_value=min(2 ** (e + 1), 9_999)))
SMALL_Q = st.fractions(min_value=-6, max_value=6, max_denominator=7)
RADICAND = st.sampled_from([2, 3, 5, 7, 13])


def _surd_or_rational(draw, D):
    """A shift: rational, or in the field Q(sqrt D)."""
    return surd(draw(SMALL_Q), draw(SMALL_Q), D) if draw(st.booleans()) \
        else rational(draw(SMALL_Q))


@st.composite
def same_field_tuples(draw):
    """alpha <= 10^4 and gamma > alpha in one field Q(sqrt D), rational
    or same-field shifts: condition (i) rarely holds on these."""
    D = draw(RADICAND)
    alpha = surd(draw(SCALED_INT) + draw(SMALL_Q), draw(SMALL_Q), D)
    gamma = _add(alpha, surd(draw(SCALED_INT), draw(SMALL_Q), D))
    assume(isinstance(alpha, QuadraticSurd) and isinstance(gamma, QuadraticSurd))
    assume(compare(alpha, 1) >= 0 and compare(alpha, 10_000) <= 0)
    assume(compare(alpha, gamma) < 0)
    return ParamTuple(alpha, _surd_or_rational(draw, D), gamma,
                      _surd_or_rational(draw, D))


@st.composite
def witness_tuples(draw):
    """(p, witness) with n/alpha + m/gamma = 1: alpha = n + s with s in
    (0, m), gamma = m alpha/(alpha - n) > alpha.  The shifts make
    n beta/alpha + m delta/gamma an integer, witness (n, m), unless a
    rational offset is added to beta, which makes it irrational, witness
    None."""
    D = draw(RADICAND)
    n = draw(SCALED_INT)
    m = draw(st.integers(min_value=1, max_value=60))
    s = surd(draw(st.fractions(min_value=0, max_value=m, max_denominator=9)),
             draw(SMALL_Q), D)
    assume(isinstance(s, QuadraticSurd))
    assume(compare(s, 0) > 0 and compare(s, m) < 0 and compare(s, 10_000 - n) <= 0)
    alpha = _add(rational(n), s)
    gamma = _div(_mul(rational(m), alpha), s)
    offset = draw(st.sampled_from([0, 0, Fraction(1, 2)]))
    beta = _add(_div(_mul(rational(draw(st.integers(-3, 3))), alpha), rational(n)),
                rational(offset))
    delta = _div(_mul(rational(draw(st.integers(-3, 3))), gamma), rational(m))
    return ParamTuple(alpha, beta, gamma, delta), None if offset else (n, m)


@given(p=same_field_tuples())
@settings(max_examples=60, deadline=None)
def test_condition_i_solve_matches_search(p):
    assert _condition_i(p) == reference_condition_i(p, 10_000)


@given(case=witness_tuples())
@settings(max_examples=60, deadline=None)
def test_condition_i_solve_finds_constructed_witnesses(case):
    p, witness = case
    assert _condition_i(p) == witness
    assert reference_condition_i(p, 10_000) == witness


def test_condition_i_on_region_tuples():
    same_field = [p for p in (*REGION_TUPLES.values(),
                              ParamTuple("sqrt(2)", 0, "3*sqrt(2)", 0),
                              ParamTuple("sqrt(2)", 0, "2*sqrt(2)", 0))
                  if isinstance(p.alpha, QuadraticSurd)
                  and isinstance(p.gamma, QuadraticSurd)
                  and p.alpha.d == p.gamma.d]
    assert len(same_field) == 3
    for p in same_field:
        assert _condition_i(p) == reference_condition_i(p, 10_000)
    assert _condition_i(REGION_TUPLES["R5"]) == (1, 1)  # Rayleigh pair


def test_condition_i_witness_past_a_search_bound():
    # n = 10001: a search over n <= 10^4 misses this witness
    p = ParamTuple("10002+sqrt(2)", 0, "30003*sqrt(2)-30000", 0)
    start = time.perf_counter()
    r = classify_region(p)
    assert time.perf_counter() - start < 0.1
    assert r.id == "R5"
    assert r.certificate == ("dependent irrationals; condition (i) witness "
                             "n=10001, m=3")
    assert reference_condition_i(p, 20_000) == (10_001, 3)


def test_q_independent():
    from beattydim import q_independent

    assert q_independent(surd(0, 1, 2), surd(0, 1, 3))
    assert q_independent(surd(1, 2, 5), surd(0, 1, 7))
    assert not q_independent(surd(0, 1, 2), surd(2, 1, 2))  # shared radicand
    assert not q_independent(rational(3, 2), surd(0, 1, 2))  # rational member

    # two radicands: the independence test covers single fields only
    two = parse_real("sqrt(2)+sqrt(3)")
    with pytest.raises(ValueError):
        q_independent(two, two)


def test_classify_multi_radicand_unknown():
    # any parameter of two or more radicands keeps the tuple Unknown
    for tup in [
        ("sqrt(2)+sqrt(3)", 0, "sqrt(5)+sqrt(7)", 0),
        ("sqrt(2)+sqrt(3)", 0, "2*sqrt(2)+2*sqrt(3)", 0),  # gamma = 2*alpha
        (1, 0, "sqrt(2)+sqrt(3)", 0),
        ("sqrt(2)", "sqrt(3)+sqrt(5)", "sqrt(3)", 0),  # a two-radicand shift
    ]:
        r = classify_region(ParamTuple(*tup))
        assert r.id == "Unknown", tup
        assert "two or more distinct radicands" in r.certificate


@given(
    an=st.integers(min_value=1, max_value=12),
    ad=st.integers(min_value=1, max_value=6),
    gn=st.integers(min_value=1, max_value=30),
    gd=st.integers(min_value=1, max_value=6),
    be=st.fractions(min_value=-3, max_value=3),
    de=st.fractions(min_value=-3, max_value=3),
    da=st.sampled_from([0, 2, 3, 5]),
    dg=st.sampled_from([0, 2, 3, 5]),
)
@settings(max_examples=150, deadline=None)
def test_classifier_totality(an, ad, gn, gd, be, de, da, dg):
    alpha = surd(Fraction(an, ad), Fraction(1, 2), da) if da else rational(Fraction(an, ad))
    gamma = surd(Fraction(gn, gd), Fraction(1, 3), dg) if dg else rational(Fraction(gn, gd))
    try:
        p = ParamTuple(alpha, be, gamma, de)
    except ValueError:
        return  # violates 1 <= alpha < gamma
    rid = classify_region(p)
    assert rid.id in {
        "R1", "R2", "R3", "R4", "R5", "R6Open", "R7", "R8", "R9", "R10", "Unknown"
    }


def test_rational_d_examples():
    # integer tuple (1, 0, gamma, 0) -> (0, .., 1 - 1/gamma)
    d = rational_d(ParamTuple(1, 0, 5, 0))
    assert all(v == 0 for v in d.finite)
    assert d.d_inf == Fraction(4, 5)
    # (2, 0, 4, 2) -> (1/2, 0, .., 1/4), the ratio = 1 branch
    d = rational_d(ParamTuple(2, 0, 4, 2))
    assert d.finite[0] == Fraction(1, 2)
    assert all(v == 0 for v in d.finite[1:])
    assert d.d_inf == Fraction(1, 4)
    # (3/2, 0, 3, 0): every chain head survives forever
    d = rational_d(ParamTuple("3/2", 0, 3, 0))
    assert d.finite[0] == Fraction(1, 3)
    assert all(v == 0 for v in d.finite[1:])
    assert d.d_inf == Fraction(1, 3)
    with pytest.raises(NotRational):
        rational_d(ParamTuple("sqrt(2)", 0, 3, 0))


def test_rational_d_vs_empirical():
    p = ParamTuple("3/2", 0, 3, 0)
    d = rational_d(p)
    emp = empirical_densities(p, [(1, 100_000)])
    assert abs(emp.entry_float(1) - float(d.finite[0])) < 5e-3
    assert abs(emp.d_inf_float() - float(d.d_inf)) < 5e-3


def test_rational_d_matches_corollary_exactly():
    # the residue count and the integer-region formulas (written out in
    # conftest) must agree entry-by-entry as exact rationals;
    # closed_form_d serves the count under the region's provenance
    for tup in [(1, 0, 2, 0), (2, 1, 4, 0), (2, 0, 4, 2), (2, 0, 3, 0),
                (1, -1, 3, 2), (6, 0, 9, 3)]:
        p = ParamTuple(*tup)
        r = classify_region(p)
        finite, d_inf = integer_region_d(p, r.id, DEFAULT_K)
        via_residues = rational_d(p)
        assert via_residues.finite == finite, tup
        assert via_residues.d_inf == d_inf, tup
        assert closed_form_d(p, r) == replace(
            via_residues, provenance=ClosedForm(r.id))


def _shift(rng):
    kind = int(rng.integers(3))
    if kind == 0:
        return rational(int(rng.integers(-9, 10)))
    if kind == 1:
        return rational(int(rng.integers(-30, 31)), int(rng.integers(1, 10)))
    return surd(Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))),
                Fraction(int(rng.integers(1, 4)), int(rng.integers(1, 6))),
                int(rng.choice([2, 3, 5, 7])))


def test_rational_d_matches_pairwise_sum(rng):
    # the class count mod gcd(b, d) against the b*d double sum over every
    # residue pair, on random alpha = b/a <= 40, gamma = d/c <= 60
    checked = 0
    while checked < 150:
        b = int(rng.integers(1, 41))
        d = int(rng.integers(2, 61))
        alpha = Fraction(b, int(rng.integers(1, b + 1)))
        gamma = Fraction(d, int(rng.integers(1, d + 1)))
        if not alpha < gamma:
            continue
        p = ParamTuple(rational(alpha), _shift(rng), rational(gamma), _shift(rng))
        K = int(rng.choice([2, 7, 40]))
        finite, d_inf, ratio = pairwise_rational_d(p, K)
        got = rational_d(p, K)
        assert got.finite == finite, p
        assert got.d_inf == d_inf, p
        assert got.tail_ratio == ratio, p
        assert all(isinstance(v, Fraction) for v in got.finite + (got.d_inf,))
        checked += 1


def test_slow_growth_regime():
    # 1 < alpha < gamma < 2: long chains, ratio gamma/alpha near 1
    p = ParamTuple("4/3", 0, "3/2", 0)
    assert classify_region(p).id == "R2"
    d = rational_d(p)
    assert d.finite[0] == Fraction(1, 12)
    assert d.finite[1] == Fraction(1, 16)
    assert d.finite[2] == Fraction(3, 64)  # entry 1/4, stay 3/4, exit 1/4
    assert d.d_inf == 0
    emp = empirical_densities(p, [(1, 50_000)])
    for i in (1, 2, 3):
        assert abs(emp.entry_float(i) - float(d.entry(i))) < 5e-3

    # alpha = 1 with rational gamma below 2
    p = ParamTuple(1, 0, "3/2", 0)
    r = classify_region(p)
    assert r.id == "R1"
    assert closed_form_d(p, r).d_inf == Fraction(1, 3)


def test_rational_d_stores_two_entries():
    # d_3 .. d_K follow from d_2 by the exact ratio, so K = 10_000 costs
    # two stored entries; spot entries match entry 1/4, stay 3/4, exit 1/4
    p = ParamTuple("4/3", 0, "3/2", 0)
    d = rational_d(p, K=10_000)
    assert len(d.head) <= 2
    assert d.is_exact()
    assert d.entry(1) == Fraction(1, 12)
    for i in (2, 3, 777, 10_000, 10_001):
        assert d.entry(i) == Fraction(3, 4) ** (i - 2) / 16, i
    assert rational_d(p, K=40).finite == tuple(map(d.entry, range(1, 41)))


def test_k_validation():
    p = ParamTuple(2, 0, 3, 0)
    with pytest.raises(ValueError):
        rational_d(p, K=1)
    with pytest.raises(ValueError):
        closed_form_d(p, classify_region(p), K=0)


def test_closed_form_r1_rational_gamma_matches_residues():
    # alpha = 1 with rational non-integer gamma: both routes are exact
    p = ParamTuple(1, 0, "5/2", 0)
    r = classify_region(p)
    assert r.id == "R1"
    direct = closed_form_d(p, r)
    residues = rational_d(p)
    assert direct.finite == residues.finite == (Fraction(0),) * direct.K
    assert direct.d_inf == residues.d_inf == Fraction(3, 5)
    assert direct.provenance == ClosedForm("R1")


def test_closed_form_r1_surd():
    p = REGION_TUPLES["R1"]
    d = closed_form_d(p, classify_region(p))
    assert d.finite == tuple([0.0] * d.K)
    assert abs(d.d_inf - (1 - 5**-0.5)) < 1e-14


def test_closed_form_r3_r4():
    import math

    p = REGION_TUPLES["R4"]
    d = closed_form_d(p, classify_region(p))
    a, g = math.sqrt(2), math.sqrt(3)
    assert abs(d.finite[0] - (a - 1) * (g - 1) / (a * g)) < 1e-14
    assert abs(d.finite[2] - (a - 1) * (g - 1) / (a**3 * g)) < 1e-14
    assert d.d_inf == 0.0


def test_closed_form_r5():
    import math

    p = REGION_TUPLES["R5"]
    d = closed_form_d(p, classify_region(p))
    assert abs(d.finite[0] - 0.0) < 1e-14  # 1 - 1/sqrt(2) - 1/(2+sqrt(2)) = 0
    assert abs(d.finite[1] - 1 / math.sqrt(2)) < 1e-14


def test_no_closed_form():
    p = ParamTuple("sqrt(2)", 0, "3*sqrt(2)", 0)
    r = classify_region(p)
    assert r.id == "R6Open"
    with pytest.raises(NoClosedForm):
        closed_form_d(p, r)


def test_region_report_payload():
    rep = region_report(ParamTuple(2, 0, 4, 2))
    assert rep["region"] == "R9"
    assert rep["exact"] is True
    assert rep["d"]["finite"][0] == "1/2"
    assert rep["d"]["d_inf"] == "1/4"
    rep = region_report(ParamTuple("sqrt(2)", 0, "3*sqrt(2)", 0))
    assert rep["region"] == "R6Open" and rep["d"] is None


# ---------------------------------------------------------------------------
# regions.digits
# ---------------------------------------------------------------------------

def _from_digit_string(s):
    """The integer with decimal digits s, put together by halves:
    x = hi * 10^len(lo) + lo, so that no step parses or prints more than
    a 1000-digit piece."""
    if len(s) <= 1000:
        return int(s)
    h = len(s) // 2
    return _from_digit_string(s[:h]) * 10 ** (len(s) - h) + \
        _from_digit_string(s[h:])


def test_digits_match_decimal_around_the_limits():
    # the 4300-digit int-to-str limit and the leaf size of the split,
    # in both directions, with the sign
    rng = random.Random(5)
    bits = [b + j for b in (4300 * 3322 // 1000, regions._LEAF_BITS,
                            2 * regions._LEAF_BITS) for j in range(-3, 4)]
    bits += [1, 64, 1 << 15, 200_000]
    for b in bits:
        for x in (rng.getrandbits(b) | 1 << (b - 1), (1 << b) - 1, 1 << b):
            assert digits(x) == str(Decimal(x)), b
            assert digits(-x) == str(Decimal(-x)), b
    assert digits(0) == "0"
    for n in (4299, 4300, 4301):
        assert digits(10 ** n) == "1" + "0" * n
        assert digits(10 ** n - 1) == "9" * n


def test_digits_of_a_million_digit_count():
    # str(Decimal(x)) alone takes about 20 s here; the reference is the
    # digit string the integer was built from
    rng = random.Random(6)
    s = str(rng.randint(1, 9)) + "".join(
        rng.choice("0123456789") for _ in range(10 ** 6 - 1))
    x = _from_digit_string(s)
    start = time.perf_counter()
    assert digits(x) == s
    assert time.perf_counter() - start < 10
