import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beattydim.numerics import (
    Interval,
    PrecisionExhausted,
    QuadraticSurd,
    Rational,
    _mul,
    _squarefree,
    _surd_floor_ints,
    as_fraction,
    compare,
    floor_linear,
    frac,
    normalize,
    parse_real,
    rational,
    sign,
    surd,
)


def test_floor_linear_examples():
    assert floor_linear(rational(2), 3, rational(0)) == 6
    assert floor_linear(surd(0, 1, 2), 3, rational(0)) == 4  # 3*sqrt(2) in (4,5)
    assert floor_linear(rational(3, 2), 5, rational(1, 3)) == 7  # 47/6 in [7,8)


def test_frac_examples():
    assert as_fraction(frac(rational(7, 3))) == Fraction(1, 3)
    f = frac(surd(0, 1, 2))
    assert isinstance(f, QuadraticSurd)
    assert f.a == -1 and f.b == 1 and f.d == 2  # sqrt(2) - 1
    assert as_fraction(frac(rational(5))) == 0


def test_parse_real():
    assert as_fraction(parse_real("3")) == 3
    assert as_fraction(parse_real("7/2")) == Fraction(7, 2)
    assert as_fraction(parse_real("2.5")) == Fraction(5, 2)
    assert as_fraction(parse_real("-4")) == -4
    s = parse_real("1+2*sqrt(5)/3")
    assert isinstance(s, QuadraticSurd)
    assert (s.a, s.b, s.d) == (1, Fraction(2, 3), 5)
    s = parse_real("sqrt(8)")  # normalizes to 2*sqrt(2)
    assert (s.a, s.b, s.d) == (0, 2, 2)
    assert as_fraction(parse_real("sqrt(4)")) == 2
    s = parse_real("-sqrt(2)")
    assert (s.a, s.b, s.d) == (0, -1, 2)
    s = parse_real("3/2-sqrt(5)/2")
    assert (s.a, s.b, s.d) == (Fraction(3, 2), Fraction(-1, 2), 5)
    for bad in ("", "1/0", "sqrt(-2)", "two", "1+", "sqrt()"):
        with pytest.raises(ValueError):
            parse_real(bad)


def test_surd_normalization():
    assert isinstance(surd(1, 0, 7), Rational)
    assert as_fraction(surd(1, 2, 9)) == 7  # 1 + 2*3
    s = surd(0, 1, 12)  # sqrt(12) = 2*sqrt(3)
    assert (s.a, s.b, s.d) == (0, 2, 3)


def test_surd_product_matches_the_split_radicand():
    # b1*sqrt(d1) * b2*sqrt(d2) is built from g = gcd(d1, d2) without
    # factoring d1*d2; it must equal the product that surd() splits
    squarefree = [d for d in range(2, 120) if _squarefree(d)[0] == 1]
    rng = random.Random(20261018)
    for _ in range(400):
        d1, d2 = rng.choice(squarefree), rng.choice(squarefree)
        b1, b2 = (Fraction(rng.choice([-1, 1]) * rng.randint(1, 30),
                           rng.randint(1, 9)) for _ in range(2))
        got = _mul(surd(0, b1, d1), surd(0, b2, d2))
        ref = surd(0, b1 * b2, d1 * d2)
        assert type(got) is type(ref) and got == ref, (b1, d1, b2, d2)


@given(
    a=st.fractions(min_value=-5, max_value=5),
    b=st.fractions(min_value=-5, max_value=5),
    d=st.integers(min_value=2, max_value=60),
)
@settings(deadline=None)
def test_normalize_idempotent(a, b, d):
    x = surd(a, b, d)
    assert normalize(x) == normalize(normalize(x))


@given(
    p=st.integers(min_value=1, max_value=500),
    q=st.integers(min_value=1, max_value=100),
    num=st.integers(min_value=-300, max_value=300),
    den=st.integers(min_value=1, max_value=60),
    k=st.integers(min_value=1, max_value=10_000),
)
@settings(deadline=None)
def test_floor_linear_bracket_rational(p, q, num, den, k):
    # independent oracle: plain Fraction arithmetic
    tau = Fraction(max(p, q), q)  # >= 1
    eta = Fraction(num, den)
    n = floor_linear(rational(tau), k, rational(eta))
    v = tau * k + eta
    assert n <= v < n + 1


@given(
    b=st.fractions(min_value=Fraction(1, 8), max_value=4),
    a=st.fractions(min_value=-6, max_value=6),
    d=st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13]),
    k=st.integers(min_value=1, max_value=10_000),
)
@settings(max_examples=200, deadline=None)
def test_floor_linear_bracket_surd(b, a, d, k):
    tau = surd(2, b, d)
    if sign(tau) <= 0 or compare(tau, 1) < 0:
        return
    eta = surd(a, -b / 2, d)
    n = floor_linear(tau, k, eta)
    val = tau * k + eta
    # exact bracket: n <= val < n + 1 decided by surd sign tests
    assert compare(rational(n), val) <= 0
    assert compare(val, rational(n + 1)) < 0


def _surd_at_least(x, y, d, t):
    """x + y*sqrt(d) >= t by integer squaring: y*sqrt(d) >= s = t - x."""
    s = t - x
    if y >= 0:
        return s <= 0 or y * y * d >= s * s
    return s < 0 and y * y * d <= s * s


_DIGITS30 = st.integers(min_value=-10**30, max_value=10**30)


@given(x=_DIGITS30, y=_DIGITS30,
       d=st.integers(min_value=2, max_value=10**6).filter(
           lambda d: _squarefree(d)[0] == 1),
       z=st.integers(min_value=1, max_value=10**30))
@settings(max_examples=500, deadline=None)
def test_surd_floor_ints_brackets_the_value(x, y, d, z):
    # n*z <= x + y*sqrt(d) < (n + 1)*z, decided without isqrt
    n = _surd_floor_ints(x, y, d, z)
    assert _surd_at_least(x, y, d, n * z)
    assert not _surd_at_least(x, y, d, (n + 1) * z)


def test_parse_real_splits_each_radicand_once(monkeypatch):
    # every term is normal when it is added, so the sum is not split again
    import beattydim.numerics as numerics_mod

    calls = []
    split = numerics_mod._squarefree
    monkeypatch.setattr(numerics_mod, "_squarefree",
                        lambda d: calls.append(d) or split(d))
    x = parse_real("1/3+2*sqrt(12)-sqrt(3)/5")
    assert calls == [12, 3]
    assert x == QuadraticSurd(Fraction(1, 3), Fraction(19, 5), 3)
    assert parse_real("sqrt(999999999989)+2").b == 1
    assert calls[2:] == [999999999989]


def test_interval_floor():
    from math import isqrt

    def sqrt2(bits):
        r = isqrt(2 << (2 * bits))
        return (Fraction(r, 1 << bits), Fraction(r + 1, 1 << bits))

    iv = Interval(sqrt2)
    assert floor_linear(iv, 3, rational(0)) == 4
    assert iv.floor() == 1


def test_interval_refinement_monotone():
    from math import isqrt

    def sqrt3(bits):
        r = isqrt(3 << (2 * bits))
        return (Fraction(r, 1 << bits), Fraction(r + 1, 1 << bits))

    iv = Interval(sqrt3, bits=64)
    finer = iv.refine(256)
    assert iv.lo <= finer.lo <= finer.hi <= iv.hi
    assert finer.hi - finer.lo < iv.hi - iv.lo


def test_precision_exhausted_on_hidden_integer():
    # an interval that is secretly exactly 2 can never resolve floor(x)
    def two(bits):
        eps = Fraction(1, 1 << bits)
        return (2 - eps, 2 + eps)

    iv = Interval(two)
    with pytest.raises(PrecisionExhausted):
        iv.floor(max_bits=2048)


def test_compare_cross_field():
    assert compare(surd(0, 1, 2), surd(0, 1, 3)) < 0
    assert compare(surd(0, 2, 2), rational(3)) < 0   # 2.828 < 3
    assert compare(surd(0, 2, 2), rational(14, 5)) > 0  # 2.828 > 2.8
    assert compare(surd(1, 1, 2), surd(0, 1, 2)) > 0
    assert compare(rational(1, 3), rational(2, 6)) == 0


def test_exact_equality_semantics():
    assert surd(0, 2, 2) == surd(0, 1, 8)  # both normalize to 2*sqrt(2)
    assert rational(2) != surd(0, 1, 2)
    assert surd(1, 1, 2) != surd(1, 1, 3)


def test_arithmetic_field_closure():
    r2, r3 = surd(0, 1, 2), surd(0, 1, 3)
    prod = r2 * r3  # pure radicals combine: sqrt(6)
    assert isinstance(prod, QuadraticSurd) and prod.d == 6
    recip = 1 / surd(1, 1, 2)  # (sqrt(2)-1) after rationalizing
    assert (recip.a, recip.b, recip.d) == (-1, 1, 2)
    mixed = surd(1, 1, 2) * surd(1, 1, 3)  # leaves quadratic fields
    assert isinstance(mixed, Interval)
    lo, hi = mixed.enclosure(128)
    expect = (1 + 2**0.5) * (1 + 3**0.5)
    assert hi - lo < Fraction(1, 2**100)
    assert abs(float((lo + hi) / 2) - expect) < 1e-12
