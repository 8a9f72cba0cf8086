"""Hypothesis suite for ``numerics.parse_real``.

Strings are drawn from the CLI parameter grammar -- signed sums of
integers, rationals, decimals and ``[coef*]sqrt(n)[/k]`` terms, with
spaces between terms -- and from arbitrary text over the grammar's
alphabet.  A string either parses to a value whose 96-bit enclosure
meets the reference enclosure computed here from the drawn parts (exact
rationals, and every square root bracketed by ``isqrt`` at 128 bits), or
raises ValueError; nothing else is raised.  A grammar string parses
exactly when its denominators are non-zero and its radicands lie in
[1, RADICAND_MAX].  On both kinds of string, ``parse_real`` returns what
the term-by-term Fraction sum returns, or raises its error.
"""

from fractions import Fraction
from math import isqrt

from hypothesis import given, settings
from hypothesis import strategies as st

from beattydim.numerics import RADICAND_MAX, parse_real
from conftest import fraction_parse_real

REF_BITS = 128


@st.composite
def _literal(draw):
    """(text, value) of an unsigned integer, rational or decimal literal;
    value is None when the text divides by zero."""
    kind = draw(st.sampled_from(["int", "ratio", "dec", "lead_dot", "trail_dot"]))
    whole = draw(st.integers(min_value=0, max_value=10**12))
    if kind == "int":
        return str(whole), Fraction(whole)
    if kind == "ratio":
        den = draw(st.integers(min_value=0, max_value=10**6))
        return f"{whole}/{den}", Fraction(whole, den) if den else None
    digits = draw(st.text("0123456789", min_size=1, max_size=12))
    if kind == "trail_dot":
        return f"{whole}.", Fraction(whole)
    if kind == "lead_dot":
        whole = 0
    text = f"{whole}.{digits}" if kind == "dec" else f".{digits}"
    return text, whole + Fraction(int(digits), 10 ** len(digits))


@st.composite
def _term(draw):
    """(text, coef, radicand): coef * sqrt(radicand), with radicand 1 for
    a plain literal; coef is None when the text divides by zero."""
    if draw(st.booleans()):
        text, value = draw(_literal())
        return text, value, 1
    radicand = draw(st.one_of(st.integers(min_value=0, max_value=10**6),
                              st.integers(min_value=0, max_value=10**13)))
    text, coef = f"sqrt({radicand})", Fraction(1)
    if draw(st.booleans()):
        ctext, coef = draw(_literal())
        text = f"{ctext}*{text}"
    if draw(st.booleans()):
        den = draw(st.integers(min_value=0, max_value=1000))
        text = f"{text}/{den}"
        coef = coef / den if coef is not None and den else None
    return text, coef, radicand


@st.composite
def _expression(draw):
    terms = draw(st.lists(_term(), min_size=1, max_size=4))
    pad = st.sampled_from(["", " ", "  "])
    text, parts = "", []
    for k, (ttext, coef, radicand) in enumerate(terms):
        sign = draw(st.sampled_from(["+", "-"] if k else ["", "+", "-"]))
        text += f"{draw(pad)}{sign}{draw(pad)}{ttext}"
        neg = sign == "-"
        parts.append((-coef if neg and coef is not None else coef, radicand))
    return text, parts


_ARBITRARY = st.text(alphabet="0123456789+-*/.() sqrtx", max_size=30)


def _reference(parts):
    """(lo, hi, scale): an enclosure of sum coef * sqrt(radicand) from
    isqrt brackets, and 1 + sum |coef| * sqrt(radicand) over the
    irrational terms, which bounds the surd coefficients after square
    factors leave the radicands."""
    lo = hi = Fraction(0)
    scale = Fraction(1)
    for coef, radicand in parts:
        root = isqrt(radicand << (2 * REF_BITS))
        r_lo = Fraction(root, 1 << REF_BITS)
        r_hi = r_lo if root * root == radicand << (2 * REF_BITS) \
            else Fraction(root + 1, 1 << REF_BITS)
        if r_lo != r_hi:
            scale += abs(coef) * r_hi
        pair = (coef * r_lo, coef * r_hi)
        lo += min(pair)
        hi += max(pair)
    return lo, hi, scale


@given(_expression())
@settings(max_examples=300, deadline=None)
def test_grammar_strings_parse_to_their_value(expr):
    text, parts = expr
    valid = all(coef is not None and 1 <= radicand <= RADICAND_MAX
                for coef, radicand in parts)
    try:
        x = parse_real(text)
    except ValueError:
        assert not valid, text
        return
    assert valid, text
    lo, hi = x.enclosure(96)
    ref_lo, ref_hi, scale = _reference(parts)
    assert lo <= ref_hi and ref_lo <= hi, (text, float(lo), float(ref_lo))
    assert hi - lo <= scale / 2**95, (text, float(hi - lo))


@given(_ARBITRARY)
@settings(max_examples=300, deadline=None)
def test_arbitrary_text_raises_only_value_error(text):
    try:
        x = parse_real(text)
    except ValueError:
        return
    lo, hi = x.enclosure(96)
    assert lo <= hi


def _outcome(parse, text):
    """(type, value) of parse(text), or ("ValueError", message)."""
    try:
        x = parse(text)
    except ValueError as exc:
        return "ValueError", str(exc)
    return type(x), x


@given(st.one_of(_expression().map(lambda e: e[0]), _ARBITRARY))
@settings(max_examples=300, deadline=None)
def test_parse_real_matches_the_term_by_term_sum(text):
    assert _outcome(parse_real, text) == _outcome(fraction_parse_real, text)
