"""Hypothesis suite over ``cli.main`` argv for all four subcommands.

The parameters are drawn from the CLI grammar (integers, rationals,
decimals, surd sums) and from malformed strings.  Every call must exit
with a code in 0-3 -- argparse rejections included -- and never raise,
within a time limit per example.  Shifts stay within |50|, except one
draw in four within 10^12: ``decompose`` scans [1, n] only, and no
table or walk grows with the shifts.  Windows stay within n <= 1000.
Decimals have at most two places: the horizon grows as gamma - alpha
shrinks, and more places bring alpha and gamma closer.  ``--out`` is
left out, since it writes files.  All examples share one parser.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from beattydim.cli import main

MALFORMED = ["", " ", "zebra", "1/0", "sqrt(-2)", "sqrt(2", "2*", "++1", "-",
             "1e5", "nan", "inf", "3/", "0x10", "sqrt()", "1//2", "(2)",
             "sqrt(2)*3", "2..5"]


def _or(good, bad):
    """Mostly `good`; one draw in eight from `bad`, shrinking to `good`."""
    return st.integers(min_value=0, max_value=7).flatmap(
        lambda i: bad if i == 4 else good)


@st.composite
def _surd(draw, lo, hi):
    a = draw(st.fractions(min_value=lo, max_value=hi, max_denominator=4))
    b = draw(st.integers(min_value=1, max_value=3))
    r = draw(st.sampled_from([2, 3, 5, 7, 4]))
    return f"{a}{draw(st.sampled_from('+-'))}{b}*sqrt({r})"


def _real(lo, hi):
    """A number in the grammar, roughly in [lo, hi], or a malformed string."""
    return _or(st.one_of(
        st.integers(min_value=lo, max_value=hi).map(str),
        st.fractions(min_value=lo, max_value=hi, max_denominator=6).map(str),
        st.decimals(min_value=lo, max_value=hi, places=2).map(str),
        _surd(lo, hi),
        st.sampled_from(["sqrt(2)", "sqrt(3)", "2+sqrt(5)", "sqrt(2)+sqrt(3)",
                         "1+2*sqrt(5)/3", "7/2", "2.5"]),
    ), st.sampled_from(MALFORMED))


def _shift():
    """A shift from _real within |50|, or, one draw in four, within 10^12."""
    return st.integers(min_value=0, max_value=3).flatmap(
        lambda i: _real(-10**12, 10**12) if i == 0 else _real(-50, 50))


def _int(lo, hi, bad_lo):
    return _or(st.integers(min_value=lo, max_value=hi).map(str),
               st.one_of(st.integers(min_value=bad_lo, max_value=lo).map(str),
                         st.sampled_from(["x", "1.5", ""])))


ROW = {m: st.text("01", min_size=m, max_size=m) for m in (2, 3)}
MATRIX = _or(
    st.integers(min_value=2, max_value=3).flatmap(
        lambda m: st.lists(ROW[m].filter(lambda r: "1" in r),
                           min_size=m, max_size=m).map(";".join)),
    st.one_of(st.sampled_from(["12;10", "1;11", "", "11;1", "1", "11;10;01",
                               "ab;cd", "11;00", "00;00"]),
              st.integers(min_value=2, max_value=3).flatmap(
                  lambda m: st.lists(ROW[m], min_size=m, max_size=m)
                  .map(";".join))),
)


def _choice(*good, bad="x"):
    return _or(st.sampled_from(good), st.just(bad))


@st.composite
def argv(draw):
    command = draw(st.sampled_from(["classify", "densities", "dim", "verify"]))
    args = [command, f"--alpha={draw(_real(1, 5))}", f"--gamma={draw(_real(2, 20))}"]
    optional = {"--beta": _shift(), "--delta": _shift()}
    # flags a subcommand does not read are rejected inputs
    rejected = ["--bogus", "extra", "--n"]
    if command in ("dim", "verify"):
        args.append(f"--matrix={draw(MATRIX)}")
    else:
        rejected.append("--matrix=11;10")
    if command == "verify":
        rejected += ["--K=5", "--format=json"]
    else:
        optional["--K"] = _int(1, 60, -2)
        optional["--format"] = _choice("json", "json", "csv", bad="xml")
    if command != "classify":  # densities and dim default to n = 100000
        args.append(f"--n={draw(_int(1, 1000, -3))}")
        optional["--horizon"] = _int(1, 80, -2)
    if command in ("densities", "dim"):
        optional["--mode"] = _choice("closed", "empirical", "both")
    if command == "dim":
        optional["--which"] = _choice("hausdorff", "minkowski", "both")
        optional["--eps"] = _choice("1e-10", "1e-6", bad="nan")
    for flag, values in optional.items():
        if draw(st.booleans()):
            args.append(f"{flag}={draw(values)}")
    if draw(st.integers(min_value=0, max_value=15)) == 8:  # argparse rejects
        args.append(draw(st.sampled_from(rejected)))
    return args


@given(argv=argv())
@settings(max_examples=300, deadline=20_000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_exits_0_to_3(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), (argv, code, err)
    if code >= 2:
        assert out == "" and err, (argv, code)
    elif "--format=csv" not in argv:
        json.loads(out)
