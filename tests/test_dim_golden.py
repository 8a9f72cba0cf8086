"""``beattydim dim`` prints the same bytes as its golden files in
tests/golden/dim/.

Each case runs the CLI in-process and compares the exit code and the
exact stdout.  The tuples are one per closed-form region (the
``REGION_TUPLES`` of conftest) plus two slow-tail tuples with
alpha/gamma = 21/22 and 20/21, whose series run to hundreds of terms.
Each tuple runs with a 2x2, a 3x3 and an 8x8 primitive matrix with
unequal row sums, so both dimensions are evaluated and differ.  Two
empirical cases cover the measured vector: an R6Open tuple at K = 3,
whose classes past K feed both series, and an R4 tuple with the closed
and empirical reports side by side.  After
an intended change of output, rewrite a golden file with
``PYTHONPATH=src python -m beattydim.cli dim ARGS > tests/golden/dim/NAME.out``,
with ARGS those of ``CASES[NAME]``.
"""

import pathlib

import pytest

from beattydim import ParamTuple, cli
from conftest import REGION_TUPLES

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "dim"

# name -> (alpha, beta, gamma, delta); the first nine match REGION_TUPLES
TUPLES = {
    "R1": ("1", "0", "sqrt(5)", "0"),
    "R2": ("3/2", "0", "3", "0"),
    "R3": ("sqrt(2)", "0", "3", "0"),
    "R4": ("sqrt(2)", "0", "sqrt(3)", "0"),
    "R5": ("sqrt(2)", "0", "2+sqrt(2)", "0"),
    "R7": ("1", "0", "2", "0"),
    "R8": ("2", "1", "4", "0"),
    "R9": ("2", "0", "4", "2"),
    "R10": ("2", "0", "3", "0"),
    "slow_21_22": ("21/20", "0", "11/10", "0"),
    "slow_20_21": ("1", "0", "21/20", "0"),
}

MATRICES = {
    "m2": "11;10",
    "m3": "011;001;110",
    "m8": "10100101;10111100;10000111;11110001;"
          "11110001;00011001;01000010;10011110",
}

# name -> the dim arguments
CASES = {
    f"{t}_{m}": [f"--alpha={a}", f"--beta={b}", f"--gamma={g}",
                 f"--delta={d}", f"--matrix={MATRICES[m]}"]
    for t, (a, b, g, d) in TUPLES.items() for m in MATRICES
}
CASES["emp_r6open_m3"] = ["--alpha=sqrt(2)", "--gamma=3/2*sqrt(2)", "--K=3",
                          "--n=20000", f"--matrix={MATRICES['m3']}"]
CASES["emp_r4_both_m2"] = ["--alpha=sqrt(2)", "--gamma=sqrt(3)", "--mode=both",
                           "--K=5", "--n=50000", f"--matrix={MATRICES['m2']}"]


def test_every_case_has_a_golden_file():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(CASES)


def test_tuples_match_region_tuples():
    for name, p in REGION_TUPLES.items():
        q = ParamTuple(*TUPLES[name])
        assert (q.alpha, q.beta, q.gamma, q.delta) == (
            p.alpha, p.beta, p.gamma, p.delta)


@pytest.mark.parametrize("name", sorted(CASES))
def test_dim_output_is_byte_stable(name, capsys):
    assert cli.main(["dim", *CASES[name]]) == 0
    out, _ = capsys.readouterr()
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()
