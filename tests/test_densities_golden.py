"""``beattydim densities --mode empirical`` prints the same bytes as its
golden files in tests/golden/densities/.

One case per scan family (integer, d_inf > 0, alpha = 1, surd/rational,
distinct and shared radicands, cross-field shifts), plus alpha = 1 with
a slow ratio, a second d_inf > 0 tuple, an interval-valued parameter,
negative shifts of 50 and 10^30, and a surd tuple whose chains the
certificate proves infinite.  The files were recorded before the lane
kernels decided membership from their own quotient, so they pin the
scan's head counts across kernel changes.  Each case runs in process.
After an intended change of output, rewrite a golden file with
``PYTHONPATH=src python -m beattydim.cli densities --mode empirical ARGS
> tests/golden/densities/NAME.out``.
"""

import pathlib

import pytest

from beattydim.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "densities"

# name -> argv after "densities --mode empirical"
CASES = {
    "integer_2_1_5_0": ["--alpha=2", "--beta=1", "--gamma=5", "--n=20000"],
    "dinf_3h_0_3_0": ["--alpha=3/2", "--gamma=3", "--n=5000"],
    "alpha1_half_1pr2": ["--alpha=1", "--beta=1/2", "--gamma=1+sqrt(2)",
                         "--n=10000"],
    "surd_rational_r3_4": ["--alpha=sqrt(3)", "--gamma=4", "--delta=1/2",
                           "--n=10000"],
    "distinct_radicands_r2_r5": ["--alpha=sqrt(2)", "--beta=1/2",
                                 "--gamma=sqrt(5)", "--n=8000"],
    "shared_radicand_r2_2pr2": ["--alpha=sqrt(2)", "--gamma=2+sqrt(2)",
                                "--n=8000"],
    "cross_field_r2_r3_r5": ["--alpha=sqrt(2)", "--beta=sqrt(3)",
                             "--gamma=sqrt(5)", "--n=400"],
    "alpha1_shifted_21_20": ["--alpha=1", "--beta=-3", "--gamma=21/20",
                             "--delta=1/2", "--n=3000"],
    "dinf_2_0_4_2": ["--alpha=2", "--gamma=4", "--delta=2", "--n=6600"],
    "interval_alpha": ["--alpha=sqrt(2)+sqrt(3)", "--gamma=5", "--delta=1/3",
                       "--n=1500"],
    "negative_shift_1e30": ["--alpha=3/2", "--gamma=3",
                            f"--delta=-{10**30}", "--n=3000"],
    "negative_shift_50": ["--alpha=3/2", "--gamma=3", "--delta=-50",
                          "--n=3000"],
    "surd_inclusion_r2_2r2": ["--alpha=sqrt(2)", "--gamma=2*sqrt(2)",
                              "--n=20000"],
}


def test_every_case_has_a_golden_file():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_empirical_densities_are_byte_stable(name, capsys):
    assert main(["densities", "--mode", "empirical", *CASES[name]]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()
