"""``beattydim verify`` prints the same bytes as its golden files in
tests/golden/verify/.

Each case runs the CLI in a subprocess and compares the exit code and
the exact stdout.  The cases cover both oracles at their limits: the
exhaustive enumeration at m = 2, 3 and 4 (up to the 2**24 cap), the
skipped enumeration past the cap, a one-vertex cycle, a cross-field
tuple, a count of more than 4300 digits, and a rejected input.  After
an intended change of output, rewrite a golden file with
``PYTHONPATH=src python -m beattydim.cli verify ARGS > tests/golden/verify/NAME.out``.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "verify"

# name -> (argv after "verify", exit code)
CASES = {
    "exhaustive_m2_n18": (["--alpha=3/2", "--gamma=3", "--matrix=11;10",
                           "--n=18"], 0),
    "backward_m3_n12": (["--alpha=1", "--beta=5", "--gamma=2",
                         "--matrix=110;001;111", "--n=12"], 0),
    "cap_m4_n12": (["--alpha=sqrt(2)", "--gamma=2+sqrt(2)",
                    "--matrix=1100;0011;1110;0101", "--n=12"], 0),
    "past_cap_m2_n25": (["--alpha=2", "--beta=1", "--gamma=4",
                         "--matrix=10;11", "--n=25"], 0),
    "fixed_point_n2000": (["--alpha=sqrt(2)", "--gamma=sqrt(3)",
                           "--matrix=11;10", "--n=2000"], 0),
    "cross_field_n80": (["--alpha=sqrt(2)", "--beta=sqrt(5)", "--gamma=sqrt(7)",
                         "--delta=1/2", "--matrix=011;101;111", "--n=80"], 0),
    "digits_n24000": (["--alpha=2", "--gamma=3", "--matrix=11;10",
                       "--n=24000"], 0),
    "invalid_matrix": (["--alpha=2", "--gamma=3", "--matrix=12;10",
                        "--n=10"], 2),
}


def test_every_case_has_a_golden_file():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_verify_output_is_byte_stable(name):
    argv, code = CASES[name]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "beattydim.cli", "verify", *argv],
                          env=env, cwd=ROOT, capture_output=True, timeout=300)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == (GOLDEN / f"{name}.out").read_bytes()
    if code == 2:
        assert proc.stderr.startswith(b"invalid input: ")
