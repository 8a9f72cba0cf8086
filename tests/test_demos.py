"""Each demo prints the same bytes as its golden file in tests/golden/.

The demos narrate fixed invocations with exact and rounded output, so a
change that alters any printed number or chain shows up here.  After an
intended change of output, rewrite the golden file with
``PYTHONPATH=src python demos/NAME.py > tests/golden/NAME.out``.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden_file():
    assert len(DEMOS) == 5
    assert sorted(p.stem for p in (ROOT / "tests" / "golden").glob("*.out")) == [
        p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_is_byte_stable(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                         capture_output=True, timeout=300, check=True).stdout
    golden = (ROOT / "tests" / "golden" / f"{demo.stem}.out").read_bytes()
    assert out == golden
