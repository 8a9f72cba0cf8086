"""The benchmark harness reaches into the package by name: its tracer
wraps public entry points, and its workloads sort pairs by floor path.
These checks fail here, not first in a traced benchmark run, when a
name they use goes away."""

import pathlib
import sys

import beattydim as bd
import beattydim.cli  # noqa: F401  (the tracer wraps names in bd.cli)
from beattydim.numerics import parse_real

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tracer_installs_and_uninstalls():
    tracer = tracing.Tracer()
    originals = {(owner, attr): owner.__dict__[attr]
                 for owner, attr in ((bd.dims, "solve_t"),
                                     (bd.BinaryMatrix, "power_sum"),
                                     (bd.cli, "decompose"))}
    tracer.install(bd)
    try:
        assert all(owner.__dict__[attr] is not fn
                   for (owner, attr), fn in originals.items())
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is fn
               for (owner, attr), fn in originals.items())


def test_path_kind_of_a_two_radicand_pair():
    x, zero = parse_real("sqrt(2)+sqrt(3)"), parse_real("0")
    assert workloads.path_kind(x, zero, bd.numerics) == "generic"
    assert workloads.path_kind(parse_real("sqrt(2)"), zero,
                               bd.numerics) == "surd"
