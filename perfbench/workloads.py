"""Workload catalogs, the seeded input generator, the op of each workload
and its output check.

Every workload is a set of families, and a family a list of entries of
similar cost (window sizes were chosen so that the entries of one family
take about the same time on a 2-core Xeon).  A batch holds every entry
once.  The seed picks each entry's variant (a slightly longer window, or
another matrix) and the order of the ops, so inputs differ from seed to
seed while the work per batch stays the same.

Expected outputs live in ``reference.json`` (written by ``record.py``)
keyed by ``Op.key``.  An op whose key is missing there fails its check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass

# (alpha, beta, gamma, delta, n): every head in [1, n] is classified.
SCAN_FAMILIES = {
    # R7, R8, R10: rational closures and numpy bitsets only.
    "integer": [
        ("1", "0", "2", "0", 90000),
        ("1", "1", "3", "0", 55000),
        ("2", "1", "4", "0", 51000),
        ("2", "0", "3", "0", 52000),
        ("3", "1", "5", "0", 72000),
        ("3", "0", "6", "1", 78000),
        ("4", "1", "6", "0", 78000),
        ("2", "1", "5", "0", 40000),
    ],
    # d_inf > 0 (R2, R9): every candidate head walks twice the horizon.
    "dinf": [
        ("3/2", "0", "3", "0", 5000),
        ("2", "0", "4", "2", 6600),
        ("2", "1", "4", "1", 6600),
        ("3", "0", "6", "3", 9600),
        ("5/2", "0", "5", "0", 8400),
        ("4/3", "0", "8/3", "0", 4100),
        ("3/2", "1/2", "3", "0", 4500),
        ("3", "1", "6", "1", 9600),
    ],
    # alpha = 1 (R1): the growth-floor shortcut proves infinite chains.
    "alpha1": [
        ("1", "0", "sqrt(5)", "0", 26000),
        ("1", "1/2", "1+sqrt(2)", "0", 26000),
        ("1", "0", "5/2", "0", 59000),
        ("1", "0", "1+sqrt(3)", "1/3", 28000),
        ("1", "1/3", "7/3", "0", 66000),
        ("1", "0", "sqrt(7)", "0", 28000),
    ],
    # surd alpha, rational gamma (R3): one isqrt per floor.
    "surd_rational": [
        ("sqrt(2)", "0", "3", "0", 10000),
        ("sqrt(3)", "0", "4", "1/2", 18000),
        ("sqrt(2)", "1/2", "5/2", "0", 15000),
        ("sqrt(5)", "0", "7/2", "0", 29000),
        ("1+sqrt(2)/2", "0", "3", "1/3", 16000),
        ("sqrt(3)", "1/3", "3", "0", 18000),
    ],
    # surds with distinct radicands (R4).
    "distinct_radicands": [
        ("sqrt(2)", "0", "sqrt(3)", "0", 15000),
        ("sqrt(2)", "1/2", "sqrt(5)", "0", 12000),
        ("sqrt(3)", "0", "sqrt(7)", "1/3", 16000),
        ("sqrt(2)", "0", "sqrt(7)", "0", 9600),
        ("sqrt(3)", "1/4", "1+sqrt(5)", "0", 14000),
        ("sqrt(2)", "1/3", "sqrt(6)", "0", 10000),
    ],
    # surds with a shared radicand (R5, complementary pairs).
    "shared_radicand": [
        ("sqrt(2)", "0", "2+sqrt(2)", "0", 11000),
        ("sqrt(3)", "0", "3/2+sqrt(3)/2", "0", 14000),
        ("1+sqrt(2)/2", "0", "1+sqrt(2)", "0", 13000),
        ("1/2+sqrt(5)/2", "0", "3/2+sqrt(5)/2", "0", 12000),
        ("sqrt(2)", "sqrt(2)", "2+sqrt(2)", "0", 11000),
        ("sqrt(3)", "sqrt(3)", "3/2+sqrt(3)/2", "0", 14000),
    ],
    # beta outside the field of alpha: the generic exact (interval) path.
    "cross_field": [
        ("sqrt(2)", "sqrt(3)", "sqrt(5)", "0", 190),
        ("sqrt(3)", "sqrt(2)", "sqrt(7)", "0", 290),
        ("sqrt(2)", "sqrt(5)", "sqrt(7)", "1/2", 160),
        ("sqrt(3)", "sqrt(5)", "sqrt(11)", "0", 270),
        ("sqrt(2)", "sqrt(7)", "sqrt(3)", "1/3", 260),
        ("sqrt(5)", "sqrt(2)", "sqrt(13)", "0", 470),
    ],
}

# (alpha, beta, gamma, delta, m): A is drawn from the pool of random
# primitive m x m matrices with unequal row sums in reference.json.
# Only regions with a closed form; gamma/alpha runs from 1.05 to 3, and
# 11 of the 25 entries have d_inf > 0, so solve_t runs.
DIMS_FAMILIES = {
    # gamma/alpha in 1.2 .. 1.4, m 4 .. 8.
    "mid": [
        ("sqrt(2)", "0", "sqrt(3)", "0", 8),
        ("2", "0", "5/2", "0", 8),
        ("1", "0", "4/3", "0", 4),
        ("1", "0", "5/4", "0", 4),
        ("sqrt(2)", "0", "2", "0", 8),
        ("4/3", "0", "5/3", "0", 8),
        ("3", "0", "4", "0", 8),
        ("3/2", "1/2", "2", "0", 8),
    ],
    # gamma/alpha in 1.5 .. 3, m 12 .. 16: big-integer power sums.
    "far": [
        ("2", "0", "3", "0", 12),
        ("3/2", "0", "3", "0", 16),
        ("2", "0", "4", "2", 16),
        ("1", "0", "sqrt(5)", "0", 16),
        ("sqrt(2)", "0", "3", "0", 16),
        ("sqrt(2)", "sqrt(3)", "sqrt(5)", "0", 12),
        ("1", "0", "3", "0", 16),
    ],
    # d_inf = 0 with a slowly decaying geometric tail: the O(N^2 m^2)
    # t_phi loop of hausdorff_dim dominates.
    "series": [
        ("21/20", "0", "11/10", "0", 2),
        ("13/12", "0", "7/6", "0", 2),
        ("13/12", "0", "7/6", "0", 3),
        ("11/10", "1/3", "6/5", "0", 2),
        ("11/10", "1/3", "6/5", "0", 3),
    ],
    # d_inf > 0 with gamma/alpha near 1: solve_t iterates for long.
    "solver": [
        ("1", "0", "21/20", "0", 2),
        ("1", "0", "21/20", "0", 3),
        ("16/15", "0", "8/7", "0", 2),
        ("16/15", "0", "8/7", "0", 3),
        ("1", "0", "11/10", "0", 3),
    ],
}
DIMS_MATRIX_SIZES = sorted({e[4] for es in DIMS_FAMILIES.values() for e in es})

# (alpha, beta, gamma, delta, matrices, n) for `beattydim verify`; a
# variant takes one of the matrices.
_V2 = ("11;10", "10;11", "11;01", "01;11")
_V3 = ("111;110;100", "110;011;101", "011;101;111", "101;011;110")


def _verify_entries(family: str, n_scale: float) -> list:
    """The scan family's tuples, with m = 2 and m = 3 taking turns."""
    return [(a, b, g, d, (_V2, _V3)[i % 2], max(100, int(n * n_scale)))
            for i, (a, b, g, d, n) in enumerate(SCAN_FAMILIES[family])]


VERIFY_FAMILIES = {
    # n <= 20: the exhaustive enumeration oracle runs (m**n <= 2**24).
    "exhaustive": [
        ("2", "0", "3", "0", _V2, 18),
        ("2", "1", "4", "0", _V2, 18),
        ("3/2", "0", "3", "0", _V2, 18),
        ("sqrt(2)", "0", "3", "0", _V2, 18),
        ("1", "0", "sqrt(5)", "0", _V2, 18),
        ("sqrt(2)", "0", "2+sqrt(2)", "0", _V2, 18),
    ],
    "integer": _verify_entries("integer", 0.06),
    "dinf": _verify_entries("dinf", 0.4),
    "alpha1": _verify_entries("alpha1", 0.1),
    "surd_rational": _verify_entries("surd_rational", 0.25),
    "distinct_radicands": _verify_entries("distinct_radicands", 0.25),
    "shared_radicand": _verify_entries("shared_radicand", 0.25),
    "cross_field": _verify_entries("cross_field", 0.5),
    # The fixed point 1 -> 1 (floor(alpha + beta) = floor(gamma + delta) = 1)
    # is a one-vertex cycle that chain_product_count rejects: a known
    # defect, in every batch and counted as failed.
    "fixed_point": [
        ("sqrt(2)", "0", "sqrt(3)", "0", _V2, 18),
        ("sqrt(2)", "0", "sqrt(3)", "0", _V2, 2000),
        ("sqrt(2)", "1/4", "sqrt(3)", "1/4", _V2, 2000),
    ],
    # Counts above 4300 decimal digits exceed Python's int-to-str limit
    # when the report is formatted, so verify exits 2: a known defect,
    # in every batch and counted as failed.
    "digit_limit": [
        ("2", "0", "3", "0", ("11;10", "01;11"), 24000),
        ("2", "1", "4", "0", ("11;10", "01;11"), 24000),
        ("3", "1", "5", "0", ("11;10", "01;11"), 24000),
    ],
}

WORKLOADS = ("scan", "dims", "verify")
VARIANTS = 4


@dataclass(frozen=True)
class Op:
    """One call into the public API, built from string inputs."""

    workload: str
    family: str
    args: tuple

    @property
    def key(self) -> str:
        return "|".join(str(a) for a in self.args)

    def params(self) -> tuple:
        return self.args[:4]


def verify_argv(args: tuple) -> list:
    a, b, g, d, matrix, n = args
    return ["verify", f"--alpha={a}", f"--beta={b}", f"--gamma={g}",
            f"--delta={d}", f"--matrix={matrix}", f"--n={n}"]


def _families(workload: str) -> dict:
    return {"scan": SCAN_FAMILIES, "dims": DIMS_FAMILIES,
            "verify": VERIFY_FAMILIES}[workload]


def variants(workload: str, entry: tuple, matrices: dict) -> list:
    """The inputs one catalog entry can take: windows up to 7.5% longer
    and, where a matrix is involved, the matrix.  Exhaustive verify
    windows (n <= 20) keep their length, since cost grows as m**n."""
    if workload == "dims":
        a, b, g, d, m = entry
        return [(a, b, g, d, text) for text in matrices[str(m)]]
    if workload == "scan":
        a, b, g, d, n = entry
        return [(a, b, g, d, n + j * (n // 40)) for j in range(VARIANTS)]
    a, b, g, d, mats, n = entry
    return [(a, b, g, d, mats[j % len(mats)],
             n if n <= 20 else n + j * (n // 40)) for j in range(VARIANTS)]


def catalog(workload: str, matrices: dict) -> list:
    """Every op the workload can draw, in catalog order."""
    return [Op(workload, fam, args)
            for fam, entries in _families(workload).items()
            for e in entries for args in variants(workload, e, matrices)]


def generate(workload: str, seed: int, matrices: dict) -> tuple[Op, list]:
    """(warm-up op, batch).  The batch holds every catalog entry once, in
    the variant the seed picks, in an order the seed picks; the warm-up
    op is a variant of the first entry."""
    rng = random.Random(f"{workload}:{seed}")
    batch = [Op(workload, fam, rng.choice(variants(workload, e, matrices)))
             for fam, entries in _families(workload).items() for e in entries]
    warm = batch[0]
    rng.shuffle(batch)
    return warm, batch


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

class NullTracer:
    """Calls straight through; the untraced runs use it."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def run_op(bd, op: Op, tracer) -> object:
    """Execute one op; returns what its check needs.  Raises on failure
    to run (a non-zero CLI exit is returned, not raised)."""
    if op.workload == "scan":
        a, b, g, d, n = op.args
        p = tracer.call("beatty.ParamTuple", bd.ParamTuple, a, b, g, d)
        return tracer.call("chains.empirical_densities",
                           bd.empirical_densities, p, [(1, n)])
    if op.workload == "dims":
        a, b, g, d, text = op.args
        p = tracer.call("beatty.ParamTuple", bd.ParamTuple, a, b, g, d)
        A = tracer.call("matrix.from_string", bd.BinaryMatrix.from_string, text)
        return tracer.call("dims.dimension_report", bd.dimension_report,
                           p, A, mode="closed")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = tracer.call("cli.main", bd.cli.main, verify_argv(op.args))
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 2
    return (rc, out.getvalue(), err.getvalue())


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def head_counts(dv, n: int) -> dict:
    """Exact head-class counts behind an empirical density vector on the
    window [1, n]: every entry is count / n, so rounding entry * n
    recovers the count."""
    counts = {"A1": round(float(dv.finite[0]) * n)}
    for i, v in enumerate(dv.finite[1:], start=2):
        c = round(float(v) * n)
        if c:
            counts[str(i)] = c
    for i, v in (dv.beyond or {}).items():
        counts[str(i)] = round(float(v) * n)
    counts["cand"] = round(float(dv.d_inf) * n)
    return counts


def gap_bound(n: int) -> float:
    """Allowed largest |empirical - closed form| over d_1..d_K, d_inf.

    Head counts in a window differ from n * d_i by boundary terms and
    the horizon cut-off.  Over the catalog the largest gap * sqrt(n) is
    0.62 (a cross-field tuple at n = 470), so 2 / sqrt(n) leaves a
    threefold margin."""
    return 2.0 / n ** 0.5


def closed_gap(bd, p, dv) -> float | None:
    region = bd.classify_region(p)
    if not region.has_closed_form():
        return None
    closed = bd.closed_form_d(p, region, dv.K)
    gaps = [abs(closed.entry_float(i) - dv.entry_float(i))
            for i in range(1, dv.K + 1)]
    gaps.append(abs(closed.d_inf_float() - dv.d_inf_float()))
    return max(gaps)


def expected(bd, op: Op, result) -> dict:
    """What reference.json stores for an op."""
    if op.workload == "scan":
        p = bd.ParamTuple(*op.params())
        return {"counts": head_counts(result, op.args[4]),
                "gap": closed_gap(bd, p, result)}
    if op.workload == "dims":
        return {"dim_M": result.dim_M.value, "dim_H": result.dim_H.value,
                "coincide": result.coincide, "region": result.region.id,
                "d_inf": result.d.d_inf_float() > 0.0}
    rc, out, err = result
    return {"exit": rc, "stdout_sha256": _digest(out), "stderr": err}


def _digest(text: str) -> str:
    """Reports of large windows quote counts with thousands of digits, so
    the reference keeps a digest of stdout rather than its text."""
    return hashlib.sha256(text.encode()).hexdigest()


def check(bd, op: Op, result, ref: dict | None) -> tuple[bool, bool]:
    """(ok, correct) for one executed op.

    ok is False when the op failed: it raised, exited non-zero, or its
    output disagrees with the reference.  correct is False only when the
    op did something the reference does not record: a wrong answer, or
    a failure other than the one recorded for that input."""
    if isinstance(result, BaseException):
        return False, False
    if ref is None:
        return False, False
    if op.workload == "scan":
        n = op.args[4]
        if head_counts(result, n) != ref["counts"]:
            return False, False
        gap = closed_gap(bd, bd.ParamTuple(*op.params()), result)
        if gap is not None and gap > gap_bound(n):
            return False, False
        return True, True
    if op.workload == "dims":
        A = bd.BinaryMatrix.from_string(op.args[4])
        ok = (abs(result.dim_M.value - ref["dim_M"]) <= result.dim_M.err
              and abs(result.dim_H.value - ref["dim_H"]) <= result.dim_H.err
              and result.coincide == A.row_sums_equal())
        return ok, ok
    rc, out, err = result
    if rc != 0:
        recorded = rc == ref["exit"] and err == ref["stderr"]
        return False, recorded
    if ref["exit"] == 0:
        ok = (_digest(out) == ref["stdout_sha256"]
              and json.loads(out)["pass"] is True)
        return ok, ok
    # The reference recorded a failure that no longer happens: accept a
    # report that passes every one of its own checks.
    payload = json.loads(out)
    ok = payload["pass"] is True and all(
        c["status"] != "FAIL" for c in payload["checks"])
    return ok, ok


def load_reference(path) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def path_kind(tau, eta, numerics) -> str:
    """Which closure floor_fn/membership_fn builds for (tau, eta):
    integer divisions (rational), one isqrt per call in a single
    quadratic field (surd), or the generic exact path."""
    vals = (tau, eta)
    if all(isinstance(v, numerics.Rational) for v in vals):
        return "rational"
    if all(isinstance(v, (numerics.Rational, numerics.QuadraticSurd))
           for v in vals):
        radicands = {v.d for v in vals if isinstance(v, numerics.QuadraticSurd)}
        if len(radicands) == 1:
            return "surd"
    return "generic"
