"""Command-line front end.

Subcommands:

* ``classify``  -- region + closed-form densities (JSON).
* ``densities`` -- closed-form and/or empirical density vectors.
* ``dim``       -- Minkowski/Hausdorff dimension report.
* ``verify``    -- cross-checks: graph oracle vs exhaustive enumeration,
                   chain-product consistency, partition of [1, n].

Parameters are exact (``numerics``): every sign and floor is decided,
so no input fails for lack of precision.  A tuple may use at most four
distinct square-free radicands (``beatty.RADICAND_CAP``).

Exit codes: 0 success, 1 verification check failed, 2 validation error
(including more than four radicands, a ``verify`` window above
``VERIFY_MAX_N``, and a request that needs more memory than is
available), 3 numeric failure (non-convergence, unstable
horizon, a dimension outside the float range, gamma/alpha rounding to 1
in float64).  Reports are byte-stable for a fixed invocation: keys are
sorted and floats rounded to 12 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

import numpy as np

from .beatty import ParamTuple
from .chains import DEFAULT_K, HorizonTooSmall, decompose, empirical_densities
from .dims import NonConvergence, dimension_report
from .matrix import BinaryMatrix
from .oracle import (
    CapExceeded,
    ProductFormInapplicable,
    chain_product_count,
    count_patterns,
    exhaustive_count,
)
from .regions import (classify_region, closed_form_d, density_payload, digits,
                      region_report)

# The largest verify window.  A verify run holds arrays over [1, n]: its
# peak RSS grew by 52-102 bytes per position over the interpreter's on
# the tuples measured (n = 10^5 to 4*10^6, 2 to 16 symbols, shifts down
# to -n/2), so a window of 10^7 stays near 1 GB, under 2 GiB.
VERIFY_MAX_N = 10**7


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _canonical(obj):
    if isinstance(obj, float):
        return _round12(obj)
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def _emit(payload, args) -> None:
    if args.format == "json":
        try:
            text = json.dumps(_canonical(payload), sort_keys=True, indent=2,
                              allow_nan=False) + "\n"
        except ValueError as exc:  # a NaN or infinity is not JSON
            raise FloatingPointError(f"report is not finite: {exc}") from None
    else:
        text = _density_csv(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _density_csv(payload) -> str:
    rows = ["i,value"]
    d = payload.get("d") if isinstance(payload, dict) else None
    if d is None:
        raise ValueError("CSV output is only available for density tables")
    for i, v in enumerate(d["finite"], start=1):
        rows.append(f"{i},{v}")
    rows.append(f"inf,{d['d_inf']}")
    return "\n".join(rows) + "\n"


def _add_param_flags(sp, matrix: bool, tables: bool) -> None:
    """The flags every subcommand reads: the tuple and --out, then the
    matrix where one is required, and --format and --K where density
    tables are reported."""
    sp.add_argument("--alpha", required=True, help="e.g. 2, 7/2, 2.5, 1+2*sqrt(5)/3")
    sp.add_argument("--beta", default="0")
    sp.add_argument("--gamma", required=True)
    sp.add_argument("--delta", default="0")
    sp.add_argument("--out", default=None, help="write the report to PATH")
    if matrix:
        sp.add_argument(
            "--matrix", required=True,
            help='rows of 0/1 chars separated by ";", e.g. "11;10"')
    if tables:
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--K", type=int, default=DEFAULT_K)
    else:
        sp.set_defaults(format="json")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    call in the process.  Callers must not mutate it."""
    ap = argparse.ArgumentParser(
        prog="beattydim",
        description="Dimensions and densities of Beatty multiple shifts",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="region and closed-form densities")
    _add_param_flags(sp, matrix=False, tables=True)

    sp = sub.add_parser("densities", help="closed-form / empirical densities")
    _add_param_flags(sp, matrix=False, tables=True)
    sp.add_argument("--mode", choices=("closed", "empirical", "both"),
                    default="closed")
    sp.add_argument("--n", type=int, default=100_000)
    sp.add_argument("--horizon", type=int, default=None)

    sp = sub.add_parser("dim", help="dimension report")
    _add_param_flags(sp, matrix=True, tables=True)
    sp.add_argument("--mode", choices=("closed", "empirical", "both"),
                    default="closed")
    sp.add_argument("--which", choices=("hausdorff", "minkowski", "both"),
                    default="both")
    sp.add_argument("--n", type=int, default=100_000)
    sp.add_argument("--horizon", type=int, default=None)
    sp.add_argument("--eps", type=float, default=1e-10)

    sp = sub.add_parser("verify", help="oracle cross-checks")
    _add_param_flags(sp, matrix=True, tables=False)
    sp.add_argument("--n", type=int, default=20)
    sp.add_argument("--horizon", type=int, default=None)

    return ap


def _params(args) -> ParamTuple:
    return ParamTuple(args.alpha, args.beta, args.gamma, args.delta)


def _run_classify(args) -> int:
    p = _params(args)
    _emit(region_report(p, K=args.K), args)
    return 0


def _run_densities(args) -> int:
    p = _params(args)
    region = classify_region(p)
    payload: dict = {"region": region.id, "certificate": region.certificate}
    closed = None
    if args.mode in ("closed", "both") and region.has_closed_form():
        closed = closed_form_d(p, region, args.K)
    empirical = None
    if args.mode in ("empirical", "both") or (
        args.mode == "closed" and closed is None
    ):
        empirical = empirical_densities(
            p, [(1, args.n)], horizon=args.horizon, K=args.K
        )
    if args.mode == "both":
        payload["closed"] = density_payload(closed) if closed else None
        payload["empirical"] = density_payload(empirical) if empirical else None
        if closed and empirical:
            gaps = [
                abs(float(a) - float(b))
                for a, b in zip(closed.finite, empirical.finite)
            ]
            gaps.append(abs(float(closed.d_inf) - float(empirical.d_inf)))
            payload["max_abs_gap"] = max(gaps)
        payload["d"] = payload["closed"] or payload["empirical"]
    else:
        chosen = closed if closed is not None else empirical
        payload["d"] = density_payload(chosen)
        payload["exact"] = chosen.is_exact()
    _emit(payload, args)
    return 0


def _run_dim(args) -> int:
    p = _params(args)
    A = BinaryMatrix.from_string(args.matrix)
    kw = dict(n=args.n, horizon=args.horizon, K=args.K, eps=args.eps,
              which=args.which)
    if args.mode == "both":
        closed_rep = dimension_report(p, A, mode="closed", **kw)
        emp_rep = dimension_report(p, A, mode="empirical", **kw)
        payload = {
            "closed": closed_rep.to_json_dict(),
            "empirical": emp_rep.to_json_dict(),
        }
    else:
        payload = dimension_report(p, A, mode=args.mode, **kw).to_json_dict()
    _emit(payload, args)
    return 0


def _run_verify(args) -> int:
    n = args.n
    if n > VERIFY_MAX_N:
        raise ValueError(
            f"verify --n {n} is above the window bound {VERIFY_MAX_N}: a "
            f"verify run holds about 100 bytes of memory per position")
    p = _params(args)
    A = BinaryMatrix.from_string(args.matrix)
    checks = []

    show = functools.cache(digits)  # each distinct count converted once
    graph = count_patterns(p, A, n)
    try:
        brute = exhaustive_count(p, A, n)
        ok = graph.count == brute
        checks.append({
            "name": "oracle-equality",
            "status": "PASS" if ok else "FAIL",
            "detail": f"component-dp={show(graph.count)} "
                      f"exhaustive={show(brute)}",
        })
    except CapExceeded as exc:
        checks.append({
            "name": "oracle-equality", "status": "SKIPPED", "detail": str(exc),
        })

    dec = decompose(p, n, horizon=args.horizon)
    try:
        prod = chain_product_count(dec, A, p)
        ok = prod == graph.count
        checks.append({
            "name": "chain-product-consistency",
            "status": "PASS" if ok else "FAIL",
            "detail": f"chain-product={show(prod)} "
                      f"component-dp={show(graph.count)}",
        })
    except ProductFormInapplicable as exc:
        checks.append({
            "name": "chain-product-consistency", "status": "SKIPPED",
            "detail": str(exc),
        })

    covered = np.sort(np.concatenate(
        [dec.elements, np.array(dec.residual, dtype=np.int64)]))
    ok = np.array_equal(covered, np.arange(1, n + 1))
    checks.append({
        "name": "partition",
        "status": "PASS" if ok else "FAIL",
        "detail": f"chains cover {dec.covered()} of {n}, residual {len(dec.residual)}",
    })

    all_ok = all(c["status"] != "FAIL" for c in checks)
    _emit({"checks": checks, "pass": all_ok}, args)
    return 0 if all_ok else 1


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "classify":
            return _run_classify(args)
        if args.command == "densities":
            return _run_densities(args)
        if args.command == "dim":
            return _run_dim(args)
        if args.command == "verify":
            return _run_verify(args)
        raise AssertionError("unreachable")
    except (NonConvergence, HorizonTooSmall, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("invalid input: the request needs more memory than is "
              "available", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
