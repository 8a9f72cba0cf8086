#!/usr/bin/env python3
"""Record reference.json: the matrix pool and the expected output of
every op in every catalog, as the package at this checkout computes it.

    python3 perfbench/record.py                 # all workloads
    python3 perfbench/record.py --workload dims # re-record one workload

Re-record only when a catalog changes, never to make a failing check
pass: the checks compare later commits against these outputs.  Prints
one line per op with its time, so family costs can be kept even.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MATRICES_PER_SIZE = 4


def random_matrix(bd, rng: random.Random, m: int) -> str:
    """A random primitive m x m 0/1 matrix with unequal row sums."""
    while True:
        rows = [[rng.randrange(2) for _ in range(m)] for _ in range(m)]
        if min(map(sum, rows)) == 0:
            continue
        A = bd.BinaryMatrix(rows)
        if A.row_sums_equal() or not A.is_primitive():
            continue
        return ";".join("".join(map(str, r)) for r in rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("scan", "dims", "verify"))
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import beattydim as bd
    import beattydim.cli  # noqa: F401  (run_op reaches cli through bd)
    import workloads as wl

    path = HERE / "reference.json"
    ref = wl.load_reference(path) if path.is_file() else {}
    if "matrices" not in ref:
        rng = random.Random("beattydim-matrix-pool")
        ref["matrices"] = {
            # m = 2 has only two such matrices; keep each once
            str(m): sorted({random_matrix(bd, rng, m)
                            for _ in range(MATRICES_PER_SIZE)})
            for m in wl.DIMS_MATRIX_SIZES}
    for workload in [args.workload] if args.workload else wl.WORKLOADS:
        table = {}
        for op in wl.catalog(workload, ref["matrices"]):
            t0 = time.perf_counter()
            result = wl.run_op(bd, op, wl.NullTracer())
            dt = time.perf_counter() - t0
            table[op.key] = exp = wl.expected(bd, op, result)
            note = {k: v for k, v in exp.items()
                    if k in ("gap", "region", "d_inf", "exit")}
            print(f"{workload:6s} {op.family:18s} {dt * 1e3:8.1f} ms "
                  f"{op.key}  {note}", flush=True)
        ref[workload] = table
    with open(path, "w", encoding="utf-8") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
