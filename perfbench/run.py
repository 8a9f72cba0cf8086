#!/usr/bin/env python3
"""beattydim benchmark: one workload per run, in this process, on one thread.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The run generates its inputs from the seed, sets up (import, inputs,
one warm-up op), then runs the batch of ops again and again for
``--seconds``, checks every output against ``reference.json`` outside
the timed region, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` half of the time runs untraced and half traced, and the
metrics are the per-layer ones.  The lines before it give the machine,
the sample counts and the failures.  Times are in reference seconds
(see ``calibration_s``).  Exit code 2, with no result line,
when the package or the reference data is missing.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_BATCHES = 4     # batches per timed phase, whatever --seconds says
SETUP_PROBES = 8    # extra fresh processes that time set-up
TAIL_BEYOND = 10    # ops that lie beyond the tail percentile in MIN_BATCHES
CAL_NOMINAL_S = 2e-3  # the calibration loop's time on the reference machine
CAL_LOOPS = 6000
CAL_WINDOW = 3      # calibration passes on each side that scale one op
SETUP_CAL = 9       # calibration passes after each set-up

END_TO_END = {
    "setup_s": "s", "run_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "beatty.floor_ns.rational": "ns", "beatty.floor_ns.surd": "ns",
    "beatty.floor_ns.generic": "ns", "beatty.member_ns.rational": "ns",
    "beatty.member_ns.surd": "ns", "beatty.member_ns.generic": "ns",
    "beatty.ParamTuple.s": "s",
    "chains.empirical_densities.s": "s", "chains.heads": "count",
    "chains.heads_per_s": "1/s", "chains.cand_share": "share",
    "chains.decompose.s": "s", "chains.decompose.elems_per_s": "1/s",
    "beatty.constraint_edges.s": "s", "oracle.count_patterns.s": "s",
    "oracle.exhaustive_count.s": "s", "oracle.chain_product_count.s": "s",
    "oracle.components": "count", "cli.main.self_s": "s",
    "cli.json_bytes": "bytes", "regions.classify_region.s": "s",
    "regions.closed_form_d.s": "s", "dims.dimension_report.self_s": "s",
    "dims.hausdorff_dim.self_s": "s", "dims.t_phi.s": "s",
    "dims.t_phi.calls": "count", "dims.solve_t.s": "s",
    "dims.solve_t.iterations": "count", "dims.minkowski_dim.self_s": "s",
    "matrix.from_string.s": "s", "matrix.power_sum.s": "s",
    "matrix.power_sum.calls": "count", "matrix.power_sum.max_l": "count",
    "bench.op.self_s": "s", "trace.overhead_s": "s",
    "trace.accounted_share": "share",
}
# per-layer time metric -> span name whose self time it reports
SELF_TIME = {
    "beatty.ParamTuple.s": "beatty.ParamTuple",
    "chains.empirical_densities.s": "chains.empirical_densities",
    "chains.decompose.s": "chains.decompose",
    "beatty.constraint_edges.s": "beatty.constraint_edges",
    "oracle.count_patterns.s": "oracle.count_patterns",
    "oracle.exhaustive_count.s": "oracle.exhaustive_count",
    "oracle.chain_product_count.s": "oracle.chain_product_count",
    "cli.main.self_s": "cli.main",
    "regions.classify_region.s": "regions.classify_region",
    "regions.closed_form_d.s": "regions.closed_form_d",
    "dims.dimension_report.self_s": "dims.dimension_report",
    "dims.hausdorff_dim.self_s": "dims.hausdorff_dim",
    "dims.t_phi.s": "dims.t_phi",
    "dims.solve_t.s": "dims.solve_t",
    "dims.minkowski_dim.self_s": "dims.minkowski_dim",
    "matrix.from_string.s": "matrix.from_string",
    "matrix.power_sum.s": "matrix.power_sum",
    "bench.op.self_s": "bench.op",
}


def calibration_s() -> float:
    """Time one pass of a fixed pure-Python loop: integer arithmetic and
    a dict, big-integer products, and exact floors with set lookups, as
    in the ops.

    The shared host this benchmark was tuned on changes speed by a third
    or more, within seconds, for every process alike.  Each op is timed
    between calibration passes, and its time is scaled by CAL_NOMINAL_S
    over their median: a time in reference seconds, which is what the
    op would take on a machine where the pass takes CAL_NOMINAL_S.  The
    loop does not touch beattydim, so a change to the package moves
    reference seconds as it moves wall time."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(CAL_LOOPS):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = acc
    big = 7
    for _ in range(CAL_LOOPS // 100):
        big = (big * 3 ** 200) % (1 << 6000)
    seen = set()
    for k in range(1, CAL_LOOPS // 4):
        f = math.isqrt(2 * k * k)
        seen.add(f)
        acc += f - 1 in seen
    return time.perf_counter() - t0


def reference_scale(cal: list) -> list:
    """Scale factor for each op: CAL_NOMINAL_S over the median of the
    calibration passes within CAL_WINDOW of it."""
    return [CAL_NOMINAL_S / statistics.median(
        cal[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1])
        for i in range(len(cal))]


class SetupError(Exception):
    """The checkout lacks what the benchmark needs."""


def import_package():
    """Import beattydim from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "beattydim" / "__init__.py").is_file():
        raise SetupError(f"no beattydim package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    bd = importlib.import_module("beattydim")
    if Path(bd.__file__).resolve().parent != src / "beattydim":
        raise SetupError(f"beattydim imported from {bd.__file__}, not {src}")
    for sub in ("beatty", "cli", "dims", "numerics", "oracle"):
        importlib.import_module(f"beattydim.{sub}")
    return bd


def set_up(workload: str, seed: int):
    """Import, generate the inputs and run one warm-up op.  Set-up time
    in reference seconds, scaled by calibration passes right after it."""
    t0 = time.perf_counter()
    bd = import_package()
    import workloads as wl

    ref_path = HERE / "reference.json"
    if not ref_path.is_file():
        raise SetupError(f"missing {ref_path}")
    ref = wl.load_reference(ref_path)
    warm, batch = wl.generate(workload, seed, ref["matrices"])
    wl.run_op(bd, warm, wl.NullTracer())
    setup = time.perf_counter() - t0
    cal = statistics.median(calibration_s() for _ in range(SETUP_CAL))
    return bd, wl, ref, batch, setup * CAL_NOMINAL_S / cal


def measure(bd, wl, batch, seconds: float, tracer, min_batches: int,
            on_batch=None, cal=None) -> list:
    """Run the batch until `seconds` have passed and at least
    `min_batches` batches are done.  Returns [(wall s, [op s], [result])].
    With a list `cal`, one calibration pass is timed before each op and
    appended to it."""
    runs = []
    start = time.perf_counter()
    while len(runs) < min_batches or time.perf_counter() - start < seconds:
        lat, res = [], []
        b0 = time.perf_counter()
        for op in batch:
            if cal is not None:
                cal.append(calibration_s())
            t0 = time.perf_counter()
            try:
                r = tracer.call("bench.op", wl.run_op, bd, op, tracer)
            except Exception as exc:  # an op failure is data, not a crash
                r = exc
            lat.append(time.perf_counter() - t0)
            res.append(r)
        wall = time.perf_counter() - b0
        runs.append((wall, lat, res))
        if on_batch is not None:
            on_batch(runs[-1])
    return runs


def check_all(bd, wl, ref, batch, runs) -> tuple[int, int, bool, list]:
    """(attempted, failed, correct, failure notes) over every op run."""
    table = ref[batch[0].workload]
    attempted = failed = 0
    correct = True
    notes: dict[str, str] = {}
    for _, _, results in runs:
        for op, r in zip(batch, results):
            attempted += 1
            ok, right = wl.check(bd, op, r, table.get(op.key))
            if not ok:
                failed += 1
                notes[op.key] = _describe(r)
            correct = correct and right
    return attempted, failed, correct, [
        {"op": k, "why": v} for k, v in sorted(notes.items())]


def _describe(result) -> str:
    if isinstance(result, BaseException):
        return f"raised {type(result).__name__}: {result}"[:200]
    if isinstance(result, tuple):
        rc, _, err = result
        return f"exit {rc}: {err.strip()}"[:200]
    return "output differs from the reference"


def latency_stats(runs, cal) -> dict:
    """Op latencies in reference seconds (see `calibration_s`).

    run_s is the time to finish every op of the batch once: the sum
    over its ops of each op's median latency across the batches, which
    keeps a burst of machine noise in one batch from moving it.

    The tail is the highest percentile with TAIL_BEYOND ops beyond it
    in MIN_BATCHES batches.  It is fixed by the batch size, so runs that
    fit more batches into --seconds report the same percentile (with
    more ops beyond it) and stay comparable."""
    size = len(runs[0][1])
    flat = [x for _, l, _ in runs for x in l]
    scaled = [x * f for x, f in zip(flat, reference_scale(cal))]
    lat = sorted(scaled)
    n = len(lat)
    least = MIN_BATCHES * size
    q = (least - TAIL_BEYOND) / least
    per_op = [scaled[i::size] for i in range(size)]
    return {
        "run_s": sum(statistics.median(x) for x in per_op),
        "wall_run_s": sum(statistics.median(flat[i::size])
                          for i in range(size)),
        "cal_ms": statistics.median(cal) * 1e3,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": lat[max(0, math.ceil(q * n) - 1)] * 1e3,
        "tail_percentile": round(100.0 * q, 2),
        "ops_timed": n,
        "batches": len(runs),
        "batch_ref_s": [round(sum(scaled[b * size:(b + 1) * size]), 4)
                        for b in range(len(runs))],
    }


def scan_heads(wl, batch, results) -> tuple[int, int]:
    """(classified heads, infinity candidates) over the scan ops of one
    batch, recovered exactly from the returned counts."""
    heads = cand = 0
    for op, r in zip(batch, results):
        if op.workload != "scan" or isinstance(r, BaseException):
            continue
        counts = wl.head_counts(r, op.args[4])
        heads += sum(counts.values())
        cand += counts["cand"]
    return heads, cand


def json_bytes(results) -> int:
    return sum(len(r[1].encode()) for r in results if isinstance(r, tuple))


def layer_metrics(wl, batch, untraced, traced, per_batch, floor) -> dict:
    """Per-layer values per batch: medians over the traced batches."""
    def med(fn):
        return statistics.median(fn(i) for i in range(len(traced)))

    out = dict(floor)
    for metric, span in SELF_TIME.items():
        out[metric] = med(lambda i: per_batch[i]["self_s"].get(span, 0.0))
    heads = [scan_heads(wl, batch, res) for _, _, res in traced]
    out["chains.heads"] = heads[0][0]
    out["chains.cand_share"] = heads[0][1] / heads[0][0] if heads[0][0] else 0.0
    out["chains.heads_per_s"] = med(lambda i: _rate(
        heads[i][0], per_batch[i]["self_s"].get("chains.empirical_densities")))
    out["chains.decompose.elems_per_s"] = med(lambda i: _rate(
        per_batch[i]["counts"].get("chains.decompose.elems", 0),
        per_batch[i]["self_s"].get("chains.decompose")))
    first = per_batch[0]
    out["oracle.components"] = first["counts"].get("oracle.components", 0)
    out["dims.solve_t.iterations"] = first["counts"].get(
        "dims.solve_t.iterations", 0)
    out["dims.t_phi.calls"] = first["calls"].get("dims.t_phi", 0)
    out["matrix.power_sum.calls"] = first["calls"].get("matrix.power_sum", 0)
    out["matrix.power_sum.max_l"] = first["maxima"].get(
        "matrix.power_sum.max_l", 0)
    out["cli.json_bytes"] = json_bytes(traced[0][2])
    traced_run = statistics.median(w for w, _, _ in traced)
    out["trace.overhead_s"] = traced_run - statistics.median(
        w for w, _, _ in untraced)
    out["trace.accounted_share"] = med(lambda i: sum(
        per_batch[i]["self_s"].values()) / traced[i][0])
    return out


def _rate(count, seconds) -> float:
    return count / seconds if seconds else 0.0


def machine() -> dict:
    info = {
        "python": platform.python_version(),
        "numpy": importlib.import_module("numpy").__version__,
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or None,
        "git_sha": None,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if (ROOT / ".git").exists():  # an exported source tree has no .git
        try:
            info["git_sha"] = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=20, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return info


def probe_setup(args) -> list:
    """Set-up times of SETUP_PROBES fresh processes, one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", "0", "--trace", "0", "--setup-probe"],
                capture_output=True, text=True, timeout=60, cwd=str(ROOT),
            )
        except subprocess.TimeoutExpired as exc:  # run() killed and reaped it
            raise SetupError(f"set-up probe timed out: {exc}") from exc
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def write_trace(args, tracer_dump, per_batch) -> str:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "per_batch": per_batch, "spans_first_batch": tracer_dump,
                   "span_fields": ["name", "parent", "start_ns", "end_ns"]}, f)
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("scan", "dims", "verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time set-up and print it (used internally)")
    args = ap.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"

    try:
        bd, wl, ref, batch, setup = set_up(args.workload, args.seed)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup}))
            return 0
        if args.trace:
            from floorbench import floor_metrics
            from tracing import Tracer

            half = MIN_BATCHES // 2
            untraced = measure(bd, wl, batch, args.seconds / 2,
                               wl.NullTracer(), half)
            tracer = Tracer()
            per_batch, dump = [], []

            def on_batch(_run):
                if not dump:
                    dump.extend(tracer.dump())
                per_batch.append(tracer.drain())

            tracer.install(bd)
            try:
                traced = measure(bd, wl, batch, args.seconds / 2, tracer,
                                 half, on_batch)
            finally:
                tracer.uninstall()
            metrics = layer_metrics(wl, batch, untraced, traced, per_batch,
                                    floor_metrics(bd, batch))
            runs = untraced + traced
            units = PER_LAYER
            extra = {"trace_file": write_trace(args, dump, per_batch),
                     "untraced_batches": len(untraced),
                     "traced_batches": len(traced)}
        else:
            cal = []
            runs = measure(bd, wl, batch, args.seconds, wl.NullTracer(),
                           MIN_BATCHES, cal=cal)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            stats = latency_stats(runs, cal)
            setups = [setup] + probe_setup(args)
            metrics = {"setup_s": statistics.median(setups),
                       "run_s": stats["run_s"], "op_p50_ms": stats["op_p50_ms"],
                       "op_tail_ms": stats["op_tail_ms"], "peak_rss_mb": rss_mb}
            units = END_TO_END
            extra = {k: stats[k] for k in ("tail_percentile", "ops_timed",
                                           "batches", "wall_run_s", "cal_ms",
                                           "batch_ref_s")}
            extra["batch_s"] = [round(w, 4) for w, _, _ in runs]
            extra["setup_samples"] = len(setups)
        attempted, failed, correct, notes = check_all(bd, wl, ref, batch, runs)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "ops_per_batch": len(batch), "fail_ratio": failed / attempted,
              "failures": notes, **extra, "machine": machine()}
    print(json.dumps(detail, sort_keys=True))
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:.6g} {unit}")
    print(f"{'fail_ratio':32s} {failed / attempted:.6g} share "
          f"({failed} of {attempted} ops)")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
