"""Microbenchmark of the exact floor and membership closures.

``floor_fn(tau, eta)`` and ``membership_fn(tau, eta)`` are the kernels
that every scan, bitset and edge loop calls once per element.  They are
timed here on the workload's own (alpha, beta) and (gamma, delta) pairs,
grouped by the path the closure takes, so a kernel change shows as ns
per call beside the workload's run_s.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

from workloads import path_kind

# Calls per timing: about 5 ms per pair on each path.
CALLS = {"rational": 20000, "surd": 5000, "generic": 40}
REPEATS = 3
START = 1000  # first k (floor) and x (membership) timed


def _ns_per_call(fn, calls: int) -> float:
    samples = []
    for _ in range(REPEATS):
        t0 = perf_counter_ns()
        for v in range(START, START + calls):
            fn(v)
        samples.append((perf_counter_ns() - t0) / calls)
    return statistics.median(samples)


def floor_metrics(bd, ops) -> dict:
    """{"beatty.floor_ns.<path>": ns, "beatty.member_ns.<path>": ns}:
    the median over the workload's pairs on each path, 0.0 for a path
    none of its pairs takes."""
    pairs = set()
    for op in ops:
        a, b, g, d = op.params()
        pairs.add((a, b))
        pairs.add((g, d))
    per_kind: dict[str, dict[str, list]] = {
        k: {"floor": [], "member": []} for k in CALLS}
    for tau_s, eta_s in sorted(pairs):
        tau, eta = bd.parse_real(tau_s), bd.parse_real(eta_s)
        kind = path_kind(tau, eta, bd.numerics)
        calls = CALLS[kind]
        per_kind[kind]["floor"].append(
            _ns_per_call(bd.beatty.floor_fn(tau, eta), calls))
        per_kind[kind]["member"].append(
            _ns_per_call(bd.beatty.membership_fn(tau, eta), calls))
    out = {}
    for kind, series in per_kind.items():
        for what, vals in series.items():
            out[f"beatty.{what}_ns.{kind}"] = (
                statistics.median(vals) if vals else 0.0)
    return out
