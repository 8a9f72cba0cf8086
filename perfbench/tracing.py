"""Spans recorded from outside the package, for the traced run only.

The tracer wraps public names where the calling module looks them up
(``beattydim.dims.solve_t`` rather than the definition in ``dims``), so
nothing under ``src/`` changes and the untraced run executes the
unmodified functions.  Spans are kept in memory; a span's self time is
its duration minus the time its direct children cover (children run
one after another, so they never overlap).
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    """In-memory span recorder: one record per call, with its parent."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start ns, end ns]
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self._installed: list[tuple] = []

    def call(self, name, fn, *args, **kwargs):
        rec = [name, self._stack[-1] if self._stack else -1,
               perf_counter_ns(), 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = perf_counter_ns()
            self._stack.pop()

    def _wrap(self, name, fn, after):
        tracer = self

        def traced(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, bd) -> None:
        """Wrap the layer entry points of the imported package ``bd``."""
        targets = [
            (bd.dims, "classify_region", "regions.classify_region", None),
            (bd.dims, "closed_form_d", "regions.closed_form_d", None),
            (bd.dims, "minkowski_dim", "dims.minkowski_dim", None),
            (bd.dims, "hausdorff_dim", "dims.hausdorff_dim", None),
            (bd.dims, "t_phi", "dims.t_phi", None),
            (bd.dims, "solve_t", "dims.solve_t", _count_iterations),
            (bd.BinaryMatrix, "power_sum", "matrix.power_sum", _note_power),
            (bd.cli, "count_patterns", "oracle.count_patterns", _count_components),
            (bd.cli, "exhaustive_count", "oracle.exhaustive_count", None),
            (bd.cli, "decompose", "chains.decompose", _count_elements),
            (bd.cli, "chain_product_count", "oracle.chain_product_count", None),
            (bd.oracle, "constraint_edges", "beatty.constraint_edges", None),
        ]
        for owner, attr, name, after in targets:
            original = owner.__dict__[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, after))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def drain(self) -> dict:
        """Aggregate and forget the spans recorded so far.

        Returns {"self_s": {name: s}, "total_s": {name: s},
        "calls": {name: n}, "counts": {...}, "maxima": {...}}."""
        if self._stack:
            raise RuntimeError("drain() inside an open span")
        child = [0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, _, t0, t1), c in zip(self.spans, child):
            self_s[name] += (t1 - t0 - c) / 1e9
            total_s[name] += (t1 - t0) / 1e9
            calls[name] += 1
        out = {"self_s": dict(self_s), "total_s": dict(total_s),
               "calls": dict(calls), "counts": dict(self.counts),
               "maxima": dict(self.maxima)}
        self.spans = []
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        return out

    def dump(self) -> list:
        """The raw spans, start times relative to the first span."""
        if not self.spans:
            return []
        base = self.spans[0][2]
        return [[name, parent, t0 - base, t1 - base]
                for name, parent, t0, t1 in self.spans]


def _count_iterations(tracer, args, kwargs, result):
    tracer.counts["dims.solve_t.iterations"] += result.iterations


def _note_power(tracer, args, kwargs, result):
    exponent = args[1] if len(args) > 1 else kwargs["l"]
    tracer.maxima["matrix.power_sum.max_l"] = max(
        tracer.maxima["matrix.power_sum.max_l"], exponent)


def _count_components(tracer, args, kwargs, result):
    tracer.counts["oracle.components"] += result.components


def _count_elements(tracer, args, kwargs, result):
    tracer.counts["chains.decompose.elems"] += result.n
