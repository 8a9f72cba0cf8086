"""Chain decomposition of integer windows and density estimation.

Every positive integer belongs to exactly one of: a singleton chain (in
neither Beatty sequence), a chain x, f(x), ..., f^{i-1}(x) headed at
some x in S(alpha,beta)\\S(gamma,delta), an infinite chain, or a small
residual set R of anomalies (aborted images, cycles among tiny
elements).  Head classes:

* A_1        -- in neither sequence (chain of length 1),
* A_i, i>=2  -- survives exactly i-1 iterations: the first i-2 iterates
                stay in the intersection, the last lands in
                S(gamma,delta)\\S(alpha,beta),
* A_infinity -- iterates stay in the intersection forever (proved by
                the certificate below, or detected up to a finite
                horizon and reported as candidates).

``_ScanContext`` holds the per-tuple scan state, built once: the
tuple's two pairs (``ParamTuple.pairs``), tables, and a certificate
threshold Y (``_certificate``: from one period of kernel floors for
rational alpha, from the exact relations gamma = m*alpha and delta =
beta + j*alpha for irrational alpha; never from ``regions``, whose closed
forms stay an independent check).  A walk whose iterate reaches Y above
the visible window is proved infinite and stops; without a certificate
it runs to the horizon.

Two walks step along chains by one rule: from the iterate y, k =
a.member(y) (0 ends the chain: y left SA), then y = g.floor(k), with a
and g the ``beatty.BeattyPair`` of S(alpha, beta) and S(gamma, delta).
``_ScanContext.walk`` is the scalar reference: one head at a time on
the pairs' scalar closures, from a head or resuming a walk at its step
j; it returns the chain's end (kind, value, last iterate) and collects
the visible elements on request.  ``_ScanContext.walk_heads`` is a
refilling lane stream: each round steps every live lane through one
guarded pass of each lane kernel, and whenever at most CHUNK // 2 lanes
are live it draws heads from its stream until more are.  The lanes
drawn in one round form a cohort that shares its step j, so a lane is
one int64 iterate.  An iterate past the kernel's int64 guard resumes in
``walk`` at its step, and so do the last FINISH lanes of an exhausted
stream on pairs whose forms have at most one radicand.

Chains are strictly monotone.  Let g(k) = floor(gamma*k + delta) -
floor(alpha*k + beta) and h(k) = (gamma - alpha)*k + delta - beta.  Then
h(k) - 1 < g(k) < h(k) + 1, and h is strictly increasing.  A step y =
floor(alpha*k + beta) -> floor(gamma*k + delta) moves by g(k), which is
never 0: that iterate would be a fixed point of f, and as f is
injective so would every earlier one, down to the head, which is not
in S(gamma, delta).  An up-step (g(k) >= 1) has h(k) > g(k) - 1 >= 0;
the next step's index is larger, as member indices grow with the
member, so its h is positive, its g is above -1, and it steps up again.
A down-step (g(k) <= -1) has h(k) < g(k) + 1 <= 0; the next index is
smaller, so h < 0 there, g < 1, and it steps down again.  So the
elements of a chain inside [1, n] form a prefix or a suffix of its
trajectory.  They sit at consecutive steps, as the pattern-count
product form (``oracle.chain_product_count``) needs, so no walk checks.

``walk_heads`` is the one head-scan engine.  ``decompose`` passes every
head at once, the A_1 singletons included (each leaves SA at step 0, so
it comes back as class 1 with itself visible), and gets per-head arrays
(class and the visible elements in CSR form); it compresses out the
chains that left N and stores the rest as chains in columns, with the
refined counts d_{i,j} (exactly j of the i chain elements inside
[1,n]) and the residual set.  Its tables cover [1, n] only: a chain
headed above n reaches the window only by down-steps (h(k) < 0, so k <
k_f of ``_growth_start``), and ``_entry_heads`` climbs it from its
entry.
``_window_counts`` streams a window's heads from the tables one slice
of CHUNK positions at a time and keeps only class tallies, from which
``empirical_densities`` estimates d_i, every measured class in the
vector's ``head``; its horizon-doubling probe walks each head once to
twice the horizon and reads the class at the horizon off that walk.
Membership tables are marked in place from chunked kernel floors, so
windows of 10^6 are routine.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import repeat
from math import ceil, inf, lcm, log
from typing import (IO, Iterable, Iterator, NamedTuple, Optional, Sequence,
                    Union)

import numpy as np

from .beatty import LANE_BOUND, BeattyPair, ParamTuple
from .numerics import Rational, _add, _common_bounds, _div, _neg

DEFAULT_K = 40
CHUNK = 1 << 14  # lanes per table-marking call, positions per head slice
# An exhausted head stream finishes its last FINISH live lanes in the
# scalar ``walk``.  On the perfbench scan catalog (2-core Xeon, Python
# 3.11, numpy 2.4) a vector round over at most 64 lanes costs 38-47 us,
# and one scalar step (member, then floor) 0.9-1.1 us on rational and
# one-field surd pairs; so one scalar step of 32 lanes costs no more
# than one round, but 7-12 us on a pair over two or more radicands.
FINISH = 32
STABILITY_TOL = 1e-3  # candidate share a doubled horizon may move
_PERIOD_CAP = 1 << 16  # longest membership period a certificate checks

Num = Union[Fraction, float]


# class codes of the per-head arrays; finite classes use their index i
_INFINITE = 0
_RESIDUAL = -1  # the trajectory left the positive integers
_FINITE = 1  # a walk_heads end code: the step-j iterate left SA, class j + 1


class HorizonTooSmall(RuntimeError):
    """Infinity-candidate mass kept shifting when the horizon doubled."""


# ---------------------------------------------------------------------------
# classification tags
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainClass:
    tag: str  # "A1" | "finite" | "infinity"
    i: int = 0
    survived: int = 0

    def label(self) -> str:
        if self.tag == "finite":
            return f"finite({self.i})"
        return self.tag


A1 = ChainClass("A1")


# decompose tags every chain it records: the class objects are immutable,
# so one per value is shared, and Chain is a light named tuple.
@cache
def finite_class(i: int) -> ChainClass:
    return ChainClass("finite", i=i)


@cache
def infinity_candidate(survived: int) -> ChainClass:
    return ChainClass("infinity", survived=survived)


class Chain(NamedTuple):
    head: int
    cls: ChainClass
    elements: tuple[int, ...]  # elements inside [1, n], trajectory order


@dataclass(frozen=True, eq=False)
class ChainDecomposition:
    """The chains of [1, n] in columns, in head order: chain c is headed
    at heads[c], has class code classes[c] (1 for A_1, i >= 2 for the
    finite class i, 0 for an infinity candidate) and its elements inside
    [1, n] are elements[offsets[c]:offsets[c + 1]], in trajectory order."""

    n: int
    residual: tuple[int, ...]
    counts: dict  # (i, j) -> number of finite-class-i heads with j visible
    horizon: int
    heads: np.ndarray
    classes: np.ndarray
    offsets: np.ndarray
    elements: np.ndarray

    @cached_property
    def chains(self) -> tuple[Chain, ...]:
        """The chains as records, built on first use."""
        named = {1: A1, _INFINITE: infinity_candidate(self.horizon)}
        ends = self.offsets.tolist()
        elements = self.elements.tolist()
        return tuple(
            Chain(h, named[c] if c in named else finite_class(c),
                  tuple(elements[a:b]))
            for h, c, a, b in zip(self.heads.tolist(), self.classes.tolist(),
                                  ends, ends[1:])
        )

    def length_counts(self) -> dict[int, int]:
        """Visible chain length -> number of chains."""
        lengths, counts = np.unique(np.diff(self.offsets), return_counts=True)
        return dict(zip(lengths.tolist(), counts.tolist()))

    def to_csv(self, stream: IO[str]) -> None:
        rows = []
        for cid, ch in enumerate(self.chains):
            for pos, x in enumerate(ch.elements):
                rows.append((x, ch.cls.label(), cid, pos))
        for x in self.residual:
            rows.append((x, "residual", -1, -1))
        rows.sort()
        w = csv.writer(stream)
        w.writerow(["x", "class", "chain_id", "position_in_chain"])
        w.writerows(rows)

    def covered(self) -> int:
        return self.elements.size


# ---------------------------------------------------------------------------
# density vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ClosedForm:
    region: str


@dataclass(frozen=True, slots=True)
class Empirical:
    windows: tuple[tuple[int, int], ...]
    horizon: int


@dataclass(frozen=True, slots=True)
class DensityVector:
    """(d_1, d_2, ..., d_inf) with provenance, in one stored form.

    ``head`` holds the leading entries; past ``len(head)`` the entries
    follow the geometric law d_{i+1} = tail_ratio * d_i (zero without a
    ratio or with a head shorter than 2), in exact arithmetic for
    ``Fraction`` heads.  So a rational closed form stores (d_1, d_2)
    whatever K is, and ``finite`` rebuilds d_1 .. d_K on each read.  An
    empirical vector has no law: its head holds every measured class,
    max(K, largest class) entries, and it carries a window-agreement
    ``diagnostic`` over d_1 .. d_K and d_inf.  K is the length of the
    reported ``finite`` part, not of the stored one.  Infinity-candidate
    mass is kept separate from finite tail mass throughout.
    """

    head: tuple[Num, ...]
    d_inf: Num
    K: int
    provenance: object
    tail_ratio: Optional[Num] = None
    diagnostic: Optional[float] = None

    @property
    def finite(self) -> tuple[Num, ...]:
        """d_1 .. d_K."""
        return tuple(self.entry(i) for i in range(1, self.K + 1))

    @property
    def beyond(self) -> Optional[dict]:
        """{i: d_i} for the stored classes i > K with d_i != 0, or None."""
        out = {i: v for i, v in enumerate(self.head[self.K:], start=self.K + 1)
               if v}
        return out or None

    def entry(self, i: int) -> Num:
        if i < 1:
            raise ValueError("class index starts at 1")
        h = len(self.head)
        if i <= h:
            return self.head[i - 1]
        if self.tail_ratio is not None and h >= 2:
            return self.head[-1] * self.tail_ratio ** (i - h)
        return 0 * self.head[0]

    def entry_float(self, i: int) -> float:
        return float(self.entry(i))

    def floats(self, N: int) -> tuple[list[float], list[float]]:
        """d_1 .. d_N and the suffix sums s_i = sum_{j>i} d_j for
        i = 1 .. N, as floats (list index i - 1): one read of the vector
        for a series truncated at N.

        Entries 1 .. L = max(K, len(head)) are each rounded once from
        their exact values; an exact law steps an unreduced numerator and
        denominator (int / int rounds correctly whatever their common
        factors), which skips the gcds of every Fraction product.  Past
        L the law extends them in floats, and its closed geometric sum
        starts the suffix sums."""
        h, r, last = len(self.head), self.tail_ratio, self.head[-1]
        L = max(self.K, h)
        run = [float(v) for v in self.head]
        if h >= 2 and isinstance(r, Fraction) and isinstance(last, Fraction):
            num, den = last.numerator, last.denominator
            for _ in range(L - h):
                num *= r.numerator
                den *= r.denominator
                run.append(num / den)
        else:
            run += [self.entry_float(i) for i in range(h + 1, L + 1)]
        d = run[:N]
        s = 0.0  # sum_{j>N} d_j
        for v in run[N:]:
            s += v
        # the law past L: d_L * rho^(i - L), all zeros without one
        rho, dl = ((float(r), run[-1]) if r is not None and L >= 2
                   else (0.0, 0.0))
        # float_power is C pow, as rho ** k is
        d += (dl * np.float_power(rho, np.arange(1, N - L + 1))).tolist()
        if dl > 0 and rho >= 1:
            raise ValueError("geometric tail with ratio >= 1 is not summable")
        if dl > 0 and rho > 0:
            s += dl * rho ** (max(N, L) - L + 1) / (1.0 - rho)
        # suffix[i] = s + d[N-1] + ... + d[i+1], added in that order
        suffix = np.cumsum([s, *d[:0:-1]])[::-1].tolist() if N else []
        return d, suffix

    def d_inf_float(self) -> float:
        return float(self.d_inf)

    def is_exact(self) -> bool:
        law = (self.tail_ratio,) if (
            len(self.head) < self.K and self.tail_ratio is not None) else ()
        return all(isinstance(v, Fraction)
                   for v in (*self.head, *law, self.d_inf))


# ---------------------------------------------------------------------------
# horizons
# ---------------------------------------------------------------------------

def default_horizon(p: ParamTuple, n: int) -> int:
    """ceil(log_{gamma/alpha}(10 n)) + 8 steps.  Iterates move away from
    the fixed point of the affine map y -> (gamma/alpha)*(y - beta) +
    delta by the factor gamma/alpha per step, up to a bounded error, so
    this horizon sees every exit that matters for a size-n window, with
    slack."""
    try:
        log_ratio = log(p.ratio.approx())
    except OverflowError:  # past the float range: from the exact quotient
        q = p.ratio.enclosure(96)[0]
        log_ratio = log(q.numerator) - log(q.denominator)
    if log_ratio <= 0.0:  # a ParamTuple has alpha < gamma exactly
        raise FloatingPointError("gamma/alpha exceeds 1 but rounds to 1 "
                                 "in float64, so no horizon is defined")
    return int(ceil(log(max(10 * n, 10)) / log_ratio)) + 8


# ---------------------------------------------------------------------------
# scan machinery
# ---------------------------------------------------------------------------

def _mark_bitset(pair: BeattyPair, bound: int) -> bytearray:
    """Byte membership table of the pair's S(tau, eta) on [1, bound]: the
    kernel floors of k in [first_k, first_k_at(bound + 1)), which are
    exactly its members in [1, bound], in blocks of CHUNK lanes.  A
    first_k past the bound (a large negative shift) is folded into a
    shifted pair, whose lane i holds first_k + i, so lanes stay small
    whatever the shift."""
    table = bytearray(bound + 1)
    marks = np.frombuffer(table, dtype=np.uint8)  # marks in place
    k0, k1 = pair.first_k, pair.first_k_at(bound + 1)
    if k1 > k0 > bound:
        pair, k0, k1 = pair.shifted(k0), 0, k1 - k0
    for start in range(k0, k1, CHUNK):
        lanes = np.arange(start, min(start + CHUNK, k1), dtype=np.int64)
        marks[pair.floor_lanes(lanes)] = 1
    return table


class _ScanContext:
    """Per-tuple scan state, built once per tuple: the tuple's pairs a
    and g, the membership table of S(gamma, delta) on [1, bound] (and
    that of S(alpha, beta) on first use), the lane guard of
    ``walk_heads``, and the certificate threshold Y (None without one).
    A walk stops as proved infinite at an iterate y >= Y above the
    cutoff: every later iterate is larger and in S(alpha, beta)."""

    def __init__(self, p: ParamTuple, bound: int):
        self.p = p
        self.a, self.g = p.pairs
        self.bound = bound
        self.sg = _mark_bitset(self.g, bound)
        self.guard = _lane_guard(p)
        self.Y = _certificate(self.a, self.g)

    @cached_property
    def sa(self) -> bytearray:
        """The S(alpha, beta) table on [1, bound], built on first use:
        ``decompose`` reads only ``sg``."""
        return _mark_bitset(self.a, self.bound)

    def _stop(self, cutoff: int):
        """The least iterate that ends a walk as proved infinite."""
        return inf if self.Y is None else max(self.Y, cutoff + 1)

    def walk(self, x: int, horizon: int, cutoff: int = 0, rec=None,
             j: int = 0):
        """Follow a chain from x, its trajectory point at step j: a head
        in SA\\SG for j = 0, or the step-j iterate of a walk, which this
        call resumes, one step of the module's rule at a time.

        Returns (kind, value, y_last) with kind one of 'finite' (value =
        class index i), 'cand' (value = horizon survived), 'proved'
        (infinite by the certificate), or 'residual' (trajectory left
        N).  rec, if given, collects the trajectory elements from step j
        on that are <= cutoff.
        """
        member, floor = self.a.member, self.g.floor
        stop = self._stop(cutoff)
        y = x
        while True:
            if rec is not None and y <= cutoff:
                rec.append(y)
            if y >= stop:
                return "proved", j, y
            k = member(y)
            if not k:
                return "finite", j + 1, y
            if j >= horizon:
                return "cand", horizon, y
            y = floor(k)
            j += 1
            if y < 1:
                return "residual", j, y

    def head_slices(self, lo: int, hi: int) -> Iterator[np.ndarray]:
        """The heads (in SA\\SG) of [lo, hi] in order, one int64 array
        per slice of CHUNK positions."""
        sg = np.frombuffer(self.sg, dtype=np.uint8)
        sa = np.frombuffer(self.sa, dtype=np.uint8)
        for start in range(lo, hi + 1, CHUNK):
            stop = min(start + CHUNK, hi + 1)
            # tables hold 0 or 1: sa > sg marks SA\SG
            yield np.flatnonzero(sa[start:stop] > sg[start:stop]) + start

    def walk_heads(self, heads: Iterable[np.ndarray], horizon: int,
                   cutoff: int) -> Union["_HeadWalks", "_HeadTally"]:
        """Follow the chains of a stream of heads (int64 arrays in head
        order, each head outside SG), one step of f per round for every
        live lane, through the vectorized kernel.  Lanes live in step
        cohorts (``_Cohorts``): whenever at most CHUNK // 2 lanes are
        live, the next arrays of the stream join them as one cohort at
        step 0 until more are, so rounds stay full and a window pays the
        tail of its longest chains once.  The steps, exits and visibility
        rules are those of ``walk``.  A lane resumes there at its step j
        when its iterate passes the lane guard, and so do the last FINISH
        lanes of an exhausted stream when both pairs' forms have at most
        one radicand.  A head outside SA ends at step 0, as class 1.

        With cutoff >= 1 the elements <= cutoff are visible, and the
        per-head arrays of the whole stream come back as ``_HeadWalks``.
        With cutoff < 1 ended lanes are tallied by step, in O(CHUNK +
        longest step) memory, into a ``_HeadTally``."""
        if cutoff >= 1:
            heads = list(heads)
            live = _Cohorts(cutoff, sum(h.size for h in heads))
        else:
            live = _Cohorts(cutoff)
        stop = self._stop(cutoff)
        if stop > LANE_BOUND:  # past every lane
            stop = inf
        member, floor = self.a.member_lanes, self.g.floor_lanes
        finish = (FINISH if len(self.a.radicands) <= 1
                  and len(self.g.radicands) <= 1 else -1)

        def resume(lanes):
            # each (head index, j, y): y is the step-j iterate, already
            # seen; walk() takes over from it and sees it again
            for lane, j, y in lanes:
                rec: Optional[list[int]] = [] if cutoff >= 1 else None
                kind, val, _ = self.walk(y, horizon, cutoff, rec, j)
                if rec:
                    rec = rec[1:] if y <= cutoff else rec
                    live.see(np.full(len(rec), lane),
                             np.array(rec, dtype=np.int64))
                if kind == "finite":
                    live.record(lane, val - 1, _FINITE)
                elif kind == "residual":
                    live.record(lane, val, _RESIDUAL)

        batches = iter(heads)
        more = True
        while True:
            if more and live.y.size <= CHUNK // 2:
                parts, size, more = [], live.y.size, False
                for h in batches:
                    parts.append(h)
                    size += h.size
                    if size > CHUNK // 2:
                        more = True
                        break
                if parts:
                    live.draw(parts)
            if not more and live.y.size <= finish:
                resume(live.columns())
                break
            if not live.y.size:  # a draw that leaves more heads fills lanes
                break
            top = live.y.max()
            if top > self.guard:
                far = live.y > self.guard
                resume(live.columns(far))
                live.end(far, _INFINITE)  # recorded by resume
            if top >= stop:  # proved infinite
                live.end(live.y >= stop, _INFINITE)
            if not live.y.size:
                continue
            live.y = member(live.y)
            live.end(live.y == 0, _FINITE)  # left SA at step j: class j + 1
            if live.steps.size and live.steps[0] >= horizon:
                live.end_oldest()  # at the horizon: infinity candidates
            live.steps += 1
            live.y = floor(live.y)
            if live.y.size and live.y.min() < 1:
                live.end(live.y < 1, _RESIDUAL)  # left N at step j
            live.see()
        return live.result()


class _Cohorts:
    """The live lanes of one ``_ScanContext.walk_heads`` call, and what
    its ended lanes leave behind.

    The lanes drawn in one round form a cohort and share their step j,
    so a lane is one int64 iterate in ``y`` (and one head index in
    ``heads`` when elements are tracked), cohort by cohort, oldest
    first; ``sizes`` and ``steps`` hold one entry per cohort, at
    strictly descending steps.  Ended lanes are recorded per cohort:
    with tracking as their heads' class codes (j + 1 for _FINITE,
    _RESIDUAL, and _INFINITE by default), otherwise in a tally by step
    j, one row per end code, widened by doubling as the oldest step
    grows and cut to the largest step tallied plus one in ``result``."""

    def __init__(self, cutoff: int, tracked: Optional[int] = None):
        """Tracked is the number of heads whose elements are tracked,
        or None for a tally."""
        empty = np.zeros(0, dtype=np.int64)
        self.y = self.sizes = self.steps = empty
        self.cutoff, self.drawn = cutoff, 0
        self.heads: Optional[np.ndarray] = None
        if tracked is None:
            self.tally = np.zeros((2, 64), dtype=np.int64)  # ends, left
        else:
            self.heads = empty
            self.cls = np.zeros(tracked, dtype=np.int64)
            self.seen_heads, self.seen_values = [empty], [empty]

    def draw(self, parts: list[np.ndarray]) -> None:
        """Add the heads of parts as one cohort at step 0."""
        new = parts[0] if len(parts) == 1 else np.concatenate(parts)
        if not new.size:
            return
        self.y = np.concatenate([self.y, new])
        self.sizes = np.append(self.sizes, new.size)
        self.steps = np.append(self.steps, 0)
        if self.heads is not None:
            lanes = np.arange(self.drawn, self.drawn + new.size)
            self.heads = np.concatenate([self.heads, lanes])
            self.see(lanes, new)
        self.drawn += new.size

    def columns(self, mask: Optional[np.ndarray] = None) -> Iterator:
        """(head index or None, step j, iterate y) of every lane, or of
        the lanes in mask."""
        j, y, heads = np.repeat(self.steps, self.sizes), self.y, self.heads
        if mask is not None:
            j, y = j[mask], y[mask]
            heads = None if heads is None else heads[mask]
        return zip(repeat(None) if heads is None else heads.tolist(),
                   j.tolist(), y.tolist())

    def end(self, gone: np.ndarray, code: int) -> None:
        """Remove the lanes in gone, recording each as code at its step."""
        counts = np.add.reduceat(gone, np.cumsum(self.sizes) - self.sizes,
                                 dtype=np.int64)
        if code != _INFINITE:
            if self.heads is None:
                self._widen(int(self.steps[0]))
                self.tally[int(code == _RESIDUAL), self.steps] += counts
            else:
                self.cls[self.heads[gone]] = (
                    np.repeat(self.steps + 1, counts) if code == _FINITE
                    else _RESIDUAL)
        keep = ~gone
        self.y = self.y[keep]
        if self.heads is not None:
            self.heads = self.heads[keep]
        self.sizes = self.sizes - counts
        if not self.sizes.all():
            some = self.sizes > 0
            self.sizes, self.steps = self.sizes[some], self.steps[some]

    def end_oldest(self) -> None:
        """Remove the oldest cohort, recording nothing."""
        size = int(self.sizes[0])
        self.y = self.y[size:]
        if self.heads is not None:
            self.heads = self.heads[size:]
        self.sizes, self.steps = self.sizes[1:], self.steps[1:]

    def record(self, lane: Optional[int], j: int, code: int) -> None:
        """Record one lane that ended in ``walk`` as code at step j."""
        if self.heads is None:
            self._widen(j)
            self.tally[int(code == _RESIDUAL), j] += 1
        else:
            self.cls[lane] = j + 1 if code == _FINITE else _RESIDUAL

    def _widen(self, j: int) -> None:
        width = self.tally.shape[1]
        if j >= width:
            wider = np.zeros((2, max(j + 1, 2 * width)), dtype=np.int64)
            wider[:, :width] = self.tally
            self.tally = wider

    def see(self, heads: Optional[np.ndarray] = None,
            y: Optional[np.ndarray] = None) -> None:
        """With tracking, note the iterates <= cutoff of the live lanes,
        or the given iterates of the given heads."""
        if self.heads is None:
            return
        if heads is None:
            heads, y = self.heads, self.y
        s = y <= self.cutoff
        self.seen_heads.append(heads[s])
        self.seen_values.append(y[s])

    def result(self) -> Union["_HeadWalks", "_HeadTally"]:
        if self.heads is None:
            ends, left = (row[:np.flatnonzero(row)[-1] + 1] if row.any()
                          else row[:0] for row in self.tally)
            return _HeadTally(self.drawn, ends, left)
        m = self.cls.size
        lanes = np.concatenate(self.seen_heads)
        offsets = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(lanes, minlength=m), out=offsets[1:])
        elements = np.concatenate(self.seen_values)[
            np.argsort(lanes, kind="stable")]
        return _HeadWalks(self.cls, offsets, elements)


class _HeadWalks(NamedTuple):
    """Per-head results of ``_ScanContext.walk_heads`` with cutoff >= 1."""

    cls: np.ndarray  # finite class i, _INFINITE or _RESIDUAL
    # head h saw elements[offsets[h]:offsets[h + 1]], in trajectory order
    offsets: np.ndarray
    elements: np.ndarray


class _HeadTally(NamedTuple):
    """Class tallies of ``_ScanContext.walk_heads`` with cutoff < 1."""

    heads: int
    # each as long as its largest step tallied plus one
    ends: np.ndarray  # at j: heads whose step-j iterate left SA (class j + 1)
    left: np.ndarray  # at j: heads whose chain left N at step j


def _lane_guard(p: ParamTuple) -> int:
    """The largest iterate y that ``walk_heads`` keeps in the kernel: a
    member y <= it has an index k < LANE_BOUND whose floor
    floor(gamma*k + delta) lies in (-LANE_BOUND, LANE_BOUND).

    With K = min(g.first_k_at(LANE_BOUND), LANE_BOUND) the guard is
    min(floor(alpha*K + beta) - 1, LANE_BOUND), or 0 (no iterate) when
    floor(gamma + delta) <= -LANE_BOUND.  Floors grow with k, so a member
    y below floor(alpha*K + beta) has k < K, and floor(gamma*k + delta)
    lies in [floor(gamma + delta), LANE_BOUND)."""
    a, g = p.pairs
    if g.floor(1) <= -LANE_BOUND:
        return 0
    K = min(g.first_k_at(LANE_BOUND), LANE_BOUND)
    return min(a.floor(K) - 1, LANE_BOUND)


def _certificate(a: BeattyPair, g: BeattyPair) -> Optional[int]:
    """For the pairs a of S(alpha, beta) and g of S(gamma, delta), a
    threshold Y such that every y >= Y in S(gamma, delta) lies in
    S(alpha, beta) and has f(y) > y, so a chain reaching Y is infinite;
    or None.

    f(y) > y once (gamma - alpha)*k >= 1 + beta - delta, i.e. for y >=
    floor(alpha*k_f + beta).  The inclusion holds above a member bound
    y0:
    * rational alpha = b/a: above y0 = max(1, floor(alpha + beta),
      floor(gamma + delta)) the limit k >= 1 no longer binds, and k ->
      k + a adds b to floor(b/a*k + beta): membership has period b in
      S(b/a, beta) and d in S(d/c, delta), whatever the shifts.  So the
      inclusion holds above y0 iff it holds on [y0, y0 + lcm(b, d)),
      which the kernel checks; alpha = 1 needs no check, for any gamma.
    * irrational alpha (``_surd_inclusion``): gamma = m*alpha and
      delta = beta + j*alpha for integers m >= 2 and j.
    None for any other alpha, a failed inclusion, a period above
    _PERIOD_CAP, or a period whose member indices pass the int64 lanes.
    Y is a Python int and may pass int64 (gamma = 10^400 * alpha puts it
    near 10^400): ``walk`` stops at it exactly, and ``walk_heads`` tests
    its lanes against it only where it fits them."""
    if isinstance(a.tau, Rational):
        y0 = max(1, a.floor(1), g.floor(1))
        b = a.tau.value.numerator
        if b > 1:
            if not isinstance(g.tau, Rational):
                return None
            period = lcm(b, g.tau.value.numerator)
            # the member index of y is at most first_k + y
            k_top = max(a.first_k, g.first_k) + y0 + period
            if period > _PERIOD_CAP or k_top > LANE_BOUND:
                return None
            y = np.arange(y0, y0 + period, dtype=np.int64)
            y = y[g.member_lanes(y) > 0]
            if not a.member_lanes(y).all():
                return None
    else:
        y0 = _surd_inclusion(a, g)
        if y0 is None:
            return None
    return max(y0, a.floor(_growth_start(a, g)))


def _growth_start(a: BeattyPair, g: BeattyPair) -> int:
    """An integer k_f >= max(1, ceil((1 + beta - delta)/(gamma - alpha))),
    equal to it on a rational tuple: f(y) > y for every member y =
    floor(alpha*k + beta) with k >= k_f.  One exact integer ceiling from
    the four parameters' ``_bounds`` over one denominator den: den*(1 +
    beta - delta) is at most den + sb + wb - sd, and den*(gamma - alpha)
    at least sg - sa - wa, with the bit count doubled from 64 until that
    lower bound is positive (gamma > alpha, so it ends)."""
    bits = 64
    while True:
        ((sa, wa), (sb, wb), (sg, _), (sd, _)), den = _common_bounds(
            (a.tau, a.eta, g.tau, g.eta), bits)
        low = sg - sa - wa
        if low > 0:
            return max(1, -(-(den + sb + wb - sd) // low))
        bits *= 2


def _surd_inclusion(a: BeattyPair, g: BeattyPair) -> Optional[int]:
    """A bound y0 >= 1 with every y >= y0 in S(gamma, delta) inside
    S(alpha, beta), for an irrational alpha with gamma = m*alpha and
    delta - beta = j*alpha, m >= 2 and j integers; or None.  Both
    quotients are exact, so the relations are decided.  Then
    floor(gamma*k + delta) = floor(alpha*(m*k + j) + beta), a member of
    S(alpha, beta) whenever m*k + j >= 1, i.e. for k >= k_j = max(1,
    ceil((1 - j)/m)); floors grow with k, so y0 = floor(gamma*k_j +
    delta) bounds the members with k < k_j."""
    m = _div(g.tau, a.tau)
    if not (isinstance(m, Rational) and m.value.denominator == 1
            and m.value >= 2):
        return None
    j = _div(_add(g.eta, _neg(a.eta)), a.tau)
    if not (isinstance(j, Rational) and j.value.denominator == 1):
        return None
    m, j = m.value.numerator, j.value.numerator
    kj = max(1, -((j - 1) // m))
    return max(1, g.floor(kj))


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def decompose(p: ParamTuple, n: int, horizon: Optional[int] = None) -> ChainDecomposition:
    """Assign every x in [1, n] to exactly one chain segment or to the
    residual set, from tables on [1, n] and the heads above n of
    ``_entry_heads``; trajectory elements above n are classified but
    not listed as covered.  Every x <= n outside S(gamma, delta) heads
    a chain, so one ``walk_heads`` call over those and the entry heads,
    already in head order, classifies every chain, the A_1 singletons
    included."""
    if n < 1:
        raise ValueError("window size must be >= 1")
    if horizon is None:
        horizon = default_horizon(p, n)
    elif horizon < 1:
        raise ValueError("horizon must be >= 1")
    entries = _entry_heads(p, n, horizon)
    ctx = _ScanContext(p, n)
    # every x <= n outside SG heads a chain (an A_1 head leaves SA at
    # step 0: class 1, itself visible), and the entry heads follow
    free = np.flatnonzero(np.frombuffer(ctx.sg, dtype=np.uint8)[1:] == 0) + 1
    heads = np.concatenate([free, entries])
    w = ctx.walk_heads([heads], horizon, n)
    vis = np.diff(w.offsets)
    # a chain that left N leaves its visible elements to the residual
    keep = (w.cls != _RESIDUAL) & (vis > 0)
    classes, lengths = w.cls[keep], vis[keep]
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    elements = w.elements[np.repeat(keep, vis)]

    covered = np.zeros(n + 1, dtype=bool)
    covered[elements] = True
    residual = tuple((np.flatnonzero(~covered[1:]) + 1).tolist())

    # (i, j) tallies of the A_1 and finite chains, keyed in head order
    fin = classes >= 1
    keys = classes[fin] * (n + 1) + lengths[fin]
    uniq, at, tally = np.unique(keys, return_index=True, return_counts=True)
    counts = {divmod(int(uniq[u]), n + 1): int(tally[u]) for u in np.argsort(at)}

    return ChainDecomposition(
        n=n,
        residual=residual,
        counts=counts,
        horizon=horizon,
        heads=heads[keep],
        classes=classes,
        offsets=offsets,
        elements=elements,
    )


def _entry_heads(p: ParamTuple, n: int, horizon: int) -> np.ndarray:
    """The heads above n, in ascending order, of the chains that step
    down into [1, n] within the horizon.  Such a chain enters at a member
    floor(gamma*k + delta) <= n whose predecessor floor(alpha*k + beta)
    is above n (one block of k), and y <- floor(alpha*g.member(y) + beta)
    climbs it while y is in S(gamma, delta), through down-steps with
    growing k < k_f: every lane stays below max(k_f, floor(alpha*k_f +
    beta)), which must not pass LANE_BOUND."""
    a, g = p.pairs
    lo, hi = max(g.first_k, a.first_k_at(n + 1)), g.first_k_at(n + 1)
    if lo >= hi:
        return np.zeros(0, dtype=np.int64)
    kf = _growth_start(a, g)
    if max(kf, a.floor(kf)) > LANE_BOUND:
        raise ValueError(
            f"chains entering [1, {n}] step down from above the int64 lane "
            f"bound 2^62; shifts this large are not supported")
    y = a.floor_lanes(np.arange(lo, hi, dtype=np.int64))
    heads = []
    for _ in range(horizon):
        k = g.member_lanes(y)
        heads.append(y[k == 0])
        y = a.floor_lanes(k[k > 0])
        if not y.size:
            break
    return np.sort(np.concatenate(heads))


# ---------------------------------------------------------------------------
# empirical densities
# ---------------------------------------------------------------------------

def _window_counts(ctx: _ScanContext, lo: int, hi: int, horizon: int,
                   probe: bool):
    """Classify all heads x in [lo, hi] at the horizon, as one
    ``walk_heads`` stream over the window; returns (a1, {i: count},
    candidates, moved).  With probe every head walks to twice the
    horizon, and the counts are read there: moved is the number of
    horizon candidates whose chains ended past the horizon (a finite
    class i > horizon + 1, or an exit from N).  Class keys are in
    ascending order."""
    reach = 2 * horizon if probe else horizon
    t = ctx.walk_heads(ctx.head_slices(lo, hi), reach, 0)
    # A_1: the positions of the window in neither SG nor the heads
    sg = np.frombuffer(ctx.sg, dtype=np.uint8)[lo:hi + 1]
    a1 = sg.size - int(np.count_nonzero(sg)) - t.heads
    cand = t.heads - int(t.ends.sum() + t.left.sum())
    moved = int(t.ends[horizon + 1:].sum() + t.left[horizon + 1:].sum())
    # heads are in SA: steps j >= 1
    finite = {j + 1: int(t.ends[j]) for j in np.flatnonzero(t.ends).tolist()}
    return a1, finite, cand, moved


def empirical_densities(
    p: ParamTuple,
    windows: Sequence[tuple[int, int]],
    horizon: Optional[int] = None,
    K: int = DEFAULT_K,
) -> DensityVector:
    """Per-window head-class frequencies; the returned vector uses the
    largest window, with a convergence diagnostic over the two largest.

    Raises HorizonTooSmall when doubling the horizon moves the
    infinity-candidate mass of the largest window by more than
    ``STABILITY_TOL`` (long finite chains being mistaken for infinite
    ones).  The largest window is counted at the doubled horizon."""
    if K < 2:
        raise ValueError("K must be >= 2")
    wins = sorted(
        (tuple(w) for w in windows), key=lambda w: w[1] - w[0], reverse=True
    )
    if not wins or any(w[0] < 1 or w[1] <= w[0] for w in wins):
        raise ValueError("windows must be non-degenerate (n1 >= 1, n2 > n1)")
    top = max(w[1] for w in wins)
    if horizon is None:
        horizon = default_horizon(p, top)
    elif horizon < 1:
        raise ValueError("horizon must be >= 1")

    # every window reads only its own slice of the tables
    ctx = _ScanContext(p, top)
    per_window = []
    for idx, (lo, hi) in enumerate(wins):
        probe = idx == 0
        a1, fin, cand, moved = _window_counts(ctx, lo, hi, horizon, probe)
        share = moved / (hi - lo + 1)
        if probe and share > STABILITY_TOL:
            raise HorizonTooSmall(
                f"infinity-candidate mass moved by {share:.2e} when "
                f"doubling the horizon from {horizon}; increase the horizon"
            )
        per_window.append((lo, hi, a1, fin, cand))

    def vec(lo, hi, a1c, finc, candc):
        # d_1 .. d_L, L = max(K, largest class), and d_inf
        w = hi - lo + 1
        ent = [0.0] * max([K, *finc])
        ent[0] = a1c / w
        for i, c in finc.items():
            ent[i - 1] = c / w
        return ent, candc / w

    ent, dinf = vec(*per_window[0])

    diagnostic = None
    if len(per_window) >= 2:
        ent2, dinf2 = vec(*per_window[1])
        diagnostic = max(
            max(abs(a - b) for a, b in zip(ent[:K], ent2[:K])),
            abs(dinf - dinf2)
        )

    return DensityVector(
        head=tuple(ent),
        d_inf=dinf,
        K=K,
        provenance=Empirical(windows=tuple(wins), horizon=horizon),
        diagnostic=diagnostic,
    )
