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
beta + j*alpha for surd alpha; never from ``regions``, whose closed
forms stay an independent check).  A walk whose iterate reaches Y above
the visible window is proved infinite and stops; without a certificate
it runs to the horizon.

Two walks step along chains by one rule: from the iterate y, k =
a.member(y) (0 ends the chain: y left SA), then y = g.floor(k), with a
and g the ``beatty.BeattyPair`` of S(alpha, beta) and S(gamma, delta).
``_ScanContext.walk`` is the scalar reference: one head at a time on
the pairs' scalar closures, from a head or resuming a walk at its step
j.  ``_ScanContext.walk_heads`` is a refilling lane stream: each round
steps every live lane, each at its own step, through one guarded pass
of each lane kernel, and whenever at most CHUNK // 2 lanes are live it
draws heads from its stream until more are; an iterate past the
kernel's int64 guard resumes in ``walk`` at its step.

``walk_heads`` is the one head-scan engine.  ``decompose`` passes every
head at once and gets per-head arrays (class, contiguity and the
visible elements in CSR form), which it stores as chains in columns,
with the refined counts d_{i,j} (exactly j of the i chain elements
inside [1,n]) and the residual set.
``_window_counts`` streams a window's heads from the tables one slice
of CHUNK positions at a time and keeps only class tallies, from which
``empirical_densities`` estimates d_i; its horizon-doubling probe walks
each head once to twice the horizon and reads the class at the horizon
off that walk.
Membership tables are marked in place from chunked kernel floors, so
windows of 10^6 are routine.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import ceil, floor, inf, isfinite, lcm, log
from typing import (IO, Iterable, Iterator, NamedTuple, Optional, Sequence,
                    Union)

import numpy as np

from .beatty import LANE_BOUND, BeattyPair, ParamTuple, _U, _gap_floor
from .numerics import QuadraticSurd, Rational, _add, _div, _mul, _neg

DEFAULT_K = 40
CHUNK = 1 << 14  # lanes per table-marking call, positions per head slice
STABILITY_TOL = 1e-3  # candidate share a doubled horizon may move
_PERIOD_CAP = 1 << 16  # longest membership period a certificate checks

Num = Union[Fraction, float]


# class codes of the per-head arrays; finite classes use their index i
_INFINITE = 0
_RESIDUAL = -1  # the trajectory left the positive integers


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
    all_contiguous: bool  # every chain's visible part is a contiguous segment
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
    """(d_1 .. d_K, d_inf) with provenance.

    ``head`` holds the leading entries; past ``len(head)`` the entries
    follow the geometric law d_{i+1} = tail_ratio * d_i (zero without a
    ratio or with a head shorter than 2), in exact arithmetic for
    ``Fraction`` heads.  So a rational closed form stores (d_1, d_2)
    whatever K is, and ``finite`` rebuilds d_1 .. d_K on each read.  The
    law also extends closed-form vectors past K; empirical vectors
    instead carry K explicit entries, the measured masses of classes
    beyond K in ``beyond`` and a window-agreement ``diagnostic``.
    Infinity-candidate mass is kept separate from finite tail mass
    throughout.
    """

    head: tuple[Num, ...]
    d_inf: Num
    K: int
    provenance: object
    dij: Optional[dict] = None
    tail_ratio: Optional[Num] = None
    beyond: Optional[dict] = None  # {i: mass} for K < i (empirical)
    diagnostic: Optional[float] = None

    def _float_run(self) -> list[float]:
        """float(d_1) .. float(d_K), each rounded once from its exact
        value.  An exact law steps an unreduced numerator and denominator
        (int / int rounds correctly whatever their common factors), which
        skips the gcds of every Fraction product."""
        h, r = len(self.head), self.tail_ratio
        if h >= self.K:
            return [float(v) for v in self.head[:self.K]]
        if h < 2 or not (isinstance(r, Fraction)
                         and isinstance(self.head[-1], Fraction)):
            return [float(v) for v in self.finite]
        out = [float(v) for v in self.head]
        num, den = self.head[-1].numerator, self.head[-1].denominator
        for _ in range(self.K - h):
            num *= r.numerator
            den *= r.denominator
            out.append(num / den)
        return out

    @property
    def finite(self) -> tuple[Num, ...]:
        """d_1 .. d_K."""
        return tuple(self.entry(i) for i in range(1, self.K + 1))

    def entry(self, i: int) -> Num:
        if i < 1:
            raise ValueError("class index starts at 1")
        h = len(self.head)
        if i <= h:
            return self.head[i - 1]
        if i > self.K and self.beyond:
            return self.beyond.get(i, 0.0)
        if self.tail_ratio is not None and h >= 2:
            return self.head[-1] * self.tail_ratio ** (i - h)
        return 0 * self.head[0]

    def entry_float(self, i: int) -> float:
        return float(self.entry(i))

    def suffix_float(self, i: int) -> float:
        """sum of d_j over j > i (geometric extension / measured tail)."""
        return self._suffix(i, self._float_run())

    def _suffix(self, i: int, finite: list[float]) -> float:
        total = 0.0
        for j in range(i + 1, self.K + 1):
            total += finite[j - 1]
        if self.beyond:
            total += sum(v for jj, v in self.beyond.items() if jj > max(i, self.K))
        elif self.tail_ratio is not None and self.K >= 2:
            rho = float(self.tail_ratio)
            dk = finite[self.K - 1]
            if dk > 0 and rho >= 1:
                raise ValueError("geometric tail with ratio >= 1 is not summable")
            if dk > 0 and rho > 0:
                start = max(i, self.K)
                total += dk * rho ** (start - self.K + 1) / (1.0 - rho)
        return total

    def floats(self, N: int) -> tuple[list[float], list[float]]:
        """d_1 .. d_N and the suffix sums s_i = sum_{j>i} d_j for
        i = 1 .. N, as floats (list index i - 1): one read of the vector
        for a series truncated at N."""
        K = self.K
        finite = self._float_run()
        d = finite[:N]
        if N > K:
            if self.beyond:
                d += [float(self.beyond.get(i, 0.0)) for i in range(K + 1, N + 1)]
            elif self.tail_ratio is not None and K >= 2:
                r = float(self.tail_ratio)
                d += [d[K - 1] * r ** (i - K) for i in range(K + 1, N + 1)]
            else:
                d += [0.0] * (N - K)
        suffix = [0.0] * N
        s = self._suffix(N, finite)
        for i in range(N - 1, -1, -1):
            suffix[i] = s
            s += d[i]
        return d, suffix

    def d_inf_float(self) -> float:
        return float(self.d_inf)

    def is_exact(self) -> bool:
        law = (self.tail_ratio,) if (
            len(self.head) < self.K and self.tail_ratio is not None) else ()
        return all(isinstance(v, Fraction)
                   for v in (*self.head, *law, self.d_inf))


def dij_row(p: ParamTuple, i: int, d_i: Num) -> list:
    """d_{i,j} for j = 1..i: the head density d_i split by how many chain
    elements land in [1, n]: a factor (alpha/gamma)^{j-1} - (alpha/gamma)^j
    for j < i and (alpha/gamma)^{i-1} for j = i (the window analysis of the
    pattern-count product); the row telescopes to d_i exactly."""
    if i == 1:
        return [d_i]
    if isinstance(p.ratio, Rational) and isinstance(d_i, Fraction):
        rho: Num = Fraction(1) / p.ratio.value
    else:
        rho = 1.0 / float(p.ratio.approx())
        d_i = float(d_i)
    row = [d_i * (rho ** (j - 1) - rho ** j) for j in range(1, i)]
    row.append(d_i * rho ** (i - 1))
    return row


def derived_dij(d: DensityVector, p: ParamTuple) -> DensityVector:
    """Copy of d with the d_{i,j} table filled for 1 <= i <= K."""
    table = {}
    for i in range(1, d.K + 1):
        di = d.entry(i)
        if float(di) == 0.0:
            continue
        for j, v in enumerate(dij_row(p, i, di), start=1):
            table[(i, j)] = v
    return DensityVector(
        head=d.head,
        d_inf=d.d_inf,
        K=d.K,
        provenance=d.provenance,
        dij=table,
        tail_ratio=d.tail_ratio,
        beyond=d.beyond,
        diagnostic=d.diagnostic,
    )


# ---------------------------------------------------------------------------
# horizons
# ---------------------------------------------------------------------------

def default_horizon(p: ParamTuple, n: int) -> int:
    """A head x <= n has at most ceil(log_{gamma/alpha}(n + C)) + 2
    trajectory points below any fixed bound, so this horizon sees every
    exit that matters for a size-n window, with slack."""
    try:
        log_ratio = log(p.ratio.approx())
    except OverflowError:  # past the float range: from the exact quotient
        q = p.ratio.enclosure(96)[0]
        log_ratio = log(q.numerator) - log(q.denominator)
    if log_ratio <= 0.0:
        raise ValueError("gamma/alpha must exceed 1")
    return int(ceil(log(max(10 * n, 10)) / log_ratio)) + 8


# ---------------------------------------------------------------------------
# scan machinery
# ---------------------------------------------------------------------------

def _mark_bitset(pair: BeattyPair, bound: int) -> bytearray:
    """Byte membership table of the pair's S(tau, eta) on [1, bound], from
    chunked kernel floors of k = k0, k0 + 1, ..., with k0 = first_k.  A
    first_k past the bound (a large negative shift) is folded into a
    shifted pair, whose lane i holds k0 + i, so lanes stay small whatever
    the shift."""
    tau, k0 = pair.tau, pair.first_k
    table = bytearray(bound + 1)
    marks = np.frombuffer(table, dtype=np.uint8)  # marks in place
    if pair.floor(k0) > bound:  # a large positive shift: no member
        return table
    t = tau.approx() if pair._floats is None else pair._floats[0]
    if k0 > bound:
        pair, k0 = BeattyPair(tau, _add(pair.eta, _mul(tau, Rational(k0)))), 0
    floors = pair.floor_lanes
    # k -> floor(tau*k + eta) steps by at least 1, so about bound/tau
    # lanes land in [1, bound], and none floors above bound + tau*step;
    # where that sum may leave int64 (tau of 2^59 or more), the lanes
    # end at the first k past the bound
    step = min(CHUNK, int(bound / t) + 2)
    if bound + t * step > LANE_BOUND / 4:
        lanes = np.arange(k0, pair.first_k_at(bound + 1), dtype=np.int64)
        marks[floors(lanes)] = 1
        return table
    start = k0
    while True:
        v = floors(np.arange(start, start + step, dtype=np.int64))
        marks[v[v <= bound]] = 1
        if v[-1] > bound:
            return table
        start += step


class _ScanContext:
    """Per-tuple scan state, built once per tuple: the tuple's pairs a
    and g, their membership tables on [1, bound], the lane guard of
    ``walk_heads``, and the certificate threshold Y (None without one).
    A walk stops as proved infinite at an iterate y >= Y above the
    cutoff: every later iterate is larger and in S(alpha, beta)."""

    def __init__(self, p: ParamTuple, bound: int):
        self.p = p
        self.a, self.g = p.pairs
        self.sg = _mark_bitset(self.g, bound)
        self.sa = _mark_bitset(self.a, bound)
        self.guard = _lane_guard(p)
        self.Y = _certificate(self.a, self.g)

    def _stop(self, cutoff: int):
        """The least iterate that ends a walk as proved infinite."""
        return inf if self.Y is None else max(self.Y, cutoff + 1)

    def walk(self, x: int, horizon: int, cutoff: int = 0, rec=None,
             j: int = 0):
        """Follow a chain from x, its trajectory point at step j: a head
        in SA\\SG for j = 0, or the step-j iterate of a walk, which this
        call resumes, one step of the module's rule at a time.

        Returns (kind, value, y_last, vis, contiguous) with kind one of
        'finite' (value = class index i), 'cand' (value = horizon
        survived), 'proved' (infinite by the certificate), or
        'residual' (trajectory left N).  vis counts trajectory elements
        from step j on that are <= cutoff; rec, if given, collects them;
        contiguous reports whether the visible elements sit at
        consecutive trajectory positions (the condition for the
        pattern-count product form).
        """
        first = last = j if x <= cutoff else -1
        vis = 1 if x <= cutoff else 0
        if rec is not None and x <= cutoff:
            rec.append(x)
        member, floor = self.a.member, self.g.floor
        stop = self._stop(cutoff)
        y = x
        while True:
            if y >= stop:
                kind, val = "proved", j
                break
            k = member(y)
            if not k:
                kind, val = "finite", j + 1
                break
            if j >= horizon:
                kind, val = "cand", horizon
                break
            y = floor(k)
            j += 1
            if y < 1:
                kind, val = "residual", j
                break
            if y <= cutoff:
                vis += 1
                if first < 0:
                    first = j
                last = j
                if rec is not None:
                    rec.append(y)
        contiguous = vis == 0 or last - first + 1 == vis
        return (kind, val, y, vis, contiguous)

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
        order, each head in SA\\SG), one step of f per round for every
        live lane, through the vectorized kernel.  A lane is a column
        (head index, step j, iterate y), and whenever at most CHUNK // 2
        lanes are live the next arrays of the stream join them until more
        are, so rounds stay full and a window pays the tail of its
        longest chains once.  The steps, exits and visibility rules are
        those of ``walk``; a lane whose iterate passes the lane guard
        resumes there at its step j.

        A lane ends as the column (head index, j, k): k = 0 when its
        step-j iterate left SA (class j + 1), k < 0 when the chain left
        N at step j, k > 0 for an infinity candidate or a chain proved
        infinite.  With cutoff >= 1 the elements <= cutoff are visible,
        and the per-head arrays of the whole stream come back as
        ``_HeadWalks``.  With cutoff < 1 ended lanes are tallied, in
        O(CHUNK + horizon) memory, into a ``_HeadTally``."""
        track = cutoff >= 1
        if track:
            heads = list(heads)
            m = sum(h.size for h in heads)
            cls = np.zeros(m, dtype=np.int64)
            vis = np.zeros(m, dtype=np.int64)
            first = np.full(m, -1, dtype=np.int64)
            last = np.full(m, -1, dtype=np.int64)
        else:
            ends = np.zeros(horizon + 1, dtype=np.int64)
            earliest = np.full(horizon + 1, np.iinfo(np.int64).max)
            left = np.zeros(horizon + 1, dtype=np.int64)
        seen_lanes = [np.zeros(0, dtype=np.int64)]
        seen_values = [np.zeros(0, dtype=np.int64)]
        resumed: dict[int, bool] = {}  # lane -> contiguity
        ended: list[np.ndarray] = []  # end columns not yet tallied
        pending = 0

        def see(lanes, y, j):
            if not track:
                return
            s = y <= cutoff
            lanes, j = lanes[s], j[s]
            vis[lanes] += 1
            first[lanes] = np.where(first[lanes] < 0, j, first[lanes])
            last[lanes] = j
            seen_lanes.append(lanes)
            seen_values.append(y[s])

        def end(cols):
            # end columns wait until CHUNK // 4 of them are tallied at
            # once, so rounds with few lanes pay no tally of their own
            nonlocal pending
            ended.append(cols)
            pending += cols.shape[1]
            if pending >= CHUNK // 4:
                tally()

        def tally():
            nonlocal pending
            lanes, j, k = (ended[0] if len(ended) == 1
                           else np.concatenate(ended, axis=1))
            ended.clear()
            pending = 0
            out, fin = k < 0, k == 0
            if track:
                cls[lanes] = np.where(fin, j + 1,
                                      np.where(out, _RESIDUAL, _INFINITE))
                return
            steps = j[fin]
            ends[:] += np.bincount(steps, minlength=horizon + 1)
            np.minimum.at(earliest, steps, lanes[fin])
            if out.any():
                left[:] += np.bincount(j[out], minlength=horizon + 1)

        def resume(lane, j, y):
            # y is the step-j iterate, already seen; walk() takes over
            # from it and sees it again.  Returns the lane's end column.
            rec: Optional[list[int]] = [] if track else None
            kind, val, _, _, tail_ok = self.walk(y, horizon, cutoff, rec, j)
            if track:
                if y <= cutoff:
                    del rec[0]
                # an unseen step j splits two non-empty visible parts
                split = y > cutoff and rec and vis[lane]
                resumed[lane] = bool(tail_ok and not split and (
                    vis[lane] == 0
                    or last[lane] - first[lane] + 1 == vis[lane]))
                seen_lanes.append(np.full(len(rec), lane, dtype=np.int64))
                seen_values.append(np.array(rec, dtype=np.int64))
            if kind == "finite":
                return lane, val - 1, 0
            return (lane, val, -1) if kind == "residual" else (lane, j, 1)

        stop = self._stop(cutoff)
        batches = iter(heads)
        drawn = 0

        def draw(live):
            # live, joined at step 0 by the lanes of the stream's next
            # heads until more than CHUNK // 2 lanes are live
            nonlocal drawn
            parts, size = [live], live.shape[1]
            for h in batches:
                new = np.zeros((3, h.size), dtype=np.int64)
                new[0] = np.arange(drawn, drawn + h.size)
                new[2] = h
                drawn += h.size
                see(new[0], h, new[1])
                parts.append(new)
                size += h.size
                if size > CHUNK // 2:
                    break
            return np.concatenate(parts, axis=1)

        live = np.zeros((3, 0), dtype=np.int64)  # rows: head index, j, y
        while True:
            if live.shape[1] <= CHUNK // 2:
                live = draw(live)
            if not live.shape[1]:
                break
            far = live[2] > self.guard
            if far.any():
                end(np.array([resume(*c) for c in live[:, far].T.tolist()],
                             dtype=np.int64).T)
                live = live.compress(~far, axis=1)
            # out of SA (k = 0), at the horizon, or proved infinite
            out = live[1] >= horizon
            if stop <= LANE_BOUND:
                out |= live[2] >= stop
            live[2] = self.a.member_lanes(live[2])
            out |= live[2] == 0
            gone, live = (live.compress(out, axis=1),
                          live.compress(~out, axis=1))
            end(gone)
            live[1] += 1
            live[2] = self.g.floor_lanes(live[2])
            out = live[2] < 1
            if out.any():  # left N at step j
                gone, live = (live.compress(out, axis=1),
                              live.compress(~out, axis=1))
                gone[2] = -1
                end(gone)
            see(live[0], live[2], live[1])
        if ended:
            tally()

        if not track:
            return _HeadTally(drawn, ends, earliest, left)
        contiguous = (vis == 0) | (last - first + 1 == vis)
        for lane, ok in resumed.items():
            contiguous[lane] = ok
        lanes = np.concatenate(seen_lanes)
        offsets = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(lanes, minlength=m), out=offsets[1:])
        elements = np.concatenate(seen_values)[np.argsort(lanes, kind="stable")]
        return _HeadWalks(cls, contiguous, offsets, elements)


class _HeadWalks(NamedTuple):
    """Per-head results of ``_ScanContext.walk_heads`` with cutoff >= 1."""

    cls: np.ndarray  # finite class i, _INFINITE or _RESIDUAL
    contiguous: np.ndarray  # visible elements sit at consecutive steps
    # head h saw elements[offsets[h]:offsets[h + 1]], in trajectory order
    offsets: np.ndarray
    elements: np.ndarray


class _HeadTally(NamedTuple):
    """Class tallies of ``_ScanContext.walk_heads`` with cutoff < 1."""

    heads: int
    ends: np.ndarray  # at j: heads whose step-j iterate left SA (class j + 1)
    first: np.ndarray  # at j: the head index of the first of those
    left: np.ndarray  # at j: heads whose chain left N at step j


def _lane_guard(p: ParamTuple) -> int:
    """The largest iterate y that ``walk_heads`` keeps in the kernel: a
    member y <= it has k <= y + |beta| + 1 (alpha >= 1), so every floor
    of a step stays below LANE_BOUND.

    Any guard at or below floor((LANE_BOUND - |delta|)/gamma - |beta|) - 3
    keeps that promise, and so does any guard below 1, which keeps no
    iterate.  This one comes from the pairs' float enclosures, less twice
    the bound 4u((LANE_BOUND + |delta|)/gamma + |beta|) on the rounding
    of the float steps.  A value past the float range (2^1024) makes the
    formula negative: then the guard is -3."""
    a, g = p.pairs
    if a._floats is None or g._floats is None:
        return -3
    e, ee = a._floats[2:]
    tg, etg, eg, eeg = g._floats
    b, d = abs(e) + ee, abs(eg) + eeg
    y = (LANE_BOUND - d) / (tg + etg) - b
    y -= 8.0 * _U * ((LANE_BOUND + d) / (tg + etg) + b) + 1.0
    return floor(y) - 3 if isfinite(y) else -3


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
    """An integer k_f >= max(1, (1 + beta - delta)/(gamma - alpha)): f(y)
    > y for every member y = floor(alpha*k + beta) with k >= k_f.  From
    the float enclosures over ``_gap_floor``, the numerator's four terms
    raised by 8u times their magnitude sum; from 64-bit enclosures where
    ``_gap_floor`` declines."""
    gap = _gap_floor(a, g)
    if gap > 0.0:
        e, ee = a._floats[2:]
        eg, eeg = g._floats[2:]
        top = 1.0 + e - eg + (ee + eeg)
        top += 8.0 * _U * (1.0 + abs(e) + abs(eg) + ee + eeg)
        q = top / gap * (1.0 + 4.0 * _U)
        if q < 2.0 ** 62:
            return max(1, ceil(q))
    gap = _div(_add(_add(Rational(Fraction(1)), a.eta), _neg(g.eta)),
               _add(g.tau, _neg(a.tau)))
    hi = gap.enclosure(64)[1]
    return max(1, -(-hi.numerator // hi.denominator))


def _surd_inclusion(a: BeattyPair, g: BeattyPair) -> Optional[int]:
    """A bound y0 >= 1 with every y >= y0 in S(gamma, delta) inside
    S(alpha, beta), for a quadratic surd alpha with gamma = m*alpha and
    delta - beta = j*alpha (m >= 2 and j integers, decided exactly in the
    field); or None.  Then floor(gamma*k + delta) = floor(alpha*(m*k + j)
    + beta), a member of S(alpha, beta) whenever m*k + j >= 1, i.e. for k
    >= k_j = max(1, ceil((1 - j)/m)); floors grow with k, so y0 =
    floor(gamma*k_j + delta) bounds the members with k < k_j.  Pairs
    outside one quadratic field (cross-field shifts, intervals) give
    None."""
    if not isinstance(a.tau, QuadraticSurd) or a.form is None or g.form is None:
        return None
    # alpha = (A + B*sqrt(D))/Z with B != 0, beta = (E + F*sqrt(D))/Z, and
    # likewise gamma and delta over Z2: compare the rational and the
    # sqrt(D) parts of gamma = m*alpha and delta - beta = j*alpha
    A, B, E, F, Z, D = a.form
    A2, B2, E2, F2, Z2, D2 = g.form
    m, rm = divmod(B2 * Z, B * Z2)
    j, rj = divmod(F2 * Z - F * Z2, B * Z2)
    if (D2 != D or rm or rj or m * A * Z2 != A2 * Z
            or j * A * Z2 != E2 * Z - E * Z2):
        return None
    kj = max(1, -((j - 1) // m))
    return max(1, g.floor(kj))


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def decompose(p: ParamTuple, n: int, horizon: Optional[int] = None) -> ChainDecomposition:
    """Assign every x in [1, n] to exactly one chain segment or to the
    residual set.  Chains headed up to n + C are scanned because early
    anomalous chains may dip back below n; trajectory elements above n
    are classified but not listed as covered."""
    if n < 1:
        raise ValueError("window size must be >= 1")
    if horizon is None:
        horizon = default_horizon(p, n)
    elif horizon < 1:
        raise ValueError("horizon must be >= 1")
    bound = n + p.chain_bound_int()
    ctx = _ScanContext(p, bound)
    free = np.frombuffer(ctx.sg, dtype=np.uint8)[1:] == 0  # x = index + 1
    in_sa = np.frombuffer(ctx.sa, dtype=np.uint8)[1:] == 1
    heads = np.flatnonzero(in_sa & free) + 1
    w = ctx.walk_heads([heads], horizon, n)
    vis = np.diff(w.offsets)
    # a chain that left N leaves its visible elements to the residual
    keep = (w.cls != _RESIDUAL) & (vis > 0)
    a1 = np.flatnonzero(free[:n] & ~in_sa[:n]) + 1
    ones = np.ones(a1.size, dtype=np.int64)

    chain_heads = np.concatenate([heads[keep], a1])
    order = np.argsort(chain_heads, kind="stable")
    chain_heads = chain_heads[order]
    classes = np.concatenate([w.cls[keep], ones])[order]
    lengths = np.concatenate([vis[keep], ones])[order]
    starts = np.concatenate(
        [w.offsets[:-1][keep], w.elements.size + np.arange(a1.size)])[order]
    offsets = np.zeros(order.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    gather = np.repeat(starts - offsets[:-1], lengths) + np.arange(offsets[-1])
    elements = np.concatenate([w.elements, a1])[gather]

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
        all_contiguous=bool(w.contiguous[keep].all()),
        heads=chain_heads,
        classes=classes,
        offsets=offsets,
        elements=elements,
    )


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
    class i > horizon + 1, or an exit from N).  Class keys are in order
    of first appearance, with those past horizon + 1 last: the order of
    a horizon scan followed by a probe, which the float sums over
    ``DensityVector.beyond`` follow."""
    reach = 2 * horizon if probe else horizon
    t = ctx.walk_heads(ctx.head_slices(lo, hi), reach, 0)
    # A_1: the positions of the window in neither SG nor the heads
    sg = np.frombuffer(ctx.sg, dtype=np.uint8)[lo:hi + 1]
    a1 = sg.size - int(np.count_nonzero(sg)) - t.heads
    cand = t.heads - int(t.ends.sum() + t.left.sum())
    moved = int(t.ends[horizon + 1:].sum() + t.left[horizon + 1:].sum())
    steps = np.flatnonzero(t.ends)  # heads are in SA: steps j >= 1
    steps = steps[np.argsort(t.first[steps])]
    if probe:
        steps = steps[np.argsort(steps > horizon, kind="stable")]
    finite = {j + 1: int(t.ends[j]) for j in steps.tolist()}
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

    lo, hi, a1, fin, cand = per_window[0]
    width = hi - lo + 1

    def vec(a1c, finc, candc, w):
        ent = [0.0] * K
        ent[0] = a1c / w
        for i, c in finc.items():
            if 2 <= i <= K:
                ent[i - 1] = c / w
        beyond = {i: c / w for i, c in finc.items() if i > K}
        return ent, candc / w, beyond

    ent, dinf, beyond = vec(a1, fin, cand, width)

    diagnostic = None
    if len(per_window) >= 2:
        l2, h2, a12, fin2, cand2 = per_window[1]
        ent2, dinf2, _ = vec(a12, fin2, cand2, h2 - l2 + 1)
        diagnostic = max(
            max(abs(a - b) for a, b in zip(ent, ent2)), abs(dinf - dinf2)
        )

    return DensityVector(
        head=tuple(ent),
        d_inf=dinf,
        K=K,
        provenance=Empirical(windows=tuple(wins), horizon=horizon),
        beyond=beyond or None,
        diagnostic=diagnostic,
    )
