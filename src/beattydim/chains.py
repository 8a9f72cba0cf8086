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
j; it returns the chain's end (kind, value, last iterate) and collects
the visible elements on request.  ``_ScanContext.walk_heads`` is a
refilling lane stream: each round steps every live lane, each at its
own step, through one guarded pass of each lane kernel, and whenever at
most CHUNK // 2 lanes are live it draws heads from its stream until
more are; an iterate past the kernel's int64 guard resumes in ``walk``
at its step.

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
from math import ceil, inf, lcm, log
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
        d += [dl * rho ** (i - L) for i in range(L + 1, N + 1)]
        if dl > 0 and rho >= 1:
            raise ValueError("geometric tail with ratio >= 1 is not summable")
        if dl > 0 and rho > 0:
            s += dl * rho ** (max(N, L) - L + 1) / (1.0 - rho)
        suffix = [0.0] * N
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
        tau = pair.tau
        pair = BeattyPair(tau, _add(pair.eta, _mul(tau, Rational(k0))))
        k0, k1 = 0, k1 - k0
    for start in range(k0, k1, CHUNK):
        lanes = np.arange(start, min(start + CHUNK, k1), dtype=np.int64)
        marks[pair.floor_lanes(lanes)] = 1
    return table


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
        live lane, through the vectorized kernel.  A lane is a column
        (head index, step j, iterate y), and whenever at most CHUNK // 2
        lanes are live the next arrays of the stream join them until more
        are, so rounds stay full and a window pays the tail of its
        longest chains once.  The steps, exits and visibility rules are
        those of ``walk``; a lane whose iterate passes the lane guard
        resumes there at its step j.  A head outside SA ends at step 0,
        as class 1.

        A lane ends as the column (head index, j, k): k = 0 when its
        step-j iterate left SA (class j + 1), k < 0 when the chain left
        N at step j, k > 0 for an infinity candidate or a chain proved
        infinite.  With cutoff >= 1 the elements <= cutoff are visible,
        and the per-head arrays of the whole stream come back as
        ``_HeadWalks``.  With cutoff < 1 ended lanes are tallied, in
        O(CHUNK + longest step) memory, into a ``_HeadTally``."""
        track = cutoff >= 1
        if track:
            heads = list(heads)
            m = sum(h.size for h in heads)
            cls = np.zeros(m, dtype=np.int64)
        else:  # grown to the largest step tallied, not to the horizon
            ends = left = np.zeros(0, dtype=np.int64)
        seen_lanes = [np.zeros(0, dtype=np.int64)]
        seen_values = [np.zeros(0, dtype=np.int64)]
        ended: list[np.ndarray] = []  # end columns not yet tallied
        pending = 0

        def see(lanes, y):
            if not track:
                return
            s = y <= cutoff
            seen_lanes.append(lanes[s])
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
            nonlocal pending, ends, left
            lanes, j, k = (ended[0] if len(ended) == 1
                           else np.concatenate(ended, axis=1))
            ended.clear()
            pending = 0
            out, fin = k < 0, k == 0
            if track:
                cls[lanes] = np.where(fin, j + 1,
                                      np.where(out, _RESIDUAL, _INFINITE))
                return
            ends = _add_counts(ends, j[fin])
            if out.any():
                left = _add_counts(left, j[out])

        def resume(lane, j, y):
            # y is the step-j iterate, already seen; walk() takes over
            # from it and sees it again.  Returns the lane's end column.
            rec: Optional[list[int]] = [] if track else None
            kind, val, _ = self.walk(y, horizon, cutoff, rec, j)
            if track:
                if y <= cutoff:
                    del rec[0]
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
                see(new[0], h)
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
            see(live[0], live[2])
        if ended:
            tally()

        if not track:
            return _HeadTally(drawn, ends, left)
        lanes = np.concatenate(seen_lanes)
        offsets = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(lanes, minlength=m), out=offsets[1:])
        elements = np.concatenate(seen_values)[np.argsort(lanes, kind="stable")]
        return _HeadWalks(cls, offsets, elements)


def _add_counts(acc: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """acc plus the bincount of steps, as long as the longer of the two."""
    c = np.bincount(steps, minlength=acc.size)
    c[:acc.size] += acc
    return c


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
