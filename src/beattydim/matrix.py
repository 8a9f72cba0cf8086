"""Binary transition matrices: power sums, exact and in log scale.

|A^l| is the sum of all entries of the l-th power.  The exact sums come
from the vector recursion u_0 = 1, u_l = A u_{l-1}, so |A^l| = sum(u_l):
each step is big-integer additions along the ones of A.  They are
memoized as one list |A^0|, |A^1|, ... next to the last u, with no lock
(see ``power_sums``); the oracles and the tests read them.

The Minkowski series reads log|A^l| instead, from the same recursion in
floats (``log_power_sums``): u_l is kept as 2^e v with the power of two
split off exactly, so no float leaves its range.  With each log comes
the Collatz-Wielandt bracket of every later growth factor: once v > 0,
min_i and max_i of (A v)_i / v_i bound |A^(l'+1)| / |A^l'| for all
l' >= l (Seneta, Non-negative Matrices and Markov Chains, 1981),
widened by their rounding.
Structural predicates (irreducible, primitive, equal row sums) run on
numpy boolean matrices.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable, Iterator, Sequence

import numpy as np


_LN2 = math.log(2.0)
_TINY = sys.float_info.min  # the smallest normal float
_EPS = sys.float_info.epsilon


def block_sizes(n: int, cap: float = math.inf) -> Iterator[int]:
    """Row counts of the blocks in which the float recursions of the
    dimension series run, n rows in all: 32, then twice as many each
    time, at most cap at once.  A series that stops early has computed
    at most 32 rows or twice the rows it read, whichever is more."""
    size, done = 32, 0
    while done < n:
        k = min(size, cap, n - done)
        yield k
        done, size = done + k, 2 * size


def _mat_mul(x: Sequence[Sequence[int]], y: Sequence[Sequence[int]]) -> tuple:
    yc = list(zip(*y))
    return tuple(
        tuple(sum(a * b for a, b in zip(row, col)) for col in yc) for row in x
    )


class BinaryMatrix:
    """Immutable m x m 0/1 matrix with memoized power sums."""

    __slots__ = ("m", "rows", "row_sums", "_ones", "_memo")

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = tuple(tuple(int(v) for v in r) for r in rows)
        m = len(rows)
        if m < 2:
            raise ValueError(f"matrix dimension must be >= 2, got {m}")
        for r in rows:
            if len(r) != m:
                raise ValueError("matrix must be square")
            for v in r:
                if v not in (0, 1):
                    raise ValueError(f"entries must be 0 or 1, got {v}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "row_sums", tuple(sum(r) for r in rows))
        # column indices of the ones of each row
        object.__setattr__(self, "_ones", tuple(
            tuple(j for j, v in enumerate(r) if v) for r in rows))
        # ([|A^0|, ..., |A^l|], u_l), replaced as a whole when extended
        object.__setattr__(self, "_memo", ([m], [1] * m))

    def __setattr__(self, *a):
        raise AttributeError("BinaryMatrix is immutable")

    @classmethod
    def from_string(cls, text: str) -> "BinaryMatrix":
        """Rows of 0/1 characters separated by ';' or newlines: "11;10"."""
        rows = [r.strip() for r in text.replace(";", "\n").splitlines() if r.strip()]
        if not rows:
            raise ValueError("empty matrix specification")
        for r in rows:
            bad = set(r) - {"0", "1"}
            if bad:
                raise ValueError(f"matrix rows must be 0/1 strings, got {r!r}")
        return cls([[int(c) for c in r] for r in rows])

    @classmethod
    def all_ones(cls, m: int) -> "BinaryMatrix":
        return cls([[1] * m for _ in range(m)])

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def power_sums(self, N: int) -> list[int]:
        """[|A^0|, ..., |A^(N-1)|] as exact big integers, N >= 0.

        Thread-safe without a lock: a caller extends a copy of the
        memoized (sums, u) snapshot and publishes it in one assignment,
        and every thread computes the same value for each l.  A slower
        thread may publish a shorter snapshot after a longer one; that
        costs recomputation only."""
        if N < 0:
            raise ValueError("term count must be non-negative")
        sums, u = self._memo
        if len(sums) < N:
            sums = sums.copy()
            ones = self._ones
            while len(sums) < N:
                get = u.__getitem__
                u = [sum(map(get, js)) for js in ones]
                sums.append(sum(u))
            if len(sums) > len(self._memo[0]):
                object.__setattr__(self, "_memo", (sums, u))
        return sums[:N]

    def log_power_sums(self, n: int) -> Iterator[
            tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """log|A^l| and its Collatz-Wielandt bracket for l = 0, ..., n-1,
        in the blocks of consecutive l that ``block_sizes`` lays out.

        Each block is three arrays over its l: log|A^l| (-inf where
        |A^l| = 0), log a_l and log b_l, with a_l = min_i (A v)_i / v_i
        and b_l = max_i (A v)_i / v_i for the float iterate v of A^l 1,
        or nan where v has an entry below the smallest normal float or
        A v a zero entry.  From a v <= A v <= b v and A >= 0 follows
        a A^j v <= A^(j+1) v <= b A^j v for every j, so each later step
        of the recursion from v grows the sum by a factor in [a_l, b_l]:
        log|A^(l'+1)| - log|A^l'| lies in [log a_l, log b_l] for all
        l' >= l, up to the rounding of v itself.  The two logs are widened by the rounding of the m-term
        product A v, of the quotient and of the log, so the bracket holds
        for the exact a_l and b_l of the iterate.  Each l costs one float
        matrix-vector product; between blocks the power of two of the
        largest entry is split off, exactly for normal entries, and a
        block is short enough that no product overflows."""
        A = np.array(self.rows, dtype=float)
        # the largest entry grows at most by the largest row sum per step
        cap = 1000 // max(1, max(self.row_sums)).bit_length()
        v, e = np.ones(self.m), 0  # A^l 1 = 2^e v
        for size in block_sizes(n, cap):
            V = np.empty((size + 1, self.m))
            V[0] = v
            for j in range(size):
                V[j + 1] = A @ V[j]
            V, X = V[:-1], V[1:]  # X = A V
            with np.errstate(divide="ignore", invalid="ignore"):
                log_s = e * _LN2 + np.log(V.sum(axis=1))
                R = X / V
            ok = (V.min(axis=1) >= _TINY) & (X.min(axis=1) > 0.0)
            lo = np.log(R.min(axis=1), out=np.full(size, np.nan), where=ok)
            hi = np.log(R.max(axis=1), out=np.full(size, np.nan), where=ok)
            r = _EPS * (self.m + 2 + 4 * np.maximum(abs(lo), abs(hi)))
            yield log_s, lo - r, hi + r
            k = math.frexp(float(X[-1].max()))[1]
            v, e = X[-1] * 2.0 ** -k, e + k

    def power_sum(self, l: int) -> int:
        """|A^l| as an exact big integer, l >= 0: a read of
        ``power_sums``."""
        if l < 0:
            raise ValueError("exponent must be non-negative")
        return self.power_sums(l + 1)[l]

    def power(self, l: int) -> tuple:
        """A^l as a tuple-of-tuples, by l plain products."""
        if l < 0:
            raise ValueError("exponent must be non-negative")
        if l == 0:
            return tuple(
                tuple(int(i == j) for j in range(self.m)) for i in range(self.m)
            )
        mat = self.rows
        for _ in range(l - 1):
            mat = _mat_mul(mat, self.rows)
        return mat

    def trace_power(self, l: int) -> int:
        """trace(A^l); l >= 1 (cycle-coloring counts)."""
        if l < 1:
            raise ValueError("cycle length must be >= 1")
        mat = self.power(l)
        return sum(mat[i][i] for i in range(self.m))

    # -- structural predicates ---------------------------------------------

    def is_irreducible(self) -> bool:
        """True iff the directed graph of A is strongly connected: the
        closure (I + A)^(m-1), taken by boolean squaring, is all true."""
        reach = np.array(self.rows, dtype=bool) | np.eye(self.m, dtype=bool)
        steps = 1
        while steps < self.m - 1:
            reach = reach @ reach
            steps *= 2
        return bool(reach.all())

    def is_primitive(self) -> bool:
        """True iff some power A^k is entrywise positive.  Once a power
        is positive every later one is, and a primitive A has one at the
        Wielandt bound m**2 - 2m + 2, so A^k is taken by boolean squaring
        until k reaches that bound."""
        bound = self.m * self.m - 2 * self.m + 2
        power = np.array(self.rows, dtype=bool)
        k = 1
        while k < bound:
            power = power @ power
            k *= 2
        return bool(power.all())

    def row_sums_equal(self) -> bool:
        return len(set(self.row_sums)) == 1

    def __eq__(self, other):
        if isinstance(other, BinaryMatrix):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "BinaryMatrix(%s)" % ";".join(
            "".join(str(v) for v in row) for row in self.rows
        )


GOLDEN_MEAN = BinaryMatrix([[1, 1], [1, 0]])
