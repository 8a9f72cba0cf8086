"""Binary transition matrices with exact big-integer power sums.

The dimension series consume |A^l| (sum of all entries of the l-th
power) for consecutive l, so powers are grown by successive exact
multiplication and memoized.  Structural predicates (irreducible,
primitive, equal row sums) run on boolean matrices; no floating-point
spectral machinery is involved anywhere.
"""

from __future__ import annotations

import threading
from typing import Iterable, Sequence

_MAT_CACHE_MAX = 128  # full power matrices kept only up to this exponent


def _mat_mul(x: Sequence[Sequence[int]], y: Sequence[Sequence[int]]) -> tuple:
    m = len(x)
    yc = list(zip(*y))
    return tuple(
        tuple(sum(a * b for a, b in zip(row, col)) for col in yc) for row in x
    )


class BinaryMatrix:
    """Immutable m x m 0/1 matrix; power sums are cached thread-safely."""

    __slots__ = ("m", "rows", "row_sums", "_lock", "_sums", "_top", "_mats")

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
        ident = tuple(
            tuple(1 if i == j else 0 for j in range(m)) for i in range(m)
        )
        object.__setattr__(self, "_lock", threading.Lock())
        object.__setattr__(self, "_sums", {0: m})
        object.__setattr__(self, "_top", (0, ident))
        object.__setattr__(self, "_mats", {0: ident})

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

    def _extend_to(self, l: int) -> None:
        top_l, top = self._top
        while top_l < l:
            top = _mat_mul(top, self.rows)
            top_l += 1
            self._sums[top_l] = sum(map(sum, top))
            if top_l <= _MAT_CACHE_MAX:
                self._mats[top_l] = top
        object.__setattr__(self, "_top", (top_l, top))

    def power_sum(self, l: int) -> int:
        """|A^l| as an exact big integer, l >= 0."""
        if l < 0:
            raise ValueError("exponent must be non-negative")
        s = self._sums.get(l)
        if s is not None:
            return s
        with self._lock:
            self._extend_to(l)
            return self._sums[l]

    def power(self, l: int) -> tuple:
        """A^l as a tuple-of-tuples (cached for l <= 128)."""
        if l < 0:
            raise ValueError("exponent must be non-negative")
        mat = self._mats.get(l)
        if mat is not None:
            return mat
        with self._lock:
            mat = self._mats.get(l)
            if mat is not None:
                return mat
            if l <= _MAT_CACHE_MAX:
                self._extend_to(l)
                return self._mats[l]
        # beyond the cache: compute without storing
        top = self.rows
        for _ in range(l - 1):
            top = _mat_mul(top, self.rows)
        return top

    def trace_power(self, l: int) -> int:
        """trace(A^l); l >= 1 (cycle-coloring counts)."""
        if l < 1:
            raise ValueError("cycle length must be >= 1")
        mat = self.power(l)
        return sum(mat[i][i] for i in range(self.m))

    # -- structural predicates ---------------------------------------------

    def _bool_reach(self) -> list[list[bool]]:
        m = self.m
        reach = [[bool(v) for v in row] for row in self.rows]
        for k in range(m):  # Warshall closure
            rk = reach[k]
            for i in range(m):
                if reach[i][k]:
                    ri = reach[i]
                    for j in range(m):
                        if rk[j]:
                            ri[j] = True
        return reach

    def is_irreducible(self) -> bool:
        """True iff the directed graph of A is strongly connected."""
        reach = self._bool_reach()
        return all(all(row) for row in reach)

    def is_primitive(self) -> bool:
        """True iff some power A^k is entrywise positive; k is searched up
        to the Wielandt bound m**2 - 2m + 2."""
        m = self.m
        bound = m * m - 2 * m + 2
        cur = [[bool(v) for v in row] for row in self.rows]
        for _ in range(bound):
            if all(all(row) for row in cur):
                return True
            nxt = [[False] * m for _ in range(m)]
            for i in range(m):
                ci = cur[i]
                ni = nxt[i]
                for k in range(m):
                    if ci[k]:
                        ak = self.rows[k]
                        for j in range(m):
                            if ak[j]:
                                ni[j] = True
            cur = nxt
        return False

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
