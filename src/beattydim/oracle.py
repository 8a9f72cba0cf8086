"""Independent pattern counting on [1, n].

``count_patterns`` builds the constraint graph from the raw (u, v) index
pairs -- no use of the chain classification -- and multiplies exact
per-component coloring counts.  Injectivity of k -> floor(tau*k + eta)
caps every in- and out-degree at 1, so components are simple paths or
(rarely, among elements below the growth bound) short cycles.  The
components are tallied by length; one dynamic program along A gives the
path count for every length up to the longest path, and each cycle
length counts the trace of the matching matrix power.
``exhaustive_count`` enumerates every word of length n outright as one
boolean tensor with an axis per position, and checks each visible
constraint against every word: a ground-truth oracle for small n, with
m**n bytes of memory.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .beatty import ParamTuple, constraint_edges
from .chains import ChainDecomposition
from .matrix import BinaryMatrix

CAP_BITS = 24  # exhaustive_count enumerates at most 2**CAP_BITS words


class NonPathComponent(RuntimeError):
    """A vertex with in- or out-degree above 1: impossible under the
    injectivity of the index maps; internal-consistency failure."""


class CapExceeded(ValueError):
    """Exhaustive enumeration asked for m**n beyond the configured cap."""


class ProductFormInapplicable(ValueError):
    """The chain decomposition does not factor the pattern count: a
    chain's visible part is not contiguous, or a residual element (of a
    chain that left N) is constrained."""


@dataclass(frozen=True)
class PatternCount:
    n: int
    count: int
    method: str  # "component-dp" | "exhaustive"
    components: int


def _path_counts(A: BinaryMatrix, longest: int) -> list[int]:
    """pc[L] = colorings of a path with L vertices, for every
    L <= longest: one DP along the edges."""
    vec = [1] * A.m
    rows = A.rows
    pc = [1, A.m]
    for _ in range(longest - 1):
        vec = [sum(rows[s][t] * vec[t] for t in range(A.m)) for s in range(A.m)]
        pc.append(sum(vec))
    return pc


def count_patterns(p: ParamTuple, A: BinaryMatrix, n: int) -> PatternCount:
    """Exact number of admissible words of length n (big integer)."""
    if n < 1:
        raise ValueError("window size must be >= 1")
    edges = constraint_edges(p, n)
    out: dict[int, int] = {}
    indeg: dict[int, int] = {}
    for u, v in edges:
        if u in out:
            raise NonPathComponent(f"vertex {u} has two outgoing constraints")
        out[u] = v
        indeg[v] = indeg.get(v, 0) + 1
        if indeg[v] > 1:
            raise NonPathComponent(f"vertex {v} has two incoming constraints")
    vertices = set(out) | set(indeg)
    visited: set[int] = set()
    paths: Counter[int] = Counter()  # path length -> number of paths
    cycles: Counter[int] = Counter()
    # paths: start anywhere without an incoming edge
    for start in sorted(vertices):
        if start in visited or start in indeg:
            continue
        length = 1
        visited.add(start)
        cur = start
        while cur in out:
            cur = out[cur]
            visited.add(cur)
            length += 1
        paths[length] += 1
    # remaining vertices lie on cycles
    for start in sorted(vertices):
        if start in visited:
            continue
        length = 0
        cur = start
        while True:
            visited.add(cur)
            length += 1
            cur = out[cur]
            if cur == start:
                break
            if cur in visited:
                raise NonPathComponent("malformed cycle in constraint graph")
        cycles[length] += 1
    isolated = n - len(vertices)
    pc = _path_counts(A, max(paths, default=1))
    count = A.m ** isolated
    for length, c in paths.items():
        count *= pc[length] ** c
    for length, c in cycles.items():
        count *= A.trace_power(length) ** c
    return PatternCount(
        n=n, count=count, method="component-dp",
        components=paths.total() + cycles.total() + isolated,
    )


def exhaustive_count(p: ParamTuple, A: BinaryMatrix, n: int) -> int:
    """Enumerate all m**n words, keep those satisfying every constraint
    with both endpoints in [1, n].  Requires m**n <= 2**CAP_BITS.

    The words are the cells of one boolean tensor of shape (m,) * n,
    whose axis i is the symbol at position i + 1.  Each edge (u, v) ANDs
    in A broadcast onto axes u - 1 and v - 1 (A.T when u > v, the
    diagonal of A when u = v), so every word is checked against every
    edge.  Memory is m**n bytes, 16 MiB at the cap."""
    m = A.m
    if n < 1:
        raise ValueError("window size must be >= 1")
    if n * math.log2(m) > CAP_BITS:
        raise CapExceeded(f"m^n = {m}**{n} exceeds the 2**{CAP_BITS} cap")
    allowed = np.array(A.rows, dtype=bool)
    ok = np.ones((m,) * n, dtype=bool)
    for u, v in constraint_edges(p, n):
        shape = [1] * n
        shape[u - 1] = shape[v - 1] = m
        if u == v:
            ok &= allowed.diagonal().reshape(shape)
        else:
            ok &= (allowed if u < v else allowed.T).reshape(shape)
    return int(np.count_nonzero(ok))


def finite_scale_logcount(p: ParamTuple, A: BinaryMatrix, n: int) -> float:
    """log_m(count of admissible words on [1, n]) / n, via exact bit-length
    scaling of the big-integer count (relative error ~1e-15)."""
    c = count_patterns(p, A, n).count
    if c.bit_length() <= 53:
        log2c = math.log2(c)
    else:
        shift = c.bit_length() - 53
        log2c = math.log2(c >> shift) + shift
    return log2c / (n * math.log2(A.m))


def chain_product_count(dec: ChainDecomposition, A: BinaryMatrix,
                        p: ParamTuple | None = None) -> int:
    """The pattern count implied by a chain decomposition: each chain with
    v visible elements contributes |A^{v-1}| (fully visible chains the
    full power, truncated chains the visible segment), residual elements
    count as free symbols.  Comparing this against ``count_patterns``
    validates the decomposition against the independently built graph.

    The product form requires every chain's visible part to be a
    contiguous trajectory segment and the residual to be unconstrained,
    except for fixed points x = f(x): the self-edge (x, x) alone makes x
    a one-vertex cycle, which counts trace(A) instead of m.  Pass p to
    check the residual against the constraint edges when it is
    non-empty.  Raises ProductFormInapplicable where the product form
    does not apply."""
    if not dec.all_contiguous:
        raise ProductFormInapplicable(
            "a chain's visible part is not a contiguous trajectory segment; "
            "the product form does not apply"
        )
    fixed = 0
    if dec.residual:
        if p is None:
            raise ValueError(
                "non-empty residual: pass the parameter tuple so residual "
                "elements can be checked against the constraint edges"
            )
        rset = set(dec.residual)
        for u, v in constraint_edges(p, dec.n):
            if u not in rset and v not in rset:
                continue
            if u != v:
                raise ProductFormInapplicable(
                    f"residual element participates in constraint ({u}, {v}); "
                    "the product form does not apply"
                )
            fixed += 1
    count = 1
    for v, cnt in sorted(dec.length_counts().items()):
        count *= A.power_sum(v - 1) ** cnt
    count *= A.m ** (len(dec.residual) - fixed) * A.trace_power(1) ** fixed
    return count
