"""Independent pattern counting on [1, n].

``count_patterns`` builds the constraint graph from the raw (u, v) index
pairs -- no use of the chain classification -- and multiplies exact
per-component coloring counts.  It takes the tuple's two pairs
(``ParamTuple.pairs``, the ones ``chains.decompose`` walks), but calls
only their forward floors (``floor_lanes``, ``first_k_at``), never
``member_lanes`` or the chain walk.  Injectivity of those floors caps
every in- and out-degree at 1, so components are simple paths or
(rarely, among elements below the growth bound) short cycles.  The
components are tallied by length with array steps, all paths advancing
together; one dynamic program along A gives the path count for every
length up to the longest path, and each cycle length counts the trace
of the matching matrix power.
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

from .beatty import ParamTuple, _edge_lanes, constraint_edges
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


def _component_tally(u: np.ndarray, v: np.ndarray,
                     n: int) -> tuple[Counter, Counter, int]:
    """(paths, cycles, isolated) of the graph on [1, n] with edges
    u[i] -> v[i]: paths and cycles map a vertex count to the number of
    such components.  Every path start (a vertex without an incoming
    edge) steps once per round along its path, so round L sees the
    paths of at least L vertices; the vertices no path reaches lie on
    cycles."""
    if max(np.bincount(u, minlength=1).max(),
           np.bincount(v, minlength=1).max()) > 1:
        outs, ins = set(), set()  # report the first edge, in edge order
        for a, b in zip(u.tolist(), v.tolist()):
            if a in outs:
                raise NonPathComponent(f"vertex {a} has two outgoing constraints")
            if b in ins:
                raise NonPathComponent(f"vertex {b} has two incoming constraints")
            outs.add(a)
            ins.add(b)
    succ = np.zeros(n + 1, dtype=np.int64)
    succ[u] = v
    unseen = np.zeros(n + 1, dtype=bool)
    unseen[u] = unseen[v] = True
    vertices = int(np.count_nonzero(unseen))
    cur = np.setdiff1d(u, v, assume_unique=True)  # the path starts
    alive = []  # alive[L - 1] = paths with at least L vertices
    while cur.size:
        alive.append(cur.size)
        unseen[cur] = False
        cur = succ[cur]
        cur = cur[cur > 0]
    ended = [a - b for a, b in zip(alive, alive[1:] + [0])]
    paths = Counter({length: c for length, c in enumerate(ended, 1) if c})
    cycles: Counter[int] = Counter()
    for start in np.flatnonzero(unseen).tolist():
        if not unseen[start]:
            continue
        length, cur = 0, start
        while unseen[cur]:
            unseen[cur] = False
            cur = int(succ[cur])
            length += 1
        if cur != start:
            raise NonPathComponent("malformed cycle in constraint graph")
        cycles[length] += 1
    return paths, cycles, n - vertices


def count_patterns(p: ParamTuple, A: BinaryMatrix, n: int) -> PatternCount:
    """Exact number of admissible words of length n (big integer)."""
    paths, cycles, isolated = _component_tally(*_edge_lanes(p, n), n)
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
        residual = np.zeros(dec.n + 1, dtype=bool)
        residual[list(dec.residual)] = True
        u, v = _edge_lanes(p, dec.n)
        hit = residual[u] | residual[v]
        bad = hit & (u != v)
        if bad.any():
            i = bad.argmax()  # the first such edge
            raise ProductFormInapplicable(
                f"residual element participates in constraint ({u[i]}, "
                f"{v[i]}); the product form does not apply")
        fixed = int(np.count_nonzero(hit))
    count = 1
    for v, cnt in sorted(dec.length_counts().items()):
        count *= A.power_sum(v - 1) ** cnt
    count *= A.m ** (len(dec.residual) - fixed) * A.trace_power(1) ** fixed
    return count
