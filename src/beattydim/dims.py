"""Minkowski and Hausdorff dimensions of a Beatty multiple shift.

Both dimensions are functionals of the density vector d and the
transition matrix A:

* Minkowski: sum over i of
      [ rho^{i-1} d_i + (rho^{i-1} - rho^i)(sum_{j>i} d_j + d_inf) ]
      * log_m |A^{i-1}|,
  with rho = alpha/gamma; truncated with a rigorous geometric tail bound
  (log_m |A^{i-1}| <= i + 1 and the bracket <= 2 rho^{i-1}).  The
  weights are one array expression over the cumulative products
  rho^{i-1}, the logs are taken of the exact sums ``power_sums(N)``
  where a weight is nonzero, and the terms are added left to right, so
  every float step is the one of the term-by-term loop.

* Hausdorff: d_1 + sum_{i>=2} d_i log_m T(i) + d_inf log_m sum_i t_i,
  where t is the unique positive solution of t_i^{gamma/alpha} =
  sum_j A(i,j) t_j and T(i) is the weighted chain sum built from the
  d_{i,j} split:

      T(i) = sum over admissible length-i symbol tuples of
             prod_{k=1}^{i-1} f_k(j_{i-k}),
      f_k(j) = [ sum over admissible paths of length k-1 from j,
                 weighted by the already-computed f_1..f_{k-1} and the
                 terminal row sum ]^(-d_{i,i-k} / sum_{l<=k} d_{i,i-l}).

  The tuple sum collapses to a transfer recursion (``t_phi``): with
  g_1 = a^(1+e_1) (a the row-sum vector) and g_k = (A @ g_{k-1})^(1+e_k),
  one has T(i) = sum(g_{i-1}).  Every ``dij_row`` makes the exponent
  1 + e_k = rho for all i and k, so a single recursion g_k = (A g_{k-1})^rho
  gives every T(i) at once: O(N m^2) for the whole series.  The g_k
  fill the rows of one (N-1) x m array, and the T(i) are its row sums.

  The fixed point t (``solve_t``) is found by Newton's method on
  u = log t with a certificate: Phi(u) = rho log(A e^u) is a
  rho-contraction in the sup norm (Phi preserves order and adds rho c
  to every entry when c is added to u), so t is unique and
  ||Phi(u) - u*|| <= rho/(1-rho) ||Phi(u) - u|| for any u.  The
  Hausdorff ``err`` carries d_inf / ln m times that bound.

The two dimensions coincide exactly when the row sums of A are equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .beatty import ParamTuple
from .chains import DEFAULT_K, DensityVector, empirical_densities
from .matrix import BinaryMatrix
from .numerics import Rational, Real, _reciprocal
from .regions import RegionId, classify_region, closed_form_d, density_payload


class InvalidDensity(ValueError):
    """Density entries negative or total mass above 1."""


class NonConvergence(RuntimeError):
    """The fixed-point solver reached its step cap while its certificate
    was still shrinking."""


class DegenerateWeights(ValueError):
    """A partial sum of d_{i,j} weights vanished (undefined exponent)."""


@dataclass(frozen=True, slots=True)
class TSolverResult:
    t: tuple[float, ...]
    residual: float
    iterations: int
    log_total: float

    def total(self) -> float:
        return float(sum(self.t))


@dataclass(frozen=True, slots=True)
class DimValue:
    value: float
    err: float


@dataclass(frozen=True, slots=True)
class DimensionReport:
    region: RegionId
    d: DensityVector
    dim_M: Optional[DimValue]
    dim_H: Optional[DimValue]
    coincide: bool
    warnings: tuple[str, ...]

    def to_json_dict(self) -> dict:
        out = {
            "region": self.region.id,
            "certificate": self.region.certificate,
            "d": density_payload(self.d),
            "coincide": self.coincide,
            "warnings": list(self.warnings),
        }
        out["dim_M"] = (
            {"value": self.dim_M.value, "err": self.dim_M.err}
            if self.dim_M else None
        )
        out["dim_H"] = (
            {"value": self.dim_H.value, "err": self.dim_H.err}
            if self.dim_H else None
        )
        return out


def _validate_density(d: DensityVector, dv: list[float]) -> None:
    """Check d_1 .. d_K and d_inf, with d_1 .. d_K read off the series'
    own ``d.floats(N)`` list dv, N >= K."""
    vals = dv[:d.K] + [d.d_inf_float()]
    if any(v < -1e-12 for v in vals):
        raise InvalidDensity("density entries must be non-negative")
    if sum(vals) > 1 + 1e-9:
        raise InvalidDensity("total density mass exceeds 1")


def _validate_eps(eps: float) -> None:
    # a tolerance <= 0 or nan is never met, so the series would grow to
    # its term cap
    if not (0.0 < eps < math.inf):
        raise ValueError("eps must be a positive finite number")


_EPS = math.ulp(1.0)  # machine epsilon
SOLVER_TOL = 1e-13  # certificate bound at which solve_t stops
SOLVER_MAX_STEPS = 200  # solve_t raises NonConvergence past this
_ROUNDS_TO_ONE = ("alpha/gamma is below 1 but rounds to 1 in float64, so "
                  "the dimension series cannot be summed in floats")


def _rho(p: ParamTuple) -> float:
    """alpha/gamma from the exact quotient: it stays finite (or
    underflows to 0) where gamma/alpha passes the float range."""
    return _reciprocal(p.ratio).approx()


# ---------------------------------------------------------------------------
# Minkowski
# ---------------------------------------------------------------------------

def _mink_tail(N: int, rho: float) -> float:
    """2 * sum_{i>N} (i+1) rho^{i-1}: the bracket is at most 2 rho^{i-1}
    (densities sum below 1) and log_m |A^{i-1}| <= i + 1."""
    q = 1.0 - rho
    return 2.0 * rho**N * ((N * q + rho) / (q * q) + 2.0 / q)


def minkowski_dim(A: BinaryMatrix, d: DensityVector, p: ParamTuple,
                  eps: float = 1e-10) -> DimValue:
    """Truncated series with reported bound = geometric tail + float slack.

    A term with weight 0 takes no log; a nilpotent A, whose |A^l| vanish
    from some l on, is rejected where such a term has weight."""
    _validate_eps(eps)
    rho = _rho(p)  # 0 where gamma/alpha passes the float range
    if not rho < 1.0:  # a ParamTuple has alpha < gamma exactly
        raise FloatingPointError(_ROUNDS_TO_ONE)
    N = max(d.K, 8)
    while _mink_tail(N, rho) > eps / 2 and N < 200_000:
        N += max(8, N // 8)
    tail = _mink_tail(N, rho)
    logm = math.log(A.m)
    dinf = d.d_inf_float()
    dv, suffix = d.floats(N)
    _validate_density(d, dv)
    dv, suffix = np.array(dv), np.array(suffix)
    rp = np.full(N, rho)
    rp[0] = 1.0
    rp = np.cumprod(rp)  # rho^{i-1}, in the order of repeated rp *= rho
    weights = (rp * dv + (rp - rp * rho) * (suffix + dinf)).tolist()
    sums = A.power_sums(N)
    if not sums[-1]:  # A is nilpotent: |A^l| = 0 from some l on
        zero = sums.index(0)
        if any(weights[zero:]):
            raise ValueError(f"matrix is nilpotent: |A^l| = 0 for l >= {zero}, "
                             "so log_m |A^l| is undefined")
    total = 0.0
    for w, s in zip(weights, sums):
        if w:
            total += w * (math.log(s) / logm)
    return DimValue(total, tail + 1e-13 * max(1, N))


# ---------------------------------------------------------------------------
# Perron-type fixed point
# ---------------------------------------------------------------------------

def _log_map(A: np.ndarray, rho: float,
             u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phi(u) = rho log(A e^u), and P with P_ij = A_ij e^{u_j} / (A e^u)_i,
    so that the Jacobian of Phi is rho P.  Each row is shifted by its
    largest admitted u_j, so e^u never leaves the float range."""
    U = np.where(A, u, -np.inf)
    top = U.max(axis=1)
    E = np.exp(U - top[:, None])
    S = E.sum(axis=1)
    return rho * (top + np.log(S)), E / S[:, None]


def solve_t(A: BinaryMatrix, r) -> TSolverResult:
    """Unique positive vector with t_i^r = sum_j A(i,j) t_j, r > 1.

    Newton's method on u = log t for the fixed point of
    Phi(u) = rho log(A e^u), rho = 1/r: each step solves
    (I - rho P) delta = Phi(u) - u, which is invertible because P is
    row-stochastic and rho < 1.  A Newton step that does not shrink
    ||Phi(u) - u||_inf is replaced by the contraction step u <- Phi(u),
    so convergence does not depend on the start.  The steps stop once
    the certificate rho/(1-rho) ||Phi(u) - u||_inf is at most
    ``SOLVER_TOL`` or stops shrinking, and t = exp(Phi(u)) is returned;
    ``SOLVER_MAX_STEPS`` steps that still shrink it raise
    NonConvergence.

    ``residual`` bounds ||log t - log t*||_inf: the certificate plus the
    float-evaluation term 8 eps (m + ||Phi(u)||_inf) / (1 - rho), with
    eps the machine epsilon, which covers the rounding of rho, exp, the
    m-term row sums, log and the returned exp.  ``log_total`` is
    log sum(t), taken from Phi(u) without leaving the float range;
    ``iterations`` counts the steps taken."""
    r = r if isinstance(r, Real) else Rational(Fraction(r))
    if not r > 1:
        raise ValueError("exponent gamma/alpha must exceed 1")
    rho = _reciprocal(r).approx()  # may underflow to 0
    if not rho < 1.0:
        raise FloatingPointError(_ROUNDS_TO_ONE)
    if min(A.row_sums) == 0:
        raise ValueError("matrix has an empty row; no positive fixed point")
    A_np = np.array(A.rows, dtype=bool)
    eye = np.eye(A.m)
    gain = rho / (1.0 - rho)
    u = np.zeros(A.m)
    v, P = _log_map(A_np, rho, u)
    gap = float(np.max(np.abs(v - u)))
    steps = 0
    while gain * gap > SOLVER_TOL:
        if steps == SOLVER_MAX_STEPS:
            raise NonConvergence("t-solver certificate still shrinking after "
                                 f"{SOLVER_MAX_STEPS} steps")
        u_new = u + np.linalg.solve(eye - rho * P, v - u)
        v_new, P_new = _log_map(A_np, rho, u_new)
        gap_new = float(np.max(np.abs(v_new - u_new)))
        if not gap_new < gap:  # Newton did not help: contract instead
            u_new = v
            v_new, P_new = _log_map(A_np, rho, u_new)
            gap_new = float(np.max(np.abs(v_new - u_new)))
            if not gap_new < gap:
                break  # the float evaluation of Phi is the limit
        u, v, P, gap = u_new, v_new, P_new, gap_new
        steps += 1
    floats = 8.0 * _EPS * (A.m + float(np.max(np.abs(v)))) / (1.0 - rho)
    top = float(np.max(v))
    with np.errstate(over="ignore"):  # t past the float range reads inf
        t = np.exp(v)
    return TSolverResult(t=tuple(float(x) for x in t),
                         residual=gain * gap + floats, iterations=steps,
                         log_total=top + math.log(float(np.sum(np.exp(v - top)))))


# ---------------------------------------------------------------------------
# chain transfer sums
# ---------------------------------------------------------------------------

def t_phi(A: BinaryMatrix, i: int, dij_weights) -> float:
    """T(i) = t_{empty; i}: transfer accumulation in O(i * m^2).

    dij_weights is the row (d_{i,1}, ..., d_{i,i}); exponents use the
    suffix sums S_k = sum_{l=0}^{k} d_{i,i-l}.  This is the general
    reference; ``hausdorff_dim`` reads every T(i) off ``transfer_sums``."""
    if i < 2:
        raise ValueError("chain transfer sums start at i = 2")
    row = [float(v) for v in dij_weights]
    if len(row) != i:
        raise ValueError(f"expected {i} weights, got {len(row)}")
    if min(A.row_sums) == 0:
        raise ValueError("matrix has an empty row")
    a = np.array(A.row_sums, dtype=float)
    A_np = np.array(A.rows, dtype=float)
    S = row[i - 1]
    g: np.ndarray | None = None
    for k in range(1, i):
        S += row[i - 1 - k]
        if S <= 0.0:
            raise DegenerateWeights(
                f"partial weight sum vanished at k={k} (d_{i} must be 0)"
            )
        e = -row[i - 1 - k] / S
        if k == 1:
            g = a ** (1.0 + e)
        else:
            B = A_np @ g
            g = B ** (1.0 + e)
    return float(np.sum(g))


def transfer_sums(A: BinaryMatrix, rho: float, N: int) -> list[float]:
    """[T(2), ..., T(N)] from one recursion g_1 = a^rho,
    g_k = (A g_{k-1})^rho, T(i) = sum(g_{i-1}): ``t_phi`` with every
    exponent equal to rho = alpha/gamma, as every ``dij_row`` makes it.
    Row k - 1 of one preallocated array holds g_k, and one row-sum call
    reads every T(i)."""
    if min(A.row_sums) == 0:
        raise ValueError("matrix has an empty row")
    if N < 2:
        return []
    A_np = np.array(A.rows, dtype=float)
    G = np.empty((N - 1, A.m))
    G[0] = np.array(A.row_sums, dtype=float) ** rho
    for k in range(1, N - 1):
        G[k] = (A_np @ G[k - 1]) ** rho
    return G.sum(axis=1).tolist()


# ---------------------------------------------------------------------------
# Hausdorff
# ---------------------------------------------------------------------------

def _hausdorff_tail(d: DensityVector, N: int) -> float:
    """Bound sum_{i>N} d_i (i+1) via the geometric tail descriptor."""
    if d.tail_ratio is None:
        return 0.0  # measured tails are summed in full
    rho = float(d.tail_ratio)
    dn = d.entry_float(N + 1)
    if rho <= 0.0 or dn <= 0.0:
        return 0.0
    if rho >= 1.0:
        raise InvalidDensity("geometric tail with ratio >= 1 is not summable")
    q = 1.0 - rho
    return dn * ((N + 2) / q + rho / (q * q))


def hausdorff_dim(A: BinaryMatrix, d: DensityVector, p: ParamTuple,
                  eps: float = 1e-10) -> DimValue:
    """d_1 + sum_{i>=2} d_i log_m T(i) + d_inf log_m sum(t).

    Classes with d_i = 0 contribute nothing and are skipped (their
    exponents would be degenerate); the t-solver runs only when
    d_inf > 0, and its certificate enters ``err`` as
    d_inf * residual / ln m.  Requires primitive A when d_inf > 0,
    irreducible otherwise (the caller surfaces warnings)."""
    _validate_eps(eps)
    logm = math.log(A.m)
    N = max(d.K, len(d.head))
    if d.tail_ratio is not None and float(d.tail_ratio) > 0.0:
        while _hausdorff_tail(d, N) > eps / 2 and N < 100_000:
            N += max(8, N // 8)
    tail = _hausdorff_tail(d, N)
    dv, _ = d.floats(N)
    _validate_density(d, dv)
    total = dv[0]
    terms = [(i, di) for i, di in enumerate(dv[1:], start=2) if di > 0.0]
    if terms:
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            T = transfer_sums(A, _rho(p), terms[-1][0])
        for i, di in terms:
            total += di * math.log(T[i - 2]) / logm
    if not math.isfinite(total):
        raise FloatingPointError(
            "Hausdorff series left the float range: the transfer sums T(i) "
            "overflow")
    dinf = d.d_inf_float()
    err = tail + 1e-12
    if dinf > 0.0:
        sol = solve_t(A, p.ratio)
        total += dinf * sol.log_total / logm
        err += dinf * sol.residual / logm
    return DimValue(total, err)


def dims_coincide(A: BinaryMatrix) -> bool:
    """Hausdorff = Minkowski exactly when the row sums of A are equal."""
    return A.row_sums_equal()


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------

def dimension_report(
    p: ParamTuple,
    A: BinaryMatrix,
    mode: str = "closed",
    n: int = 100_000,
    horizon: Optional[int] = None,
    K: int = DEFAULT_K,
    eps: float = 1e-10,
    which: str = "both",
) -> DimensionReport:
    """Classify, pick the density vector (closed form if available,
    empirical otherwise or on request), evaluate the dimensions."""
    region = classify_region(p)
    warnings: list[str] = []
    if mode not in ("closed", "empirical"):
        raise ValueError("mode must be 'closed' or 'empirical'")
    if mode == "empirical" or not region.has_closed_form():
        d = empirical_densities(p, [(1, n)], horizon=horizon, K=K)
        if not region.has_closed_form():
            warnings.append(
                f"region {region.id}: empirical densities only -- no closed "
                "form is known"
            )
    else:
        d = closed_form_d(p, region, K)

    if not A.is_irreducible():
        warnings.append("matrix is not irreducible; dimension formulas assume "
                        "irreducibility")
    if d.d_inf_float() > 0.0 and not A.is_primitive():
        warnings.append(
            "matrix is irreducible but not primitive while d_inf > 0; the "
            "Hausdorff value relies on the primitive case"
        )

    dim_m = minkowski_dim(A, d, p, eps=eps) if which in ("both", "minkowski") else None
    dim_h = hausdorff_dim(A, d, p, eps=eps) if which in (
        "both", "hausdorff") else None
    return DimensionReport(
        region=region,
        d=d,
        dim_M=dim_m,
        dim_H=dim_h,
        coincide=dims_coincide(A),
        warnings=tuple(warnings),
    )
