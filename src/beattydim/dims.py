"""Minkowski and Hausdorff dimensions of a Beatty multiple shift.

Both dimensions are functionals of the density vector d and the
transition matrix A:

* Minkowski: sum over i of
      [ rho^{i-1} d_i + (rho^{i-1} - rho^i)(sum_{j>i} d_j + d_inf) ]
      * log_m |A^{i-1}|,
  with rho = alpha/gamma; truncated with a rigorous geometric tail bound
  (log_m |A^{i-1}| <= i + 1 and the bracket <= 2 rho^{i-1}).

* Hausdorff: d_1 + sum_{i>=2} d_i log_m T(i) + d_inf log_m sum_i t_i,
  where t is the unique positive solution of t_i^{gamma/alpha} =
  sum_j A(i,j) t_j (damped fixed-point iteration, uniqueness probed by
  random restarts) and T(i) is the weighted chain sum built from the
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
  gives every T(i) at once: O(N m^2) for the whole series.

The two dimensions coincide exactly when the row sums of A are equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .beatty import ParamTuple
from .chains import DEFAULT_K, DensityVector, empirical_densities
from .matrix import BinaryMatrix
from .regions import RegionId, classify_region, closed_form_d, density_payload


class InvalidDensity(ValueError):
    """Density entries negative or total mass above 1."""


class NonConvergence(RuntimeError):
    """Fixed-point iteration failed to converge or restarts disagree."""


class DegenerateWeights(ValueError):
    """A partial sum of d_{i,j} weights vanished (undefined exponent)."""


@dataclass(frozen=True, slots=True)
class TSolverResult:
    t: tuple[float, ...]
    residual: float
    iterations: int

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


def _validate_density(d: DensityVector) -> None:
    vals = [float(v) for v in d.finite] + [float(d.d_inf)]
    if any(v < -1e-12 for v in vals):
        raise InvalidDensity("density entries must be non-negative")
    if sum(vals) > 1 + 1e-9:
        raise InvalidDensity("total density mass exceeds 1")


def _validate_eps(eps: float) -> None:
    # a tolerance <= 0 or nan is never met, so the series would grow to
    # its term cap
    if not (0.0 < eps < math.inf):
        raise ValueError("eps must be a positive finite number")


def _rho(p: ParamTuple) -> float:
    return 1.0 / float(p.ratio.approx())


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
    """Truncated series with reported bound = geometric tail + float slack."""
    _validate_eps(eps)
    _validate_density(d)
    rho = _rho(p)
    if not (0.0 < rho < 1.0):
        raise ValueError("alpha/gamma must lie in (0, 1)")
    N = max(d.K, 8)
    while _mink_tail(N, rho) > eps / 2 and N < 200_000:
        N += max(8, N // 8)
    tail = _mink_tail(N, rho)
    logm = math.log(A.m)
    dinf = d.d_inf_float()
    dv, suffix = d.floats(N)
    total = 0.0
    rp = 1.0  # rho^{i-1}
    for i in range(1, N + 1):
        w = rp * dv[i - 1] + (rp - rp * rho) * (suffix[i - 1] + dinf)
        if w:
            total += w * (math.log(A.power_sum(i - 1)) / logm)
        rp *= rho
    return DimValue(total, tail + 1e-13 * max(1, N))


# ---------------------------------------------------------------------------
# Perron-type fixed point
# ---------------------------------------------------------------------------

def _iterate_t(A_np: np.ndarray, r: float, t0: np.ndarray, tol: float,
               max_iter: int) -> tuple[np.ndarray, float, int]:
    t = t0.astype(float)
    lam = 1.0
    prev_res = math.inf
    best = math.inf
    stall = 0
    inv_r = 1.0 / r
    for it in range(1, max_iter + 1):
        at = A_np @ t
        t_new = (1.0 - lam) * t + lam * at**inv_r
        at_new = A_np @ t_new
        res = float(np.max(np.abs(t_new**r - at_new)))
        step = float(np.max(np.abs(t_new - t)))
        scale = max(1.0, float(np.max(np.abs(at_new))))
        tmax = max(1.0, float(np.max(np.abs(t_new))))
        if res > 1.5 * prev_res and res > 100 * tol * scale and lam > 1.0 / 1024:
            lam *= 0.5  # oscillation guard for exponents near 1
        t, prev_res = t_new, res
        if res < tol and step < tol / 10 * tmax:
            return t, res, it  # met the absolute tolerance
        if res < 0.9 * best:
            best, stall = res, 0
        else:
            stall += 1
        # residual stopped improving: accept it if within the scale-aware
        # tolerance (double precision cannot do better for large iterates)
        if stall >= 50 and res < tol * scale:
            return t, res, it
    raise NonConvergence(
        f"t-solver did not reach residual {tol} in {max_iter} iterations"
    )


def solve_t(A: BinaryMatrix, r, tol: float = 1e-13,
            max_iter: int = 1_000_000, seed: int = 0,
            restarts: int = 5) -> TSolverResult:
    """Unique positive vector with t_i^r = sum_j A(i,j) t_j, r > 1.

    Damped iteration t <- (A t)^(1/r) from the all-ones vector; claimed
    uniqueness is probed by `restarts` random positive starting vectors,
    which must agree within 10 * tol."""
    r = float(r.approx()) if hasattr(r, "approx") else float(r)
    if r <= 1.0:
        raise ValueError("exponent gamma/alpha must exceed 1")
    if min(A.row_sums) == 0:
        raise ValueError("matrix has an empty row; no positive fixed point")
    A_np = np.array(A.rows, dtype=float)
    t, res, iters = _iterate_t(A_np, r, np.ones(A.m), tol, max_iter)
    rng = np.random.default_rng(seed)
    agree = 10 * tol * max(1.0, float(np.max(np.abs(t))))
    for _ in range(restarts):
        t0 = rng.uniform(0.5, 2.0, A.m)
        t_alt, _, _ = _iterate_t(A_np, r, t0, tol, max_iter)
        if float(np.max(np.abs(t_alt - t))) > agree:
            raise NonConvergence("random restarts disagree; fixed point suspect")
    return TSolverResult(t=tuple(float(v) for v in t), residual=res,
                         iterations=iters)


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
    exponent equal to rho = alpha/gamma, as every ``dij_row`` makes it."""
    if min(A.row_sums) == 0:
        raise ValueError("matrix has an empty row")
    A_np = np.array(A.rows, dtype=float)
    g = np.array(A.row_sums, dtype=float) ** rho
    out = []
    for _ in range(2, N + 1):
        out.append(float(np.sum(g)))
        g = (A_np @ g) ** rho
    return out


# ---------------------------------------------------------------------------
# Hausdorff
# ---------------------------------------------------------------------------

def _hausdorff_tail(d: DensityVector, N: int) -> float:
    """Bound sum_{i>N} d_i (i+1) via the geometric tail descriptor."""
    if d.beyond is not None or d.tail_ratio is None:
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
                  eps: float = 1e-10, solver_seed: int = 0,
                  solver_tol: float = 1e-13) -> DimValue:
    """d_1 + sum_{i>=2} d_i log_m T(i) + d_inf log_m sum(t).

    Classes with d_i = 0 contribute nothing and are skipped (their
    exponents would be degenerate); the t-solver runs only when
    d_inf > 0.  Requires primitive A when d_inf > 0, irreducible
    otherwise (the caller surfaces warnings)."""
    _validate_eps(eps)
    _validate_density(d)
    logm = math.log(A.m)
    N = d.K
    if d.beyond:
        N = max(N, max(d.beyond))
    elif d.tail_ratio is not None and float(d.tail_ratio) > 0.0:
        while _hausdorff_tail(d, N) > eps / 2 and N < 100_000:
            N += max(8, N // 8)
    tail = _hausdorff_tail(d, N)
    dv, _ = d.floats(N)
    total = dv[0]
    terms = [(i, di) for i, di in enumerate(dv[1:], start=2) if di > 0.0]
    if terms:
        T = transfer_sums(A, _rho(p), terms[-1][0])
        for i, di in terms:
            total += di * math.log(T[i - 2]) / logm
    dinf = d.d_inf_float()
    if dinf > 0.0:
        sol = solve_t(A, p.ratio, tol=solver_tol, seed=solver_seed)
        total += dinf * math.log(sol.total()) / logm
    return DimValue(total, tail + 1e-12)


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
    seed: int = 0,
    which: str = "both",
    search_bound: int = 10_000,
) -> DimensionReport:
    """Classify, pick the density vector (closed form if available,
    empirical otherwise or on request), evaluate the dimensions."""
    region = classify_region(p, search_bound=search_bound)
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
    dim_h = hausdorff_dim(A, d, p, eps=eps, solver_seed=seed) if which in (
        "both", "hausdorff") else None
    return DimensionReport(
        region=region,
        d=d,
        dim_M=dim_m,
        dim_H=dim_h,
        coincide=dims_coincide(A),
        warnings=tuple(warnings),
    )
