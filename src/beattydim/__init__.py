"""beattydim: dimensions and densities of Beatty multiple shifts.

A Beatty multiple shift is the set of symbol sequences x over
{0, ..., m-1} satisfying A(x_{floor(alpha*k + beta)},
x_{floor(gamma*k + delta)}) = 1 for every k >= 1, where A is an m x m
binary matrix and 1 <= alpha < gamma.  This package classifies the
parameter tuple, computes the chain-class density vector both in closed
form and empirically, evaluates the Minkowski and Hausdorff dimension
formulas with controlled truncation error, and cross-checks everything
against independent brute-force pattern counting.
"""

from .beatty import (
    ParamTuple,
    constraint_edges,
    member,
)
from .chains import (
    DEFAULT_K,
    Chain,
    ChainClass,
    ChainDecomposition,
    ClosedForm,
    DensityVector,
    Empirical,
    HorizonTooSmall,
    decompose,
    default_horizon,
    empirical_densities,
)
from .dims import (
    DegenerateWeights,
    DimensionReport,
    DimValue,
    InvalidDensity,
    NonConvergence,
    TSolverResult,
    dimension_report,
    dims_coincide,
    hausdorff_dim,
    minkowski_dim,
    solve_t,
    t_phi,
)
from .matrix import GOLDEN_MEAN, BinaryMatrix
from .numerics import (
    QuadraticSurd,
    RadicalSum,
    Rational,
    Real,
    compare,
    floor_linear,
    frac,
    parse_real,
    rational,
    surd,
)
from .oracle import (
    CapExceeded,
    NonPathComponent,
    PatternCount,
    ProductFormInapplicable,
    chain_product_count,
    count_patterns,
    exhaustive_count,
    finite_scale_logcount,
)
from .regions import (
    NoClosedForm,
    NotRational,
    RegionId,
    classify_region,
    closed_form_d,
    g_density,
    q_independent,
    rational_d,
    region_report,
    residue_set,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryMatrix",
    "CapExceeded",
    "Chain",
    "ChainClass",
    "ChainDecomposition",
    "ClosedForm",
    "DEFAULT_K",
    "DegenerateWeights",
    "DensityVector",
    "DimValue",
    "DimensionReport",
    "Empirical",
    "GOLDEN_MEAN",
    "HorizonTooSmall",
    "InvalidDensity",
    "NoClosedForm",
    "NonConvergence",
    "NonPathComponent",
    "NotRational",
    "ParamTuple",
    "PatternCount",
    "ProductFormInapplicable",
    "QuadraticSurd",
    "RadicalSum",
    "Rational",
    "Real",
    "RegionId",
    "TSolverResult",
    "chain_product_count",
    "classify_region",
    "closed_form_d",
    "compare",
    "constraint_edges",
    "count_patterns",
    "decompose",
    "default_horizon",
    "dimension_report",
    "dims_coincide",
    "empirical_densities",
    "exhaustive_count",
    "finite_scale_logcount",
    "floor_linear",
    "frac",
    "g_density",
    "hausdorff_dim",
    "member",
    "minkowski_dim",
    "parse_real",
    "q_independent",
    "rational",
    "rational_d",
    "region_report",
    "residue_set",
    "solve_t",
    "surd",
    "t_phi",
]
