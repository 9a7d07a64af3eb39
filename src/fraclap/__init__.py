"""Pseudospectral fractional Laplacian (-Delta)^(alpha/2) on the real line.

The real line is mapped onto (0, pi) through x = x_center + l_scale*cot(s),
functions are sampled at n half-shifted equispaced nodes, continued evenly
or oddly across s = pi and represented by the real cosine or sine series of
their DCT-II or DST-II, and the operator is applied through a dense
operational matrix acting on those coefficients.  No domain truncation is
involved.

Subpackages
-----------
grid        coordinate map and node generation
spectral    real transforms (DCT-II/DST-II) and series evaluation
gammaratio  stable precomputation of the gamma-function ratio tables
symbol      closed-form operator action on Fourier modes, one or many at once
opmatrix    assembly, caching and application of the operational matrix
oracles     independent ground truths: closed forms (scipy hyp1f1), quadrature
fisher      fractional Fisher-KPP time integration and front-speed fitting
cli         command line driver
"""

from fraclap.grid import Extension, GridConfig, node_positions, node_spacing, nodes, s_to_x, x_to_s
from fraclap.spectral import evaluate, transform
from fraclap.gammaratio import GammaRatioTables, build_tables
from fraclap.symbol import fractional_constant, symbol_samples
from fraclap.opmatrix import (
    MatrixCacheError,
    MatrixMeta,
    OperatorMatrix,
    apply,
    apply_sample_operator,
    build_matrix,
    fractional_laplacian,
    fused_sample_operator,
    load_matrix,
    save_matrix,
)
from fraclap.oracles import (
    ErrorScan,
    QuadratureError,
    TestFunction,
    closed_form_gaussian,
    closed_form_mode2,
    error_scan,
    quadrature_fraclap,
    scale_sweep,
    test_function,
)
from fraclap.fisher import (
    BlowUpError,
    FisherResult,
    FisherRun,
    FrontEscapeError,
    FrontTrace,
    fit_sigma,
    front_position,
    initial_condition,
    rhs,
    rk4_step,
    run_simulation,
)

__version__ = "0.1.0"

__all__ = [
    "Extension",
    "GridConfig",
    "nodes",
    "node_positions",
    "node_spacing",
    "s_to_x",
    "x_to_s",
    "transform",
    "evaluate",
    "GammaRatioTables",
    "build_tables",
    "fractional_constant",
    "symbol_samples",
    "OperatorMatrix",
    "MatrixMeta",
    "MatrixCacheError",
    "build_matrix",
    "apply",
    "fractional_laplacian",
    "fused_sample_operator",
    "apply_sample_operator",
    "save_matrix",
    "load_matrix",
    "TestFunction",
    "test_function",
    "closed_form_mode2",
    "closed_form_gaussian",
    "quadrature_fraclap",
    "error_scan",
    "scale_sweep",
    "ErrorScan",
    "QuadratureError",
    "FisherRun",
    "FisherResult",
    "FrontTrace",
    "BlowUpError",
    "FrontEscapeError",
    "initial_condition",
    "rhs",
    "rk4_step",
    "front_position",
    "fit_sigma",
    "run_simulation",
    "__version__",
]
