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
spectral    real transforms (DCT-II/DST-II from one real FFT) and series evaluation
gammaratio  stable gamma-ratio vectors Gamma(a+m)/Gamma(b+m) by recursion
symbol      closed-form operator action on Fourier modes: block columns, or k = 2 alone
opmatrix    assembly, caching and application of the operational matrix
oracles     independent ground truths: closed forms (scipy hyp1f1, hyp2f1), quadrature
fisher      fractional Fisher-KPP time integration and front-speed fitting
cli         command line driver

``import fraclap`` loads numpy and no SciPy module (its timings are in
CHANGES.md).  The block build, the k = 2 column (``symbol_samples``), the
cache, ``transform`` and the whole Fisher path (``rk4_stepper``,
``front_position`` and ``run_simulation``) need numpy alone.
``closed_form_mode1`` and ``closed_form_gaussian`` load scipy.special on
first use, and ``quadrature_fraclap`` loads scipy.integrate.
"""

from fraclap.grid import Extension, GridConfig, node_positions, node_spacing, nodes, s_to_x, x_to_s
from fraclap.spectral import evaluate, transform
from fraclap.symbol import fractional_constant, symbol_samples
from fraclap.opmatrix import (
    MatrixCacheError,
    MatrixFormatError,
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
    closed_form_mode1,
    closed_form_mode2,
    error_scan,
    mode1_error,
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
    rk4_stepper,
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
    "fractional_constant",
    "symbol_samples",
    "OperatorMatrix",
    "MatrixCacheError",
    "MatrixFormatError",
    "build_matrix",
    "apply",
    "fractional_laplacian",
    "fused_sample_operator",
    "apply_sample_operator",
    "save_matrix",
    "load_matrix",
    "TestFunction",
    "test_function",
    "closed_form_mode1",
    "closed_form_mode2",
    "closed_form_gaussian",
    "quadrature_fraclap",
    "error_scan",
    "mode1_error",
    "scale_sweep",
    "ErrorScan",
    "QuadratureError",
    "FisherRun",
    "FisherResult",
    "FrontTrace",
    "BlowUpError",
    "FrontEscapeError",
    "initial_condition",
    "rk4_stepper",
    "front_position",
    "fit_sigma",
    "run_simulation",
    "__version__",
]
