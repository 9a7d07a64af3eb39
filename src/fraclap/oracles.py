"""Independent ground truths for validating the pseudospectral operator.

Two routes that never touch the matrix assembly:

* closed forms: the k = 2 mode has the exact image
  -2*Gamma(1+alpha)*(-i*sin(s)*exp(i*s))^(1+alpha), and the Gaussian
  exp(-x^2) maps to Kummer's 1F1(1/2+alpha/2, 1/2, -x^2), evaluated by
  ``scipy.special.hyp1f1``;
* adaptive quadrature of the regularized singular-integral representation
  (Hilbert transform of u_x at alpha = 1, weighted integral of u_xx
  otherwise).

``error_scan`` measures the maximum node-wise deviation of the numeric
operator from a closed form over a grid of alpha values, the quantity used
for accuracy reporting, and ``scale_sweep`` repeats it across map scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.special import hyp1f1

from fraclap.grid import GridConfig, node_positions, nodes
from fraclap.opmatrix import OperatorMatrix, build_matrix, fractional_laplacian
from fraclap.symbol import SymbolParams, fractional_constant, symbol_samples


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature cannot reach the target tolerance."""


@dataclass(frozen=True)
class TestFunction:
    """A bounded C^2 profile with analytic first and second derivatives."""

    __test__ = False  # keep pytest collection away from the Test* name

    name: str
    u: Callable
    u_x: Callable
    u_xx: Callable
    is_complex: bool = False


def _mode_profile(k: int) -> TestFunction:
    # exp(i*k*arccot(x)): bounded on R, tends to 1 and exp(i*k*pi) at +/-inf
    def u(x):
        return np.exp(1j * k * np.arctan2(1.0, x))

    def u_x(x):
        return -1j * k * u(x) / (1.0 + x * x)

    def u_xx(x):
        return u(x) * (-(k * k) + 2j * k * x) / (1.0 + x * x) ** 2

    return TestFunction(f"mode_{k}", u, u_x, u_xx, is_complex=True)


def test_function(name: str, k: int = 2) -> TestFunction:
    """Named validation profiles.

    ``u1_rational``  (x^2-1)/(x^2+1), tends to 1 like O(1/x^2)
    ``u2_rational``  2x/(x^2+1), tends to 0 like O(1/x)
    ``u3_gaussian``  exp(-x^2)
    ``mode_k``       exp(i*k*arccot(x)); u1 + i*u2 for k = 2
    """
    if name == "u1_rational":
        return TestFunction(
            name,
            lambda x: (x * x - 1.0) / (x * x + 1.0),
            lambda x: 4.0 * x / (x * x + 1.0) ** 2,
            lambda x: (4.0 - 12.0 * x * x) / (x * x + 1.0) ** 3,
        )
    if name == "u2_rational":
        return TestFunction(
            name,
            lambda x: 2.0 * x / (x * x + 1.0),
            lambda x: (2.0 - 2.0 * x * x) / (x * x + 1.0) ** 2,
            lambda x: (4.0 * x ** 3 - 12.0 * x) / (x * x + 1.0) ** 3,
        )
    if name == "u3_gaussian":
        # clip the exponent so huge quadrature abscissae underflow to 0
        # instead of producing inf*0
        def _decayed(x, poly):
            x = np.asarray(x, dtype=float)
            t = np.minimum(x * x, 750.0)
            out = np.where(x * x > 750.0, 0.0, poly(np.sign(x) * np.sqrt(t)) * np.exp(-t))
            return float(out) if out.ndim == 0 else out

        return TestFunction(
            name,
            lambda x: _decayed(x, lambda v: 1.0),
            lambda x: _decayed(x, lambda v: -2.0 * v),
            lambda x: _decayed(x, lambda v: 4.0 * v * v - 2.0),
        )
    if name == "mode_k":
        return _mode_profile(k)
    raise ValueError(f"unknown test function {name!r}")


test_function.__test__ = False  # not a pytest item


def closed_form_mode2(s, alpha: float):
    """Exact operator image of exp(2i*s) at unit map scale.

    -2*Gamma(1+alpha)*(-i*sin(s)*exp(i*s))^(1+alpha) with the principal
    branch of the complex power: the k = 2 column of the unit-scale block,
    as :func:`fraclap.symbol.symbol_samples` gives it.  At map scale L the
    image is L^(-alpha) times this.
    """
    s = np.asarray(s, dtype=float)
    base = -1j * np.sin(s) * np.exp(1j * s)
    out = -2.0 * math.gamma(1.0 + alpha) * base ** (1.0 + alpha)
    return complex(out) if out.ndim == 0 else out


def closed_form_gaussian(x, alpha: float):
    """Exact operator image of exp(-x^2):

    (2^alpha * Gamma(1/2+alpha/2) / sqrt(pi)) * 1F1(1/2+alpha/2, 1/2, -x^2),
    with Kummer's 1F1 from ``scipy.special.hyp1f1``.  Even in x; decays like
    -c_alpha*sqrt(pi)*|x|^(-1-alpha) in the far field.
    """
    pref = 2.0**alpha * math.gamma(0.5 + alpha / 2.0) / math.sqrt(math.pi)
    xs = np.asarray(x, dtype=float)
    out = pref * hyp1f1(0.5 + alpha / 2.0, 0.5, -(xs * xs))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Adaptive quadrature of the singular-integral representation
# ---------------------------------------------------------------------------

_QUAD_TOL = 1e-9
_QUAD_LIMIT = 400


def _integrate_halfline(g: Callable[[float], float]) -> tuple[float, float]:
    """Integral of g over (0, inf) via t = cot(theta) on (0, pi/2)."""

    def mapped(theta: float) -> float:
        sin = math.sin(theta)
        return g(math.cos(theta) / sin) / (sin * sin)

    return quad(mapped, 0.0, 0.5 * math.pi, epsabs=_QUAD_TOL / 10, epsrel=1e-12,
                limit=_QUAD_LIMIT)


def _quad_real(g: Callable[[float], float]) -> float:
    val, err = _integrate_halfline(g)
    if err > _QUAD_TOL:
        raise QuadratureError(f"quadrature error estimate {err:.2e} exceeds {_QUAD_TOL}")
    return val


def quadrature_fraclap(f: TestFunction, x: float, alpha: float):
    """Operator value at one point by adaptive quadrature.

    alpha = 1 integrates (u_x(x-z) - u_x(x+z))/z over z > 0 (the symmetric
    principal-value form of the Hilbert transform of u_x; the integrand is
    smooth at z = 0).  alpha != 1 integrates u_xx against |x-y|^(1-alpha);
    the substitution y = x +/- t^(1/(2-alpha)) removes the weak endpoint
    singularity, and the half-lines are mapped to finite intervals through
    t = cot(theta).
    """
    x = float(x)
    if alpha == 1.0:

        def make(part):
            def g(z: float) -> float:
                return part(f.u_x(x - z) - f.u_x(x + z)) / z

            return g

        if f.is_complex:
            return complex(_quad_real(make(np.real)), _quad_real(make(np.imag))) / math.pi
        return _quad_real(make(float)) / math.pi

    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    p = 1.0 / (2.0 - alpha)
    factor = fractional_constant(alpha) / (alpha * (1.0 - alpha)) * p

    def make(part, side):
        def g(t: float) -> float:
            return part(f.u_xx(x + side * t**p))

        return g

    if f.is_complex:
        re = _quad_real(make(np.real, -1.0)) + _quad_real(make(np.real, +1.0))
        im = _quad_real(make(np.imag, -1.0)) + _quad_real(make(np.imag, +1.0))
        return factor * complex(re, im)
    return factor * (_quad_real(make(float, -1.0)) + _quad_real(make(float, +1.0)))


# ---------------------------------------------------------------------------
# Global error scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorScan:
    """Per-alpha maximum node errors and their global maximum."""

    target: str
    alphas: np.ndarray
    errors: np.ndarray

    @property
    def global_max(self) -> float:
        return float(np.max(self.errors))


def alpha_grid(start: float, stop: float, step: float) -> np.ndarray:
    """Arithmetic progression of alpha values inside (0, 2)."""
    count = int(round((stop - start) / step)) + 1
    grid = np.round(start + step * np.arange(count), 12)
    return grid[(grid > 0.0) & (grid < 2.0)]


def _mode2_error(cfg: GridConfig, l_lim: int, alpha: float) -> float:
    # both are unit-scale images; at map scale L each, and so their gap, carries L^(-alpha)
    numeric = symbol_samples(SymbolParams(alpha, 2, cfg.n, l_lim))
    exact = closed_form_mode2(nodes(cfg)[: cfg.n], alpha)
    return float(np.max(np.abs(numeric - exact))) * cfg.l_scale**-alpha


def _gaussian_error(matrix: OperatorMatrix, cfg: GridConfig) -> float:
    x = node_positions(cfg)[: cfg.n]
    numeric = fractional_laplacian(np.exp(-x * x), matrix, cfg)
    return float(np.max(np.abs(numeric - closed_form_gaussian(x, matrix.meta.alpha))))


def error_scan(target: str, cfg: GridConfig, l_lim: int, alphas) -> ErrorScan:
    """Maximum node error against the closed form, per alpha and globally.

    ``target="mode2"`` checks the single k = 2 mode (alpha = 1 must be
    excluded by the caller: that case is exact by construction and the grid
    for it is conventionally skipped).  ``target="gaussian"`` assembles the
    full matrix per alpha and applies it to exp(-x^2) extended with the
    parity of ``cfg``.  Errors are measured on the physical nodes j < n.
    """
    alphas = np.asarray(alphas, dtype=float)
    if target == "mode2":
        errors = [_mode2_error(cfg, l_lim, a) for a in alphas]
    elif target == "gaussian":
        errors = [_gaussian_error(build_matrix(cfg, a, l_lim), cfg) for a in alphas]
    else:
        raise ValueError(f"unknown scan target {target!r}")
    return ErrorScan(target=target, alphas=alphas, errors=np.asarray(errors, dtype=float))


def scale_sweep(
    n: int,
    l_values,
    alphas,
    l_lim: int,
    extension,
    *,
    x_center: float = 0.0,
) -> np.ndarray:
    """Gaussian-target global error for each map scale in ``l_values``.

    The block is the unit-scale operator, which :mod:`fraclap.opmatrix`
    scales by L^(-alpha) on each grid, so one assembly per alpha serves the
    whole sweep.
    """
    l_values = np.asarray(l_values, dtype=float)
    out = np.zeros(len(l_values))
    for a in np.asarray(alphas, dtype=float):
        matrix = build_matrix(GridConfig(n, 1.0), a, l_lim)
        for i, l_scale in enumerate(l_values):
            cfg = GridConfig(n, float(l_scale), x_center, extension)
            out[i] = max(out[i], _gaussian_error(matrix, cfg))
    return out
