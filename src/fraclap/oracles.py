"""Independent ground truths for validating the pseudospectral operator.

Two routes that never touch the matrix assembly:

* closed forms: the k = 2 mode has the exact image
  -2*Gamma(1+alpha)*(-i*sin(s)*exp(i*s))^(1+alpha), the k = 1 mode a sum
  of two Gauss 2F1 of -x^2 (``scipy.special.hyp2f1``), and the Gaussian
  exp(-x^2) maps to Kummer's 1F1(1/2+alpha/2, 1/2, -x^2), evaluated by
  ``scipy.special.hyp1f1``;
* adaptive quadrature of the regularized singular-integral representation
  (Hilbert transform of u_x at alpha = 1, weighted integral of u_xx
  otherwise).

``error_scan`` measures the maximum node-wise deviation of the numeric
operator from a closed form over a grid of alpha values, the quantity used
for accuracy reporting, and ``scale_sweep`` repeats it across map scales.

Each SciPy module is imported on first use, so ``import fraclap`` loads
none: the mode-1 and Gaussian closed forms (and so ``mode1_error``) load
scipy.special, the quadrature scipy.integrate.  The mode-2 closed form
needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from fraclap.grid import GridConfig, node_positions, nodes
from fraclap.opmatrix import OperatorMatrix, build_matrix, fractional_laplacian
from fraclap.symbol import fractional_constant, symbol_samples


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


def _mode_profile(k: int) -> TestFunction:
    # exp(i*k*arccot(x)): bounded on R, tends to 1 and exp(i*k*pi) at +/-inf
    def u(x):
        return np.exp(1j * k * np.arctan2(1.0, x))

    def u_x(x):
        return -1j * k * u(x) / (1.0 + x * x)

    def u_xx(x):
        return u(x) * (-(k * k) + 2j * k * x) / (1.0 + x * x) ** 2

    return TestFunction(f"mode_{k}", u, u_x, u_xx)


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
    which :func:`fraclap.symbol.symbol_samples` approximates by the paper's
    truncated series.  At map scale L the image is L^(-alpha) times this.
    """
    s = np.asarray(s, dtype=float)
    base = -1j * np.sin(s) * np.exp(1j * s)
    out = -2.0 * math.gamma(1.0 + alpha) * base ** (1.0 + alpha)
    return complex(out) if out.ndim == 0 else out


def closed_form_mode1(s, alpha: float):
    """Exact operator image of exp(i*s) at unit map scale, at x = cot(s).

    exp(i*s) = x*(1+x^2)^(-1/2) + i*(1+x^2)^(-1/2), and the image of each part
    is a Gauss hypergeometric function of -x^2 (Dyda, Fract. Calc. Appl.
    Anal. 15, 2012), here from ``scipy.special.hyp2f1``:

        c1*x*2F1((1+alpha)/2, (3+alpha)/2; 3/2; -x^2)
            + i*c0*2F1((1+alpha)/2, (1+alpha)/2; 1/2; -x^2),
        c1 = 2^alpha*Gamma((1+alpha)/2)*Gamma((3+alpha)/2) / (Gamma(1/2)*Gamma(3/2)),
        c0 = 2^alpha*Gamma((1+alpha)/2)^2 / Gamma(1/2)^2.

    The k = 1 column of the unit-scale block; at map scale L the image is
    L^(-alpha) times this.
    """
    from scipy.special import hyp2f1  # on first use, like quad below

    s = np.asarray(s, dtype=float)
    x = np.cos(s) / np.sin(s)
    z = -(x * x)
    h = (1.0 + alpha) / 2.0
    c1 = 2.0**alpha * math.gamma(h) * math.gamma(h + 1.0) / (math.gamma(0.5) * math.gamma(1.5))
    c0 = 2.0**alpha * math.gamma(h) ** 2 / math.gamma(0.5) ** 2
    out = c1 * x * hyp2f1(h, h + 1.0, 1.5, z) + 1j * c0 * hyp2f1(h, h, 0.5, z)
    return complex(out) if out.ndim == 0 else out


def closed_form_gaussian(x, alpha: float):
    """Exact operator image of exp(-x^2):

    (2^alpha * Gamma(1/2+alpha/2) / sqrt(pi)) * 1F1(1/2+alpha/2, 1/2, -x^2),
    with Kummer's 1F1 from ``scipy.special.hyp1f1``.  Even in x; decays like
    -c_alpha*sqrt(pi)*|x|^(-1-alpha) in the far field.
    """
    from scipy.special import hyp1f1  # on first use, like quad below

    pref = 2.0**alpha * math.gamma(0.5 + alpha / 2.0) / math.sqrt(math.pi)
    xs = np.asarray(x, dtype=float)
    out = pref * hyp1f1(0.5 + alpha / 2.0, 0.5, -(xs * xs))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Adaptive quadrature of the singular-integral representation
# ---------------------------------------------------------------------------

_QUAD_TOL = 1e-9  # absolute: near the data
_QUAD_REL = 1e-7  # relative: far from the data the value is small
_QUAD_LIMIT = 400


def _quad_sum(pieces, is_complex: bool, epsabs: float) -> tuple:
    """Sums of the integrals of g over (a, b), (g, a, b) in pieces, and of their error estimates."""
    from scipy.integrate import quad  # on first use, like hyp1f1 above

    total = err = 0.0
    for g, a, b in pieces:
        val, est = quad(g, a, b, epsabs=epsabs, epsrel=1e-12, limit=_QUAD_LIMIT,
                        complex_func=is_complex)
        total += val
        err += max(est.real, est.imag)  # for a complex g, the larger part's
    return total, err


def quadrature_fraclap(f: TestFunction, x: float, alpha: float):
    """Operator value at one point by adaptive quadrature.

    alpha = 1 integrates u_x(y)/(x - y) (the Hilbert transform of u_x),
    alpha != 1 u_xx(y)*|x - y|^(1 - alpha), split at |y - x| = r =
    max(1, |x|/2).  Inside, both sides form one integrand of the distance:
    (u_x(x-z) - u_x(x+z))/z, smooth at z = 0, or u_xx at
    y = x +/- t^(1/(2-alpha)), free of the weight's weak singularity.
    Outside, y = cot(phi) puts the data (every profile here varies on a
    unit scale about y = 0) near phi = pi/2, however far away x is.  The
    summed error estimate must be at most 1e-9, and where |x| > 2, where
    the values decay, also at most 1e-7 of the value: failing that, the
    integrals are redone to a tolerance scaled to the value, then
    :class:`QuadratureError` is raised.  A profile whose value at x is
    complex is integrated as a complex function.
    """
    x = float(x)
    c = fractional_constant(alpha)  # checks alpha before 1/(2 - alpha) is formed
    r = max(1.0, abs(x) / 2.0)
    if alpha == 1.0:
        def near(z: float):
            return (f.u_x(x - z) - f.u_x(x + z)) / z

        def weighted(y: float):
            return f.u_x(y) / (x - y)

        factor, end = 1.0 / math.pi, r
    else:
        p = 1.0 / (2.0 - alpha)

        def near(t: float):
            return p * (f.u_xx(x - t**p) + f.u_xx(x + t**p))

        def weighted(y: float):
            return f.u_xx(y) * abs(x - y) ** (1.0 - alpha)

        factor, end = c / (alpha * (1.0 - alpha)), r ** (2.0 - alpha)

    def far(phi: float):
        sin = math.sin(phi)
        return weighted(math.cos(phi) / sin) / (sin * sin)

    pieces = ((near, 0.0, end), (far, 0.0, math.atan2(1.0, x + r)),
              (far, math.atan2(1.0, x - r), math.pi))
    far_out = r > 1.0  # the values decay: accept them relative to themselves too
    is_complex = np.iscomplexobj(f.u(x))
    total, err = _quad_sum(pieces, is_complex, _QUAD_TOL / 10)
    if far_out and err > _QUAD_REL * abs(total):
        total, err = _quad_sum(pieces, is_complex, _QUAD_REL * abs(total) / 10)
    if err > _QUAD_TOL or far_out and err > _QUAD_REL * abs(total):
        raise QuadratureError(
            f"quadrature error estimate {err:.2e} exceeds {_QUAD_TOL} or {_QUAD_REL} of the value")
    return factor * total


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


def progression(start: float, stop: float, step: float) -> np.ndarray:
    """start, start + step, ... through the last point at or below stop, rounded to 12 decimals.

    A rounded point within 1e-9 of a step above stop counts as at stop, so
    0.05:1.95:0.05 ends at 1.95 and 0.5:1.96:0.1 at 1.9.  Raises
    ValueError when stop - start is 10 000 steps or more: such a span is a
    typo, not a plan.
    """
    steps = (stop - start) / step
    if not steps < 10_000:
        raise ValueError(f"span {start:g}:{stop:g}:{step:g} has more than 10000 points")
    points = np.round(start + step * np.arange(math.floor(steps) + 2), 12)  # one past stop
    return points[points <= stop + 1e-9 * step]


def alpha_grid(start: float, stop: float, step: float) -> np.ndarray:
    """The points of :func:`progression` inside (0, 2)."""
    grid = progression(start, stop, step)
    return grid[(grid > 0.0) & (grid < 2.0)]


def _mode2_error(cfg: GridConfig, l_lim: int, alpha: float) -> float:
    # both are unit-scale images; at map scale L each, and so their gap, carries L^(-alpha)
    numeric = symbol_samples(alpha, cfg.n, l_lim)
    exact = closed_form_mode2(nodes(cfg), alpha)
    return float(np.max(np.abs(numeric - exact))) * cfg.l_scale**-alpha


def mode1_error(matrix: OperatorMatrix) -> float:
    """Self-check of a unit-scale block: max node error of its k = 1 column.

    The column, a truncated series at the block's l_lim, is compared with
    :func:`closed_form_mode1` at the n nodes, both at unit scale.
    """
    meta = matrix.meta
    exact = closed_form_mode1(nodes(GridConfig(meta.n, 1.0)), meta.alpha)
    return float(np.max(np.abs(matrix.entries[:, 0] - exact)))


def _gaussian_error(matrix: OperatorMatrix, cfg: GridConfig) -> float:
    x = node_positions(cfg)
    numeric = fractional_laplacian(np.exp(-x * x), matrix, cfg)
    return float(np.max(np.abs(numeric - closed_form_gaussian(x, matrix.meta.alpha))))


def error_scan(target: str, cfg: GridConfig, l_lim: int, alphas) -> ErrorScan:
    """Maximum node error against the closed form, per alpha and globally.

    ``target="mode2"`` checks the single k = 2 mode (alpha = 1 must be
    excluded by the caller: there the column is the closed form itself, and
    the paper's grid skips it by convention).  ``target="gaussian"`` assembles the
    full matrix per alpha and applies it to exp(-x^2) extended with the
    parity of ``cfg``.  Errors are measured at the n nodes of the grid.
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
