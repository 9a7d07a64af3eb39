"""Action of the fractional Laplacian on a single Fourier mode exp(i*k*s).

For the mapped operator, the image of one mode is a series in the even
harmonics exp(2i*l*s).  On the half-shifted nodes aliasing collapses the
outer index through l = l1*n + l2:

    exp(2i*l*s_j) = (-1)^l1 * exp(2i*l2*s_j),   l2 in {-n/2, ..., n/2-1},

so truncating |l1| <= l_lim turns the doubly infinite series into an
(2*l_lim+1) x n table of products of gamma ratios, summed over l1.  The
special case alpha = 1 has an exact closed form for even k and a rational
series for odd k.

Node values are only computed for j < n/2 and extended by the symmetries
exp(2i*l2*s_{n-1-j}) = conj(exp(2i*l2*s_j)) and s_{j+n} = s_j + pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fraclap.gammaratio import GammaRatioTables, build_tables
from fraclap.grid import GridConfig, nodes


def fractional_constant(alpha: float) -> float:
    """Normalization c_alpha = alpha*2^(alpha-1)*Gamma(1/2+alpha/2) / (sqrt(pi)*Gamma(1-alpha/2))."""
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    return (
        alpha
        * 2.0 ** (alpha - 1.0)
        * math.gamma(0.5 + alpha / 2.0)
        / (math.sqrt(math.pi) * math.gamma(1.0 - alpha / 2.0))
    )


@dataclass(frozen=True)
class SymbolParams:
    """Inputs for evaluating one mode column: alpha, mode k, grid, truncation."""

    alpha: float
    k: int
    cfg: GridConfig
    l_lim: int
    c_alpha: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie in (0, 2), got {self.alpha}")
        if self.l_lim < 0:
            raise ValueError(f"l_lim must be nonnegative, got {self.l_lim}")
        if not isinstance(self.k, (int, np.integer)):
            raise TypeError(f"k must be an integer, got {self.k!r}")
        if self.c_alpha is None:
            object.__setattr__(self, "c_alpha", fractional_constant(self.alpha))


def a_coeff(
    k: int, l1: int, l2: int, tables: GammaRatioTables, alpha: float, n: int
) -> float:
    """One term of the truncated double sum for alpha != 1.

    The gamma ratios are read from the tables at the absolute-value indices
    |l1*n + l2| and |k/2 - l1*n - l2| (shifted by 1/2 for odd k, where a
    sign factor sgn(k/2 - l) also enters).
    """
    l = l1 * n + l2
    idx_a = abs(l)
    if idx_a >= tables.vec_a.size:
        raise IndexError(
            f"|l1*n + l2| = {idx_a} exceeds table length {tables.vec_a.size}; "
            "tables were built for a smaller l_lim"
        )
    sign1 = -1.0 if l1 % 2 else 1.0
    base = sign1 * ((1.0 - alpha) * k * k - 4.0 * k * l) * tables.vec_a[idx_a]
    if k % 2 == 0:
        idx_b = abs(k // 2 - l)
        if idx_b >= tables.vec_b.size:
            raise IndexError(
                f"|k/2 - l| = {idx_b} exceeds table length {tables.vec_b.size}"
            )
        return base * tables.vec_b[idx_b]
    half = k / 2.0 - l
    idx_c = int(abs(half) - 0.5)
    if idx_c >= tables.vec_c.size:
        raise IndexError(f"|k/2 - l| - 1/2 = {idx_c} exceeds table length {tables.vec_c.size}")
    return base * math.copysign(1.0, half) * tables.vec_c[idx_c]


def b_coeff(k: int, l1: int, l2: int, n: int) -> float:
    """One term of the rational series for alpha = 1, odd k.

    Returns 0 at l1*n + l2 = 0 (the sign factor vanishes); the denominator
    (k - 2l)((k - 2l)^2 - 4) never vanishes for odd k.
    """
    if k % 2 == 0:
        raise ValueError(f"b_coeff is defined for odd k only, got k = {k}")
    l = l1 * n + l2
    if l == 0:
        return 0.0
    sign1 = -1.0 if l1 % 2 else 1.0
    d = float(k - 2 * l)
    return 4.0 * sign1 * math.copysign(1.0, l) / (d * (d * d - 4.0))


class _AliasGrids:
    """Index grids shared by every mode of one (n, l_lim) assembly."""

    def __init__(self, n: int, l_lim: int):
        self.n = n
        self.l_lim = l_lim
        self.l2 = np.arange(-(n // 2), n // 2)
        self.l1 = np.arange(-l_lim, l_lim + 1)
        self.l_full = self.l1[:, None] * n + self.l2[None, :]
        self.sign1 = np.where(self.l1 % 2 == 0, 1.0, -1.0)[:, None]
        # accumulate the l1 sum from the largest |l1| (smallest terms) down
        self.l1_order = np.argsort(-np.abs(self.l1), kind="stable")
        half = nodes(GridConfig(n, 1.0))[: n // 2]
        self.phase_half = np.exp(2j * np.outer(half, self.l2))


def _sum_l1_descending(terms: np.ndarray, grids: _AliasGrids) -> np.ndarray:
    acc = np.zeros(terms.shape[1], dtype=terms.dtype)
    for i in grids.l1_order:
        acc += terms[i]
    return acc


def _inner_sums_fractional(
    alpha: float, k: int, grids: _AliasGrids, tables: GammaRatioTables,
    weighted_a: np.ndarray | None = None,
) -> np.ndarray:
    """sum over l1 of the a-coefficients, for every l2 (alpha != 1)."""
    if weighted_a is None:
        weighted_a = grids.sign1 * tables.vec_a[np.abs(grids.l_full)]
    poly = (1.0 - alpha) * k * k - 4.0 * k * grids.l_full
    if k % 2 == 0:
        terms = weighted_a * poly * tables.vec_b[np.abs(k // 2 - grids.l_full)]
    else:
        half = k / 2.0 - grids.l_full
        idx = (np.abs(half) - 0.5).astype(np.int64)
        terms = weighted_a * poly * np.sign(half) * tables.vec_c[idx]
    return _sum_l1_descending(terms, grids)


def _inner_sums_alpha1(k: int, grids: _AliasGrids) -> np.ndarray:
    """sum over l1 of the b-coefficients, for every l2 (alpha = 1, odd k)."""
    d = k - 2.0 * grids.l_full
    terms = 4.0 * grids.sign1 * np.sign(grids.l_full) / (d * (d * d - 4.0))
    return _sum_l1_descending(terms, grids)


def _l2_series_at_nodes(sums: np.ndarray, grids: _AliasGrids) -> np.ndarray:
    """Evaluate sum_{l2} S(l2)*exp(2i*l2*s_j) at all 2n nodes.

    Computes j < n/2 and extends by the node symmetries.
    """
    n = grids.n
    g_half = grids.phase_half @ sums
    phys = np.empty(n, dtype=np.complex128)
    phys[: n // 2] = g_half
    phys[n // 2 :] = np.conj(g_half[::-1])
    return np.concatenate([phys, phys])


def symbol_samples(params: SymbolParams, tables: GammaRatioTables | None = None) -> np.ndarray:
    """Values of the operator applied to exp(i*k*s) at all 2n nodes.

    ``tables`` may be shared across modes; when omitted (and alpha != 1)
    they are built on the fly.  k = 0 returns the zero vector, k must lie
    in {0, ..., n-1}.
    """
    n = params.cfg.n
    k = int(params.k)
    alpha = params.alpha
    l_scale = params.cfg.l_scale
    if not 0 <= k <= n - 1:
        raise ValueError(f"k must lie in 0..n-1 = 0..{n - 1}, got {k}")
    if k == 0:
        return np.zeros(2 * n, dtype=np.complex128)

    s = nodes(params.cfg)
    if alpha == 1.0 and k % 2 == 0:
        return k * np.sin(s) ** 2 / l_scale * np.exp(1j * k * s)

    grids = _AliasGrids(n, params.l_lim)
    if alpha == 1.0:
        series = _l2_series_at_nodes(_inner_sums_alpha1(k, grids), grids)
        return (1j * k / (l_scale * np.pi)) * (-2.0 / (k * k - 4.0) - series)

    if tables is None:
        tables = build_tables(alpha, n, params.l_lim)
    elif tables.alpha != alpha:
        raise ValueError(
            f"tables were built for alpha = {tables.alpha}, expected {alpha}"
        )
    sums = _inner_sums_fractional(alpha, k, grids, tables)
    series = _l2_series_at_nodes(sums, grids)
    prefactor = (
        params.c_alpha * np.abs(np.sin(s)) ** (alpha - 1.0) / (8.0 * l_scale**alpha)
    )
    if k % 2 == 0:
        return prefactor / math.tan(math.pi * alpha / 2.0) * series
    return 1j * prefactor * series
