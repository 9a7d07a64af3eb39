"""Phase-shifted discrete Fourier transforms on the half-shifted nodes.

A function on the 2n nodes s_j = pi*(2j+1)/(2n) is represented as

    u(s_j) = sum_{k=-n}^{n-1} uhat(k) * exp(i*k*s_j),

with coefficients stored in FFT bin order k = 0..n-1, -n..-1.  Because the
nodes are shifted by half a spacing, the plain FFT acquires the per-mode
phase exp(-i*k*pi/(2n)):

    uhat(k) = exp(-i*k*pi/(2n))/(2n) * sum_j u(s_j) * exp(-2i*pi*j*k/(2n)).

The module also provides the parity extension across s = pi, a Krasny
filter that zeroes coefficients below a round-off threshold, and evaluation
of the interpolant at arbitrary physical points.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from fraclap.grid import Extension, GridConfig, x_to_s

#: Krasny threshold: double precision machine epsilon (absolute).
KRASNY_THRESHOLD = float(np.finfo(np.float64).eps)

# Interpolation is evaluated in blocks of query points to bound the size of
# the (points x modes) phase matrix.
_INTERP_BLOCK = 512


def mode_numbers(n: int) -> np.ndarray:
    """Signed mode numbers in storage order: 0, 1, ..., n-1, -n, ..., -1."""
    return np.concatenate([np.arange(n), np.arange(-n, 0)])


@dataclass(frozen=True)
class SpectralCoefficients:
    """Fourier coefficients uhat(k) of a sampled function, tied to a grid.

    ``values[i]`` holds the coefficient of mode ``mode_numbers(grid.n)[i]``.
    Instances are immutable; the backing array is marked read-only.
    """

    grid: GridConfig
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (2 * self.grid.n,):
            raise ValueError(
                f"expected {2 * self.grid.n} coefficients, got shape {vals.shape}"
            )
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def modes(self) -> np.ndarray:
        return mode_numbers(self.grid.n)


@functools.cache
def _forward_phase(n: int) -> np.ndarray:
    """exp(-i*k*pi/(2n)) per stored mode, computed once per n (read-only)."""
    phase = np.exp(-1j * mode_numbers(n) * np.pi / (2 * n))
    phase.flags.writeable = False
    return phase


def forward(samples, cfg: GridConfig) -> SpectralCoefficients:
    """Transform 2n samples at the nodes into coefficients uhat(k)."""
    arr = np.asarray(samples, dtype=np.complex128)
    if arr.shape != (2 * cfg.n,):
        raise ValueError(f"expected {2 * cfg.n} samples, got shape {arr.shape}")
    vals = np.fft.fft(arr) / (2 * cfg.n) * _forward_phase(cfg.n)
    return SpectralCoefficients(grid=cfg, values=vals)


def inverse(coeffs: SpectralCoefficients) -> np.ndarray:
    """Evaluate the interpolant at the 2n nodes (inverse of :func:`forward`)."""
    n = coeffs.grid.n
    return 2 * n * np.fft.ifft(coeffs.values * np.conj(_forward_phase(n)))


def extend(half_samples, extension) -> np.ndarray:
    """Continue samples from the physical nodes j < n to all 2n nodes.

    Uses s_{2n-1-j} = 2*pi - s_j: the reflected entry is ``+u_j`` for the
    even extension and ``-u_j`` for the odd one.
    """
    ext = Extension(extension)
    half = np.asarray(half_samples)
    if half.ndim != 1:
        raise ValueError("half_samples must be one-dimensional")
    mirrored = half[::-1] if ext is Extension.EVEN else -half[::-1]
    return np.concatenate([half, mirrored])


def krasny_filter(coeffs: SpectralCoefficients) -> SpectralCoefficients:
    """Zero every coefficient with modulus below ``KRASNY_THRESHOLD`` (absolute)."""
    vals = np.where(np.abs(coeffs.values) < KRASNY_THRESHOLD, 0.0, coeffs.values)
    return SpectralCoefficients(grid=coeffs.grid, values=vals)


def interpolate(coeffs: SpectralCoefficients, xs) -> np.ndarray:
    """Evaluate sum_k uhat(k)*exp(i*k*arccot((x - x_center)/l_scale)) at xs.

    The angle lies in (0, pi), the half of the circle that holds the
    physical nodes.
    """
    cfg = coeffs.grid
    pts = np.atleast_1d(np.asarray(xs, dtype=float))
    theta = x_to_s(cfg, pts)
    k = mode_numbers(cfg.n)
    out = np.empty(pts.size, dtype=np.complex128)
    for lo in range(0, pts.size, _INTERP_BLOCK):
        hi = min(lo + _INTERP_BLOCK, pts.size)
        out[lo:hi] = np.exp(1j * np.outer(theta[lo:hi], k)) @ coeffs.values
    return out[0] if np.ndim(xs) == 0 else out
