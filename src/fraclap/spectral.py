"""Real trigonometric transforms of the n physical values.

A function known at the physical nodes s_j = pi*(2j+1)/(2n), j < n, is
continued evenly or oddly across s = pi.  Its phase-shifted Fourier
coefficients uhat(k) = sum_j u(s_j)*exp(-i*k*s_j)/(2n) over all 2n nodes
then reduce to a real transform of the n values:

* even: uhat(k) = uhat(-k) = c_k with c = dct(u, type=2)/(2n), k = 0..n-1,
  and uhat(-n) = 0;
* odd: uhat(k) = -i*d_(k-1) and uhat(-k) = i*d_(k-1) with
  d = dst(u, type=2)/(2n), k = 1..n.

The interpolant is then a cosine or sine series in theta =
arccot((x - x_center)/l_scale), the rational Chebyshev functions TB_k and
SB_k of Boyd, *Chebyshev and Fourier Spectral Methods* (2001), ch. 17.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import dct, dst

from fraclap.grid import Extension, GridConfig, x_to_s


def transform(samples, extension) -> np.ndarray:
    """The n real coefficients of n physical values: c (even) or d (odd)."""
    u = np.asarray(samples, dtype=float)
    if u.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    real_transform = dct if Extension(extension) is Extension.EVEN else dst
    return real_transform(u, type=2) / (2 * u.size)


def evaluate(coeffs, extension, cfg: GridConfig, xs):
    """The series of :func:`transform`'s coefficients at the points xs.

    Even: c_0 + 2*sum_(k<n) c_k*cos(k*theta).  Odd: 2*sum_(k<n) d_(k-1)*sin(k*theta)
    + d_(n-1)*sin(n*theta).  Both reproduce the n values at the nodes.  Scalar
    input returns a float, array input an array.
    """
    c = np.asarray(coeffs, dtype=float)
    theta = np.asarray(x_to_s(cfg, xs))[..., None]
    w = 2.0 * c
    if Extension(extension) is Extension.EVEN:
        w[0] = c[0]
        out = np.cos(theta * np.arange(c.size)) @ w
    else:
        w[-1] = c[-1]
        out = np.sin(theta * np.arange(1, c.size + 1)) @ w
    return float(out) if np.ndim(xs) == 0 else out
