"""Real trigonometric transforms of the n physical values.

A function known at the physical nodes s_j = pi*(2j+1)/(2n), j < n, is
continued evenly or oddly across s = pi.  Its phase-shifted Fourier
coefficients uhat(k) = sum_j u(s_j)*exp(-i*k*s_j)/(2n) over all 2n nodes
then reduce to a real transform of the n values:

* even: uhat(k) = uhat(-k) = c_k with c_k = sum_j u_j*cos(k*s_j)/n, the
  DCT-II over 2n, k = 0..n-1, and uhat(-n) = 0;
* odd: uhat(k) = -i*d_(k-1) and uhat(-k) = i*d_(k-1) with
  d_(k-1) = sum_j u_j*sin(k*s_j)/n, the DST-II over 2n, k = 1..n.

The interpolant is then a cosine or sine series in theta =
arccot((x - x_center)/l_scale), the rational Chebyshev functions TB_k and
SB_k of Boyd, *Chebyshev and Fourier Spectral Methods* (2001), ch. 17.

Both come from one real FFT of n points (:func:`cosine_transform`), so this
module needs numpy alone.
"""

from __future__ import annotations

import functools

import numpy as np

from fraclap.grid import Extension, GridConfig, x_to_s

_SIZES = 8  # transform sizes whose constants are kept


@functools.lru_cache(maxsize=_SIZES)
def _makhoul(n: int) -> tuple:
    """The read-only constants of :func:`cosine_transform` at n: Makhoul's order and the twiddles."""
    order = np.concatenate((np.arange(0, n, 2), np.arange(n - 1 - n % 2, 0, -2)))
    twiddle = np.exp(np.arange(n // 2 + 1) * (-0.5j * np.pi / n)) / n
    order.flags.writeable = twiddle.flags.writeable = False
    return order, twiddle


def cosine_transform(n: int):
    """The DCT-II over 2n of n values, with its work arrays bound once.

    Returns ``dct2(u) -> c``, c_k = sum_j u_j*cos(pi*k*(2j+1)/(2n))/n, a new
    array for each call.  Makhoul's reorder (*IEEE Trans. ASSP* 28, 1980)
    makes it one real FFT: v = [u_0, u_2, ..., u_3, u_1] (even entries, then
    odd ones reversed) and z_k = rfft(v)_k*exp(-i*pi*k/(2n))/n give
    c_k = Re z_k for k <= n/2 and c_(n-k) = -Im z_k.  The order and the
    twiddles are read-only constants shared by every transform of n points
    (:func:`_makhoul`, at most _SIZES n kept); the work arrays belong to the
    returned function alone, so two transforms never share one.
    """
    if n < 1:
        raise ValueError(f"invalid number of data points ({n}) specified")
    half = n // 2 + 1
    order, twiddle = _makhoul(n)
    v = np.empty(n)
    z = np.empty(half, dtype=complex)
    tail = z.imag[(n + 1) // 2 - 1 : 0 : -1]  # Im z_k for k = (n-1)//2 .. 1, read into c_(n//2+1) ..

    def dct2(u: np.ndarray) -> np.ndarray:
        np.take(u, order, out=v)
        np.fft.rfft(v, out=z)
        np.multiply(z, twiddle, out=z)
        c = np.empty(n)
        c[:half] = z.real
        np.negative(tail, out=c[half:])
        return c

    return dct2


def transform(samples, extension) -> np.ndarray:
    """The n real coefficients of n physical values: c (even) or d (odd).

    The DST-II is the DCT-II of the alternated values (-1)^j*u_j, read in
    reverse: cos((n-1-k)*s_j) = (-1)^j*sin((k+1)*s_j).
    """
    u = np.asarray(samples, dtype=float)
    if u.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    dct2 = cosine_transform(u.size)
    if Extension(extension) is Extension.EVEN:
        return dct2(u)
    alternated = u.copy()
    np.negative(u[1::2], out=alternated[1::2])
    return dct2(alternated)[::-1].copy()


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
