"""Action of the fractional Laplacian on the Fourier modes exp(i*k*s).

For the mapped operator, the image of one mode is a series in the even
harmonics exp(2i*l*s).  On the half-shifted nodes aliasing collapses the
outer index through l = l1*n + l2:

    exp(2i*l*s_j) = (-1)^l1 * exp(2i*l2*s_j),   l2 in {-n/2, ..., n/2-1},

so truncating |l1| <= l_lim turns the doubly infinite series into an
(2*l_lim+1) x n table of products of gamma ratios, summed over l1.  The
special case alpha = 1 has an exact closed form for even k and a rational
series for odd k.  :func:`mode_columns` evaluates any set of modes at once;
:func:`symbol_samples` is its one-mode case.

Every value here is at unit map scale: the operator is homogeneous of
degree -alpha, so on the map x = x_c + L*cot(s) each image carries the
factor L^(-alpha), which :mod:`fraclap.opmatrix` applies.  The image of a
mode is a function of x, so it only needs the n physical nodes: s_{j+n} =
s_j + pi is the same point x_j.  There 2*l2*s_j = 2*pi*l2*j/n + pi*l2/n,
so the remaining l2 series is one n-point inverse DFT of the l1 sums times
exp(i*pi*l2/n) (Cooley & Tukey, Math. Comp. 19, 1965), which gives all n
rows of every column at once.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import ifft, ifftshift

from fraclap.gammaratio import build_tables
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


def _k_factor(e: np.ndarray, alpha: float, parity: int, tables) -> np.ndarray:
    """G at e = d - l1*n = floor(k/2) - l: the k-dependent factor of a term.

    ``e`` is overwritten.  Gamma ratio B(|k/2 - l|) for even k, signed
    C(|k/2 - l| - 1/2) for odd k, the rational term for alpha = 1 (odd k).
    """
    if alpha == 1.0:
        dd = 2.0 * e + 1.0  # k - 2l
        return 4.0 / (dd * (dd * dd - 4.0))
    if parity == 0:
        return tables.vec_b[np.abs(e, out=e)]
    neg = e < 0
    c = tables.vec_c[np.invert(e, out=e, where=neg)]
    return np.negative(c, out=c, where=neg)


def mode_columns(n: int, alpha: float, l_lim: int, ks) -> np.ndarray:
    """Unit-scale operator on exp(i*k*s) at the n physical nodes, one column per k in ``ks``.

    The gamma tables are built for the parities of ``ks`` (alpha = 1 needs
    none).  Per parity of k each term of the l1
    sum is W[l1, l2] times G[l1, d] with d = floor(k/2) - l2, so the sums
    are the reductions P0 = sum W*G and P1 = sum W*l1*G, taken over a
    sliding window of G that holds only the pairs (l2, d) the columns read:
    O(l_lim*n) work for one column.  The l2 series at the nodes is then one
    shifted inverse FFT per parity, O(n log n) per column.  The reductions
    run in np.einsum and the FFT in pocketfft, neither in BLAS, so the
    result does not depend on the BLAS thread count.  Raises TypeError for
    a non-integer k or l_lim and ValueError for an odd or too small n, a
    negative l_lim or a k outside 1..n-1.
    """
    ks = np.asarray(ks)
    if ks.dtype.kind not in "iu" or not isinstance(l_lim, (int, np.integer)):
        raise TypeError(f"k and l_lim must be integers, got k = {ks.tolist()!r}, l_lim = {l_lim!r}")
    s = nodes(GridConfig(n, 1.0))  # checks n
    if l_lim < 0:
        raise ValueError(f"l_lim must be nonnegative, got {l_lim}")
    if ks.size == 0 or ks.min() < 1 or ks.max() > n - 1:
        raise ValueError(f"every k must lie in 1..n-1 = 1..{n - 1}, got {ks.tolist()}")
    ks = ks.astype(np.int64)
    l2 = np.arange(-(n // 2), n // 2)
    l1 = np.arange(-l_lim, l_lim + 1)
    l1 = l1[np.argsort(-np.abs(l1), kind="stable")][:, None]  # smallest terms first
    l_full = l1 * n + l2
    sign1 = np.where(l1 % 2 == 0, 1.0, -1.0)
    if alpha == 1.0:
        weights, tables = (sign1 * np.sign(l_full),), None
    else:
        tables = build_tables(alpha, n, l_lim, parities=set((ks % 2).tolist()))
        w = sign1 * tables.vec_a[np.abs(l_full)]
        weights = (w, w * l1)
        pref = fractional_constant(alpha) * np.abs(np.sin(s)) ** (alpha - 1.0) / 8.0
    del l_full
    half_step = np.exp(1j * np.pi * l2 / n)[:, None]
    out = np.empty((n, ks.size), dtype=np.complex128)

    for parity in (0, 1):
        sel = np.flatnonzero(ks % 2 == parity)
        if sel.size == 0:
            continue
        k = ks[sel]
        if alpha == 1.0 and parity == 0:
            out[:, sel] = k * np.sin(s)[:, None] ** 2 * np.exp(1j * np.outer(s, k))
            continue
        # G at every d = h - l2, h = floor(k/2) from min(h) to max(h); the
        # window [l1, l2, c] holds G at d = min(h) + c - l2
        h = k // 2
        d = np.arange(h.min() - l2[-1], h.max() - l2[0] + 1)
        g = _k_factor(d - l1 * n, alpha, parity, tables)
        window = sliding_window_view(g, h.max() - h.min() + 1, axis=1)[:, ::-1]
        sums = [np.einsum("ij,ijc->jc", wt, window)[:, h - h.min()] for wt in weights]
        del g, window
        if alpha == 1.0:
            (l2_sums,) = sums
        else:
            p0, p1 = sums
            l2_sums = (1.0 - alpha) * k * k * p0 - 4.0 * k * (n * p1 + l2[:, None] * p0)
        # sum over l2 of exp(2i*l2*s_j) * l2_sums: the DFT with l2 = 0 moved to row 0
        series = ifft(ifftshift(half_step * l2_sums, axes=0), axis=0, norm="forward")
        if alpha == 1.0:
            out[:, sel] = (1j * k / np.pi) * (-2.0 / (k * k - 4.0) - series)
        elif parity == 0:
            out[:, sel] = (pref / math.tan(math.pi * alpha / 2.0))[:, None] * series
        else:
            out[:, sel] = 1j * pref[:, None] * series
    return out


def symbol_samples(alpha: float, k: int, n: int, l_lim: int) -> np.ndarray:
    """Values of the unit-scale operator applied to exp(i*k*s) at the n physical nodes.

    k must lie in 1..n-1.  This is the one-column case of :func:`mode_columns`.
    """
    return mode_columns(n, alpha, l_lim, [k])[:, 0]
