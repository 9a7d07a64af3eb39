"""Stable gamma-ratio vectors by recursion.

The odd columns' sums need ratios Gamma(a+m)/Gamma(b+m) for m up to a few
hundred thousand.  Evaluating the numerator and denominator separately
overflows double precision near argument 172, so the vectors are built from
the functional equation Gamma(z+1) = z*Gamma(z):

    Gamma(a+m+1)/Gamma(b+m+1) = (a+m)/(b+m) * Gamma(a+m)/Gamma(b+m),

a multiplicative recursion whose factors tend to 1 and keep every entry
finite.  Gamma itself (``math.gamma``) is only needed at the base argument.
This module owns that recursion alone: :func:`ratio_vector` computes one
vector whole for any (a, b) and length, and its caller decides which
vectors and how many entries (:func:`fraclap.symbol.odd_mode_columns`
requests the two it reads).  The even modes read none: they have a closed
form (:func:`fraclap.symbol.even_mode_columns`), and the terms of the k = 2
series are rational in m (:func:`fraclap.symbol._mode2_chunks`).

The running product is long double for the first _HEAD entries and float64
after them (see :func:`ratio_vector` for the form and its accuracy).  The
float64 tail is there for the speed of the odd block's vectors, its only
caller: x87 long double has no SIMD, and at l_lim = 500 an all-long-double
vector took 3.01 ms against 0.66 ms for this head and tail at n = 128, and
21.0 ms against 3.92 ms at n = 1024 (alpha = 0.3, medians of 30 calls,
2-core Xeon VM).  The long-double
head is there for the odd block's results: with it, the blocks built at
n = 128, l_lim = 500 are bit-identical to blocks built from
all-long-double vectors (pinned at alpha 0.3, 1.5 and 1.95).  The tail
forms one temporary, the exact m of its entries, and no step calls BLAS.
"""

from __future__ import annotations

import math

import numpy as np

_HEAD = 4096  # entries accumulated in long double before the float64 tail


def ratio_vector(a: float, b: float, length: int) -> np.ndarray:
    """[Gamma(a+m)/Gamma(b+m) for m = 0..length-1] (length may be 0), read-only.

    a = 0 puts Gamma's pole at m = 0 (the odd block's A at alpha = 1): that
    entry is inf, and the rest are the vector of (1, b + 1) one entry later.

    The first _HEAD entries of the recursion multiply the factors
    (a+m)/(b+m) in long double.  Every later entry continues from the one
    before it as a float64 running product of the same factors written
    1 + (a-b)/(b+m).  b+m is formed for the whole tail at once, from the
    exact integers m rounded once by the addition of b, through one float64
    temporary of the tail's length.  In float64 the form
    matters: a+m rounds the same way for every m in a binade, so a product
    of (a+m)/(b+m) drifts (1.8e-11 relative at m ~ 5e5), while
    1 + (a-b)/(b+m) only rounds its small offset from 1 and the error grows
    as a random walk.  Worst relative error, against mpmath at 40 digits at
    200 points each of 18 vectors of 5.1e5 entries (alpha in {0.05, 0.3,
    0.7, 1.3, 1.5, 1.95}): all long double 1.3e-14, float64 (a+m)/(b+m)
    1.8e-11, float64 1 + (a-b)/(b+m) from m = 0 7.8e-14, this head and tail
    9.9e-14.  The head is what keeps the odd block's results: with the tail
    form from m = 0, the odd columns at l_lim = 500 moved by up to 2.8e-14
    (n = 128) and 3.2e-13 (n = 1024) of the column's largest entry, both at
    alpha = 0.05, the worst of {0.05, 0.3, 0.7, 1.3, 1.95}; with the head,
    the n = 128 blocks match all-long-double vectors bit for bit.
    """
    out = np.empty(length, dtype=np.float64)
    shift = int(a == 0.0)  # the pole, ahead of the recursion
    if shift:
        a, b = 1.0, b + 1.0
        out[:1] = np.inf
    head = out[shift : shift + _HEAD]
    base = math.gamma(a) / math.gamma(b)
    head[:1] = base
    if head.size > 1:
        factors = np.arange(head.size - 1, dtype=np.longdouble)  # m, then (a+m)/(b+m)
        den = factors + np.longdouble(b)
        factors += np.longdouble(a)
        np.divide(factors, den, out=factors)
        np.cumprod(factors, out=factors)
        np.multiply(factors, np.longdouble(base), out=head[1:])
    pos = shift + head.size
    if pos < length:
        tail = out[pos - 1 :]  # the last head entry, then b+m, then the factors
        m0 = head.size - 1  # m of that entry in the recursion
        np.add(np.arange(m0, m0 + tail.size - 1, dtype=np.float64), b, out=tail[1:])  # m exact
        np.divide(a - b, tail[1:], out=tail[1:])
        tail[1:] += 1.0
        np.cumprod(tail, out=tail)
    out.flags.writeable = False
    return out
