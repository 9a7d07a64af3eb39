"""Stable gamma-ratio vectors by recursion.

The odd columns' sums need ratios Gamma(a+m)/Gamma(b+m) for m up to a few
hundred thousand.  Evaluating the numerator and denominator separately
overflows double precision near argument 172, so the vectors are built from
the functional equation Gamma(z+1) = z*Gamma(z):

    Gamma(a+m+1)/Gamma(b+m+1) = (a+m)/(b+m) * Gamma(a+m)/Gamma(b+m),

a multiplicative recursion whose factors tend to 1 and keep every entry
finite.  Gamma itself is only needed at the base argument.
:func:`ratio_vector` computes one segment m = start..start+length-1 for any
(a, b); :func:`fraclap.symbol.odd_mode_columns` requests two from m = 0
and, past l_lim = 48, two more near m = l_lim*n.

A segment from m = 0 takes its base from ``math.gamma(a)/math.gamma(b)``.
A segment from start > 0 takes it from
exp(``math.lgamma(a+start)`` - ``math.lgamma(b+start)``), which does not
overflow at any start; the difference of two logarithms of size
|lgamma| loses about |lgamma|*eps, so every entry of such a segment is off
by a common relative error of about 1e-9 at start = 5e5 (within 1e-8 of
mpmath, pinned in the tests).  The odd block reads these segments only in
the rows beyond its truncation, whose sum is the series' tail: 4.3e-11 of
a column at l_lim = 500, about (500/l_lim)^3 times that below, so the
error enters far below the last bit of a column.
"""

from __future__ import annotations

import math

import numpy as np


def ratio_vector(a: float, b: float, length: int, start: int = 0) -> np.ndarray:
    """[Gamma(a+m)/Gamma(b+m) for m = start..start+length-1] (length may be 0), read-only.

    a = 0 and start = 0 put Gamma's pole at m = 0 (the odd block's A at
    alpha = 1): that entry is inf, and the rest are the vector of (1, b + 1)
    one entry later.  A start > 0 needs a + start > 0 and b + start > 0,
    and its base entry comes from lgamma (module docstring).

    After the base, the factors (a+m)/(b+m) and their running product are
    long double.  The worst relative error against mpmath, on sampled
    entries of vectors from m = 0 of 5.1e5 entries, is 1.3e-14.
    """
    out = np.empty(length, dtype=np.float64)
    shift = int(a == 0.0 and start == 0)  # the pole, ahead of the recursion
    if shift:
        a, b = 1.0, b + 1.0
        out[:1] = np.inf
    if start:
        base = math.exp(math.lgamma(a + start) - math.lgamma(b + start))
    else:
        base = math.gamma(a) / math.gamma(b)
    out[shift : shift + 1] = base
    if length > shift + 1:
        factors = np.arange(start, start + length - shift - 1, dtype=np.longdouble)  # m, then (a+m)/(b+m)
        den = factors + np.longdouble(b)
        factors += np.longdouble(a)
        np.divide(factors, den, out=factors)
        np.cumprod(factors, out=factors)
        np.multiply(factors, np.longdouble(base), out=out[shift + 1 :])
    out.flags.writeable = False
    return out
