"""Stable precomputation of gamma-ratio tables.

The operator symbol sums need ratios Gamma(a+m)/Gamma(b+m) for m up to a few
hundred thousand.  Evaluating the numerator and denominator separately
overflows double precision near argument 172, so the tables are built from
the functional equation Gamma(z+1) = z*Gamma(z):

    Gamma(a+m+1)/Gamma(b+m+1) = (a+m)/(b+m) * Gamma(a+m)/Gamma(b+m),

a multiplicative recursion whose factors tend to 1 and keep every entry
finite.  Gamma itself (``math.gamma``) is only needed at the handful of
base arguments.  The running product is long double for the first _HEAD
entries and float64 after them (see :func:`_ratio_vector` for the form and
its accuracy): x87 long double has no SIMD, and at n = 1024, l_lim = 500 an
all-long-double recursion took 46 of the 50 ms of a mode-2 column while
that column still read the tables (2-core Xeon VM).  One function,
:func:`_ratio_vector`, computes each vector whole, and :func:`build_tables`
holds the two vectors the odd modes read.  The even modes read none: they
have a closed form (:func:`fraclap.symbol.even_mode_columns`), and the
terms A(m)*B(m +- 1) of the k = 2 series (criteria 1 and 2, the mode-2
scan) are rational in m (:func:`fraclap.symbol._mode2_terms`).  No step
forms a temporary the size of a vector, and no step calls BLAS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_HEAD = 4096  # entries accumulated in long double before the float64 tail
_STEP = 32768  # tail entries of b+m formed per pass: no temporary at all
_RAMP = np.arange(_STEP, dtype=np.float64)  # 0.._STEP-1, shifted to the m of each pass
_RAMP.flags.writeable = False
_NAMES = ("vec_a", "vec_c")


@dataclass(frozen=True)
class GammaRatioTables:
    """Precomputed ratio vectors feeding the symbol sums for one alpha.

    vec_a[m] = Gamma((-1+alpha)/2 + m) / Gamma((3-alpha)/2 + m)
    vec_c[m] = Gamma(-alpha/2 + m)     / Gamma(2+alpha/2 + m)

    vec_a is indexed by |l| and vec_c by |k/2 - l| - 1/2, an integer for the
    odd modes k that read it.  At alpha = 1, vec_a[0] is Gamma's pole at 0
    and is stored as inf; no build reads vec_a[0], since the odd columns add
    A(0)'s term in finite form.  Vectors are stored read-only; writeable
    input is copied first.
    """

    alpha: float
    vec_a: np.ndarray
    vec_c: np.ndarray

    def __post_init__(self) -> None:
        for name in _NAMES:
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.flags.writeable:
                arr = arr.copy()
                arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _ratio_vector(a: float, b: float, length: int) -> np.ndarray:
    """[Gamma(a+m)/Gamma(b+m) for m = 0..length-1] (length may be 0), read-only.

    a = 0 puts Gamma's pole at m = 0: that entry is inf, and the rest are
    the vector of (1, b + 1) one entry later.

    The first _HEAD entries of the recursion multiply the factors
    (a+m)/(b+m) in long double.  Every later entry continues from the one
    before it as a float64 running product of the same factors written
    1 + (a-b)/(b+m), formed _STEP entries per pass.  In float64 the form
    matters: a+m rounds the same way for every m in a binade, so a product
    of (a+m)/(b+m) drifts (1.8e-11 relative at m ~ 5e5), while
    1 + (a-b)/(b+m) only rounds its small offset from 1 and the error grows
    as a random walk.  Worst relative error, against mpmath at 40 digits at
    200 points each of 18 vectors of 5.1e5 entries (alpha in {0.05, 0.3,
    0.7, 1.3, 1.5, 1.95}): all long double 1.3e-14, float64 (a+m)/(b+m)
    1.8e-11, float64 1 + (a-b)/(b+m) from m = 0 7.8e-14, this head and tail
    9.9e-14.  The tail form from m = 0 would double the mode-2 error of the
    n = 1024 alpha scan (2.4e-13); with the long-double head the operator
    entries of the benchmark's seed-0 scans are bit-identical to those
    built from all-long-double tables.
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
        start = head.size - 1  # m of that entry in the recursion
        for j in range(1, tail.size, _STEP):
            run = tail[j : j + _STEP]
            np.add(_RAMP[: run.size], start + j - 1, out=run)  # m, exact
            run += b
        np.divide(a - b, tail[1:], out=tail[1:])
        tail[1:] += 1.0
        np.cumprod(tail, out=tail)
    out.flags.writeable = False
    return out


def table_lengths(n: int, l_lim: int) -> tuple[int, int]:
    """Minimum lengths of vec_a and vec_c, plus an n-entry safety margin.

    The decomposition l = l1*n + l2 with |l1| <= l_lim, l2 in {-n/2..n/2-1}
    and modes k in {1..n-1} bounds the indices by (l_lim+1/2)*n and
    (l_lim+1)*n - 1 respectively.
    """
    return l_lim * n + n // 2 + 1 + n, (l_lim + 1) * n + n


def build_tables(alpha: float, n: int, l_lim: int) -> GammaRatioTables:
    """Build the ratio vectors for a given alpha, n and l1 truncation.

    At alpha = 1, vec_a[0] = inf (Gamma's pole at 0), read by no build.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be an even integer >= 2, got {n}")
    if l_lim < 0:
        raise ValueError(f"l_lim must be nonnegative, got {l_lim}")
    len_a, len_c = table_lengths(n, l_lim)
    vec_a = _ratio_vector((-1.0 + alpha) / 2.0, (3.0 - alpha) / 2.0, len_a)
    vec_c = _ratio_vector(-alpha / 2.0, 2.0 + alpha / 2.0, len_c)
    return GammaRatioTables(alpha=alpha, vec_a=vec_a, vec_c=vec_c)
