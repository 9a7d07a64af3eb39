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
all-long-double recursion takes ~92% of a mode-2 column (46 of 50 ms on a
2-core Xeon VM).  One function, :func:`_ratio_vector`, computes each vector
whole, and :func:`build_tables` holds the vectors of the parities asked
for: even modes read vec_b and odd modes vec_c.  The k = 2 column
(criteria 1 and 2, the mode-2 scan) reads no vector: its terms
A(m)*B(m +- 1) are rational in m (:func:`fraclap.symbol._mode2_terms`).
No step forms a temporary the size of a vector, and no step calls BLAS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_HEAD = 4096  # entries accumulated in long double before the float64 tail
_STEP = 32768  # tail entries of b+m formed per pass: no temporary at all
_RAMP = np.arange(_STEP, dtype=np.float64)  # 0.._STEP-1, shifted to the m of each pass
_RAMP.flags.writeable = False
_NAMES = ("vec_a", "vec_b", "vec_c")


@dataclass(frozen=True)
class GammaRatioTables:
    """Precomputed ratio vectors feeding the symbol sums for one alpha.

    vec_a[m] = Gamma((-1+alpha)/2 + m) / Gamma((3-alpha)/2 + m)
    vec_b[m] = Gamma((-1-alpha)/2 + m) / Gamma((3+alpha)/2 + m)   (even modes)
    vec_c[m] = Gamma(-alpha/2 + m)     / Gamma(2+alpha/2 + m)     (odd modes)

    vec_a is indexed by |l|, vec_b by |k/2 - l| and vec_c by |k/2 - l| - 1/2,
    which are integers in the respective cases.  At alpha = 1, vec_a[0] is
    Gamma's pole at 0 and is stored as inf.  A vector no requested parity
    reads is empty, so reading it raises IndexError.  Vectors are stored
    read-only; writeable input is copied first.
    """

    alpha: float
    vec_a: np.ndarray
    vec_b: np.ndarray
    vec_c: np.ndarray

    def __post_init__(self) -> None:
        for name in _NAMES:
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.flags.writeable:
                arr = arr.copy()
                arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _ratio_vector(a: float, b: float, length: int, first: float | None = None) -> np.ndarray:
    """[Gamma(a+m)/Gamma(b+m) for m = 0..length-1] (length may be 0), read-only.

    With ``first``, the entry ``first`` and then the vector of (a, b) one
    entry later, length entries in all.  a = 0 puts Gamma's pole at m = 0:
    that entry is inf, and the rest are the vector of (1, b + 1) one entry
    later.  vec_b is shifted the same way (:func:`_vector`).

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
    if first is None and a == 0.0:
        a, b, first = 1.0, b + 1.0, np.inf
    out = np.empty(length, dtype=np.float64)
    shift = int(first is not None)  # entries before the recursion
    if shift:
        out[:1] = first
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


def table_lengths(n: int, l_lim: int) -> tuple[int, int, int]:
    """Minimum lengths for the three vectors, plus an n-entry safety margin.

    The decomposition l = l1*n + l2 with |l1| <= l_lim, l2 in {-n/2..n/2-1}
    and modes k in {1..n-1} bounds the indices by (l_lim+1/2)*n and
    (l_lim+1)*n - 1 respectively.
    """
    len_a = l_lim * n + n // 2 + 1 + n
    len_bc = (l_lim + 1) * n + n
    return len_a, len_bc, len_bc


def _vector(name: str, alpha: float, length: int) -> np.ndarray:
    """The vector ``name`` of :class:`GammaRatioTables` at alpha, ``length`` entries.

    vec_b starts with Gamma(a+1)/(a*Gamma(b)), followed by the vector of
    (a + 1, b + 1) one entry later, with a + 1 = (1 - alpha)/2 formed from
    the exact 1 - alpha: near alpha = 1 it is close to Gamma's pole at 0,
    and a + 1 from a rounded a = (-1 - alpha)/2 would lose the digits
    1 - alpha has below the rounding of a.
    """
    if name == "vec_b":
        a, b, c = (-1.0 - alpha) / 2.0, (3.0 + alpha) / 2.0, (1.0 - alpha) / 2.0
        return _ratio_vector(c, b + 1.0, length, math.gamma(c) / (a * math.gamma(b)))
    if name == "vec_a":
        return _ratio_vector((-1.0 + alpha) / 2.0, (3.0 - alpha) / 2.0, length)
    return _ratio_vector(-alpha / 2.0, 2.0 + alpha / 2.0, length)


def build_tables(alpha: float, n: int, l_lim: int, parities=(0, 1)) -> GammaRatioTables:
    """Build the ratio vectors for a given alpha, n and l1 truncation.

    ``parities`` holds the parities (0 even, 1 odd) of the modes the tables
    will serve: vec_b is built only for 0, vec_c only for 1, and an unbuilt
    vector is empty and evaluates no gamma function.  At alpha = 1, vec_a
    and vec_c are built (vec_a[0] = inf) and parity 0 is rejected: vec_b has
    poles there, and the even modes have a closed form.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    if alpha == 1.0 and 0 in parities:
        raise ValueError("vec_b has poles at alpha = 1; even modes there need no tables")
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be an even integer >= 2, got {n}")
    if l_lim < 0:
        raise ValueError(f"l_lim must be nonnegative, got {l_lim}")
    len_a, len_b, len_c = table_lengths(n, l_lim)
    vec_a = _vector("vec_a", alpha, len_a)
    vec_b = _vector("vec_b", alpha, len_b) if 0 in parities else ()
    vec_c = _vector("vec_c", alpha, len_c) if 1 in parities else ()
    return GammaRatioTables(alpha=alpha, vec_a=vec_a, vec_b=vec_b, vec_c=vec_c)
