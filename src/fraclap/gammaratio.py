"""Stable precomputation of gamma-ratio tables.

The operator symbol sums need ratios Gamma(a+m)/Gamma(b+m) for m up to a few
hundred thousand.  Evaluating the numerator and denominator separately
overflows double precision near argument 172, so the tables are built from
the functional equation Gamma(z+1) = z*Gamma(z):

    Gamma(a+m+1)/Gamma(b+m+1) = (a+m)/(b+m) * Gamma(a+m)/Gamma(b+m),

a multiplicative recursion whose factors tend to 1 and keep every entry
finite.  Gamma itself (``math.gamma``) is only needed at the handful of
base arguments.  Even modes read vec_b and odd modes vec_c, so a table set
holds only the vectors of the parities asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GammaRatioTables:
    """Precomputed ratio vectors feeding the symbol sums for one alpha.

    vec_a[m] = Gamma((-1+alpha)/2 + m) / Gamma((3-alpha)/2 + m)
    vec_b[m] = Gamma((-1-alpha)/2 + m) / Gamma((3+alpha)/2 + m)   (even modes)
    vec_c[m] = Gamma(-alpha/2 + m)     / Gamma(2+alpha/2 + m)     (odd modes)

    vec_a is indexed by |l|, vec_b by |k/2 - l| and vec_c by |k/2 - l| - 1/2,
    which are integers in the respective cases.  A vector no requested
    parity reads is empty, so reading it raises IndexError.  Vectors are
    stored read-only; writeable input is copied first.
    """

    alpha: float
    vec_a: np.ndarray
    vec_b: np.ndarray
    vec_c: np.ndarray

    def __post_init__(self) -> None:
        for name in ("vec_a", "vec_b", "vec_c"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.flags.writeable:
                arr = arr.copy()
                arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _ratio_vector(a: float, b: float, length: int) -> np.ndarray:
    """[Gamma(a+m)/Gamma(b+m) for m = 0..length-1] via the recursion (length may be 0).

    The running product accumulates in extended precision: sequential
    rounding grows linearly with the index and tables can exceed 1e5
    entries, where double-precision accumulation alone would drift to
    ~1e-11 relative.  The result is read-only.
    """
    out = np.empty(length, dtype=np.float64)
    base = math.gamma(a) / math.gamma(b)
    out[:1] = base
    if length > 1:
        factors = np.arange(length - 1, dtype=np.longdouble)  # m, then (a+m)/(b+m)
        den = factors + np.longdouble(b)
        factors += np.longdouble(a)
        np.divide(factors, den, out=factors)
        np.cumprod(factors, out=factors)
        np.multiply(factors, np.longdouble(base), out=out[1:])
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


def build_tables(alpha: float, n: int, l_lim: int, parities=(0, 1)) -> GammaRatioTables:
    """Build the ratio vectors for a given alpha, n and l1 truncation.

    ``parities`` holds the parities (0 even, 1 odd) of the modes the tables
    will serve: vec_b is built only for 0, vec_c only for 1, and an unbuilt
    vector is empty.  alpha = 1 is rejected: that case has its own closed
    forms and needs no tables.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    if alpha == 1.0:
        raise ValueError("alpha = 1 uses dedicated formulas; no tables required")
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be an even integer >= 2, got {n}")
    if l_lim < 0:
        raise ValueError(f"l_lim must be nonnegative, got {l_lim}")
    len_a, len_b, len_c = table_lengths(n, l_lim)
    len_b = len_b if 0 in parities else 0
    len_c = len_c if 1 in parities else 0
    return GammaRatioTables(
        alpha=alpha,
        vec_a=_ratio_vector((-1.0 + alpha) / 2.0, (3.0 - alpha) / 2.0, len_a),
        vec_b=_ratio_vector((-1.0 - alpha) / 2.0, (3.0 + alpha) / 2.0, len_b),
        vec_c=_ratio_vector(-alpha / 2.0, 2.0 + alpha / 2.0, len_c),
    )
