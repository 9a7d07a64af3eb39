"""Shared independent oracles and helpers for the test suite.

The oracles deliberately avoid the package's own computational paths: the
DFT oracle is a direct O(N^2) summation, the gamma-ratio reference goes
through SciPy's log-gamma, which the package never uses, and ``a_coeff`` and
``b_coeff`` give single terms of the symbol sums one scalar at a time.
"""

import math
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln, gammasgn


def dft_oracle(samples: np.ndarray) -> np.ndarray:
    """Coefficients by direct summation of the phase-shifted transform.

    uhat(k) = sum_j u_j*exp(-i*k*s_j)/(2n) with k*s_j = pi*m/(2n), where the
    integer m = k*(2j+1) is reduced mod 4n before it becomes an angle, so the
    phases stay accurate to an ulp of 2*pi at any n.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    two_n = samples.size
    n = two_n // 2
    ks = np.concatenate([np.arange(n), np.arange(-n, 0)])
    j = np.arange(two_n)
    out = np.empty(two_n, dtype=np.complex128)
    for i, k in enumerate(ks):
        m = (k * (2 * j + 1)) % (4 * n)
        out[i] = np.sum(samples * np.exp(-1j * np.pi * m / two_n)) / two_n
    return out


def series_oracle(coeffs: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Direct summation of sum_k uhat(k) exp(i k s)."""
    two_n = coeffs.size
    n = two_n // 2
    ks = np.concatenate([np.arange(n), np.arange(-n, 0)])
    return np.asarray([np.sum(coeffs * np.exp(1j * ks * sv)) for sv in s])


def continued(samples: np.ndarray, parity: str) -> np.ndarray:
    """The n physical values continued to all 2n nodes: u(2*pi - s) = +/- u(s)."""
    samples = np.asarray(samples)
    sign = 1.0 if parity == "even" else -1.0
    return np.concatenate([samples, sign * samples[::-1]])


def two_sided_image(entries: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_{k=1}^{n-1} B_k*uhat(k) + conj(B_k)*uhat(-k) for 2n coefficients in FFT bin order.

    The stored columns B_k (k = 1..n-1) act on the positive modes, their
    conjugates on the negative ones; the modes 0 and -n map to zero.
    """
    n = entries.shape[0]
    return entries @ coeffs[1:n] + np.conj(entries) @ coeffs[:n:-1]


def gamma_ratio_ref(a: float, b: float) -> float:
    """Gamma(a)/Gamma(b) through log-gamma with explicit sign tracking.

    Good to ~1e-13 for arguments up to a few hundred; beyond that the
    cancellation of the two large logs dominates, use gamma_ratio_ref_hp.
    """
    return gammasgn(a) * gammasgn(b) * np.exp(gammaln(a) - gammaln(b))


def gamma_ratio_ref_hp(a: float, b: float, m: int = 0) -> float:
    """Gamma(a+m)/Gamma(b+m) via 30-digit log-gamma (noise-free reference).

    The integer offset m is added at 30 digits: a float64 a+m is off by up
    to half an ulp of m, which at m ~ 5e5 moves the ratio by up to ~1e-9.
    """
    import mpmath

    with mpmath.workdps(30):
        a = mpmath.mpf(a) + m
        b = mpmath.mpf(b) + m
        if a > 0 and b > 0:
            return float(mpmath.exp(mpmath.loggamma(a) - mpmath.loggamma(b)))
        return float(mpmath.gamma(a) / mpmath.gamma(b))


def ratio_vector_long_double(a: float, b: float, length: int) -> np.ndarray:
    """[Gamma(a+m)/Gamma(b+m) for m < length], the whole recursion in long double.

    The table builder's former all-long-double path, kept as a reference:
    the factors (a+m)/(b+m) and their running product are extended
    precision at every index.  Drop-in for ``gammaratio._ratio_vector``.
    """
    out = np.empty(length, dtype=np.float64)
    base = math.gamma(a) / math.gamma(b)
    out[:1] = base
    if length > 1:
        factors = np.arange(length - 1, dtype=np.longdouble)
        den = factors + np.longdouble(b)
        factors += np.longdouble(a)
        np.divide(factors, den, out=factors)
        np.cumprod(factors, out=factors)
        np.multiply(factors, np.longdouble(base), out=out[1:])
    out.flags.writeable = False
    return out


def a_coeff(k: int, l1: int, l2: int, tables, alpha: float, n: int) -> float:
    """One term of the truncated double sum of the mode-k symbol for alpha != 1.

    The gamma ratios are read from the tables at the absolute-value indices
    |l1*n + l2| and |k/2 - l1*n - l2| (shifted by 1/2 for odd k, where a
    sign factor sgn(k/2 - l) also enters).  An index beyond the tables
    raises IndexError.
    """
    l = l1 * n + l2
    sign1 = -1.0 if l1 % 2 else 1.0
    base = sign1 * ((1.0 - alpha) * k * k - 4.0 * k * l) * tables.vec_a[abs(l)]
    if k % 2 == 0:
        return base * tables.vec_b[abs(k // 2 - l)]
    half = k / 2.0 - l
    return base * math.copysign(1.0, half) * tables.vec_c[int(abs(half) - 0.5)]


def b_coeff(k: int, l1: int, l2: int, n: int) -> float:
    """One term of the rational series of the mode-k symbol for alpha = 1, odd k.

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


def run_fresh_python(script: str, blas_threads: str) -> str:
    """stdout of ``script`` run in a new interpreter with OPENBLAS_NUM_THREADS set.

    OpenBLAS reads its thread count when it loads, so each count needs a
    fresh process.  The interpreter imports this checkout's ``fraclap``.
    """
    import fraclap

    src = str(Path(fraclap.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        check=True, timeout=300,
    )
    return done.stdout


def cache_file_bytes(version: int, n: int, payload_entries: int, *, alpha: float = 0.5) -> bytes:
    """A hand-built version-3 layout cache file (l_lim = 200): zero payload, valid CRC."""
    header = struct.pack("<8sIII4xd32x", b"FLAPMAT1", version, n, 200, alpha)
    payload = np.zeros(payload_entries, np.complex128).tobytes()
    return header + payload + struct.pack("<Q", zlib.crc32(payload, zlib.crc32(header)))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240613)
