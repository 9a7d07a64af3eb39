"""Shared independent oracles and helpers for the test suite.

The oracles deliberately avoid the package's own computational paths: the
DFT oracle is a direct O(N^2) summation, the gamma-ratio reference goes
through SciPy's log-gamma, which the package never uses, ``a_coeff`` and
``b_coeff`` give single terms of the symbol sums one scalar at a time (the
even modes' ratio B from that log-gamma reference: the package tabulates no
B), ``mode2_term_ref`` gives the terms of the k = 2 series from mpmath,
``even_mode_images`` sums the even modes' closed form term by term in mpmath,
and ``odd_mode_images`` sums Dyda's hypergeometric images of the odd modes
in mpmath.
"""

import functools
import json
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

    An independent copy of ``gammaratio.ratio_vector``'s recursion from
    m = 0, for a != 0: the factors (a+m)/(b+m) and their running product
    are extended precision at every index.
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


def odd_ratio_args(alpha: float):
    """(a, b) of the odd block's two ratio vectors at alpha: A (vec_a), then C (vec_c)."""
    return ((-1.0 + alpha) / 2.0, (3.0 - alpha) / 2.0), (-alpha / 2.0, 2.0 + alpha / 2.0)


def a_coeff(k: int, l1: int, l2: int, vec_a, vec_c, alpha: float, n: int) -> float:
    """One term of the truncated double sum of the mode-k symbol for alpha != 1.

    A(|l1*n + l2|) is read from vec_a; the second ratio is
    B(|k/2 - l1*n - l2|) from :func:`gamma_ratio_ref` for even k, and
    sgn(k/2 - l)*C(|k/2 - l| - 1/2) from vec_c for odd k.  An index beyond
    the vectors raises IndexError.
    """
    l = l1 * n + l2
    sign1 = -1.0 if l1 % 2 else 1.0
    base = sign1 * ((1.0 - alpha) * k * k - 4.0 * k * l) * vec_a[abs(l)]
    if k % 2 == 0:
        e = abs(k // 2 - l)
        return base * gamma_ratio_ref((-1.0 - alpha) / 2.0 + e, (3.0 + alpha) / 2.0 + e)
    half = k / 2.0 - l
    return base * math.copysign(1.0, half) * vec_c[int(abs(half) - 0.5)]


def mode2_term_ref(alpha: float, n: int, l1: int, l2: int) -> float:
    """A(|l|)*B(|1 - l|), l = l1*n + l2: a k = 2 term without its sign and polynomial factor.

    Each ratio from :func:`gamma_ratio_ref_hp` (mpmath), so the product is
    within a few ulps of the exact term.
    """
    l = l1 * n + l2
    a = gamma_ratio_ref_hp((-1.0 + alpha) / 2.0, (3.0 - alpha) / 2.0, abs(l))
    return a * gamma_ratio_ref_hp((-1.0 - alpha) / 2.0, (3.0 + alpha) / 2.0, abs(1 - l))


def mode2_chunk_errors(alpha: float, n: int, l_lim: int, rng, per_chunk: int = 8):
    """Largest relative errors of ``symbol._mode2_chunks`` and ``_mode2_zero`` against :func:`mode2_term_ref`.

    Returns (l1 = 0 row, chunk terms).  The chunks are walked as the k = 2
    column walks them; they must cover each run of ``symbol._row_plan(l_lim)``
    once, in the plan's order and largest p first, each giving t- (l1 = -p)
    and t+ (l1 = +p) as (count, n) arrays whose row r is p = top - r and
    whose column j is l2 = j - n/2.  Of each, the four
    corners and ``per_chunk`` random entries are checked; of the l1 = 0 row,
    its ends, l2 = 0 and 1, and up to 60 random nodes.
    """
    from fraclap import symbol

    zero = symbol._mode2_zero(alpha, n)
    half = n // 2
    nodes_ = np.unique(np.concatenate([[0, half, half + 1, n - 1], rng.integers(0, n, 60)]))
    zero_err = max(abs(zero[j] / mode2_term_ref(alpha, n, 0, int(j) - half) - 1) for j in nodes_)
    term_err = 0.0
    walked = []
    for top, t_minus, t_plus, _ in symbol._mode2_chunks(alpha, n, l_lim):
        count = len(t_minus)
        assert count >= 1
        walked += range(top, top - count, -1)
        for side, terms in ((-1, t_minus), (1, t_plus)):
            assert terms.shape == (count, n)
            picks = [(0, 0), (0, n - 1), (count - 1, 0), (count - 1, n - 1)]
            picks += zip(rng.integers(0, count, per_chunk), rng.integers(0, n, per_chunk))
            for r, j in picks:
                ref = mode2_term_ref(alpha, n, side * (top - int(r)), int(j) - half)
                term_err = max(term_err, abs(terms[r, j] / ref - 1))
    plan = symbol._row_plan(l_lim)
    assert walked == [p for top, weight in plan for p in range(top, top - weight.size, -1)]
    return zero_err, term_err


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


@functools.cache
def even_mode_images(n: int, alpha: float) -> np.ndarray:
    """Image of exp(i*k*s), k = 2, 4, ..., n-2, at the n nodes: an (n, n/2 - 1) array.

    E_2m(s) = -2*Gamma(1+alpha)*t^(1+alpha)*sum_{i<m} a_i*b_(m-1-i)*z^i with
    t = -i*sin(s)*exp(i*s), z = exp(2i*s), a_i = (1+alpha)_i/i! and
    b_j = (1-alpha)_j/j!, summed term by term in mpmath at 40 digits at the
    exact nodes s_j = pi*(2j+1)/(2n); the coefficients are mpmath rising
    factorials, not running products.  The image of an even mode is
    conjugated by the reflection s -> pi - s, so the second half of the
    rows is the conjugate of the first, reversed.
    """
    import mpmath

    size = n // 2 - 1
    out = np.empty((n, size), dtype=np.complex128)
    with mpmath.workdps(40):
        al = mpmath.mpf(alpha)
        a = [mpmath.rf(1 + al, i) / mpmath.factorial(i) for i in range(size)]
        b = [mpmath.rf(1 - al, j) / mpmath.factorial(j) for j in range(size)]
        coef = [[a[i] * b[m - 1 - i] for i in range(m)] for m in range(1, size + 1)]
        pref = -2 * mpmath.gamma(1 + al)
        for row in range(n // 2):
            s = mpmath.pi * (2 * row + 1) / (2 * n)
            amp = pref * (-1j * mpmath.sin(s) * mpmath.exp(1j * s)) ** (1 + al)
            z = mpmath.exp(2j * s)
            powers = [z**i for i in range(size)]
            for m, c in enumerate(coef):
                out[row, m] = complex(amp * mpmath.fdot(c, powers[: m + 1]))
    out[n // 2 :] = np.conj(out[: n // 2][::-1])
    return out


@functools.cache
def odd_mode_images(n: int, alpha: float) -> np.ndarray:
    """Image of exp(i*k*s), k = 1, 3, ..., n-1, at the n nodes: an (n, n/2) array.

    At x = cot(s), exp(i*k*s) = (x + i)^k*(1 + x^2)^(-k/2).  Expanding
    (x + i)^k and writing each x^(2q) as ((1 + x^2) - 1)^q turns it into a
    sum of x^l*(1 + x^2)^(-beta), l in {0, 1}, beta = 1/2, 3/2, ..., k/2,
    with exact integer (times i) coefficients.  Dyda (Fract. Calc. Appl.
    Anal. 15, 2012) gives each image as a 2F1 of -x^2:

        x^l*(1+x^2)^(-beta)  ->  2^alpha*Gamma(beta + alpha/2)*Gamma(l + (1+alpha)/2)
                                 / (Gamma(beta)*Gamma(l + 1/2))
                                 * x^l * 2F1(beta + alpha/2, l + (1+alpha)/2; l + 1/2; -x^2).

    Each beta's two 2F1 are taken once per node in mpmath at 40 digits and
    shared by every column: those of beta = 1/2 and 3/2 from
    ``mpmath.hyp2f1``, the rest from them by Gauss's contiguous relation in
    the first parameter (DLMF 15.5.11), which kept 39 digits over 15 steps
    at x up to 20.  The binomial coefficients reach about 1e12 at k = 31, so
    40 digits leave more than 25 after the cancellation; keep n <= 32 or
    raise the precision with k.  The image of an odd mode is minus its
    conjugate under s -> pi - s, so the second half of the rows is the first
    half reversed, conjugated and negated.
    """
    import mpmath

    half = n // 2
    out = np.empty((n, half), dtype=np.complex128)
    with mpmath.workdps(40):
        al = mpmath.mpf(alpha)
        # coef[col][r][l]: the coefficient of x^l*(1+x^2)^(-(r + 1/2)) in mode
        # k = 2*col + 1, a Gaussian integer below 2^53, so exact as a complex
        coef = [[[0, 0] for _ in range(half)] for _ in range(half)]
        for col in range(half):
            k = 2 * col + 1
            for j in range(k + 1):
                l, q = j % 2, j // 2
                for r in range(q + 1):  # (1+x^2)^(r - k/2): beta = k/2 - r
                    coef[col][col - r][l] += math.comb(k, j) * math.comb(q, r) * (-1) ** (q - r) * 1j ** (k - j)
        a = [r + (1 + al) / 2 for r in range(half)]  # beta + alpha/2 at beta = r + 1/2
        b = [l + (1 + al) / 2 for l in (0, 1)]
        c = [l + mpmath.mpf(1) / 2 for l in (0, 1)]
        scale = [[2**al * mpmath.gamma(a[r]) * mpmath.gamma(b[l]) / (mpmath.gamma(a[r] - al / 2) * mpmath.gamma(c[l]))
                  for l in (0, 1)] for r in range(half)]
        for row in range(half):
            x = mpmath.cot(mpmath.pi * (2 * row + 1) / (2 * n))
            z = -x * x
            images = [[0, 0] for _ in range(half)]
            for l in (0, 1):
                f = [mpmath.hyp2f1(a[r], b[l], c[l], z) for r in range(min(2, half))]
                for r in range(1, half - 1):  # F(a + 1) from F(a) and F(a - 1)
                    f.append(-((c[l] - a[r]) * f[r - 1] + (2 * a[r] - c[l] + (b[l] - a[r]) * z) * f[r])
                             / (a[r] * (z - 1)))
                for r in range(half):
                    images[r][l] = scale[r][l] * x**l * f[r]
            for col in range(half):
                out[row, col] = complex(mpmath.fsum(
                    mpmath.mpc(cf) * images[r][l] for r in range(col + 1) for l, cf in enumerate(coef[col][r])
                ))
    out[half:] = -np.conj(out[:half][::-1])
    return out


def alpha_one_even_images(n: int, ks) -> np.ndarray:
    """k*sin(s)^2*exp(i*k*s) at the n nodes for the even modes ``ks``: their images at alpha = 1.

    The phase k*s_j = pi*k*(2j+1)/(2n) is reduced mod 2*pi in integers
    before exp, so it carries no rounding of the double node s_j.  Returns
    an (n, len(ks)) array.
    """
    ks = np.asarray(ks)
    s = np.pi * (2 * np.arange(n) + 1) / (2 * n)
    phase = np.mod(np.outer(2 * np.arange(n) + 1, ks), 4 * n)
    return ks * np.sin(s)[:, None] ** 2 * np.exp(1j * np.pi * phase / (2 * n))


def run_fresh_python(script: str, blas_threads: str) -> str:
    """stdout of ``script`` run in a new interpreter with OPENBLAS_NUM_THREADS set.

    OpenBLAS reads its thread count when it loads, and only a fresh
    interpreter shows which modules an import loads, so such checks need a
    new process.  Each costs 0.2 s or more, so tests share one where they
    can: one per thread count (the ``thread_count_runs`` fixture), one for
    the import checks of ``test_import``.  The interpreter imports this
    checkout's ``fraclap``; it may run for up to 300 s.
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


_THREAD_COUNT_SCRIPT = """
import json, zlib
from fraclap.cli import main
from fraclap.fisher import FisherRun, run_simulation
from fraclap.grid import GridConfig
from fraclap.opmatrix import build_matrix, column_checksums
from fraclap.symbol import blas_thread_setter, odd_mode_columns, symbol_samples

def fisher(n, l_scale, alpha, t_final, l_lim, stride, window):
    cfg = GridConfig(n, l_scale)
    run = FisherRun(cfg=cfg, alpha=alpha, dt=0.01, t_final=t_final, l_lim=l_lim,
                    sample_stride=stride, fit_window=window)
    r = run_simulation(run, build_matrix(cfg, alpha, l_lim))
    return [[v.hex() for v in a] for a in (r.trace.x05, r.final_samples)]

record = dict(
    entries=[column_checksums(build_matrix(GridConfig(128, 1.0), a, 500)) for a in (0.5, 1.0, 1.95)],
    single_columns=[zlib.crc32(symbol_samples(0.3, 1024, 500).tobytes())] + [
        zlib.crc32(odd_mode_columns(n, a, 500).tobytes())
        for n, a in ((130, 0.7), (512, 1.5), (1024, 0.3))
    ],
    run=fisher(64, 50.0, 1.2, 0.3, 200, 5, (0.1, 0.3)),
    run_512=fisher(512, 1000.0 / 1.95**3, 1.95, 0.05, 20, 1, (0.0, 0.05)),
)
out = {out!r}
main(["matrix", "build", "--n", "128", "--alpha", "0.5", "--llim", "20", "--out", out])
with open(out + ".manifest.json") as fh:
    record["manifest_blas_threads"] = json.load(fh)["environment"]["blas_threads"]
setter = blas_thread_setter()
record["restored"] = None if setter is None else setter(2)
print(json.dumps(record))
"""


@pytest.fixture(scope="session")
def thread_count_runs(tmp_path_factory) -> dict:
    """What one script records in a fresh interpreter per OpenBLAS thread count, by count ("1", "2").

    The keys: ``entries``, the column CRCs of full builds at n = 128;
    ``single_columns``, the CRCs of the k = 2 column and of three odd
    blocks past n = 128; ``run`` and ``run_512``, the hex trace and final
    samples of Fisher runs at n = 64 and 512; ``manifest_blas_threads``,
    the thread count in a ``matrix build`` manifest; and ``restored``,
    what ``blas_thread_setter()(2)`` returns after all of these (None
    without a setter).  The last line of stdout is the record: the
    ``matrix build`` prints before it.
    """
    runs = {}
    for threads in ("1", "2"):
        out = tmp_path_factory.mktemp(f"threads{threads}") / "m.bin"
        stdout = run_fresh_python(_THREAD_COUNT_SCRIPT.format(out=str(out)), threads)
        runs[threads] = json.loads(stdout.splitlines()[-1])
    return runs


def copy_off_line(array: np.ndarray, offset: int) -> np.ndarray:
    """A C-ordered float64 copy of ``array`` whose data starts ``offset`` bytes past a 64-byte boundary."""
    raw = np.empty(array.nbytes + 128, dtype=np.uint8)
    start = -raw.ctypes.data % 64 + offset
    out = raw[start : start + array.nbytes].view(np.float64).reshape(array.shape)
    out[...] = array
    return out


def cache_file_bytes(version: int, n: int, payload_entries: int, *, alpha: float = 0.5) -> bytes:
    """A hand-built cache file of the version-3 to 7 layout (l_lim = 200): zero payload, valid CRC."""
    header = struct.pack("<8sIII4xd32x", b"FLAPMAT1", version, n, 200, alpha)
    payload = np.zeros(payload_entries, np.complex128).tobytes()
    return header + payload + struct.pack("<Q", zlib.crc32(payload, zlib.crc32(header)))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240613)
