"""Action of the fractional Laplacian on the Fourier modes exp(i*k*s).

For the mapped operator, the image of one mode is a series in the even
harmonics exp(2i*l*s).  On the half-shifted nodes aliasing collapses the
outer index through l = l1*n + l2:

    exp(2i*l*s_j) = (-1)^l1 * exp(2i*l2*s_j),   l2 in {-n/2, ..., n/2-1},

so truncating |l1| <= l_lim turns the doubly infinite series into an
(2*l_lim+1) x n table of products of gamma ratios, summed over l1 with the
smallest terms (largest |l1|) first (past l_lim = 48, as a fixed plan of 65
weighted rows; see below).  In the odd modes the l1 = l2 = 0
weight A(0) is Gamma's pole at alpha = 1, but its term enters only through
(1 - alpha)*A(0) = -2*Gamma((1+alpha)/2)/Gamma((3-alpha)/2), finite at every
alpha, so the sums leave A(0) out and add the term in that form.  The series
has two entry points: :func:`odd_mode_columns`, every odd column of a
block, and :func:`symbol_samples`, the k = 2 column alone.

The even modes also have a finite closed form at every alpha, a polynomial
of degree k/2 - 1 in exp(2i*s) times the image of exp(2i*s)
(:func:`even_mode_columns`; at alpha = 1 it is k*sin(s)^2*exp(i*k*s)).  The
operator block (:func:`fraclap.opmatrix.build_matrix`) takes its even
columns from it and its odd columns from :func:`odd_mode_columns`, so l_lim
governs only the odd columns of a built block.  :func:`symbol_samples`
keeps the paper's series for k = 2 off alpha = 1, where the series'
prefactor 1/tan(pi*alpha/2) vanishes: criteria 1 and 2 and the mode-2 scan
test that truncation at its stated l_lim.

A term is W = (-1)^l1 * A(|l|) times G, a function of e = d - l1*n with
d = floor(k/2) - l2 (B(|e|) for even k, sign(e)*C(|e + 1/2| - 1/2) for
odd k), where A, B and C are the ratios Gamma(a + m)/Gamma(b + m) with
(a, b) = ((-1+alpha)/2, (3-alpha)/2), ((-1-alpha)/2, (3+alpha)/2) and
(-alpha/2, 2+alpha/2).  The odd block requests A and C as vectors,
vec_a and vec_c (:func:`fraclap.gammaratio.ratio_vector`), over the m its
rows need.  Along a row of fixed l1 != 0 neither index changes sign,
so each row of an odd column is one contiguous run of a vector:

    l1 = +p:  |l| = p*n + l2, a forward run of vec_a;
              e = d - p*n < 0, a reversed run of vec_c one entry lower,
              negated;
    l1 = -p:  |l| = p*n - l2, a reversed run of vec_a;
              e = d + p*n > 0, a forward run of vec_c.

The odd block reads its rows as strided views of the vectors and copies W
and G once per call into the summation order, the exact sign (-1)^l1
folded into the copy; only the l1 = 0 rows, where l and e change sign, are
gathered.

Neither series kernel sums all 2*l_lim + 1 rows past l_lim = 48: the odd
block and the k = 2 column both follow a fixed plan (:func:`_row_plan`) of
65 rows.  The row pairs +-p carry (-1)^p, so the series alternates, and
the plan sums it in two runs.  The near run sums the whole series from
the pairs 1..24 with the weights of Cohen, Rodriguez Villegas and Zagier
(Experiment. Math. 9, 2000, Algorithm 1; :func:`_cvz_weights`), which sum
an alternating series of moments of a positive measure on [0, 1] from N
terms to within about 5.83^-N: the weight is 1 at p = 1, within 2e-4 of
1 up to p = 10 and 1.2e-4 at p = 24.  Without the tail run the odd
columns are within 3e-15 of their exact images at n = 16 and 32.  The
tail run takes the series' tail beyond l_lim back off with the Euler
(van Wijngaarden) transform (*Numerical Recipes*, "Series and their
convergence").  Averaging the nine partial sums up to p = L..L+8,
neighbour with neighbour, eight times over is one sum in which the pairs
p <= L keep weight 1 and the pair p = L + i gets weight
u_i = 2^-8 * sum_{j>=i} C(8, j); with L = l_lim the pairs
l_lim+1..l_lim+8, weighted -u_i, subtract the tail.  (Eight CVZ pairs in
their place were 3e-14 to 9e-14 off the plain sum.)  The difference is
the truncation at l_lim to round-off (within 1.2e-13 column-relative of
the plain sum at n <= 1024 in the odd block, where the plain sum's own
round-off is about as large, and within 2.3e-16 in the k = 2 column),
while the block sums 65 rows and requests about 69*n vector entries at
every l_lim: two vectors from m = 0 and two from about m = l_lim*n; the
k = 2 column forms 65*n terms.  Up to l_lim = 48, the switch point, the
plan is the plain truncation, row for row; past it the tail pairs lie
beyond the near run's.  The plan would sum fewer rows than the
truncation from l_lim = 33 on; the switch stays at 48, so that the blocks
and columns at l_lim 33..48 keep their bytes and their pins.  The weights
fold into the exact sign (-1)^p of each pair, and the rows keep
descending p within each run, with l1 = 0 last.  The k = 2 column evaluates no gamma ratio at all: its
two ratios differ by exactly 2 in their arguments, so each term is a
rational function of |l|, formed a chunk of the plan's rows at a time,
run by run and largest p first as they are summed, by one generator that
owns the chunk buffer (:func:`_mode2_chunks`), and never as W or G.  The
-p and +p terms are fused into each row's P0 and P1 parts and reduced
chunk by chunk, each chunk's sums added in as it arrives
(:func:`_column_sums`).

Each call takes its large work arrays from one allocation: W, G, the
product operand, the sums P0 and P1 and the l2 series' work for the odd
block, the chunk buffers for the k = 2 column.  Nothing is kept between
calls, and no result is a view of the buffer.  The odd block's buffer is
larger than all the call's other arrays together: glibc's malloc trims
the top of its heap once it exceeds twice the largest block it has
unmapped, so a buffer that dominates the call keeps its pages resident
from one call to the next, while one that held only W and G (297 KB at
n = 128 with the 97 rows of the earlier Euler plan) let about 160 pages be
faulted in afresh per call.
The k = 2 column's buffer, and each of its six rows, starts on a 64-byte
cache line (:func:`aligned_empty`): its chunk passes stream their operands
as they lie and ran slower off a line, while BLAS packs a GEMM's operands,
so the odd block's buffer is not aligned.  Alignment changes no result.
The measurements behind both choices are in CHANGES.md.

The l1 sums of many columns at once are a sliding-window reduction
P[j, c] = sum_i W[i, j]*G[i, n-1-j+c], c < n/2, which is the matrix product
W^T G read along a skewed band.  They run as blocked GEMMs (Goto & van de
Geijn, ACM TOMS 34, 2008) pinned to one OpenBLAS thread, since dgemm sums in
a different order at different thread counts; the k = 2 column's reductions
run under the same pin.  A block of b = 32 nodes computes b + n/2 - 1
columns of the product to read a band n/2 wide, so (b - 1)/(b + n/2 - 1) of
each product goes unread: a third at n = 128, 6% at n = 1024.  One size
serves every n (the timings of 16 and 64 are in CHANGES.md).

Every value here is at unit map scale: the operator is homogeneous of
degree -alpha, so on the map x = x_c + L*cot(s) each image carries the
factor L^(-alpha), which :mod:`fraclap.opmatrix` applies.  The image of a
mode is a function of x, so it only needs the n physical nodes: s_{j+n} =
s_j + pi is the same point x_j.  There 2*l2*s_j = 2*pi*l2*j/n + pi*l2/n,
so the remaining l2 series is one n-point inverse DFT of the l1 sums times
exp(i*pi*l2/n) (Cooley & Tukey, Math. Comp. 19, 1965), which gives all n
rows of every column at once (:func:`_series`).  It is numpy.fft's
pocketfft, so nothing here loads SciPy.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math

import numpy as np
from numpy.fft import ifft
from numpy.lib.stride_tricks import sliding_window_view

from fraclap.gammaratio import ratio_vector
from fraclap.grid import GridConfig, _check_integer, nodes

_CHUNK = 32768  # terms per chunk of the k = 2 column's sums: 256 KB buffers
_NODE_BLOCK = 32  # nodes per product of the odd block's band GEMM (module docstring)
_PLAN_PAIRS = 48  # up to this l_lim the plan is the plain truncation (module docstring)
_TAPER = 8  # row pairs of the plan's Euler tail
# u_i = 2^-8 * sum_{j >= i} C(8, j), as u_8..u_1 (descending p)
_EULER = np.cumsum([math.comb(_TAPER, j) for j in range(_TAPER, 0, -1)]) / 2.0**_TAPER


def _cvz_weights(pairs: int) -> np.ndarray:
    """|c_(p-1)/d| of Cohen, Rodriguez Villegas & Zagier's Algorithm 1 for p = pairs..1.

    With N = pairs, d = ((3 + sqrt 8)^N + (3 - sqrt 8)^N)/2 is T_N(3), and
    b and c stay integers (-b_k is the x^k coefficient of T_N(1 - 2x)), so
    the recurrence runs in Python integers and each weight is one correctly
    rounded division.
    """
    d_prev, d = 1, 3  # T_0(3), T_1(3)
    for _ in range(pairs - 1):
        d_prev, d = d, 6 * d - d_prev
    b, c, weights = -1, -d, []
    for k in range(pairs):
        c = b - c
        weights.append(abs(c) / d)
        b = 2 * (k + pairs) * (k - pairs) * b // ((2 * k + 1) * (k + 1))
    return np.array(weights[::-1])


_CVZ = _cvz_weights(24)  # the near run's weights, as pairs 24..1 (descending p)


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


def check_block(n: int, alpha: float, l_lim: int) -> None:
    """The one check of the (n, alpha, l_lim) that fixes a block, a column or a run.

    Raises TypeError for a non-integer or bool n or l_lim and ValueError for
    an odd or too small n, alpha outside (0, 2) (NaN too) or a negative l_lim.
    """
    _check_integer("l_lim", l_lim)
    GridConfig(n, 1.0)  # checks n
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    if l_lim < 0:
        raise ValueError(f"l_lim must be nonnegative, got {l_lim}")


def _rows(out: np.ndarray, minus, plus, minus_sign=1.0, plus_sign=1.0) -> None:
    """Fill ``out`` with row pairs in summation order: l1 = -p, then +p, for each p of a run.

    ``minus`` and ``plus`` hold the rows of l1 = -p and +p in that order of
    p; each is multiplied by its sign as it is copied in.
    """
    np.multiply(minus, minus_sign, out=out[0::2])
    np.multiply(plus, plus_sign, out=out[1::2])


@functools.cache
def _openblas(f: str, *argtypes):
    """numpy's OpenBLAS function ``f`` as a ctypes function of ``argtypes`` returning an int, or None.

    The lookup is in numpy's linear-algebra extension, whose symbol search
    covers the BLAS numpy is linked to and no other (scipy's OpenBLAS has a
    thread count of its own).  It tries four export names in turn: the
    scipy-openblas wheels' ``scipy_openblas_<f>64_`` and ``scipy_openblas_<f>``
    (64- and 32-bit integer builds), then plain OpenBLAS's ``openblas_<f>64_``
    and ``openblas_<f>``.  numpy 2.4's wheel exports ``get_num_threads``
    under the first and ``set_num_threads_local`` under the last.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (OSError, AttributeError):
        return None
    names = (f"scipy_openblas_{f}64_", f"scipy_openblas_{f}", f"openblas_{f}64_", f"openblas_{f}")
    function = next(filter(None, (getattr(lib, name, None) for name in names)), None)
    if function is not None:
        function.argtypes = list(argtypes)
        function.restype = ctypes.c_int
    return function


def blas_thread_setter():
    """numpy's OpenBLAS ``set_num_threads_local(count)``, which returns the previous count, or None."""
    return _openblas("set_num_threads_local", ctypes.c_int)


def blas_threads() -> int | None:
    """numpy's OpenBLAS thread count, or None where it exports no ``get_num_threads``."""
    getter = _openblas("get_num_threads")
    return None if getter is None else getter()


def aligned_empty(shape) -> np.ndarray:
    """An uninitialised C-contiguous float64 array of ``shape`` whose data starts on a 64-byte boundary.

    numpy aligns its allocations to 16 bytes only, so this over-allocates
    a byte array by one cache line and views it from the first boundary.
    """
    size = int(np.prod(shape))
    raw = np.empty(8 * size + 64, dtype=np.uint8)
    # two slices: numpy does not move the pointer of an empty raw[start:start]
    return raw[-raw.ctypes.data % 64 :][: 8 * size].view(np.float64).reshape(shape)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the caller's count.

    OpenBLAS dgemm sums in a different order at different thread counts, so
    pinning is what makes the products bit-identical at any count.  Where
    :func:`blas_thread_setter` finds no setter this is a no-op.
    """
    setter = blas_thread_setter()
    if setter is None:
        yield
        return
    previous = setter(1)
    try:
        yield
    finally:
        setter(previous)


def _window_sums(w: np.ndarray, l1, g: np.ndarray, work: np.ndarray, out: np.ndarray) -> np.ndarray:
    """P0[j, c] = sum_i W[i, j]*g[i, n-1-j+c] for c < width, and P1 with W*l1 for W.

    g holds n + width - 1 columns, which fix the window: width = n/2 in
    the odd block.  Written stacked as (2, n, width) into ``out``, which is
    returned.  For a block of b = _NODE_BLOCK nodes from j0 the sums are
    one product Q = [W_blk | (W*l1)_blk]^T @ g[:, lo : lo + b + width - 1] with
    lo = n - j0 - b, and P[j0 + r, c] is the skewed band Q[r, b-1 - r + c]:
    a row pitch of b + width - 2 in Q's flat storage.  The last block holds
    what is left of the n nodes.  The operand [W_blk | (W*l1)_blk] is
    written into the flat float64 buffer ``work``, which holds at least
    2*b*rows entries, block after block; the rows i keep their summation
    order.  The products run on one OpenBLAS thread (:func:`_one_blas_thread`).
    """
    rows, n = w.shape
    width = g.shape[1] - n + 1
    with _one_blas_thread():
        for j0 in range(0, n, _NODE_BLOCK):
            b = min(_NODE_BLOCK, n - j0)
            lo = n - j0 - b
            wb = w[:, j0 : j0 + b]
            a = work[: rows * 2 * b].reshape(rows, 2 * b)
            a[:, :b] = wb
            np.multiply(wb, l1[:, None], out=a[:, b:])
            q = a.T @ g[:, lo : lo + b + width - 1]
            band = q.reshape(-1, b * (b + width - 1))[:, b - 1 : b - 1 + b * (b + width - 2)]
            out[:, j0 : j0 + b] = band.reshape(-1, b, b + width - 2)[:, :, :width]
    return out


def _mode2_image(s, alpha: float) -> np.ndarray:
    """The image of exp(2i*s) at real s: -2*Gamma(1+alpha)*t^(1+alpha), t = -i*sin(s)*exp(i*s).

    The one definition of the k = 2 image, which the oracle
    :func:`fraclap.oracles.closed_form_mode2` returns and
    :func:`even_mode_columns` scales every even column by.  Re t =
    sin(s)^2 >= 0, so on the principal branch |t| = |sin(s)| and
    arg t = (s mod pi) - pi/2, and the power is taken in real arithmetic,
    with no complex log or exp:

        t^(1+alpha) = |sin(s)|^(1+alpha) * exp(i*phi),  phi = (1+alpha)*((s mod pi) - pi/2).

    s mod pi is s - pi*floor(s/pi), which is s itself on (0, pi), where the
    nodes lie.  Within a few ulps of a multiple of pi, where sin(s) is at
    round-off, the branch can flip.  Returns an array of the shape of s
    (0-d for a scalar).
    """
    s = np.asarray(s, dtype=float)
    mag = -2.0 * math.gamma(1.0 + alpha) * np.abs(np.sin(s)) ** (1.0 + alpha)
    phi = (1.0 + alpha) * (s - np.pi * np.floor(s / np.pi) - np.pi / 2)
    out = np.empty(s.shape, dtype=complex)
    np.multiply(mag, np.cos(phi), out=out.real)
    np.multiply(mag, np.sin(phi), out=out.imag)
    return out


def even_mode_columns(n: int, alpha: float) -> np.ndarray:
    """Unit-scale operator on exp(i*k*s), k = 2, 4, ..., n-2, at the n physical nodes.

    The even modes have a finite closed form.  For k = 2m, with
    t = -i*sin(s)*exp(i*s), z = exp(2i*s) and the prefactor, the image of
    exp(2i*s), from :func:`_mode2_image` (in real arithmetic, on the
    principal branch: at the nodes |t| = sin(s) and arg t = s - pi/2),

        E_2m(s) = -2*Gamma(1+alpha) * t^(1+alpha) * sum_{i<m} a_i*b_(m-1-i)*z^i,
        a_i = (1+alpha)_i/i!,  b_j = (1-alpha)_j/j!.

    a_i and b_j are running products in long double, so nothing cancels in
    the coefficients; row m-1 of the lower-triangular coefficient array is
    a_i*exp(i*pi*i/n) times a reversed run of b.  Since 2i*s_j =
    2*pi*i*j/n + pi*i/n, the polynomial at all n nodes is then one batched
    n-point inverse DFT, with exact phases.  Its row m = 1 is exactly 1, so
    the column k = 2 is the oracle :func:`fraclap.oracles.closed_form_mode2`,
    which returns the same one definition.  At alpha = 1
    b_j = 0 for j >= 1 and a_(m-1) = m, so only i = m-1 survives and
    E_2m = 2m*sin(s)^2*exp(2i*m*s), with the phases of the same DFT; no
    branch is taken.  No gamma table and no truncation enter.
    Returns an (n, n/2 - 1) array; raises as :func:`check_block` does for
    a bad n or alpha.
    """
    check_block(n, alpha, 0)
    s = nodes(GridConfig(n, 1.0))
    size = n // 2 - 1
    i = np.arange(1, size, dtype=np.longdouble)
    a = np.cumprod(np.concatenate(([1.0], (alpha + i) / i)))[:size]  # (1+alpha)_i/i!
    b = np.cumprod(np.concatenate(([1.0], (i - alpha) / i)))[:size]  # (1-alpha)_j/j!
    # [m-1, i] = b_(m-1-i) for i < m, else 0: windows of b reversed and padded
    runs = sliding_window_view(np.concatenate((b[::-1], np.zeros(size))).astype(np.float64), size)
    phased = a.astype(np.float64) * np.exp(1j * np.pi * np.arange(size) / n)
    poly = ifft(runs[:size][::-1] * phased, n=n, axis=1, norm="forward")
    return _mode2_image(s, alpha)[:, None] * poly.T


def _mode2_zero(alpha: float, n: int) -> np.ndarray:
    """The l1 = 0 row of the k = 2 column's terms, m = |l2|: the largest terms.

    Formed in long double from the rational form of :func:`_mode2_chunks`
    and rounded once: A(m)*B(m + 1) for l2 <= 0, A(m)*B(m - 1) for l2 > 0.
    """
    half = n // 2
    l2 = np.arange(-half, half)
    m = np.abs(l2).astype(np.longdouble)
    c = (1 - np.longdouble(alpha)) / 2
    side = np.where(l2 <= 0, 1, -1).astype(np.longdouble)  # A(m)*B(m + side)
    near = m + side * (1 - c)  # m + e, or m - e
    return (1 / ((m - c) * (m + c) * near * (near + side))).astype(np.float64)


def _mode2_chunks(alpha: float, n: int, l_lim: int):
    """Yield the k = 2 column's terms for the pairs p of :func:`_row_plan`, a chunk of _CHUNK // n rows at a time.

    The chunks are walked in summation order: run by run of the plan, and
    within a run top, top - rows, ..., largest p first, with the run's
    short chunk, if any, last.  Each chunk is (top,
    t_minus, t_plus, spare): three (count, n) views of one work buffer that
    the next chunk reuses, row r at p = top - r and column j at
    l2 = j - n/2.  t- holds the terms of l1 = -p, t+ those of l1 = +p, and
    ``spare`` is free for the caller.  The buffer is one
    :func:`aligned_empty` array of six rows, each of size + 5 entries
    (size = min(_CHUNK // n, longest run)*n) padded to whole cache lines,
    so each row starts on a line: the spare, the ramp j, L, R, t- and the
    pair products.  No gamma ratio is evaluated: the two ratios
    of a k = 2 term differ by exactly 2 in their arguments
    (b_A - a_B = b_B - a_A = 2), so Gamma(z + 1) = z*Gamma(z) cancels them.
    With c = (1 - alpha)/2, e = (1 + alpha)/2 = 1 - c, L(m) = m - c and
    R(m) = m + c,

        A(m)*B(m + 1) = 1/((m^2 - c^2)(m + e)(m + e + 1)) = 1/(L(m+2)*L(m+1) * L(m)*R(m)),
        A(m)*B(m - 1) = 1/((m^2 - c^2)(m - e)(m - e - 1)) = 1/(R(m-1)*R(m-2) * L(m)*R(m)),

    the first at m = p*n - l2 (l1 = -p), the second at m = p*n + l2
    (l1 = +p).  A chunk's terms take m from M = top*n + n/2 down to
    M - count*n, so L and R are formed once over that descending window,
    each rounded once from the exact integer m, and the three pair products
    are elementwise products of shifted runs of them.  The t- rows are the
    first terms as they lie in the window; the t+ rows are the second terms
    one entry later, each row reversed as its reciprocal is taken.  The
    l1 = 0 row is :func:`_mode2_zero`.  alpha must not be 1, where c = 0
    puts a pole at m = 0.
    """
    half = n // 2
    c = (1.0 - alpha) / 2.0
    plan = _row_plan(l_lim)
    rows = max(1, _CHUNK // n)
    size = min(rows, max(weight.size for _, weight in plan)) * n
    span = -(-(size + 5) // 8) * 8  # size + 5 entries, rounded up to whole cache lines
    # lo and hi hold L and R at m = M + 2 - j
    spare, ramp, lo, hi, t_minus, pairs = aligned_empty((6, span))[:, : size + 5]
    ramp[:] = np.arange(size + 5)
    for run, weight in plan:
        for top in range(run, run - weight.size, -rows):
            count = min(rows, top - run + weight.size)
            k = count * n
            lf, rf = lo[: k + 5], hi[: k + 5]
            np.subtract(top * n + half + 2, ramp[: k + 5], out=rf)  # m, exact
            np.subtract(rf, c, out=lf)
            rf += c
            tm, q = t_minus[:k], pairs[:k]
            np.multiply(lf[:k], lf[1 : k + 1], out=tm)  # at m = M - i: L(m+2)*L(m+1)
            np.multiply(rf[4 : k + 4], rf[5 : k + 5], out=q)  # at m = M - 1 - i: R(m-1)*R(m-2)
            np.multiply(lf[2 : k + 3], rf[2 : k + 3], out=lf[2 : k + 3])  # L(m)*R(m)
            tm *= lf[2 : k + 2]
            q *= lf[3 : k + 3]
            np.divide(1.0, tm, out=tm)
            tp = rf[:k].reshape(count, n)
            np.divide(1.0, q.reshape(count, n)[:, ::-1], out=tp)
            yield top, tm.reshape(count, n), tp, spare[:k].reshape(count, n)


def _column_sums(alpha: float, n: int, l_lim: int):
    """P0 and P1 of the k = 2 column, each an n-vector over the nodes.

    The terms come chunk by chunk from :func:`_mode2_chunks`, over the
    pairs p of :func:`_row_plan` in its order, largest p first within each
    run, and so do each chunk's rows.  A chunk's terms t- of l1 = -p and
    t+ of l1 = +p are fused into P0 rows t- + t+ and P1 rows t+ - t-, and
    reduced with one dot against w0 = weight*(-1)^p and w1 = w0*p (rounded
    once, since a CVZ weight times p need not be a double), on one OpenBLAS
    thread (:func:`_one_blas_thread`); the two dots
    are added into P0 and P1 as the chunk arrives.  The l1 = 0 row
    (:func:`_mode2_zero`) is added to P0 last; it has no share in P1.
    """
    plan = _row_plan(l_lim)
    p = np.concatenate([np.arange(top, top - weight.size, -1) for top, weight in plan])
    w0 = np.concatenate([weight for _, weight in plan]) * (1.0 - 2.0 * (p % 2))
    w1 = w0 * p
    p0 = np.zeros(n)
    p1 = np.zeros(n)
    i = 0  # row i of w0 holds the chunk's first pair: the chunks walk p in the plan's order
    with _one_blas_thread():
        for _, tm, tp, diff in _mode2_chunks(alpha, n, l_lim):
            chunk = slice(i, i + len(tp))
            i += len(tp)
            np.subtract(tp, tm, out=diff)
            np.add(tm, tp, out=tp)
            p0 += w0[chunk] @ tp
            p1 += w1[chunk] @ diff
    p0 += _mode2_zero(alpha, n)
    return p0, p1


def _series(alpha: float, n: int, k: np.ndarray, p0: np.ndarray, p1: np.ndarray,
            work: np.ndarray) -> np.ndarray:
    """Columns k of one parity at the n nodes from their l1 sums P0 and P1, each (n, k.size).

    The l2 series is one shifted inverse FFT per column in pocketfft,
    O(n log n), times the prefactor.  P0 and P1 are overwritten, and the
    series is formed in ``work``, a flat float64 buffer of at least
    4*n*k.size entries; only the result is allocated.
    """
    s = nodes(GridConfig(n, 1.0))
    l2 = np.arange(-(n // 2), n // 2)[:, None]
    shifted, series = work[: 4 * n * k.size].view(np.complex128).reshape(2, n, k.size)
    # l2 sums (1 - alpha)*k^2*P0 - 4k*(n*P1 + l2*P0), formed in P0
    spare = work[: n * k.size].reshape(n, k.size)  # free until shifted is written
    np.multiply(l2, p0, out=spare)
    p1 *= n
    p1 += spare
    p1 *= 4.0 * k
    p0 *= (1.0 - alpha) * k * k
    p0 -= p1
    np.multiply(np.exp(1j * np.pi * l2 / n), p0, out=series)
    # sum over l2 of exp(2i*l2*s_j) * l2_sums: the DFT with l2 = 0 moved to row 0
    half = n // 2
    shifted[:half], shifted[half:] = series[half:], series[:half]
    ifft(shifted, axis=0, norm="forward", out=series)
    pref = fractional_constant(alpha) * np.abs(np.sin(s)) ** (alpha - 1.0) / 8.0
    if k[0] % 2 == 0:
        # 1/tan(pi*alpha/2), with 1 - alpha exact: pi*alpha/2 rounds next to the pole
        return (pref * math.tan(math.pi * (1.0 - alpha) / 2.0))[:, None] * series
    return 1j * pref[:, None] * series


def _row_plan(l_lim: int) -> list:
    """The row pairs of both series kernels as runs of consecutive |l1|, largest first: [(top, weights)].

    A run holds the pairs p = top, top-1, ..., top - weights.size + 1, the
    pair p weighted by weights[top - p]; the last run ends at p = 1 (at
    l_lim = 0 it is empty, top 0).  The plan is derived in the module
    docstring.
    """
    if l_lim <= _PLAN_PAIRS:
        return [(l_lim, np.ones(l_lim))]
    return [(l_lim + _TAPER, -_EULER), (_CVZ.size, _CVZ)]


def odd_mode_columns(n: int, alpha: float, l_lim: int) -> np.ndarray:
    """Unit-scale operator on exp(i*k*s), k = 1, 3, ..., n-1, at the n physical nodes.

    Every column is the paper's series truncated at |l1| <= l_lim, its
    A(0) term in finite form, summed over the rows of :func:`_row_plan`
    (all of them up to l_lim = 48, the same 65 at any l_lim past it) as the
    module docstring derives, through :func:`_window_sums`.  The products
    run on one OpenBLAS thread, so the result does not depend on the
    caller's BLAS thread count; where numpy has no OpenBLAS thread setter
    (:func:`blas_thread_setter`) the pin is a no-op and that guarantee is
    the BLAS library's own.  Returns an (n, n/2) array; raises as
    :func:`check_block` does, before any work.
    """
    check_block(n, alpha, l_lim)
    half = n // 2
    plan = _row_plan(l_lim)
    rows = 2 * sum(weight.size for _, weight in plan) + 1
    # G at every d = h - l2 for h = 0..n/2-1; the window [l1, l2, h] holds G at d = h - l2
    d = np.arange(1 - half, n)
    # W, G and the operand of _window_sums, then P0 and P1 and the series'
    # work: one allocation (module docstring)
    size = rows * (n + d.size + 2 * _NODE_BLOCK)
    work = np.empty(size + n * n + 2 * n * n)
    w = work[: rows * n].reshape(rows, n)
    g = work[rows * n : rows * (n + d.size)].reshape(rows, d.size)
    l1 = np.zeros(rows)
    i = 0
    for top, weight in plan:
        count = weight.size
        bottom = top - count + 1
        # vec_a over |l| = bottom*n - n/2 .. top*n + n/2, and vec_c over
        # |e| = (bottom-1)*n .. (top+1)*n - 1 and n entries more (at l_lim = 0
        # the window view of vec_c below still needs n + n/2 - 1); both from
        # m = 0 for the run that ends at p = 1, which the l1 = 0 row reads
        ma = 0 if bottom == 1 else bottom * n - half
        mc = (bottom - 1) * n
        a = ratio_vector((-1.0 + alpha) / 2.0, (3.0 - alpha) / 2.0, top * n + half + 1 - ma, start=ma)
        c = ratio_vector(-alpha / 2.0, 2.0 + alpha / 2.0, (top + 2) * n - mc, start=mc)
        if bottom == 1:
            near_a, near_c = a, c
        # |l1*n + l2| runs up from p*n - n/2 (l1 = p), down from p*n + n/2 (-p)
        lo = bottom * n - half - ma
        up = a[lo : lo + count * n].reshape(count, n)[::-1]
        down = a[lo + 1 : lo + 1 + count * n].reshape(count, n)[::-1, ::-1]
        # e = d + p*n (l1 = -p): forward runs; e = d - p*n (l1 = +p): reversed
        # runs one entry lower, negated
        runs = sliding_window_view(c, d.size)
        fwd = runs[d[0] + n :: n][:count][::-1]
        rev = runs[::n][:count][::-1, ::-1]
        p = np.arange(top, bottom - 1, -1)
        sign = (weight * (1.0 - 2.0 * (p % 2)))[:, None]  # weight*(-1)^l1, exact
        pairs = slice(i, i + 2 * count)
        _rows(w[pairs], down, up, sign, sign)
        _rows(g[pairs], fwd, rev, plus_sign=-1.0)
        _rows(l1[pairs], -p, p)
        i += 2 * count
    w[-1] = near_a[np.abs(np.arange(-half, half))]  # l1 = 0: A(|l2|)
    w[-1, half] = 0.0  # A(0), a pole at alpha = 1: its term is added below in finite form
    # l1 = 0, gathered since e = d changes sign: C(|d + 1/2| - 1/2), negated for d < 0
    neg = d < 0
    g[-1] = near_c[np.invert(d, out=d, where=neg)]
    np.negative(g[-1], out=g[-1], where=neg)
    sums = work[size : size + n * n].reshape(2, n, half)
    p0, p1 = _window_sums(w, l1, g, work[rows * (n + d.size) : size], sums)
    k = np.arange(1, n, 2)
    # A(0)'s term, (1 - alpha)*k^2*A(0)*C((k-1)/2) in the l2 sums, enters as
    # -(1 - alpha)*A(0)*k*C((k-1)/2)/(4n) on P1's l2 = 0 row
    ratio = math.gamma((1.0 + alpha) / 2.0) / math.gamma((3.0 - alpha) / 2.0)
    p1[half] += ratio / (2 * n) * k * near_c[:half]
    return _series(alpha, n, k, p0, p1, work[size + n * n :])


def symbol_samples(alpha: float, n: int, l_lim: int) -> np.ndarray:
    """Values of the unit-scale operator applied to exp(2i*s) at the n physical nodes.

    The paper's series for the k = 2 column truncated at |l1| <= l_lim,
    summed over the rows of :func:`_row_plan` (all of them up to
    l_lim = 48, the same 65 at any l_lim past it); at alpha = 1 the mode-2
    image itself, 2*sin(s)^2*exp(2i*s) (:func:`_mode2_image`), which is also
    the block's column from :func:`even_mode_columns`.  No W or
    G is formed and no gamma ratio vector is built: :func:`_column_sums`
    reduces the rational terms of :func:`_mode2_chunks` with one dot per
    chunk, l1 = 0 last.  The reductions run on one OpenBLAS thread (see
    :func:`odd_mode_columns`).  Raises as :func:`check_block` does, and
    ValueError for n below 4 (k = 2 must be a column, 1 <= k <= n-1),
    before any work.
    """
    check_block(n, alpha, l_lim)
    if n < 4:
        raise ValueError(f"n must be at least 4 for the column k = 2, got {n}")
    if alpha == 1.0:
        return _mode2_image(nodes(GridConfig(n, 1.0)), alpha)
    p0, p1 = _column_sums(alpha, n, l_lim)
    return _series(alpha, n, np.array([2]), p0[:, None], p1[:, None], np.empty(4 * n))[:, 0]
