"""Assembly, caching and application of the dense operational matrix.

The operator maps the phase-shifted Fourier coefficients uhat(k) of data
continued evenly or oddly across s = pi to samples of the fractional
Laplacian.  On the map x = x_c + L*cot(s) it is homogeneous of degree
-alpha in L, so the stored block is the unit-scale operator, a function of
(n, alpha, l_lim) alone.  :func:`apply` and :func:`fused_sample_operator`
scale it by L^(-alpha) of the grid they are given, whatever its shift or
extension parity.

Only an n x (n-1) block is stored: rows are the n physical nodes j < n,
columns the modes k = 1..n-1.  The rest is implicit.  The image of a mode
is a function of x, and s_j + pi is the same point as s_j, so the nodes
j >= n would repeat the physical rows.  The column of -k is the conjugate
of the column of k.  Constants (k = 0) are annihilated, and the k = -n
mode's image is not representable on the grid, so both contribute zero.
The stored block still repeats itself: the operator commutes with
s -> pi - s, so row n-1-j is (-1)^k times the conjugate of row j, and the
rows j >= n/2 mirror the rows j < n/2.  For the real coefficients of
:func:`fraclap.spectral.transform` the columns k and -k fold into one real
column each, which :func:`apply` uses.  On the samples of an even function
the operator also folds, by reflection parity, into the two n/2 x n/2
blocks of :func:`fused_sample_operator`.  They act on the rows of the
reflection-parity coordinates [v + w; v - w] of the samples, v the first
half and w the second half reversed; :func:`split_parity` and
:func:`join_parity` are the one place that layout is formed and undone.

The binary cache format (version 7) is a fixed 64-byte little-endian header

    0:8   magic  b"FLAPMAT1"
    8:12  format version (uint32)
    12:16 n (uint32)
    16:20 l_lim (uint32)
    20:24 reserved (zeros)
    24:32 alpha (float64)
    32:64 reserved (zeros)

followed by the n*(n-1) complex128 entries of the unit-scale block in
row-major order and a trailing 8-byte CRC32 of header plus payload.  Round
trips are bit exact.  An intact file of any other version raises
:class:`MatrixFormatError`.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from fraclap.grid import Extension, GridConfig, nodes
from fraclap.spectral import transform
from fraclap.symbol import aligned_empty, check_block, even_mode_columns, odd_mode_columns

_MAGIC = b"FLAPMAT1"
_FORMAT_VERSION = 7
_HEADER = struct.Struct("<8sIII4xd32x")
_TRAILER = struct.Struct("<Q")


class MatrixCacheError(RuntimeError):
    """Raised when a cache file is malformed or does not match expectations."""


class MatrixFormatError(MatrixCacheError):
    """Raised for an intact cache file of another format version: safe to rebuild over."""


@dataclass(frozen=True)
class OperatorMatrix:
    """The unit-scale operator's stored block: n physical rows, columns k = 1..n-1.

    n is the block's row count; ``alpha`` and ``l_lim`` are the order and
    truncation it was built for, checked with n by
    :func:`fraclap.symbol.check_block`.
    """

    entries: np.ndarray
    alpha: float
    l_lim: int

    def __post_init__(self) -> None:
        ent = np.asarray(self.entries, dtype=np.complex128)
        if ent.ndim != 2 or ent.shape[1] != ent.shape[0] - 1:
            raise ValueError(f"expected shape (n, n - 1), got {ent.shape}")
        object.__setattr__(self, "entries", ent)
        check_block(self.n, self.alpha, self.l_lim)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def build_matrix(cfg: GridConfig, alpha: float, l_lim: int) -> OperatorMatrix:
    """Assemble the unit-scale block for one alpha on grids of ``cfg.n`` nodes.

    Nothing of ``cfg`` but n is read: the block serves every scale, shift
    and parity.  The even columns k = 2, 4, ..., n-2 are the finite closed
    form of :func:`fraclap.symbol.even_mode_columns`, which reads no gamma
    table and no l_lim.  The odd columns are the truncated series of
    :func:`fraclap.symbol.odd_mode_columns`, so l_lim governs only them.
    Their l1 sums are matrix products run on one OpenBLAS thread, so the
    entries do not depend on the caller's BLAS thread count (where numpy's
    OpenBLAS has no thread setter the pin is a no-op).
    """
    entries = np.empty((cfg.n, cfg.n - 1), dtype=np.complex128)  # column k at index k - 1
    entries[:, 0::2] = odd_mode_columns(cfg.n, alpha, l_lim)
    entries[:, 1::2] = even_mode_columns(cfg.n, alpha)
    return OperatorMatrix(entries, alpha, l_lim)


def _scale(matrix: OperatorMatrix, cfg: GridConfig) -> float:
    """L^(-alpha): the factor of the unit-scale block on the grid ``cfg``."""
    if cfg.n != matrix.n:
        raise ValueError(f"matrix has n = {matrix.n}, grid has n = {cfg.n}")
    return cfg.l_scale ** -matrix.alpha


def apply(matrix: OperatorMatrix, coeffs, cfg: GridConfig) -> np.ndarray:
    """Matrix-vector product: operator samples at the n physical nodes of ``cfg``.

    ``coeffs`` are the n real coefficients of :func:`fraclap.spectral.transform`
    for the extension of ``cfg``.  Even data has uhat(k) = uhat(-k) = c_k, so
    the columns k and -k sum to 2*Re(column k); odd data has
    uhat(+-k) = -+i*d_(k-1), so they sum to 2*Im(column k).  The parity is a
    property of how samples were continued, not of the operator.  The image
    carries the factor L^(-alpha).
    """
    scale = _scale(matrix, cfg)
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (cfg.n,):
        raise ValueError(f"expected {cfg.n} coefficients, got shape {c.shape}")
    if cfg.extension is Extension.EVEN:
        return 2.0 * matrix.entries.real @ c[1:] * scale
    return 2.0 * matrix.entries.imag @ c[:-1] * scale


def fractional_laplacian(samples, matrix: OperatorMatrix, cfg: GridConfig) -> np.ndarray:
    """Operator on the grid ``cfg`` applied to its n physical values: transform, then apply.

    The samples are continued with the parity of ``cfg``.
    """
    return apply(matrix, transform(samples, cfg.extension), cfg)


def fused_sample_operator(matrix: OperatorMatrix, cfg: GridConfig) -> np.ndarray:
    """Reflection-parity blocks of the operator on the physical samples of an even function.

    Composing :func:`apply` with the even transform, c_k = sum_{j<n}
    u_j*cos(k*s_j)/n, gives a real n x n matrix on the n physical values.
    The operator commutes with reflection about x_center (s -> pi - s,
    node j -> n-1-j), under which mode k picks up (-1)^k, so that matrix is
    centrosymmetric and splits into a block for the reflection-even part of
    the samples (even k) and one for the reflection-odd part (odd k):

        blocks[0] = (4/n) * L^(-alpha) * Re(B)[:n/2, even k] @ cos(outer(even k, s[:n/2]))
        blocks[1] = (4/n) * L^(-alpha) * Re(B)[:n/2, odd k] @ cos(outer(odd k, s[:n/2]))

    with L the scale of ``cfg``, returned as one C-ordered (2, n/2, n/2)
    float64 array whose data starts on a 64-byte cache line
    (:func:`fraclap.symbol.aligned_empty`); the n x n matrix is never
    formed.  Each product is written straight into its block and scaled in
    place.  Every RK4 stage streams both blocks through a GEMV, which runs
    slower off a cache line (CHANGES.md); the results are the same bits
    wherever the blocks lie.
    :func:`apply_sample_operator` applies them, and agrees with ``apply`` on
    the even transform's coefficients to round-off.  Raises ValueError for
    an odd-extension grid.
    """
    if cfg.extension is not Extension.EVEN:
        raise ValueError("the folded sample operator needs an even-extension grid")
    scale = _scale(matrix, cfg)
    n = cfg.n
    half = n // 2
    s = nodes(cfg)[:half]
    rows = matrix.entries.real[:half]  # column k sits at index k - 1
    blocks = aligned_empty((2, half, half))
    for block, k in zip(blocks, (np.arange(2, n, 2), np.arange(1, n, 2))):
        np.matmul(rows[:, k - 1], np.cos(np.outer(k, s)), out=block)
        block *= 4.0 / n * scale
    return blocks


def split_parity(samples) -> np.ndarray:
    """Reflection-parity coordinates of n physical samples: the (2, n/2) array [v + w; v - w].

    v = u[:n/2] and w = u[n/2:] reversed, so node j and its mirror n-1-j
    share a column; row 0 is the reflection-even part of the samples, row 1
    the reflection-odd part.  The blocks of :func:`fused_sample_operator`
    act on these rows directly.  :func:`join_parity` is the inverse.
    """
    u = np.asarray(samples, dtype=float)
    half = u.shape[0] // 2
    v, w = u[:half], u[half:][::-1]
    return np.stack((v + w, v - w))


def join_parity(p) -> np.ndarray:
    """The n physical samples of parity coordinates [e; o]: (e + o)/2, then (e - o)/2 reversed."""
    e, o = p
    return 0.5 * np.concatenate((e + o, (e - o)[::-1]))


def apply_sample_operator(blocks: np.ndarray, samples) -> np.ndarray:
    """The operator on n physical samples, through the blocks of :func:`fused_sample_operator`.

    The even block acts on the even row of :func:`split_parity` and the odd
    block on the odd row; :func:`join_parity` of the two images is the
    image at the n nodes.
    """
    e, o = split_parity(samples)
    return join_parity((blocks[0] @ e, blocks[1] @ o))


def save_matrix(matrix: OperatorMatrix, path) -> None:
    """Write the binary cache file described in the module docstring.

    It goes to ``<path>.<pid>.<k>.tmp``, created exclusively with the first
    free k from 0, and is then renamed onto ``path``: an interrupted write
    leaves no partial cache, and saves to one path never share a temporary
    (the last rename wins).  A failed write or rename deletes it.
    """
    header = _HEADER.pack(_MAGIC, _FORMAT_VERSION, matrix.n, matrix.l_lim, matrix.alpha)
    payload = memoryview(np.ascontiguousarray(matrix.entries)).cast("B")  # no copy of a C-ordered block
    checksum = zlib.crc32(payload, zlib.crc32(header))
    k = 0
    while True:
        tmp = f"{path}.{os.getpid()}.{k}.tmp"
        try:
            fh = open(tmp, "xb")
            break
        except FileExistsError:
            k += 1
    try:
        with fh:
            fh.write(header)
            fh.write(payload)
            fh.write(_TRAILER.pack(checksum))
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def load_matrix(path, *, expect_n: int, expect_alpha: float, expect_l_lim: int) -> OperatorMatrix:
    """Read a cache file back, verifying magic, checksum, header and version.

    Every header field must be valid and equal its ``expect_*`` argument, so
    a file is never taken for the block of another (n, alpha, l_lim).  Each
    failure raises :class:`MatrixCacheError`.  A file that passes all of
    these checks but has another format version raises its subclass
    :class:`MatrixFormatError`: the file is intact and only stale.
    """
    with open(path, "rb") as fh:  # the one copy of the file: the entries are a view of it
        raw = bytearray(os.fstat(fh.fileno()).st_size)
        del raw[fh.readinto(raw) :]
    if len(raw) < _HEADER.size + _TRAILER.size:
        raise MatrixCacheError(f"{path}: file too short for a matrix cache")
    view = memoryview(raw)
    header = view[: _HEADER.size]
    magic, version, n, l_lim, alpha = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise MatrixCacheError(f"{path}: bad magic {magic!r}")
    payload = view[_HEADER.size : -_TRAILER.size]
    (stored,) = _TRAILER.unpack(view[-_TRAILER.size :])
    actual = zlib.crc32(payload, zlib.crc32(header))
    if stored != actual:
        raise MatrixCacheError(f"{path}: checksum mismatch (corrupt file)")
    try:
        check_block(n, alpha, l_lim)
    except ValueError as exc:
        raise MatrixCacheError(f"{path}: invalid header ({exc})") from exc
    for name, got, want in (("n", n, expect_n), ("alpha", alpha, expect_alpha),
                            ("l_lim", l_lim, expect_l_lim)):
        if got != want:
            raise MatrixCacheError(f"{path}: cache has {name} = {got}, expected {want}")
    if version != _FORMAT_VERSION:
        raise MatrixFormatError(f"{path}: unsupported format version {version}")
    if len(payload) != n * (n - 1) * 16:
        raise MatrixCacheError(f"{path}: payload size does not match n = {n}")
    entries = np.frombuffer(raw, np.complex128, n * (n - 1), _HEADER.size).reshape(n, n - 1)
    return OperatorMatrix(entries, alpha, l_lim)


def column_checksums(matrix: OperatorMatrix) -> list[int]:
    """CRC32 of each stored column's raw bytes, k = 1..n-1 (determinism checks)."""
    return [
        zlib.crc32(np.ascontiguousarray(matrix.entries[:, j]).tobytes())
        for j in range(matrix.entries.shape[1])
    ]
