"""Assembly, caching and application of the dense operational matrix.

The operator maps the phase-shifted Fourier coefficients uhat(k) of data
continued evenly or oddly across s = pi to samples of the fractional
Laplacian.  Only the independent n x (n-1) block is stored: rows are the n
physical nodes j < n, columns the modes k = 1..n-1.  The rest is implicit.
The image of a mode is a function of x, and s_j + pi is the same point as
s_j, so the nodes j >= n would repeat the physical rows.  The column of -k
is the conjugate of the column of k.  Constants (k = 0) are annihilated,
and the k = -n mode's image is not representable on the grid, so both
contribute zero.  For the real coefficients of
:func:`fraclap.spectral.transform` the columns k and -k fold into one real
column each, which :func:`apply` uses.

The binary cache format (version 2) is a fixed 64-byte little-endian header

    0:8   magic  b"FLAPMAT1"
    8:12  format version (uint32)
    12:16 n (uint32)
    16:20 l_lim (uint32)
    20:24 extension code (uint32; 0 even, 1 odd)
    24:32 alpha (float64)
    32:40 l_scale (float64)
    40:48 x_center (float64)
    48:64 reserved (zeros)

followed by the n*(n-1) complex128 entries of the block in row-major order
and a trailing 8-byte CRC32 of header plus payload.  Round trips are bit
exact.  Version 1 files (the full 2n x 2n matrix) are rejected.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fraclap.grid import Extension, GridConfig, nodes
from fraclap.spectral import krasny_filter, transform
from fraclap.symbol import mode_columns

_MAGIC = b"FLAPMAT1"
_FORMAT_VERSION = 2
_HEADER = struct.Struct("<8sIIII3d16x")
_TRAILER = struct.Struct("<Q")
_EXTENSIONS = (Extension.EVEN, Extension.ODD)  # by cache extension code


class MatrixCacheError(RuntimeError):
    """Raised when a cache file is malformed or does not match expectations."""


@dataclass(frozen=True)
class MatrixMeta:
    """Build parameters carried alongside the entries."""

    alpha: float
    cfg: GridConfig
    l_lim: int


@dataclass(frozen=True)
class OperatorMatrix:
    """The operator's independent block: n physical rows, columns k = 1..n-1."""

    entries: np.ndarray
    meta: MatrixMeta

    def __post_init__(self) -> None:
        ent = np.asarray(self.entries, dtype=np.complex128)
        n = self.meta.cfg.n
        if ent.shape != (n, n - 1):
            raise ValueError(f"expected shape ({n}, {n - 1}), got {ent.shape}")
        object.__setattr__(self, "entries", ent)


def build_matrix(cfg: GridConfig, alpha: float, l_lim: int) -> OperatorMatrix:
    """Assemble the matrix for one alpha.

    The columns k = 1..n-1 come from one batched evaluation of the mode
    symbols (:func:`fraclap.symbol.mode_columns`).  The entries do not
    depend on the BLAS thread count.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    if l_lim < 0:
        raise ValueError(f"l_lim must be nonnegative, got {l_lim}")
    entries = mode_columns(cfg, alpha, l_lim, np.arange(1, cfg.n))
    return OperatorMatrix(entries=entries, meta=MatrixMeta(alpha=alpha, cfg=cfg, l_lim=l_lim))


def apply(matrix: OperatorMatrix, coeffs, extension) -> np.ndarray:
    """Matrix-vector product: operator samples at the n physical nodes.

    ``coeffs`` are the n real coefficients of :func:`fraclap.spectral.transform`
    for the given extension.  Even data has uhat(k) = uhat(-k) = c_k, so the
    columns k and -k sum to 2*Re(column k); odd data has uhat(+-k) = -+i*d_(k-1),
    so they sum to 2*Im(column k).  The parity is a property of how samples
    were continued, not of the operator.
    """
    c = np.asarray(coeffs, dtype=float)
    n = matrix.meta.cfg.n
    if c.shape != (n,):
        raise ValueError(f"expected {n} coefficients, got shape {c.shape}")
    if Extension(extension) is Extension.EVEN:
        return 2.0 * matrix.entries.real @ c[1:]
    return 2.0 * matrix.entries.imag @ c[:-1]


def fractional_laplacian(samples, matrix: OperatorMatrix) -> np.ndarray:
    """Operator applied to the n physical values: transform, filter, apply.

    The samples are continued with the parity of the matrix's grid.
    """
    ext = matrix.meta.cfg.extension
    return apply(matrix, krasny_filter(transform(samples, ext)), ext)


def fused_sample_operator(matrix: OperatorMatrix) -> np.ndarray:
    """Real n x n matrix from the physical samples of an even function to its image.

    It is :func:`apply` composed with the even transform,
    c_k = sum_{j<n} u_j*cos(k*s_j)/n: one real matrix acting on the n
    physical values, which agrees with ``apply`` on the unfiltered
    coefficients to round-off.  Raises ValueError for an odd-extension
    matrix.
    """
    cfg = matrix.meta.cfg
    if cfg.extension is not Extension.EVEN:
        raise ValueError("the folded sample operator needs an even-extension matrix")
    n = cfg.n
    s = nodes(cfg)[:n]
    return 2.0 * matrix.entries.real @ np.cos(np.outer(np.arange(1, n), s)) / n


def save_matrix(matrix: OperatorMatrix, path) -> None:
    """Write the binary cache file described in the module docstring.

    The file is written to ``<path>.tmp`` and then moved onto ``path``, so an
    interrupted write never leaves a partial file under the cache name (a
    stale ``.tmp`` is overwritten by the next save).
    """
    meta = matrix.meta
    header = _HEADER.pack(
        _MAGIC,
        _FORMAT_VERSION,
        meta.cfg.n,
        meta.l_lim,
        _EXTENSIONS.index(meta.cfg.extension),
        meta.alpha,
        meta.cfg.l_scale,
        meta.cfg.x_center,
    )
    payload = np.ascontiguousarray(matrix.entries).tobytes()
    checksum = zlib.crc32(payload, zlib.crc32(header))
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(payload)
        fh.write(_TRAILER.pack(checksum))
    os.replace(tmp, path)


def load_matrix(
    path,
    *,
    expect_n: int | None = None,
    expect_alpha: float | None = None,
    expect_l_lim: int | None = None,
) -> OperatorMatrix:
    """Read a cache file back, verifying magic, version, checksum and header.

    Optional ``expect_*`` arguments guard against loading a matrix built
    with different parameters.
    """
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size + _TRAILER.size:
        raise MatrixCacheError(f"{path}: file too short for a matrix cache")
    header = raw[: _HEADER.size]
    magic, version, n, l_lim, ext_code, alpha, l_scale, x_center = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise MatrixCacheError(f"{path}: bad magic {magic!r}")
    if version != _FORMAT_VERSION:
        raise MatrixCacheError(f"{path}: unsupported format version {version}")
    payload = raw[_HEADER.size : -_TRAILER.size]
    (stored,) = _TRAILER.unpack(raw[-_TRAILER.size :])
    actual = zlib.crc32(payload, zlib.crc32(header))
    if stored != actual:
        raise MatrixCacheError(f"{path}: checksum mismatch (corrupt file)")
    if ext_code >= len(_EXTENSIONS):
        raise MatrixCacheError(f"{path}: unknown extension code {ext_code}")
    try:
        cfg = GridConfig(int(n), l_scale, x_center, _EXTENSIONS[ext_code])
    except ValueError as exc:
        raise MatrixCacheError(f"{path}: invalid header ({exc})") from exc
    if len(payload) != n * (n - 1) * 16:
        raise MatrixCacheError(f"{path}: payload size does not match n = {n}")
    if expect_n is not None and n != expect_n:
        raise MatrixCacheError(f"{path}: cache has n = {n}, expected {expect_n}")
    if expect_alpha is not None and alpha != expect_alpha:
        raise MatrixCacheError(f"{path}: cache has alpha = {alpha}, expected {expect_alpha}")
    if expect_l_lim is not None and l_lim != expect_l_lim:
        raise MatrixCacheError(f"{path}: cache has l_lim = {l_lim}, expected {expect_l_lim}")
    entries = np.frombuffer(payload, dtype=np.complex128).reshape(n, n - 1).copy()
    meta = MatrixMeta(alpha=alpha, cfg=cfg, l_lim=int(l_lim))
    return OperatorMatrix(entries=entries, meta=meta)


def column_checksums(matrix: OperatorMatrix) -> list[int]:
    """CRC32 of each stored column's raw bytes, k = 1..n-1 (determinism checks)."""
    return [
        zlib.crc32(np.ascontiguousarray(matrix.entries[:, j]).tobytes())
        for j in range(matrix.entries.shape[1])
    ]
