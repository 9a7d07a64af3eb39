"""Assembly, caching and application of the dense operational matrix.

The matrix maps the 2n Fourier coefficients (stored in FFT bin order
k = 0..n-1, -n..-1) to samples of the fractional Laplacian at the 2n nodes.
Columns k = 1..n-1 come from the mode symbol; the column of -k is the
conjugate of the column of k; the k = 0 column is zero (constants are
annihilated) and the k = -n column is set to zero because that mode's image
is not representable on the grid.

The binary cache format is a fixed 64-byte little-endian header

    0:8   magic  b"FLAPMAT1"
    8:12  format version (uint32)
    12:16 n (uint32)
    16:20 l_lim (uint32)
    20:24 extension code (uint32; 0 even, 1 odd)
    24:32 alpha (float64)
    32:40 l_scale (float64)
    40:48 x_center (float64)
    48:64 reserved (zeros)

followed by the raw complex128 entries in row-major order and a trailing
8-byte CRC32 of header plus payload.  Round trips are bit exact.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fraclap.grid import Extension, GridConfig, nodes
from fraclap.spectral import (
    KRASNY_THRESHOLD,
    SpectralCoefficients,
    forward,
    krasny_filter,
    mode_numbers,
)
from fraclap.symbol import mode_columns

_MAGIC = b"FLAPMAT1"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<8sIIII3d16x")
_TRAILER = struct.Struct("<Q")


class MatrixCacheError(RuntimeError):
    """Raised when a cache file is malformed or does not match expectations."""


@dataclass(frozen=True)
class MatrixMeta:
    """Build parameters carried alongside the entries."""

    alpha: float
    cfg: GridConfig
    l_lim: int
    version: int = _FORMAT_VERSION


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense 2n x 2n complex matrix from coefficients to operator samples."""

    entries: np.ndarray
    meta: MatrixMeta

    def __post_init__(self) -> None:
        ent = np.asarray(self.entries, dtype=np.complex128)
        n2 = 2 * self.meta.cfg.n
        if ent.shape != (n2, n2):
            raise ValueError(f"expected shape ({n2}, {n2}), got {ent.shape}")
        object.__setattr__(self, "entries", ent)


def build_matrix(cfg: GridConfig, alpha: float, l_lim: int) -> OperatorMatrix:
    """Assemble the matrix for one alpha.

    Columns k = 1..n-1 come from one batched evaluation of the mode symbols
    (:func:`fraclap.symbol.mode_columns`), the columns of -k are their
    conjugates.  The entries do not depend on the BLAS thread count.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    if l_lim < 0:
        raise ValueError(f"l_lim must be nonnegative, got {l_lim}")
    n = cfg.n
    cols = mode_columns(cfg, alpha, l_lim, np.arange(1, n))
    entries = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    entries[:, 1:n] = cols
    np.conjugate(cols, out=entries[:, : n : -1])
    return OperatorMatrix(entries=entries, meta=MatrixMeta(alpha=alpha, cfg=cfg, l_lim=l_lim))


def apply(matrix: OperatorMatrix, coeffs: SpectralCoefficients) -> np.ndarray:
    """Matrix-vector product: operator samples at the 2n nodes.

    The coefficient grid must share n, l_scale and x_center with the build
    grid; the extension parity is a property of how samples were continued,
    not of the operator, and is not checked.
    """
    if not coeffs.grid.same_map(matrix.meta.cfg):
        raise ValueError(
            f"grid mismatch: coefficients on n={coeffs.grid.n}, "
            f"L={coeffs.grid.l_scale}, xc={coeffs.grid.x_center}; matrix built for "
            f"n={matrix.meta.cfg.n}, L={matrix.meta.cfg.l_scale}, "
            f"xc={matrix.meta.cfg.x_center}"
        )
    return matrix.entries @ coeffs.values


def fractional_laplacian(
    samples,
    matrix: OperatorMatrix,
    *,
    threshold: float = KRASNY_THRESHOLD,
    diagnostics: dict | None = None,
) -> np.ndarray:
    """Operator applied to real samples: transform, filter, apply, real part.

    The discarded imaginary part is reported through ``diagnostics`` (key
    ``"max_imag"``) when a dict is supplied; for real input it is pure
    round-off noise.
    """
    cfg = matrix.meta.cfg
    coeffs = krasny_filter(forward(samples, cfg), threshold)
    out = apply(matrix, coeffs)
    if diagnostics is not None:
        diagnostics["max_imag"] = float(np.max(np.abs(out.imag)))
    return np.ascontiguousarray(out.real)


def fused_sample_operator(matrix: OperatorMatrix) -> np.ndarray:
    """Real n x n matrix from the physical samples of an even function to its image.

    Under the even extension the forward transform of the 2n samples is real,
    uhat(k) = sum_{j<n} u_j*cos(k*s_j)/n, so composing it with the physical
    rows of the matrix gives one real matrix acting on the n physical values.
    Agrees with :func:`fractional_laplacian` of the extended samples (at zero
    filter threshold) to round-off.  Raises ValueError for an odd-extension
    matrix.
    """
    cfg = matrix.meta.cfg
    if cfg.extension is not Extension.EVEN:
        raise ValueError("the folded sample operator needs an even-extension matrix")
    n = cfg.n
    s = nodes(cfg)[:n]
    return matrix.entries[:n].real @ np.cos(np.outer(mode_numbers(n), s)) / n


def _extension_code(ext: Extension) -> int:
    return 0 if ext is Extension.EVEN else 1


def save_matrix(matrix: OperatorMatrix, path) -> None:
    """Write the binary cache file described in the module docstring."""
    meta = matrix.meta
    header = _HEADER.pack(
        _MAGIC,
        meta.version,
        meta.cfg.n,
        meta.l_lim,
        _extension_code(meta.cfg.extension),
        meta.alpha,
        meta.cfg.l_scale,
        meta.cfg.x_center,
    )
    payload = np.ascontiguousarray(matrix.entries).tobytes()
    checksum = zlib.crc32(payload, zlib.crc32(header))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
        fh.write(_TRAILER.pack(checksum))


def load_matrix(
    path,
    *,
    expect_n: int | None = None,
    expect_alpha: float | None = None,
    expect_l_lim: int | None = None,
) -> OperatorMatrix:
    """Read a cache file back, verifying magic, version and checksum.

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
    if len(payload) != (2 * n) * (2 * n) * 16:
        raise MatrixCacheError(f"{path}: payload size does not match n = {n}")
    if expect_n is not None and n != expect_n:
        raise MatrixCacheError(f"{path}: cache has n = {n}, expected {expect_n}")
    if expect_alpha is not None and alpha != expect_alpha:
        raise MatrixCacheError(f"{path}: cache has alpha = {alpha}, expected {expect_alpha}")
    if expect_l_lim is not None and l_lim != expect_l_lim:
        raise MatrixCacheError(f"{path}: cache has l_lim = {l_lim}, expected {expect_l_lim}")
    entries = np.frombuffer(payload, dtype=np.complex128).reshape(2 * n, 2 * n).copy()
    cfg = GridConfig(
        int(n), l_scale, x_center, Extension.EVEN if ext_code == 0 else Extension.ODD
    )
    meta = MatrixMeta(alpha=alpha, cfg=cfg, l_lim=int(l_lim), version=version)
    return OperatorMatrix(entries=entries, meta=meta)


def column_checksums(matrix: OperatorMatrix) -> list[int]:
    """CRC32 of each column's raw bytes (diagnostic for determinism checks)."""
    return [
        zlib.crc32(np.ascontiguousarray(matrix.entries[:, j]).tobytes())
        for j in range(matrix.entries.shape[1])
    ]
