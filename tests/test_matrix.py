import json
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import fraclap
from fraclap.grid import Extension, GridConfig, node_positions, nodes
from fraclap.opmatrix import (
    MatrixCacheError,
    apply,
    build_matrix,
    column_checksums,
    fractional_laplacian,
    fused_sample_operator,
    load_matrix,
    save_matrix,
)
from fraclap.oracles import closed_form_gaussian, closed_form_mode2
from fraclap.spectral import SpectralCoefficients, extend, forward
from fraclap.symbol import SymbolParams, symbol_samples


@pytest.fixture(scope="module")
def small_matrix():
    return build_matrix(GridConfig(8, 1.0), 0.5, 200)


def _unit_mode(j: int, n: int) -> SpectralCoefficients:
    """Coefficients of the single mode stored at index j (k = j or j - 2n)."""
    vals = np.zeros(2 * n, complex)
    vals[j] = 1.0
    return SpectralCoefficients(GridConfig(n, 1.0), vals)


class TestBuildMatrix:
    def test_zero_columns(self, small_matrix):
        assert np.all(apply(small_matrix, _unit_mode(0, 8)) == 0.0)   # constants
        assert np.all(apply(small_matrix, _unit_mode(8, 8)) == 0.0)   # k = -n

    def test_conjugation_exact(self, small_matrix):
        for k in range(1, 8):
            np.testing.assert_array_equal(
                apply(small_matrix, _unit_mode(16 - k, 8)),
                np.conj(apply(small_matrix, _unit_mode(k, 8))),
            )

    def test_columns_are_mode_symbols(self, small_matrix):
        # the batched (many-column) reduction against the one-column one
        cfg = GridConfig(8, 1.0)
        for k in range(1, 8):
            expected = symbol_samples(SymbolParams(0.5, k, cfg, 200))
            np.testing.assert_allclose(apply(small_matrix, _unit_mode(k, 8)), expected, atol=1e-15)
        for alpha in (1.0, 1.5):
            matrix = build_matrix(cfg, alpha, 200)
            for k in range(1, 8):
                expected = symbol_samples(SymbolParams(alpha, k, cfg, 200))
                bound = 1e-14 * np.max(np.abs(expected))
                assert np.max(np.abs(apply(matrix, _unit_mode(k, 8)) - expected)) <= bound

    def test_alpha_range_checked(self):
        with pytest.raises(ValueError):
            build_matrix(GridConfig(4, 1.0), 2.0, 10)

    def test_blas_thread_count_does_not_change_entries(self):
        # a fresh process per thread count: OpenBLAS reads it at load time
        script = (
            "import json; from fraclap.grid import GridConfig; "
            "from fraclap.opmatrix import build_matrix, column_checksums; "
            "print(json.dumps([column_checksums(build_matrix(GridConfig(128, 1.0), a, 500)) "
            "for a in (0.5, 1.0, 1.95)]))"
        )
        src = str(Path(fraclap.__file__).resolve().parents[1])
        checksums = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True,
                check=True, timeout=300,
            )
            checksums.append(json.loads(done.stdout))
        assert checksums[0] == checksums[1]

    def test_mode2_delta_reproduces_closed_form(self):
        cfg = GridConfig(4, 1.0)
        matrix = build_matrix(cfg, 0.5, 530)
        vals = np.zeros(8, complex)
        vals[2] = 1.0
        out = apply(matrix, SpectralCoefficients(cfg, vals))
        exact = closed_form_mode2(nodes(cfg)[:4], 0.5)
        assert np.max(np.abs(out - exact)) < 5.1e-13

    def test_alpha_one_mode2(self):
        cfg = GridConfig(8, 2.0)
        matrix = build_matrix(cfg, 1.0, 50)
        vals = np.zeros(16, complex)
        vals[2] = 1.0
        out = apply(matrix, SpectralCoefficients(cfg, vals))
        s = nodes(cfg)[:8]
        np.testing.assert_allclose(out, 2 * np.sin(s) ** 2 * np.exp(2j * s) / 2.0, atol=1e-13)


class TestApply:
    def test_zero_coefficients(self, small_matrix):
        cfg = GridConfig(8, 1.0)
        out = apply(small_matrix, SpectralCoefficients(cfg, np.zeros(16)))
        assert np.all(out == 0.0)

    def test_linearity(self, small_matrix, rng):
        cfg = GridConfig(8, 1.0)
        v1 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        v2 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        a, b = 1.7, -0.3 + 0.2j
        lhs = apply(small_matrix, SpectralCoefficients(cfg, a * v1 + b * v2))
        rhs = a * apply(small_matrix, SpectralCoefficients(cfg, v1)) + b * apply(
            small_matrix, SpectralCoefficients(cfg, v2)
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_grid_mismatch(self, small_matrix):
        other = GridConfig(8, 2.0)
        with pytest.raises(ValueError):
            apply(small_matrix, SpectralCoefficients(other, np.zeros(16)))

    def test_extension_not_part_of_match(self, small_matrix):
        odd_cfg = GridConfig(8, 1.0, extension=Extension.ODD)
        out = apply(small_matrix, SpectralCoefficients(odd_cfg, np.zeros(16)))
        assert np.all(out == 0.0)


class TestFractionalLaplacian:
    def test_constant_maps_to_zero(self, small_matrix):
        out = fractional_laplacian(np.ones(16), small_matrix)
        assert np.all(out == 0.0)

    def test_gaussian_best_scale(self):
        # near the optimum of the scale sweep the node error is ~4e-13
        cfg = GridConfig(64, 4.6)
        matrix = build_matrix(cfg, 0.5, 500)
        x = node_positions(cfg)[:64]
        out = fractional_laplacian(extend(np.exp(-x * x), Extension.EVEN), matrix)
        exact = closed_form_gaussian(x, 0.5)
        assert np.max(np.abs(out[:64] - exact)) < 5e-12

    def test_gaussian_unit_scale_matches_reported_accuracy(self):
        # single-alpha spot check of the N=64, L=1 accuracy level (~1.4e-6)
        cfg = GridConfig(64, 1.0)
        matrix = build_matrix(cfg, 0.8, 500)
        x = node_positions(cfg)[:64]
        out = fractional_laplacian(extend(np.exp(-x * x), Extension.EVEN), matrix)
        exact = closed_form_gaussian(x, 0.8)
        err = np.max(np.abs(out[:64] - exact))
        assert err < 3 * 1.4351e-6

    def test_imaginary_part_diagnostic(self, rng):
        cfg = GridConfig(16, 1.0)
        matrix = build_matrix(cfg, 0.5, 100)
        u = extend(rng.standard_normal(16), Extension.EVEN)
        diag = {}
        out = fractional_laplacian(u, matrix, diagnostics=diag)
        assert out.dtype == np.float64
        assert diag["max_imag"] < 1e-10 * max(1.0, np.max(np.abs(out)))

    def test_fused_operator_agrees(self, rng):
        # the folded n x n operator on the physical samples of an even function
        cfg = GridConfig(16, 2.5)
        for alpha in (0.5, 1.0, 1.3):
            matrix = build_matrix(cfg, alpha, 150)
            fused = fused_sample_operator(matrix)
            assert fused.shape == (16, 16) and fused.dtype == np.float64
            u = rng.standard_normal(16)
            direct = fractional_laplacian(extend(u, Extension.EVEN), matrix, threshold=0.0)
            assert np.max(np.abs(fused @ u - direct[:16])) < 1e-12

    def test_fused_operator_rejects_odd_extension(self):
        cfg = GridConfig(8, 1.0, extension=Extension.ODD)
        with pytest.raises(ValueError):
            fused_sample_operator(build_matrix(cfg, 0.5, 50))


class TestCacheFile:
    def test_round_trip_bit_exact(self, small_matrix, tmp_path):
        path = tmp_path / "m.bin"
        save_matrix(small_matrix, path)
        again = load_matrix(path)
        np.testing.assert_array_equal(again.entries, small_matrix.entries)
        assert again.meta.alpha == small_matrix.meta.alpha
        assert again.meta.cfg == small_matrix.meta.cfg
        assert again.meta.l_lim == small_matrix.meta.l_lim

    def test_expectation_mismatch(self, small_matrix, tmp_path):
        path = tmp_path / "m.bin"
        save_matrix(small_matrix, path)
        with pytest.raises(MatrixCacheError):
            load_matrix(path, expect_n=16)
        with pytest.raises(MatrixCacheError):
            load_matrix(path, expect_alpha=0.75)

    def test_corruption_detected(self, small_matrix, tmp_path):
        path = tmp_path / "m.bin"
        save_matrix(small_matrix, path)
        raw = bytearray(path.read_bytes())
        raw[200] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(MatrixCacheError):
            load_matrix(path)

    def test_file_holds_only_the_block(self, small_matrix, tmp_path):
        # 64-byte header, n*(n-1) complex128 entries, 8-byte CRC trailer
        path = tmp_path / "m.bin"
        save_matrix(small_matrix, path)
        assert path.stat().st_size == 8 * 7 * 16 + 72

    def test_version1_file_rejected(self, tmp_path):
        # a well-formed file of the old format: full 2n x 2n payload, valid CRC
        n = 8
        header = struct.pack("<8sIIII3d16x", b"FLAPMAT1", 1, n, 200, 0, 0.5, 1.0, 0.0)
        payload = np.zeros((2 * n, 2 * n), np.complex128).tobytes()
        trailer = struct.pack("<Q", zlib.crc32(payload, zlib.crc32(header)))
        path = tmp_path / "v1.bin"
        path.write_bytes(header + payload + trailer)
        with pytest.raises(MatrixCacheError, match="version 1"):
            load_matrix(path)

    def test_interrupted_save_keeps_old_file(self, small_matrix, tmp_path, monkeypatch):
        path = tmp_path / "m.bin"
        save_matrix(small_matrix, path)
        good = path.read_bytes()

        def fail(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            save_matrix(build_matrix(GridConfig(8, 1.0), 0.7, 50), path)
        assert path.read_bytes() == good
        np.testing.assert_array_equal(load_matrix(path).entries, small_matrix.entries)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00" * 128)
        with pytest.raises(MatrixCacheError):
            load_matrix(path)

    def test_loaded_matrix_applies_identically(self, small_matrix, tmp_path, rng):
        path = tmp_path / "m.bin"
        save_matrix(small_matrix, path)
        loaded = load_matrix(path)
        cfg = GridConfig(8, 1.0)
        vals = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        c = SpectralCoefficients(cfg, vals)
        np.testing.assert_array_equal(apply(loaded, c), apply(small_matrix, c))

    def test_rebuild_has_identical_checksums(self):
        cfg = GridConfig(8, 1.0)
        a = build_matrix(cfg, 0.9, 50)
        b = build_matrix(cfg, 0.9, 50)
        assert column_checksums(a) == column_checksums(b)
