import json
import os
import struct
import zlib

import numpy as np
import pytest

from conftest import (
    cache_file_bytes,
    continued,
    dft_oracle,
    ratio_vector_long_double,
    run_fresh_python,
    two_sided_image,
)
from fraclap import gammaratio
from fraclap.grid import Extension, GridConfig, node_positions, nodes
from fraclap.opmatrix import (
    MatrixCacheError,
    apply,
    apply_sample_operator,
    build_matrix,
    column_checksums,
    fractional_laplacian,
    fused_sample_operator,
    load_matrix,
    save_matrix,
)
from fraclap.oracles import closed_form_gaussian, closed_form_mode2
from fraclap.spectral import transform
from fraclap.symbol import mode_columns, symbol_samples


EVEN8 = GridConfig(8, 1.0)
ODD8 = GridConfig(8, 1.0, extension=Extension.ODD)
SMALL_KEY = {"expect_n": 8, "expect_alpha": 0.5, "expect_l_lim": 200}


@pytest.fixture(scope="module")
def small_matrix():
    return build_matrix(EVEN8, 0.5, 200)


class TestBuildMatrix:
    def test_zero_columns(self, small_matrix):
        c = np.zeros(8)
        c[0] = 1.0
        assert np.all(apply(small_matrix, c, EVEN8) == 0.0)  # constants
        d = np.zeros(8)
        d[7] = 1.0
        assert np.all(apply(small_matrix, d, ODD8) == 0.0)  # k = -n

    def test_conjugation_exact(self, small_matrix):
        # a unit coefficient of mode k picks column k plus its conjugate for -k:
        # 2*Re (even) or 2*Im (odd) of the stored column, exactly
        unit = np.eye(8)
        for k in range(1, 8):
            column = small_matrix.entries[:, k - 1]
            even = apply(small_matrix, unit[k], EVEN8)
            odd = apply(small_matrix, unit[k - 1], ODD8)
            np.testing.assert_array_equal(even, 2.0 * column.real)
            np.testing.assert_array_equal(odd, 2.0 * column.imag)

    def test_columns_are_mode_symbols(self, small_matrix):
        # the batched (many-column) reduction against the one-column one
        for k in range(1, 8):
            expected = symbol_samples(0.5, k, 8, 200)
            np.testing.assert_allclose(small_matrix.entries[:, k - 1], expected, atol=1e-15)
        for alpha in (1.0, 1.5):
            matrix = build_matrix(EVEN8, alpha, 200)
            for k in range(1, 8):
                expected = symbol_samples(alpha, k, 8, 200)
                bound = 1e-14 * np.max(np.abs(expected))
                assert np.max(np.abs(matrix.entries[:, k - 1] - expected)) <= bound

    def test_alpha_range_checked(self):
        with pytest.raises(ValueError):
            build_matrix(GridConfig(4, 1.0), 2.0, 10)

    def test_blas_thread_count_does_not_change_entries(self):
        script = (
            "import json; from fraclap.grid import GridConfig; "
            "from fraclap.opmatrix import build_matrix, column_checksums; "
            "print(json.dumps([column_checksums(build_matrix(GridConfig(128, 1.0), a, 500)) "
            "for a in (0.5, 1.0, 1.95)]))"
        )
        checksums = [json.loads(run_fresh_python(script, threads)) for threads in ("1", "2")]
        assert checksums[0] == checksums[1]

    @pytest.mark.parametrize("alpha", [0.3, 1.5, 1.95])
    def test_float64_table_tail_leaves_entries_unchanged(self, alpha, monkeypatch):
        # the tail entries enter each sum far below the last bit of its total
        def both(build):
            new = build()
            with monkeypatch.context() as patch:
                patch.setattr(gammaratio, "_ratio_vector", ratio_vector_long_double)
                return build(), new

        a, b = (-1.0 + alpha) / 2.0, (3.0 - alpha) / 2.0  # the swap does change the tables
        tail = gammaratio._ratio_vector(a, b, 10**5)
        assert not np.array_equal(tail, ratio_vector_long_double(a, b, 10**5))
        old, new = both(lambda: build_matrix(GridConfig(128, 1.0), alpha, 500).entries)
        np.testing.assert_array_equal(new, old)
        old, new = both(lambda: mode_columns(1024, alpha, 500, [2]))
        np.testing.assert_array_equal(new, old)

    def test_mode2_delta_reproduces_closed_form(self):
        cfg = GridConfig(4, 1.0)
        matrix = build_matrix(cfg, 0.5, 530)
        exact = closed_form_mode2(nodes(cfg), 0.5)
        assert np.max(np.abs(matrix.entries[:, 1] - exact)) < 5.1e-13

    def test_alpha_one_mode2(self):
        # the unit-scale column 2*sin^2*exp(2is); applied at L = 2 it carries 1/L
        cfg = GridConfig(8, 2.0)
        matrix = build_matrix(cfg, 1.0, 50)
        s = nodes(cfg)
        column = 2 * np.sin(s) ** 2 * np.exp(2j * s)
        np.testing.assert_allclose(matrix.entries[:, 1], column, atol=1e-13)
        unit = np.eye(8)
        odd = GridConfig(8, 2.0, extension=Extension.ODD)
        np.testing.assert_allclose(apply(matrix, unit[2], cfg), column.real, atol=1e-13)
        np.testing.assert_allclose(apply(matrix, unit[1], odd), column.imag, atol=1e-13)


class TestApply:
    def test_zero_coefficients(self, small_matrix):
        for cfg in (EVEN8, ODD8):
            assert np.all(apply(small_matrix, np.zeros(8), cfg) == 0.0)

    def test_linearity(self, small_matrix, rng):
        v1 = rng.standard_normal(8)
        v2 = rng.standard_normal(8)
        a, b = 1.7, -0.3
        for cfg in (EVEN8, ODD8):
            lhs = apply(small_matrix, a * v1 + b * v2, cfg)
            rhs = a * apply(small_matrix, v1, cfg) + b * apply(small_matrix, v2, cfg)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_grid_mismatch(self, small_matrix):
        # coefficients of a grid with another n, or a grid with another n
        with pytest.raises(ValueError):
            apply(small_matrix, np.zeros(16), EVEN8)
        with pytest.raises(ValueError, match="grid has n = 16"):
            apply(small_matrix, np.zeros(16), GridConfig(16, 1.0))
        with pytest.raises(ValueError, match="grid has n = 16"):
            fused_sample_operator(small_matrix, GridConfig(16, 1.0))

    def test_extension_not_part_of_match(self, small_matrix):
        # a matrix built on an even grid applies to odd coefficients as well
        out = apply(small_matrix, np.zeros(8), ODD8)
        assert out.shape == (8,) and np.all(out == 0.0)


class TestFractionalLaplacian:
    def test_is_transform_then_apply(self, small_matrix, rng):
        # one path: the samples' real transform, then the matrix, bit for bit
        u = rng.standard_normal(8)
        for cfg in (EVEN8, ODD8):
            np.testing.assert_array_equal(
                fractional_laplacian(u, small_matrix, cfg),
                apply(small_matrix, transform(u, cfg.extension), cfg),
            )

    def test_constant_maps_to_zero(self, small_matrix):
        out = fractional_laplacian(np.ones(8), small_matrix, EVEN8)
        assert np.all(out == 0.0)

    def test_gaussian_best_scale(self):
        # near the optimum of the scale sweep the node error is ~4e-13
        cfg = GridConfig(64, 4.6)
        matrix = build_matrix(cfg, 0.5, 500)
        x = node_positions(cfg)
        out = fractional_laplacian(np.exp(-x * x), matrix, cfg)
        exact = closed_form_gaussian(x, 0.5)
        assert np.max(np.abs(out - exact)) < 5e-12

    def test_gaussian_unit_scale_matches_reported_accuracy(self):
        # single-alpha spot check of the N=64, L=1 accuracy level (~1.4e-6)
        cfg = GridConfig(64, 1.0)
        matrix = build_matrix(cfg, 0.8, 500)
        x = node_positions(cfg)
        out = fractional_laplacian(np.exp(-x * x), matrix, cfg)
        exact = closed_form_gaussian(x, 0.8)
        err = np.max(np.abs(out - exact))
        assert err < 3 * 1.4351e-6

    def test_imaginary_part_diagnostic(self, rng):
        # the two-sided complex sum over +-k of continued real data is real up
        # to round-off: the real apply drops nothing
        cfg = GridConfig(16, 1.0)
        matrix = build_matrix(cfg, 0.5, 100)
        u = rng.standard_normal(16)
        out = fractional_laplacian(u, matrix, cfg)
        assert out.dtype == np.float64
        for parity in ("even", "odd"):
            full = two_sided_image(matrix.entries, dft_oracle(continued(u, parity)))
            assert np.max(np.abs(full.imag)) < 1e-10 * max(1.0, np.max(np.abs(out)))

    def test_fused_operator_agrees(self, rng):
        # the parity blocks on the physical samples of an even function
        cfg = GridConfig(16, 2.5)
        for alpha in (0.5, 1.0, 1.3):
            matrix = build_matrix(cfg, alpha, 150)
            blocks = fused_sample_operator(matrix, cfg)
            assert blocks.shape == (2, 8, 8) and blocks.dtype == np.float64
            u = rng.standard_normal(16)
            direct = apply(matrix, transform(u, Extension.EVEN), cfg)
            assert np.max(np.abs(apply_sample_operator(blocks, u) - direct)) < 1e-12

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.95])
    @pytest.mark.parametrize("n", [2, 16, 512])
    def test_blocks_match_full_fold(self, n, alpha):
        # column by column against the n x n fold 2*Re(B) @ cos(outer(k, s))/n
        # at L = 50; n = 2 has no even mode, so its even block is zero
        cfg = GridConfig(n, 50.0)
        matrix = build_matrix(cfg, alpha, 20)
        k, s = np.arange(1, n), nodes(cfg)
        fold = 2.0 * matrix.entries.real @ np.cos(np.outer(k, s)) / n * 50.0**-alpha
        blocks = fused_sample_operator(matrix, cfg)
        image = np.stack([apply_sample_operator(blocks, e) for e in np.eye(n)], axis=1)
        assert np.max(np.abs(image - fold)) <= 1e-12 * np.max(np.abs(fold))

    def test_fused_operator_rejects_odd_extension(self):
        with pytest.raises(ValueError, match="even-extension"):
            fused_sample_operator(build_matrix(ODD8, 0.5, 50), ODD8)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_one_block_serves_every_map(self, alpha):
        # one unit-scale block, applied at L = 4.6 with two shifts and both
        # parities, against the Gaussian closed form at the nodes
        matrix = build_matrix(GridConfig(128, 1.0), alpha, 500)
        for x_center in (0.0, 0.3):
            for ext in Extension:
                cfg = GridConfig(128, 4.6, x_center, ext)
                x = node_positions(cfg)
                out = fractional_laplacian(np.exp(-x * x), matrix, cfg)
                assert np.max(np.abs(out - closed_form_gaussian(x, alpha))) <= 1e-13


class TestCacheFile:
    def test_round_trip_bit_exact(self, small_matrix, tmp_path):
        path = tmp_path / "m.bin"
        save_matrix(small_matrix, path)
        again = load_matrix(path, **SMALL_KEY)
        np.testing.assert_array_equal(again.entries, small_matrix.entries)
        assert again.meta == small_matrix.meta

    def test_expectation_mismatch(self, small_matrix, tmp_path):
        # each of n, alpha (to the last bit) and l_lim on its own
        path = tmp_path / "m.bin"
        save_matrix(small_matrix, path)
        for name, wrong in (("n", 16), ("alpha", 0.5000000000000001), ("l_lim", 199)):
            with pytest.raises(MatrixCacheError, match=f"cache has {name} = "):
                load_matrix(path, **{**SMALL_KEY, f"expect_{name}": wrong})

    def test_corruption_detected(self, small_matrix, tmp_path):
        path = tmp_path / "m.bin"
        save_matrix(small_matrix, path)
        raw = bytearray(path.read_bytes())
        raw[200] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(MatrixCacheError):
            load_matrix(path, **SMALL_KEY)

    def test_file_holds_only_the_block(self, small_matrix, tmp_path):
        # 64-byte header, n*(n-1) complex128 entries, 8-byte CRC trailer
        path = tmp_path / "m.bin"
        save_matrix(small_matrix, path)
        assert path.stat().st_size == 8 * 7 * 16 + 72

    def test_version1_file_rejected(self, tmp_path):
        # a well-formed file of the old format: full 2n x 2n payload, valid CRC
        path = tmp_path / "v1.bin"
        path.write_bytes(cache_file_bytes(1, 8, 16 * 16))
        with pytest.raises(MatrixCacheError, match="version 1"):
            load_matrix(path, **SMALL_KEY)

    def test_version2_file_rejected(self, tmp_path):
        # a well-formed file of the format that stored L, x_c and the extension
        header = struct.pack("<8sIIII3d16x", b"FLAPMAT1", 2, 8, 200, 0, 0.5, 1.0, 0.0)
        payload = np.zeros(8 * 7, np.complex128).tobytes()
        crc = struct.pack("<Q", zlib.crc32(payload, zlib.crc32(header)))
        path = tmp_path / "v2.bin"
        path.write_bytes(header + payload + crc)
        with pytest.raises(MatrixCacheError, match="version 2"):
            load_matrix(path, **SMALL_KEY)

    @pytest.mark.parametrize(
        "n, alpha", [(0, 0.5), (3, 0.5), (8, 2.0)], ids=["n0", "n3", "alpha2"]
    )
    def test_invalid_header_field_rejected(self, tmp_path, n, alpha):
        # version 3, valid CRC, an n*(n-1) payload and a header that matches
        # the expectations: only the field is invalid
        path = tmp_path / "bad.bin"
        path.write_bytes(cache_file_bytes(3, n, n * (n - 1), alpha=alpha))
        with pytest.raises(MatrixCacheError, match="invalid header"):
            load_matrix(path, expect_n=n, expect_alpha=alpha, expect_l_lim=200)

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
        np.testing.assert_array_equal(load_matrix(path, **SMALL_KEY).entries, small_matrix.entries)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00" * 128)
        with pytest.raises(MatrixCacheError):
            load_matrix(path, **SMALL_KEY)

    def test_loaded_matrix_applies_identically(self, small_matrix, tmp_path, rng):
        path = tmp_path / "m.bin"
        save_matrix(small_matrix, path)
        loaded = load_matrix(path, **SMALL_KEY)
        c = rng.standard_normal(8)
        for cfg in (EVEN8, ODD8, GridConfig(8, 3.7, 0.2)):
            np.testing.assert_array_equal(apply(loaded, c, cfg), apply(small_matrix, c, cfg))

    def test_rebuild_has_identical_checksums(self):
        cfg = GridConfig(8, 1.0)
        a = build_matrix(cfg, 0.9, 50)
        b = build_matrix(cfg, 0.9, 50)
        assert column_checksums(a) == column_checksums(b)
