import os
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from conftest import (
    alpha_one_even_images,
    cache_file_bytes,
    continued,
    dft_oracle,
    even_mode_images,
    odd_ratio_args,
    two_sided_image,
)
from fraclap import gammaratio, symbol
from fraclap.grid import Extension, GridConfig, node_positions, nodes
from fraclap.opmatrix import (
    MatrixCacheError,
    MatrixFormatError,
    MatrixMeta,
    apply,
    apply_sample_operator,
    build_matrix,
    column_checksums,
    fractional_laplacian,
    fused_sample_operator,
    join_parity,
    load_matrix,
    save_matrix,
    split_parity,
)
from fraclap.oracles import closed_form_gaussian, closed_form_mode2
from fraclap.spectral import transform
from fraclap.symbol import blas_thread_setter, odd_mode_columns, symbol_samples


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
        # odd columns: the series kernel's odd block, bit for bit;
        # even columns: the closed form, against mpmath
        for alpha in (0.5, 1.0, 1.5):
            matrix = small_matrix if alpha == 0.5 else build_matrix(EVEN8, alpha, 200)
            odd = odd_mode_columns(8, alpha, 200)
            np.testing.assert_array_equal(matrix.entries[:, 0::2], odd)
            ref = even_mode_images(8, alpha)
            err = np.max(np.abs(matrix.entries[:, 1::2] - ref), axis=0)
            assert np.all(err <= 5e-14 * np.max(np.abs(ref), axis=0))

    def test_even_columns_build_no_even_table(self, monkeypatch):
        # the closed form reads no ratio vector: the odd block requests the only two, A and C
        asked = []

        def recording(a, b, length, start=0):
            asked.append((a, b))
            return gammaratio.ratio_vector(a, b, length, start=start)

        monkeypatch.setattr(symbol, "ratio_vector", recording)
        build_matrix(GridConfig(16, 1.0), 0.5, 20)
        assert asked == list(odd_ratio_args(0.5))

    def test_alpha_range_checked(self):
        with pytest.raises(ValueError):
            build_matrix(GridConfig(4, 1.0), 2.0, 10)

    def test_blas_thread_count_does_not_change_entries(self, thread_count_runs):
        # column CRCs of full builds at n = 128, l_lim = 500, alpha = 0.5, 1.0, 1.95
        assert thread_count_runs["1"]["entries"] == thread_count_runs["2"]["entries"]

    def test_blas_thread_count_does_not_change_single_columns(self, thread_count_runs):
        # the k = 2 column, and the odd block at sizes past the full builds' n = 128
        # and at n = 130, whose last block of nodes holds 2
        runs = thread_count_runs
        assert runs["1"]["single_columns"] == runs["2"]["single_columns"]

    def test_build_restores_the_blas_thread_count(self, thread_count_runs):
        # the products run pinned to one thread; the caller's count comes back
        if blas_thread_setter() is None:
            pytest.skip("numpy is not linked to an OpenBLAS with a thread-count setter")
        assert {k: run["restored"] for k, run in thread_count_runs.items()} == {"1": 1, "2": 2}

    # the whole-block pins keep the ids they had before the even prefactor
    # was formed in real arithmetic, so the test ids stay the same: the id
    # carries the earlier CRC, the pin the current one
    @pytest.mark.parametrize("alpha,crc", [
        pytest.param(0.3, 0x93A67276, id="0.3-2996224343"),
        pytest.param(1.0, 0x03EAFE41, id="1.0-845730680"),
        pytest.param(1.7, 0xCB02BCDA, id="1.7-2109693817"),
    ])
    def test_entries_are_pinned(self, alpha, crc):
        # any change to the kernel's arithmetic or summation order moves these
        entries = build_matrix(GridConfig(16, 1.0), alpha, 40).entries
        assert zlib.crc32(entries.tobytes()) == crc

    # here and in the two edge tests below, a pin at l_lim = 500 keeps the id
    # it had when the plan summed 97 Euler-weighted rows (here also before
    # the even prefactor moved), so the test ids stay the same: the id
    # carries the earlier CRC, the pin the current one
    @pytest.mark.parametrize("n,alpha,crc", [
        pytest.param(128, 0.3, 0x21EC5994, id="128-0.3-3053397618"),
        pytest.param(128, 1.0, 0x075879BA, id="128-1.0-672786634"),
        pytest.param(128, 1.7, 0xB53E2D13, id="128-1.7-226793850"),
        pytest.param(512, 1.95, 0x1ECC1DD8, id="512-1.95-314210185"),
    ])
    def test_multi_block_builds_are_pinned(self, n, alpha, crc):
        # several node blocks per product; n = 512 is the fisher-front block
        entries = build_matrix(GridConfig(n, 1.0), alpha, 500).entries
        assert zlib.crc32(entries.tobytes()) == crc

    def test_single_column_is_pinned(self):
        assert zlib.crc32(symbol_samples(0.45, 64, 30).tobytes()) == 0x10316464

    @pytest.mark.parametrize("alpha,crc", [
        (0.05, 0xE687F569), (0.5, 0x967B8CF5), (1.95, 0x5CD62DA8),
    ])
    def test_mode2_scan_column_is_pinned(self, alpha, crc):
        # criterion 1's column, one column wide, summed from its rational terms
        assert zlib.crc32(symbol_samples(alpha, 1024, 500).tobytes()) == crc

    @pytest.mark.parametrize("n,alpha,l_lim,k,crc", [
        # odd columns at alpha = 1, where vec_a starts with the pole A(0)
        (1024, 1.0, 500, 1, 0x56B35443),
        pytest.param(1024, 1.0, 500, 3, 0xBA066582, id="1024-1.0-500-3-835219755"),
        pytest.param(1024, 1.0, 500, 1023, 0xE2F0033F, id="1024-1.0-500-1023-902274216"),
        # l_lim around one 32-row chunk of the k = 2 sums at n = 1024
        (1024, 0.5, 0, 2, 0xF7A84EA4), (1024, 0.5, 1, 2, 0x6D90983E),
        (1024, 0.5, 31, 2, 0x2B6AF6EC), (1024, 0.5, 32, 2, 0xDE17FD4D),
        (1024, 0.5, 33, 2, 0xB323E7D8),
        # n = 4: one chunk holds more rows than l_lim; the odd block is two
        # columns wide
        pytest.param(4, 0.45, 500, 1, 0x2AEB2D42, id="4-0.45-500-1-2928692525"),
        pytest.param(4, 0.45, 500, 2, 0x0AD4EF13, id="4-0.45-500-2-1951539189"),
        pytest.param(4, 0.45, 500, 3, 0x15114711, id="4-0.45-500-3-280024942"),
    ])
    def test_single_column_edges_are_pinned(self, n, alpha, l_lim, k, crc):
        # k = 2 is the one column the series forms alone; an odd k is read
        # from the odd block
        if k == 2:
            column = symbol_samples(alpha, n, l_lim)
        else:
            column = odd_mode_columns(n, alpha, l_lim)[:, k // 2]
        assert zlib.crc32(column.tobytes()) == crc

    @pytest.mark.parametrize("n,alpha,l_lim,crc", [
        # alpha = 1, where vec_a starts with the pole A(0)
        pytest.param(1024, 1.0, 500, 0x2451F4C0, id="1024-1.0-500-3075539632"),
        # n = 4: a window two columns wide; l_lim = 0 and 1: the l1 = 0 row
        # alone, and one row pair with it
        pytest.param(4, 0.45, 500, 0x912667D0, id="4-0.45-500-3037300672"),
        pytest.param(4, 1.0, 500, 0x1151046B, id="4-1.0-500-2012882903"),
        (1024, 1.3, 0, 0xE5279C5E), (1024, 1.3, 1, 0x9A8038DD),
    ])
    def test_odd_block_edges_are_pinned(self, n, alpha, l_lim, crc):
        assert zlib.crc32(odd_mode_columns(n, alpha, l_lim).tobytes()) == crc

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.95])
    @pytest.mark.parametrize("n", [16, 128])
    def test_block_is_reflection_symmetric(self, n, alpha):
        # s -> pi - s maps exp(i*k*s) to (-1)^k*conj(exp(i*k*s)) and commutes
        # with the operator, so row n-1-j is (-1)^k*conj(row j) (measured
        # <= 7.6e-15, the odd columns at alpha = 0.3)
        entries = build_matrix(GridConfig(n, 1.0), alpha, 40).entries
        mirror = (-1.0) ** np.arange(1, n) * np.conj(entries)
        err = np.max(np.abs(entries[::-1] - mirror), axis=0) / np.max(np.abs(entries), axis=0)
        assert err.max() <= 2e-14

    def test_mode2_delta_reproduces_closed_form(self):
        cfg = GridConfig(4, 1.0)
        matrix = build_matrix(cfg, 0.5, 530)
        exact = closed_form_mode2(nodes(cfg), 0.5)
        assert np.max(np.abs(matrix.entries[:, 1] - exact)) < 5.1e-13

    def test_alpha_one_mode2(self):
        # the unit-scale column 2*sin^2*exp(2is); applied at L = 2 it carries 1/L
        cfg = GridConfig(8, 2.0)
        matrix = build_matrix(cfg, 1.0, 50)
        column = alpha_one_even_images(8, [2])[:, 0]
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

    @pytest.mark.parametrize("n", [2, 16, 512])
    def test_fused_blocks_start_on_a_cache_line(self, n):
        cfg = GridConfig(n, 50.0)
        blocks = fused_sample_operator(build_matrix(cfg, 1.95, 20), cfg)
        assert blocks.flags.c_contiguous and blocks.ctypes.data % 64 == 0

    def test_fused_operator_rejects_odd_extension(self):
        with pytest.raises(ValueError, match="even-extension"):
            fused_sample_operator(build_matrix(ODD8, 0.5, 50), ODD8)

    @pytest.mark.parametrize("n", [16, 512])
    def test_sample_operator_is_the_halved_block_images(self, n, rng):
        # bit for bit the halved sum and difference of the two block images,
        # written out on the halves v and w reversed
        cfg = GridConfig(n, 1000.0 / 1.95**3)
        blocks = fused_sample_operator(build_matrix(cfg, 1.95, 40), cfg)
        half = n // 2
        for u in (rng.standard_normal(n), 0.5 - 0.5 * np.tanh(node_positions(cfg) / 50.0)):
            v, w = u[:half], u[half:][::-1]
            y_even, y_odd = blocks[0] @ (v + w), blocks[1] @ (v - w)
            expected = 0.5 * np.concatenate((y_even + y_odd, (y_even - y_odd)[::-1]))
            assert np.array_equal(apply_sample_operator(blocks, u), expected)

    @pytest.mark.parametrize("n", [2, 16, 512])
    def test_parity_join_inverts_split(self, n, rng):
        # ((v + w) + (v - w))/2 rounds twice: within 2 ulp of the larger of
        # each node's value and its mirror's
        u = rng.standard_normal(n) * np.exp(rng.uniform(-30.0, 30.0, n))
        p = split_parity(u)
        assert p.shape == (2, n // 2)
        assert np.array_equal(p[0], u[: n // 2] + u[n // 2 :][::-1])
        assert np.array_equal(p[1], u[: n // 2] - u[n // 2 :][::-1])
        scale = np.maximum(np.abs(u), np.abs(u[::-1]))
        assert np.all(np.abs(join_parity(p) - u) <= 2.0 * np.spacing(scale))

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


class TestMatrixMeta:
    @pytest.mark.parametrize("n, l_lim", [(4.0, 2), (4, 2.5), (4, True)], ids=["float-n", "float-l_lim", "bool-l_lim"])
    def test_non_integer_field_rejected(self, n, l_lim):
        with pytest.raises(TypeError, match="must be an integer"):
            MatrixMeta(alpha=1.0, n=n, l_lim=l_lim)


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

    def test_version3_file_is_a_format_error(self, tmp_path):
        # an intact file of a format with series even columns (3), every odd
        # row summed (4), the 97-row Euler plan (5) or the even prefactor as
        # a complex power (6): stale, not corrupt (one test id for the four
        # versions)
        for version in (3, 4, 5, 6):
            path = tmp_path / f"v{version}.bin"
            path.write_bytes(cache_file_bytes(version, 8, 8 * 7))
            with pytest.raises(MatrixFormatError, match=f"version {version}"):
                load_matrix(path, **SMALL_KEY)

    def test_short_payload_of_the_current_version_is_a_cache_error(self, tmp_path):
        # version 7, valid CRC, a matching header and one entry too few:
        # damaged, not stale, so nothing may rebuild over it
        path = tmp_path / "short.bin"
        path.write_bytes(cache_file_bytes(7, 8, 8 * 7 - 1))
        with pytest.raises(MatrixCacheError, match="payload size does not match n = 8") as caught:
            load_matrix(path, **SMALL_KEY)
        assert not isinstance(caught.value, MatrixFormatError)

    def test_corrupt_old_version_is_not_a_format_error(self, tmp_path):
        path = tmp_path / "v3.bin"
        raw = bytearray(cache_file_bytes(3, 8, 8 * 7))
        raw[100] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(MatrixCacheError, match="checksum") as caught:
            load_matrix(path, **SMALL_KEY)
        assert not isinstance(caught.value, MatrixFormatError)

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
        assert list(tmp_path.iterdir()) == [path]  # the failed save's temporary is gone

    def test_nested_save_to_one_path_writes_its_own_temporary(self, small_matrix, tmp_path,
                                                               monkeypatch):
        # a save of another block to the same path runs just before the first
        # save's rename; with one shared <path>.tmp it truncated the first
        # save's finished file, whose rename then raised FileNotFoundError
        path = tmp_path / "m.bin"
        replace = os.replace

        def nested_save_then_replace(src, dst):
            monkeypatch.setattr(os, "replace", replace)
            save_matrix(build_matrix(GridConfig(8, 1.0), 0.7, 50), path)
            replace(src, dst)

        monkeypatch.setattr(os, "replace", nested_save_then_replace)
        save_matrix(small_matrix, path)
        np.testing.assert_array_equal(load_matrix(path, **SMALL_KEY).entries, small_matrix.entries)
        assert list(tmp_path.iterdir()) == [path]

    def test_file_is_header_entries_and_crc(self, small_matrix, tmp_path):
        path = tmp_path / "m.bin"
        save_matrix(small_matrix, path)
        raw = path.read_bytes()
        payload = small_matrix.entries.tobytes()
        assert raw[64:-8] == payload
        assert struct.unpack("<Q", raw[-8:])[0] == zlib.crc32(payload, zlib.crc32(raw[:64]))

    def test_save_copies_no_payload(self, tmp_path):
        # the CRC and the write read the entries' own buffer; a payload copy
        # would take the whole 260 KB at n = 128
        matrix = build_matrix(GridConfig(128, 1.0), 0.5, 20)
        tracemalloc.start()
        try:
            save_matrix(matrix, tmp_path / "m.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < matrix.entries.nbytes / 4

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
