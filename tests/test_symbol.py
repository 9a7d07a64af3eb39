import platform
import tracemalloc
import zlib

import numpy as np
import pytest

from conftest import (
    a_coeff,
    alpha_one_even_images,
    b_coeff,
    even_mode_images,
    gamma_ratio_ref,
    mode2_chunk_errors,
    odd_mode_images,
    odd_ratio_args,
    run_fresh_python,
)
from fraclap.gammaratio import ratio_vector
from fraclap.grid import Extension, GridConfig, nodes
from fraclap.opmatrix import apply, build_matrix
from fraclap.oracles import closed_form_mode1, closed_form_mode2, quadrature_fraclap, test_function
from fraclap import symbol
from fraclap.symbol import even_mode_columns, fractional_constant, odd_mode_columns, symbol_samples


def _odd_vectors(alpha, n, l_lim):
    """vec_a and vec_c at alpha with (l_lim + 2)*n entries each: every index of the truncated sums."""
    return tuple(ratio_vector(a, b, (l_lim + 2) * n) for a, b in odd_ratio_args(alpha))


class TestFractionalConstant:
    def test_positive_on_range(self):
        for alpha in np.arange(0.05, 2.0, 0.05):
            assert fractional_constant(float(alpha)) > 0.0

    def test_alpha_one_is_inverse_pi(self):
        assert fractional_constant(1.0) == pytest.approx(1.0 / np.pi, rel=1e-13)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            fractional_constant(2.0)


class TestACoeff:
    def test_central_index_arithmetic(self):
        # l1 = 0, l2 = k/2 lands on index 0 of the even-mode vector and the
        # polynomial factor collapses to -(1+alpha)*k^2
        alpha, n, k = 0.5, 8, 4
        vecs = _odd_vectors(alpha, n, 6)
        got = a_coeff(k, 0, k // 2, *vecs, alpha, n)
        b0 = gamma_ratio_ref((-1.0 - alpha) / 2.0, (3.0 + alpha) / 2.0)
        expected = -(1.0 + alpha) * k * k * vecs[0][k // 2] * b0
        assert got == pytest.approx(expected, rel=1e-15)

    def test_matches_log_gamma_formula(self):
        alpha, n = 0.5, 8
        vecs = _odd_vectors(alpha, n, 6)
        for k, l1, l2 in [(2, 0, 0), (2, 3, -2), (6, -2, 3)]:
            l = l1 * n + l2
            expected = (
                (-1.0) ** l1
                * ((1 - alpha) * k * k - 4 * k * l)
                * gamma_ratio_ref((-1 + alpha) / 2 + abs(l), (3 - alpha) / 2 + abs(l))
                * gamma_ratio_ref(
                    (-1 - alpha) / 2 + abs(k / 2 - l), (3 + alpha) / 2 + abs(k / 2 - l)
                )
            )
            assert a_coeff(k, l1, l2, *vecs, alpha, n) == pytest.approx(expected, rel=1e-12)

    def test_odd_mode_sign_factor(self):
        alpha, n = 0.75, 8
        vecs = _odd_vectors(alpha, n, 6)
        for k, l1, l2 in [(3, 0, 0), (3, 0, 2), (5, -1, 1)]:
            l = l1 * n + l2
            h = k / 2 - l
            expected = (
                (-1.0) ** l1
                * ((1 - alpha) * k * k - 4 * k * l)
                * np.sign(h)
                * gamma_ratio_ref((-1 + alpha) / 2 + abs(l), (3 - alpha) / 2 + abs(l))
                * gamma_ratio_ref((-1 - alpha) / 2 + abs(h), (3 + alpha) / 2 + abs(h))
            )
            assert a_coeff(k, l1, l2, *vecs, alpha, n) == pytest.approx(expected, rel=1e-12)

    def test_out_of_range_index(self):
        vecs = _odd_vectors(0.5, 8, 2)
        with pytest.raises(IndexError):
            a_coeff(2, 100, 0, *vecs, 0.5, 8)


class TestBCoeff:
    def test_zero_at_origin(self):
        assert b_coeff(1, 0, 0, 8) == 0.0

    def test_hand_checked_value(self):
        # k=1, l=1: 4*sgn(1)/((1-2)((1-2)^2-4)) = 4/((-1)(-3)) = 4/3
        assert b_coeff(1, 0, 1, 8) == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_cubic_decay(self):
        n = 8
        vals = [abs(b_coeff(1, l1, 0, n)) for l1 in (10, 20, 40)]
        # halving |l| scales the term by ~1/8
        assert vals[0] / vals[1] == pytest.approx(8.0, rel=0.3)
        assert vals[1] / vals[2] == pytest.approx(8.0, rel=0.3)

    def test_even_k_rejected(self):
        with pytest.raises(ValueError):
            b_coeff(2, 0, 0, 8)


class TestSymbolSamples:
    def test_grid_without_mode_two_rejected(self):
        # k = 2 is a column only for n >= 4 (k <= n - 1)
        with pytest.raises(ValueError, match="at least 4"):
            symbol_samples(0.5, 2, 10)

    def test_non_integer_l_lim_rejected(self):
        # alpha = 1 reads no l_lim, but a bad one is refused there too
        with pytest.raises(TypeError):
            symbol_samples(1.0, 8, 2.5)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            symbol_samples(2.0, 8, 10)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_odd_n_rejected(self, alpha):
        # the l2 range {-n/2, ..., n/2-1} needs an even node count
        with pytest.raises(ValueError, match="even integer"):
            symbol_samples(alpha, 7, 10)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_negative_l_lim_rejected(self, alpha):
        # alpha = 1 builds no gamma tables, so the kernel checks l_lim itself
        with pytest.raises(ValueError, match="l_lim"):
            symbol_samples(alpha, 8, -1)

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.95, 1.05, 1.5, 1.95])
    def test_mode2_closed_form_small_grid(self, alpha):
        cfg = GridConfig(4, 1.0)
        numeric = symbol_samples(alpha, cfg.n, 530)
        exact = closed_form_mode2(nodes(cfg), alpha)
        assert np.max(np.abs(numeric - exact)) < 1e-12

    def test_mode2_closed_form_other_scale(self):
        # the unit-scale mode-2 column, applied at L = 2.5: 2*Re (even), 2*Im (odd)
        even = GridConfig(8, 2.5)
        odd = GridConfig(8, 2.5, extension=Extension.ODD)
        matrix = build_matrix(even, 0.7, 400)
        exact = closed_form_mode2(nodes(even), 0.7) / 2.5**0.7
        unit = np.eye(8)
        assert np.max(np.abs(apply(matrix, unit[2], even) - 2.0 * exact.real)) < 2e-12
        assert np.max(np.abs(apply(matrix, unit[1], odd) - 2.0 * exact.imag)) < 2e-12

    @pytest.mark.parametrize("k", [2, 4, 6, 14])
    def test_alpha_one_even_modes_exact(self, k):
        # k = 2 alone, every other even k as a column of the block
        if k == 2:
            numeric = symbol_samples(1.0, 16, 0)
        else:
            numeric = even_mode_columns(16, 1.0)[:, k // 2 - 1]
        exact = alpha_one_even_images(16, [k])[:, 0]
        assert np.max(np.abs(numeric - exact)) < 1e-13

    def test_alpha_one_odd_mode_vs_quadrature(self):
        cfg = GridConfig(16, 1.0)
        s = nodes(cfg)
        numeric = odd_mode_columns(cfg.n, 1.0, 500)[:, 1]  # k = 3
        f = test_function("mode_k", k=3)
        for j in (0, 2, 9):
            x = np.cos(s[j]) / np.sin(s[j])
            assert numeric[j] == pytest.approx(quadrature_fraclap(f, x, 1.0), abs=1e-8)

    def test_fractional_odd_mode_vs_quadrature(self):
        cfg = GridConfig(16, 1.0)
        s = nodes(cfg)
        numeric = odd_mode_columns(cfg.n, 0.5, 500)[:, 1]  # k = 3
        f = test_function("mode_k", k=3)
        for j in (1, 5):
            x = np.cos(s[j]) / np.sin(s[j])
            assert numeric[j] == pytest.approx(quadrature_fraclap(f, x, 0.5), abs=1e-8)

    @pytest.mark.parametrize("alpha,k", [(0.5, 2), (0.7, 3)])
    def test_node_extension_matches_direct_evaluation(self, alpha, k):
        # recompute the l2 series independently at every node (no symmetry),
        # and at s_j + pi: the same point x_j, so the same value as row j.
        # k = 2 is the column alone, k = 3 a column of the odd block
        n, l_lim = 8, 150
        cfg = GridConfig(n, 1.0)
        vecs = _odd_vectors(alpha, n, l_lim)
        sums = np.zeros(n)
        l2s = np.arange(-n // 2, n // 2)
        for i, l2 in enumerate(l2s):
            sums[i] = sum(
                a_coeff(k, l1, int(l2), *vecs, alpha, n) for l1 in range(-l_lim, l_lim + 1)
            )

        def direct(s):
            series = np.array([np.sum(sums * np.exp(2j * l2s * sv)) for sv in s])
            pref = fractional_constant(alpha) * np.abs(np.sin(s)) ** (alpha - 1.0) / 8.0
            if k % 2 == 0:
                return pref / np.tan(np.pi * alpha / 2.0) * series
            return 1j * pref * series

        if k == 2:
            numeric = symbol_samples(alpha, n, l_lim)
        else:
            numeric = odd_mode_columns(n, alpha, l_lim)[:, k // 2]
        s = nodes(cfg)
        assert np.max(np.abs(numeric - direct(s))) < 1e-12
        assert np.max(np.abs(numeric - direct(s + np.pi))) < 1e-12

    def test_truncation_stability(self):
        cfg = GridConfig(128, 1.0)
        exact = closed_form_mode2(nodes(cfg), 0.5)
        errs = {}
        for l_lim in (0, 50, 210, 300):
            numeric = symbol_samples(0.5, cfg.n, l_lim)
            errs[l_lim] = np.max(np.abs(numeric - exact))
        assert errs[0] > errs[50] > errs[210]
        assert abs(errs[210] - errs[300]) < 1e-12

    def test_conjugate_of_symbol_is_negative_mode(self):
        # the operator commutes with conjugation, so conj(symbol(k)) must
        # equal the operator applied to exp(-i*k*s); checked by quadrature
        cfg = GridConfig(8, 1.0)
        s = nodes(cfg)
        numeric = np.conj(odd_mode_columns(cfg.n, 0.6, 400)[:, 1])  # k = 3
        f = test_function("mode_k", k=-3)
        x = np.cos(s[2]) / np.sin(s[2])
        assert numeric[2] == pytest.approx(quadrature_fraclap(f, x, 0.6), abs=1e-8)


def _direct_columns(n, alpha, l_lim, ks):
    """Unit-scale mode columns from scalar terms and an l2 series with exactly reduced phases.

    2*l2*s_j = pi*l2*(2j+1)/n is reduced mod 2*pi in integers before exp,
    so no phase error grows with |l2*(2j+1)|.
    """
    s = nodes(GridConfig(n, 1.0))
    l2s = np.arange(-(n // 2), n // 2)
    phase = np.exp(1j * np.pi * np.mod(np.outer(2 * np.arange(n) + 1, l2s), 2 * n) / n)
    vecs = None if alpha == 1.0 else _odd_vectors(alpha, n, l_lim)
    pref = fractional_constant(alpha) * np.abs(np.sin(s)) ** (alpha - 1.0) / 8.0
    l1s = range(-l_lim, l_lim + 1)
    cols = []
    for k in ks:
        if alpha == 1.0 and k % 2 == 0:
            cols.append(alpha_one_even_images(n, [k])[:, 0])
            continue
        if alpha == 1.0:
            sums = [sum(b_coeff(k, l1, int(l2), n) for l1 in l1s) for l2 in l2s]
        else:
            sums = [sum(a_coeff(k, l1, int(l2), *vecs, alpha, n) for l1 in l1s) for l2 in l2s]
        series = phase @ np.array(sums)
        if alpha == 1.0:
            cols.append(1j * k / np.pi * (-2.0 / (k * k - 4.0) - series))
        elif k % 2 == 0:
            cols.append(pref / np.tan(np.pi * alpha / 2.0) * series)
        else:
            cols.append(1j * pref * series)
    return np.stack(cols, axis=1)


class TestModeColumns:
    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.7])
    @pytest.mark.parametrize("n,ks", [
        (2, [1]), (8, [1, 3, 5, 7, 2]), (64, [*range(1, 64, 2), 2]), (1024, [1, 3, 511, 1023]),
    ])
    def test_matches_direct_sum_with_reduced_phases(self, n, ks, alpha):
        # the odd block's columns ks (at n = 2 a window one column wide; at
        # n = 1024 measured <= 7.6e-14) and, where ks holds it, the k = 2 column
        odd = np.array([k for k in ks if k % 2])
        checks = [(odd_mode_columns(n, alpha, 4)[:, odd // 2], odd)]
        if 2 in ks:
            checks.append((symbol_samples(alpha, n, 4)[:, None], [2]))
        for got, cols in checks:
            ref = _direct_columns(n, alpha, 4, cols)
            err = np.max(np.abs(got - ref), axis=0) / np.max(np.abs(ref), axis=0)
            assert np.all(err <= 1e-13)

    @pytest.mark.parametrize("sums", ["P0+P1"])
    @pytest.mark.parametrize("width", [1, 2, 126, 127, 254, 255])
    @pytest.mark.parametrize("n", [34, 130, 300])
    def test_window_sums_follow_the_band_definition(self, n, width, sums):
        # the window is read from g's columns (n/2 in the odd block); n leaves a
        # partial last block of nodes, the widths run from narrower to wider than
        # a block, and 1 is the odd block's window at n = 2.  Integer entries make
        # every sum exact in any order, so the blocked products must match exactly.
        rng = np.random.default_rng(n + width)
        w = rng.integers(-8, 9, (41, n)).astype(float)
        g = rng.integers(-8, 9, (41, n + width - 1)).astype(float)
        l1 = np.arange(-20.0, 21.0)
        window = g[:, n - 1 - np.arange(n)[:, None] + np.arange(width)]  # [i, j, c] = g[i, n-1-j+c]
        ref = [np.einsum("ij,ijc->jc", w, window), np.einsum("i,ij,ijc->jc", l1, w, window)]
        # the operand buffer and the sums start as NaN, so an entry left unwritten would show
        work = np.full(2 * 41 * symbol._NODE_BLOCK, np.nan)
        out = np.full((2, n, width), np.nan)
        assert symbol._window_sums(w, l1, g, work, out) is out
        np.testing.assert_array_equal(out, np.stack(ref))

    # each odd column's error against odd_mode_images at l_lim = 500,
    # column-relative: the series' l_lim^(-3) tail, k = 1, 3, ..., n-1
    ODD_COLUMN_ERRORS = {
        (16, 0.3): [8.71e-12, 1.2e-11, 1.94e-11, 2.35e-11, 2.88e-11, 3.37e-11, 3.81e-11, 4.33e-11],
        (16, 1.0): [4.97e-12, 3.02e-12, 3.26e-12, 3.16e-12, 3.21e-12, 3.19e-12, 3.2e-12, 3.19e-12],
        (16, 1.7): [5.31e-13, 2.08e-13, 1.44e-13, 1.14e-13, 9.54e-14, 8.28e-14, 7.37e-14, 6.67e-14],
        (32, 0.3): [3.53e-12, 4.83e-12, 7.88e-12, 9.38e-12, 1.17e-11, 1.33e-11, 1.51e-11, 1.68e-11,
                    1.84e-11, 2.01e-11, 2.13e-11, 2.32e-11, 2.43e-11, 2.59e-11, 2.76e-11, 2.93e-11],
        (32, 1.0): [1.24e-12, 7.46e-13, 8.1e-13, 7.82e-13, 7.97e-13, 7.88e-13, 7.94e-13, 7.9e-13,
                    7.93e-13, 7.91e-13, 7.92e-13, 7.91e-13, 7.92e-13, 7.91e-13, 7.92e-13, 7.91e-13],
        (32, 1.7): [8.17e-14, 3.16e-14, 2.2e-14, 1.73e-14, 1.45e-14, 1.26e-14, 1.12e-14, 1.01e-14,
                    9.29e-15, 8.58e-15, 8.01e-15, 7.52e-15, 7.09e-15, 6.72e-15, 6.38e-15, 6.1e-15],
    }

    @pytest.mark.parametrize("n,alpha", list(ODD_COLUMN_ERRORS))
    def test_odd_columns_against_the_exact_images(self, n, alpha):
        # measured figures, not bounds: each column within 2x of its pin either way
        ref = odd_mode_images(n, alpha)
        err = np.max(np.abs(odd_mode_columns(n, alpha, 500) - ref), axis=0) / np.max(np.abs(ref), axis=0)
        pin = np.array(self.ODD_COLUMN_ERRORS[n, alpha])
        assert np.all((err >= pin / 2) & (err <= 2 * pin)), err

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.7])
    def test_exact_odd_images_hold_closed_form_mode1(self, alpha):
        # the oracle's k = 1 column against the two-term closed form (measured <= 1.3e-15)
        ref = closed_form_mode1(nodes(GridConfig(32, 1.0)), alpha)
        assert np.max(np.abs(odd_mode_images(32, alpha)[:, 0] - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.5])
    @pytest.mark.parametrize("n", [32, 64])
    def test_odd_columns_converge_like_l_lim_cubed(self, n, alpha):
        # the differences S_2L - S_L and S_4L - S_2L of the odd columns shrink 8x
        # per doubling of l_lim (measured 7.94-7.95 per column).  The truncation
        # error alternates in sign with the parity of l_lim, so L = 125 reads 10.23.
        s1, s2, s4 = (odd_mode_columns(n, alpha, l_lim) for l_lim in (128, 256, 512))
        ratio = np.max(np.abs(s2 - s1), axis=0) / np.max(np.abs(s4 - s2), axis=0)
        assert np.all((ratio >= 7.9) & (ratio <= 8.0))

    @pytest.mark.parametrize("n", [4, 16, 128, 1024])
    def test_row_plan_matches_the_plain_sum(self, n, monkeypatch):
        # past l_lim = 48 the block sums 65 rows of the CVZ and Euler weights in
        # place of 2*l_lim + 1: the same truncation to round-off, column-relative
        # (measured <= 1.2e-13, at n = 1024, alpha = 0.05, l_lim = 49; the 97
        # rows of the Euler plan read 1.7e-13 at l_lim = 128, where the plain
        # sum itself is 8.6e-14 off the same rows reduced in long double)
        worst = 0.0
        for l_lim in (49, 128, 500):
            for alpha in (0.05, 0.3, 1.0, 1.7, 1.95):
                planned = odd_mode_columns(n, alpha, l_lim)
                with monkeypatch.context() as patch:
                    patch.setattr(symbol, "_row_plan", lambda l_lim: [(l_lim, np.ones(l_lim))])
                    plain = odd_mode_columns(n, alpha, l_lim)
                err = np.max(np.abs(planned - plain), axis=0) / np.max(np.abs(plain), axis=0)
                worst = max(worst, err.max())
        assert worst <= 2e-13

    @pytest.mark.parametrize("n", [4, 16, 128, 1024])
    def test_k2_row_plan_matches_the_plain_sum(self, n, monkeypatch):
        # the k = 2 column sums the same plan: past l_lim = 48 its 32 row pairs
        # are the truncation at l_lim to round-off, column-relative (measured
        # <= 2.3e-16, at n = 4, alpha = 1.3, l_lim = 500, and 0 at n >= 16)
        worst = 0.0
        for l_lim in (49, 64, 128, 500, 1000):
            for alpha in (0.05, 0.3, 0.7, 1.3, 1.7, 1.95):
                planned = symbol_samples(alpha, n, l_lim)
                with monkeypatch.context() as patch:
                    patch.setattr(symbol, "_row_plan", lambda l_lim: [(l_lim, np.ones(l_lim))])
                    plain = symbol_samples(alpha, n, l_lim)
                worst = max(worst, np.max(np.abs(planned - plain)) / np.max(np.abs(plain)))
        assert worst <= 1e-15

    def test_near_run_sums_the_alternating_harmonic_series(self):
        # the CVZ weights alone sum sum_p (-1)^(p-1)/p = ln 2 from 24 pairs
        _, (top, near) = symbol._row_plan(500)
        p = np.arange(top, 0, -1)
        total = np.sum(near * (1.0 - 2.0 * (p % 2 == 0)) / p)
        assert abs(total - np.log(2.0)) <= 4 * np.spacing(np.log(2.0))

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.7])
    @pytest.mark.parametrize("n", [16, 32])
    def test_near_run_is_the_limit(self, n, alpha, monkeypatch):
        # without its tail run the plan sums the whole series: every odd
        # column within 1e-14 of its exact image, column-relative (measured
        # <= 2.7e-15), where the truncation at l_lim = 500 is up to 4.3e-11 off
        plan = symbol._row_plan
        monkeypatch.setattr(symbol, "_row_plan", lambda l_lim: plan(l_lim)[1:])
        ref = odd_mode_images(n, alpha)
        err = np.max(np.abs(odd_mode_columns(n, alpha, 500) - ref), axis=0) / np.max(np.abs(ref), axis=0)
        assert err.max() <= 1e-14

    def test_row_plan_requests_the_same_entries_at_any_l_lim(self, monkeypatch):
        # past l_lim = 48 the vectors a build requests do not grow with l_lim
        asked = []

        def recording(a, b, length, start=0):
            asked.append(length)
            return ratio_vector(a, b, length, start=start)

        monkeypatch.setattr(symbol, "ratio_vector", recording)
        counts = []
        for l_lim in (500, 10**6):
            asked.clear()
            build_matrix(GridConfig(128, 1.0), 0.7, l_lim)
            counts.append(sum(asked))
        assert counts[0] == counts[1]

    def test_alpha_one_is_the_limit(self):
        # the odd columns at alpha = 1 drop the pole A(0) and add its limit;
        # the mean of both sides agrees with them to O(eps^2) plus round-off
        n, l_lim, eps = 64, 500, 1e-4
        at_one = odd_mode_columns(n, 1.0, l_lim)
        mean = (odd_mode_columns(n, 1.0 - eps, l_lim) + odd_mode_columns(n, 1.0 + eps, l_lim)) / 2.0
        err = np.max(np.abs(mean - at_one), axis=0) / np.max(np.abs(at_one), axis=0)
        assert err.max() <= 2e-7

    def test_mode2_error_n1024(self):
        # the l2 series as one FFT carries no phase error of exp(i*theta) at
        # |theta| up to pi*n/2; with the explicit phase matrix this read 4.9e-13
        cfg = GridConfig(1024, 1.0)
        numeric = symbol_samples(0.1, cfg.n, 500)
        exact = closed_form_mode2(nodes(cfg), 0.1)
        assert np.max(np.abs(numeric - exact)) <= 2e-13

    def test_mode2_column_at_a_million_rows(self):
        # past l_lim = 48 the k = 2 column forms 32 row pairs at any l_lim; the
        # plain walk would form about 2e9 terms here
        column = symbol_samples(0.7, 1024, 10**6)
        exact = closed_form_mode2(nodes(GridConfig(1024, 1.0)), 0.7)
        assert np.all(np.isfinite(column))
        assert np.max(np.abs(column - exact)) <= 2e-13

    def test_even_mode_builds_no_odd_vector(self, monkeypatch):
        # the k = 2 column takes its terms from their rational form and builds
        # no ratio vector at all
        built = []
        monkeypatch.setattr(symbol, "ratio_vector", lambda *args: built.append(args))
        symbol_samples(0.5, 16, 20)
        assert built == []

    @pytest.mark.parametrize("alpha", [0.05, 0.7, 1.3, 1.95])
    @pytest.mark.parametrize("n,l_lim", [(4, 40), (64, 40), (1024, 33)])
    def test_rational_mode2_terms_are_the_run_products(self, n, l_lim, alpha, rng):
        # chunk by chunk, the k = 2 terms from the rational form against
        # products of two mpmath gamma ratios, the chunk layout included; n = 4
        # takes one chunk of more rows than l_lim, n = 1024 two, the second of
        # one row.  The l1 = 0 row is formed in long double and rounded once.
        zero_err, term_err = mode2_chunk_errors(alpha, n, l_lim, rng)
        assert zero_err <= 5e-15
        assert term_err <= 1e-13

    def test_one_column_allocates_no_tables(self):
        # whole tables of A and B at n = 1024, l_lim = 500 would take 8.2 MB
        symbol_samples(0.5, 1024, 500)  # one-time set-up out of the count
        tracemalloc.start()
        try:
            symbol_samples(0.5, 1024, 500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 10**6

    @pytest.mark.parametrize("alpha,k,err", [(1.0 + 1e-4, 2, 5.56e-16), (1.0 - 1e-4, 2, 6.96e-16)])
    def test_even_columns_near_alpha_one(self, alpha, k, err):
        # measured figures, pinned to show where digits go, not bounds.  Against
        # the closed form (within 1e-15 of mpmath here), at n = 64: the k = 2
        # column from its rational terms keeps every digit on both sides of 1,
        # since its prefactor is tan(pi*(1 - alpha)/2) of the exact 1 - alpha,
        # not 1/tan(pi*alpha/2) of an argument rounded next to the pole of tan.
        n = 64
        ref = even_mode_columns(n, alpha)[:, k // 2 - 1]
        got = symbol_samples(alpha, n, 500)
        assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) == pytest.approx(err, rel=0.05, abs=0)

    def test_alpha_one_even_modes_build_no_tables(self, monkeypatch):
        built = []
        monkeypatch.setattr(symbol, "ratio_vector", lambda *args, **kwargs: built.append(args))
        symbol_samples(1.0, 16, 20)
        assert built == []


class TestAlphaCheck:
    @pytest.mark.parametrize("alpha", [0.0, 2.0, -0.5, 2.5, float("nan")])
    @pytest.mark.parametrize("kernel", [
        lambda alpha: odd_mode_columns(16, alpha, 20),
        lambda alpha: symbol_samples(alpha, 16, 20),
    ], ids=["odd-block", "k2"])
    def test_rejected_before_any_work(self, kernel, alpha, monkeypatch):
        # alpha outside (0, 2), NaN included, is refused before either kernel
        # requests a ratio vector or a work buffer
        calls = []
        monkeypatch.setattr(symbol, "ratio_vector", lambda *args: calls.append("ratio_vector"))
        monkeypatch.setattr(symbol, "aligned_empty", lambda *args: calls.append("aligned_empty"))
        with pytest.raises(ValueError, match="alpha"):
            kernel(alpha)
        assert calls == []


class TestWorkBuffers:
    """Each series kernel call takes its large work arrays from one allocation."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc malloc's page reuse")
    @pytest.mark.parametrize("call", [
        "odd_mode_columns(128, 0.5, 500)", "symbol_samples(0.5, 1024, 500)",
    ], ids=["odd-block", "k2"])
    def test_repeated_call_faults_in_no_fresh_pages(self, call):
        # with separate arrays, each of 128 KB or more was mapped afresh at every
        # call: 748 minor faults per odd block and 352 per k = 2 column.
        # One buffer per call stays on the heap after the first call.
        script = (
            "import resource\n"
            "from fraclap.symbol import odd_mode_columns, symbol_samples\n"
            f"{call}; {call}\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            f"{call}\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        assert int(run_fresh_python(script, "1")) < 64

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc malloc's page reuse")
    def test_odd_block_faults_in_no_fresh_pages_at_any_size(self):
        # the odd block's buffer holds its sums and series work too, so it
        # outweighs the call's other arrays at every n and l_lim; holding only W
        # and G it let 105-127 pages per call be faulted in afresh at n = 128,
        # l_lim <= 48, and 1891 at n = 512 with the 97-row plan.  One interpreter, each
        # size called three times in a row, the third call counted.
        script = (
            "import resource\n"
            "from fraclap.symbol import odd_mode_columns\n"
            "for n, l_lim in ((128, 20), (512, 20), (512, 500)):\n"
            "    odd_mode_columns(n, 0.5, l_lim); odd_mode_columns(n, 0.5, l_lim)\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    odd_mode_columns(n, 0.5, l_lim)\n"
            "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        assert all(int(faults) < 64 for faults in run_fresh_python(script, "1").split())

    @pytest.mark.parametrize("kernel", [
        lambda alpha: odd_mode_columns(128, alpha, 500),
        lambda alpha: symbol_samples(alpha, 1024, 500),
    ], ids=["odd-block", "k2"])
    def test_results_do_not_alias_the_work_buffer(self, kernel):
        first = kernel(0.5)
        crc = zlib.crc32(first.tobytes())
        second = kernel(1.3)
        assert not np.shares_memory(first, second)
        assert zlib.crc32(first.tobytes()) == crc

    @pytest.mark.parametrize("shape", [0, 1, (5,), (2, 7, 3)], ids=str)
    def test_aligned_empty_starts_on_a_cache_line(self, shape):
        out = symbol.aligned_empty(shape)
        assert out.shape == np.empty(shape).shape and out.dtype == np.float64
        assert out.flags.c_contiguous and out.flags.writeable
        assert out.ctypes.data % 64 == 0
        out[...] = 1.0
        assert np.all(out == 1.0)

    @pytest.mark.parametrize("n,l_lim,tops", [
        (1024, 33, [33, 1]), (4, 40, [40]), (1024, 500, [508, 24]),
    ])
    def test_k2_chunks_walk_in_summation_order(self, n, l_lim, tops):
        # run by run of the plan, largest p first, as the column sums them: a
        # run's short chunk comes last
        assert [top for top, *_ in symbol._mode2_chunks(0.5, n, l_lim)] == tops

    @pytest.mark.parametrize("l_lim", [49, 500, 10**6])
    def test_k2_chunks_cover_the_plan_rows_at_any_l_lim(self, l_lim):
        # past l_lim = 48 the k = 2 column forms the pairs l_lim+8..l_lim+1 and 24..1
        walked = [top - r for top, _, _, t_minus, *_ in symbol._mode2_chunks(0.5, 1024, l_lim)
                  for r in range(len(t_minus))]
        assert walked == [*range(l_lim + 8, l_lim, -1), *range(24, 0, -1)]

    @pytest.mark.parametrize("n,l_lim", [(1024, 500), (2048, 40)])
    def test_k2_chunk_weights_follow_their_rows(self, monkeypatch, n, l_lim):
        # one row per chunk: a weight slice off by one row would flip the sign
        # (-1)^p of every pair and move the column far past the bound
        whole = symbol_samples(0.7, n, l_lim)
        symbol._weight_plan.cache_clear()  # the plan's ramp is sized by the chunk
        monkeypatch.setattr(symbol, "_CHUNK", 1)
        try:
            split = symbol_samples(0.7, n, l_lim)
        finally:
            symbol._weight_plan.cache_clear()
        assert np.max(np.abs(split - whole)) <= 1e-15 * np.max(np.abs(whole))

    @pytest.mark.parametrize("n,l_lim", [(6, 7), (1024, 500)])
    def test_k2_sections_start_on_a_cache_line(self, n, l_lim):
        # the chunk terms and the spare are views of three sections of the work buffer
        for *_, t_minus, t_plus, spare in symbol._mode2_chunks(0.5, n, l_lim):
            for view in (t_minus, t_plus, spare):
                assert view.ctypes.data % 64 == 0

    def test_k2_result_is_not_a_view_of_its_buffer(self, monkeypatch):
        original, buffers = symbol.aligned_empty, []

        def recorded(shape):
            buffers.append(original(shape))
            return buffers[-1]

        monkeypatch.setattr(symbol, "aligned_empty", recorded)
        out = symbol_samples(0.5, 1024, 500)
        assert len(buffers) == 1
        assert not np.shares_memory(out, buffers[0])


class TestPlans:
    """What the kernels read of n and l_lim alone is built once and shared read-only."""

    def _plan_arrays(self, n, l_lim):
        node_plan = symbol._node_plan(n)
        weight_plan = symbol._weight_plan(n, l_lim, symbol._row_plan)
        yield from ((f"node.{name}", getattr(node_plan, name)) for name in node_plan._fields)
        for name in ("l1", "ramp"):
            yield f"weight.{name}", getattr(weight_plan, name)
        for i, run in enumerate(weight_plan.runs):
            yield f"weight.runs[{i}].sign", run.sign
            yield f"weight.runs[{i}].w1", run.w1

    @pytest.mark.parametrize("n,l_lim", [(4, 0), (16, 40), (128, 500)])
    def test_plan_arrays_are_read_only(self, n, l_lim):
        for name, array in self._plan_arrays(n, l_lim):
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 7

    def test_interleaved_sizes_keep_their_bytes(self):
        # each (n, l_lim) first alone, on plans built for it from empty caches,
        # then again between calls at the others: no entry of one n or l_lim
        # leaks into another's results
        def crcs(n, l_lim):
            return (zlib.crc32(symbol_samples(0.7, n, l_lim).tobytes()),
                    zlib.crc32(odd_mode_columns(n, 0.7, l_lim).tobytes()))

        sizes = [(n, l_lim) for n in (128, 512, 1024) for l_lim in (40, 500)]
        first = {}
        for size in sizes:
            symbol._node_plan.cache_clear()
            symbol._weight_plan.cache_clear()
            first[size] = crcs(*size)
        for size in sizes[::-1] + sizes[1::2] + sizes[::2]:
            assert crcs(*size) == first[size], size

    def test_a_scan_builds_each_plan_once(self):
        symbol._node_plan.cache_clear()
        symbol._weight_plan.cache_clear()
        for alpha in (0.3, 0.7, 1.3, 1.7):
            symbol_samples(alpha, 256, 500)
            odd_mode_columns(256, alpha, 500)
            even_mode_columns(256, alpha)
        assert symbol._node_plan.cache_info().misses == 1
        assert symbol._weight_plan.cache_info().misses == 1
        for cache in (symbol._node_plan, symbol._weight_plan):
            assert cache.cache_info().maxsize == symbol._CACHED_PLANS

    def test_phase_column_is_the_dft_order(self):
        # exp(i*pi*l2/n) with l2 = 0 in row 0, and the even block's phases exp(i*pi*i/n) in front
        n = 16
        l2 = np.r_[0:n // 2, -n // 2:0]
        phase = symbol._node_plan(n).phase[:, 0]
        np.testing.assert_array_equal(phase, np.exp(1j * np.pi * l2 / n))
        np.testing.assert_array_equal(phase[: n // 2 - 1], np.exp(1j * np.pi * np.arange(n // 2 - 1) / n))


class TestEvenModeColumns:
    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0, 1.0 - 1e-4, 1.0 + 1e-4, 1.5, 1.95])
    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_matches_mpmath(self, n, alpha):
        # every column, one closed form at every alpha (measured <= 1.55e-15,
        # at n = 64, alpha = 0.3; alpha = 1 5.2e-16 off at n = 64)
        ref = even_mode_images(n, alpha)
        err = np.max(np.abs(even_mode_columns(n, alpha) - ref), axis=0) / np.max(np.abs(ref), axis=0)
        assert err.max() <= 5e-14

    @pytest.mark.parametrize("alpha", [0.3, 1.5, 1.95])
    def test_agrees_with_the_series(self, alpha):
        # the paper's truncated series: the k = 2 column at n = 128, l_lim = 500,
        # and every even column of the direct sum at n = 8, l_lim = 1000, where
        # it is converged to round-off (measured <= 1.7e-14)
        series = symbol_samples(alpha, 128, 500)
        err = np.max(np.abs(even_mode_columns(128, alpha)[:, 0] - series))
        assert err <= 1e-13 * np.max(np.abs(series))
        series = _direct_columns(8, alpha, 1000, range(2, 8, 2))
        err = np.max(np.abs(even_mode_columns(8, alpha) - series), axis=0)
        assert np.max(err / np.max(np.abs(series), axis=0)) <= 1e-13

    @pytest.mark.parametrize("alpha", [0.05, 0.7, 1.0, 1.3, 1.95])
    def test_mode2_is_the_closed_form(self, alpha):
        s = nodes(GridConfig(64, 1.0))
        np.testing.assert_array_equal(even_mode_columns(64, alpha)[:, 0], closed_form_mode2(s, alpha))

    @pytest.mark.parametrize("n", [16, 1024])
    def test_alpha_one_mode2_is_the_block_column(self, n):
        # at alpha = 1 the k = 2 column is the even prefactor alone, evaluated
        # without the block, bit for bit the block's column
        np.testing.assert_array_equal(symbol_samples(1.0, n, 3), even_mode_columns(n, 1.0)[:, 0])

    def test_no_even_column_at_n_two(self):
        assert even_mode_columns(2, 0.5).shape == (2, 0)

    @pytest.mark.parametrize("n,alpha", [(7, 0.5), (0, 0.5), (8, 0.0), (8, 2.0)])
    def test_bad_input_rejected(self, n, alpha):
        with pytest.raises(ValueError):
            even_mode_columns(n, alpha)
