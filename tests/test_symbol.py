import numpy as np
import pytest

from conftest import a_coeff, b_coeff, gamma_ratio_ref
from fraclap.gammaratio import build_tables
from fraclap.grid import Extension, GridConfig, nodes
from fraclap.opmatrix import apply, build_matrix
from fraclap.oracles import closed_form_mode2, quadrature_fraclap, test_function
from fraclap import symbol
from fraclap.symbol import SymbolParams, fractional_constant, mode_columns, symbol_samples


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
        tables = build_tables(alpha, n, 6)
        got = a_coeff(k, 0, k // 2, tables, alpha, n)
        expected = -(1.0 + alpha) * k * k * tables.vec_a[k // 2] * tables.vec_b[0]
        assert got == pytest.approx(expected, rel=1e-15)

    def test_matches_log_gamma_formula(self):
        alpha, n = 0.5, 8
        tables = build_tables(alpha, n, 6)
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
            assert a_coeff(k, l1, l2, tables, alpha, n) == pytest.approx(expected, rel=1e-12)

    def test_odd_mode_sign_factor(self):
        alpha, n = 0.75, 8
        tables = build_tables(alpha, n, 6)
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
            assert a_coeff(k, l1, l2, tables, alpha, n) == pytest.approx(expected, rel=1e-12)

    def test_out_of_range_index(self):
        tables = build_tables(0.5, 8, 2)
        with pytest.raises(IndexError):
            a_coeff(2, 100, 0, tables, 0.5, 8)


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
    def test_k0_is_zero(self):
        p = SymbolParams(0.5, 0, 8, 10)
        assert np.all(symbol_samples(p) == 0.0)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            symbol_samples(SymbolParams(0.5, 8, 8, 10))
        with pytest.raises(ValueError):
            symbol_samples(SymbolParams(0.5, -1, 8, 10))

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            SymbolParams(2.0, 2, 8, 10)

    def test_odd_n_rejected(self):
        # the l2 range {-n/2, ..., n/2-1} needs an even node count
        with pytest.raises(ValueError, match="even integer"):
            SymbolParams(0.5, 2, 7, 10)

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.95, 1.05, 1.5, 1.95])
    def test_mode2_closed_form_small_grid(self, alpha):
        cfg = GridConfig(4, 1.0)
        numeric = symbol_samples(SymbolParams(alpha, 2, cfg.n, 530))
        exact = closed_form_mode2(nodes(cfg)[:4], alpha)
        assert np.max(np.abs(numeric - exact)) < 1e-12

    def test_mode2_closed_form_other_scale(self):
        # the unit-scale mode-2 column, applied at L = 2.5: 2*Re (even), 2*Im (odd)
        even = GridConfig(8, 2.5)
        odd = GridConfig(8, 2.5, extension=Extension.ODD)
        matrix = build_matrix(even, 0.7, 400)
        exact = closed_form_mode2(nodes(even)[:8], 0.7) / 2.5**0.7
        unit = np.eye(8)
        assert np.max(np.abs(apply(matrix, unit[2], even) - 2.0 * exact.real)) < 2e-12
        assert np.max(np.abs(apply(matrix, unit[1], odd) - 2.0 * exact.imag)) < 2e-12

    @pytest.mark.parametrize("k", [2, 4, 6, 14])
    def test_alpha_one_even_modes_exact(self, k):
        cfg = GridConfig(16, 1.0)
        s = nodes(cfg)[:16]
        numeric = symbol_samples(SymbolParams(1.0, k, cfg.n, 0))
        exact = k * np.sin(s) ** 2 * np.exp(1j * k * s)
        assert np.max(np.abs(numeric - exact)) < 1e-13

    def test_alpha_one_odd_mode_vs_quadrature(self):
        cfg = GridConfig(16, 1.0)
        s = nodes(cfg)
        numeric = symbol_samples(SymbolParams(1.0, 3, cfg.n, 500))
        f = test_function("mode_k", k=3)
        for j in (0, 2, 9):
            x = np.cos(s[j]) / np.sin(s[j])
            assert numeric[j] == pytest.approx(quadrature_fraclap(f, x, 1.0), abs=1e-8)

    def test_fractional_odd_mode_vs_quadrature(self):
        cfg = GridConfig(16, 1.0)
        s = nodes(cfg)
        numeric = symbol_samples(SymbolParams(0.5, 3, cfg.n, 500))
        f = test_function("mode_k", k=3)
        for j in (1, 5):
            x = np.cos(s[j]) / np.sin(s[j])
            assert numeric[j] == pytest.approx(quadrature_fraclap(f, x, 0.5), abs=1e-8)

    @pytest.mark.parametrize("alpha,k", [(0.5, 2), (0.7, 3), (1.6, 4)])
    def test_node_extension_matches_direct_evaluation(self, alpha, k):
        # recompute the l2 series independently at every node (no symmetry),
        # and at s_j + pi: the same point x_j, so the same value as row j
        n, l_lim = 8, 150
        cfg = GridConfig(n, 1.0)
        tables = build_tables(alpha, n, l_lim)
        sums = np.zeros(n)
        l2s = np.arange(-n // 2, n // 2)
        for i, l2 in enumerate(l2s):
            sums[i] = sum(
                a_coeff(k, l1, int(l2), tables, alpha, n) for l1 in range(-l_lim, l_lim + 1)
            )

        def direct(s):
            series = np.array([np.sum(sums * np.exp(2j * l2s * sv)) for sv in s])
            pref = fractional_constant(alpha) * np.abs(np.sin(s)) ** (alpha - 1.0) / 8.0
            if k % 2 == 0:
                return pref / np.tan(np.pi * alpha / 2.0) * series
            return 1j * pref * series

        numeric = symbol_samples(SymbolParams(alpha, k, cfg.n, l_lim))
        s = nodes(cfg)[:n]
        assert np.max(np.abs(numeric - direct(s))) < 1e-12
        assert np.max(np.abs(numeric - direct(s + np.pi))) < 1e-12

    def test_truncation_stability(self):
        cfg = GridConfig(128, 1.0)
        exact = closed_form_mode2(nodes(cfg)[:128], 0.5)
        errs = {}
        for l_lim in (0, 50, 210, 300):
            numeric = symbol_samples(SymbolParams(0.5, 2, cfg.n, l_lim))
            errs[l_lim] = np.max(np.abs(numeric - exact))
        assert errs[0] > errs[50] > errs[210]
        assert abs(errs[210] - errs[300]) < 1e-12

    def test_conjugate_of_symbol_is_negative_mode(self):
        # the operator commutes with conjugation, so conj(symbol(k)) must
        # equal the operator applied to exp(-i*k*s); checked by quadrature
        cfg = GridConfig(8, 1.0)
        s = nodes(cfg)
        numeric = np.conj(symbol_samples(SymbolParams(0.6, 3, cfg.n, 400)))
        f = test_function("mode_k", k=-3)
        x = np.cos(s[2]) / np.sin(s[2])
        assert numeric[2] == pytest.approx(quadrature_fraclap(f, x, 0.6), abs=1e-8)


def _direct_columns(n, alpha, l_lim, ks):
    """Unit-scale mode columns from scalar terms and an l2 series with exactly reduced phases.

    2*l2*s_j = pi*l2*(2j+1)/n is reduced mod 2*pi in integers before exp,
    so no phase error grows with |l2*(2j+1)|.
    """
    s = nodes(GridConfig(n, 1.0))[:n]
    l2s = np.arange(-(n // 2), n // 2)
    phase = np.exp(1j * np.pi * np.mod(np.outer(2 * np.arange(n) + 1, l2s), 2 * n) / n)
    tables = None if alpha == 1.0 else build_tables(alpha, n, l_lim)
    pref = fractional_constant(alpha) * np.abs(np.sin(s)) ** (alpha - 1.0) / 8.0
    l1s = range(-l_lim, l_lim + 1)
    cols = []
    for k in ks:
        if alpha == 1.0 and k % 2 == 0:
            cols.append(k * np.sin(s) ** 2 * np.exp(1j * k * s))
            continue
        if alpha == 1.0:
            sums = [sum(b_coeff(k, l1, int(l2), n) for l1 in l1s) for l2 in l2s]
        else:
            sums = [sum(a_coeff(k, l1, int(l2), tables, alpha, n) for l1 in l1s) for l2 in l2s]
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
    @pytest.mark.parametrize("n,ks", [(2, [1]), (8, [1, 2, 5, 6, 7]), (64, [1, 2, 33, 62, 63])])
    def test_matches_direct_sum_with_reduced_phases(self, n, ks, alpha):
        got = mode_columns(n, alpha, 4, ks)
        ref = _direct_columns(n, alpha, 4, ks)
        err = np.max(np.abs(got - ref), axis=0) / np.max(np.abs(ref), axis=0)
        assert np.all(err <= 1e-13)

    def test_mode2_error_n1024(self):
        # the l2 series as one FFT carries no phase error of exp(i*theta) at
        # |theta| up to pi*n/2; with the explicit phase matrix this read 4.9e-13
        cfg = GridConfig(1024, 1.0)
        numeric = symbol_samples(SymbolParams(0.1, 2, cfg.n, 500))
        exact = closed_form_mode2(nodes(cfg)[:1024], 0.1)
        assert np.max(np.abs(numeric - exact)) <= 2e-13

    def test_even_mode_builds_no_odd_vector(self, monkeypatch):
        built = []

        def recording(*args, **kwargs):
            built.append(build_tables(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(symbol, "build_tables", recording)
        symbol_samples(SymbolParams(0.5, 2, 16, 20))
        assert len(built) == 1
        assert built[0].vec_c.size == 0 and built[0].vec_b.size > 0
