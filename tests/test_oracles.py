import math

import mpmath
import numpy as np
import pytest

from fraclap.grid import Extension, GridConfig, nodes
from fraclap.opmatrix import build_matrix
from fraclap.oracles import (
    QuadratureError,
    alpha_grid,
    progression,
    closed_form_gaussian,
    closed_form_mode1,
    closed_form_mode2,
    error_scan,
    mode1_error,
    quadrature_fraclap,
    test_function,
)

# 20-digit references for 1F1(1/2+alpha/2, 1/2, -x^2), from a high-precision
# series evaluation
F1_REFS = [
    # (alpha, x^2, value)
    (0.5, 4.0, -0.15324652228762546182),
    (1.5, 9.0, -0.034200810531909319835),
    (0.05, 300.0, -0.0021893519888476574837),
]


class TestProfiles:
    @pytest.mark.parametrize(
        "name", ["u1_rational", "u2_rational", "u3_gaussian", "mode_k"]
    )
    def test_derivatives_match_finite_differences(self, name):
        f = test_function(name, k=3)
        h = 1e-5
        for x in (-2.3, -0.4, 0.0, 0.8, 3.1):
            fd1 = (f.u(x + h) - f.u(x - h)) / (2 * h)
            fd2 = (f.u(x + h) - 2 * f.u(x) + f.u(x - h)) / h**2
            assert f.u_x(x) == pytest.approx(fd1, abs=1e-6)
            assert f.u_xx(x) == pytest.approx(fd2, abs=1e-4)

    def test_mode2_is_u1_plus_iu2(self):
        m = test_function("mode_k", k=2)
        u1 = test_function("u1_rational")
        u2 = test_function("u2_rational")
        for x in (-1.5, 0.3, 7.0):
            assert m.u(x) == pytest.approx(u1.u(x) + 1j * u2.u(x), abs=1e-14)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            test_function("u4")


class TestClosedFormMode2:
    def test_alpha_one_recovers_sine_square_law(self):
        for s in (0.3, 1.1, 2.9, 4.0):
            expected = 2 * np.sin(s) ** 2 * np.exp(2j * s)
            assert closed_form_mode2(s, 1.0) == pytest.approx(expected, abs=1e-13)

    def test_midpoint_value(self):
        # s = pi/2: (-i*e^{i pi/2})^{3/2} = 1, so the value is -2*Gamma(1.5)
        got = closed_form_mode2(np.pi / 2, 0.5)
        assert got == pytest.approx(-2 * math.gamma(1.5) + 0j, abs=1e-14)

    @pytest.mark.parametrize("s,alpha", [(0.7, 0.6), (2.2, 1.4), (1.0, 0.3)])
    def test_against_quadrature(self, s, alpha):
        f = test_function("mode_k", k=2)
        x = math.cos(s) / math.sin(s)
        assert closed_form_mode2(s, alpha) == pytest.approx(
            quadrature_fraclap(f, x, alpha), abs=1e-8
        )


class TestClosedFormGaussian:
    def test_origin_value(self):
        for alpha in (0.2, 1.0, 1.9):
            expected = 2**alpha * math.gamma(0.5 + alpha / 2) / math.sqrt(math.pi)
            assert closed_form_gaussian(0.0, alpha) == pytest.approx(expected, rel=1e-14)

    def test_even_in_x(self):
        for x in (0.5, 2.0, 11.0):
            assert closed_form_gaussian(x, 0.7) == closed_form_gaussian(-x, 0.7)

    def test_alpha_one_vs_quadrature(self):
        f = test_function("u3_gaussian")
        assert closed_form_gaussian(1.0, 1.0) == pytest.approx(
            quadrature_fraclap(f, 1.0, 1.0), abs=1e-8
        )

    def test_far_field_vs_quadrature(self):
        f = test_function("u3_gaussian")
        assert closed_form_gaussian(10.0, 0.5) == pytest.approx(
            quadrature_fraclap(f, 10.0, 0.5), abs=1e-6
        )

    @pytest.mark.parametrize("alpha,x2,ref", F1_REFS)
    def test_high_precision_references(self, alpha, x2, ref):
        pref = 2**alpha * math.gamma(0.5 + alpha / 2) / math.sqrt(math.pi)
        got = closed_form_gaussian(math.sqrt(x2), alpha)
        assert got == pytest.approx(pref * ref, rel=1e-12)

    def test_against_mpmath(self):
        # the node ranges of the Gaussian scans, out to the outermost node
        # at n = 512, L = 100
        xs = [0.0, 0.3, 1.0, 2.5, 5.0, 10.0, 15.9, 16.1, 40.0, 81.5, 407.0, 3.3e4]
        with mpmath.workdps(30):
            for alpha in (0.05, 0.3, 0.7, 1.0, 1.3, 1.7, 1.95):
                a = mpmath.mpf(alpha)
                pref = 2**a * mpmath.gamma(0.5 + a / 2) / mpmath.sqrt(mpmath.pi)
                got = closed_form_gaussian(np.array(xs), alpha)
                for x, value in zip(xs, got):
                    exact = pref * mpmath.hyp1f1(0.5 + a / 2, 0.5, -mpmath.mpf(x) ** 2)
                    assert abs(value - exact) <= 1e-13 * abs(exact), (alpha, x)

    def test_accepts_arrays(self):
        out = closed_form_gaussian(np.array([0.0, 1.0, -1.0]), 0.5)
        assert out.shape == (3,)
        assert out[1] == out[2]


class TestQuadrature:
    def test_constant_is_annihilated(self):
        const = test_function("u3_gaussian")
        zero = type(const)(
            "const", lambda x: 1.0, lambda x: 0.0, lambda x: 0.0
        )
        for alpha in (0.5, 1.0, 1.5):
            assert quadrature_fraclap(zero, 0.3, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_mode2_vs_closed_form(self):
        f = test_function("mode_k", k=2)
        s = math.atan2(1.0, 0.7)
        got = quadrature_fraclap(f, 0.7, 0.6)
        assert got == pytest.approx(closed_form_mode2(s, 0.6), abs=1e-8)

    def test_gaussian_vs_closed_form(self):
        f = test_function("u3_gaussian")
        assert quadrature_fraclap(f, 0.0, 1.5) == pytest.approx(
            closed_form_gaussian(0.0, 1.5), abs=1e-8
        )

    def test_oracle_triangle_random_points(self, rng):
        # 20 random (x, alpha) pairs for each closed-form family
        for _ in range(10):
            x = float(rng.uniform(-3.0, 3.0))
            alpha = float(rng.uniform(0.2, 1.75))
            g = test_function("u3_gaussian")
            assert abs(quadrature_fraclap(g, x, alpha) - closed_form_gaussian(x, alpha)) < 1e-7
            m = test_function("mode_k", k=2)
            s = math.atan2(1.0, x)
            assert abs(quadrature_fraclap(m, x, alpha) - closed_form_mode2(s, alpha)) < 1e-7

    @pytest.mark.parametrize("alpha, x", [(0.5, 1e4), (0.5, 999.0), (1.5, 1.07e4), (1.95, 1016.0)])
    def test_far_from_the_data_exact_or_refused(self, alpha, x):
        # the image of exp(i*s) far out on the line, where it is small: the
        # oracle either meets the closed form to 1e-6 relative or raises
        exact = closed_form_mode1(math.atan2(1.0, x), alpha)
        try:
            got = quadrature_fraclap(test_function("mode_k", 1), x, alpha)
        except QuadratureError:
            return
        assert abs(got - exact) <= 1e-6 * abs(exact)

    def test_alpha_two_is_a_value_error(self):
        # alpha is checked before 1/(2 - alpha) is formed
        with pytest.raises(ValueError, match="alpha"):
            quadrature_fraclap(test_function("u3_gaussian"), 0.5, 2.0)


class TestProgression:
    @pytest.mark.parametrize("span, size, last", [
        ((0.05, 1.95, 0.05), 39, 1.95),
        ((0.1, 10.0, 0.1), 100, 10.0),
        ((0.01, 1.99, 0.01), 199, 1.99),
        ((0.5, 1.96, 0.1), 15, 1.9),
        ((0.5, 1.85, 0.1), 14, 1.8),
        ((0.3, 0.3, 0.1), 1, 0.3),
    ])
    def test_points_end_at_or_below_stop(self, span, size, last):
        points = progression(*span)
        assert points.size == size and points[-1] == last
        assert np.all(points <= span[1] + 1e-9 * span[2])

    def test_alpha_grid_follows_the_same_rule(self):
        # 13.5 steps used to round to 14 and end the grid at 1.9
        assert alpha_grid(0.5, 1.85, 0.1)[-1] == 1.8
        np.testing.assert_array_equal(alpha_grid(0.05, 1.95, 0.05), progression(0.05, 1.95, 0.05))

    def test_too_many_points_rejected(self):
        with pytest.raises(ValueError, match="more than 10000"):
            progression(0.0, 1.0, 1e-4)


_GRID = alpha_grid(0.05, 1.95, 0.05)
THIN_GRID = _GRID[np.abs(_GRID - 1.0) > 1e-12]


class TestErrorScan:
    @pytest.mark.parametrize(
        "n,l_lim,reported",
        [(256, 180, 5.0570e-13), (512, 80, 5.7013e-12)],
    )
    def test_mode2_additional_rows(self, n, l_lim, reported):
        scan = error_scan("mode2", GridConfig(n, 1.0), l_lim, THIN_GRID)
        assert reported / 3 <= scan.global_max <= 3 * reported

    def test_gaussian_n32_row(self):
        # reported even-extension error at n=32, L=1, l_lim=500: 4.0393e-4
        grid = alpha_grid(0.05, 1.95, 0.05)
        scan = error_scan(
            "gaussian", GridConfig(32, 1.0, extension=Extension.EVEN), 500, grid
        )
        assert 4.0393e-4 / 3 <= scan.global_max <= 3 * 4.0393e-4

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            error_scan("mode3", GridConfig(16, 1.0), 10, [0.5])

    def test_mode2_full_alpha_grid(self):
        # the complete 198-value grid, alpha = 0.01..1.99 without 1
        grid = alpha_grid(0.01, 1.99, 0.01)
        grid = grid[np.abs(grid - 1.0) > 1e-12]
        scan = error_scan("mode2", GridConfig(128, 1.0), 210, grid)
        assert 5.0219e-13 / 3 <= scan.global_max <= 3 * 5.0219e-13


class TestMode1:
    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.999, 1.0, 1.5, 1.95])
    @pytest.mark.parametrize("n", [64, 1024])
    def test_closed_form_against_mpmath(self, n, alpha):
        # scipy's hyp2f1 out to the outermost node, |x| = cot(pi/(2n))
        s = nodes(GridConfig(n, 1.0))[:: n // 8]
        got = closed_form_mode1(s, alpha)
        with mpmath.workdps(30):
            a = mpmath.mpf(alpha)
            h = (1 + a) / 2
            c1 = 2**a * mpmath.gamma(h) * mpmath.gamma(h + 1) / (mpmath.gamma(0.5) * mpmath.gamma(1.5))
            c0 = 2**a * mpmath.gamma(h) ** 2 / mpmath.gamma(0.5) ** 2
            exact = []
            for sv in s:
                x = mpmath.cot(mpmath.mpf(float(sv)))
                exact.append(complex(c1 * x * mpmath.hyp2f1(h, h + 1, 1.5, -x * x)
                                     + 1j * c0 * mpmath.hyp2f1(h, h, 0.5, -x * x)))
        exact = np.array(exact)
        assert np.max(np.abs(got - exact)) <= 2e-15 * np.max(np.abs(exact))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.6])
    def test_closed_form_against_quadrature(self, alpha):
        f = test_function("mode_k", k=1)
        for s in (0.4, 1.3, 2.9):
            value = quadrature_fraclap(f, math.cos(s) / math.sin(s), alpha)
            assert closed_form_mode1(s, alpha) == pytest.approx(value, abs=1e-8)

    @pytest.mark.parametrize("n,l_lim,alpha", [(8, 30, 0.5), (64, 20, 1.0)])
    def test_is_the_node_error_of_column_one(self, n, l_lim, alpha):
        matrix = build_matrix(GridConfig(n, 1.0), alpha, l_lim)
        exact = closed_form_mode1(nodes(GridConfig(n, 1.0)), alpha)
        assert mode1_error(matrix) == np.max(np.abs(matrix.entries[:, 0] - exact))

    @pytest.mark.parametrize("n,alpha,pin", [
        (64, 0.3, 1.43e-12), (1024, 0.05, 2.0e-13),
    ])
    def test_sees_the_truncation(self, n, alpha, pin):
        # column-relative error of the l_lim = 500 series, as measured
        matrix = build_matrix(GridConfig(n, 1.0), alpha, 500)
        rel = mode1_error(matrix) / np.max(np.abs(matrix.entries[:, 0]))
        assert rel == pytest.approx(pin, rel=0.05, abs=0)

    @pytest.mark.parametrize("alpha", [0.999, 1.0, 1.5, 1.95])
    def test_small_near_and_above_one(self, alpha):
        matrix = build_matrix(GridConfig(1024, 1.0), alpha, 500)
        assert mode1_error(matrix) <= 1.4e-15 * np.max(np.abs(matrix.entries[:, 0]))
