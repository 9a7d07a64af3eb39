import numpy as np
import pytest

from conftest import dft_oracle, series_oracle
from fraclap.grid import Extension, GridConfig, node_positions, nodes
from fraclap.spectral import (
    KRASNY_THRESHOLD,
    SpectralCoefficients,
    extend,
    forward,
    interpolate,
    inverse,
    krasny_filter,
    mode_numbers,
)


class TestForward:
    def test_constant_gives_single_mode(self):
        cfg = GridConfig(8, 1.0)
        c = forward(np.ones(16), cfg)
        assert c.values[0] == pytest.approx(1.0)
        assert np.max(np.abs(c.values[1:])) < 1e-15

    def test_pure_mode(self):
        cfg = GridConfig(8, 1.0)
        c = forward(np.exp(2j * nodes(cfg)), cfg)
        assert c.values[2] == pytest.approx(1.0)
        others = np.delete(c.values, 2)
        assert np.max(np.abs(others)) < 1e-15

    def test_matches_direct_summation(self, rng):
        cfg = GridConfig(8, 1.0)
        u = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        np.testing.assert_allclose(forward(u, cfg).values, dft_oracle(u), atol=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            forward(np.ones(10), GridConfig(8, 1.0))

    def test_real_input_conjugate_symmetry(self, rng):
        cfg = GridConfig(16, 1.0)
        c = forward(rng.standard_normal(32), cfg).values
        for k in range(1, 16):
            assert c[-k] == pytest.approx(np.conj(c[k]), abs=1e-13)
        assert abs(c[0].imag) < 1e-14
        # the k = -n bin carries the phase exp(i*pi/2): for real samples it
        # is purely imaginary, and i*uhat(-n)*exp(-i*n*s_j) is real
        assert abs(c[16].real) < 1e-14


class TestInverse:
    def test_delta_zero_mode(self):
        cfg = GridConfig(4, 1.0)
        vals = np.zeros(8, complex)
        vals[0] = 1.0
        u = inverse(SpectralCoefficients(cfg, vals))
        np.testing.assert_allclose(u, np.ones(8), atol=1e-15)

    def test_delta_negative_edge_mode(self):
        # uhat = delta at k = -n reproduces exp(-i*n*s_j)
        cfg = GridConfig(4, 1.0)
        vals = np.zeros(8, complex)
        vals[4] = 1.0
        u = inverse(SpectralCoefficients(cfg, vals))
        np.testing.assert_allclose(u, series_oracle(vals, nodes(cfg)), atol=1e-14)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256])
    def test_round_trip(self, n, rng):
        cfg = GridConfig(n, 1.0)
        u = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        assert np.max(np.abs(inverse(forward(u, cfg)) - u)) < 1e-12

    @pytest.mark.parametrize("n", [6, 10, 12, 20])
    def test_round_trip_non_power_of_two(self, n, rng):
        cfg = GridConfig(n, 1.0)
        u = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        assert np.max(np.abs(inverse(forward(u, cfg)) - u)) < 1e-12

    def test_coefficient_round_trip(self, rng):
        cfg = GridConfig(16, 1.0)
        vals = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        c = SpectralCoefficients(cfg, vals)
        back = forward(inverse(c), cfg)
        assert np.max(np.abs(back.values - vals)) < 1e-12

    def test_parseval(self, rng):
        cfg = GridConfig(32, 1.0)
        u = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        c = forward(u, cfg)
        lhs = np.sum(np.abs(u) ** 2) / 64
        rhs = np.sum(np.abs(c.values) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestExtend:
    def test_even(self):
        np.testing.assert_array_equal(
            extend(np.array([1.0, 2.0]), Extension.EVEN), [1.0, 2.0, 2.0, 1.0]
        )

    def test_odd(self):
        np.testing.assert_array_equal(
            extend(np.array([1.0, 2.0]), "odd"), [1.0, 2.0, -2.0, -1.0]
        )

    def test_gaussian_even_extension_has_even_modes_only(self):
        # exp(-x^2) is even in x, so its even extension is pi-periodic in s
        # and odd-k coefficients vanish
        cfg = GridConfig(32, 1.0)
        x = node_positions(cfg)[:32]
        c = forward(extend(np.exp(-x * x), Extension.EVEN), cfg)
        odd = c.values[np.abs(mode_numbers(32)) % 2 == 1]
        assert np.max(np.abs(odd)) < 1e-12

    def test_gaussian_odd_extension_has_odd_modes_only(self):
        cfg = GridConfig(32, 1.0)
        x = node_positions(cfg)[:32]
        c = forward(extend(np.exp(-x * x), Extension.ODD), cfg)
        even = c.values[np.abs(mode_numbers(32)) % 2 == 0]
        assert np.max(np.abs(even)) < 1e-12


class TestKrasnyFilter:
    def test_untouched_above_threshold(self, rng):
        cfg = GridConfig(8, 1.0)
        c = forward(rng.standard_normal(16) + 2.0, cfg)
        filtered = krasny_filter(c)
        np.testing.assert_array_equal(filtered.values, c.values)

    def test_zeroes_small_entry(self):
        cfg = GridConfig(4, 1.0)
        vals = np.full(8, 1.0, dtype=complex)
        vals[3] = KRASNY_THRESHOLD / 2
        filtered = krasny_filter(SpectralCoefficients(cfg, vals))
        assert filtered.values[3] == 0.0
        assert np.all(filtered.values[:3] == 1.0)

    def test_cleans_synthetic_round_trip_noise(self, rng):
        cfg = GridConfig(16, 1.0)
        vals = np.zeros(32, complex)
        vals[1] = 1.0
        noise = 1e-18 * (rng.standard_normal(32) + 1j * rng.standard_normal(32))
        filtered = krasny_filter(SpectralCoefficients(cfg, vals + noise))
        assert filtered.values[1] != 0.0
        assert np.all(np.delete(filtered.values, 1) == 0.0)


class TestInterpolate:
    def test_reproduces_collocation_values(self, rng):
        cfg = GridConfig(16, 2.0)
        u = rng.standard_normal(32)
        c = forward(u, cfg)
        x = node_positions(cfg)[:16]
        vals = interpolate(c, x)
        np.testing.assert_allclose(vals.real, inverse(c).real[:16], atol=1e-12)

    def test_pure_mode_rational_law(self):
        # mode k = 2 at unit scale is (x^2-1)/(x^2+1) + i*2x/(x^2+1)
        cfg = GridConfig(8, 1.0)
        vals = np.zeros(16, complex)
        vals[2] = 1.0
        c = SpectralCoefficients(cfg, vals)
        for x in (-3.7, -0.2, 0.0, 1.0, 42.0):
            expected = (x * x - 1) / (x * x + 1) + 1j * 2 * x / (x * x + 1)
            assert interpolate(c, x) == pytest.approx(expected, abs=1e-13)

    def test_midpoint_matches_direct_series(self, rng):
        cfg = GridConfig(8, 1.0)
        vals = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        c = SpectralCoefficients(cfg, vals)
        s = nodes(cfg)
        s_mid = 0.5 * (s[3] + s[4])
        x_mid = np.cos(s_mid) / np.sin(s_mid)
        expected = series_oracle(vals, np.array([s_mid]))[0]
        assert interpolate(c, x_mid) == pytest.approx(expected, abs=1e-12)
