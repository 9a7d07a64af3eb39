import numpy as np
import pytest
from scipy.fft import dct, dst

from conftest import continued, dft_oracle, series_oracle
from fraclap.grid import Extension, GridConfig, node_positions, nodes, x_to_s
from fraclap.spectral import evaluate, transform

PARITIES = (Extension.EVEN, Extension.ODD)


def _two_sided(coeffs: np.ndarray, parity: Extension) -> np.ndarray:
    """The 2n complex coefficients uhat(k), FFT bin order, of the real ones."""
    n = coeffs.size
    out = np.zeros(2 * n, complex)
    if parity is Extension.EVEN:
        out[:n] = coeffs
        out[n + 1:] = coeffs[:0:-1]
    else:
        out[1:n] = -1j * coeffs[:-1]
        out[n + 1:] = 1j * coeffs[-2::-1]
        out[n] = 1j * coeffs[-1]
    return out


class TestForward:
    def test_constant_gives_single_mode(self):
        c = transform(np.ones(8), Extension.EVEN)
        assert c[0] == pytest.approx(1.0)
        assert np.max(np.abs(c[1:])) < 1e-15

    def test_pure_mode(self):
        # cos(2s) = (e^{2is} + e^{-2is})/2 and sin(2s) = (e^{2is} - e^{-2is})/(2i)
        s = nodes(GridConfig(8, 1.0))
        c = transform(np.cos(2 * s), Extension.EVEN)
        d = transform(np.sin(2 * s), Extension.ODD)
        assert c[2] == pytest.approx(0.5) and d[1] == pytest.approx(0.5)
        assert np.max(np.abs(np.delete(c, 2))) < 1e-15
        assert np.max(np.abs(np.delete(d, 1))) < 1e-15

    def test_matches_direct_summation(self, rng):
        u = rng.standard_normal(8)
        for parity in PARITIES:
            full = dft_oracle(continued(u, parity.value))
            np.testing.assert_allclose(_two_sided(transform(u, parity), parity), full, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 16, 511, 512, 1024, 2048])
    def test_matches_scipy_type_2(self, n, rng):
        # one real FFT in place of scipy.fft: the same coefficients at round-off, any length
        u = rng.standard_normal(n)
        for parity, scipy_transform in ((Extension.EVEN, dct), (Extension.ODD, dst)):
            want = scipy_transform(u, type=2) / (2 * n)
            got = transform(u, parity)
            assert got.shape == want.shape and got.flags.c_contiguous
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            transform(np.ones(0), Extension.EVEN)

    def test_length_mismatch(self):
        # one transform per vector of n values: 2-D input is refused
        with pytest.raises(ValueError):
            transform(np.ones((2, 8)), Extension.EVEN)

    def test_real_input_conjugate_symmetry(self, rng):
        # the 2n-point transform of continued real data is what the real one folds
        u = rng.standard_normal(16)
        even = dft_oracle(continued(u, "even"))
        odd = dft_oracle(continued(u, "odd"))
        for k in range(1, 16):
            assert even[-k] == pytest.approx(even[k], abs=1e-13)
            assert odd[-k] == pytest.approx(-odd[k], abs=1e-13)
        assert np.max(np.abs(even.imag)) < 1e-14
        assert np.max(np.abs(odd.real)) < 1e-14
        assert abs(even[16]) < 1e-14  # the -n mode of even data vanishes


class TestInverse:
    def test_delta_zero_mode(self):
        cfg = GridConfig(4, 1.0)
        c = np.zeros(4)
        c[0] = 1.0
        x = node_positions(cfg)
        np.testing.assert_allclose(evaluate(c, Extension.EVEN, cfg, x), np.ones(4), atol=1e-15)

    def test_delta_negative_edge_mode(self):
        # d_(n-1) is the k = -n coefficient uhat(-n) = i*d_(n-1): its series is
        # the real part of i*exp(-i*n*s)
        cfg = GridConfig(4, 1.0)
        d = np.zeros(4)
        d[3] = 1.0
        vals = np.zeros(8, complex)
        vals[4] = 1j
        s = np.linspace(0.1, 3.0, 7)
        got = evaluate(d, Extension.ODD, cfg, np.cos(s) / np.sin(s))
        np.testing.assert_allclose(got, series_oracle(vals, s).real, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256])
    def test_round_trip(self, n, rng):
        cfg = GridConfig(n, 1.0)
        u = rng.standard_normal(n)
        x = node_positions(cfg)
        for parity in PARITIES:
            assert np.max(np.abs(evaluate(transform(u, parity), parity, cfg, x) - u)) < 1e-12

    @pytest.mark.parametrize("n", [6, 10, 12, 20])
    def test_round_trip_non_power_of_two(self, n, rng):
        cfg = GridConfig(n, 1.0)
        u = rng.standard_normal(n)
        x = node_positions(cfg)
        for parity in PARITIES:
            assert np.max(np.abs(evaluate(transform(u, parity), parity, cfg, x) - u)) < 1e-12

    def test_coefficient_round_trip(self, rng):
        cfg = GridConfig(16, 1.0)
        c = rng.standard_normal(16)
        x = node_positions(cfg)
        for parity in PARITIES:
            back = transform(evaluate(c, parity, cfg, x), parity)
            assert np.max(np.abs(back - c)) < 1e-12

    def test_parseval(self, rng):
        u = rng.standard_normal(32)
        lhs = np.sum(u * u) / 32
        c = transform(u, Extension.EVEN)
        d = transform(u, Extension.ODD)
        assert c[0] ** 2 + 2 * np.sum(c[1:] ** 2) == pytest.approx(lhs, rel=1e-12)
        assert 2 * np.sum(d[:-1] ** 2) + d[-1] ** 2 == pytest.approx(lhs, rel=1e-12)


class TestExtend:
    def _check(self, parity, rng):
        # the real series equals the complex series of the continued 2n samples
        cfg = GridConfig(16, 1.5, 0.3)
        u = rng.standard_normal(16)
        x = node_positions(cfg)
        pts = 0.5 * (x[:-1] + x[1:])
        expected = series_oracle(dft_oracle(continued(u, parity.value)), x_to_s(cfg, pts))
        got = evaluate(transform(u, parity), parity, cfg, pts)
        assert np.max(np.abs(got - expected.real)) < 1e-13

    def test_even(self, rng):
        self._check(Extension.EVEN, rng)

    def test_odd(self, rng):
        self._check(Extension.ODD, rng)

    def test_gaussian_even_extension_has_even_modes_only(self):
        # exp(-x^2) is even in x, so its even extension is pi-periodic in s
        # and odd-k coefficients vanish
        x = node_positions(GridConfig(32, 1.0))
        c = transform(np.exp(-x * x), Extension.EVEN)
        assert np.max(np.abs(c[1::2])) < 1e-12

    def test_gaussian_odd_extension_has_odd_modes_only(self):
        # d_(k-1) is the coefficient of mode k: even k sit at odd indices
        x = node_positions(GridConfig(32, 1.0))
        d = transform(np.exp(-x * x), Extension.ODD)
        assert np.max(np.abs(d[1::2])) < 1e-12


class TestInterpolate:
    def test_reproduces_collocation_values(self, rng):
        cfg = GridConfig(16, 2.0, -0.7)
        u = rng.standard_normal(16)
        x = node_positions(cfg)
        for parity in PARITIES:
            np.testing.assert_allclose(
                evaluate(transform(u, parity), parity, cfg, x), u, atol=1e-12
            )

    def test_pure_mode_rational_law(self):
        # mode k = 2 at unit scale is (x^2-1)/(x^2+1) + i*2x/(x^2+1): its real
        # part is the cosine series of c_2 = 1/2, its imaginary part the sine
        # series of d_1 = 1/2
        cfg = GridConfig(8, 1.0)
        c = np.zeros(8)
        c[2] = 0.5
        d = np.zeros(8)
        d[1] = 0.5
        for x in (-3.7, -0.2, 0.0, 1.0, 42.0):
            assert evaluate(c, Extension.EVEN, cfg, x) == pytest.approx(
                (x * x - 1) / (x * x + 1), abs=1e-13
            )
            assert evaluate(d, Extension.ODD, cfg, x) == pytest.approx(
                2 * x / (x * x + 1), abs=1e-13
            )

    def test_midpoint_matches_direct_series(self, rng):
        cfg = GridConfig(8, 1.0)
        c = rng.standard_normal(8)
        s = nodes(cfg)
        s_mid = 0.5 * (s[3] + s[4])
        x_mid = np.cos(s_mid) / np.sin(s_mid)
        for parity in PARITIES:
            expected = series_oracle(_two_sided(c, parity), np.array([s_mid]))[0].real
            got = evaluate(c, parity, cfg, x_mid)
            assert isinstance(got, float)
            assert got == pytest.approx(expected, abs=1e-12)
