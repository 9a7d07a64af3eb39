import zlib

import numpy as np
import pytest

from conftest import (
    gamma_ratio_ref,
    gamma_ratio_ref_hp,
    mode2_chunk_errors,
    odd_ratio_args,
    ratio_vector_long_double,
)
from fraclap import symbol
from fraclap.gammaratio import ratio_vector
from fraclap.symbol import odd_mode_columns


def odd_vectors(alpha, length):
    """[(vector, a, b)] for the odd block's A (vec_a) and C (vec_c) at alpha, ``length`` entries each."""
    return [(ratio_vector(a, b, length), a, b) for a, b in odd_ratio_args(alpha)]


class TestBuildTables:
    # the class keeps its name so that the test ids stay the same: it tests
    # ratio_vector, and the odd block's checks before it requests a vector
    def test_alpha_one_odd_tables(self):
        # vec_a[0] is Gamma's pole at 0; vec_a[m] = Gamma(m)/Gamma(1+m) = 1/m after it
        (vec_a, _, _), (vec_c, _, _) = odd_vectors(1.0, 5313)
        assert vec_a[0] == np.inf
        m = np.arange(1, vec_a.size)
        np.testing.assert_allclose(vec_a[1:], 1.0 / m, rtol=1e-13, atol=0.0)
        for m in (0, 1, 7, 100, 300):
            expected = gamma_ratio_ref(m - 0.5, m + 2.5)
            assert vec_c[m] == pytest.approx(expected, rel=1e-13)

    def test_rejects_out_of_range_alpha(self, monkeypatch):
        # the odd block checks alpha before it requests a vector
        asked = []
        monkeypatch.setattr(symbol, "ratio_vector", lambda *args: asked.append(args))
        for alpha in (0.0, 2.0, -0.5, 2.5):
            with pytest.raises(ValueError):
                odd_mode_columns(8, alpha, 10)
        assert asked == []

    def test_rejects_bad_n_and_l_lim(self, monkeypatch):
        asked = []
        monkeypatch.setattr(symbol, "ratio_vector", lambda *args: asked.append(args))
        for n, l_lim in ((7, 10), (0, 10), (8, -1)):
            with pytest.raises(ValueError):
                odd_mode_columns(n, 0.5, l_lim)
        assert asked == []

    def test_base_entry_alpha_half(self):
        (vec_a, _, _), _ = odd_vectors(0.5, 57)
        expected = gamma_ratio_ref(-0.25, 1.25)
        assert vec_a[0] == pytest.approx(expected, rel=1e-13)

    def test_construction_identity(self):
        # consecutive entries differ by the exact rational factor
        for vec, a, b in odd_vectors(0.7, 57):
            for m in (0, 3, 11):
                factor = (a + m) / (b + m)
                assert vec[m + 1] == pytest.approx(vec[m] * factor, rel=1e-15)

    @pytest.mark.parametrize("alpha", [0.05, 0.4, 0.99, 1.3, 1.95])
    def test_spot_entries_vs_log_gamma(self, alpha):
        for vec, a, b in odd_vectors(alpha, 1145):
            for m in (0, 17, 1000):
                ref = gamma_ratio_ref(a + m, b + m)
                assert vec[m] == pytest.approx(ref, rel=1e-12)

    def test_random_entries_vs_log_gamma(self, rng):
        # high-precision log-gamma reference: at large m the double-precision
        # exp(gammaln - gammaln) route carries more noise than the bound.  The
        # lengths are those of the odd block at n = 32, l_lim = 40
        for (a, b), length in zip(odd_ratio_args(0.35), (1329, 1344)):
            vec = ratio_vector(a, b, length)
            for m in rng.integers(0, vec.size, size=100):
                ref = gamma_ratio_ref_hp(a, b, int(m))
                assert abs(vec[m] - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("alpha", [0.05, 0.7, 1.3, 1.95])
    def test_tail_entries_vs_log_gamma(self, alpha):
        # full-size vectors (n = 1024, l_lim = 500): ~5.1e5 entries each.  The
        # indices 4094..4098 are where a float64 tail once took over the recursion
        for vec, a, b in odd_vectors(alpha, 513537):
            seam = np.arange(4094, 4099)
            spread = np.geomspace(1, vec.size - 1, 32).astype(np.int64)
            for m in np.unique(np.concatenate([[0], spread, seam])):
                ref = gamma_ratio_ref_hp(a, b, int(m))
                assert abs(vec[m] - ref) <= 1e-13 * abs(ref)
            for m in seam[:-1]:
                factor = (a + m) / (b + m)
                assert vec[m + 1] == pytest.approx(vec[m] * factor, rel=1e-15)

    @pytest.mark.parametrize("start", [48 * 128, 500 * 1024])
    @pytest.mark.parametrize("alpha", [0.05, 0.7, 1.0, 1.3, 1.95])
    def test_segments_from_start_vs_log_gamma(self, alpha, start):
        # a segment's base entry comes from the difference of two lgamma of
        # size ~ start*log(start), so every entry carries about |lgamma|*eps
        # relative error: measured <= 2.4e-11 at start = 6144 and <= 1.4e-9
        # at start = 512000, against mpmath at 40 digits
        import mpmath

        for a, b in odd_ratio_args(alpha):
            vec = ratio_vector(a, b, 8193, start=start)
            picks = np.unique(np.concatenate([np.geomspace(1, vec.size - 1, 12).astype(np.int64), [0]]))
            with mpmath.workdps(40):
                for m in picks:
                    ref = mpmath.exp(mpmath.loggamma(mpmath.mpf(a) + start + m)
                                     - mpmath.loggamma(mpmath.mpf(b) + start + m))
                    assert abs(vec[m] - ref) <= 1e-8 * ref

    @pytest.mark.parametrize("alpha", [0.01, 0.5, 0.99, 1.01, 1.5, 1.99])
    def test_all_entries_finite(self, alpha):
        for vec, _, _ in odd_vectors(alpha, 6528):
            assert np.all(np.isfinite(vec))

    @pytest.mark.parametrize("alpha", [0.1, 0.9, 1.7])
    def test_asymptotic_decay(self, alpha):
        (vec_a, _, _), _ = odd_vectors(alpha, 413)
        ratios = vec_a[6:100] / vec_a[5:99]
        assert np.all((ratios > 0) & (ratios < 1))

    def test_tables_immutable(self):
        for vec, _, _ in odd_vectors(0.5, 57):
            with pytest.raises(ValueError):
                vec[0] = 7.0


class TestRationalMode2Terms:
    @pytest.mark.parametrize("alpha", [0.05, 0.7, 1.3, 1.95])
    def test_table_products_are_the_rational_terms(self, alpha, rng):
        # b_A - a_B = b_B - a_A = 2, so the k = 2 terms A(m)*B(m +- 1) cancel to
        # 1/((m^2 - c^2)(m +- e)(m +- e +- 1)), c = (1 - alpha)/2, e = 1 - c.  The
        # terms formed from that rational form, chunk by chunk at full size
        # (n = 1024, l_lim = 500: the plan's tail rows 508..501 in one chunk, m up
        # to 5.2e5, then 40..1 in two), against products of two mpmath ratios, on
        # sampled entries of every chunk
        assert max(mode2_chunk_errors(alpha, 1024, 500, rng)) <= 1.5e-13


class TestRatioStream:
    # the class keeps its name, and each pin its id, so that the test ids stay
    # the same: the ids carry the CRCs the pins had when the recursion ran in
    # float64 past its first 4096 entries
    @pytest.mark.parametrize("a,b,crc", [
        pytest.param(-0.25, 1.25, 0x81678AE8, id="-0.25-1.25-1393950195"),
        pytest.param(0.0, 1.0, 0x288F3B21, id="0.0-1.0-2741007465"),
        pytest.param(-0.5, 2.5, 0xF4A95125, id="-0.5-2.5-3779186964"),
        pytest.param(-0.975, 2.975, 0xEBA8009E, id="-0.975-2.975-4177955890"),
        pytest.param(0.0, 1.7, 0x258FC06D, id="0.0-1.7-2450659670"),
    ])
    def test_ratio_vectors_are_pinned(self, a, b, crc):
        # 80000 entries: any change to the recursion moves these.  At (0, 1) and
        # (0, 1.7) the pole comes first and the recursion of (1, b + 1) after it.
        assert zlib.crc32(ratio_vector(a, b, 80000).tobytes()) == crc

    @pytest.mark.parametrize("alpha", [0.3, 1.5, 1.95])
    def test_ratio_vector_is_the_long_double_recursion(self, alpha):
        # the reference's long-double running product at every index, bit for bit
        (a, b), _ = odd_ratio_args(alpha)
        np.testing.assert_array_equal(ratio_vector(a, b, 10**5), ratio_vector_long_double(a, b, 10**5))
