import numpy as np
import pytest

from conftest import gamma_ratio_ref, gamma_ratio_ref_hp
from fraclap.gammaratio import _HEAD, GammaRatioTables, build_tables, table_lengths


class TestBuildTables:
    def test_rejects_alpha_one(self):
        with pytest.raises(ValueError):
            build_tables(1.0, 8, 10)

    def test_rejects_out_of_range_alpha(self):
        for alpha in (0.0, 2.0, -0.5, 2.5):
            with pytest.raises(ValueError):
                build_tables(alpha, 8, 10)

    def test_lengths_meet_minimum(self):
        n, l_lim = 16, 30
        tables = build_tables(0.5, n, l_lim)
        len_a, len_b, len_c = table_lengths(n, l_lim)
        assert tables.vec_a.size == len_a >= l_lim * n + n // 2 + 1
        assert tables.vec_b.size == len_b >= (l_lim + 1) * n
        assert tables.vec_c.size == len_c >= (l_lim + 1) * n

    def test_base_entry_alpha_half(self):
        tables = build_tables(0.5, 8, 5)
        expected = gamma_ratio_ref(-0.25, 1.25)
        assert tables.vec_a[0] == pytest.approx(expected, rel=1e-13)

    def test_construction_identity(self):
        # consecutive entries differ by the exact rational factor
        alpha = 0.7
        tables = build_tables(alpha, 8, 5)
        a, b = (-1.0 - alpha) / 2.0, (3.0 + alpha) / 2.0
        for m in (0, 3, 11):
            factor = (a + m) / (b + m)
            assert tables.vec_b[m + 1] == pytest.approx(tables.vec_b[m] * factor, rel=1e-15)

    @pytest.mark.parametrize("alpha", [0.05, 0.4, 0.99, 1.3, 1.95])
    def test_spot_entries_vs_log_gamma(self, alpha):
        tables = build_tables(alpha, 16, 70)
        specs = [
            (tables.vec_a, (-1.0 + alpha) / 2.0, (3.0 - alpha) / 2.0),
            (tables.vec_b, (-1.0 - alpha) / 2.0, (3.0 + alpha) / 2.0),
            (tables.vec_c, -alpha / 2.0, 2.0 + alpha / 2.0),
        ]
        for vec, a, b in specs:
            for m in (0, 17, 1000):
                ref = gamma_ratio_ref(a + m, b + m)
                assert vec[m] == pytest.approx(ref, rel=1e-12)

    def test_random_entries_vs_log_gamma(self, rng):
        # high-precision log-gamma reference: at large m the double-precision
        # exp(gammaln - gammaln) route carries more noise than the bound
        alpha = 0.35
        tables = build_tables(alpha, 32, 40)
        specs = {
            "a": (tables.vec_a, (-1.0 + alpha) / 2.0, (3.0 - alpha) / 2.0),
            "b": (tables.vec_b, (-1.0 - alpha) / 2.0, (3.0 + alpha) / 2.0),
            "c": (tables.vec_c, -alpha / 2.0, 2.0 + alpha / 2.0),
        }
        for vec, a, b in specs.values():
            for m in rng.integers(0, vec.size, size=100):
                ref = gamma_ratio_ref_hp(a, b, int(m))
                assert abs(vec[m] - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("alpha", [0.05, 0.7, 1.3, 1.95])
    def test_tail_entries_vs_log_gamma(self, alpha):
        # full-size tables (n = 1024, l_lim = 500): ~5.2e5 entries per vector,
        # all but the first _HEAD from the float64 tail of the recursion
        tables = build_tables(alpha, 1024, 500)
        specs = [
            (tables.vec_a, (-1.0 + alpha) / 2.0, (3.0 - alpha) / 2.0),
            (tables.vec_b, (-1.0 - alpha) / 2.0, (3.0 + alpha) / 2.0),
            (tables.vec_c, -alpha / 2.0, 2.0 + alpha / 2.0),
        ]
        for vec, a, b in specs:
            assert vec.size > 5 * 10**5
            seam = np.arange(_HEAD - 2, _HEAD + 3)
            spread = np.geomspace(1, vec.size - 1, 32).astype(np.int64)
            for m in np.unique(np.concatenate([[0], spread, seam])):
                ref = gamma_ratio_ref_hp(a, b, int(m))
                assert abs(vec[m] - ref) <= 1e-13 * abs(ref)
            for m in seam[:-1]:
                factor = (a + m) / (b + m)
                assert vec[m + 1] == pytest.approx(vec[m] * factor, rel=1e-15)

    @pytest.mark.parametrize("alpha", [0.01, 0.5, 0.99, 1.01, 1.5, 1.99])
    def test_all_entries_finite(self, alpha):
        tables = build_tables(alpha, 64, 100)
        for vec in (tables.vec_a, tables.vec_b, tables.vec_c):
            assert np.all(np.isfinite(vec))

    @pytest.mark.parametrize("alpha", [0.1, 0.9, 1.7])
    def test_asymptotic_decay(self, alpha):
        tables = build_tables(alpha, 8, 50)
        ratios = tables.vec_a[6:100] / tables.vec_a[5:99]
        assert np.all((ratios > 0) & (ratios < 1))

    @pytest.mark.parametrize("parity,built,unbuilt", [(0, "vec_b", "vec_c"), (1, "vec_c", "vec_b")])
    def test_one_parity_builds_only_its_vector(self, parity, built, unbuilt):
        full = build_tables(0.35, 32, 40)
        part = build_tables(0.35, 32, 40, parities=(parity,))
        np.testing.assert_array_equal(part.vec_a, full.vec_a)
        np.testing.assert_array_equal(getattr(part, built), getattr(full, built))
        assert getattr(part, unbuilt).shape == (0,)
        with pytest.raises(IndexError):
            getattr(part, unbuilt)[0]

    def test_tables_immutable(self):
        tables = build_tables(0.5, 8, 5)
        with pytest.raises(ValueError):
            tables.vec_a[0] = 7.0

    def test_is_dataclass_with_alpha(self):
        tables = build_tables(0.5, 8, 5)
        assert isinstance(tables, GammaRatioTables)
        assert tables.alpha == 0.5
