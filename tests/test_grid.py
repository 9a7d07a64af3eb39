import numpy as np
import pytest

from fraclap.grid import Extension, GridConfig, node_positions, nodes, s_to_x, x_to_s


class TestGridConfig:
    def test_rejects_odd_n(self):
        with pytest.raises(ValueError):
            GridConfig(5, 1.0)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            GridConfig(0, 1.0)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            GridConfig(4, 0.0)
        with pytest.raises(ValueError):
            GridConfig(4, -2.0)

    def test_rejects_non_integer_n(self):
        with pytest.raises(TypeError):
            GridConfig(4.0, 1.0)

    def test_extension_from_string(self):
        assert GridConfig(4, 1.0, extension="odd").extension is Extension.ODD


class TestNodes:
    def test_n2_values(self):
        s = nodes(GridConfig(2, 1.0))
        expected = np.array([np.pi / 4, 3 * np.pi / 4, 5 * np.pi / 4, 7 * np.pi / 4])
        np.testing.assert_allclose(s, expected, rtol=0, atol=1e-15)

    def test_n4_endpoints(self):
        s = nodes(GridConfig(4, 1.0))
        assert s[0] == pytest.approx(np.pi / 8, abs=1e-15)
        assert s[3] == pytest.approx(7 * np.pi / 8, abs=1e-15)
        # last physical node sits half a spacing short of pi
        assert s[3] == pytest.approx(np.pi - np.pi / 8, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 4, 16, 64, 130])
    def test_uniform_spacing(self, n):
        s = nodes(GridConfig(n, 1.0))
        np.testing.assert_allclose(np.diff(s), np.pi / n, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_never_hits_poles(self, n):
        s = nodes(GridConfig(n, 1.0))
        assert np.all(np.mod(s, np.pi) != 0.0)


class TestMap:
    def test_midpoint(self):
        assert s_to_x(GridConfig(4, 1.0), np.pi / 2) == pytest.approx(0.0, abs=1e-15)

    def test_shift_and_scale(self):
        assert s_to_x(GridConfig(4, 2.0, x_center=3.0), np.pi / 4) == pytest.approx(5.0)

    def test_negative_branch(self):
        assert s_to_x(GridConfig(4, 1.0), 3 * np.pi / 4) == pytest.approx(-1.0)

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            s_to_x(GridConfig(4, 1.0), np.pi)
        with pytest.raises(ValueError):
            s_to_x(GridConfig(4, 1.0), 0.0)

    def test_inverse_center(self):
        cfg = GridConfig(4, 1.0, x_center=2.0)
        assert x_to_s(cfg, 2.0) == pytest.approx(np.pi / 2)

    def test_inverse_unit_offset(self):
        cfg = GridConfig(4, 1.0)
        assert x_to_s(cfg, 1.0) == pytest.approx(np.pi / 4)

    def test_lower_branch_negative_x(self):
        # single-argument arctan would land in (-pi/2, 0) here
        cfg = GridConfig(4, 1.0)
        s = x_to_s(cfg, -3.0)
        assert np.pi / 2 < s < np.pi

    @pytest.mark.parametrize("n", [2, 16, 128])
    @pytest.mark.parametrize("l_scale,x_center", [(1.0, 0.0), (4.6, 0.0), (0.3, -2.5)])
    def test_node_round_trip(self, n, l_scale, x_center):
        cfg = GridConfig(n, l_scale, x_center)
        s = nodes(cfg)
        x = s_to_x(cfg, s)
        for j in range(2 * n):
            # s_j and s_j - pi are the same x; the inverse lands in (0, pi)
            upper = np.pi if j >= n else 0.0
            assert x_to_s(cfg, x[j]) + upper == pytest.approx(s[j], rel=1e-12)

    def test_node_positions_decreasing(self):
        cfg = GridConfig(32, 2.0, x_center=1.0)
        x = node_positions(cfg)[:32]
        assert np.all(np.diff(x) < 0)
