import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import (
    continued,
    copy_off_line,
    dft_oracle,
    series_oracle,
    two_sided_image,
)
from fraclap.fisher import (
    BlowUpError,
    FisherRun,
    FrontEscapeError,
    FrontTrace,
    fit_sigma,
    front_position,
    initial_condition,
    rk4_stepper,
    run_simulation,
    _ols_rate,
    _spectral_tail,
)
from fraclap.grid import Extension, GridConfig, node_positions, nodes, x_to_s
from fraclap.opmatrix import (
    apply_sample_operator,
    build_matrix,
    fused_sample_operator,
    join_parity,
    split_parity,
)
from fraclap.oracles import closed_form_gaussian
from fraclap.spectral import evaluate, transform


@pytest.fixture(scope="module")
def gauss_setup():
    cfg = GridConfig(128, 4.6)
    matrix = build_matrix(cfg, 1.5, 500)
    return cfg, matrix, fused_sample_operator(matrix, cfg)


class TestInitialCondition:
    def test_value_at_origin(self):
        # (1/2)^(alpha/2) at x = 0
        for alpha in (0.5, 1.0, 1.95):
            assert initial_condition(0.0, alpha) == pytest.approx(2 ** (-alpha / 2))

    def test_limits(self):
        assert initial_condition(1e12, 0.8) == pytest.approx(0.0, abs=1e-9)
        assert initial_condition(-1e12, 0.8) == pytest.approx(1.0, rel=1e-9)

    def test_monotone_decreasing(self):
        x = np.linspace(-30, 30, 401)
        u = initial_condition(x, 1.3)
        assert np.all(np.diff(u) < 0)
        assert np.all((u > 0) & (u < 1))

    def test_half_crossing_alpha_one(self):
        # at alpha = 1 the 1/2-level sits at x = 1/sqrt(3)
        assert initial_condition(1.0 / math.sqrt(3.0), 1.0) == pytest.approx(0.5, rel=1e-13)

    def test_algebraic_tail_exponent(self):
        # u0 ~ (2x)^(-alpha): the slow-decay regime with front rate 1/alpha
        alpha = 1.4
        for x in (1e3, 1e4):
            assert initial_condition(x, alpha) == pytest.approx(
                (2.0 * x) ** (-alpha), rel=1e-5
            )

    def test_far_field_relative_accuracy(self):
        # on the criterion-7x grid the outer nodes sit near x = 1e5, where
        # 1/2 - x/(2*sqrt(1+x^2)) loses seven digits to cancellation
        alpha = 1.95
        x = node_positions(GridConfig(512, 1000.0 / alpha**3))
        got = initial_condition(x, alpha)
        with mpmath.workdps(40):
            worst = 0.0
            for xi, ui in zip(x, got):
                xm = mpmath.mpf(float(xi))
                ref = (mpmath.mpf(1) / 2 - xm / (2 * mpmath.sqrt(1 + xm * xm))) ** (
                    mpmath.mpf(alpha) / 2
                )
                worst = max(worst, float(abs((ui - ref) / ref)))
        assert worst <= 1e-15


def _stage_at(u, op):
    """The right-hand side at the n node values u, through the stage run_simulation's stepper runs."""
    p, stage, _ = rk4_stepper(op, 0.0)
    p[...] = split_parity(u)
    return join_parity(stage(p, *p))


def _integrate(u, dt, op, steps):
    """The node values after ``steps`` RK4 steps from u, on one stepper bound as run_simulation binds it."""
    p, _, step = rk4_stepper(op, dt)
    p[...] = split_parity(u)
    for _ in range(steps):
        step()
    return join_parity(p)


class TestRhs:
    def test_zero_state_is_equilibrium(self, gauss_setup):
        cfg, matrix, op = gauss_setup
        out = _stage_at(np.zeros(128), op)
        assert np.all(out == 0.0)

    def test_one_state_is_equilibrium(self, gauss_setup):
        # constants are annihilated up to the round-off of the folded product
        cfg, matrix, op = gauss_setup
        out = _stage_at(np.ones(128), op)
        assert np.max(np.abs(out)) <= 1e-11

    def test_gaussian_state_matches_closed_form(self, gauss_setup):
        cfg, matrix, op = gauss_setup
        x = node_positions(cfg)
        out = _stage_at(np.exp(-x * x), op)
        expected = -closed_form_gaussian(x, 1.5) + np.exp(-x * x) * (1 - np.exp(-x * x))
        assert np.max(np.abs(out - expected)) < 1e-8


class TestRk4Step:
    def test_one_state_is_fixed_point(self, gauss_setup):
        cfg, matrix, op = gauss_setup
        u = _integrate(np.ones(128), 0.01, op, 5)
        assert np.max(np.abs(u - 1.0)) <= 1e-13

    def test_blowup_detected(self, gauss_setup):
        cfg, matrix, op = gauss_setup
        u = np.full(128, 9.9)
        with pytest.raises(BlowUpError):
            _integrate(u, 0.5, op, 1)

    def test_nan_is_a_blowup(self, gauss_setup):
        # NaN > BLOWUP_LIMIT is False: the gate must not let NaN through
        cfg, matrix, op = gauss_setup
        u = np.full(128, 0.5)
        u[7] = np.nan
        with pytest.raises(BlowUpError):
            _integrate(u, 0.01, op, 1)

    def test_linearization_matches_closed_form(self, gauss_setup):
        # one small step from eps*u3: to first order in dt and eps,
        # u1 = eps*u3 + dt*eps*(-Lap(u3) + u3)
        cfg, matrix, op = gauss_setup
        x = node_positions(cfg)
        eps, dt = 1e-6, 1e-3
        u3 = np.exp(-x * x)
        stepped = _integrate(eps * u3, dt, op, 1)
        predicted = eps * u3 + dt * eps * (-closed_form_gaussian(x, 1.5) + u3)
        # neglected terms: O(dt^2 * eps) and O(dt * eps^2)
        assert np.max(np.abs(stepped - predicted)) < 5 * dt**2 * eps

    def test_folded_step_matches_filtered_stages(self, gauss_setup):
        # stages through the direct transform of the continued samples and the
        # two-sided sum over the stored unit-scale columns and their conjugates,
        # times L^(-alpha)
        cfg, matrix, op = gauss_setup
        x = node_positions(cfg)
        u = initial_condition(x, 1.5)
        dt = 0.01

        def f(v):
            image = two_sided_image(matrix.entries, dft_oracle(continued(v, "even")))
            lap = image.real * cfg.l_scale**-1.5
            return -lap + v * (1.0 - v)

        k1 = f(u)
        k2 = f(u + 0.5 * dt * k1)
        k3 = f(u + 0.5 * dt * k2)
        k4 = f(u + dt * k3)
        expected = u + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.max(np.abs(_integrate(u, dt, op, 1) - expected)) < 1e-11

    @pytest.mark.parametrize("n", [16, 512])
    def test_block_placement_does_not_change_steps(self, n):
        # the stage's GEMVs and ufuncs stream the blocks as they lie, and
        # fused_sample_operator puts them on a cache line: blocks 8, 16 and 48
        # bytes off one must give the same bits
        alpha = 1.95
        cfg = GridConfig(n, 1000.0 / alpha**3)
        blocks = fused_sample_operator(build_matrix(cfg, alpha, 40), cfg)
        u0 = initial_condition(node_positions(cfg), alpha)

        def run(op):
            states = [apply_sample_operator(op, u0), u0]
            p, _, step = rk4_stepper(op, 0.01)
            p[...] = split_parity(u0)
            for _ in range(3):
                step()
                states.append(join_parity(p))
            return states

        expected = run(blocks)
        for offset in (8, 16, 48):
            moved = copy_off_line(blocks, offset)
            assert moved.ctypes.data % 64 == offset
            for got, want in zip(run(moved), expected):
                assert np.array_equal(got, want)

    def test_bound_step_allocates_no_vector(self):
        # the bound stepper writes every GEMV and ufunc into its own work
        # arrays: 50 steps at n = 512 stay below one n-vector of allocations
        n, alpha = 512, 1.95
        cfg = GridConfig(n, 1000.0 / alpha**3)
        op = fused_sample_operator(build_matrix(cfg, alpha, 20), cfg)
        p, _, step = rk4_stepper(op, 0.01)
        p[...] = split_parity(initial_condition(node_positions(cfg), alpha))
        step()
        tracemalloc.start()
        try:
            for _ in range(50):
                step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n

    def test_temporal_order(self):
        # self-convergence on a smooth, mildly stiff run (dt*lambda well
        # inside the stability region): halving dt must shrink the error by
        # ~16 (measured order >= 3.8)
        cfg = GridConfig(64, 50.0)
        op = fused_sample_operator(build_matrix(cfg, 1.2, 200), cfg)
        u0 = initial_condition(node_positions(cfg), 1.2)

        def integrate(dt, t_end=0.8):
            return _integrate(u0, dt, op, int(round(t_end / dt)))

        ref = integrate(0.0125)
        errs = [np.max(np.abs(integrate(dt) - ref)) for dt in (0.2, 0.1, 0.05)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.8


class TestCosineTransform:
    """The DCT-II identities the real Fisher loop rests on."""

    @pytest.mark.parametrize("n", [16, 512])
    def test_dct_matches_complex_forward(self, n, rng):
        u = rng.standard_normal(n)
        full = dft_oracle(continued(u, "even"))
        c = transform(u, Extension.EVEN)
        scale = np.max(np.abs(u))
        assert np.max(np.abs(full[:n] - c)) <= 1e-15 * scale
        assert abs(full[n]) <= 1e-15 * scale  # the -n mode, omitted by the DCT

    def test_cosine_series_matches_interpolant(self):
        cfg = GridConfig(64, 2.0, 0.4)
        x = node_positions(cfg)
        u = np.exp(-x * x) + 0.3 / (1.0 + x * x)
        pts = 0.5 * (x[:-1] + x[1:])  # between the nodes
        series = evaluate(transform(u, Extension.EVEN), Extension.EVEN, cfg, pts)
        expected = series_oracle(dft_oracle(continued(u, "even")), x_to_s(cfg, pts)).real
        assert np.max(np.abs(series - expected)) <= 1e-13


class TestFrontPosition:
    def test_initial_crossing_alpha_one(self):
        cfg = GridConfig(256, 10.0)
        x = node_positions(cfg)
        got = front_position(cfg)(initial_condition(x, 1.0))[0]
        assert got == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-8)

    def test_synthetic_tanh_front(self):
        cfg = GridConfig(256, 5.0)
        x = node_positions(cfg)
        assert front_position(cfg)(0.5 * (1.0 - np.tanh(x - 3.0)))[0] == pytest.approx(3.0, abs=1e-6)

    def test_rightmost_crossing_wins(self):
        # a pulse ahead of the main front adds crossings near x = 6
        cfg = GridConfig(512, 5.0)
        x = node_positions(cfg)
        profile = 0.5 * (1.0 - np.tanh(x - 3.0)) + 0.8 * np.exp(-((x - 6.0) ** 2))
        got = front_position(cfg)(profile)[0]
        assert got > 6.0

    def test_no_crossing_raises(self):
        cfg = GridConfig(64, 1.0)
        with pytest.raises(FrontEscapeError):
            front_position(cfg)(np.full(64, 0.9))

    def test_node_value_one_ulp_above_half(self):
        # the series at x_j can fall below 1/2 by round-off although u_j > 1/2
        # (at 54 of 110 nodes tried, u_j one ulp either side); the bracket must hold
        cfg = GridConfig(64, 5.0)
        x = node_positions(cfg)
        find = front_position(cfg)
        for j in range(5, 60):
            u = 0.5 * (1.0 - np.tanh(x - x[j]))
            u[j] = np.nextafter(0.5, 1.0)
            assert find(u)[0] == pytest.approx(x[j], abs=1e-10 * max(1.0, abs(x[j])))

    def test_node_value_of_exactly_half_is_the_front(self):
        # a node at exactly 1/2 before any sign change is returned as it is,
        # whether or not a dip behind it crosses 1/2 again
        cfg = GridConfig(64, 5.0)
        x = node_positions(cfg)
        find = front_position(cfg)
        for j in range(7, 50):
            front = 0.5 * (1.0 - np.tanh(x - x[j]))
            dip = front - 0.8 * np.exp(-((x - x[j] + 3.0) ** 2))
            front[j] = dip[j] = 0.5
            behind = dip[j + 1 :] - 0.5
            assert np.any(behind[:-1] * behind[1:] < 0.0)  # the dip crosses 1/2 behind x_j
            assert find(front)[0] == find(dip)[0] == x[j]

    def test_matches_root_of_complex_interpolant(self):
        # the same crossing through the direct 2n complex transform and series
        # and a scalar root finder
        cfg = GridConfig(128, 7.0, -0.5)
        x = node_positions(cfg)
        u = initial_condition(x - 1.3, 1.6)
        coeffs = dft_oracle(continued(u, "even"))
        expected = brentq(
            lambda pt: series_oracle(coeffs, [x_to_s(cfg, pt)])[0].real - 0.5,
            0.0, 10.0, xtol=1e-14,
        )
        assert front_position(cfg)(u)[0] == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("n", [512, 1024])
    @pytest.mark.parametrize("alpha", [1.5, 1.95])
    def test_newton_matches_brentq_on_final_states(self, n, alpha):
        # the final state of a criterion-7 grid run; brentq on the same cosine
        # series and node bracket, run to the last few ulps
        cfg = GridConfig(n, 1000.0 / alpha**3)
        run = FisherRun(cfg=cfg, alpha=alpha, dt=0.01, t_final=3.0, l_lim=40)
        u = run_simulation(run, build_matrix(cfg, alpha, 40)).final_samples
        x = node_positions(cfg)
        c = transform(u, Extension.EVEN)
        d = u - 0.5
        j = int(np.nonzero(d[:-1] * d[1:] < 0.0)[0][0])
        expected = brentq(lambda pt: evaluate(c, Extension.EVEN, cfg, pt) - 0.5,
                          x[j + 1], x[j], xtol=1e-300, rtol=4 * np.finfo(float).eps)
        assert abs(front_position(cfg)(u)[0] - expected) <= 1e-12 * abs(expected)

    def test_bisection_where_series_derivative_vanishes(self):
        # u - 1/2 = g(cos s) with g(c) = (c - b)((c - m)^2 + e) has one root, at
        # c = b, inside the node bracket |c| < 0.098.  This m puts an extremum
        # of g at the secant start of the node values (c = -0.0335, g' ~ 1e-16),
        # so the first Newton step is unbounded, and Newton left to itself never
        # returns.  Bisection must take over
        cfg = GridConfig(16, 1.0)
        b, m, e = -0.06, 0.0174764608894931, 1e-4
        c = np.cos(nodes(cfg))
        u = 0.5 + (c - b) * ((c - m) ** 2 + e)
        assert front_position(cfg)(u)[0] == pytest.approx(b / math.sqrt(1.0 - b * b), abs=1e-12)

    def test_rejects_extended_samples(self):
        cfg = GridConfig(64, 1.0)
        with pytest.raises(ValueError):
            front_position(cfg)(np.linspace(1.0, 0.0, 128))

    def test_bound_finder_is_reusable(self):
        # one finder serves every sample of a run: a state found again gives
        # the same bits, and the coefficients it returned are its own array,
        # untouched by later calls
        cfg = GridConfig(128, 7.0)
        x = node_positions(cfg)
        a, b = initial_condition(x, 1.5), 0.5 * (1.0 - np.tanh(x - 2.0))
        find = front_position(cfg)
        x_a, c_a = find(a)
        kept = c_a.copy()
        x_b, c_b = find(b)
        x_again, c_again = find(a)
        assert x_again == x_a and x_b != x_a
        np.testing.assert_array_equal(c_again, kept)
        np.testing.assert_array_equal(c_a, kept)
        assert not np.shares_memory(c_a, c_b) and not np.shares_memory(c_a, c_again)


class TestFitSigma:
    def test_exact_exponential(self):
        t = np.linspace(0, 5, 51)
        x = np.exp(2.0 * t)
        sigma, resid = _ols_rate(t, x, (1.0, 5.0))
        assert sigma == pytest.approx(2.0, rel=1e-12)
        assert resid < 1e-12

    def test_trace_wrapper(self):
        t = np.linspace(0, 5, 51)
        x = 0.3 * np.exp(1.3 * t)
        trace = FrontTrace(times=t, x05=x, sigma=0.0, fit_window=(0, 5), fit_residual=0.0)
        assert fit_sigma(trace, (2.0, 5.0)) == pytest.approx(1.3, rel=1e-12)

    def test_needs_three_samples(self):
        with pytest.raises(ValueError):
            _ols_rate(np.array([0.0, 1.0]), np.array([1.0, 2.0]), (0.0, 1.0))

    def test_rejects_nonpositive_positions(self):
        t = np.linspace(0, 2, 21)
        x = np.linspace(-0.5, 1.5, 21)
        with pytest.raises(ValueError):
            _ols_rate(t, x, (0.0, 2.0))


class TestRunSimulation:
    def test_short_run_self_convergence(self):
        # halving dt changes recorded front positions by < 1e-6
        alpha = 1.5
        cfg = GridConfig(128, 1000.0 / alpha**3)
        matrix = build_matrix(cfg, alpha, 300)

        def trace(dt):
            run = FisherRun(
                cfg=cfg, alpha=alpha, dt=dt, t_final=0.5, l_lim=300,
                sample_stride=int(round(0.1 / dt)), fit_window=(0.2, 0.5),
            )
            return run_simulation(run, matrix).trace

        a = trace(0.01)
        b = trace(0.005)
        np.testing.assert_allclose(a.times, b.times, atol=1e-12)
        assert np.max(np.abs(a.x05 - b.x05)) < 1e-6

    def test_records_positive_diagnostics(self):
        alpha = 1.2
        cfg = GridConfig(64, 50.0)
        matrix = build_matrix(cfg, alpha, 200)
        run = FisherRun(cfg=cfg, alpha=alpha, dt=0.01, t_final=0.3, l_lim=200,
                        sample_stride=10, fit_window=(0.1, 0.3))
        result = run_simulation(run, matrix)
        assert result.diagnostics["max_imag"] == 0.0  # no imaginary part on the real path
        # the tail is read at the samples: t = 0 gives u0's, the last one the final state's
        tail = result.diagnostics["spectral_tail"]
        assert set(tail) == {"initial", "final", "max"}
        u0 = initial_condition(node_positions(cfg), alpha)
        assert tail["initial"] == _spectral_tail(transform(u0, Extension.EVEN))
        assert tail["final"] == _spectral_tail(transform(result.final_samples, Extension.EVEN))
        assert 0.0 < tail["initial"] <= tail["max"] and 0.0 < tail["final"] <= tail["max"]
        assert result.trace.times[0] == 0.0
        assert result.trace.times[-1] == pytest.approx(0.3)
        assert len(result.trace.times) == len(result.trace.x05)

    def test_snapshots(self):
        # the one snapshot kept is the final state: its n physical values, whose
        # 1/2-crossing is the last recorded front position
        alpha = 1.2
        cfg = GridConfig(64, 50.0)
        matrix = build_matrix(cfg, alpha, 200)
        run = FisherRun(cfg=cfg, alpha=alpha, dt=0.01, t_final=0.2, l_lim=200,
                        sample_stride=5, fit_window=(0.05, 0.2))
        result = run_simulation(run, matrix)
        assert result.final_samples.shape == (64,)
        assert front_position(cfg)(result.final_samples)[0] == result.trace.x05[-1]

    def test_every_step_state_is_the_rk4_result(self):
        # two steps from the initial condition: the state is the RK4 result
        # itself, kept in parity coordinates with no transform round trip and
        # no node values between steps, so it is two bound steps from split(u0)
        alpha = 1.2
        cfg = GridConfig(64, 50.0)
        matrix = build_matrix(cfg, alpha, 200)
        run = FisherRun(cfg=cfg, alpha=alpha, dt=0.01, t_final=0.02, l_lim=200,
                        sample_stride=1, fit_window=(0.0, 0.02))
        result = run_simulation(run, matrix)
        p, _, step = rk4_stepper(fused_sample_operator(matrix, cfg), 0.01)
        p[...] = split_parity(initial_condition(node_positions(cfg), alpha))
        step()
        step()
        np.testing.assert_array_equal(result.final_samples, join_parity(p))

    def test_spectral_tail_orders_the_grids(self):
        # tail(u0) as measured at n = 512: the criteria grids L = 1000/alpha^3
        # resolve the datum's algebraic tail less well than L = 40
        measured = {(1.95, 1000.0 / 1.95**3): 1.6870588638867785e-4,
                    (1.95, 40.0): 8.227135667476871e-8,
                    (1.5, 1000.0 / 1.5**3): 7.601497378309321e-4,
                    (1.5, 40.0): 5.700236961474764e-8}
        tails = {}
        for (alpha, l_scale), figure in measured.items():
            u0 = initial_condition(node_positions(GridConfig(512, l_scale)), alpha)
            tails[alpha, l_scale] = _spectral_tail(transform(u0, Extension.EVEN))
            assert tails[alpha, l_scale] == pytest.approx(figure, rel=1e-6)
        for alpha in (1.95, 1.5):
            assert tails[alpha, 1000.0 / alpha**3] > tails[alpha, 40.0]

    def test_rerun_is_bit_identical(self):
        alpha = 1.2
        cfg = GridConfig(64, 50.0)
        matrix = build_matrix(cfg, alpha, 200)
        run = FisherRun(cfg=cfg, alpha=alpha, dt=0.01, t_final=0.3, l_lim=200,
                        sample_stride=5, fit_window=(0.1, 0.3))
        a = run_simulation(run, matrix)
        b = run_simulation(run, matrix)
        np.testing.assert_array_equal(a.trace.x05, b.trace.x05)
        np.testing.assert_array_equal(a.final_samples, b.final_samples)

    def test_blas_thread_count_does_not_change_run(self, thread_count_runs):
        # n = 64, alpha = 1.2, t_final = 0.3: x05 trace and final samples, as hex
        assert thread_count_runs["1"]["run"] == thread_count_runs["2"]["run"]

    def test_blas_thread_count_does_not_change_run_at_block_size_256(self, thread_count_runs):
        # n = 512: the stage matvecs run on 256 x 256 parity blocks, large
        # enough for OpenBLAS to split them across threads
        assert thread_count_runs["1"]["run_512"] == thread_count_runs["2"]["run_512"]

    @pytest.mark.parametrize("field,changes", [
        ("l_lim", {"l_lim": 40}),
        ("alpha", {"alpha": 1.3}),
        ("n", {"cfg": GridConfig(32, 50.0)}),
        ("alpha, l_lim", {"alpha": 1.3, "l_lim": 40}),
    ], ids=["l_lim", "alpha", "n", "alpha_and_l_lim"])
    def test_supplied_matrix_must_match_run(self, field, changes):
        params = {"cfg": GridConfig(16, 50.0), "alpha": 1.2, "l_lim": 20}
        matrix = build_matrix(params["cfg"], params["alpha"], params["l_lim"])
        run = FisherRun(dt=0.01, t_final=0.02, **{**params, **changes})
        with pytest.raises(ValueError, match=f"different {field}$"):
            run_simulation(run, matrix)

    def test_matrix_serves_any_scale_and_shift(self):
        # the block reads only n of the grid it was built on: one built at
        # L = 1 drives a run at L = 50, x_c = 0.3 bit for bit like its own
        cfg = GridConfig(16, 50.0, 0.3)
        run = FisherRun(cfg=cfg, alpha=1.2, dt=0.01, t_final=0.1, l_lim=20,
                        sample_stride=2, fit_window=(0.0, 0.1))
        a = run_simulation(run, build_matrix(GridConfig(16, 1.0), 1.2, 20))
        b = run_simulation(run, build_matrix(cfg, 1.2, 20))
        np.testing.assert_array_equal(a.final_samples, b.final_samples)

    def test_overflow_raises_blowup_without_warnings(self):
        # a step of 1e100 overflows at once: the run must end in BlowUpError
        # with no numpy RuntimeWarning on the way
        cfg = GridConfig(64, 50.0)
        matrix = build_matrix(cfg, 1.2, 200)
        run = FisherRun(cfg=cfg, alpha=1.2, dt=1e100, t_final=1e101, l_lim=200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUpError, match="t = 1e[+]100"):
                run_simulation(run, matrix)

    def test_odd_extension_rejected(self):
        with pytest.raises(ValueError):
            FisherRun(
                cfg=GridConfig(64, 50.0, extension=Extension.ODD),
                alpha=1.2, dt=0.01, t_final=1.0,
            )

    def test_parameter_validation(self):
        cfg = GridConfig(64, 50.0)
        with pytest.raises(ValueError):
            FisherRun(cfg=cfg, alpha=1.2, dt=0.0, t_final=1.0)
        with pytest.raises(ValueError):
            FisherRun(cfg=cfg, alpha=2.4, dt=0.01, t_final=1.0)
        with pytest.raises(ValueError):
            FisherRun(cfg=cfg, alpha=1.2, dt=0.01, t_final=-1.0)
        with pytest.raises(ValueError, match="l_lim"):
            FisherRun(cfg=cfg, alpha=1.2, dt=0.01, t_final=1.0, l_lim=-1)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                FisherRun(cfg=cfg, alpha=1.2, dt=bad, t_final=1.0)
            with pytest.raises(ValueError, match="positive and finite"):
                FisherRun(cfg=cfg, alpha=1.2, dt=0.01, t_final=bad)

    def test_t_final_must_be_a_whole_number_of_steps(self):
        # round(t_final/dt) steps used to stop short: dt = 0.4 ended at t = 0.8, dt = 0.3 at 0.9
        cfg = GridConfig(16, 50.0)
        for dt in (0.4, 0.3):
            with pytest.raises(ValueError, match="whole number of steps"):
                FisherRun(cfg=cfg, alpha=1.2, dt=dt, t_final=1.0)
        # a ratio off an integer by round-off only (0.3/0.1 = 2.9999999999999996) is whole
        assert FisherRun(cfg=cfg, alpha=1.2, dt=0.1, t_final=0.3).n_steps == 3

    @pytest.mark.parametrize("changes, error", [
        ({"fit_window": (0.3, 0.1)}, ValueError),
        ({"fit_window": (math.nan, 1.0)}, ValueError),
        ({"fit_window": (0.1, math.inf)}, ValueError),
        ({"sample_stride": 2.5}, TypeError),
        ({"l_lim": 20.0}, TypeError),
        ({"sample_stride": True}, TypeError),
    ], ids=["empty-window", "nan-window", "inf-window", "float-stride", "float-l_lim", "bool-stride"])
    def test_bad_run_parameter_rejected_at_construction(self, changes, error):
        # before any step is taken, not at the fit or by a silently rounded stride
        with pytest.raises(error):
            FisherRun(cfg=GridConfig(16, 50.0), alpha=1.2, dt=0.01, t_final=1.0, **changes)
