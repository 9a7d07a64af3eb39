"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Expected wall time is
well under a minute; the Fisher runs of criterion 7 dominate.

Criteria 7a and 7b check the front rate on the criterion-7 grid (n = 512,
dt = 0.01, L = 1000/alpha^3, l_lim = 500): sigma fitted past the transient of
the equation itself, over [10, 14] at alpha = 1.95 and [7, 10] at
alpha = 1.5, must lie within 2% and 5% of 1/alpha.  On the earlier window
[4, 7] the rate is still 23.7% (alpha = 1.95) and 7.0% (alpha = 1.5) below
1/alpha; the local gap at alpha = 1.95 falls from 15% on [6, 7] to 3.0% on
[8, 9] and 0.6% on [10, 11].  That gap belongs to the PDE with this initial
datum, not to the discretisation, so on [4, 7] each test checks instead that
a second grid (n = 256, its own operator matrix) gives the same rate to 1e-3.
The long runs are integrated once and shared with criterion 7x.
"""

import math

import numpy as np
import pytest
from scipy.fft import dct, dst

from conftest import (
    alpha_one_even_images,
    continued,
    dft_oracle,
    gamma_ratio_ref_hp,
    odd_ratio_args,
    two_sided_image,
)
from fraclap.fisher import FisherRun, fit_sigma, initial_condition, rk4_step, run_simulation
from fraclap.gammaratio import ratio_vector
from fraclap.grid import Extension, GridConfig, node_positions, nodes
from fraclap.opmatrix import apply, build_matrix, fractional_laplacian, fused_sample_operator
from fraclap.oracles import (
    alpha_grid,
    closed_form_gaussian,
    closed_form_mode2,
    error_scan,
    quadrature_fraclap,
    scale_sweep,
    test_function,
)
from fraclap.spectral import evaluate, transform
from fraclap.symbol import even_mode_columns, symbol_samples

THIN_GRID_WITH_ONE = alpha_grid(0.05, 1.95, 0.05)
THIN_GRID = THIN_GRID_WITH_ONE[np.abs(THIN_GRID_WITH_ONE - 1.0) > 1e-12]


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. single-mode accuracy table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,l_lim,reported",
    [(4, 530, 5.0268e-13), (16, 360, 4.9461e-13), (128, 210, 5.0219e-13)],
)
def test_criterion1_mode2_error_table(n, l_lim, reported):
    scan = error_scan("mode2", GridConfig(n, 1.0), l_lim, THIN_GRID)
    ratio = scan.global_max / reported
    _report(
        f"criterion 1 (n={n}, l_lim={l_lim})",
        1.0 / 3.0 <= ratio <= 3.0,
        f"global max {scan.global_max:.3e} vs reported {reported:.3e} (ratio {ratio:.2f})",
    )


# ---------------------------------------------------------------------------
# 2. truncation-stability curve
# ---------------------------------------------------------------------------


def test_criterion2_truncation_stability():
    cfg = GridConfig(128, 1.0)
    coarse = error_scan("mode2", cfg, 0, THIN_GRID).global_max

    def single_alpha_error(l_lim):
        numeric = symbol_samples(0.5, cfg.n, l_lim)
        exact = closed_form_mode2(nodes(cfg), 0.5)
        return float(np.max(np.abs(numeric - exact)))

    drift = abs(single_alpha_error(300) - single_alpha_error(1000))
    ok = 1e-3 <= coarse <= 1e-2 and drift <= 1e-12
    _report(
        "criterion 2",
        ok,
        f"l_lim=0 global max {coarse:.3e} (target [1e-3, 1e-2]); "
        f"|err(300)-err(1000)| at alpha=0.5 = {drift:.2e} (<= 1e-12)",
    )


# ---------------------------------------------------------------------------
# 3. Gaussian accuracy table, even and odd extensions
# ---------------------------------------------------------------------------


def _gaussian_table_errors(n: int):
    worst = {"even": 0.0, "odd": 0.0}
    cfg_even = GridConfig(n, 1.0, extension=Extension.EVEN)
    x = node_positions(cfg_even)
    u = np.exp(-x * x)
    for alpha in THIN_GRID_WITH_ONE:
        matrix = build_matrix(cfg_even, float(alpha), 500)
        exact = closed_form_gaussian(x, float(alpha))
        for parity in ("even", "odd"):
            cfg = GridConfig(n, 1.0, extension=Extension(parity))
            numeric = fractional_laplacian(u, matrix, cfg)
            worst[parity] = max(worst[parity], float(np.max(np.abs(numeric - exact))))
    return worst


@pytest.mark.parametrize(
    "n,reported_even,reported_odd",
    [(16, 1.4269e-2, 1.7825e-2), (64, 1.4351e-6, 1.6891e-6), (128, 1.5947e-10, 1.8755e-10)],
)
def test_criterion3_gaussian_error_table(n, reported_even, reported_odd):
    worst = _gaussian_table_errors(n)
    r_even = worst["even"] / reported_even
    r_odd = worst["odd"] / reported_odd
    ok = 1 / 3 <= r_even <= 3 and 1 / 3 <= r_odd <= 3
    _report(
        f"criterion 3 (n={n})",
        ok,
        f"even {worst['even']:.3e} (ratio {r_even:.2f}), "
        f"odd {worst['odd']:.3e} (ratio {r_odd:.2f})",
    )


# ---------------------------------------------------------------------------
# 4. map-scale sweep optimum
# ---------------------------------------------------------------------------


def test_criterion4_scale_sweep_optimum():
    l_values = np.round(np.arange(0.1, 10.01, 0.1), 10)
    errors = scale_sweep(64, l_values, THIN_GRID_WITH_ONE, 500, Extension.EVEN)
    i = int(np.argmin(errors))
    best_l, best_err = float(l_values[i]), float(errors[i])
    ok = 4.0 <= best_l <= 5.2 and best_err <= 5e-12
    _report(
        "criterion 4",
        ok,
        f"minimum {best_err:.3e} at L = {best_l} (target L in [4.0, 5.2], error <= 5e-12)",
    )


# ---------------------------------------------------------------------------
# 5. exactness of the alpha = 1 even-mode formula
# ---------------------------------------------------------------------------


def test_criterion5_alpha_one_even_modes_exact():
    # the unit-scale symbol, and the scaled block applied to each even mode
    # (2*Re of the column on even data, 2*Im on odd data) at L = 2.5, against
    # k*sin^2(s)*exp(i*k*s) with its phase reduced exactly
    worst = 0.0
    for n, l_scale in ((16, 1.0), (64, 2.5)):
        even = GridConfig(n, l_scale)
        odd = GridConfig(n, l_scale, extension=Extension.ODD)
        matrix = build_matrix(even, 1.0, 0)
        unit = np.eye(n)
        columns = even_mode_columns(n, 1.0)
        images = alpha_one_even_images(n, range(2, n - 1, 2))
        for k in range(2, n - 1, 2):
            numeric = columns[:, k // 2 - 1]
            exact = images[:, k // 2 - 1]
            scaled = (apply(matrix, unit[k], even), apply(matrix, unit[k - 1], odd))
            worst = max(worst, float(np.max(np.abs(numeric - exact))),
                        float(np.max(np.abs(scaled[0] - 2.0 * exact.real / l_scale))),
                        float(np.max(np.abs(scaled[1] - 2.0 * exact.imag / l_scale))))
    _report("criterion 5", worst <= 1e-13, f"max deviation {worst:.2e} (<= 1e-13)")


# ---------------------------------------------------------------------------
# 6. matrix route vs quadrature oracle off the nodes
# ---------------------------------------------------------------------------


def test_criterion6_oracle_equivalence():
    cfg = GridConfig(128, 4.6)
    x_nodes = node_positions(cfg)
    u = np.exp(-x_nodes * x_nodes)
    gauss = test_function("u3_gaussian")
    worst = 0.0
    for alpha in (0.4, 1.0, 1.6):
        matrix = build_matrix(cfg, alpha, 500)
        # the image is a function of x: its cosine series interpolates the node values
        lap_coeffs = transform(fractional_laplacian(u, matrix, cfg), Extension.EVEN)
        for x in (-2.0, 0.0, 1.0):
            numeric = evaluate(lap_coeffs, Extension.EVEN, cfg, x)
            reference = quadrature_fraclap(gauss, x, alpha)
            worst = max(worst, abs(numeric - reference))
    _report("criterion 6", worst <= 1e-6, f"max |matrix - quadrature| {worst:.2e} (<= 1e-6)")


# ---------------------------------------------------------------------------
# 7. Fisher front rates
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fisher_matrices():
    out = {}
    for alpha, n in ((1.95, 512), (1.5, 512), (0.5, 1024)):
        l_scale = 1000.0 / alpha**3 if alpha != 0.5 else 8000.0
        cfg = GridConfig(n, l_scale)
        out[(alpha, n)] = cfg, build_matrix(cfg, alpha, 500)
    return out


def _front_trace(cfg, matrix, alpha, t_final, window=None):
    run = FisherRun(
        cfg=cfg, alpha=alpha, dt=0.01, t_final=t_final,
        l_lim=matrix.meta.l_lim, sample_stride=10, fit_window=window,
    )
    return run_simulation(run, matrix).trace


def _rel_gap(sigma, alpha):
    return abs(sigma - 1.0 / alpha) * alpha


@pytest.fixture(scope="module")
def fisher_traces(fisher_matrices):
    """n = 512 front traces, each integrated once: alpha = 1.95 to t = 14, 1.5 to t = 10."""
    return {
        alpha: _front_trace(*fisher_matrices[(alpha, 512)], alpha, t_final)
        for alpha, t_final in ((1.95, 14.0), (1.5, 10.0))
    }


def _check_front_rate(name, trace, alpha, window, bound, check_grid):
    """sigma on ``window`` within ``bound`` of 1/alpha; sigma on [4, 7] grid-independent.

    ``check_grid`` is the (n, L) of a second discretisation, run to t = 7 with
    its own matrix, whose rate on [4, 7] must match the trace's to 1e-3.
    """
    sigma = fit_sigma(trace, window)
    gap = _rel_gap(sigma, alpha)
    early = fit_sigma(trace, (4.0, 7.0))
    n, l_scale = check_grid
    check_cfg = GridConfig(n, l_scale)
    check_matrix = build_matrix(check_cfg, alpha, 500)
    check = _front_trace(check_cfg, check_matrix, alpha, 7.0, (4.0, 7.0)).sigma
    spread = abs(early - check) / check
    _report(
        name,
        gap <= bound and spread <= 1e-3,
        f"fit [{window[0]:g},{window[1]:g}]: sigma {sigma:.5f} vs 1/alpha {1 / alpha:.5f}, "
        f"rel gap {gap:.2%} (<= {bound:.0%}); fit [4,7]: sigma {early:.5f} "
        f"(transient, rel gap {_rel_gap(early, alpha):.1%}) vs {check:.5f} at n={n}, "
        f"L={l_scale:g}, rel diff {spread:.1e} (<= 1e-3)",
    )


def test_criterion7a_front_rate_alpha195(fisher_traces):
    _check_front_rate(
        "criterion 7a (alpha=1.95, n=512, t_final=14)",
        fisher_traces[1.95], 1.95, (10.0, 14.0), 0.02, (256, 40.0),
    )


def test_criterion7b_front_rate_alpha150(fisher_traces):
    _check_front_rate(
        "criterion 7b (alpha=1.5, n=512, t_final=10)",
        fisher_traces[1.5], 1.5, (7.0, 10.0), 0.05, (256, 60.0),
    )


def test_criterion7c_front_rate_alpha05(fisher_matrices):
    trace = _front_trace(*fisher_matrices[(0.5, 1024)], 0.5, 7.0, (4.0, 7.0))
    sigma = trace.sigma
    ok = 1.85 <= sigma <= 2.0
    _report(
        "criterion 7c (alpha=0.5, n=1024)",
        ok,
        f"sigma {sigma:.5f} in [1.85, 2.0], rel gap {_rel_gap(sigma, 0.5):.2%}, "
        f"ln-fit residual {trace.fit_residual:.2e}",
    )


def test_criterion7x_front_rates_converge_on_longer_horizon(fisher_traces):
    # same resolutions and steps; the horizon extended past the transient
    sigma195 = fit_sigma(fisher_traces[1.95], (10.0, 14.0))
    sigma150 = fit_sigma(fisher_traces[1.5], (7.0, 10.0))
    gap195, gap150 = _rel_gap(sigma195, 1.95), _rel_gap(sigma150, 1.5)
    ok = gap195 <= 0.02 and gap150 <= 0.05
    _report(
        "criterion 7x (extended horizon)",
        ok,
        f"alpha=1.95: sigma {sigma195:.5f} gap {gap195:.2%} (fit [10,14]); "
        f"alpha=1.5: sigma {sigma150:.5f} gap {gap150:.2%} (fit [7,10])",
    )


def test_criterion7x_rates_pinned(fisher_traces):
    # sigma of the complex 2n filter round trip and bisection front tracking
    # that the real DCT loop replaced; any rewrite of the loop must keep it
    for alpha, window, pinned in ((1.95, (10.0, 14.0), 0.5115985136292366),
                                  (1.5, (7.0, 10.0), 0.6588400163571466)):
        sigma = fit_sigma(fisher_traces[alpha], window)
        rel = abs(sigma - pinned) / pinned
        _report(f"criterion 7x pin (alpha={alpha:g})", rel <= 1e-9,
                f"sigma {sigma!r} vs pinned {pinned!r}, rel diff {rel:.1e} (<= 1e-9)")


# ---------------------------------------------------------------------------
# 8. property suites with no reported numbers
# ---------------------------------------------------------------------------


def test_criterion8_transform_round_trip(rng):
    # DCT-II/III and DST-II/III pairs: the type-3 transforms sum the cosine and
    # sine series of the coefficients at the nodes
    worst = 0.0
    n = 2
    while n <= 256:
        u = rng.standard_normal(n)
        for parity, inverse in ((Extension.EVEN, dct), (Extension.ODD, dst)):
            back = inverse(transform(u, parity), type=3)
            worst = max(worst, float(np.max(np.abs(back - u))))
        n *= 2
    _report("criterion 8: transform round trip", worst <= 1e-12, f"max {worst:.2e}")


def test_criterion8_matrix_linearity_and_conjugation(rng):
    cfg = GridConfig(16, 1.0)
    matrix = build_matrix(cfg, 0.7, 200)
    lin = conj = 0.0
    for parity in ("even", "odd"):
        grid = GridConfig(16, 1.0, extension=Extension(parity))
        v1, v2 = rng.standard_normal(16), rng.standard_normal(16)
        lhs = apply(matrix, 2.0 * v1 - 0.5 * v2, grid)
        rhs = 2.0 * apply(matrix, v1, grid) - 0.5 * apply(matrix, v2, grid)
        lin = max(lin, float(np.max(np.abs(lhs - rhs))))
        # the stored columns act on +k and their conjugates on -k
        u = rng.standard_normal(16)
        full = two_sided_image(matrix.entries, dft_oracle(continued(u, parity)))
        conj = max(conj, float(np.max(np.abs(apply(matrix, transform(u, parity), grid) - full))))
    ok = lin <= 1e-12 and conj <= 1e-12
    _report(
        "criterion 8: linearity + conjugation",
        ok,
        f"linearity {lin:.2e} (<= 1e-12), real apply vs two-sided sum over +-k {conj:.2e} "
        f"(<= 1e-12)",
    )


def test_criterion8_gamma_tables_vs_log_gamma(rng):
    # the odd block's two vectors at n = 32, l_lim = 40
    lengths = (1329, 1344)
    specs = [(ratio_vector(a, b, size), a, b) for (a, b), size in zip(odd_ratio_args(0.65), lengths)]
    worst = 0.0
    for _ in range(100):
        vec, a, b = specs[int(rng.integers(0, 2))]
        m = int(rng.integers(0, vec.size))
        ref = gamma_ratio_ref_hp(a, b, m)
        worst = max(worst, abs(vec[m] - ref) / abs(ref))
    _report(
        "criterion 8: gamma tables vs log-gamma",
        worst <= 1e-12,
        f"max relative deviation {worst:.2e} on 100 random entries (<= 1e-12)",
    )


def test_criterion8_rk4_measured_order():
    cfg = GridConfig(64, 50.0)
    op = fused_sample_operator(build_matrix(cfg, 1.2, 200), cfg)
    u0 = initial_condition(node_positions(cfg), 1.2)

    def integrate(dt, t_end=0.8):
        u = u0.copy()
        for _ in range(int(round(t_end / dt))):
            u = rk4_step(u, dt, op)
        return u

    ref = integrate(0.0125)
    errs = [np.max(np.abs(integrate(dt) - ref)) for dt in (0.2, 0.1, 0.05)]
    order = min(math.log2(errs[i] / errs[i + 1]) for i in range(2))
    _report("criterion 8: RK4 order", order >= 3.8, f"measured order {order:.2f} (>= 3.8)")
