"""Fractional Fisher-KPP fronts: time integration and speed measurement.

Solves u_t + (-Delta)^(alpha/2) u = u(1-u) on the mapped grid with the
classical fourth-order Runge-Kutta scheme, starting from the monotone
profile (1/2 - x/(2*sqrt(1+x^2)))^(alpha/2) that decays like (2x)^(-alpha)
to the right.  The solution is evenly extended across s = pi, so it is
given by its n real physical node values.  The operator commutes with
reflection about x_center, so the linear term is two real n/2 x n/2
blocks, one for the reflection-even and one for the reflection-odd part of
the solution (:func:`fraclap.opmatrix.fused_sample_operator`).  Between
steps the state is kept in those reflection-parity coordinates
(:func:`fraclap.opmatrix.split_parity`), where the blocks act on its rows
and the logistic term stays exact; node values are formed
(:func:`fraclap.opmatrix.join_parity`) only where the front is sampled.
For evenly extended data the phase-shifted transform is the DCT-II of
:func:`fraclap.spectral.transform` and the interpolant is its cosine
series.  The stable state u = 1 invades
u = 0 with exponentially increasing speed; the front position x05(t), where
the solution crosses 1/2, is located by bracketing on the nodes plus
Brent's method on the cosine series, and the rate sigma in x05 ~
exp(sigma*t) is obtained from a least-squares line through ln x05(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fraclap.grid import Extension, GridConfig, _check_integer, node_positions
from fraclap.opmatrix import OperatorMatrix, fused_sample_operator, join_parity, split_parity
from fraclap.spectral import evaluate, transform
from fraclap.symbol import aligned_empty, check_block

#: solutions of the monostable problem live in [0, 1]; exceeding this
#: max-norm can only come from numerical instability
BLOWUP_LIMIT = 10.0

_FRONT_XTOL = 1e-10


class BlowUpError(RuntimeError):
    """Solution max-norm exceeded the stability limit."""


class FrontEscapeError(RuntimeError):
    """No 1/2-crossing between adjacent nodes: the front left the grid."""


@dataclass(frozen=True)
class FisherRun:
    """Parameters of one simulation, each checked at construction."""

    cfg: GridConfig
    alpha: float
    dt: float
    t_final: float
    l_lim: int = 500
    sample_stride: int = 10
    fit_window: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        check_block(self.cfg.n, self.alpha, self.l_lim)
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not 0.0 < self.t_final < math.inf:
            raise ValueError(f"t_final must be positive and finite, got {self.t_final}")
        _check_integer("sample_stride", self.sample_stride)
        if self.sample_stride < 1:
            raise ValueError(f"sample_stride must be >= 1, got {self.sample_stride}")
        if self.fit_window is not None:
            lo, hi = self.fit_window
            if not -math.inf < lo < hi < math.inf:
                raise ValueError(f"fit_window must be finite with lo < hi, got {self.fit_window}")
        if self.cfg.extension is not Extension.EVEN:
            raise ValueError("simulations use the even extension")

    @property
    def n_steps(self) -> int:
        """Number of RK4 steps from t = 0 to t_final."""
        return int(round(self.t_final / self.dt))


@dataclass(frozen=True)
class FrontTrace:
    """Recorded front positions and the fitted exponential rate."""

    times: np.ndarray
    x05: np.ndarray
    sigma: float
    fit_window: tuple[float, float]
    fit_residual: float


@dataclass
class FisherResult:
    trace: FrontTrace
    final_samples: np.ndarray
    diagnostics: dict


def initial_condition(x, alpha: float):
    """(1/2 - x/(2*sqrt(1+x^2)))^(alpha/2): monotone from 1 at -inf to 0 at +inf.

    The right tail decays like (2x)^(-alpha), slower than the |x|^(-1-alpha)
    kernel tail for every alpha in (0, 2), which is the slow-decay regime
    whose half-level position grows like exp(t/alpha).  A steeper power
    would put alpha > 1 in the kernel-dominated regime with the strictly
    smaller rate 1/(1+alpha) and the measured front speeds would no longer
    approach 1/alpha.  For x > 0 the base is evaluated as 1/(2r(r + x)),
    r = sqrt(1 + x^2), which does not cancel in the far field.
    """
    x = np.asarray(x, dtype=float)
    r = np.sqrt(1.0 + x * x)
    base = np.where(x > 0.0, 0.5 / (r * (r + np.abs(x))), 0.5 - x / (2.0 * r))
    out = base ** (alpha / 2.0)
    return float(out) if out.ndim == 0 else out


def _parity_stepper(op: np.ndarray, dt: float):
    """One run's RK4 stepper in reflection-parity coordinates, bound to work arrays allocated here.

    Returns ``(p, stage, step)``.  ``p`` is the (2, n/2) state [e; o] of
    :func:`fraclap.opmatrix.split_parity`, with e = v + w and o = v - w for
    v = u[:n/2] and w = u[n/2:] reversed.  The parity blocks ``op`` act on
    its rows, and the logistic term is exact in these coordinates:
    u(1-u) splits into e - (e^2 + o^2)/2 and o - e*o.  ``stage(s, e, o)``
    writes the right-hand side at the state s = [e; o] into a work array
    and returns it.  ``step()`` advances ``p`` in place by one classical
    RK4 step of ``dt`` and raises :class:`BlowUpError` when the max-norm of
    the node values, max(|e| + |o|)/2, exceeds :data:`BLOWUP_LIMIT` or is
    NaN.  Every work array and row view is bound here, and every GEMV and
    ufunc writes through ``out=``, so a step allocates no array.
    """
    half = op.shape[1]
    work = aligned_empty((10, half))
    p, y, k, g, acc = work[0:2], work[2:4], work[4:6], work[6:8], work[8:10]
    p0, p1 = p
    y0, y1 = y
    k0, k1 = k
    g0, g1 = g
    b0, b1 = op
    matmul, add, subtract, multiply = np.matmul, np.add, np.subtract, np.multiply
    half_dt, sixth_dt = 0.5 * dt, dt / 6.0

    def stage(s, e, o):
        multiply(s, s, out=k)  # [e^2, o^2]
        add(k0, k1, out=k0)
        multiply(k0, 0.5, out=k0)
        multiply(e, o, out=k1)  # k = [(e^2 + o^2)/2, e*o]
        matmul(b0, e, out=g0)
        matmul(b1, o, out=g1)
        add(g, k, out=k)
        subtract(s, k, out=k)
        return k

    def step():
        stage(p, p0, p1)  # k1
        np.copyto(acc, k)
        multiply(k, half_dt, out=y)
        add(p, y, out=y)
        stage(y, y0, y1)  # k2
        multiply(k, half_dt, out=y)
        add(p, y, out=y)
        multiply(k, 2.0, out=k)
        add(acc, k, out=acc)
        stage(y, y0, y1)  # k3
        multiply(k, dt, out=y)
        add(p, y, out=y)
        multiply(k, 2.0, out=k)
        add(acc, k, out=acc)
        stage(y, y0, y1)  # k4
        add(acc, k, out=acc)  # k1 + 2*k2 + 2*k3 + k4
        multiply(acc, sixth_dt, out=acc)
        add(p, acc, out=p)
        np.abs(p, out=g)  # max |u| over a node and its mirror is (|e| + |o|)/2
        add(g0, g1, out=g0)
        peak = 0.5 * float(g0.max())
        if not peak <= BLOWUP_LIMIT:  # also catches NaN
            raise BlowUpError(f"max-norm {peak:.3g} exceeds {BLOWUP_LIMIT}; reduce dt or raise n")

    return p, stage, step


def rhs(samples, op: np.ndarray) -> np.ndarray:
    """-(-Delta)^(alpha/2) u + u(1-u) on the n physical nodes (method of lines).

    ``op`` is the pair of parity blocks from
    :func:`fraclap.opmatrix.fused_sample_operator`.  The samples are split
    into parity coordinates, go through the stage of
    :func:`_parity_stepper` and are joined back.
    """
    p, stage, _ = _parity_stepper(op, 0.0)
    p[...] = split_parity(samples)
    return join_parity(stage(p, *p))


def rk4_step(samples, dt: float, op: np.ndarray) -> np.ndarray:
    """One classical Runge-Kutta step of the n physical values: the step of :func:`_parity_stepper`."""
    p, _, step = _parity_stepper(op, dt)
    p[...] = split_parity(samples)
    step()
    return join_parity(p)


def front_position(samples, cfg: GridConfig) -> float:
    """x where the solution crosses 1/2, from the right-most node bracket.

    ``samples`` are the n physical node values.  Node positions decrease with
    j, so the smallest j with a sign change of u - 1/2 between neighbours
    gives the largest-x (invading) crossing.  Brent's method then finds the
    root of the cosine-series interpolant inside that bracket to
    1e-10 * max(1, |x|).
    """
    u = np.asarray(samples, dtype=float)
    if u.shape != (cfg.n,):
        raise ValueError(f"expected {cfg.n} physical samples, got shape {u.shape}")
    return _crossing(u, transform(u, Extension.EVEN), cfg, node_positions(cfg))


def _crossing(u: np.ndarray, c: np.ndarray, cfg: GridConfig, x: np.ndarray) -> float:
    """:func:`front_position` of the n values u at the nodes x, whose cosine coefficients are c."""
    from scipy.optimize import brentq  # on first use, like quad in fraclap.oracles

    d = u - 0.5
    hit = np.nonzero(d == 0.0)[0]
    crossings = np.nonzero(d[:-1] * d[1:] < 0.0)[0]
    if hit.size and (not crossings.size or hit[0] < crossings[0]):
        return float(x[hit[0]])
    if not crossings.size:
        raise FrontEscapeError("no 1/2-crossing between adjacent nodes")
    j = int(crossings[0])
    lo, hi = float(x[j + 1]), float(x[j])  # lo < hi
    ends = {lo: d[j + 1], hi: d[j]}  # node values: their signs are known to differ

    def g(pt: float) -> float:
        return ends[pt] if pt in ends else evaluate(c, Extension.EVEN, cfg, pt) - 0.5

    return float(brentq(g, lo, hi, xtol=_FRONT_XTOL * max(1.0, abs(hi))))


def _spectral_tail(coeffs) -> float:
    """max |c_k| over the last eighth of the coefficients over max |c_k| (Boyd 2001, ch. 2)."""
    c = np.abs(coeffs)
    return float(np.max(c[7 * c.size // 8 :]) / np.max(c))


def _ols_rate(trace_times, trace_x05, window: tuple[float, float]) -> tuple[float, float]:
    """Least-squares slope of ln x05 against t inside the window.

    Returns (sigma, max absolute residual of the fitted line).  Requires at
    least three samples with positive front position in the window.
    """
    t = np.asarray(trace_times, dtype=float)
    x = np.asarray(trace_x05, dtype=float)
    lo, hi = window
    mask = (t >= lo) & (t <= hi)
    if np.any(mask & (x <= 0.0)):
        raise ValueError("front positions must be positive inside the fit window")
    t, x = t[mask], x[mask]
    if t.size < 3:
        raise ValueError(f"need at least 3 samples in the fit window, got {t.size}")
    logx = np.log(x)
    slope, intercept = np.polyfit(t, logx, 1)
    residual = float(np.max(np.abs(logx - (slope * t + intercept))))
    return float(slope), residual


def fit_sigma(trace: "FrontTrace", window: tuple[float, float]) -> float:
    """Exponential rate of an existing trace over a (possibly new) window."""
    return _ols_rate(trace.times, trace.x05, window)[0]


def run_simulation(run: FisherRun, matrix: OperatorMatrix) -> FisherResult:
    """Integrate from the standard initial condition and fit the front rate.

    ``matrix`` (the unit-scale block, built or loaded from a cache file)
    must match the run's n, alpha and l_lim; it is folded once, at the run's
    map scale, into the two n/2 x n/2 parity blocks of the stage operator.
    Between steps the state stays in the reflection-parity coordinates of
    :func:`_parity_stepper`, whose work arrays are bound once per run; each
    step's state is the RK4 result.  Node values are formed only at t = 0,
    every ``sample_stride`` steps and at the last step, where one DCT of
    them gives the front position and the spectral tail
    (:func:`_spectral_tail`).  The fit window defaults to the last 40% of
    the run.  Numpy floating-point warnings are silenced in the loop: a
    step that overflows ends in :class:`BlowUpError`.  ``diagnostics``
    holds ``spectral_tail`` (``initial``, ``final`` and ``max`` over the
    samples), the extreme final node values ``final_min`` and
    ``final_max``, ``max_imag``: always 0.0 on the real path, kept because
    the fisher-front benchmark gate reads it, and ``timings``: ``fold_s``
    (folding the blocks, binding the stepper and the initial state),
    ``step_s`` (the RK4 steps) and ``track_s`` (node values, DCT, front
    position and tail at the samples), clocked once per front sample.
    """
    from time import perf_counter  # here, so that import fraclap gains no module-level import

    cfg, meta = run.cfg, matrix.meta
    wanted = {"n": cfg.n, "alpha": run.alpha, "l_lim": run.l_lim}
    differ = [name for name, value in wanted.items() if getattr(meta, name) != value]
    if differ:
        raise ValueError(f"matrix was built for a different {', '.join(differ)}")
    t_start = perf_counter()
    op = fused_sample_operator(matrix, cfg)
    x = node_positions(cfg)
    u = initial_condition(x, run.alpha)
    p, _, step_once = _parity_stepper(op, run.dt)
    p[...] = split_parity(u)

    n_steps = run.n_steps
    times, fronts, tails = [], [], []
    mark = perf_counter()
    fold_s, step_s, track_s = mark - t_start, 0.0, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_steps + 1):  # step 0 samples the initial condition
            t = step * run.dt
            if step:
                try:
                    step_once()
                except BlowUpError as exc:
                    raise BlowUpError(f"t = {t:.6g}: {exc}") from exc
                if step % run.sample_stride and step != n_steps:
                    continue
            now = perf_counter()
            step_s += now - mark
            if step:
                u = join_parity(p)
            c = transform(u, Extension.EVEN)
            try:
                fronts.append(_crossing(u, c, cfg, x))
            except FrontEscapeError as exc:
                raise FrontEscapeError(f"t = {t:.6g}: {exc}") from exc
            times.append(t)
            tails.append(_spectral_tail(c))
            mark = perf_counter()
            track_s += mark - now

    window = run.fit_window if run.fit_window is not None else (0.6 * run.t_final, run.t_final)
    sigma, residual = _ols_rate(times, fronts, window)
    trace = FrontTrace(
        times=np.asarray(times),
        x05=np.asarray(fronts),
        sigma=sigma,
        fit_window=window,
        fit_residual=residual,
    )
    diagnostics = {
        "max_imag": 0.0,
        "spectral_tail": {"initial": tails[0], "final": tails[-1], "max": max(tails)},
        "final_max": float(np.max(u)),
        "final_min": float(np.min(u)),
        "timings": {"fold_s": fold_s, "step_s": step_s, "track_s": track_s},
    }
    return FisherResult(
        trace=trace,
        final_samples=u,
        diagnostics=diagnostics,
    )
