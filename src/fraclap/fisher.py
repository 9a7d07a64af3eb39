"""Fractional Fisher-KPP fronts: time integration and speed measurement.

Solves u_t + (-Delta)^(alpha/2) u = u(1-u) on the mapped grid with the
classical fourth-order Runge-Kutta scheme, starting from the monotone
profile (1/2 - x/(2*sqrt(1+x^2)))^(alpha/2).  The solution is evenly
extended across s = pi, so it is given by its n real physical node values.
The operator commutes with reflection about x_center, so between steps the
state is kept in reflection-parity coordinates
(:func:`fraclap.opmatrix.split_parity`), where the linear term is the two
real n/2 x n/2 blocks of :func:`fraclap.opmatrix.fused_sample_operator`
and the logistic term stays exact; node values
(:func:`fraclap.opmatrix.join_parity`) are formed only where the front is
sampled.  The front position x05(t), where the solution crosses 1/2, comes
from :func:`front_position`, and the rate sigma in x05 ~ exp(sigma*t) from
a least-squares line through ln x05(t).  The path needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fraclap.grid import Extension, GridConfig, _check_integer, node_positions, nodes
from fraclap.opmatrix import OperatorMatrix, fused_sample_operator, join_parity, split_parity
from fraclap.spectral import cosine_transform
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
        ratio = self.t_final / self.dt
        if not abs(ratio - round(ratio)) <= 1e-9 * ratio:
            raise ValueError(
                f"t_final must be a whole number of steps dt, got t_final/dt = {ratio:.12g}"
            )
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
        """Number of RK4 steps from t = 0 to t_final, a whole number at construction."""
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

    Scalar input returns a float, array input an array.  The right tail
    decays like (2x)^(-alpha).  The front rate is 1/alpha for this datum and
    for any front datum (u = 1 at -inf) whose right tail decays at least
    like x^(-alpha): the image of the left state decays like x^(-alpha), so
    u ~ exp(t)*x^(-alpha) far right, and a steeper tail keeps that rate
    (ROADMAP item 23 has the runs).  Only a datum that vanishes at both
    ends spreads at the kernel-tail rate 1/(1+alpha).  For x > 0 the base
    is evaluated as 1/(2r(r + x)), r = sqrt(1 + x^2), which does not cancel
    in the far field.
    """
    x = np.asarray(x, dtype=float)
    r = np.sqrt(1.0 + x * x)
    base = np.where(x > 0.0, 0.5 / (r * (r + np.abs(x))), 0.5 - x / (2.0 * r))
    out = base ** (alpha / 2.0)
    return float(out) if out.ndim == 0 else out


def rk4_stepper(op: np.ndarray, dt: float):
    """One run's RK4 stepper in reflection-parity coordinates, bound to work arrays allocated here.

    Returns ``(p, stage, step)``.  ``p`` is the (2, n/2) state [e; o] of
    :func:`fraclap.opmatrix.split_parity`, on whose rows the parity blocks
    ``op`` of :func:`fraclap.opmatrix.fused_sample_operator` act; u(1-u)
    splits into e - (e^2 + o^2)/2 and o - e*o.
    ``stage(s, e, o)`` writes the right-hand side at the state s = [e; o]
    into a work array and returns it.  ``step()`` advances ``p`` in place by
    one classical RK4 step of ``dt`` and raises :class:`BlowUpError` when
    the max-norm of the node values, max(|e| + |o|)/2, exceeds
    :data:`BLOWUP_LIMIT` or is NaN.  Every GEMV and ufunc writes through
    ``out=`` into arrays bound here, so a step allocates no array.  Node
    values go in as ``p[...] = split_parity(u)`` and come out as
    ``join_parity(p)``, as in :func:`run_simulation`.
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
        for h in (half_dt, dt):  # k2, then k3; each moves y to the next stage's point p + h*k
            stage(y, y0, y1)
            multiply(k, h, out=y)
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


def front_position(cfg: GridConfig):
    """One grid's front finder, bound to its constants and work arrays: ``find(u) -> (x05, c)``.

    ``find`` takes the n physical node values u and returns x05, the
    invading (largest-x) crossing of 1/2, with c, the cosine coefficients
    of u (:func:`fraclap.spectral.cosine_transform`), a new array per
    call.  It raises ValueError when u is not of shape (n,) and
    :class:`FrontEscapeError` when no pair of neighbouring nodes brackets
    1/2.  Node positions decrease with j, so the bracket is the first pair
    whose values u - 1/2 differ in sign (a node value of exactly 1/2
    before it is returned as it is).  Inside it Newton runs in theta =
    arccot((x - x_center)/l_scale) on f(theta) = c_0 +
    2*sum_k c_k*cos(k*theta) - 1/2 with its exact derivative (Boyd,
    *Chebyshev and Fourier Spectral Methods*, 2001, ch. 17), from the
    secant of the node values.  Each series value narrows the bracket, and
    a step that would leave it, or is longer than half the step before it,
    is replaced by bisection.  Iteration stops once a Newton step moves x,
    or the bracket spans, at most 1e-10 * max(1, |x_j|).
    """
    n, l_scale, x_center = cfg.n, cfg.l_scale, cfg.x_center
    dct2 = cosine_transform(n)
    x, s = node_positions(cfg), nodes(cfg)
    k = np.arange(n, dtype=float)
    w, wk, ks, cos_ks, sin_ks = np.empty((5, n))
    cos, sin, multiply, dot = math.cos, math.sin, np.multiply, np.dot

    def x_at(theta: float) -> float:
        return x_center + l_scale * cos(theta) / sin(theta)

    def find(u) -> tuple[float, np.ndarray]:
        u = np.asarray(u, dtype=float)
        if u.shape != (n,):
            raise ValueError(f"expected {n} physical samples, got shape {u.shape}")
        c = dct2(u)
        d = u - 0.5
        hit = np.nonzero(d == 0.0)[0]
        crossings = np.nonzero(d[:-1] * d[1:] < 0.0)[0]
        if hit.size and (not crossings.size or hit[0] < crossings[0]):
            return float(x[hit[0]]), c
        if not crossings.size:
            raise FrontEscapeError("no 1/2-crossing between adjacent nodes")
        j = int(crossings[0])
        tol = _FRONT_XTOL * max(1.0, abs(float(x[j])))
        a, b = float(s[j]), float(s[j + 1])  # a < b in theta; x decreases with theta
        da, db = float(d[j]), float(d[j + 1])
        a_positive = da > 0.0
        theta = a + (b - a) * da / (da - db)
        if not a < theta < b:
            theta = 0.5 * (a + b)
        multiply(c, 2.0, out=w)  # f = w.cos(k*theta) - 1/2 and f' = -wk.sin(k*theta)
        w[0] = c[0]
        multiply(w, k, out=wk)
        x_theta, last = x_at(theta), b - a
        while True:
            multiply(k, theta, out=ks)
            np.cos(ks, out=cos_ks)
            np.sin(ks, out=sin_ks)
            f = float(dot(cos_ks, w)) - 0.5
            if f == 0.0:
                return x_theta, c
            if (f > 0.0) == a_positive:
                a = theta
            else:
                b = theta
            slope = -float(dot(sin_ks, wk))
            step = f / slope if slope else math.inf
            new = theta - step
            if a <= new <= b and abs(step) <= 0.5 * last:  # a step below an ulp of theta lands on it
                x_new = x_at(new)
                if abs(x_new - x_theta) <= tol:
                    return x_new, c
                last = abs(step)
            else:
                new = 0.5 * (a + b)
                x_new = x_at(new)
                if abs(x_at(a) - x_at(b)) <= tol or not a < new < b:
                    return x_new, c
                last = b - a
            theta, x_theta = new, x_new

    return find


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
    must match the run's n, alpha and l_lim, or ValueError is raised; it is
    folded once, at the run's map scale, into the parity blocks of
    :func:`rk4_stepper`.  The stepper and a :func:`front_position`
    finder are bound once per run.  Node values, the front position and the
    spectral tail (:func:`_spectral_tail`) are taken at t = 0, every
    ``sample_stride`` steps and at the last step.  The fit window defaults
    to the last 40% of the run.  A step that overflows ends in
    :class:`BlowUpError` (numpy's floating-point warnings are silenced in
    the loop), and a front that leaves the grid in
    :class:`FrontEscapeError`.  ``diagnostics`` holds ``spectral_tail``
    (``initial``, ``final`` and ``max`` over the samples), the extreme
    final node values ``final_min`` and ``final_max``, ``max_imag``
    (always 0.0, kept because the fisher-front benchmark gate reads it) and ``timings``: ``fold_s`` (folding,
    binding and the initial state), ``step_s`` (the RK4 steps) and
    ``track_s`` (node values and front tracking at the samples).
    """
    from time import perf_counter  # here, so that import fraclap gains no module-level import

    cfg = run.cfg
    wanted = {"n": cfg.n, "alpha": run.alpha, "l_lim": run.l_lim}
    differ = [name for name, value in wanted.items() if getattr(matrix, name) != value]
    if differ:
        raise ValueError(f"matrix was built for a different {', '.join(differ)}")
    t_start = perf_counter()
    op = fused_sample_operator(matrix, cfg)
    x = node_positions(cfg)
    u = initial_condition(x, run.alpha)
    p, _, step_once = rk4_stepper(op, run.dt)
    p[...] = split_parity(u)
    find = front_position(cfg)

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
            try:
                front, c = find(u)
            except FrontEscapeError as exc:
                raise FrontEscapeError(f"t = {t:.6g}: {exc}") from exc
            fronts.append(front)
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
