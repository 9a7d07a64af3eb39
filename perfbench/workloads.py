"""The benchmark workloads: inputs from a seed, the work, the gates.

A workload's work is a *pass*: a list of units run one after another (one
alpha value of a scan, or one Fisher-KPP simulation).  ``run_unit`` returns
the unit's raw result or raises; ``judge`` turns the results of one pass into
gated operations and the pass's accuracy figure.  Gates are the paper's
bounds, taken from the acceptance criteria unloosened.

Inputs.  Seed 0 is the paper's grid.  For ``gauss-scan`` another seed draws
one alpha uniformly inside the cell (grid point +/- half a step) of every
interior grid point other than 1, and keeps alpha = 1 and the two ends of
the range.  The ends stay because the Gaussian error grows
steeply towards alpha = 1.9 (3e-12 at 0.5, 1.2e-10 at 1.9), so the binding
case of each gate is on every seed and the gated figure does not swing with
the draw.  ``mode2-scan`` keeps the criterion-1 grid on every seed and the
seed only shuffles its order: its errors are round-off (1e-14 .. 6e-13) and
erratic in alpha, so the maximum over any random draw of 38 values swings by
20-100 % from seed to seed, more than any bound the benchmark may set.
``fisher-front`` ignores the seed.
"""

from __future__ import annotations

import math
import zlib
from pathlib import Path

import numpy as np

from fraclap import fisher, opmatrix, oracles
from fraclap.grid import GridConfig


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    count = int(round((hi - lo) / step)) + 1
    return np.round(lo + step * np.arange(count), 12)


def _stratified(grid: np.ndarray, step: float, seed: int) -> np.ndarray:
    """Seed 0: the grid.  Otherwise one uniform draw per interior cell, ends and 1 kept."""
    if seed == 0:
        return grid
    rng = np.random.default_rng(seed)
    keep = (grid == grid[0]) | (grid == grid[-1]) | (grid == 1.0)
    jitter = rng.uniform(-0.5 * step, 0.5 * step, grid.size)
    return np.where(keep, grid, grid + jitter)


def _max_or_nan(values) -> float:
    finite = [v for v in values if v is not None]
    return float(max(finite)) if finite else math.nan


class Workload:
    """One workload; subclasses set the inputs, the work and the gates."""

    name: str
    work_unit: str  # what one unit of throughput counts

    def setup(self, workdir: Path) -> dict:
        """Per-process set-up; returns JSON-able context for ``run_unit``."""
        return {}

    def units(self) -> list:
        raise NotImplementedError

    def run_unit(self, arg, ctx: dict):
        raise NotImplementedError

    def work(self, arg) -> int:
        return 1

    def judge(self, results: list) -> tuple[list[bool], float]:
        """(one pass/fail flag per gated operation, the pass's result_error)."""
        raise NotImplementedError

    def perturb(self, results: list) -> list:
        """The results with a deliberate error that every gate must catch."""
        raise NotImplementedError

    def first_build(self):
        """Arguments of the workload's first ``build_matrix`` call, or None."""
        return None


class _AlphaScan(Workload):
    """error_scan over alpha values, one alpha per unit, gated per alpha."""

    work_unit = "alpha values"
    target: str
    n: int
    l_lim = 500
    gate: float

    def units(self) -> list:
        return [float(a) for a in self.alphas]

    def run_unit(self, alpha, ctx):
        scan = oracles.error_scan(self.target, GridConfig(self.n, 1.0), self.l_lim, [alpha])
        return scan.global_max

    def judge(self, results):
        flags = [r is not None and r <= self.gate for r in results]
        return flags, _max_or_nan(results)

    def perturb(self, results):
        return [None if r is None else 10.0 * r + self.gate for r in results]


class GaussScan(_AlphaScan):
    name = "gauss-scan"
    target = "gaussian"
    n = 128
    gate = 3 * 1.5947e-10  # criterion 3, n = 128, even extension

    def __init__(self, seed: int):
        self.alphas = _stratified(_grid(0.1, 1.9, 0.1), 0.1, seed)

    def first_build(self):
        return GridConfig(self.n, 1.0), float(self.alphas[0]), self.l_lim


class Mode2Scan(_AlphaScan):
    name = "mode2-scan"
    target = "mode2"
    n = 1024
    gate = 3 * 5.0219e-13  # criterion 1

    def __init__(self, seed: int):
        grid = _grid(0.05, 1.95, 0.05)
        grid = grid[grid != 1.0]
        self.alphas = grid if seed == 0 else np.random.default_rng(seed).permutation(grid)


class FisherFront(Workload):
    """Criterion 7x: cold build plus cache write as set-up, then load and run."""

    name = "fisher-front"
    work_unit = "RK4 steps"
    alpha = 1.95
    n = 512
    l_lim = 500
    dt = 0.01
    t_final = 14.0
    window = (10.0, 14.0)
    gap_gate = 0.02
    imag_gate = 1e-12

    def __init__(self, seed: int):
        self.cfg = GridConfig(self.n, 1000.0 / self.alpha**3)

    def setup(self, workdir: Path) -> dict:
        workdir.mkdir(parents=True, exist_ok=True)
        matrix = opmatrix.build_matrix(self.cfg, self.alpha, self.l_lim)
        path = workdir / "matrix.bin"
        opmatrix.save_matrix(matrix, path)
        return {"cache": str(path), "crc32": zlib.crc32(matrix.entries.tobytes())}

    def units(self):
        return [0]

    def run_unit(self, arg, ctx):
        matrix = opmatrix.load_matrix(
            ctx["cache"], expect_n=self.n, expect_alpha=self.alpha, expect_l_lim=self.l_lim
        )
        run = fisher.FisherRun(
            cfg=self.cfg, alpha=self.alpha, dt=self.dt, t_final=self.t_final,
            l_lim=self.l_lim, sample_stride=10, fit_window=self.window,
        )
        result = fisher.run_simulation(run, matrix)
        return result.trace.sigma, result.diagnostics["max_imag"]

    def work(self, arg):
        return int(round(self.t_final / self.dt))

    def _gap(self, sigma: float) -> float:
        return abs(sigma - 1.0 / self.alpha) * self.alpha

    def judge(self, results):
        flags = [
            r is not None and self._gap(r[0]) <= self.gap_gate and r[1] <= self.imag_gate
            for r in results
        ]
        return flags, _max_or_nan(None if r is None else self._gap(r[0]) for r in results)

    def perturb(self, results):
        return [None if r is None else (r[0] * 1.05, r[1]) for r in results]

    def first_build(self):
        return self.cfg, self.alpha, self.l_lim


WORKLOADS = {w.name: w for w in (GaussScan, Mode2Scan, FisherFront)}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
