"""Coordinate map between the real line and the periodic interval.

The change of variable x = x_center + l_scale*cot(s) sends s in (0, pi) to
the whole real line, so a trigonometric basis in s plays the role of rational
Chebyshev functions in x.  Sampling happens at the n half-shifted nodes
s_j = pi*(2j+1)/(2n), j = 0..n-1, which never touch the poles of the map at
s = 0, pi.  A function known there is continued across s = pi by an even or
odd reflection, which fixes the parity of its trigonometric series.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class Extension(enum.Enum):
    """Continuation of u(s) across s = pi: u(2*pi - s) = +/- u(s)."""

    EVEN = "even"
    ODD = "odd"


def _check_integer(name: str, value) -> None:
    """Raise TypeError unless ``value`` is an integer; a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class GridConfig:
    """Discretization: n physical nodes, map scale, shift and extension parity.

    ``n`` must be even so that the secondary summation index of the operator
    assembly can range over {-n/2, ..., n/2-1}.
    """

    n: int
    l_scale: float
    x_center: float = 0.0
    extension: Extension = Extension.EVEN

    def __post_init__(self) -> None:
        _check_integer("n", self.n)
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError(f"n must be an even integer >= 2, got {self.n}")
        if not math.isfinite(self.l_scale) or self.l_scale <= 0.0:
            raise ValueError(f"l_scale must be positive and finite, got {self.l_scale}")
        if not math.isfinite(self.x_center):
            raise ValueError(f"x_center must be finite, got {self.x_center}")
        if not isinstance(self.extension, Extension):
            object.__setattr__(self, "extension", Extension(self.extension))


def nodes(cfg: GridConfig) -> np.ndarray:
    """The n physical nodes: half-shifted s_j = pi*(2j+1)/(2n) for j = 0..n-1."""
    j = np.arange(cfg.n)
    return np.pi * (2 * j + 1) / (2 * cfg.n)


def s_to_x(cfg: GridConfig, s):
    """Map s to x = x_center + l_scale*cot(s).

    Raises ValueError when s is an exact multiple of pi (pole of the map).
    Scalar input returns a float, array input an array.
    """
    arr = np.asarray(s, dtype=float)
    if np.any(np.mod(arr, np.pi) == 0.0):
        raise ValueError("s must not be a multiple of pi")
    x = cfg.x_center + cfg.l_scale * np.cos(arr) / np.sin(arr)
    return float(x) if np.ndim(s) == 0 else x


def x_to_s(cfg: GridConfig, x):
    """Inverse map s = arccot((x - x_center)/l_scale), in (0, pi).

    The two-argument arctangent keeps the result correct for negative
    arguments.
    """
    t = (np.asarray(x, dtype=float) - cfg.x_center) / cfg.l_scale
    s = np.arctan2(1.0, t)
    return float(s) if np.ndim(x) == 0 else s


def node_positions(cfg: GridConfig) -> np.ndarray:
    """Positions x_j of the n physical nodes, strictly decreasing in j."""
    return s_to_x(cfg, nodes(cfg))


def node_spacing(cfg: GridConfig, x: float) -> float:
    """Local distance between neighbouring nodes at x: |dx/ds| * pi/n.

    On x = x_center + l_scale*cot(s), |dx/ds| = l_scale/sin(s)^2 =
    l_scale + (x - x_center)^2/l_scale, so the spacing grows like
    x^2/(l_scale*n) in the far field.
    """
    d = float(x) - cfg.x_center
    return math.pi / cfg.n * (cfg.l_scale + d * d / cfg.l_scale)
