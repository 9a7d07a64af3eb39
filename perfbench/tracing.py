"""Span tracer for fraclap layers, installed from outside the package.

Each layer is a public function, wrapped at every name a ``fraclap`` module
binds it to, so calls resolved at call time (``opmatrix.build_tables``,
``fisher.rk4_step``, ``oracles.kummer_1f1`` ...) go through the wrapper and
nothing under ``src/`` changes.  A layer whose function no longer exists is
reported as absent.  Spans (name, start, end, parent) are kept in memory;
a layer's self time is its spans' durations minus the durations of the
wrapped calls directly beneath them.

Some layers also record work counts after the span ends.  Byte, flop and
term counts are computed from array sizes, not measured, and say so in
their unit.
"""

from __future__ import annotations

import inspect
import os
import sys
import time

import numpy as np

#: (module, function) of every traced layer, in the order they are reported
LAYERS = (
    ("gammaratio", "build_tables"),
    ("symbol", "symbol_samples"),
    ("opmatrix", "build_matrix"),
    ("opmatrix", "fused_sample_operator"),
    ("opmatrix", "load_matrix"),
    ("opmatrix", "save_matrix"),
    ("fisher", "rk4_step"),
    ("fisher", "front_position"),
    ("spectral", "forward"),
    ("spectral", "inverse"),
    ("spectral", "krasny_filter"),
    ("spectral", "extend"),
    ("spectral", "interpolate"),
    ("oracles", "kummer_1f1"),
    ("oracles", "closed_form_gaussian"),
    ("oracles", "closed_form_mode2"),
)


def _table_entries(bound, out):
    return {"entries": out.vec_a.size + out.vec_b.size + out.vec_c.size}


def _matrix_terms(bound, out):
    n, l_lim = out.meta.cfg.n, out.meta.l_lim
    return {"terms": (n - 1) * (2 * l_lim + 1) * n}


def _fused_flops(bound, out):
    return {"flops": 8 * (2 * bound["matrix"].meta.cfg.n) ** 3}


def _file_bytes(bound, out):
    return {"bytes": os.path.getsize(bound["path"])}


def _stage_bytes(bound, out):
    # four stage matvecs with the real (2n x 2n) operator, 8-byte entries
    return {"bytes": 4 * out.size**2 * 8}


def _zeroed(bound, out):
    return {"zeroed": int(np.count_nonzero((out.values == 0) & (bound["coeffs"].values != 0)))}


#: the one work count some layers record: layer -> (quantity, unit, hook)
COUNTS = {
    "gammaratio.build_tables": ("entries", "count", _table_entries),
    "opmatrix.build_matrix": ("terms", "term_computed", _matrix_terms),
    "opmatrix.fused_sample_operator": ("flops", "flop_computed", _fused_flops),
    "opmatrix.load_matrix": ("bytes", "B", _file_bytes),
    "opmatrix.save_matrix": ("bytes", "B", _file_bytes),
    "fisher.rk4_step": ("bytes", "B_computed", _stage_bytes),
    "spectral.krasny_filter": ("zeroed", "count", _zeroed),
}


class Tracer:
    """Context manager: wraps the layers while entered and records their spans."""

    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn in LAYERS]
        self.spans: list[list] = []  # [parent index or -1, layer index, start, end]
        self.errors = [0] * len(LAYERS)
        self.counts: dict[str, int] = {}
        self.hook_failures = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def __enter__(self):
        """Wrap every present layer at every name a fraclap module binds it to."""
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "fraclap"]
        self.absent = []
        for i, (modname, fname) in enumerate(LAYERS):
            fn = getattr(sys.modules.get(f"fraclap.{modname}"), fname, None)
            if not callable(fn):
                self.absent.append(self.names[i])
                continue
            wrapper = self._wrap(i, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, fn))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()
        return False

    def _wrap(self, layer: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counted = COUNTS.get(self.names[layer])
        signature = inspect.signature(fn) if counted else None

        def wrapper(*args, **kwargs):
            span = [stack[-1] if stack else -1, layer, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if counted:
                self._count(layer, counted[2], signature, args, kwargs, out)
            return out

        return wrapper

    def _count(self, layer, hook, signature, args, kwargs, out) -> None:
        try:
            bound = signature.bind(*args, **kwargs).arguments
            found = hook(bound, out)
        except (TypeError, KeyError, AttributeError, OSError):
            # the layer's signature or result changed: report, do not crash
            self.hook_failures += 1
            return
        for quantity, value in found.items():
            key = f"{self.names[layer]}.{quantity}"
            self.counts[key] = self.counts.get(key, 0) + value

    def summary(self) -> dict[str, float]:
        """calls, self_s and errors of every layer, plus the recorded counts."""
        child = [0.0] * len(self.spans)
        for parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = [0] * len(LAYERS)
        self_s = [0.0] * len(LAYERS)
        for i, (_, layer, start, end) in enumerate(self.spans):
            calls[layer] += 1
            self_s[layer] += end - start - child[i]
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = self_s[i]
            out[f"{name}.errors"] = self.errors[i]
        for name, (quantity, _, _) in COUNTS.items():
            out[f"{name}.{quantity}"] = self.counts.get(f"{name}.{quantity}", 0)
        return out

    def write_spans(self, fh, phase: str) -> None:
        for i, (parent, layer, start, end) in enumerate(self.spans):
            fh.write(f"{phase},{i},{parent},{self.names[layer]},{start:.9f},{end:.9f}\n")


def metric_units() -> dict[str, str]:
    """Unit of every per-layer metric the traced run reports."""
    units: dict[str, str] = {}
    for mod, fn in LAYERS:
        name = f"{mod}.{fn}"
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.errors"] = "count"
        if name in COUNTS:
            quantity, unit, _ = COUNTS[name]
            units[f"{name}.{quantity}"] = unit
    units["opmatrix.build_matrix.cold_over_warm"] = "ratio"
    units["fisher.rk4_step.gbps"] = "GB/s_computed"
    units["trace.overhead_frac"] = "1"
    units["trace.absent_layers"] = "count"
    units["trace.hook_failures"] = "count"
    return units
