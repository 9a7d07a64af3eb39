"""Command line driver.

Subcommands
-----------
``matrix build``  assemble the unit-scale operational matrix and write the binary cache
``validate``      error scans against the closed forms or the quadrature oracle
``fisher``        Fisher-KPP front simulations, single alpha or a sweep

Every invocation writes a JSON manifest next to its outputs recording the
command, resolved parameters, tool version, environment (numpy and scipy
versions, numpy's BLAS and its thread count, the CPU count and whether
the BLAS thread pin of :mod:`fraclap.symbol` was found), the wall-clock
time of the whole command and diagnostics; identical flags produce
bit-identical numeric outputs.
``matrix build`` and ``validate`` manifests time each phase.  A ``fisher``
manifest also gives, per alpha, the node spacing at x = 0 and at the final
front, the smallest and largest final node value, the time spent on the
matrix and on the simulation (split into the fold, the RK4 steps and the
front tracking), and whether the matrix was loaded from the cache.  The
``matrix build`` and ``fisher`` manifests record each block's node error
in its k = 1 column (:func:`fraclap.oracles.mode1_error`), which sees the
l_lim truncation of the odd columns; the even columns are a closed form.

Exit codes: 0 success, 2 invalid parameters or tolerance exceeded,
3 numerical blow-up or front escape, 4 I/O or cache-format errors.  A
``fisher`` sweep records a failed alpha as a summary row and carries on; it
then raises its first failure, so it exits with that failure's code.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

import fraclap
from fraclap.fisher import (
    BlowUpError,
    FisherRun,
    FrontEscapeError,
    run_simulation,
)
from fraclap.grid import Extension, GridConfig, node_positions, node_spacing
from fraclap.opmatrix import (
    MatrixCacheError,
    MatrixFormatError,
    build_matrix,
    column_checksums,
    fractional_laplacian,
    load_matrix,
    save_matrix,
)
from fraclap.oracles import (
    alpha_grid,
    error_scan,
    mode1_error,
    progression,
    quadrature_fraclap,
    scale_sweep,
    test_function,
)
from fraclap.spectral import evaluate, transform
from fraclap.symbol import blas_thread_setter, blas_threads, check_block

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BLOWUP = 3
EXIT_IO = 4


class ParameterError(ValueError):
    pass


def _parse_span(text: str) -> np.ndarray:
    """Sweep grammar 'start:stop:step' -> the points of :func:`fraclap.oracles.progression`."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ParameterError(f"expected start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ParameterError(f"non-numeric span {text!r}") from exc
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
        raise ParameterError(f"span must be finite with step > 0 and stop >= start: {text!r}")
    return progression(start, stop, step)


def _parse_window(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ParameterError(f"expected lo:hi, got {text!r}")
    try:
        lo, hi = (float(p) for p in parts)  # FisherRun checks the window
    except ValueError as exc:
        raise ParameterError(f"non-numeric window {text!r}") from exc
    return lo, hi


def _parameters(args, **resolved) -> dict:
    """The parsed flags by destination name, with ``resolved`` values replacing theirs."""
    skip = ("command", "matrix_command", "func")
    return {k: v for k, v in vars(args).items() if k not in skip} | resolved


def _environment() -> dict:
    """Library versions, numpy's BLAS and its thread count, the CPU count and whether the pin was found."""
    import scipy  # here, for its version, so that ``import fraclap.cli`` loads no SciPy module

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu_count": os.cpu_count(),
        "blas_pin": blas_thread_setter() is not None,
        "blas_threads": blas_threads(),
    }


def _write_manifest(path: Path, command: str, params: dict, outputs: list[str],
                    wall: float, diagnostics: dict) -> None:
    doc = {
        "command": command,
        "parameters": params,
        "outputs": outputs,
        "tool_version": fraclap.__version__,
        "environment": _environment(),
        "wall_clock_seconds": wall,
        "diagnostics": diagnostics,
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    """One CSV, one cell rule: None is an empty cell, a string stays as it is, a number is %.17g."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(["" if v is None else v if isinstance(v, str) else f"{v:.17g}" for v in row]
                    for row in rows)


# ---------------------------------------------------------------------------
# matrix build
# ---------------------------------------------------------------------------


def _cmd_matrix_build(args) -> int:
    t0 = time.perf_counter()
    matrix = build_matrix(GridConfig(args.n, 1.0), args.alpha, args.llim)
    t_built = time.perf_counter()
    out = Path(args.out)
    save_matrix(matrix, out)
    t_saved = time.perf_counter()
    checks = column_checksums(matrix)
    t_checked = time.perf_counter()
    build_seconds = t_built - t0
    print(f"assembled {args.n}x{args.n - 1} matrix in {build_seconds:.3f} s -> {out}")
    for k, c in enumerate(checks, start=1):
        print(f"column k={k} crc32=0x{c:08x}")
    _write_manifest(
        out.with_suffix(out.suffix + ".manifest.json"),
        "matrix build",
        _parameters(args, out=str(out)),
        [str(out)],
        time.perf_counter() - t0,
        {
            "column_crc32": [f"0x{c:08x}" for c in checks],
            "mode1_error": mode1_error(matrix),
            "timings": {
                "build_s": build_seconds,
                "save_s": t_saved - t_built,
                "checksum_s": t_checked - t_saved,
            },
        },
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _validate_quadrature(cfg: GridConfig, alphas, llim: int) -> tuple[np.ndarray, list[tuple]]:
    """Matrix Laplacian of the Gaussian vs the quadrature oracle at probe points."""
    xs = [-2.0, 0.0, 1.0]
    gauss = test_function("u3_gaussian")
    x_nodes = node_positions(cfg)
    rows = []
    errs = []
    for alpha in alphas:
        matrix = build_matrix(cfg, float(alpha), llim)
        # the image is a function of x: its cosine series interpolates the node values
        lap_coeffs = transform(fractional_laplacian(gauss.u(x_nodes), matrix, cfg), Extension.EVEN)
        worst = 0.0
        for x, numeric in zip(xs, evaluate(lap_coeffs, Extension.EVEN, cfg, xs)):
            reference = quadrature_fraclap(gauss, x, float(alpha))
            diff = abs(numeric - reference)
            worst = max(worst, diff)
            rows.append((float(alpha), x, numeric, reference, diff))
        errs.append(worst)
    return np.asarray(errs), rows


def _cmd_validate(args) -> int:
    out = Path(args.out) if args.out else Path(f"fraclap_validate_{args.target}.csv")
    cfg = GridConfig(args.n, args.L, args.xc, Extension(args.extension))
    t0 = time.perf_counter()
    diagnostics: dict = {}
    if args.l_sweep is not None and args.target != "gaussian":
        raise ParameterError("--l-sweep only applies to --target gaussian")
    if args.alpha_grid is not None:
        alphas = _parse_span(args.alpha_grid)
    elif args.target == "quadrature":
        alphas = np.asarray([0.4, 1.0, 1.6])  # each probe is an adaptive quadrature
    else:
        alphas = alpha_grid(0.05, 1.95, 0.05)
    if args.target == "mode2":
        alphas = alphas[np.abs(alphas - 1.0) > 1e-12]  # the column is the closed form there
    if not alphas.size:
        raise ParameterError(f"no alpha left to scan for --target {args.target}")
    for alpha in alphas:  # every input is checked before the first build
        check_block(args.n, float(alpha), args.llim)

    if args.l_sweep is not None:
        l_values = _parse_span(args.l_sweep)
        for l_scale in l_values:  # checks every L before the first build
            GridConfig(args.n, float(l_scale), args.xc, Extension(args.extension))
        errors = scale_sweep(args.n, l_values, alphas, args.llim,
                             Extension(args.extension), x_center=args.xc)
        min_error = float(np.min(errors))
        best = float(l_values[int(np.argmin(errors))])
        header, rows = ["L", "global_error"], zip(l_values, errors)
        print(f"minimum global error {min_error:.6e} at L = {best}")
        diagnostics.update({"best_L": best, "min_error": min_error})
        gate_value = min_error  # a sweep gates on the best achievable error
    elif args.target in ("mode2", "gaussian"):
        scan = error_scan(args.target, cfg, args.llim, alphas)
        header, rows = ["alpha", "max_node_error"], zip(scan.alphas, scan.errors)
        print(f"global max error over {len(alphas)} alpha values: {scan.global_max:.6e}")
        diagnostics.update({"global_max": scan.global_max})
        gate_value = scan.global_max
    else:  # quadrature; argparse's choices admit no other target
        errs, rows = _validate_quadrature(cfg, alphas, args.llim)
        header = ["alpha", "x", "matrix_value", "quadrature_value", "abs_diff"]
        gate_value = float(np.max(errs))
        print(f"max |matrix - quadrature| over probes: {gate_value:.6e}")
        diagnostics.update({"global_max": gate_value})

    t_scanned = time.perf_counter()
    _write_csv(out, header, rows)
    t_written = time.perf_counter()
    wall = t_written - t0
    diagnostics["timings"] = {"scan_s": t_scanned - t0, "write_s": t_written - t_scanned}
    _write_manifest(
        out.with_suffix(out.suffix + ".manifest.json"),
        "validate",
        _parameters(args, out=str(out)),
        [str(out)],
        wall,
        diagnostics,
    )
    if args.tolerance is not None and gate_value > args.tolerance:
        print(f"FAIL: {gate_value:.6e} exceeds tolerance {args.tolerance:.6e}")
        return EXIT_INVALID
    return EXIT_OK


# ---------------------------------------------------------------------------
# fisher
# ---------------------------------------------------------------------------


def _matrix_for(cfg: GridConfig, alpha: float, llim: int, cache_dir):
    """The unit-scale block and whether it was loaded; one cache file serves every L and x_c.

    A cache file of an older format version is rebuilt and overwritten; any
    other unreadable file raises :class:`MatrixCacheError` and is left alone.
    """
    if cache_dir is None:
        return build_matrix(cfg, alpha, llim), False
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    # the exact alpha: a rounded one would let nearby orders share (and reject) a file
    path = cache_dir / f"matrix_n{cfg.n}_alpha{float(alpha).hex()}_llim{llim}.bin"
    if path.exists():
        try:
            return load_matrix(path, expect_n=cfg.n, expect_alpha=alpha, expect_l_lim=llim), True
        except MatrixFormatError:
            pass  # an intact file of an older format: rebuilt and replaced below
    matrix = build_matrix(cfg, alpha, llim)
    save_matrix(matrix, path)  # written aside, then moved onto the name
    return matrix, False


def _cmd_fisher(args) -> int:
    if (args.alpha is None) == (args.alpha_sweep is None):
        raise ParameterError("give exactly one of --alpha or --alpha-sweep")
    alphas = [args.alpha] if args.alpha is not None else list(_parse_span(args.alpha_sweep))
    window = _parse_window(args.fit_window) if args.fit_window else None
    runs = []
    for alpha in map(float, alphas):
        check_block(args.n, alpha, args.llim)  # before L = 1000/alpha^3 divides by alpha
        l_scale = args.L if args.L is not None else 1000.0 / alpha**3
        runs.append(FisherRun(
            cfg=GridConfig(args.n, l_scale, args.xc, Extension.EVEN),
            alpha=alpha,
            dt=args.dt,
            t_final=args.tfinal,
            l_lim=args.llim,
            sample_stride=args.sample_stride,
            fit_window=window,
        ))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    summary_rows = []
    outputs = []
    diagnostics: dict = {}
    first_failure = None
    for run in runs:
        alpha, cfg = run.alpha, run.cfg
        tag = np.format_float_positional(alpha, trim="-")  # shortest, so no two alphas share it
        try:
            t_start = time.perf_counter()
            matrix, loaded = _matrix_for(cfg, alpha, args.llim, args.matrix_cache)
            t_matrix = time.perf_counter()
            result = run_simulation(run, matrix)
            t_done = time.perf_counter()
            trace = result.trace
            trace_path = out_dir / f"trace_alpha{tag}.csv"
            _write_csv(trace_path, ["t", "x05", "ln_x05"],
                       ((t, x, np.log(x)) for t, x in zip(trace.times, trace.x05)))
        except (BlowUpError, FrontEscapeError, MatrixCacheError, ValueError, OSError) as exc:
            print(f"alpha={tag}: FAILED ({exc})")
            summary_rows.append((alpha, None, 1.0 / alpha, None, None, type(exc).__name__))
            first_failure = first_failure or exc
            continue
        outputs.append(str(trace_path))
        timings = result.diagnostics["timings"]
        rel_gap = abs(trace.sigma - 1.0 / alpha) * alpha
        summary_rows.append(
            (alpha, trace.sigma, 1.0 / alpha, rel_gap, trace.fit_residual, "ok")
        )
        diagnostics[f"alpha_{tag}"] = {
            "sigma": trace.sigma,
            "rel_gap": rel_gap,
            "fit_residual": trace.fit_residual,
            "spectral_tail": result.diagnostics["spectral_tail"],
            "L": cfg.l_scale,
            "final_min": result.diagnostics["final_min"],
            "final_max": result.diagnostics["final_max"],
            "matrix_loaded": loaded,
            "mode1_error": mode1_error(matrix),
            "node_spacing": {
                "x0": node_spacing(cfg, 0.0),
                "front": node_spacing(cfg, trace.x05[-1]),
            },
            "timings": {
                "matrix_s": t_matrix - t_start,
                "simulate_s": t_done - t_matrix,
                **timings,
                "steps_per_s": run.n_steps / timings["step_s"] if timings["step_s"] else 0.0,
            },
        }
        print(
            f"alpha={tag}: sigma={trace.sigma:.6f} predicted={1.0 / alpha:.6f} "
            f"rel_gap={rel_gap:.3%} residual={trace.fit_residual:.2e}"
        )

    summary_path = out_dir / "summary.csv"
    _write_csv(summary_path, ["alpha", "sigma", "predicted", "rel_gap", "fit_residual", "status"],
               summary_rows)
    outputs.append(str(summary_path))

    _write_manifest(
        out_dir / "fisher.manifest.json",
        "fisher",
        _parameters(args, out_dir=str(out_dir)),
        outputs,
        time.perf_counter() - t0,
        diagnostics,
    )
    if first_failure is not None:
        raise first_failure
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraclap",
        description="Pseudospectral fractional Laplacian on the real line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_matrix = sub.add_parser("matrix", help="operational matrix utilities")
    matrix_sub = p_matrix.add_subparsers(dest="matrix_command", required=True)
    p_build = matrix_sub.add_parser("build", help="assemble and cache a matrix")
    p_build.add_argument("--n", type=int, required=True, help="modes per half grid (even)")
    p_build.add_argument("--alpha", type=float, required=True, help="order in (0, 2)")
    p_build.add_argument("--llim", type=int, required=True, help="outer-series truncation")
    p_build.add_argument("--out", required=True, help="cache file path")
    p_build.set_defaults(func=_cmd_matrix_build)

    p_val = sub.add_parser("validate", help="error scans against the oracles")
    p_val.add_argument("--target", choices=["mode2", "gaussian", "quadrature"], required=True)
    p_val.add_argument("--n", type=int, default=128)
    p_val.add_argument("--L", type=float, default=1.0)
    p_val.add_argument("--xc", type=float, default=0.0)
    p_val.add_argument("--llim", type=int, default=500)
    p_val.add_argument("--extension", choices=["even", "odd"], default="even")
    p_val.add_argument("--alpha-grid", help="a:b:step (default 0.05:1.95:0.05; 0.4, 1, 1.6 for quadrature)")
    p_val.add_argument("--l-sweep", help="a:b:step sweep of the map scale")
    p_val.add_argument("--tolerance", type=float, help="exit 2 when the scan exceeds this")
    p_val.add_argument("--out", help="CSV output path")
    p_val.set_defaults(func=_cmd_validate)

    p_fish = sub.add_parser("fisher", help="Fisher-KPP front simulations")
    p_fish.add_argument("--alpha", type=float, help="single order in (0, 2)")
    p_fish.add_argument("--alpha-sweep", help="a:b:step sweep of orders")
    p_fish.add_argument("--n", type=int, default=1024)
    p_fish.add_argument("--dt", type=float, required=True)
    p_fish.add_argument("--tfinal", type=float, required=True, help="horizon, a whole number of --dt steps")
    p_fish.add_argument("--L", type=float, help="map scale (default 1000/alpha^3)")
    p_fish.add_argument("--xc", type=float, default=0.0)
    p_fish.add_argument("--llim", type=int, default=500)
    p_fish.add_argument("--fit-window", help="lo:hi (default last 40%% of the run)")
    p_fish.add_argument("--sample-stride", type=int, default=10)
    p_fish.add_argument("--out-dir", required=True)
    p_fish.add_argument("--matrix-cache", help="directory of reusable matrix caches")
    p_fish.set_defaults(func=_cmd_fisher)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (BlowUpError, FrontEscapeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except MatrixCacheError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
