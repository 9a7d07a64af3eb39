"""fraclap benchmark: three workloads, end-to-end metrics, per-layer trace.

    python3 perfbench/run.py                    # every workload, seed 0, as a table
    python3 perfbench/run.py --workload gauss-scan --seed 3 --seconds 10 --trace 0

A single-workload run prints its details and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer ones.  Each workload runs
in a fresh process with the BLAS thread count pinned to 1.  Reports and span
files go to ``.perfbench/out/`` at the root of the checkout.

Workloads (inputs and gates in workloads.py):

* ``gauss-scan``   criterion-3 scan, n = 128: matrix assembly does ~97 % of the work.
* ``mode2-scan``   criterion-1 scan, n = 1024: the single-column
  ``symbol_samples`` path and the gamma tables, which nothing else stresses.
* ``fisher-front`` criterion 7x: a cold build plus cache write as set-up, then
  load plus 1400 RK4 steps with front tracking.

One run:

1. Set-up: this process and ``SETUP_SAMPLES - 1`` fresh ones each import
   fraclap and do the workload's set-up; ``setup_s`` is their median.
2. Measured phase: passes over the workload until ``--seconds`` have passed;
   the first pass always completes, a later one may stop at the deadline.
   ``throughput`` is the median over units of work done per second,
   rescaled to the nominal machine speed that a reference kernel timed
   between units measures (calibrate.py); the raw rate is printed beside it.  ``result_error`` is the gated accuracy figure of the
   first pass; every later unit must reproduce its first result bit for bit.
3. With ``--trace 1``: first a cold and a warm build of the workload's first
   matrix (``cold_over_warm``), then a traced set-up, then untraced and
   traced passes side by side, unit by unit.  Per-layer numbers are per
   set-up plus one pass; ``trace.overhead_frac`` is the median over units of
   traced over untraced time, minus one.

Every run also checks that a deliberately perturbed result fails the gates.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 900

END_TO_END = {
    "setup_s": "s",
    "throughput": "1/s",
    "peak_rss_mb": "MB",
    "result_error": "1",
    "ok_frac": "1",
}


@dataclass
class Pass:
    """Results and timings of one pass over a workload's units."""

    tracer: object = None
    results: list = field(default_factory=list)
    unit_seconds: list[float] = field(default_factory=list)
    unit_rates: list[float] = field(default_factory=list)
    flags: list[bool] = field(default_factory=list)
    error: float = math.nan


def timing_summary(samples: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    out = {"count": len(xs), "median": statistics.median(xs)}
    for p in (99.9, 99.0, 90.0, 75.0):
        rank = math.ceil(p / 100.0 * len(xs))
        if len(xs) - rank >= 10:
            out[f"p{p:g}"] = xs[rank - 1]
            break
    return out


def run_passes(workload, ctx: dict, parity: int, speed, deadline, new_tracer=None):
    """One untraced pass; with ``new_tracer``, also a traced pass run unit by
    unit beside it, alternating which goes first, so each pair of unit
    timings is taken under the same machine load.  ``speed`` samples the
    machine speed between units; no unit starts after ``deadline``."""
    sides = [Pass()] + ([Pass(tracer=new_tracer())] if new_tracer else [])
    for i, arg in enumerate(workload.units()):
        if time.perf_counter() >= deadline:
            break
        speed.sample()
        for p in sides if (i + parity) % 2 == 0 else sides[::-1]:
            with p.tracer if p.tracer is not None else contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    p.results.append(workload.run_unit(arg, ctx))
                except Exception:
                    traceback.print_exc()
                    p.results.append(None)
                dt = time.perf_counter() - t0
            p.unit_seconds.append(dt)
            p.unit_rates.append(workload.work(arg) / dt)
    return sides


def probe_setup(args, workdir: Path) -> dict:
    """One cold set-up in a fresh process."""
    cmd = [
        sys.executable, str(Path(__file__).with_name("setup_probe.py")), "--workload", args.workload,
        "--seed", str(args.seed), "--workdir", str(workdir),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def cold_over_warm(workload, opmatrix) -> float:
    """First build in this process over a second build with the same arguments."""
    first = workload.first_build()
    if first is None:
        return 0.0  # the workload builds no matrix
    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        opmatrix.build_matrix(*first)
        times.append(time.perf_counter() - t0)
    return times[0] / times[1]


def layer_metrics(setup_tracer, passes: list[Pass], problems):
    """Per-layer numbers per set-up plus one pass; integer counts must repeat exactly."""
    whole = len(passes[0].results)
    traced = [p for p in passes if p.tracer is not None and len(p.results) == whole]
    summaries = [p.tracer.summary() for p in traced]
    base = setup_tracer.summary()
    metrics = {}
    for key, value in base.items():
        if isinstance(value, int):
            if len({s[key] for s in summaries}) > 1:
                problems.append(f"{key} differs between traced passes")
            metrics[key] = value + summaries[0][key]
        else:
            metrics[key] = value + statistics.fmean(s[key] for s in summaries)
    rk4_s = metrics["fisher.rk4_step.self_s"]
    metrics["fisher.rk4_step.gbps"] = metrics["fisher.rk4_step.bytes"] / rk4_s / 1e9 if rk4_s else 0.0
    untraced = [p for p in passes if p.tracer is None]
    metrics["trace.overhead_frac"] = statistics.median(
        t / u - 1.0
        for up, tp in zip(untraced, traced)
        for u, t in zip(up.unit_seconds, tp.unit_seconds)
    )
    metrics["trace.absent_layers"] = len(setup_tracer.absent)
    metrics["trace.hook_failures"] = setup_tracer.hook_failures + sum(
        p.tracer.hook_failures for p in traced
    )
    return metrics


def measure(args, work_root: Path, import_s: float) -> int:
    import calibrate
    import envinfo
    import tracing
    import workloads
    from fraclap import opmatrix

    workload = workloads.make(args.workload, args.seed)
    problems: list[str] = []

    layer = {}
    setup_tracer = None
    setup_samples = []
    if args.trace:
        # the traced run reports no set-up time, so it starts no set-up processes
        layer["opmatrix.build_matrix.cold_over_warm"] = cold_over_warm(workload, opmatrix)
        setup_tracer = tracing.Tracer()
        with setup_tracer:
            ctx = workload.setup(work_root / "setup0")
    else:
        # this process is fresh as well: its import and set-up are the first sample
        t0 = time.perf_counter()
        ctx = workload.setup(work_root / "setup0")
        setup_samples.append(import_s + time.perf_counter() - t0)
        crcs = {ctx.get("crc32")}
        for i in range(1, SETUP_SAMPLES):
            probe = probe_setup(args, work_root / f"setup{i}")
            setup_samples.append(probe["setup_s"])
            crcs.add(probe["info"].get("crc32"))
        if len(crcs) > 1:
            problems.append("set-up results differ between processes")

    speed = calibrate.SpeedProbe()
    new_tracer = tracing.Tracer if args.trace else None
    deadline = time.perf_counter() + args.seconds
    passes = run_passes(workload, ctx, 0, speed, math.inf, new_tracer)
    while time.perf_counter() < deadline:
        passes += run_passes(workload, ctx, len(passes), speed, deadline, new_tracer)
    speed.sample(force=True)

    for p in passes:
        p.flags, p.error = workload.judge(p.results)
    if any(p.results != passes[0].results[: len(p.results)] for p in passes):
        problems.append("a rerun (traced or untraced) changed a result")
    perturbed, _ = workload.judge(workload.perturb(passes[0].results))
    if any(perturbed):
        problems.append("self-test: a perturbed result passed the gates")
    self_test = f"perturbed result failed {perturbed.count(False)} of {len(perturbed)} gates"
    flags = [f for p in passes for f in p.flags]
    failed = flags.count(False)

    raw_throughput = statistics.median(r for p in passes if p.tracer is None for r in p.unit_rates)
    if args.trace:
        layer.update(layer_metrics(setup_tracer, passes, problems))
        units = tracing.metric_units()
        metrics = {k: {"value": layer[k], "unit": units[k]} for k in units}
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "throughput": raw_throughput / speed.speed(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "result_error": passes[0].error,
            "ok_frac": (len(flags) - failed) / len(flags),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    correct = failed == 0 and not problems
    env = envinfo.collect(ROOT, BLAS_THREADS)
    unit_seconds = [s for p in passes if p.tracer is None for s in p.unit_seconds]
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "work_unit": workload.work_unit,
        "units_per_pass": len(workload.units()),
        "passes": len(passes),
        "setup_s": timing_summary(setup_samples) if setup_samples else None,
        "unit_seconds": timing_summary(unit_seconds),
        "pass_seconds": [sum(p.unit_seconds) for p in passes],
        "raw_throughput": raw_throughput,
        "machine_speed": speed.speed(),
        "speed_samples": len(speed.samples),
        "result_error": passes[0].error,
        "self_test": self_test,
        "problems": problems,
        "absent_layers": setup_tracer.absent if setup_tracer else [],
        "env": env,
    }
    result = {"correct": correct, "attempted": len(flags), "failed": failed, "metrics": metrics}

    out_dir = ROOT / ".perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        with gzip.open(out_dir / f"{stem}-spans.csv.gz", "wt") as fh:
            fh.write("phase,id,parent,layer,start_s,end_s\n")
            setup_tracer.write_spans(fh, "setup")
            for i, p in enumerate(p for p in passes if p.tracer is not None):
                p.tracer.write_spans(fh, f"pass{i}")
    (out_dir / f"{stem}.json").write_text(json.dumps({**details, **result}, indent=1))

    print(f"{workload.name} seed {args.seed}: {details['passes']} passes of "
          f"{details['units_per_pass']} units ({workload.work_unit})")
    print("env " + json.dumps(env))
    print("setup_s samples " + json.dumps(details["setup_s"]))
    print("unit seconds " + json.dumps(details["unit_seconds"]))
    print(f"raw throughput {raw_throughput:.6g}/s at machine speed {details['machine_speed']:.4f} "
          f"({details['speed_samples']} samples)")
    print(f"self-test: {self_test}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:<14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process, printed as one table."""
    import workloads

    ok = True
    print(f"{'workload':14s} {'metric':44s} {'value':>14s}  unit")
    for name in workloads.WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            print(f"{name:14s} FAILED (exit {done.returncode})")
            ok = False
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        for metric, m in result["metrics"].items():
            print(f"{name:14s} {metric:44s} {m['value']:14.6g}  {m['unit']}")
        print(f"{name:14s} {'correct':44s} {str(result['correct']):>14s}  "
              f"({result['failed']} of {result['attempted']} gated operations failed)")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "fraclap" / "__init__.py").is_file():
        print(f"no fraclap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import fraclap
    import workloads

    import_s = time.perf_counter() - t0

    if Path(fraclap.__file__).resolve().parent != ROOT / "src" / "fraclap":
        print(f"fraclap imported from {fraclap.__file__}, not this checkout", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {list(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    work_root = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args, work_root, import_s)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
