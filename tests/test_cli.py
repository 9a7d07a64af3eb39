import csv
import json
import os

import numpy as np
import pytest
import scipy

from conftest import cache_file_bytes
from fraclap import cli
from fraclap.cli import EXIT_BLOWUP, EXIT_INVALID, EXIT_IO, EXIT_OK, main
from fraclap.fisher import FisherRun, run_simulation
from fraclap.grid import GridConfig
from fraclap.opmatrix import build_matrix, load_matrix
from fraclap.oracles import mode1_error
from fraclap.symbol import blas_thread_setter, blas_threads


def run_cli(*args):
    return main(list(args))


def read_csv(path, reader=csv.reader):
    """The rows of the CSV file at path, read through ``reader``; the file is closed after."""
    with path.open(newline="") as f:
        return list(reader(f))


def _manifest_diagnostics(out_dir):
    return json.loads((out_dir / "fisher.manifest.json").read_text())["diagnostics"]


class TestMatrixBuild:
    def test_build_writes_cache_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "m.bin"
        code = run_cli(
            "matrix", "build", "--n", "8", "--alpha", "0.5",
            "--llim", "60", "--out", str(out),
        )
        assert code == EXIT_OK
        matrix = load_matrix(out, expect_n=8, expect_alpha=0.5, expect_l_lim=60)
        assert matrix.entries.shape == (8, 7)
        manifest = json.loads((tmp_path / "m.bin.manifest.json").read_text())
        assert manifest["command"] == "matrix build"
        assert manifest["parameters"]["n"] == 8
        diagnostics = manifest["diagnostics"]
        assert "column_crc32" in diagnostics
        block = build_matrix(GridConfig(8, 1.0), 0.5, 60)
        assert diagnostics["mode1_error"] == mode1_error(block)
        timings = diagnostics["timings"]
        assert set(timings) == {"build_s", "save_s", "checksum_s"}
        assert all(v >= 0.0 for v in timings.values())
        assert manifest["wall_clock_seconds"] >= sum(timings.values())
        shown = capsys.readouterr().out
        assert "crc32" in shown

    def test_rebuild_is_bit_identical(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        flags = ["--n", "8", "--alpha", "0.75", "--llim", "40"]
        assert run_cli("matrix", "build", *flags, "--out", str(a)) == EXIT_OK
        assert run_cli("matrix", "build", *flags, "--out", str(b)) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_alpha_out_of_range(self, tmp_path):
        code = run_cli(
            "matrix", "build", "--n", "8", "--alpha", "2.0",
            "--llim", "10", "--out", str(tmp_path / "m.bin"),
        )
        assert code == EXIT_INVALID

    def test_odd_n_rejected(self, tmp_path):
        code = run_cli(
            "matrix", "build", "--n", "7", "--alpha", "0.5",
            "--llim", "10", "--out", str(tmp_path / "m.bin"),
        )
        assert code == EXIT_INVALID

    @pytest.mark.parametrize("flag,value", [("--n", "0"), ("--llim", "-1")])
    def test_bad_parameter_writes_nothing(self, tmp_path, flag, value):
        flags = {"--n": "8", "--alpha": "0.5", "--llim": "10", flag: value}
        args = [item for pair in flags.items() for item in pair]
        code = run_cli("matrix", "build", *args, "--out", str(tmp_path / "m.bin"))
        assert code == EXIT_INVALID
        assert list(tmp_path.iterdir()) == []

    def test_extension_flag_rejected(self, tmp_path):
        # the entries do not depend on the parity, so the flag is gone
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "matrix", "build", "--n", "8", "--alpha", "0.5",
                "--llim", "10", "--extension", "even", "--out", str(tmp_path / "m.bin"),
            )
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--L", "--xc"])
    def test_map_flags_rejected(self, tmp_path, flag):
        # the block is the unit-scale operator: no scale or shift to give
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "matrix", "build", "--n", "8", "--alpha", "0.5", "--llim", "10",
                flag, "1.0", "--out", str(tmp_path / "m.bin"),
            )
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []


def _check_validate_timings(path):
    # the scan and the CSV write split the manifest's wall-clock time
    manifest = json.loads(path.read_text())
    timings = manifest["diagnostics"]["timings"]
    assert set(timings) == {"scan_s", "write_s"}
    assert all(v >= 0.0 for v in timings.values())
    total = timings["scan_s"] + timings["write_s"]
    assert total == pytest.approx(manifest["wall_clock_seconds"], rel=1e-12)


class TestValidate:
    def test_mode2_scan_passes_tolerance(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run_cli(
            "validate", "--target", "mode2", "--n", "16", "--llim", "360",
            "--alpha-grid", "0.25:1.75:0.25", "--tolerance", "1e-11",
            "--out", str(out),
        )
        assert code == EXIT_OK
        rows = read_csv(out)
        assert rows[0] == ["alpha", "max_node_error"]
        alphas = [float(r[0]) for r in rows[1:]]
        assert 1.0 not in alphas
        assert max(float(r[1]) for r in rows[1:]) < 1e-11
        _check_validate_timings(tmp_path / "scan.csv.manifest.json")

    def test_mode2_default_grid_skips_one(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run_cli(
            "validate", "--target", "mode2", "--n", "4", "--llim", "10",
            "--tolerance", "1.0", "--out", str(out),
        )
        assert code == EXIT_OK
        alphas = [float(r[0]) for r in read_csv(out)[1:]]
        assert len(alphas) == 38 and 1.0 not in alphas

    def test_mode2_tolerance_failure_exit_code(self, tmp_path):
        code = run_cli(
            "validate", "--target", "mode2", "--n", "16", "--llim", "0",
            "--alpha-grid", "0.5:0.5:1.0", "--tolerance", "1e-13",
            "--out", str(tmp_path / "scan.csv"),
        )
        assert code == EXIT_INVALID

    def test_gaussian_scan(self, tmp_path):
        out = tmp_path / "g.csv"
        code = run_cli(
            "validate", "--target", "gaussian", "--n", "16", "--llim", "300",
            "--alpha-grid", "0.5:1.5:0.5", "--out", str(out),
        )
        assert code == EXIT_OK
        rows = read_csv(out)
        assert len(rows) == 4  # header + 3 alphas (grid includes alpha = 1)

    def test_gaussian_odd_extension(self, tmp_path):
        # criterion 3's n = 16 odd level (1.78e-2 reported) through the CLI;
        # the even scan of the same grid lands elsewhere (1.30e-2)
        maxima = {}
        for parity in ("odd", "even"):
            out = tmp_path / f"{parity}.csv"
            code = run_cli(
                "validate", "--target", "gaussian", "--extension", parity, "--n", "16",
                "--llim", "500", "--tolerance", "2e-2", "--out", str(out),
            )
            assert code == EXIT_OK
            manifest = json.loads((tmp_path / f"{parity}.csv.manifest.json").read_text())
            maxima[parity] = manifest["diagnostics"]["global_max"]
        assert 1.7825e-2 / 3 <= maxima["odd"] <= 2e-2
        assert maxima["odd"] != maxima["even"]

    def test_l_sweep_finds_interior_optimum(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "validate", "--target", "gaussian", "--n", "32", "--llim", "300",
            "--alpha-grid", "0.6:1.4:0.4", "--l-sweep", "1.0:8.0:1.0",
            "--out", str(out),
        )
        assert code == EXIT_OK
        rows = read_csv(out)[1:]
        errs = {float(L): float(e) for L, e in rows}
        assert len(errs) == 8
        best = min(errs, key=errs.get)
        assert 1.0 < best < 8.0
        _check_validate_timings(tmp_path / "sweep.csv.manifest.json")

    def test_negative_scale_writes_nothing(self, tmp_path):
        code = run_cli(
            "validate", "--target", "mode2", "--n", "16", "--L", "-1", "--llim", "10",
            "--out", str(tmp_path / "scan.csv"),
        )
        assert code == EXIT_INVALID
        assert list(tmp_path.iterdir()) == []

    def test_mode2_grid_of_alpha_one_alone_is_a_parameter_error(self, tmp_path, capsys):
        # alpha = 1 is dropped first; an empty grid is named, not a numpy error
        code = run_cli(
            "validate", "--target", "mode2", "--n", "16", "--llim", "10",
            "--alpha-grid", "1:1:0.1", "--out", str(tmp_path / "scan.csv"),
        )
        assert code == EXIT_INVALID
        assert capsys.readouterr().err == "error: no alpha left to scan for --target mode2\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", [
        ("--target", "gaussian", "--alpha-grid", "0.5:2:0.5"),
        ("--target", "quadrature", "--alpha-grid", "0.5:2:0.5"),
        ("--target", "gaussian", "--alpha-grid", "0.5:1:0.5", "--l-sweep", "0:2:1"),
    ], ids=["gaussian-alpha2", "quadrature-alpha2", "l-sweep-L0"])
    def test_every_input_is_checked_before_any_scan(self, tmp_path, monkeypatch, bad):
        # a bad alpha or L late in a grid exits 2 before the first build
        calls = []
        for name in ("build_matrix", "error_scan", "scale_sweep"):
            monkeypatch.setattr(cli, name, lambda *a, name=name, **k: calls.append(name))
        code = run_cli("validate", *bad, "--n", "16", "--llim", "10",
                       "--out", str(tmp_path / "scan.csv"))
        assert code == EXIT_INVALID
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_l_sweep_needs_the_gaussian_target(self, tmp_path, capsys):
        code = run_cli(
            "validate", "--target", "mode2", "--n", "16", "--llim", "10",
            "--l-sweep", "1:2:1", "--out", str(tmp_path / "scan.csv"),
        )
        assert code == EXIT_INVALID
        assert capsys.readouterr().err == "error: --l-sweep only applies to --target gaussian\n"
        assert list(tmp_path.iterdir()) == []

    def test_quadrature_default_grid(self, tmp_path):
        # without --alpha-grid each probe's adaptive quadrature runs at three orders
        out = tmp_path / "q.csv"
        code = run_cli(
            "validate", "--target", "quadrature", "--n", "16", "--L", "4.6",
            "--llim", "20", "--out", str(out),
        )
        assert code == EXIT_OK
        rows = read_csv(out, csv.DictReader)
        assert [float(row["alpha"]) for row in rows] == [0.4] * 3 + [1.0] * 3 + [1.6] * 3

    def test_quadrature_target(self, tmp_path):
        out = tmp_path / "q.csv"
        code = run_cli(
            "validate", "--target", "quadrature", "--n", "64", "--L", "4.6",
            "--llim", "300", "--alpha-grid", "1.0:1.0:1.0",
            "--tolerance", "1e-5", "--out", str(out),
        )
        assert code == EXIT_OK
        rows = read_csv(out)
        assert rows[0][0] == "alpha"
        assert len(rows) == 4  # header + 3 probe points
        _check_validate_timings(tmp_path / "q.csv.manifest.json")


class TestFisher:
    def test_single_run_outputs(self, tmp_path):
        out_dir = tmp_path / "runs"
        code = run_cli(
            "fisher", "--alpha", "1.2", "--n", "64", "--dt", "0.01",
            "--tfinal", "0.4", "--L", "50.0", "--llim", "200",
            "--fit-window", "0.1:0.4", "--sample-stride", "10",
            "--out-dir", str(out_dir),
        )
        assert code == EXIT_OK
        trace = out_dir / "trace_alpha1.2.csv"
        rows = read_csv(trace)
        assert rows[0] == ["t", "x05", "ln_x05"]
        t = [float(r[0]) for r in rows[1:]]
        assert t[0] == 0.0 and t[-1] == pytest.approx(0.4)
        for r in rows[1:]:
            assert float(r[2]) == pytest.approx(np.log(float(r[1])), abs=1e-12)
        summary = read_csv(out_dir / "summary.csv")
        assert summary[0] == ["alpha", "sigma", "predicted", "rel_gap", "fit_residual", "status"]
        assert summary[1][-1] == "ok"
        manifest = json.loads((out_dir / "fisher.manifest.json").read_text())
        assert manifest["command"] == "fisher"
        assert "alpha_1.2" in manifest["diagnostics"]

    def test_manifest_timings(self, tmp_path):
        out_dir = tmp_path / "runs"
        code = run_cli(
            "fisher", "--alpha-sweep", "1.0:1.2:0.2", "--n", "16", "--dt", "0.01",
            "--tfinal", "0.3", "--L", "30.0", "--llim", "20", "--sample-stride", "2",
            "--out-dir", str(out_dir),
        )
        assert code == EXIT_OK
        diagnostics = json.loads((out_dir / "fisher.manifest.json").read_text())["diagnostics"]
        for tag in ("alpha_1", "alpha_1.2"):
            timings = diagnostics[tag]["timings"]
            assert set(timings) == {
                "matrix_s", "simulate_s", "fold_s", "step_s", "track_s", "steps_per_s"
            }
            assert all(v > 0.0 for v in timings.values())
            # the steps alone: first-use imports of the tracking land in track_s
            assert timings["steps_per_s"] == 30 / timings["step_s"]

    def test_manifest_phase_timings_fit_in_simulate_s(self, tmp_path):
        # fold_s, step_s and track_s are disjoint parts of the simulation
        out_dir = tmp_path / "runs"
        code = run_cli(
            "fisher", "--alpha", "1.2", "--n", "16", "--dt", "0.01", "--tfinal", "0.3",
            "--L", "30.0", "--llim", "20", "--sample-stride", "2", "--out-dir", str(out_dir),
        )
        assert code == EXIT_OK
        diagnostics = json.loads((out_dir / "fisher.manifest.json").read_text())["diagnostics"]
        timings = diagnostics["alpha_1.2"]["timings"]
        phases = [timings[key] for key in ("fold_s", "step_s", "track_s")]
        assert all(v >= 0.0 for v in phases)
        assert sum(phases) <= timings["simulate_s"]

    def test_manifest_node_spacing(self, tmp_path):
        # (pi/n)*(L + x^2/L) at x = 0 and at the last front position
        out_dir = tmp_path / "runs"
        code = run_cli(
            "fisher", "--alpha", "1.2", "--n", "64", "--dt", "0.01", "--tfinal", "0.2",
            "--L", "50.0", "--llim", "200", "--fit-window", "0.05:0.2",
            "--sample-stride", "5", "--out-dir", str(out_dir),
        )
        assert code == EXIT_OK
        diagnostics = json.loads((out_dir / "fisher.manifest.json").read_text())["diagnostics"]
        spacing = diagnostics["alpha_1.2"]["node_spacing"]
        rows = read_csv(out_dir / "trace_alpha1.2.csv")
        front = float(rows[-1][1])
        assert spacing["x0"] == pytest.approx(np.pi / 64 * 50.0, rel=1e-15)
        assert spacing["front"] == pytest.approx(np.pi / 64 * (50.0 + front**2 / 50.0), rel=1e-15)
        assert spacing["front"] > spacing["x0"]

    def test_manifest_final_extremes(self, tmp_path):
        # the smallest and largest final node value and the spectral tail of the
        # same run, bit for bit
        out_dir = tmp_path / "runs"
        code = run_cli(
            "fisher", "--alpha", "1.2", "--n", "64", "--dt", "0.01", "--tfinal", "0.2",
            "--L", "50.0", "--llim", "200", "--fit-window", "0.05:0.2",
            "--sample-stride", "5", "--out-dir", str(out_dir),
        )
        assert code == EXIT_OK
        entry = _manifest_diagnostics(out_dir)["alpha_1.2"]
        cfg = GridConfig(64, 50.0)
        run = FisherRun(cfg=cfg, alpha=1.2, dt=0.01, t_final=0.2, l_lim=200,
                        sample_stride=5, fit_window=(0.05, 0.2))
        result = run_simulation(run, build_matrix(cfg, 1.2, 200))
        u = result.final_samples
        assert entry["spectral_tail"] == result.diagnostics["spectral_tail"]
        assert entry["final_min"] == float(np.min(u))
        assert entry["final_max"] == float(np.max(u))
        assert 0.0 < entry["final_min"] < 0.5 < entry["final_max"] <= 1.0

    def test_matrix_cache_reuse(self, tmp_path):
        cache = tmp_path / "cache"
        args = [
            "fisher", "--alpha", "1.2", "--n", "64", "--dt", "0.01",
            "--tfinal", "0.2", "--L", "50.0", "--llim", "200",
            "--fit-window", "0.05:0.2", "--sample-stride", "5",
            "--matrix-cache", str(cache),
        ]
        assert run_cli(*args, "--out-dir", str(tmp_path / "r1")) == EXIT_OK
        cached = list(cache.glob("*.bin"))
        assert len(cached) == 1
        stamp = cached[0].stat().st_mtime_ns
        assert run_cli(*args, "--out-dir", str(tmp_path / "r2")) == EXIT_OK
        assert cached[0].stat().st_mtime_ns == stamp  # loaded, not rebuilt
        loaded = [_manifest_diagnostics(tmp_path / r)["alpha_1.2"]["matrix_loaded"]
                  for r in ("r1", "r2")]
        assert loaded == [False, True]

    def test_manifest_mode2_error(self, tmp_path):
        # the block's own k = 1 check, for a built and a loaded block, alpha = 1 too
        args = ["fisher", "--alpha-sweep", "1.0:1.2:0.2", "--n", "16", "--dt", "0.01",
                "--tfinal", "0.3", "--L", "30.0", "--llim", "20", "--sample-stride", "2",
                "--matrix-cache", str(tmp_path / "mc")]
        for run in ("built", "loaded"):
            assert run_cli(*args, "--out-dir", str(tmp_path / run)) == EXIT_OK
            diagnostics = _manifest_diagnostics(tmp_path / run)
            for tag, alpha in (("alpha_1", 1.0), ("alpha_1.2", 1.2)):
                entry = diagnostics[tag]
                assert entry["matrix_loaded"] == (run == "loaded")
                block = build_matrix(GridConfig(16, 1.0), alpha, 20)
                assert entry["mode1_error"] == mode1_error(block)

    def test_matrix_cache_shared_across_maps(self, tmp_path):
        # the block is the unit-scale operator: any L and x_c use one file,
        # and a run on the loaded block is bit-identical to one without a cache
        cache = tmp_path / "mc"
        args = [
            "fisher", "--alpha", "1.5", "--n", "16", "--llim", "20", "--dt", "0.01",
            "--tfinal", "0.3", "--sample-stride", "2",
        ]
        variants = [["--L", "100"], ["--L", "100.0000001"], ["--L", "100", "--xc", "3"]]
        for i, extra in enumerate(variants):
            cached, fresh = tmp_path / f"c{i}", tmp_path / f"f{i}"
            assert run_cli(*args, *extra, "--matrix-cache", str(cache),
                           "--out-dir", str(cached)) == EXIT_OK
            assert run_cli(*args, *extra, "--out-dir", str(fresh)) == EXIT_OK
            assert _manifest_diagnostics(cached)["alpha_1.5"]["matrix_loaded"] == (i > 0)
            trace = "trace_alpha1.5.csv"
            assert (cached / trace).read_bytes() == (fresh / trace).read_bytes()
        assert len(list(cache.glob("*.bin"))) == 1

    def test_matrix_cache_keeps_nearby_alphas_apart(self, tmp_path):
        # orders one ulp apart get their own files: the key is the exact alpha
        cache = tmp_path / "mc"
        args = ["fisher", "--n", "16", "--llim", "20", "--dt", "0.01", "--tfinal", "0.3",
                "--L", "100", "--sample-stride", "2", "--matrix-cache", str(cache)]
        for i, alpha in enumerate(("0.3", "0.30000000000000004")):
            out_dir = tmp_path / f"r{i}"
            assert run_cli(*args, "--alpha", alpha, "--out-dir", str(out_dir)) == EXIT_OK
            assert _manifest_diagnostics(out_dir)[f"alpha_{alpha}"]["matrix_loaded"] is False
        assert len(list(cache.glob("*.bin"))) == 2

    def test_determinism_across_runs(self, tmp_path):
        args = [
            "fisher", "--alpha", "0.9", "--n", "64", "--dt", "0.01",
            "--tfinal", "0.3", "--L", "100.0", "--llim", "150",
            "--fit-window", "0.1:0.3",
        ]
        assert run_cli(*args, "--out-dir", str(tmp_path / "a")) == EXIT_OK
        assert run_cli(*args, "--out-dir", str(tmp_path / "b")) == EXIT_OK
        ta = (tmp_path / "a" / "trace_alpha0.9.csv").read_bytes()
        tb = (tmp_path / "b" / "trace_alpha0.9.csv").read_bytes()
        assert ta == tb

    def test_sweep_produces_summary_per_alpha(self, tmp_path):
        out_dir = tmp_path / "sweep"
        code = run_cli(
            "fisher", "--alpha-sweep", "1.0:1.4:0.2", "--n", "32", "--dt", "0.01",
            "--tfinal", "0.3", "--L", "30.0", "--llim", "100",
            "--fit-window", "0.1:0.3", "--out-dir", str(out_dir),
        )
        assert code == EXIT_OK
        summary = read_csv(out_dir / "summary.csv")
        assert len(summary) == 4  # header + 3 alphas

    def test_sweep_alphas_equal_to_six_digits_keep_their_own_outputs(self, tmp_path):
        # 1.5000001 and 1.5000002 both read 1.5 at six significant digits
        out_dir = tmp_path / "near"
        code = run_cli(
            "fisher", "--alpha-sweep", "1.5000001:1.5000002:0.0000001", "--n", "16",
            "--dt", "0.01", "--tfinal", "1", "--L", "10", "--fit-window", "0.5:1",
            "--llim", "20", "--out-dir", str(out_dir),
        )
        assert code == EXIT_OK
        manifest = json.loads((out_dir / "fisher.manifest.json").read_text())
        assert set(manifest["diagnostics"]) == {"alpha_1.5000001", "alpha_1.5000002"}
        traces = [out_dir / "trace_alpha1.5000001.csv", out_dir / "trace_alpha1.5000002.csv"]
        assert manifest["outputs"] == [str(t) for t in traces] + [str(out_dir / "summary.csv")]
        assert all(t.exists() for t in traces)

    def test_sweep_stops_at_or_below_its_stop(self, tmp_path):
        # 4.6 steps used to round up to 5 and end at alpha = 2.0, failing the whole sweep
        out_dir = tmp_path / "span"
        code = run_cli(
            "fisher", "--alpha-sweep", "1.5:1.96:0.1", "--n", "16", "--dt", "0.01",
            "--tfinal", "0.3", "--L", "10", "--fit-window", "0.1:0.3", "--llim", "20",
            "--out-dir", str(out_dir),
        )
        assert code == EXIT_OK
        summary = read_csv(out_dir / "summary.csv", csv.DictReader)
        assert [float(row["alpha"]) for row in summary] == [1.5, 1.6, 1.7, 1.8, 1.9]

    def test_sweep_keeps_rows_past_a_bad_cache(self, tmp_path):
        # the second alpha's cache file is truncated: that row fails, the first stays
        cache = tmp_path / "mc"
        args = ["--n", "16", "--llim", "20", "--dt", "0.01", "--tfinal", "0.3",
                "--sample-stride", "2", "--matrix-cache", str(cache)]
        assert run_cli("fisher", "--alpha", "1.5", *args, "--out-dir", str(tmp_path / "a")) == EXIT_OK
        (bad,) = cache.glob("*.bin")
        bad.write_bytes(b"\x00" * 4)
        out_dir = tmp_path / "sweep"
        code = run_cli("fisher", "--alpha-sweep", "1.0:1.5:0.5", *args, "--out-dir", str(out_dir))
        assert code == EXIT_IO
        summary = read_csv(out_dir / "summary.csv")
        assert [row[-1] for row in summary[1:]] == ["ok", "MatrixCacheError"]
        assert (out_dir / "trace_alpha1.csv").exists()
        manifest = json.loads((out_dir / "fisher.manifest.json").read_text())
        assert "alpha_1" in manifest["diagnostics"]

    def test_sweep_keeps_rows_past_a_failed_cache_write(self, tmp_path, monkeypatch):
        # the second alpha's cache write raises OSError: that row fails, the
        # first stays, and the summary and manifest are still written
        replace = os.replace
        calls = []

        def second_fails(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError("no space left on device")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", second_fails)
        cache = tmp_path / "mc"
        out_dir = tmp_path / "sweep"
        code = run_cli("fisher", "--alpha-sweep", "1.0:1.5:0.5", "--n", "16", "--llim", "20",
                       "--dt", "0.01", "--tfinal", "0.3", "--sample-stride", "2",
                       "--matrix-cache", str(cache), "--out-dir", str(out_dir))
        assert code == EXIT_IO
        summary = read_csv(out_dir / "summary.csv")
        assert [row[-1] for row in summary[1:]] == ["ok", "OSError"]
        assert "alpha_1" in _manifest_diagnostics(out_dir)
        assert len(list(cache.iterdir())) == 1  # the first alpha's cache, and no temporary

    def test_sweep_keeps_rows_past_a_failed_trace_write(self, tmp_path):
        # a directory holds the first alpha's trace name: that row fails, the second stays
        out_dir = tmp_path / "sweep"
        (out_dir / "trace_alpha1.csv").mkdir(parents=True)
        code = run_cli("fisher", "--alpha-sweep", "1.0:1.5:0.5", "--n", "16", "--llim", "20",
                       "--dt", "0.01", "--tfinal", "0.3", "--sample-stride", "2",
                       "--out-dir", str(out_dir))
        assert code == EXIT_IO
        summary = read_csv(out_dir / "summary.csv")
        assert [row[-1] for row in summary[1:]] == ["IsADirectoryError", "ok"]
        assert set(_manifest_diagnostics(out_dir)) == {"alpha_1.5"}

    def test_older_format_cache_is_rebuilt_in_place(self, tmp_path):
        # an intact file of format 3 or 4 at the cache name: rebuilt, replaced, exit 0
        cache = tmp_path / "mc"
        args = ["fisher", "--alpha", "1.5", "--n", "16", "--llim", "200", "--dt", "0.01",
                "--tfinal", "0.3", "--sample-stride", "2", "--matrix-cache", str(cache)]
        assert run_cli(*args, "--out-dir", str(tmp_path / "a")) == EXIT_OK
        (path,) = cache.glob("*.bin")
        fresh = path.read_bytes()
        for version in (3, 4):
            path.write_bytes(cache_file_bytes(version, 16, 16 * 15, alpha=1.5))
            out_dir = tmp_path / f"v{version}"
            assert run_cli(*args, "--out-dir", str(out_dir)) == EXIT_OK
            assert path.read_bytes() == fresh
            assert _manifest_diagnostics(out_dir)["alpha_1.5"]["matrix_loaded"] is False
            assert not list(cache.glob("*.tmp"))

    @pytest.mark.parametrize(
        "n, alpha", [(0, 0.5), (3, 0.5), (8, 2.0)], ids=["n0", "n3", "alpha2"]
    )
    def test_sweep_invalid_cache_header_is_a_cache_error(self, tmp_path, n, alpha):
        # a CRC-valid file with a bad header field: exit 4 (cache), not 2 (parameters)
        cache = tmp_path / "mc"
        args = ["--n", "16", "--llim", "20", "--dt", "0.01", "--tfinal", "0.3",
                "--sample-stride", "2", "--matrix-cache", str(cache)]
        assert run_cli("fisher", "--alpha", "1.5", *args, "--out-dir", str(tmp_path / "a")) == EXIT_OK
        (bad,) = cache.glob("*.bin")
        bad.write_bytes(cache_file_bytes(3, n, n * (n - 1), alpha=alpha))
        out_dir = tmp_path / "sweep"
        code = run_cli("fisher", "--alpha-sweep", "1.0:1.5:0.5", *args, "--out-dir", str(out_dir))
        assert code == EXIT_IO
        summary = read_csv(out_dir / "summary.csv")
        assert [row[-1] for row in summary[1:]] == ["ok", "MatrixCacheError"]

    def test_fit_error_is_a_failed_row(self, tmp_path):
        # one front sample in the window: the fit raises ValueError
        out_dir = tmp_path / "x"
        code = run_cli(
            "fisher", "--alpha", "1.2", "--n", "16", "--dt", "0.01", "--tfinal", "0.3",
            "--llim", "20", "--fit-window", "0.25:0.3", "--out-dir", str(out_dir),
        )
        assert code == EXIT_INVALID
        summary = read_csv(out_dir / "summary.csv")
        assert summary[1][-1] == "ValueError"
        assert (out_dir / "fisher.manifest.json").exists()

    def test_zero_dt_rejected(self, tmp_path):
        # and a non-finite step or horizon, which would overflow the step count
        for dt, tfinal in (("0", "1.0"), ("nan", "1.0"), ("inf", "1.0"),
                           ("0.01", "inf"), ("0.01", "nan")):
            code = run_cli(
                "fisher", "--alpha", "1.2", "--n", "32", "--dt", dt,
                "--tfinal", tfinal, "--out-dir", str(tmp_path / "x"),
            )
            assert code == EXIT_INVALID
            assert not (tmp_path / "x").exists()

    def test_horizon_off_the_step_grid_rejected(self, tmp_path, capsys):
        # dt = 0.4 to t_final = 1 used to end the run at t = 0.8
        code = run_cli(
            "fisher", "--alpha", "1.2", "--n", "16", "--dt", "0.4", "--tfinal", "1",
            "--llim", "20", "--out-dir", str(tmp_path / "x"),
        )
        assert code == EXIT_INVALID
        assert "whole number of steps" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("bad", [
        ("--alpha-sweep", "1.0:1.2:0.2", "--llim", "-1"),
        ("--alpha-sweep", "1.0:1.2:0.2", "--sample-stride", "0"),
        ("--alpha-sweep", "0:0.2:0.2"),  # checked before L = 1000/alpha^3 divides by it
    ], ids=["llim", "sample-stride", "alpha0"])
    def test_bad_run_parameter_writes_nothing(self, tmp_path, bad):
        # every alpha of the sweep is checked before the output directory exists
        code = run_cli(
            "fisher", *bad, "--n", "16", "--dt", "0.01", "--tfinal", "0.3",
            "--out-dir", str(tmp_path / "x"),
        )
        assert code == EXIT_INVALID
        assert not (tmp_path / "x").exists()

    def test_blowup_exit_code(self, tmp_path):
        # a huge step on a stiff grid blows up immediately
        code = run_cli(
            "fisher", "--alpha", "1.9", "--n", "64", "--dt", "5.0",
            "--tfinal", "20.0", "--L", "1.0", "--llim", "100",
            "--fit-window", "10:20", "--out-dir", str(tmp_path / "x"),
        )
        assert code == EXIT_BLOWUP

    def test_missing_alpha_rejected(self, tmp_path):
        code = run_cli(
            "fisher", "--n", "32", "--dt", "0.01", "--tfinal", "1.0",
            "--out-dir", str(tmp_path / "x"),
        )
        assert code == EXIT_INVALID

    def test_alpha_with_sweep_rejected(self, tmp_path):
        # one of the two would be dropped silently; neither runs
        code = run_cli(
            "fisher", "--alpha", "1.2", "--alpha-sweep", "1.0:1.4:0.2", "--n", "32",
            "--dt", "0.01", "--tfinal", "0.3", "--out-dir", str(tmp_path / "x"),
        )
        assert code == EXIT_INVALID
        assert not (tmp_path / "x").exists()

    def test_front_leaving_the_grid_is_an_escape_row(self, tmp_path, capsys):
        # on 16 nodes at L = 1 the front passes the outermost node at t = 3.8
        out_dir = tmp_path / "x"
        code = run_cli(
            "fisher", "--alpha", "1.5", "--n", "16", "--L", "1", "--dt", "0.01",
            "--tfinal", "6", "--llim", "20", "--out-dir", str(out_dir),
        )
        assert code == EXIT_BLOWUP
        summary = read_csv(out_dir / "summary.csv")
        assert summary[1][-1] == "FrontEscapeError"
        shown = capsys.readouterr()
        escape = "t = 3.8: no 1/2-crossing between adjacent nodes"
        assert f"FAILED ({escape})" in shown.out
        assert shown.err == f"numerical failure: {escape}\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_step_is_a_blowup_row(self, tmp_path, capsys):
        # a step of 1e100 overflows to NaN at once; NaN must not pass the gate,
        # and no numpy RuntimeWarning may precede the BlowUpError
        out_dir = tmp_path / "x"
        code = run_cli(
            "fisher", "--alpha", "1.2", "--n", "64", "--dt", "1e100", "--tfinal", "1e101",
            "--L", "50", "--out-dir", str(out_dir),
        )
        assert code == EXIT_BLOWUP
        summary = read_csv(out_dir / "summary.csv")
        assert summary[1][-1] == "BlowUpError"
        assert "FAILED (t = 1e+100:" in capsys.readouterr().out


_EVERY_COMMAND = pytest.mark.parametrize("command,args,manifest,keys", [
    (["matrix", "build", "--n", "8", "--alpha", "0.5", "--llim", "20"],
     ["--out", "m.bin"], "m.bin.manifest.json",
     {"n", "alpha", "llim", "out"}),
    (["validate", "--target", "mode2", "--n", "4", "--llim", "10",
      "--alpha-grid", "0.5:0.5:1.0"],
     ["--out", "s.csv"], "s.csv.manifest.json",
     {"target", "n", "L", "xc", "llim", "extension", "alpha_grid", "l_sweep",
      "tolerance", "out"}),
    (["fisher", "--alpha", "1.2", "--n", "16", "--dt", "0.01", "--tfinal", "0.3",
      "--llim", "20", "--sample-stride", "2"],
     ["--out-dir", "r"], "r/fisher.manifest.json",
     {"alpha", "alpha_sweep", "n", "dt", "tfinal", "L", "xc", "llim", "fit_window",
      "sample_stride", "out_dir", "matrix_cache"}),
], ids=["matrix_build", "validate", "fisher"])


class TestManifestParameters:
    @_EVERY_COMMAND
    def test_parameter_keys(self, tmp_path, command, args, manifest, keys):
        out = [args[0], str(tmp_path / args[1])]
        assert run_cli(*command, *out) == EXIT_OK
        params = json.loads((tmp_path / manifest).read_text())["parameters"]
        assert set(params) == keys
        assert params[out[0][2:].replace("-", "_")] == out[1]

    @_EVERY_COMMAND
    def test_environment_block(self, tmp_path, command, args, manifest, keys):
        assert run_cli(*command, args[0], str(tmp_path / args[1])) == EXIT_OK
        env = json.loads((tmp_path / manifest).read_text())["environment"]
        assert set(env) == {"numpy", "scipy", "blas", "cpu_count", "blas_pin", "blas_threads"}
        assert env["numpy"] == np.__version__ and env["scipy"] == scipy.__version__
        assert set(env["blas"]) == {"name", "version"}
        assert env["cpu_count"] == os.cpu_count()
        assert env["blas_pin"] == (blas_thread_setter() is not None)
        assert env["blas_threads"] == blas_threads()

    def test_environment_records_the_callers_blas_thread_count(self, thread_count_runs):
        # written after the build, whose products ran pinned to one thread
        if blas_threads() is None:
            pytest.skip("numpy's OpenBLAS exports no thread-count getter")
        counts = {k: run["manifest_blas_threads"] for k, run in thread_count_runs.items()}
        assert counts == {"1": 1, "2": 2}


class TestSpanGrammar:
    def test_bad_span_rejected(self, tmp_path):
        spans = ("0.5:0.1", "0.5:inf:0.5", "-inf:1.5:0.5", "0.5:1.5:nan", "nan:1.5:0.5", "0:1:1e-9")
        for span in spans:
            code = run_cli(
                "validate", "--target", "mode2", "--n", "16", "--llim", "10",
                f"--alpha-grid={span}", "--out", str(tmp_path / "s.csv"),
            )
            assert code == EXIT_INVALID
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag,value,message", [
        ("--alpha-grid", "a:b:c", "non-numeric span 'a:b:c'"),
        ("--fit-window", "a:b", "non-numeric window 'a:b'"),
        ("--fit-window", "1:2:3", "expected lo:hi, got '1:2:3'"),
    ], ids=["span-letters", "window-letters", "window-three-parts"])
    def test_malformed_grammar_is_named(self, tmp_path, capsys, flag, value, message):
        if flag == "--alpha-grid":
            command = ["validate", "--target", "mode2", "--n", "16", "--llim", "10",
                       "--out", str(tmp_path / "s.csv")]
        else:
            command = ["fisher", "--alpha", "1.2", "--n", "32", "--dt", "0.01",
                       "--tfinal", "1.0", "--out-dir", str(tmp_path / "x")]
        assert run_cli(*command, f"{flag}={value}") == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_bad_window_rejected(self, tmp_path):
        for window in ("3:1", "nan:0.3", "0.1:inf"):
            code = run_cli(
                "fisher", "--alpha", "1.2", "--n", "32", "--dt", "0.01",
                "--tfinal", "1.0", f"--fit-window={window}",
                "--out-dir", str(tmp_path / "x"),
            )
            assert code == EXIT_INVALID
            assert list(tmp_path.iterdir()) == []
