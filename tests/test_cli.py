import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kohnspec.eigen
import kohnspec.whittakerhill
from kohnspec.cli import _linspace, main
from kohnspec.curve import curve_from_spec, geometric_invariants
from kohnspec.modes import assemble_bands
from oracles import periodic_dense

ROOT = Path(__file__).resolve().parents[1]

#: The default ``wh-sweep`` table, as written before the Ince path left numpy.
DEFAULT_SWEEP = ROOT / "tests" / "data" / "wh_sweep_default.csv"

#: ``analyze --grid 512 --window 8 8 --format csv`` of ``make-curve random
#: --seed 7``, the benchmark's sweep, as written before the inertia kernel
#: took one shift per column.
ANALYZE_SEED7 = ROOT / "tests" / "data" / "analyze_seed7.csv"

#: ``analyze --grid 512 --window 1 1 --format csv`` of ``make-curve circle
#: --radius 10``, as written before the inertia kernel's two Schur
#: complement steps became one: its probes meet hundreds of nodes.
ANALYZE_CIRCLE10 = ROOT / "tests" / "data" / "analyze_circle10.csv"

#: ``analyze --grid 1000 --window 2 2 --format csv`` of ``make-curve random
#: --seed 7``: K = 31 blocks with remainder 8, and remainder 3 in the Schur
#: complement, the uneven block split.
ANALYZE_SEED7_GRID1000 = ROOT / "tests" / "data" / "analyze_seed7_grid1000.csv"

#: Specs with a key their form does not read, and that key.
FOREIGN_KEYS = [
    ({"rho": {"cos": [1.0]}, "grid": 64, "kappa_samples": [2.0] * 128, "length": 5.0},
     '"kappa_samples"'),
    ({"rho": {"cos": [1.0]}, "length": 5.0}, '"length"'),
    ({"kappa_samples": [2.0] * 128, "length": np.pi, "grid": 64}, '"grid"'),
    ({"rho": {"cos": [1.0], "sin": [], "tan": [0.5]}}, '"tan"'),
]


def run(argv):
    return main(argv)


class TestMakeCurve:
    def test_circle_file(self, tmp_path):
        out = tmp_path / "circle.json"
        assert run(["make-curve", "circle", "--radius", "1", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["rho"]["cos"] == [1.0]
        assert payload["grid"] == 512

    def test_ellipse_file(self, tmp_path):
        out = tmp_path / "ellipse.json"
        assert run(["make-curve", "ellipse", "--eps", "0.3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["rho"]["cos"] == [1.0, 0.0, 0.3]

    def test_random_deterministic(self, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert run(["make-curve", "random", "--seed", "7", "--out", str(out1)]) == 0
        assert run(["make-curve", "random", "--seed", "7", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        out3 = tmp_path / "r3.json"
        assert run(["make-curve", "random", "--seed", "8", "--out", str(out3)]) == 0
        assert out1.read_bytes() != out3.read_bytes()

    def test_negative_radius_exits_one(self, capsys):
        assert run(["make-curve", "circle", "--radius", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "radius" in err and "Traceback" not in err, err

    def test_unresolved_total_turning_names_the_grid(self, tmp_path, capsys):
        # the narrow ends of eps = 0.9 turn faster than grid 512 integrates
        # to 1e-8; grid 1024 builds the same profile
        assert run(["make-curve", "ellipse", "--eps", "0.9"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: total curvature") and "Traceback" not in err, err
        assert "at grid 512" in err and "finer grid" in err, err
        assert run(["make-curve", "ellipse", "--eps", "0.9", "--grid", "1024",
                    "--out", str(tmp_path / "x.json")]) == 0

    def test_bad_eps(self, tmp_path):
        assert run(["make-curve", "ellipse", "--eps", "1.5",
                    "--out", str(tmp_path / "x.json")]) == 1

    @pytest.mark.parametrize("argv", [
        ["random", "--seed", "3", "--radius", "5", "--eps", "0.9"],
        ["circle", "--eps", "0.3"],
        ["ellipse", "--seed", "1"],
    ])
    def test_option_of_another_preset_exits_one(self, argv, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run(["make-curve", *argv, "--out", str(out)]) == 1
        assert "error: unrecognized arguments: " in capsys.readouterr().err
        assert not out.exists()


class TestAnalyze:
    def test_circle_report(self, tmp_path):
        spec = tmp_path / "circle.json"
        report = tmp_path / "report.json"
        run(["make-curve", "circle", "--out", str(spec)])
        code = run(["analyze", str(spec), "--grid", "256", "--window", "2", "2",
                    "--out", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["lambda1_estimate"] == pytest.approx(0.5, abs=1e-3)
        assert payload["holds"] and payload["equality"]
        assert payload["window"] == [2, 2]

    def test_oval_report_strict(self, tmp_path):
        spec = tmp_path / "ellipse.json"
        report = tmp_path / "report.json"
        run(["make-curve", "ellipse", "--eps", "0.3", "--out", str(spec)])
        code = run(["analyze", str(spec), "--grid", "256", "--window", "1", "1",
                    "--out", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["holds"] and not payload["equality"]
        assert payload["slack"] > 0

    def test_csv_format(self, tmp_path, capsys):
        spec = tmp_path / "circle.json"
        run(["make-curve", "circle", "--out", str(spec)])
        code = run(["analyze", str(spec), "--grid", "128", "--window", "1", "1",
                    "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "m,l,lambda0,lambda1"
        assert lines[-1].startswith("summary,")

    def test_kappa_samples_input(self, tmp_path):
        spec = tmp_path / "samples.json"
        spec.write_text(json.dumps({
            "kappa_samples": list(np.full(128, 2.0)),
            "length": np.pi,
        }))
        report = tmp_path / "report.json"
        assert run(["analyze", str(spec), "--window", "1", "1",
                    "--out", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["lambda1_estimate"] == pytest.approx(1.0, abs=1e-3)

    def test_grid_with_kappa_samples_exits_one(self, tmp_path, capsys):
        spec = tmp_path / "samples.json"
        spec.write_text(json.dumps({
            "kappa_samples": list(np.full(128, 2.0)),
            "length": np.pi,
        }))
        assert run(["analyze", str(spec), "--grid", "256", "--window", "1", "1"]) == 1
        assert "grid" in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path):
        spec = tmp_path / "circle.json"
        run(["make-curve", "circle", "--out", str(spec)])
        r1 = tmp_path / "a.json"
        r2 = tmp_path / "b.json"
        run(["analyze", str(spec), "--grid", "128", "--window", "1", "1", "--out", str(r1)])
        run(["analyze", str(spec), "--grid", "128", "--window", "1", "1", "--out", str(r2)])
        assert r1.read_bytes() == r2.read_bytes()

    def test_bad_curve_exits_one(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"rho": {"cos": [1.0, 0.0, -1.1]}, "grid": 128}))
        assert run(["analyze", str(spec)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [
        5,
        ["rho"],
        {"rho": {"cos": 1}},
        {"rho": {"cos": [1], "sin": 5}},
        {"rho": {"cos": [1]}, "grid": None},
        {"rho": {"cos": [1]}, "grid": 16.5},
        {"kappa_samples": 5, "length": 1.0},
        {"kappa_samples": [1.0] * 16, "length": None},
        {"rho": {"cos": [10**400]}},
        *(spec for spec, _ in FOREIGN_KEYS),
    ])
    def test_malformed_spec_exits_one_with_a_message(self, spec, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        proc = subprocess.run([sys.executable, "-m", "kohnspec.cli", "analyze", str(path),
                               "--window", "1", "1"], capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr, proc.stderr

    def test_profile_without_coefficients_exits_one(self, tmp_path, capsys):
        spec = tmp_path / "empty.json"
        spec.write_text(json.dumps({"rho": {"cos": []}}))
        assert run(["analyze", str(spec), "--window", "1", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "c_0" in err and "Traceback" not in err, err

    def test_estimate_above_a_small_bound_exits_two(self, tmp_path, monkeypatch, capsys):
        # lambda_1 1e-4 above the bound 5e-4 of a circle of radius 1000: the
        # tolerance of ``holds`` is 1e-6 of the bound, 5e-10 here
        import kohnspec.spectrum
        spec, out = tmp_path / "circle.json", tmp_path / "report.json"
        assert run(["make-curve", "circle", "--radius", "1000", "--out", str(spec)]) == 0

        def above_bound(curve, modes, k):
            bound = geometric_invariants(curve)["bound_rhs"]
            return np.tile([0.0, bound * (1.0 + 1e-4)], (len(modes), 1))

        monkeypatch.setattr(kohnspec.spectrum, "mode_spectra", above_bound)
        assert run(["analyze", str(spec), "--window", "1", "1", "--out", str(out)]) == 2
        report = json.loads(out.read_text())
        assert report["bound_rhs"] == pytest.approx(5e-4, rel=1e-12)
        assert report["holds"] is False and report["equality"] is False
        assert "exceeds the bound" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path):
        assert run(["analyze", str(tmp_path / "nope.json")]) == 1

    def test_invalid_json_exits_one(self, tmp_path):
        spec = tmp_path / "broken.json"
        spec.write_text("{not json")
        assert run(["analyze", str(spec)]) == 1

    def test_odd_grid_exits_one(self, tmp_path):
        spec = tmp_path / "circle.json"
        run(["make-curve", "circle", "--out", str(spec)])
        assert run(["analyze", str(spec), "--grid", "63"]) == 1

    def test_coarse_grid_follows_the_library_rule(self, tmp_path, capsys):
        # one grid rule, the library's (even, >= 16): a circle resolves at
        # grid 32, a coarse oval fails the total-turning check
        circle = tmp_path / "circle.json"
        oval = tmp_path / "oval.json"
        run(["make-curve", "circle", "--out", str(circle)])
        run(["make-curve", "ellipse", "--eps", "0.3", "--out", str(oval)])
        capsys.readouterr()
        assert run(["analyze", str(circle), "--grid", "32", "--window", "1", "1",
                    "--out", str(tmp_path / "report.json")]) == 0
        assert run(["analyze", str(oval), "--grid", "32", "--window", "1", "1"]) == 1
        assert "total curvature" in capsys.readouterr().err


class TestWHSweep:
    def test_default_style_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["wh-sweep", "--a-min", "0", "--a-max", "10", "--steps", "11",
                    "--N", "30", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "a,N,E1,in_sector,pass"
        assert len(lines) == 12
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[1] == "30"
            assert fields[3] == "False"
            assert fields[4] == "True"

    def test_single_step(self, tmp_path):
        out = tmp_path / "one.csv"
        assert run(["wh-sweep", "--steps", "1", "--a-min", "0", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2
        assert float(lines[1].split(",")[2]) == pytest.approx(1.0)

    def test_tiny_truncation_complex_pair(self, tmp_path):
        out = tmp_path / "tiny.csv"
        code = run(["wh-sweep", "--N", "2", "--a-min", "2", "--a-max", "2",
                    "--steps", "1", "--out", str(out)])
        assert code == 0
        fields = out.read_text().strip().split("\n")[1].split(",")
        assert float(fields[2]) == pytest.approx(2.5)
        assert fields[3] == "False"

    def test_inverted_range_exits_one(self):
        assert run(["wh-sweep", "--a-min", "5", "--a-max", "1"]) == 1

    def test_zero_steps_exits_one(self, capsys):
        assert run(["wh-sweep", "--steps", "0"]) == 1
        assert "--steps" in capsys.readouterr().err

    def test_steps_past_the_limit_exits_one(self, capsys):
        assert run(["wh-sweep", "--steps", "262145"]) == 1
        assert capsys.readouterr().err == "error: --steps must be at most 262144, got 262145\n"

    def test_certificate_failure_exits_two(self, monkeypatch, capsys):
        def failing(a_values, N):
            raise kohnspec.whittakerhill.CertificateFailed("eigenvalue in the sector at a=2.0")

        monkeypatch.setattr(kohnspec.whittakerhill, "verify_E_geq_1", failing)
        assert run(["wh-sweep", "--steps", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: eigenvalue in the sector at a=2.0\n"

    def test_failed_floor_exits_two_after_the_table(self, monkeypatch, tmp_path, capsys):
        real = kohnspec.whittakerhill.verify_E_geq_1
        monkeypatch.setattr(kohnspec.whittakerhill, "verify_E_geq_1",
                            lambda a_values, N: {**real(a_values, N=N), "all_pass": False})
        out = tmp_path / "sweep.csv"
        assert run(["wh-sweep", "--steps", "3", "--N", "20", "--out", str(out)]) == 2
        assert len(out.read_text().splitlines()) == 4
        assert capsys.readouterr().err == "error: spectral floor verification failed\n"


def test_default_sweep_bytes_unchanged(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = subprocess.run([sys.executable, "-m", "kohnspec.cli", "wh-sweep", "--out", str(out)],
                          capture_output=True)
    assert proc.returncode == 0 and proc.stderr == b"", proc.stderr
    assert out.read_bytes() == DEFAULT_SWEEP.read_bytes()
    proc = subprocess.run([sys.executable, "-m", "kohnspec.cli", "wh-sweep"], capture_output=True)
    assert proc.returncode == 0 and proc.stdout == DEFAULT_SWEEP.read_bytes()


def analyze_csv(tmp_path, preset, window, grid="512"):
    """The ``analyze --grid GRID --format csv`` bytes of ``make-curve`` ``preset``."""
    spec, out = tmp_path / "curve.json", tmp_path / "report.csv"
    for argv in (["make-curve", *preset, "--out", str(spec)],
                 ["analyze", str(spec), "--grid", grid, "--window", *window, "--format", "csv",
                  "--out", str(out)]):
        proc = subprocess.run([sys.executable, "-m", "kohnspec.cli", *argv], capture_output=True)
        assert proc.returncode == 0 and proc.stderr == b"", proc.stderr
    return out.read_bytes()


def test_benchmark_analyze_bytes_unchanged(tmp_path):
    report = analyze_csv(tmp_path, ["random", "--seed", "7"], ["8", "8"])
    assert report == ANALYZE_SEED7.read_bytes()


def test_nodal_circle_analyze_bytes_unchanged(tmp_path):
    report = analyze_csv(tmp_path, ["circle", "--radius", "10"], ["1", "1"])
    assert report == ANALYZE_CIRCLE10.read_bytes()


def test_uneven_blocks_analyze_bytes_unchanged(tmp_path):
    report = analyze_csv(tmp_path, ["random", "--seed", "7"], ["2", "2"], grid="1000")
    assert report == ANALYZE_SEED7_GRID1000.read_bytes()


def test_default_sweep_passes_the_benchmark_oracle():
    # the oracle imports the sector certificate from kohnspec.eigen, which
    # re-exports whittakerhill's, and applies it to whittakerhill's
    # truncations with LAPACK's eigenvalues of their dense form
    spec = importlib.util.spec_from_file_location("perfbench_oracle",
                                                  ROOT / "perfbench" / "oracle.py")
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    assert kohnspec.eigen.point_in_sector is kohnspec.whittakerhill.point_in_sector
    assert (kohnspec.eigen.sector_exclusion_certificate
            is kohnspec.whittakerhill.sector_exclusion_certificate)
    proc = subprocess.run([sys.executable, "-m", "kohnspec.cli", "wh-sweep"], capture_output=True)
    assert proc.returncode == 0
    assert oracle.check_wh_sweep(proc.stdout) == []


# sweep ends: any finite float, subnormal and tiny ones, and the largest,
# whose difference overflows
ends = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-305, 1e-305),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, sys.float_info.max]),
)


@settings(max_examples=500, deadline=None)
@given(start=ends, stop=ends, steps=st.integers(1, 200), equal=st.booleans())
@example(start=-1e308, stop=1e308, steps=3, equal=False)
@example(start=1e308, stop=-1e308, steps=1, equal=False)
@example(start=10.0, stop=0.0, steps=41, equal=False)
@example(start=5e-324, stop=1e-323, steps=9, equal=False)
@example(start=3.0, stop=3.0, steps=5, equal=False)
def test_couplings_equal_numpy_linspace(start, stop, steps, equal):
    if equal:
        stop = start
    with np.errstate(all="ignore"):  # numpy warns where stop - start overflows
        want = np.linspace(start, stop, steps)
    assert np.array(_linspace(start, stop, steps)).tobytes() == want.tobytes()


class TestNonFiniteInput:
    @pytest.mark.parametrize("argv, field", [
        (["make-curve", "circle", "--radius", "nan"], "cos_coeffs[0]"),
        (["make-curve", "circle", "--radius", "inf"], "cos_coeffs[0]"),
        (["make-curve", "ellipse", "--eps", "nan"], "cos_coeffs[2]"),
        (["wh-sweep", "--a-min", "nan"], "--a-min"),
        (["wh-sweep", "--a-min", "inf", "--a-max", "inf"], "--a-min"),
        (["wh-sweep", "--a-max", "nan"], "--a-max"),
        (["wh-sweep", "--a-min=-1e308", "--a-max=1e308", "--steps", "3"], "--a-max - --a-min"),
        (["make-curve", "circle", "--radius", "1e308", "--grid", "64"], "cos_coeffs[0]"),
    ])
    def test_option_exits_one_without_warning(self, argv, field, tmp_path, capsys):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and field in err, err
        assert not out.exists()

    @pytest.mark.parametrize("spec, field", [
        ({"rho": {"cos": [1.0, 0.0, 0.1], "sin": [0.0, float("nan")]}, "grid": 128},
         "sin_coeffs[1]"),
        ({"kappa_samples": [2.0] * 5 + [float("nan")] + [2.0] * 122, "length": np.pi},
         "sample 5"),
        ({"kappa_samples": [2.0] * 128, "length": float("inf")}, "length"),
        ({"rho": {"cos": [1e308]}, "grid": 64}, "cos_coeffs[0]"),
        ({"rho": {"cos": [1e5]}, "grid": 64}, "mode (-1, -1) at grid 64"),
        ({"rho": {"cos": [1e-100]}, "grid": 64}, "zero mode"),
        ({"rho": {"cos": [1e-200]}, "grid": 64}, "rho must be at least 2^-400"),
        # the turning sits in two spikes of pi / h; the other samples' band
        # entries, of order 1 / (h^2 kappa), overflowed
        ({"kappa_samples": [16.0 * np.pi] + [1e-306] * 7 + [16.0 * np.pi] + [1e-306] * 7,
          "length": 1.0}, "kappa_samples: sample 1 = 1e-306"),
        ({"kappa_samples": [1e308] * 16, "length": 1.0}, "kappa_samples: sample 0 = 1e+308"),
        ({"kappa_samples": [2.0**399] * 16, "length": 1e300}, "kappa_samples: sample 0 alone turns"),
        ({"kappa_samples": [float("inf")] * 16, "length": 1.0}, "sample 0 is inf"),
        *((spec, f"does not read {key}") for spec, key in FOREIGN_KEYS),
    ])
    def test_spec_exits_one_without_warning(self, spec, field, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["analyze", str(path), "--window", "1", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err, err


class TestOversizedInput:
    """Sizes past each one's working-set limit exit 1 before they allocate."""

    @pytest.mark.parametrize("argv, field", [
        (["analyze", "{spec}", "--grid", "1000000000000000"], "grid"),
        (["analyze", "{big_grid}"], "grid"),
        (["analyze", "{spec}", "--window", "1000000000", "1000000000"], "window"),
        (["analyze", "{spec}", "--grid", "16384"], "window (8, 8) at grid 16384"),
        (["wh-sweep", "--N", "1000000000000000"], "N must"),
        (["wh-sweep", "--steps", "1000000000000000"], "--steps"),
        (["make-curve", "circle", "--grid", "1000000000000000"], "grid"),
    ])
    def test_exits_one_with_a_message(self, argv, field, tmp_path):
        spec, big_grid = tmp_path / "circle.json", tmp_path / "big.json"
        assert run(["make-curve", "circle", "--out", str(spec)]) == 0
        big_grid.write_text(json.dumps({"rho": {"cos": [1.0]}, "grid": 10**15}))
        argv = [arg.format(spec=spec, big_grid=big_grid) for arg in argv]
        proc = subprocess.run([sys.executable, "-m", "kohnspec.cli", *argv, "--out",
                               str(tmp_path / "out")], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr, proc.stderr
        assert field in proc.stderr
        assert not (tmp_path / "out").exists()


class TestUsage:
    def test_no_command(self):
        assert run([]) == 1

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 1

    def test_unknown_flag(self):
        assert run(["wh-sweep", "--bogus"]) == 1


def test_module_entry_point(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "kohnspec.cli", "wh-sweep", "--steps", "1",
         "--N", "10", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.read_text().startswith("a,N,E1,in_sector,pass")


def _loaded_modules(argv):
    # -X importtime lists every module the run imports on stderr
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "kohnspec.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {line.split("|")[-1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def test_commands_import_only_what_they_run(tmp_path):
    sweep = _loaded_modules(["wh-sweep", "--steps", "2", "--N", "10"])
    assert "kohnspec.whittakerhill" in sweep
    assert not sweep & {"kohnspec.curve", "kohnspec.modes", "kohnspec.spectrum",
                        "kohnspec.eigen"}
    assert not {name for name in sweep if name.split(".")[0] == "numpy"}
    spec = tmp_path / "circle.json"
    assert run(["make-curve", "circle", "--out", str(spec)]) == 0
    analyze = _loaded_modules(["analyze", str(spec), "--grid", "64", "--window", "1", "1"])
    assert "kohnspec.spectrum" in analyze and "kohnspec.whittakerhill" not in analyze


#: Runs the default ``wh-sweep`` on two CPUs and prints, for each fork of
#: the share runner, the OS threads of the process at that moment.
THREADS_AT_FORK = """
import os, sys
from kohnspec import cli
os.sched_getaffinity = lambda pid: {0, 1}
real_fork, threads = os.fork, []
def fork():
    threads.append(len(os.listdir("/proc/self/task")))
    return real_fork()
os.fork = fork
code = cli.main(["wh-sweep", "--out", os.devnull])
print(threads, "numpy" in sys.modules)
sys.exit(code)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or not hasattr(os, "fork"),
                    reason="needs os.fork and /proc/self/task")
def test_wh_sweep_forks_with_one_os_thread():
    # no numpy, so no OpenBLAS thread pool: a fork copies the only thread
    # there is, and Python 3.12's warning about forking a process with
    # more threads cannot come from wh-sweep
    proc = subprocess.run([sys.executable, "-c", THREADS_AT_FORK], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[1]", "False"]


#: Plants an eigenvalue in the excluded sector at the sweep's second
#: coupling (a = 2), which the forked share computes when there are two CPUs.
PLANTED_SECTOR_HIT = """
import sys
import numpy as np
from kohnspec import cli, whittakerhill
real = whittakerhill.eig_general_tridiagonal
def planted(tri):
    return np.array([0.5 + 0j, 4.0 + 0j]) if tri.upper[0] == 4.0 else real(tri)
whittakerhill.eig_general_tridiagonal = planted
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv, code", [
    (["-m", "kohnspec.cli", "wh-sweep"], 0),
    (["-m", "kohnspec.cli", "wh-sweep", "--a-min", "5", "--a-max", "1"], 1),
    (["-c", PLANTED_SECTOR_HIT, "wh-sweep", "--a-max", "10", "--steps", "6", "--N", "10"], 2),
])
def test_wh_sweep_leaves_no_process_behind(argv, code):
    # the CLI leads a process group of its own; once it has exited, no
    # forked worker may remain in that group
    proc = subprocess.Popen([sys.executable, *argv], start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == code, err
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def test_default_sweep_same_bytes_on_one_and_two_cpus(tmp_path, monkeypatch):
    outputs = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        out = tmp_path / f"sweep-{cpus}.csv"
        assert run(["wh-sweep", "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


# The CLI gate: whatever a spec, grid, window or sweep range holds, a run
# exits 0, 1 or 2, with no traceback and no warning, and an exit-0 report's
# minimum is LAPACK's eigenvalue of the argmin mode's matrix.

#: Numbers of random specs: up to 2 in magnitude, and the extremes (tiny,
#: huge, non-finite, past the float range).  Radii between 2 and 1e15 stay
#: out: a circle of radius 300 takes minutes at grid 512, in the inertia
#: kernel's dense count of nodal cycles, which a gate of hundreds of runs
#: cannot afford.
spec_numbers = st.floats(-2.0, 2.0) | st.sampled_from(
    [float("nan"), float("inf"), -1e308, 1e308, 1e15, 1e-100, 1e-300, 5e-324, 10**400])
json_leaves = st.one_of(st.none(), st.booleans(), spec_numbers, st.integers(-2, 2),
                        st.text(max_size=4))
json_values = st.recursive(json_leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.dictionaries(st.sampled_from(["rho", "cos", "sin", "kappa_samples", "length", "grid"])
                    | st.text(max_size=4), inner, max_size=4)), max_leaves=12)

#: Grids around the even, >= 16 rule, and past the largest grid.
grids = st.integers(8, 40).map(lambda half: 2 * half) | st.sampled_from(
    [10, 14, 15, 17, 15.0, 16.0, 10**15, None])

#: Closed profiles (c_1 = d_1 = 0, mostly) with small harmonics, the
#: constant term, the radius, in [0.5, 2] (see ``spec_numbers``).
harmonics = st.lists(st.floats(-0.1, 0.1) | st.sampled_from([-0.0, 5e-324, 1e-300]),
                     max_size=4)
rho_specs = st.builds(
    lambda c0, c1, cos, d1, sin, grid: {"rho": {"cos": [c0, c1, *cos], "sin": [d1, *sin]},
                                        "grid": grid},
    st.floats(0.5, 2.0), st.sampled_from([0.0, 0.0, 0.0, 1e-13]), harmonics,
    st.sampled_from([0.0, 0.0, 0.0, -1e-13]), harmonics, grids)

#: Curvature samples: circles of any sampled length, some perturbed.
sample_specs = st.builds(
    lambda n, length, bump: {"kappa_samples": [2 * np.pi / length + bump * (i == 0)
                                               for i in range(n)], "length": length},
    st.integers(14, 40), st.floats(1.0, 20.0), st.sampled_from([0.0, 0.0, 1e-9, 0.5]))

specs = st.one_of(rho_specs, sample_specs, json_values)
grid_options = st.none() | grids
windows = st.tuples(st.integers(-1, 2), st.integers(0, 2))
sweep_ends = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308,
                                                     sys.float_info.max]))


def _run_quietly(argv):
    """main(argv) with warnings as errors; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(spec=specs, window=windows, grid_option=grid_options)
@example(spec={"rho": {"cos": [1e308]}, "grid": 64}, window=(1, 1), grid_option=None)
@example(spec={"rho": {"cos": [1e5]}, "grid": 64}, window=(1, 1), grid_option=None)
@example(spec={"rho": {"cos": [1e-100]}, "grid": 64}, window=(1, 1), grid_option=None)
@example(spec={"rho": {"cos": [1000.0]}, "grid": 16}, window=(2, 2), grid_option=None)
def test_analyze_gate(spec, window, grid_option):
    with tempfile.TemporaryDirectory() as tmp:
        path, report = os.path.join(tmp, "spec.json"), os.path.join(tmp, "report.json")
        with open(path, "w") as handle:
            json.dump(spec, handle)
        argv = ["analyze", path, "--window", *map(str, window), "--out", report]
        if grid_option is not None:
            argv += ["--grid", str(grid_option)]
        code, _, err = _run_quietly(argv)
        assert code in (0, 1, 2), err
        assert "Traceback" not in err
        assert (code == 0) == (err == ""), err
        if code != 0:
            assert "error:" in err, err
            return
        with open(report) as handle:
            payload = json.load(handle)
    curve = curve_from_spec(spec, grid=grid_option)
    lam1 = np.linalg.eigvalsh(periodic_dense(*assemble_bands(curve, payload["argmin_mode"])))[1]
    assert abs(payload["lambda1_estimate"] - lam1) <= 1e-9 * max(1.0, abs(lam1))


@settings(max_examples=100, deadline=None)
@given(a_min=sweep_ends, a_max=sweep_ends, steps=st.integers(0, 5), N=st.integers(0, 12))
@example(a_min=-1e308, a_max=1e308, steps=3, N=60)
def test_wh_sweep_gate(a_min, a_max, steps, N):
    with tempfile.TemporaryDirectory() as tmp:
        code, _, err = _run_quietly(["wh-sweep", f"--a-min={a_min!r}", f"--a-max={a_max!r}",
                                     "--steps", str(steps), "--N", str(N),
                                     "--out", os.path.join(tmp, "sweep.csv")])
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    assert code == 0 or "error:" in err, err
