import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from kohnspec.cli import main


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

    def test_bad_eps(self, tmp_path):
        assert run(["make-curve", "ellipse", "--eps", "1.5",
                    "--out", str(tmp_path / "x.json")]) == 1


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
    ])
    def test_malformed_spec_exits_one_with_a_message(self, spec, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        proc = subprocess.run([sys.executable, "-m", "kohnspec.cli", "analyze", str(path),
                               "--window", "1", "1"], capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr, proc.stderr

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


class TestNonFiniteInput:
    @pytest.mark.parametrize("argv, field", [
        (["make-curve", "circle", "--radius", "nan"], "cos_coeffs[0]"),
        (["make-curve", "circle", "--radius", "inf"], "cos_coeffs[0]"),
        (["make-curve", "ellipse", "--eps", "nan"], "cos_coeffs[2]"),
        (["wh-sweep", "--a-min", "nan"], "--a-min"),
        (["wh-sweep", "--a-min", "inf", "--a-max", "inf"], "--a-min"),
        (["wh-sweep", "--a-max", "nan"], "--a-max"),
    ])
    def test_option_exits_one_without_warning(self, argv, field, tmp_path, capsys):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv + ["--out", str(out)]) == 1
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec, field", [
        ({"rho": {"cos": [1.0, 0.0, 0.1], "sin": [0.0, float("nan")]}, "grid": 128},
         "sin_coeffs[1]"),
        ({"kappa_samples": [2.0] * 5 + [float("nan")] + [2.0] * 122, "length": np.pi},
         "sample 5"),
        ({"kappa_samples": [2.0] * 128, "length": float("inf")}, "length"),
    ])
    def test_spec_exits_one_without_warning(self, spec, field, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["analyze", str(path), "--window", "1", "1"]) == 1
        assert field in capsys.readouterr().err


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


def _loaded_kohnspec_modules(argv):
    # -X importtime lists every module the run imports on stderr
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "kohnspec.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {line.split("|")[-1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:") and "kohnspec" in line}


def test_commands_import_only_what_they_run(tmp_path):
    sweep = _loaded_kohnspec_modules(["wh-sweep", "--steps", "2", "--N", "10"])
    assert "kohnspec.whittakerhill" in sweep
    assert not sweep & {"kohnspec.curve", "kohnspec.modes", "kohnspec.spectrum"}
    spec = tmp_path / "circle.json"
    assert run(["make-curve", "circle", "--out", str(spec)]) == 0
    analyze = _loaded_kohnspec_modules(["analyze", str(spec), "--grid", "64",
                                        "--window", "1", "1"])
    assert "kohnspec.spectrum" in analyze and "kohnspec.whittakerhill" not in analyze


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
