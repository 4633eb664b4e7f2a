"""kohnspec benchmark: time to a verified report through the ``kohnspec`` CLI.

Run from the repository root:

    python3 perfbench/run.py --workload analyze-wide --seed 7 --seconds 50 --trace 0

``--workload all`` runs every workload in turn and prints one result per
workload.  Load model: a closed loop with one client.  One CLI process runs
at a time as a subprocess and the next starts when it has exited; the CLI
receives only the curve file made from ``--seed``.  Runs repeat while at
least half of the next one would fall within ``--seconds``.

With ``--trace 0`` the result holds the end-to-end metrics ``wall_s``,
``setup_s`` and ``peak_rss_mb``.  With ``--trace 1`` every untraced CLI run
is followed by one through ``traced_cli.py``, and the result holds the
per-layer metrics of the traced runs plus ``trace.overhead_frac``.  Every
output is checked against an independent oracle outside the timed region,
and every output on one seed must be byte-identical to the first.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Raw samples, the
environment and the spans of every traced run stay in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"
OUT_ROOT = ROOT / ".perfbench_out"


@dataclass(frozen=True)
class Workload:
    grid: int | None = None  # None: the wh-sweep defaults, no curve
    window: tuple | None = None


# Why each workload is here is recorded in BENCHMARK.json and README.md.
# analyze-fine is not in BENCHMARK.json: see README.md.
WORKLOADS = {
    "analyze-wide": Workload(grid=512, window=(8, 8)),
    "analyze-fine": Workload(grid=4096, window=(1, 1)),
    "wh-sweep": Workload(),
}

#: Fresh interpreters timed for setup_s before each untraced CLI run, so
#: that the launches spread over the whole run; one untimed warm-up first.
SETUP_LAUNCHES = 5

#: Fewest untraced CLI runs, so that a repeat can be compared byte for byte.
MIN_RUNS = 2

#: Every child is killed this long after its workload started.
DEADLINE_S = 170.0


@dataclass
class Run:
    wall_s: float
    exit_code: int
    peak_rss_mb: float
    output: bytes | None
    trace: dict | None = None


class Harness:
    """Spawns children one at a time and keeps their files in one directory."""

    def __init__(self, out_dir: Path, deadline: float):
        self.out_dir = out_dir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.spawned = 0
        self.cli_runs = 0

    def spawn(self, argv):
        """Wall time from spawn to exit, exit code and peak RSS of one child."""
        self.spawned += 1
        log = self.out_dir / f"stderr-{self.spawned}.txt"
        with open(log, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=self.out_dir,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
            killer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            sys.stderr.write(f"child {argv[1:]} exited {proc.returncode}:\n"
                             + log.read_text(errors="replace")[-2000:])
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    def run_cli(self, cli_args, traced: bool) -> Run:
        """One CLI run; only the first run's output file is kept."""
        self.cli_runs += 1
        index = self.spawned + 1
        out = self.out_dir / f"out-{index}"
        trace_path = self.out_dir / f"trace-{index}.json"
        args = [*cli_args, "--out", str(out)]
        if traced:
            argv = [sys.executable, str(TRACED_CLI), str(trace_path), *args]
        else:
            argv = [sys.executable, "-m", "kohnspec.cli", *args]
        wall, code, rss = self.spawn(argv)
        output = out.read_bytes() if out.exists() else None
        if self.cli_runs > 1:
            out.unlink(missing_ok=True)
        trace = json.loads(trace_path.read_text()) if traced and trace_path.exists() else None
        return Run(wall, code, rss, output, trace)


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced run; self time excludes child spans."""
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    total, own, calls = defaultdict(float), defaultdict(float), Counter()
    for (name, start, end, _), child in zip(spans, covered):
        total[name] += end - start
        own[name] += end - start - child
        calls[name] += 1

    def per_call(name):
        return total[name] / calls[name] if calls[name] else 0.0

    counters = trace["counters"]
    metrics = {
        "cli.main_s": total["cli.main"],
        "cli.self_s": own["cli.main"],
        "curve.curve_from_spec_s": total["curve.curve_from_spec"],
        "curve.geometric_invariants_s": total["curve.geometric_invariants"],
        "curve.webster_scalar_curvature_s": total["curve.webster_scalar_curvature"],
        "modes.mode_spectrum_s": per_call("modes.mode_spectrum"),
        "modes.assemble_bands_s": per_call("modes.assemble_bands"),
        "modes.self_s": own["modes.mode_spectrum"],
        "modes.calls": calls["modes.mode_spectrum"],
        "eigen.periodic_eig_s": per_call("eigen.eig_periodic_sym_tridiagonal"),
        "eigen.general_tridiagonal_s": per_call("eigen.eig_general_tridiagonal"),
        "eigen.sector_certificate_s": (total["eigen.sector_exclusion_certificate"]
                                       + total["eigen.point_in_sector"]),
        "eigen.runtime_warnings": counters["runtime_warnings"],
        "whittakerhill.verify_E_geq_1_s": total["whittakerhill.verify_E_geq_1"],
        "whittakerhill.ince_matrix_s": total["whittakerhill.ince_matrix"],
        "whittakerhill.self_s": own["whittakerhill.verify_E_geq_1"],
        "whittakerhill.couplings": calls["whittakerhill.ince_matrix"],
        "spectrum.lambda1_kohn_s": total["spectrum.lambda1_kohn"],
        "spectrum.self_s": own["spectrum.lambda1_kohn"],
        "spectrum.emit_report_s": total["spectrum.emit_report"],
        "spectrum.report_bytes": counters.get("report_bytes", 0),
    }
    # No bisection on this path reads 0; bisection whose probes could not be
    # counted (routine compiled or gone) leaves the metric absent.
    bisected = counters.get("eigenvalues_bisected", 0)
    if bisected == 0:
        metrics["eigen.probes_per_eigenvalue"] = 0.0
    elif counters.get("probes", 0) > 0:
        metrics["eigen.probes_per_eigenvalue"] = counters["probes"] / bisected
    return metrics


UNITS = {"peak_rss_mb": "MB", "modes.calls": "count", "eigen.probes_per_eigenvalue": "count",
         "eigen.runtime_warnings": "count", "whittakerhill.couplings": "count",
         "spectrum.report_bytes": "bytes", "trace.overhead_frac": "frac"}


def unit_of(name: str) -> str:
    return "s" if name.endswith("_s") else UNITS[name]


def environment(workload: str, seed: int, trace: int) -> dict:
    import numpy
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {"workload": workload, "seed": seed, "trace": trace,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "numba": has_numba, "cpus": len(os.sched_getaffinity(0))}


def make_input(workload: Workload, seed: int, out_dir: Path):
    """CLI arguments for the workload, writing its curve file from the seed."""
    if workload.grid is None:
        return ["wh-sweep"], None
    from kohnspec.curve import profile_to_dict, random_profile
    spec = profile_to_dict(random_profile(seed), workload.grid)
    path = out_dir / "curve.json"
    path.write_text(json.dumps(spec, indent=2) + "\n")
    m, l = workload.window
    return ["analyze", str(path), "--grid", str(workload.grid),
            "--window", str(m), str(l)], spec


def gate(workload: Workload, output: bytes | None, spec) -> list:
    import oracle
    if output is None:
        return ["the CLI wrote no output"]
    if workload.grid is None:
        return oracle.check_wh_sweep(output)
    return oracle.check_analyze(output, spec, workload.grid, workload.window)


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[name]
    out_dir = OUT_ROOT / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    harness = Harness(out_dir, deadline)
    env = environment(name, seed, trace)
    print("env " + json.dumps(env), flush=True)
    cli_args, spec = make_input(workload, seed, out_dir)
    problems = []

    setup = []

    def time_setup(launches):
        for _ in range(launches):
            wall, code, _ = harness.spawn([sys.executable, "-c", "import kohnspec"])
            if code != 0:
                problems.append(f"import kohnspec exited {code}")
            setup.append(wall)

    if not trace:
        time_setup(1)
        setup.clear()  # the first launch only warms the file cache

    plain, traced = [], []
    begin = last = time.perf_counter()
    step = 0.0
    # Whole CLI runs only: start another while at least half of it, judged
    # by the one before, falls within the window.
    while (len(plain) < (1 if trace else MIN_RUNS)
           or last - begin + step / 2 < seconds) and time.monotonic() < deadline:
        if not trace:
            time_setup(SETUP_LAUNCHES)
        plain.append(harness.run_cli(cli_args, traced=False))
        if trace:
            traced.append(harness.run_cli(cli_args, traced=True))
        now = time.perf_counter()
        step, last = now - last, now

    runs = plain + traced
    reference = runs[0].output
    gate_problems = gate(workload, reference, spec)
    problems += gate_problems
    failed = 0
    for run in runs:
        if run.exit_code != 0 or run.output != reference or gate_problems:
            failed += 1
    if any(run.output != reference for run in runs):
        problems.append("repeated runs on one seed gave different bytes")
    for run in traced:
        if run.trace is None:
            problems.append("a traced run wrote no trace")
        elif run.trace["missing"]:
            # The program moved on; the layers it no longer reaches read 0.
            print(f"{name}: warning: trace could not wrap {run.trace['missing']}",
                  file=sys.stderr)

    if trace:
        per_run = [layer_metrics(run.trace) for run in traced if run.trace is not None]
        values = {key: statistics.median(m[key] for m in per_run)
                  for key in (per_run[0] if per_run else {})}
        values["trace.overhead_frac"] = (statistics.median(r.wall_s for r in traced)
                                         / statistics.median(r.wall_s for r in plain) - 1.0)
    else:
        values = {
            "wall_s": statistics.median(run.wall_s for run in plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(run.peak_rss_mb for run in plain),
        }
    metrics = {key: {"value": value, "unit": unit_of(key)}
               for key, value in values.items()}
    result = {"correct": not problems and failed == 0, "attempted": len(runs),
              "failed": failed, "metrics": metrics}

    for problem in problems:
        print(f"{name}: {problem}", file=sys.stderr)
    print(f"{name}: {len(plain)} untraced and {len(traced)} traced CLI runs, seed {seed}")
    for key, metric in metrics.items():
        print(f"  {key:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_frac':34s} {failed / len(runs):.6g} frac ({failed} of {len(runs)} runs)")
    record = {"env": env, "result": result, "problems": problems,
              "setup_s": setup, "wall_s": [r.wall_s for r in plain],
              "traced_wall_s": [r.wall_s for r in traced],
              "peak_rss_mb": [r.peak_rss_mb for r in plain]}
    (out_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kohnspec" / "__init__.py").is_file():
        print(f"error: no kohnspec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kohnspec
    if Path(kohnspec.__file__).resolve().parent != SRC / "kohnspec":
        print(f"error: kohnspec imported from {kohnspec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
