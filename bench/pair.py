"""Paired benchmark runs of two revisions, written to one JSON file.

Run from the repository root:

    python3 bench/pair.py --base HEAD~1 --change HEAD --out bench/BENCH_7.json

Both revisions are exported with ``git archive`` into fresh temporary
directories, so neither side finds bytecode caches or uncommitted files
that the other lacks.  The workloads, the run length and the end-to-end
metrics are those of ``BENCHMARK.json``.  For every pair and workload,
``perfbench/run.py --trace 0`` runs once on each side, with the same seed,
alternating which side goes first.  The output holds every run's metrics
(medians over its CLI runs), its correctness counts, the env line that
``run.py`` prints, and per workload and metric the medians, quartiles and
pair wins of both sides and a verdict:

* ``gain``: the change is better in at least nine tenths of the pairs
  (ties count for neither side), and its median is better than the
  parent's by more than the parent's quartile spread q3 - q1;
* ``regression``: the change's median is worse than the parent's by more
  than the metric's ``bound`` in ``BENCHMARK.json``, a fraction of the
  parent's median;
* ``unresolved``: anything else.

Neither ``perfbench/`` nor ``BENCHMARK.json`` is touched.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {metric["name"]: metric for metric in BENCHMARK["end_to_end"]}


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One ``perfbench/run.py`` call in ``checkout``: its env line and result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"run.py failed in {checkout} ({workload}, seed {seed}):\n{proc.stderr}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    result = json.loads(lines[-1])
    return {"env": env, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: result["metrics"][name]["value"] for name in METRICS}}


def rev_parse(rev: str) -> str:
    return subprocess.run(["git", "rev-parse", rev], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def verdict(base, change, better_in, pairs, metric):
    """``gain``, ``regression`` or ``unresolved`` for one metric (see the
    module docstring), from both sides' quartiles and the pairs the change
    won."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    improvement = sign * (base["median"] - change["median"])
    if 10 * better_in >= 9 * pairs and improvement > base["q3"] - base["q1"]:
        return "gain"
    if -improvement > metric["bound"] * abs(base["median"]):
        return "regression"
    return "unresolved"


def summarize(runs):
    """Per workload and metric: both sides' quartiles, the change's relative
    median shift, in how many pairs the change read lower and was better,
    and the verdict."""
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
        both = [p for p in pairs.values() if len(p) == 2]
        out[workload] = {}
        for name, metric in METRICS.items():
            base = [p["base"][name] for p in both]
            change = [p["change"][name] for p in both]
            b, c = quartiles(base), quartiles(change)
            lower_in = sum(x < y for x, y in zip(change, base))
            higher_in = sum(x > y for x, y in zip(change, base))
            better_in = lower_in if metric["better"] == "lower" else higher_in
            out[workload][name] = {
                "base": b, "change": c,
                "median_delta_frac": c["median"] / b["median"] - 1.0,
                "change_lower_in": lower_in,
                "change_better_in": better_in,
                "pairs": len(both),
                "verdict": verdict(b, c, better_in, len(both), metric)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision of the parent")
    parser.add_argument("--change", default="HEAD", help="git revision of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=61)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    record = {"base": rev_parse(args.base), "change": rev_parse(args.change),
              "seconds": BENCHMARK["run_seconds"],
              "command": "perfbench/run.py --trace 0", "runs": []}
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {}
        for side in ("base", "change"):
            checkouts[side] = Path(tmp) / side
            checkouts[side].mkdir()
            archive = subprocess.run(["git", "archive", record[side]], cwd=ROOT,
                                     capture_output=True, check=True).stdout
            subprocess.run(["tar", "-x", "-C", str(checkouts[side])], input=archive, check=True)
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            for workload in (w["name"] for w in BENCHMARK["workloads"]):
                sides = list(checkouts.items())
                for order, (side, checkout) in enumerate(sides[::-1] if pair % 2 else sides):
                    run = run_once(checkout, workload, seed)
                    record["runs"].append({"pair": pair, "workload": workload, "side": side,
                                           "seed": seed, "order": order, **run})
                    print(f"pair {pair} {workload} {side}: {run['metrics']}", flush=True)
                args.out.write_text(json.dumps(record, indent=1) + "\n")
    record["summary"] = summarize(record["runs"])
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["summary"], indent=1))
    for workload, metrics in record["summary"].items():
        for name, row in metrics.items():
            print(f"{workload} {name}: {row['verdict']} ({row['median_delta_frac']:+.1%}, "
                  f"better in {row['change_better_in']} of {row['pairs']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
