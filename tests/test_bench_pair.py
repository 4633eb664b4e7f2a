import importlib.util
from pathlib import Path

import pytest

PAIR = Path(__file__).resolve().parents[1] / "bench" / "pair.py"


@pytest.fixture(scope="module")
def pair():
    spec = importlib.util.spec_from_file_location("bench_pair", PAIR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(base, change, workload="analyze-wide"):
    """Synthetic paired runs: base[i] and change[i] are pair i's metric dicts."""
    out = []
    for i, (b, c) in enumerate(zip(base, change)):
        out.append({"pair": i, "workload": workload, "side": "base", "metrics": b})
        out.append({"pair": i, "workload": workload, "side": "change", "metrics": c})
    return out


def metrics(wall, setup=0.25, rss=38.0):
    return {"wall_s": wall, "setup_s": setup, "peak_rss_mb": rss}


def test_verdicts(pair):
    base = [metrics(0.40 + 0.002 * (i % 5), 0.25 + 0.001 * (i % 3)) for i in range(10)]
    change = [metrics(0.35 + 0.002 * (i % 5), 0.25 + 0.001 * ((i + 1) % 3), 38.0 * 1.3)
              for i in range(10)]
    summary = pair.summarize(runs(base, change))["analyze-wide"]
    assert summary["wall_s"]["verdict"] == "gain"
    assert summary["wall_s"]["change_better_in"] == 10
    assert summary["setup_s"]["verdict"] == "unresolved"
    assert summary["peak_rss_mb"]["verdict"] == "regression"  # 30% over its 0.2 bound


def test_gain_needs_nine_of_ten_pairs_and_the_spread(pair):
    base = [metrics(0.40 + 0.002 * i) for i in range(10)]
    # lower in 8 pairs, higher in 2: not nine tenths, however far apart
    change = [metrics(0.30 if i < 8 else 0.50) for i in range(10)]
    assert pair.summarize(runs(base, change))["analyze-wide"]["wall_s"]["verdict"] == "unresolved"
    # lower in every pair, but by less than the parent's quartile spread
    change = [metrics(0.40 + 0.002 * i - 0.001) for i in range(10)]
    row = pair.summarize(runs(base, change))["analyze-wide"]["wall_s"]
    assert row["change_better_in"] == 10 and row["verdict"] == "unresolved"
    # ties count for neither side
    change = [metrics(0.40 + 0.002 * i if i < 2 else 0.30) for i in range(10)]
    row = pair.summarize(runs(base, change))["analyze-wide"]["wall_s"]
    assert row["change_better_in"] == 8 and row["verdict"] == "unresolved"
