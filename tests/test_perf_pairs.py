"""The paired-benchmark ledger's verdicts, on a synthetic runs list.

``benchmarks/perf_pairs.py`` turns paired parent-vs-change runs into one
row per workload and end-to-end metric; these tests feed it made-up result
lines, so no benchmark runs.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from repro.analysis.reporting import ExperimentTable

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("perf_pairs", ROOT / "benchmarks" / "perf_pairs.py")
perf_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_pairs)

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _runs(values: dict[str, tuple[list[float], list[float]]]) -> list[dict]:
    """Untraced result lines of one workload: per metric, the base and the
    change side's value in each pair."""
    n_pairs = len(next(iter(values.values()))[0])
    runs = []
    for pair in range(n_pairs):
        for index, side in enumerate(("base", "change")):
            metrics = {name: {"value": sides[index][pair]} for name, sides in values.items()}
            runs.append(dict(workload="w", pair=pair, side=side, trace=0,
                             result={"metrics": metrics}))
    return runs


def _rows(values):
    table = ExperimentTable(experiment_id="t", title="t", columns=perf_pairs.COLUMNS)
    perf_pairs.compare(_runs(values), "w", METRICS, table)
    return {row["metric"]: row for row in table.rows}


def test_a_slower_verdict_within_the_bound_is_no_regression():
    rows = _rows({
        # +0.2 % in every pair against a 10 % bound: slower, not a regression.
        "peak_rss_mb": ([79.06, 79.05, 79.07, 79.06], [79.22, 79.20, 79.21, 79.20]),
        # +30 % against a 25 % bound: a regression.
        "p50_ms": ([30.0, 31.0, 29.0, 30.5], [39.0, 40.0, 38.5, 39.5]),
        # Faster: never beyond the bound.
        "setup_s": ([1.0, 1.1, 0.9, 1.0], [0.5, 0.6, 0.5, 0.55]),
        # Higher is better: 5 % lower against a 1 % bound is a regression.
        "ok_frac": ([1.0, 1.0, 1.0, 1.0], [0.95, 0.94, 0.95, 0.96]),
        # Worse by exactly its bound of 20 %: slower, but not beyond it.
        "max_probes": ([100.0, 100.0, 100.0, 100.0], [120.0, 120.0, 120.0, 120.0]),
    })
    bounds = {metric["name"]: metric["bound"] for metric in METRICS}
    assert {name: row["bound"] for name, row in rows.items()} == bounds

    rss = rows["peak_rss_mb"]
    assert (rss["verdict"], rss["beyond_bound"]) == ("slower", False)
    assert 0 < rss["change_pct"] < 0.5
    assert not perf_pairs.is_regression(rss)

    p50 = rows["p50_ms"]
    assert (p50["verdict"], p50["beyond_bound"], p50["wins"]) == ("slower", True, 0)
    assert perf_pairs.is_regression(p50)

    setup = rows["setup_s"]
    assert (setup["verdict"], setup["beyond_bound"], setup["wins"]) == ("faster", False, 4)

    ok = rows["ok_frac"]
    assert (ok["verdict"], ok["beyond_bound"]) == ("slower", True)
    assert perf_pairs.is_regression(ok)

    probes = rows["max_probes"]
    assert (probes["verdict"], probes["beyond_bound"]) == ("slower", False)
    assert not perf_pairs.is_regression(probes)


def test_beyond_bound_scales_with_the_base_median():
    # gap > 0 means the change is better.
    assert not perf_pairs.beyond_bound(5.0, 100.0, 0.1)
    assert not perf_pairs.beyond_bound(-10.0, 100.0, 0.1)
    assert perf_pairs.beyond_bound(-10.5, 100.0, 0.1)
    assert perf_pairs.beyond_bound(-0.5, 0.0, 0.25)
