"""Paired parent-vs-change runs of the repository benchmark, kept as a ledger.

    python benchmarks/perf_pairs.py --base REV --workload protocol-honest \
        --pairs 10 --seconds 30 --label pivots

Run from the repository root.  The checkout the script runs in is the
*change*; ``--base`` names the revision it is compared against, which is
checked out as a detached ``git worktree`` under ``.perfbench-work/`` and
removed again at the end.  For each workload the script runs ``k`` pairs of
``perfbench/run.py --trace 0`` (one run per side, the same benchmark seed
for both, the side that runs first alternating from pair to pair, since
order effects bias a paired comparison), then one ``--trace 1`` run per
side for the per-layer split.

It writes ``benchmarks/results/perf_<label>.json`` through
:func:`repro.analysis.reporting.write_table_json`: one table row per
workload and end-to-end metric with both sides' medians and quartiles, the
change's wins out of ``k`` (ties count for neither) and a verdict; the
table's ``metrics`` block keeps every run's result line and the per-layer
deltas of the traced runs.  A verdict is ``faster`` (or ``slower``) only
when the change is better (or worse) in at least nine tenths of the pairs
and the medians differ by more than the base side's interquartile range;
otherwise it is ``unresolved``.  Each row also carries the metric's
``bound`` from ``BENCHMARK.json`` (the share of the base median by which
the change may be worse) and ``beyond_bound``, whether the change's median
is worse than that; a ``slower`` verdict is a regression only beyond the
bound.  ``--workload`` and ``--pairs`` take several values: one pair count
for all workloads, or one per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.reporting import ExperimentTable, write_table_json  # noqa: E402

RESULTS_DIR = ROOT / "benchmarks" / "results"
WORK_DIR = ROOT / ".perfbench-work"

#: The benchmark seed of pair ``i`` is ``FIRST_SEED + i`` (both sides).
FIRST_SEED = 101

#: Share of the pairs the change must win (or lose) for a verdict.
WIN_SHARE = 0.9

#: The ledger table's columns: one row per workload and end-to-end metric.
COLUMNS = [
    "workload", "metric", "unit", "base_q1", "base_median", "base_q3", "change_q1",
    "change_median", "change_q3", "change_pct", "wins", "pairs", "verdict", "bound",
    "beyond_bound",
]


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--label", default="pairs", help="writes perf_<label>.json")
    args = parser.parse_args(argv)
    if len(args.pairs) == 1:
        args.pairs = args.pairs * len(args.workload)
    if len(args.pairs) != len(args.workload):
        parser.error("give one --pairs value, or one per --workload")
    if min(args.pairs) < 1 or args.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")
    return args


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (linear interpolation)."""
    ordered = sorted(values)
    last = len(ordered) - 1

    def at(q: float) -> float:
        position = q * last
        low = int(position)
        high = min(low + 1, last)
        return ordered[low] + (ordered[high] - ordered[low]) * (position - low)

    return at(0.25), at(0.5), at(0.75)


def run_benchmark(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in checkout ``root``: its result line."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{' '.join(command)} in {root} exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def verdict(wins: int, losses: int, pairs: int, gap: float, base_iqr: float) -> str:
    """``faster``/``slower`` when one side wins at least ``WIN_SHARE`` of the
    pairs and the medians differ by more than the base IQR."""
    if abs(gap) > base_iqr:
        if wins >= WIN_SHARE * pairs and gap > 0:
            return "faster"
        if losses >= WIN_SHARE * pairs and gap < 0:
            return "slower"
    return "unresolved"


def beyond_bound(gap: float, base_median: float, bound: float) -> bool:
    """Whether the change's median is worse than the base median by more
    than ``bound`` times it; ``gap`` is positive when the change is
    better."""
    return -gap > bound * abs(base_median)


def is_regression(row: dict[str, Any]) -> bool:
    """A ``slower`` verdict on a move beyond the metric's bound."""
    return row["verdict"] == "slower" and row["beyond_bound"]


def compare(
    runs: list[dict], workload: str, metrics: list[dict], table: ExperimentTable
) -> None:
    """Add one row per end-to-end metric of ``workload`` to ``table``."""
    pairs: dict[int, dict[str, dict]] = {}
    for run in runs:
        if run["workload"] == workload and run["trace"] == 0:
            pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        base = [pairs[i]["base"]["metrics"][name]["value"] for i in sorted(pairs)]
        change = [pairs[i]["change"]["metrics"][name]["value"] for i in sorted(pairs)]
        # Positive when the change is better, whichever direction that is.
        gains = [sign * (b - c) for b, c in zip(base, change)]
        base_q1, base_median, base_q3 = quartiles(base)
        change_q1, change_median, change_q3 = quartiles(change)
        gap = sign * (base_median - change_median)
        wins = sum(gain > 0 for gain in gains)
        losses = sum(gain < 0 for gain in gains)
        table.add_row(
            workload=workload,
            metric=name,
            unit=metric["unit"],
            base_q1=base_q1,
            base_median=base_median,
            base_q3=base_q3,
            change_q1=change_q1,
            change_median=change_median,
            change_q3=change_q3,
            change_pct=100.0 * (change_median - base_median) / base_median
            if base_median
            else 0.0,
            wins=wins,
            pairs=len(gains),
            verdict=verdict(wins, losses, len(gains), gap, base_q3 - base_q1),
            bound=metric["bound"],
            beyond_bound=beyond_bound(gap, base_median, metric["bound"]),
        )


def layer_deltas(runs: list[dict], workload: str) -> dict[str, dict[str, float]]:
    """Per-layer metric of the traced runs: base, change and their delta."""
    traced = {
        run["side"]: run["result"]["metrics"]
        for run in runs
        if run["workload"] == workload and run["trace"] == 1
    }
    return {
        name: {
            "base": base["value"],
            "change": traced["change"][name]["value"],
            "delta": traced["change"][name]["value"] - base["value"],
        }
        for name, base in traced["base"].items()
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    base_rev = git("rev-parse", args.base)
    change_rev = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    base_root = WORK_DIR / f"base-{base_rev[:12]}"
    # A run cut short leaves its worktree behind; start from a clean one.
    shutil.rmtree(base_root, ignore_errors=True)
    git("worktree", "prune")
    git("worktree", "add", "--detach", str(base_root), base_rev)
    started = time.perf_counter()
    runs: list[dict[str, Any]] = []
    try:
        sides = {"base": base_root, "change": ROOT}
        for workload, n_pairs in zip(args.workload, args.pairs):
            for pair in range(n_pairs):
                order = ("base", "change") if pair % 2 == 0 else ("change", "base")
                for position, side in enumerate(order):
                    result = run_benchmark(
                        sides[side], workload, FIRST_SEED + pair, args.seconds, 0
                    )
                    runs.append(dict(workload=workload, pair=pair, side=side,
                                     first=position == 0, seed=FIRST_SEED + pair,
                                     trace=0, result=result))
                    p50 = result["metrics"]["p50_ms"]["value"]
                    print(f"{workload} pair {pair} {side}: p50_ms {p50:.3f} "
                          f"correct {result['correct']} failed {result['failed']}",
                          flush=True)
            for side in ("base", "change"):
                result = run_benchmark(sides[side], workload, FIRST_SEED, args.seconds, 1)
                runs.append(dict(workload=workload, pair=None, side=side, first=None,
                                 seed=FIRST_SEED, trace=1, result=result))
    finally:
        git("worktree", "remove", "--force", str(base_root))

    table = ExperimentTable(
        experiment_id=f"perf_{args.label}",
        title="Paired benchmark runs: base revision vs change",
        columns=COLUMNS,
        notes=[
            f"base {base_rev}; change {change_rev}"
            + (" plus uncommitted edits" if dirty else ""),
            f"perfbench/run.py --seconds {args.seconds:g}; pair i runs benchmark "
            f"seed {FIRST_SEED} + i on both sides, the first side alternating "
            "(base first in even pairs); one --trace 1 run per side at seed "
            f"{FIRST_SEED}.",
            "wins: pairs where the change reads better (ties count for neither); "
            f"verdict faster/slower needs {WIN_SHARE:.0%} of the pairs and a median "
            "gap above the base IQR, else unresolved.",
            "bound: BENCHMARK.json's bound, a share of the base median; beyond_bound: "
            "the change's median is worse than that.  A slower verdict is a "
            "regression only beyond the bound.",
            "end-to-end times are perfbench's normalised figures (harness.HostSpeed).",
        ],
    )
    for workload in args.workload:
        compare(runs, workload, benchmark["end_to_end"], table)
    table.metrics["runs"] = runs
    table.metrics["per_layer"] = {
        workload: layer_deltas(runs, workload) for workload in args.workload
    }
    path = write_table_json(RESULTS_DIR, f"perf_{args.label}", table,
                            time.perf_counter() - started)
    for row in table.rows:
        print(f"{row['workload']:22s} {row['metric']:12s} {row['base_median']:10.4g} -> "
              f"{row['change_median']:10.4g} ({row['change_pct']:+.1f} %, "
              f"{row['wins']}/{row['pairs']}, base IQR "
              f"{row['base_q3'] - row['base_q1']:.3g}): "
              f"{row['verdict']}" + (" REGRESSION" if is_regression(row) else ""))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
