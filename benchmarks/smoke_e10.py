"""Perf smoke gate: run E10 at fixed sizes and fail on a >2x regression.

``benchmarks/smoke.sh`` is the entry point.  The first run (or
``--update-baseline``) records ``benchmarks/results/e10_smoke_baseline.json``
with one entry per gated size (default ``512,1024``) plus one entry per
gated scenario (one ``hijack-coalition`` execution, the registered spec at
``--seed``: a pool with dishonest players, so the gate also fails if such
pools lose the batched protocol paths); later runs re-measure the same
configurations and exit non-zero when any entry's wall time exceeds
``--factor`` (default 2.0) times its recorded baseline, so a perf regression
fails loudly in CI or pre-commit.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
BASELINE_PATH = RESULTS_DIR / "e10_smoke_baseline.json"
#: Registered scenarios gated next to the E10 sizes (one execution each).
GATED_SCENARIOS = ("hijack-coalition",)


def hardware_label() -> str:
    """Best-effort machine fingerprint recorded next to the baseline.

    CI caches the baseline keyed on runner hardware (see
    ``.github/workflows/ci.yml``); embedding the label makes a mismatched
    restore diagnosable from the file itself.
    """
    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{platform.machine()} {model}".strip()


def measure(n: int, budget: int, seed: int, repeats: int) -> float:
    """Best-of-N wall time for one gated size.

    Each run journals to a fresh temp file, so the gate measures (and
    exercises) the same checkpointed path CI relies on — journal overhead is
    part of the number being gated, not hidden behind it.
    """
    from repro.analysis.experiments import scaling_experiment

    best = float("inf")
    for _ in range(repeats):
        with tempfile.TemporaryDirectory(prefix="e10-smoke-") as tmp:
            journal = Path(tmp) / f"e10_n{n}.jsonl"
            start = time.perf_counter()
            scaling_experiment(sizes=(n,), budget=budget, seed=seed, journal=journal)
            best = min(best, time.perf_counter() - start)
    return best


def measure_scenario(name: str, seed: int, repeats: int) -> float:
    """Best-of-N wall time of one execution of a registered scenario."""
    from repro.scenarios.engine import execute
    from repro.scenarios.registry import get_scenario

    spec = get_scenario(name)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        execute(spec, seed)
        best = min(best, time.perf_counter() - start)
    return best


def entry_label(config: dict) -> str:
    """How an entry is named in the gate's output."""
    return f"n={config['n']}" if "n" in config else config["scenario"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes",
        type=str,
        default="512,1024",
        help="comma-separated instance sizes (n_players) to gate",
    )
    parser.add_argument("--budget", type=int, default=8)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=2, help="take the best of N runs")
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="fail when wall time exceeds factor x baseline",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="record the current timings as the new baseline and exit",
    )
    args = parser.parse_args(argv)
    sizes = [int(part) for part in args.sizes.split(",") if part]
    if not sizes:
        parser.error("--sizes must name at least one instance size")

    entries = []
    for n in sizes:
        wall = measure(n, args.budget, args.seed, args.repeats)
        entries.append(
            {"config": {"n": n, "budget": args.budget, "seed": args.seed}, "wall_time_s": wall}
        )
    for name in GATED_SCENARIOS:
        wall = measure_scenario(name, args.seed, args.repeats)
        entries.append({"config": {"scenario": name, "seed": args.seed}, "wall_time_s": wall})

    baseline = None
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
    baseline_entries = {
        json.dumps(entry["config"], sort_keys=True): float(entry["wall_time_s"])
        for entry in (baseline or {}).get("entries", [])
    }

    def write_baseline(all_entries: list[dict]) -> None:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        payload = {
            "slug": "e10_smoke_baseline",
            "hardware": hardware_label(),
            "entries": all_entries,
            "recorded_unix_time": time.time(),
        }
        BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    def report_record(reason: str) -> None:
        timings = ", ".join(
            f"{entry_label(e['config'])}: {e['wall_time_s']:.3f}s" for e in entries
        )
        print(f"e10 smoke: {timings} ({reason})")

    if args.update_baseline or baseline is None:
        write_baseline(entries)
        report_record(
            "baseline updated" if args.update_baseline else "no baseline found, recorded"
        )
        return 0

    # Gate every entry the baseline knows; entries it does not know yet are
    # *appended* after a passing gate, never allowed to disarm the gate for
    # the known ones (a regression must not hide behind a new entry).
    failed = False
    unknown = []
    for entry in entries:
        key = json.dumps(entry["config"], sort_keys=True)
        wall = float(entry["wall_time_s"])
        if key not in baseline_entries:
            unknown.append(entry)
            print(
                f"e10 smoke: {wall:.3f}s at {entry_label(entry['config'])} "
                "(no baseline entry, will record)"
            )
            continue
        reference = baseline_entries[key]
        limit = args.factor * reference
        status = "OK" if wall <= limit else "REGRESSION"
        failed = failed or wall > limit
        print(
            f"e10 smoke: {wall:.3f}s at {entry_label(entry['config'])} "
            f"(baseline {reference:.3f}s, limit {limit:.3f}s) -> {status}"
        )
    if failed:
        print(
            "wall time regressed more than "
            f"{args.factor}x against benchmarks/results/e10_smoke_baseline.json; "
            "investigate or re-record with --update-baseline",
            file=sys.stderr,
        )
        return 1
    if unknown:
        write_baseline(baseline.get("entries", []) + unknown)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
