"""Shared helpers for the benchmark harness.

Each ``bench_eXX_*.py`` module regenerates one experiment (the paper
analogue of a table/figure).  The helper below times the
experiment driver with pytest-benchmark, renders the resulting table, writes
it under ``benchmarks/results/`` and echoes it to stdout (run with ``-s`` to
see it live).  ``benchmarks/results/eXX_*.md`` holds the committed outputs
of these runs.

Besides the human-readable ``.txt``/``.md`` renderings, every run now also
emits a machine-readable ``<slug>.json`` (wall time, row payload, timestamp)
so the performance trajectory is trackable across PRs —
``benchmarks/smoke.sh`` consumes these to gate regressions.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable

import pytest

from repro.analysis.reporting import (
    ExperimentTable,
    render_markdown,
    render_text,
    write_table_json,
)

RESULTS_DIR = Path(__file__).parent / "results"


def write_result_json(slug: str, table: ExperimentTable, wall_time_s: float) -> Path:
    """Persist one benchmark run as machine-readable JSON under results/."""
    return write_table_json(RESULTS_DIR, slug, table, wall_time_s)


@pytest.fixture
def report_table() -> Callable:
    """Run an experiment driver under the benchmark fixture and persist its table."""

    def _run(benchmark, driver: Callable[[], ExperimentTable], slug: str) -> ExperimentTable:
        timings: list[float] = []

        def timed() -> ExperimentTable:
            start = time.perf_counter()
            table = driver()
            timings.append(time.perf_counter() - start)
            return table

        table = benchmark.pedantic(timed, rounds=1, iterations=1)
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        text = render_text(table)
        (RESULTS_DIR / f"{slug}.txt").write_text(text + "\n")
        (RESULTS_DIR / f"{slug}.md").write_text(render_markdown(table) + "\n")
        write_result_json(slug, table, timings[-1])
        print("\n" + text)
        return table

    return _run
