"""Experiment tables, renderings, and the machine-readable results format.

Every experiment driver returns an :class:`ExperimentTable`; the benchmark
harness prints the text rendering (so ``pytest benchmarks/ --benchmark-only``
regenerates the paper's rows on stdout) and writes the Markdown rendering
to ``benchmarks/results/<slug>.md``.

:func:`write_table_json` is the single source of truth for the results-JSON
format: the benchmark harness writes ``benchmarks/results/<slug>.json`` with
it and the scenario sweep CLI (``python -m repro sweep``) emits the identical
payload, so regression gates and cross-PR perf tracking can consume either.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.errors import ExperimentError

__all__ = [
    "ExperimentTable",
    "render_text",
    "render_markdown",
    "table_json_payload",
    "write_table_json",
    "percentile",
]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` by linear interpolation.

    Matches ``numpy.percentile``'s default (``linear``) method on a sorted
    copy, without pulling numpy into the reporting layer — the serving
    benchmark uses this for its p50/p99 latency columns.  ``q`` is in
    ``[0, 100]``; an empty sequence is an error.
    """
    if not values:
        raise ExperimentError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ExperimentError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(float(v) for v in values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


@dataclass
class ExperimentTable:
    """A rectangular result table plus provenance notes.

    ``rows`` are dictionaries keyed by column name; missing cells render as
    an empty string.  ``notes`` carry the paper anchor, the constant profile
    used, and any substitutions relevant to interpreting the numbers.
    ``metrics`` holds *structured* run telemetry (fault/retry counters from
    the trial engine, and the counter/gauge/histogram/timer families of a
    telemetry collection under ``--metrics``) keyed by family name; unlike
    ``notes`` it is machine-parseable, and it travels verbatim through
    :func:`table_json_payload` into results-JSON.
    """

    experiment_id: str
    title: str
    columns: list[str]
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    metrics: dict[str, Any] = field(default_factory=dict)

    def add_row(self, **cells: Any) -> None:
        """Append a row (validated against the declared columns)."""
        unknown = set(cells) - set(self.columns)
        if unknown:
            raise ExperimentError(
                f"row contains undeclared columns {sorted(unknown)} "
                f"(declared: {self.columns})"
            )
        self.rows.append(cells)

    def add_note(self, note: str) -> None:
        """Append one provenance note, skipping exact duplicates.

        Fault/retry telemetry, journal locations and chaos verdicts travel
        through here into the results-JSON payload (``notes`` is carried
        verbatim by :func:`table_json_payload`).
        """
        if note not in self.notes:
            self.notes.append(note)

    def column(self, name: str) -> list[Any]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise ExperimentError(f"unknown column {name!r}")
        return [row.get(name) for row in self.rows]


def _format_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.3g}"
    return str(value)


def _rendered_rows(table: ExperimentTable) -> list[list[str]]:
    return [[_format_cell(row.get(col)) for col in table.columns] for row in table.rows]


def render_text(table: ExperimentTable) -> str:
    """Fixed-width text rendering (used by the benchmark harness stdout)."""
    rows = _rendered_rows(table)
    widths = [
        max(len(col), *(len(r[i]) for r in rows)) if rows else len(col)
        for i, col in enumerate(table.columns)
    ]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(table.columns))
    rule = "  ".join("-" * widths[i] for i in range(len(table.columns)))
    body = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in rows
    ]
    lines = [f"[{table.experiment_id}] {table.title}", header, rule, *body]
    if table.notes:
        lines.append("")
        lines.extend(f"note: {note}" for note in table.notes)
    return "\n".join(lines)


def render_markdown(table: ExperimentTable) -> str:
    """GitHub-flavoured Markdown rendering (the ``benchmarks/results/<slug>.md``
    tables)."""
    rows = _rendered_rows(table)
    header = "| " + " | ".join(table.columns) + " |"
    rule = "|" + "|".join("---" for _ in table.columns) + "|"
    body = ["| " + " | ".join(row) + " |" for row in rows]
    lines = [f"### {table.experiment_id} — {table.title}", "", header, rule, *body]
    if table.notes:
        lines.append("")
        lines.extend(f"*{note}*" for note in table.notes)
    return "\n".join(lines)


def render_many(tables: Sequence[ExperimentTable], markdown: bool = False) -> str:
    """Render several tables separated by blank lines."""
    renderer = render_markdown if markdown else render_text
    return "\n\n".join(renderer(t) for t in tables)


def _json_default(value: Any) -> Any:
    """Coerce numpy scalars (and anything else numeric) for json.dump."""
    if hasattr(value, "item"):
        return value.item()
    return str(value)


def table_json_payload(
    slug: str, table: ExperimentTable, wall_time_s: float
) -> dict[str, Any]:
    """The machine-readable results payload for one table run."""
    return {
        "slug": slug,
        "experiment_id": table.experiment_id,
        "title": table.title,
        "wall_time_s": wall_time_s,
        "n_rows": len(table.rows),
        "columns": table.columns,
        "rows": table.rows,
        "notes": table.notes,
        "metrics": table.metrics,
        "recorded_unix_time": time.time(),
    }


def write_table_json(
    directory: Path | str, slug: str, table: ExperimentTable, wall_time_s: float
) -> Path:
    """Persist one table run as ``<directory>/<slug>.json``.

    This is the format ``benchmarks/results/*.json`` uses; the scenario CLI
    writes the same payload so downstream tooling needs one parser.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{slug}.json"
    payload = table_json_payload(slug, table, wall_time_s)
    path.write_text(json.dumps(payload, indent=2, default=_json_default) + "\n")
    return path
