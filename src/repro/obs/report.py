"""``TraceReport``: the picklable, mergeable output of one telemetry window.

A report is plain nested ``dict``/``list``/scalar data — no live objects —
so a worker process can return one through the trial engine's pickle channel
and the parent can merge it into its own collection
(:meth:`repro.obs.spans.Telemetry.absorb`).

Two forms matter:

* :meth:`as_payload` — the full JSON form (span tree with wall times,
  counters, gauges, histograms, kernel timers).  This is what
  ``python -m repro trace --json`` prints and what CI schema-validates.
* :meth:`canonical` — the determinism-checked form: span structure,
  call counts, integer counters and histogram summaries only.  Wall times,
  kernel timer durations and gauges are excluded (wall clocks are not
  reproducible), children and counter keys are sorted, so two runs of the
  same ``(spec, seed)`` schedule produce **equal** canonical forms for any
  worker count — the property the telemetry tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

__all__ = ["TraceReport", "render_span_tree"]


def _empty_span(name: str) -> dict[str, Any]:
    return {"name": name, "n_calls": 0, "wall_s": 0.0, "counts": {}, "children": []}


def _canonical_span(node: Mapping[str, Any]) -> dict[str, Any]:
    return {
        "name": node["name"],
        "n_calls": int(node["n_calls"]),
        "counts": {key: int(value) for key, value in sorted(node["counts"].items())},
        "children": sorted(
            (_canonical_span(child) for child in node["children"]),
            key=lambda child: child["name"],
        ),
    }


def _exclusive_count(node: Mapping[str, Any], key: str) -> int:
    """A node's count of ``key`` net of its children (self-attributed work).

    Counter increments are attributed to *every* span on the stack, so a
    parent's count is inclusive of its descendants; subtracting the direct
    children recovers the exclusive share, and the exclusive shares of a
    tree sum exactly to the root's inclusive total.
    """
    own = int(node["counts"].get(key, 0))
    return own - sum(int(child["counts"].get(key, 0)) for child in node["children"])


def render_span_tree(root: Mapping[str, Any], keys: Iterable[str] | None = None) -> str:
    """Fixed-width text rendering of a span tree.

    Each line shows the span name, call count, cumulative wall time and its
    counters (inclusive of descendants); pass ``keys`` to restrict which
    counters are printed.
    """
    wanted = None if keys is None else set(keys)
    lines: list[str] = []

    def fmt(node: Mapping[str, Any]) -> str:
        parts = [f"x{int(node['n_calls'])}" if node["n_calls"] else "",
                 f"{float(node['wall_s']):.4f}s" if node["wall_s"] else ""]
        shown = {
            key: value
            for key, value in sorted(node["counts"].items())
            if wanted is None or key in wanted
        }
        if shown:
            parts.append(" ".join(f"{key}={int(value)}" for key, value in shown.items()))
        tail = "  ".join(part for part in parts if part)
        return f"{node['name']}" + (f"  {tail}" if tail else "")

    def walk(node: Mapping[str, Any], prefix: str, is_last: bool, is_root: bool) -> None:
        if is_root:
            lines.append(fmt(node))
            child_prefix = ""
        else:
            lines.append(prefix + ("`- " if is_last else "|- ") + fmt(node))
            child_prefix = prefix + ("   " if is_last else "|  ")
        children = node["children"]
        for index, child in enumerate(children):
            walk(child, child_prefix, index == len(children) - 1, False)

    walk(root, "", True, True)
    return "\n".join(lines)


@dataclass
class TraceReport:
    """One telemetry window's complete, picklable output."""

    spans: dict[str, Any] = field(default_factory=lambda: _empty_span("run"))
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, dict[str, float]] = field(default_factory=dict)
    timers: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def counters(self) -> dict[str, int]:
        """Run-wide counters: the root span's (inclusive) count dictionary."""
        return {key: int(value) for key, value in self.spans.get("counts", {}).items()}

    @staticmethod
    def merged(reports: Iterable["TraceReport"]) -> "TraceReport":
        """Fold many reports left to right into a fresh one, through the
        fold the trial engine applies to worker reports
        (:meth:`~repro.obs.spans.Telemetry.absorb`)."""
        from repro.obs.spans import Telemetry  # spans imports this module

        telemetry = Telemetry()
        for report in reports:
            telemetry.absorb(report)
        return telemetry.report()

    def canonical(self) -> dict[str, Any]:
        """The determinism-checked form (no wall clocks, sorted structure)."""
        return {
            "spans": _canonical_span(self.spans),
            "histograms": {
                name: {
                    "count": int(summary["count"]),
                    "total": float(summary["total"]),
                    "min": float(summary["min"]),
                    "max": float(summary["max"]),
                }
                for name, summary in sorted(self.histograms.items())
            },
            "timer_calls": {
                name: int(timer["calls"]) for name, timer in sorted(self.timers.items())
            },
        }

    def exclusive_total(self, key: str) -> int:
        """Sum of per-span exclusive counts of ``key`` over the whole tree.

        Equals the root's inclusive count by construction; the telemetry
        tests assert both against the oracle's independent accounting.
        """

        def walk(node: Mapping[str, Any]) -> int:
            return _exclusive_count(node, key) + sum(
                walk(child) for child in node["children"]
            )

        return walk(self.spans)

    def as_payload(self) -> dict[str, Any]:
        """Plain-JSON form carrying every metric family: the span tree
        followed by :meth:`metrics_block`."""
        return {"spans": self.spans, **self.metrics_block()}

    def metrics_block(self) -> dict[str, Any]:
        """The structured ``metrics`` entry for results-JSON tables.

        Everything except the span tree — counters, gauges, histograms and
        kernel timers — shaped for
        :class:`repro.analysis.reporting.ExperimentTable.metrics`.
        """
        return {
            "counters": self.counters,
            "gauges": dict(self.gauges),
            "histograms": {name: dict(s) for name, s in self.histograms.items()},
            "timers": {name: dict(t) for name, t in self.timers.items()},
        }

    def render(self, keys: Iterable[str] | None = None) -> str:
        """Human-readable span tree plus the non-span metric families."""
        lines = [render_span_tree(self.spans, keys)]
        if self.gauges:
            lines.append("")
            lines.extend(
                f"gauge {name} = {value:g}" for name, value in sorted(self.gauges.items())
            )
        if self.histograms:
            lines.append("")
            for name, s in sorted(self.histograms.items()):
                count = int(s["count"])
                mean = float(s["total"]) / count if count else 0.0
                lines.append(
                    f"hist {name}: count={count} mean={mean:g} "
                    f"min={s['min']:g} max={s['max']:g}"
                )
        if self.timers:
            lines.append("")
            for name, t in sorted(self.timers.items()):
                lines.append(
                    f"kernel {name}: calls={int(t['calls'])} total={t['total_s']:.4f}s"
                )
        return "\n".join(lines)
