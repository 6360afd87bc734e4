"""Span trees and the :class:`Telemetry` collection they live in.

A *span* is one named region of protocol execution ("small_radius",
"select.tournament", "diameter"); spans nest, forming a tree rooted at a
synthetic ``run`` node.  Re-entering the same name under the same parent
folds into one node (``n_calls`` accumulates), so a loop of twenty guessed
diameters renders as one ``diameter x20`` line, not twenty siblings.

Counter attribution is **stack-walk inclusive**: every
:meth:`Telemetry.add` increments the counter on *every* node of the active
span stack.  A parent's count therefore includes its descendants' — the
semantics a reader expects of a profile tree — and because the root is
always on the stack, the root's count dictionary doubles as the run-wide
counter registry (increments outside any span still land there).  The
walk-on-add scheme is also what makes re-entrancy trivially correct:
recursion produces distinct child nodes per parent, and no fold-at-exit
step exists that could double-count a twice-entered child.
"""

from __future__ import annotations

from typing import Any

from repro.obs.metrics import MetricsRegistry
from repro.obs.report import TraceReport

__all__ = ["SpanNode", "Telemetry"]


class SpanNode:
    """One node of the span tree: a named region plus its accumulators."""

    __slots__ = ("name", "n_calls", "wall_s", "counts", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.n_calls = 0
        self.wall_s = 0.0
        self.counts: dict[str, int] = {}
        self.children: dict[str, "SpanNode"] = {}

    def child(self, name: str) -> "SpanNode":
        """The child span named ``name``, created on first entry."""
        node = self.children.get(name)
        if node is None:
            node = SpanNode(name)
            self.children[name] = node
        return node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpanNode({self.name!r}, n_calls={self.n_calls}, "
            f"children={list(self.children)})"
        )


class Telemetry:
    """One telemetry collection: a span stack plus the metrics registry.

    Instances are single-threaded (workers are single-threaded processes,
    matching the fault runtime's design) and are installed ambiently via
    :func:`repro.obs.runtime.collecting`.
    """

    __slots__ = ("root", "_stack", "metrics")

    def __init__(self) -> None:
        self.root = SpanNode("run")
        self._stack: list[SpanNode] = [self.root]
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------------
    # Span stack
    # ------------------------------------------------------------------
    def enter(self, name: str) -> SpanNode:
        """Open the span ``name`` under the current stack top."""
        node = self._stack[-1].child(name)
        node.n_calls += 1
        self._stack.append(node)
        return node

    def exit(self, node: SpanNode, wall_s: float) -> None:
        """Close the most recently opened span, crediting its wall time."""
        popped = self._stack.pop()
        if popped is not node:  # pragma: no cover - misuse guard
            raise RuntimeError(
                f"span exit order violated: closing {node.name!r} "
                f"but {popped.name!r} is on top"
            )
        node.wall_s += float(wall_s)

    @property
    def depth(self) -> int:
        """Current span nesting depth (0 = only the root is open)."""
        return len(self._stack) - 1

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def add(self, name: str, value: int = 1) -> None:
        """Increment counter ``name`` on every span of the active stack."""
        value = int(value)
        for node in self._stack:
            node.counts[name] = node.counts.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        self.metrics.set_gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    def time_kernel(self, name: str, wall_s: float) -> None:
        self.metrics.time_kernel(name, wall_s)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def absorb(self, report: TraceReport) -> None:
        """Fold a worker's :class:`TraceReport` into this collection.

        The worker's run-wide counters are attributed to every span on the
        *current* stack (exactly as if the worker's increments had happened
        inline here), and the worker root's children graft under the stack
        top — so a pool run's merged tree is structurally identical to the
        serial run's.  Gauges/histograms/timers fold through the registry.
        """
        for name, value in report.counters.items():
            self.add(name, value)
        top = self._stack[-1]
        for child_dict in report.spans.get("children", []):
            _graft(top.child(child_dict["name"]), child_dict)
        self.metrics.absorb(report.gauges, report.histograms, report.timers)

    def report(self) -> TraceReport:
        """This collection as a picklable :class:`TraceReport`.

        Safe to take **mid-run** from another thread or task: the preference
        server's publisher streams telemetry this way while a session worker
        is still executing inside the collection.  Every container copy is
        a single C-level ``dict()``/``list()`` operation (atomic under the
        GIL), so a concurrent :meth:`add`/:meth:`enter` can never make the
        copy raise; the trade-off is *tearing* — counters touched while the
        walk is in flight may appear in a parent but not yet in a child.
        Monotonicity still holds per node: counts only grow, so successive
        reports never go backwards.  A quiescent collection (a closed
        window) copies exactly.
        """
        spans = _snapshot_span(self.root)
        gauges, histograms, timers = self.metrics.snapshot()
        return TraceReport(
            spans=spans, gauges=gauges, histograms=histograms, timers=timers
        )

    #: The name live readers use; one tear-tolerant copy serves both.
    snapshot = report


def _snapshot_span(node: SpanNode) -> dict[str, Any]:
    """Tear-tolerant copy of one span node and its subtree.

    ``dict(...)`` and ``list(...)`` on live dicts are single C-level calls
    (no Python-visible iteration), so copying never races a concurrent
    writer into an exception, as a comprehension over ``children.values()``
    could.
    """
    counts = dict(node.counts)
    children = list(node.children.values())
    return {
        "name": node.name,
        "n_calls": int(node.n_calls),
        "wall_s": float(node.wall_s),
        "counts": counts,
        "children": [_snapshot_span(child) for child in children],
    }


def _graft(node: SpanNode, span_dict: dict[str, Any]) -> None:
    """Fold one dict-form span (and its subtree) into a live node."""
    node.n_calls += int(span_dict["n_calls"])
    node.wall_s += float(span_dict["wall_s"])
    for key, value in span_dict["counts"].items():
        node.counts[key] = node.counts.get(key, 0) + int(value)
    for child_dict in span_dict["children"]:
        _graft(node.child(child_dict["name"]), child_dict)
