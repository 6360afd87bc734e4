"""Observability: span tracing, a metrics registry, and trace transport.

``repro.obs`` is the measurement substrate of the repository: an ambient,
zero-overhead-when-off layer that the protocol stack, the simulation layer,
the perf kernels and the trial engine all report into when a collection
window is open.  The open collection sits in the calling thread's ambient
slot (:mod:`repro.obs.runtime`), the one that also holds the fault
injector, so every site's disabled path is a single ``is None`` gate.

Three pieces:

* **Span tracing** (:mod:`repro.obs.spans`) — ``span("select.tournament")``
  context managers and the :func:`~repro.obs.runtime.traced` decorator wire
  a hierarchical profile through CalculatePreferences, the guessed-diameter
  iterations, the Select/RSelect/SmallRadius recursions and the board/oracle
  bulk calls.  Counter attribution is stack-walk inclusive, so every span
  shows the probes charged, board posts/reads and packed bytes moved on its
  watch.
* **Metrics registry** (:mod:`repro.obs.metrics`) — counters (the root
  span's dictionary), gauges, histograms and per-kernel timers.
* **Trace transport** (:mod:`repro.obs.report`) — workers return picklable
  :class:`TraceReport`\\ s that :func:`repro.analysis.runner.run_trials`
  folds into the parent collection (:meth:`Telemetry.absorb`, the one fold
  :meth:`TraceReport.merged` also uses) in submission order, so aggregated
  telemetry is bit-identical for any worker count (property-tested like
  everything else here).

Surfaces: ``python -m repro trace <scenario>`` renders the span tree,
``run``/``sweep`` ``--metrics`` embed the structured metrics block in
results-JSON, and ``compare`` diffs metrics blocks.

The serving layer reports into the same substrate: a durable session's
recovery replay runs under its telemetry collection and adds the
``serve.replayed_ops`` / ``serve.replay_errors`` counters, so a recovered
session's metrics block accounts for the replay exactly like live traffic
(the counters are the one visible difference from a never-crashed twin).
"""

from repro.obs.metrics import MetricsRegistry
from repro.obs.report import TraceReport, render_span_tree
from repro.obs.runtime import (
    active_telemetry,
    add,
    collecting,
    observe,
    set_gauge,
    span,
    timed_kernel,
    traced,
)
from repro.obs.spans import SpanNode, Telemetry

__all__ = [
    "MetricsRegistry",
    "SpanNode",
    "Telemetry",
    "TraceReport",
    "active_telemetry",
    "add",
    "collecting",
    "observe",
    "render_span_tree",
    "set_gauge",
    "span",
    "timed_kernel",
    "traced",
]
