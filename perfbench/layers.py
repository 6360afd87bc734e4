"""Layer-by-layer attribution for traced runs, measured from outside ``src/``.

Protocol workloads read what the program already records under
``repro.obs.collecting()``: the span tree, counters and ``perf.*`` kernel
timers of a :class:`~repro.obs.report.TraceReport`.  Three stages the
program does not span (``prepare``, the robust wrapper and the leader
election) are wrapped here with the program's own ``traced`` decorator, at
the module name their caller binds, for the traced pass only.

The serve workload's traced pass hosts the server in-process and wraps the
public entry points of each serve layer (wire codec, session queue, journal,
checkpoints, recovery) in :class:`ServeSpans`, which keeps every span in
memory and writes them out once the run ends.

A layer's self time is its spans' wall time minus the wall time of their
child spans; whatever no listed layer owns is reported as
``unattributed_s``, so coverage is visible.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from harness import quantile

#: Span name -> layer that owns its self time.
SPAN_LAYERS: dict[str, str] = {
    "prepare": "scenarios.prepare",
    "small_radius": "protocols.small_radius",
    "zero_radius": "protocols.zero_radius",
    "select": "protocols.select",
    "select.estimate": "protocols.select",
    "select.tournament": "protocols.rselect",
    "cluster": "core.clustering",
    "share_work": "core.work_sharing",
    "robust": "core.robust",
    "leader.election": "leader.election",
    "diameter": "core.diameter",
    "oracle.block": "simulation.oracle",
    "oracle.pairs": "simulation.oracle",
    "oracle.ragged": "simulation.oracle",
    "oracle.objects": "simulation.oracle",
}

#: ``perf`` kernels reported per call and in total.
KERNELS: tuple[str, ...] = (
    "pack_bits",
    "packed_hamming",
    "pairwise_hamming",
    "packed_unique_rows",
    "packed_pair_vote",
    "packed_masked_majority",
)


# ----------------------------------------------------------------------
# Protocol workloads
# ----------------------------------------------------------------------
@contextmanager
def protocol_stage_spans() -> Iterator[None]:
    """Span the stages the program leaves unspanned, where their callers
    look them up; restored on exit so untraced passes run the plain code."""
    import repro.core.robust as robust_module
    import repro.scenarios.engine as engine_module
    from repro.obs.runtime import traced

    targets = [
        (engine_module, "prepare", "prepare"),
        (engine_module, "robust_calculate_preferences", "robust"),
        (robust_module, "feige_leader_election", "leader.election"),
    ]
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    try:
        for module, attr, span_name in targets:
            setattr(module, attr, traced(span_name)(getattr(module, attr)))
        yield
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)


def _walk_self_times(
    node: Mapping[str, Any], self_s: dict[str, float], calls: dict[str, int]
) -> None:
    children = node.get("children", [])
    own = float(node["wall_s"]) - sum(float(child["wall_s"]) for child in children)
    name = node["name"]
    layer = SPAN_LAYERS.get(name)
    if layer is not None:
        self_s[layer] = self_s.get(layer, 0.0) + own
        calls[layer] = calls.get(layer, 0) + int(node["n_calls"])
    for child in children:
        _walk_self_times(child, self_s, calls)


def protocol_layer_metrics(
    payload: Mapping[str, Any], executions: int, execute_wall_s: float
) -> dict[str, float]:
    """Per-execution layer metrics from a merged trace payload.

    ``payload`` is :meth:`TraceReport.as_payload` over ``executions`` traced
    executions whose summed wall time was ``execute_wall_s``.
    """
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    _walk_self_times(payload["spans"], self_s, calls)
    per = 1.0 / executions
    metrics: dict[str, float] = {
        "scenarios.prepare_s": self_s.get("scenarios.prepare", 0.0) * per,
        "protocols.small_radius.self_s": self_s.get("protocols.small_radius", 0.0) * per,
        "protocols.small_radius.calls": calls.get("protocols.small_radius", 0) * per,
        "protocols.zero_radius.self_s": self_s.get("protocols.zero_radius", 0.0) * per,
        "protocols.zero_radius.calls": calls.get("protocols.zero_radius", 0) * per,
        "protocols.select.self_s": self_s.get("protocols.select", 0.0) * per,
        "protocols.rselect.self_s": self_s.get("protocols.rselect", 0.0) * per,
        "core.clustering.self_s": self_s.get("core.clustering", 0.0) * per,
        "core.work_sharing.self_s": self_s.get("core.work_sharing", 0.0) * per,
        "core.robust.self_s": self_s.get("core.robust", 0.0) * per,
        "leader.election_s": self_s.get("leader.election", 0.0) * per,
        "core.diameter.calls": calls.get("core.diameter", 0) * per,
        "core.diameter.self_s": self_s.get("core.diameter", 0.0) * per,
        "simulation.oracle.s": self_s.get("simulation.oracle", 0.0) * per,
    }
    metrics["unattributed_s"] = max(0.0, execute_wall_s * per - sum(
        value for key, value in metrics.items() if key.endswith("_s") or key.endswith(".s")
    ))
    metrics.update(kernel_and_counter_metrics(payload, per))
    return metrics


def kernel_and_counter_metrics(payload: Mapping[str, Any], per: float) -> dict[str, float]:
    """``perf.*`` kernel timers plus oracle and board counters, scaled by
    ``per`` (one over the number of executions, or 1 for run totals)."""
    counters = payload["counters"]
    timers = payload["timers"]
    metrics: dict[str, float] = {}
    for kernel in KERNELS:
        timer = timers.get(f"perf.{kernel}", {})
        metrics[f"perf.{kernel}.s"] = float(timer.get("total_s", 0.0)) * per
        metrics[f"perf.{kernel}.calls"] = float(timer.get("calls", 0)) * per

    # Every request either charges a distinct probe or is a memo hit.
    requests = int(counters.get("oracle.requests", 0))
    probes = int(counters.get("oracle.probes", 0))
    cells = int(counters.get("board.cells", 0))
    metrics.update({
        "oracle.requests": requests * per,
        "oracle.probes": probes * per,
        "oracle.memo_hit_rate": 1.0 - probes / requests if requests else 0.0,
        "board.posts": counters.get("board.posts", 0) * per,
        "board.cells": cells * per,
        "board.packed_bytes": counters.get("board.packed_bytes", 0) * per,
        "board.dedup_frac": counters.get("board.dedup_dropped", 0) / cells if cells else 0.0,
    })
    return metrics


# ----------------------------------------------------------------------
# Serve workload
# ----------------------------------------------------------------------
class ServeSpans:
    """In-memory spans around the serve layers' public entry points.

    Wrappers run on the event loop and on session worker threads; each
    records by appending to a list (atomic under the interpreter lock), so
    no wrapper takes a lock on the hot path.
    """

    def __init__(self) -> None:
        #: ``(name, start_s, end_s, thread_name)`` for every wrapped call.
        self.spans: list[tuple[str, float, float, str]] = []
        #: Scalar samples by name (bytes per frame, queue waits, ...).
        self.samples: dict[str, list[float]] = {}
        self._in_checkpoint_write = threading.local()

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def _timed(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans = self.spans

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append(
                    (name, start, time.perf_counter(), threading.current_thread().name)
                )

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["ServeSpans"]:
        """Install every serve wrapper; restore the originals on exit."""
        import repro.serve.server as server_module
        from repro.serve.durability import SessionCheckpoint, SessionJournal
        from repro.serve.protocol import ServeError
        from repro.serve.server import PreferenceServer
        from repro.serve.session import Session

        spans = self
        originals: list[tuple[Any, str, Any]] = []

        def patch(owner: Any, attr: str, replacement: Any) -> None:
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            originals.append((owner, attr, raw))
            setattr(owner, attr, replacement)

        timed = self._timed
        decode = timed("serve.protocol.decode", server_module.decode_frame)
        encode = timed("serve.protocol.encode", server_module.encode_frame)

        def decode_frame(line: bytes) -> dict[str, Any]:
            spans.sample("bytes_in", len(line))
            return decode(line)

        def encode_frame(frame: dict[str, Any]) -> bytes:
            data = encode(frame)
            spans.sample("bytes_out", len(data))
            return data

        submit = Session.submit

        def session_submit(session: Session, fn: Callable[[], Any]) -> Any:
            queued = time.perf_counter()

            def queued_call() -> Any:
                spans.sample("queue_wait_s", time.perf_counter() - queued)
                return fn()

            return submit(session, queued_call)

        submit_op = Session.submit_op

        def session_submit_op(session: Session, op: str, params: dict[str, Any]) -> Any:
            try:
                return submit_op(session, op, params)
            except ServeError as error:
                if getattr(error, "retryable", False):
                    spans.sample("sheds", 1)
                raise

        record_op = timed("serve.durability.append", SessionJournal.record_op)

        def journal_record_op(journal: SessionJournal, seq: int, op: str, params: dict) -> None:
            before = journal.path.stat().st_size
            record_op(journal, seq, op, params)
            spans.sample("journal_bytes", journal.path.stat().st_size - before)

        load = SessionCheckpoint.load
        timed_load = timed("serve.recovery.checkpoint_load", load)
        write = timed("serve.durability.checkpoint", SessionCheckpoint.write)
        flag = self._in_checkpoint_write

        def checkpoint_write(*args: Any, **kwargs: Any) -> SessionCheckpoint:
            flag.active = True
            try:
                return write(*args, **kwargs)
            finally:
                flag.active = False

        def checkpoint_load(path: Any) -> SessionCheckpoint:
            # write() reads its own file back; that belongs to the write.
            return load(path) if getattr(flag, "active", False) else timed_load(path)

        patch(server_module, "decode_frame", decode_frame)
        patch(server_module, "encode_frame", encode_frame)
        patch(Session, "submit", session_submit)
        patch(Session, "submit_op", session_submit_op)
        for kind in ("probe", "report", "board"):
            patch(Session, f"op_{kind}",
                  timed(f"serve.session.exec_{kind}", getattr(Session, f"op_{kind}")))
        patch(Session, "_replay", timed("serve.recovery.replay", Session._replay))
        patch(SessionJournal, "record_op", journal_record_op)
        patch(SessionJournal, "compact",
              timed("serve.durability.compact", SessionJournal.compact))
        patch(SessionCheckpoint, "write", staticmethod(checkpoint_write))
        patch(SessionCheckpoint, "load", staticmethod(checkpoint_load))
        patch(SessionCheckpoint, "restore",
              timed("serve.recovery.checkpoint_restore", SessionCheckpoint.restore))
        patch(PreferenceServer, "_recover_sessions",
              timed("serve.recovery.scan", PreferenceServer._recover_sessions))
        try:
            yield self
        finally:
            for owner, attr, raw in reversed(originals):
                setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, start, end, _ in self.spans if span_name == name]

    def metrics(self) -> dict[str, float]:
        """The serve layers' per-layer metrics."""

        def mean(values: list[float]) -> float:
            return sum(values) / len(values) if values else 0.0

        def total(name: str) -> float:
            return sum(self.durations(name))

        waits = self.samples.get("queue_wait_s", [])
        appends = self.durations("serve.durability.append")
        checkpoints = self.durations("serve.durability.checkpoint")
        return {
            "serve.protocol.decode_s": mean(self.durations("serve.protocol.decode")),
            "serve.protocol.encode_s": mean(self.durations("serve.protocol.encode")),
            "serve.protocol.bytes_in": sum(self.samples.get("bytes_in", [])),
            "serve.protocol.bytes_out": sum(self.samples.get("bytes_out", [])),
            "serve.session.queue_wait_p50_s": quantile(waits, 0.5) if waits else 0.0,
            "serve.session.queue_wait_p99_s": quantile(waits, 0.99) if waits else 0.0,
            "serve.session.exec_probe_s": mean(self.durations("serve.session.exec_probe")),
            "serve.session.exec_report_s": mean(self.durations("serve.session.exec_report")),
            "serve.session.exec_board_s": mean(self.durations("serve.session.exec_board")),
            "serve.durability.append_s": mean(appends),
            "serve.durability.appends": float(len(appends)),
            "serve.durability.journal_bytes": sum(self.samples.get("journal_bytes", [])),
            "serve.durability.checkpoint_s": mean(checkpoints),
            "serve.durability.checkpoints": float(len(checkpoints)),
            "serve.durability.compact_s": mean(self.durations("serve.durability.compact")),
            "serve.admission.sheds": float(len(self.samples.get("sheds", []))),
            "serve.recovery.checkpoint_load_s": total("serve.recovery.checkpoint_load")
            + total("serve.recovery.checkpoint_restore"),
            "serve.recovery.replay_s": total("serve.recovery.replay"),
        }

    def dump(self, path: Path) -> None:
        """Write every span and sample out (called once, when the run ends)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": [
                        {"name": n, "start_s": s, "end_s": e, "thread": t}
                        for n, s, e, t in self.spans
                    ],
                    "samples": self.samples,
                },
                handle,
            )
