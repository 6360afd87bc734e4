"""Tests for the observability layer: spans, metrics, transport, CLI.

The load-bearing properties from the observability acceptance criteria:

* **Zero overhead when off** — with no collection installed, instrumented
  code never touches a :class:`Telemetry` (pinned by a call-count spy on
  every ``Telemetry`` method) and ``span()`` hands back one shared null
  context manager.
* **Worker-count invariance** — the merged :class:`TraceReport` of a traced
  ``run_trials`` is canonically identical for ``n_workers`` in {1, 2, 4}:
  same span structure, call counts, counters and histogram summaries.
* **Reconciliation** — the span tree's ``oracle.probes`` root counter (and
  the sum of per-span exclusive counts) equals the oracle's own independent
  accounting via :meth:`ProbeReport.from_oracle`, exactly.
* **Merge algebra** — span merge folds same-name nodes; histogram/timer
  combines are order-independent; ``canonical()`` ignores wall clocks.
* **Structured fault telemetry** — results-JSON carries a machine-parseable
  ``metrics`` block (fault counters incl. journal flushes, telemetry
  counters) alongside the free-text note.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis.reporting import ExperimentTable, table_json_payload
from repro.analysis.runner import run_trials
from repro.faults import fault_metrics
from repro import calculate_preferences, make_context, planted_clusters_instance
from repro.obs import (
    Telemetry,
    TraceReport,
    active_telemetry,
    collecting,
)
from repro.obs import runtime as obs_runtime
from repro.obs.report import render_span_tree
from repro.players import PlayerPool, ReportingStrategy
from repro.scenarios.cli import main as cli_main
from repro.scenarios.engine import execute
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import apply_override
from repro.simulation.metrics import ProbeReport
from repro.simulation.oracle import ProbeOracle


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _small_spec():
    """A shrunken noisy-oracle spec so traced integration tests stay fast."""
    spec = get_scenario("noisy-oracle")
    spec = apply_override(spec, "population.n_players", 24)
    spec = apply_override(spec, "population.n_objects", 64)
    return spec


def _traced_point(spec, seed: int, trial: int) -> dict:
    """Module-level trial fn (pickles into pool workers like the CLI's)."""
    run = execute(spec, seed)
    report = ProbeReport.from_oracle(run.context.oracle, spec.protocol.budget)
    return {
        "trial": trial,
        "total_probes": report.total_probes,
        "max_probes": report.max_probes,
    }


def _collect_run(n_workers: int, trials: int = 3):
    """Run the shrunken scenario under telemetry; return (report, rows)."""
    spec = _small_spec()
    points = [(spec, 1234 + trial, trial) for trial in range(trials)]
    with collecting() as telemetry:
        rows = run_trials(_traced_point, points, n_workers=n_workers)
    return telemetry.report(), rows


# ----------------------------------------------------------------------
# Disabled mode: strictly zero work
# ----------------------------------------------------------------------


class TestDisabledNoOp:
    def test_no_telemetry_method_runs_when_off(self, monkeypatch):
        calls = {"n": 0}

        def spy(name):
            original = getattr(Telemetry, name)

            def wrapper(self, *args, **kwargs):
                calls["n"] += 1
                return original(self, *args, **kwargs)

            return wrapper

        for name in ("enter", "exit", "add", "observe", "set_gauge", "time_kernel"):
            monkeypatch.setattr(Telemetry, name, spy(name))

        assert active_telemetry() is None
        with obs_runtime.span("stage"):
            obs_runtime.add("k", 5)
            obs_runtime.observe("h", 1.0)
            obs_runtime.set_gauge("g", 2.0)

        @obs_runtime.traced("fn")
        def doubler(x):
            return 2 * x

        kernel = obs_runtime.timed_kernel(lambda x: x + 1)
        assert doubler(21) == 42
        assert kernel(41) == 42
        assert calls["n"] == 0

    def test_span_is_shared_null_singleton_when_off(self):
        assert obs_runtime.span("a") is obs_runtime.span("b")

    def test_oracle_counts_probes_identically_with_and_without(self):
        truth = np.arange(12, dtype=np.int64).reshape(3, 4) % 2
        plain = ProbeOracle(truth)
        plain.probe_objects(0, np.arange(4))
        traced = ProbeOracle(truth)
        with collecting():
            traced.probe_objects(0, np.arange(4))
        np.testing.assert_array_equal(plain.probes_used(), traced.probes_used())
        np.testing.assert_array_equal(plain.requests_used(), traced.requests_used())


# ----------------------------------------------------------------------
# Span semantics
# ----------------------------------------------------------------------


class TestSpanTree:
    def test_counters_are_stack_walk_inclusive(self):
        with collecting() as telemetry:
            obs_runtime.add("work", 1)  # root-only
            with obs_runtime.span("outer"):
                obs_runtime.add("work", 10)
                with obs_runtime.span("inner"):
                    obs_runtime.add("work", 100)
        report = telemetry.report()
        root = report.spans
        outer = root["children"][0]
        inner = outer["children"][0]
        assert root["counts"]["work"] == 111
        assert outer["counts"]["work"] == 110
        assert inner["counts"]["work"] == 100
        assert report.exclusive_total("work") == 111

    def test_same_name_reentry_folds(self):
        with collecting() as telemetry:
            for _ in range(5):
                with obs_runtime.span("loop"):
                    obs_runtime.add("hits")
        root = telemetry.report().spans
        assert len(root["children"]) == 1
        assert root["children"][0]["n_calls"] == 5
        assert root["children"][0]["counts"]["hits"] == 5

    def test_phase_spans_attribute_oracle_probes(self):
        oracle = ProbeOracle(np.zeros((5, 16), dtype=np.uint8))
        with collecting() as telemetry:
            with obs_runtime.span("first"):
                oracle.probe_block(np.asarray([0, 1]), np.asarray([0, 1, 2]))
            with obs_runtime.span("second"):
                oracle.probe(0, 5)
        report = telemetry.report()
        phases = {c["name"]: c["counts"] for c in report.spans["children"]}
        assert phases["first"]["oracle.probes"] == 6
        assert phases["second"]["oracle.probes"] == 1
        assert report.counters["oracle.probes"] == oracle.total_probes() == 7

    def test_repeated_phase_spans_accumulate_probes(self):
        oracle = ProbeOracle(np.zeros((5, 16), dtype=np.uint8))
        with collecting() as telemetry:
            for obj in (3, 4, 3):  # the repeat of object 3 is memoised
                with obs_runtime.span("loop"):
                    oracle.probe_objects(2, np.asarray([obj]))
        (loop,) = telemetry.report().spans["children"]
        assert loop["n_calls"] == 3
        assert loop["counts"]["oracle.probes"] == 2
        assert loop["counts"]["oracle.requests"] == 3

    def test_recursion_nests_per_parent(self):
        @obs_runtime.traced("recurse")
        def descend(depth):
            obs_runtime.add("visits")
            if depth:
                descend(depth - 1)

        with collecting() as telemetry:
            descend(2)
        node = telemetry.report().spans["children"][0]
        assert node["n_calls"] == 1 and node["counts"]["visits"] == 3
        node = node["children"][0]
        assert node["n_calls"] == 1 and node["counts"]["visits"] == 2

    def test_nested_collecting_shadows_and_restores(self):
        with collecting() as outer:
            obs_runtime.add("k")
            with collecting() as inner:
                obs_runtime.add("k", 7)
            assert active_telemetry() is outer
        assert active_telemetry() is None
        assert outer.report().counters == {"k": 1}
        assert inner.report().counters == {"k": 7}

    def test_exit_order_misuse_raises(self):
        telemetry = Telemetry()
        a = telemetry.enter("a")
        telemetry.enter("b")
        with pytest.raises(RuntimeError, match="span exit order"):
            telemetry.exit(a, 0.0)

    def test_render_tree_connectors(self):
        with collecting() as telemetry:
            with obs_runtime.span("first"):
                with obs_runtime.span("leaf"):
                    pass
            with obs_runtime.span("second"):
                obs_runtime.add("n", 3)
        text = render_span_tree(telemetry.report().spans)
        lines = text.splitlines()
        assert lines[0].startswith("run")
        assert any(line.startswith("|- first") for line in lines)
        assert any("`- leaf" in line for line in lines)
        assert any(line.startswith("`- second") and "n=3" in line for line in lines)


# ----------------------------------------------------------------------
# Merge algebra and transport
# ----------------------------------------------------------------------


class TestMergeAlgebra:
    def _make_report(self, tag: str, n: int) -> TraceReport:
        with collecting() as telemetry:
            with obs_runtime.span(tag):
                obs_runtime.add("c", n)
                obs_runtime.observe("h", float(n))
                telemetry.time_kernel("perf.k", 0.1)
        return telemetry.report()

    def test_merged_is_order_independent_canonically(self):
        reports = [self._make_report(tag, n) for tag, n in
                   [("a", 1), ("b", 2), ("a", 4)]]
        forward = TraceReport.merged(reports).canonical()
        backward = TraceReport.merged(reversed(reports)).canonical()
        assert forward == backward
        assert forward["spans"]["counts"]["c"] == 7
        # same-name workers folded into one child
        assert [c["name"] for c in forward["spans"]["children"]] == ["a", "b"]
        assert forward["histograms"]["h"] == {
            "count": 3, "total": 7.0, "min": 1.0, "max": 4.0,
        }
        assert forward["timer_calls"]["perf.k"] == 3

    def test_canonical_ignores_wall_time(self):
        first = self._make_report("a", 1)
        second = self._make_report("a", 1)
        second.spans["wall_s"] += 99.0
        second.timers["perf.k"]["total_s"] += 99.0
        assert first.canonical() == second.canonical()

    def test_absorb_matches_inline_execution(self):
        # worker-style report produced in its own window...
        with collecting() as worker:
            with obs_runtime.span("stage"):
                obs_runtime.add("c", 3)
                obs_runtime.observe("h", 2.0)
        # ...absorbed by a parent equals the same work done inline.
        parent = Telemetry()
        parent.absorb(worker.report())
        inline = Telemetry()
        inline.add("c", 0)  # counters key-present in both
        with collecting(inline):
            with obs_runtime.span("stage"):
                obs_runtime.add("c", 3)
                obs_runtime.observe("h", 2.0)
        assert parent.report().canonical() == inline.report().canonical()

    def test_report_is_picklable_snapshot(self):
        import pickle

        report = self._make_report("a", 2)
        clone = pickle.loads(pickle.dumps(report))
        assert clone.canonical() == report.canonical()
        assert clone.as_payload()["counters"] == {"c": 2}


# ----------------------------------------------------------------------
# Worker-count invariance and reconciliation (integration)
# ----------------------------------------------------------------------


class TestWorkerInvariance:
    def test_merged_report_identical_across_worker_counts(self):
        reference, ref_rows = _collect_run(n_workers=1)
        for n_workers in (2, 4):
            report, rows = _collect_run(n_workers=n_workers)
            assert rows == ref_rows
            assert report.canonical() == reference.canonical()

    def test_span_probes_reconcile_with_probe_report(self):
        report, rows = _collect_run(n_workers=2)
        oracle_total = sum(row["total_probes"] for row in rows)
        assert report.counters["oracle.probes"] == oracle_total
        assert report.exclusive_total("oracle.probes") == oracle_total

    def test_memo_identity_and_expected_spans(self):
        report, _ = _collect_run(n_workers=1, trials=1)
        counters = report.counters
        assert (
            counters["oracle.memo_hits"] + counters["oracle.memo_misses"]
            == counters["oracle.requests"]
        )
        names = {child["name"] for child in report.spans["children"]}
        assert "scenario" in names
        scenario = next(
            c for c in report.spans["children"] if c["name"] == "scenario"
        )
        nested = {child["name"] for child in scenario["children"]}
        assert "calculate_preferences" in nested
        assert counters["board.posts"] > 0
        assert counters["board.packed_bytes"] > 0
        assert any(name.startswith("perf.") for name in report.timers)


# ----------------------------------------------------------------------
# Oracle memo counters
# ----------------------------------------------------------------------


class TestOracleMemoCounters:
    def test_hits_misses_and_rate(self):
        truth = (np.arange(20).reshape(4, 5) % 2).astype(np.int64)
        oracle = ProbeOracle(truth)
        assert oracle.memo_hits() == 0 and oracle.memo_misses() == 0
        assert oracle.memo_hit_rate() == 0.0
        oracle.probe_objects(0, np.arange(5))
        oracle.probe_objects(0, np.arange(5))  # all repeats -> memoised
        assert oracle.memo_misses() == 5
        assert oracle.memo_hits() == 5
        assert oracle.memo_hit_rate() == pytest.approx(0.5)

    def test_repr_reports_memo_counters(self):
        oracle = ProbeOracle(np.zeros((2, 3), dtype=np.int64))
        oracle.probe_objects(1, np.array([0, 0, 2]))
        text = repr(oracle)
        assert "memo_hits=1" in text
        assert "memo_hit_rate=0.333" in text


# ----------------------------------------------------------------------
# Strategy call counter
# ----------------------------------------------------------------------


class _CountingInverter(ReportingStrategy):
    """Posts the complement of the truth and counts its calls (the count is
    the test's tally; the reports stay a function of their key)."""

    def __init__(self) -> None:
        self.calls = 0

    def report(self, channel, player, objects, true_values, pool):
        self.calls += 1
        return 1 - np.asarray(true_values, dtype=np.uint8)


class TestStrategyCallCounter:
    def test_counter_equals_the_strategies_calls(self):
        instance = planted_clusters_instance(24, 48, n_clusters=3, diameter=4, seed=5)
        strategies = {3: _CountingInverter(), 17: _CountingInverter()}
        ctx = make_context(instance, budget=2, strategies=strategies, seed=5)
        with collecting() as telemetry:
            calculate_preferences(ctx)  # block reports and work-sharing pairs
            ctx.pool.reports_for("extra", 3, np.arange(4), np.zeros(4, dtype=np.uint8))
        calls = sum(strategy.calls for strategy in strategies.values())
        assert calls > 0
        assert telemetry.report().counters["players.strategy_calls"] == calls

    def test_pool_touches_no_telemetry_when_off(self, monkeypatch):
        calls = {"n": 0}
        real_add = Telemetry.add

        def spy(self, *args, **kwargs):
            calls["n"] += 1
            return real_add(self, *args, **kwargs)

        monkeypatch.setattr(Telemetry, "add", spy)
        pool = PlayerPool(np.zeros((4, 5), dtype=np.uint8), {1: _CountingInverter()})
        players, objects = np.arange(4), np.arange(5)
        pool.reports_block("ch", players, objects, np.zeros((4, 5), dtype=np.uint8))
        pool.reports_pairs("ch", players, objects[:4], np.zeros(4, dtype=np.uint8))
        pool.reports_for("ch", 1, objects, np.zeros(5, dtype=np.uint8))
        assert pool.strategy_of(1).calls == 3
        assert calls["n"] == 0


# ----------------------------------------------------------------------
# Structured metrics in results-JSON, fault telemetry, journal flushes
# ----------------------------------------------------------------------


def _flush_trial(value: int) -> int:
    return value * value


class TestStructuredMetrics:
    def test_table_payload_carries_metrics_block(self):
        table = ExperimentTable(
            experiment_id="T", title="t", columns=["x"],
            metrics={"faults": {"injected": 1}, "telemetry": {"counters": {}}},
        )
        table.add_row(x=1)
        payload = table_json_payload("t", table, wall_time_s=0.0)
        assert payload["metrics"]["faults"] == {"injected": 1}
        # and it survives a JSON round trip
        assert json.loads(json.dumps(payload))["metrics"]["faults"]["injected"] == 1

    def test_fault_metrics_covers_engine_counters(self):
        stats = {"injected": 2, "retried": 3, "pool_restarts": 1,
                 "timeouts": 0, "journal_flushes": 7, "unrelated": 9}
        block = fault_metrics(stats)
        assert block == {"injected": 2, "retried": 3, "pool_restarts": 1,
                         "timeouts": 0, "journal_flushes": 7}
        assert fault_metrics({}) == {name: 0 for name in block}

    def test_run_trials_counts_journal_flushes(self, tmp_path):
        tasks = [(i,) for i in range(4)]
        stats: dict = {}
        results = run_trials(
            _flush_trial, tasks, n_workers=1,
            journal=tmp_path / "trials.jsonl", stats=stats,
        )
        assert results == [0, 1, 4, 9]
        assert stats["journal_flushes"] >= 4


# ----------------------------------------------------------------------
# CLI: python -m repro trace
# ----------------------------------------------------------------------


class TestTraceCli:
    def test_trace_json_payload_and_reconciliation(self, capsys):
        code = cli_main(
            ["trace", "honest-planted", "--trials", "1", "--seed", "7", "--json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["reconciliation"]["match"] is True
        assert (
            payload["reconciliation"]["span_probes"]
            == payload["counters"]["oracle.probes"]
        )
        assert payload["spans"]["name"] == "run"
        assert payload["spans"]["children"], "span tree must have children"

    def test_trace_text_renders_tree(self, capsys):
        code = cli_main(["trace", "honest-planted", "--trials", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[TRACE]" in out
        assert "scenario" in out
        assert "reconciliation:" in out and "OK" in out


class TestMidRunSnapshot:
    """The publisher-facing reads: safe from another thread, mid-collection."""

    def test_snapshot_never_raises_under_concurrent_writes(self):
        import threading

        telemetry = Telemetry()
        stop = threading.Event()
        errors: list[BaseException] = []

        def hammer() -> None:
            try:
                i = 0
                while not stop.is_set():
                    node = telemetry.enter(f"stage{i % 5}")
                    telemetry.add("hits")
                    telemetry.observe("latency", float(i % 7))
                    telemetry.set_gauge("g", float(i))
                    telemetry.time_kernel("perf.k", 1e-6)
                    telemetry.exit(node, 0.0)
                    i += 1
            except BaseException as error:  # pragma: no cover - failure capture
                errors.append(error)

        writer = threading.Thread(target=hammer)
        writer.start()
        try:
            last = 0
            for _ in range(500):
                report = telemetry.snapshot()
                count = report.counters.get("hits", 0)
                # Per-node monotonicity: counters only ever grow.
                assert count >= last
                last = count
                assert report.spans["name"] == "run"
        finally:
            stop.set()
            writer.join()
        assert not errors, errors
        # After quiescence, snapshot and report agree exactly.
        assert telemetry.snapshot().canonical() == telemetry.report().canonical()

    def test_metrics_registry_snapshot_copies_families(self):
        telemetry = Telemetry()
        telemetry.set_gauge("g", 1.0)
        telemetry.observe("h", 2.0)
        telemetry.time_kernel("perf.k", 0.5)
        gauges, histograms, timers = telemetry.metrics.snapshot()
        gauges["g"] = 99.0
        histograms["h"]["count"] = 99
        timers["perf.k"]["calls"] = 99
        assert telemetry.metrics.gauges["g"] == 1.0
        assert telemetry.metrics.histograms["h"]["count"] == 1
        assert telemetry.metrics.timers["perf.k"]["calls"] == 1

    def test_collecting_is_thread_local(self):
        import threading

        barrier = threading.Barrier(2)
        seen: dict[str, tuple[Telemetry, int]] = {}

        def worker(name: str) -> None:
            with collecting() as telemetry:
                barrier.wait()
                obs_runtime.add(name)
                seen[name] = (telemetry, telemetry.root.counts.get(name, 0))

        threads = [
            threading.Thread(target=worker, args=(name,)) for name in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert seen["a"][0] is not seen["b"][0]
        # Each thread's increments landed only in its own collection.
        assert seen["a"][1] == 1 and seen["b"][1] == 1
        assert "b" not in seen["a"][0].root.counts
        assert active_telemetry() is None
