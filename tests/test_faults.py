"""Tests for deterministic fault injection and the resilient trial engine.

The load-bearing properties from the robustness acceptance criteria:

* **Chaos determinism** — a faulted-and-retried run (worker crashes, slow
  workers, transient oracle timeouts, duplicated board posts) is
  bit-identical to a clean ``n_workers=1`` run, for every worker count.
* **Crash-safe resume** — a journal truncated at *every* prefix length
  (including mid-record byte tears) resumes to exactly the full results.
* **Journal dedup** — duplicate records for one point resolve last-wins.
* **Failure semantics** — a failing trial cancels pending siblings and
  raises :class:`ExperimentError` naming the point and arguments (chained);
  a non-picklable trial is rejected at submit time with a clear message.
* **Graceful degradation** — ``robust_calculate_preferences(degrade=True)``
  returns a typed partial result instead of raising when the probe budget
  or fault channel exhausts.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.analysis.runner import run_trials, resume_trials
from repro.baselines.naive import global_majority
from repro.core.robust import robust_calculate_preferences
from repro.errors import (
    BudgetExceededError,
    ConfigurationError,
    ExperimentError,
    InjectedCrash,
    OracleTimeout,
)
from repro.faults import (
    FaultInjector,
    FaultPlan,
    PlannedFault,
    TrialJournal,
    fault_stats_note,
    installed,
    make_fault_plan,
    plan_from_spec,
    point_key,
)
from repro.preferences.generators import planted_clusters_instance
from repro.protocols.context import make_context
from repro.scenarios import FaultsSpec, apply_override, get_scenario, scenario_names
from repro.scenarios.engine import run_scenario
from repro.simulation.board import BulletinBoard
from repro.simulation.oracle import ProbeOracle
from reference_loops import assert_same_board, board_reports


# ---------------------------------------------------------------------------
# Module-level trial functions (pool workers need picklable callables)
# ---------------------------------------------------------------------------
def _record(x):
    return {"x": x, "y": 2 * x + 1}


def _boom(x):
    if x == 3:
        raise ValueError("kaboom at three")
    return {"x": x}


def _tiny_spec():
    """A small planted scenario: structure of the chaos families, test cost."""
    spec = get_scenario("crashy-workers")
    spec = apply_override(spec, "population.n_players", 48)
    spec = apply_override(spec, "population.n_objects", 64)
    return spec


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_make_fault_plan_is_deterministic_and_picklable(self):
        a = make_fault_plan(8, seed=7, worker_crashes=2, oracle_timeouts=3,
                            board_duplicates=1, board_drops=1)
        b = make_fault_plan(8, seed=7, worker_crashes=2, oracle_timeouts=3,
                            board_duplicates=1, board_drops=1)
        assert a == b
        assert pickle.loads(pickle.dumps(a)) == a
        assert a.n_faults == 7 and bool(a)
        assert all(0 <= f.point < 8 for f in a.faults)

    def test_lookup_addresses_exact_coordinates(self):
        plan = FaultPlan(faults=(
            PlannedFault(site="oracle.probe", point=2, attempt=0, occurrence=3),
        ))
        assert plan.lookup("oracle.probe", 2, 0, 3) is not None
        assert plan.lookup("oracle.probe", 2, 0, 2) is None
        assert plan.lookup("oracle.probe", 2, 1, 3) is None  # retry runs clean
        assert plan.lookup("board.post", 2, 0, 3) is None

    def test_disrupts_flags_crash_and_stall_points_only(self):
        plan = FaultPlan(faults=(
            PlannedFault(site="worker.crash", point=1),
            PlannedFault(site="worker.stall", point=4, param=0.5),
            PlannedFault(site="oracle.probe", point=5),
        ))
        assert plan.disrupts(1, 0) and plan.disrupts(4, 0)
        assert not plan.disrupts(5, 0)  # oracle faults cannot break a pool
        assert not plan.disrupts(1, 1)  # consumed on attempt 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PlannedFault(site="nope", point=0)
        with pytest.raises(ConfigurationError):
            PlannedFault(site="oracle.probe", point=-1)
        with pytest.raises(ConfigurationError):
            PlannedFault(site="worker.stall", point=0)  # needs param > 0
        with pytest.raises(ConfigurationError):
            PlannedFault(site="board.post", point=0, action="timeout")
        with pytest.raises(ConfigurationError):
            make_fault_plan(0, seed=1)

    def test_plan_from_spec_reads_counts_duck_typed(self):
        faults = FaultsSpec(worker_crashes=1, oracle_timeouts=2, board_drops=1)
        plan = plan_from_spec(faults, n_points=5, seed=11)
        sites = sorted(f.site for f in plan.faults)
        assert sites == ["board.post", "oracle.probe", "oracle.probe", "worker.crash"]
        assert plan == plan_from_spec(faults, n_points=5, seed=11)


# ---------------------------------------------------------------------------
# Runtime gates: oracle and board under an installed injector
# ---------------------------------------------------------------------------
class TestRuntimeGates:
    def _truth(self):
        rng = np.random.default_rng(0)
        return rng.integers(0, 2, size=(6, 16)).astype(np.uint8)

    def test_oracle_timeout_fires_before_any_state_mutation(self):
        truth = self._truth()
        oracle = ProbeOracle(truth)
        plan = FaultPlan(faults=(PlannedFault(site="oracle.probe", point=0),))
        with installed(FaultInjector(plan, point=0, attempt=0)):
            with pytest.raises(OracleTimeout):
                oracle.probe_objects(1, np.arange(4))
        # The faulted probe left no trace: charging equals a fresh oracle's.
        assert oracle.probes_used().sum() == 0
        clean = ProbeOracle(truth)
        assert np.array_equal(
            oracle.probe_objects(1, np.arange(4)),
            clean.probe_objects(1, np.arange(4)),
        )
        assert np.array_equal(clean.probes_used(), oracle.probes_used())

    def test_oracle_occurrence_counting_targets_the_nth_call(self):
        oracle = ProbeOracle(self._truth())
        plan = FaultPlan(faults=(
            PlannedFault(site="oracle.probe", point=0, occurrence=2),
        ))
        with installed(FaultInjector(plan, point=0, attempt=0)):
            oracle.probe_objects(0, np.arange(2))      # occurrence 0
            oracle.probe_assignment(np.ones((16, 1), dtype=np.int64))  # occurrence 1
            with pytest.raises(OracleTimeout):
                oracle.probe_block(np.arange(2), np.arange(2))  # occurrence 2

    def test_board_duplicate_post_is_idempotent(self):
        clean = BulletinBoard(n_players=6, n_objects=10)
        chaotic = BulletinBoard(n_players=6, n_objects=10)
        objects = np.array([1, 4, 7])
        values = np.array([1, 0, 1], dtype=np.uint8)
        clean.post_reports("c", 2, objects, values)
        plan = FaultPlan(faults=(
            PlannedFault(site="board.post", point=0, action="duplicate"),
        ))
        with installed(FaultInjector(plan, point=0, attempt=0)):
            chaotic.post_reports("c", 2, objects, values)
        assert_same_board(chaotic, clean)

    def test_board_drop_silently_discards_the_post(self):
        board = BulletinBoard(n_players=6, n_objects=10)
        plan = FaultPlan(faults=(
            PlannedFault(site="board.post", point=0, action="drop"),
        ))
        with installed(FaultInjector(plan, point=0, attempt=0)):
            board.post_reports("c", 2, np.array([1]), np.array([1], dtype=np.uint8))
        values, posted = board_reports(board, "c")
        assert posted.sum() == 0 and values.sum() == 0

    def test_dropping_every_baseline_post_leaves_no_channel(self):
        # The global-majority baseline reads its channel after posting; with
        # every post dropped, that read must not create the channel.
        instance = planted_clusters_instance(8, 12, seed=5, n_clusters=2, diameter=2)
        ctx = make_context(instance, budget=3, seed=9)
        plan = FaultPlan(faults=tuple(
            PlannedFault(site="board.post", point=0, occurrence=i, action="drop")
            for i in range(8)
        ))
        with installed(FaultInjector(plan, point=0, attempt=0)):
            predictions = global_majority(ctx, seed=1)
        np.testing.assert_array_equal(predictions, np.ones((8, 12), dtype=np.uint8))
        assert ctx.oracle.total_probes() == 8 * 3
        assert ctx.board.channels() == []
        assert ctx.board.channel_stats() == {}

    def test_gates_are_inert_without_an_installed_injector(self):
        oracle = ProbeOracle(self._truth())
        board = BulletinBoard(n_players=6, n_objects=10)
        oracle.probe_objects(0, np.arange(3))
        board.post_reports("c", 0, np.array([0]), np.array([1], dtype=np.uint8))
        assert oracle.probes_used()[0] == 3
        assert board_reports(board, "c")[1].sum() == 1

    def test_injector_events_record_fired_faults(self):
        plan = FaultPlan(faults=(
            PlannedFault(site="board.post", point=3, occurrence=1, action="duplicate"),
        ))
        injector = FaultInjector(plan, point=3, attempt=0)
        assert injector.record("board.post") is None        # occurrence 0
        assert injector.record("board.post") is not None    # occurrence 1
        (event,) = injector.events
        assert event.as_record() == {
            "site": "board.post", "action": "duplicate",
            "point": 3, "attempt": 0, "occurrence": 1,
        }


# ---------------------------------------------------------------------------
# Chaos determinism: faulted + retried == clean serial, bit for bit
# ---------------------------------------------------------------------------
class TestChaosDeterminism:
    N_TRIALS = 5

    def _points(self):
        spec = _tiny_spec()
        from repro.analysis.runner import spawn_seeds

        seeds = spawn_seeds(13, self.N_TRIALS)
        return [(spec, seeds[t], t) for t in range(self.N_TRIALS)]

    def _chaos_plan(self):
        # >=1 worker crash and >=1 transient oracle fault, as the acceptance
        # criterion requires, plus a stall and an idempotent duplicate post.
        return FaultPlan(faults=(
            PlannedFault(site="worker.crash", point=1),
            PlannedFault(site="oracle.probe", point=3, occurrence=2),
            PlannedFault(site="worker.stall", point=0, param=0.05),
            PlannedFault(site="board.post", point=2, occurrence=1,
                         action="duplicate"),
        ))

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_faulted_parallel_equals_clean_serial(self, n_workers, tmp_path):
        points = self._points()
        reference = run_trials(run_scenario, [p[:2] for p in points])
        stats: dict[str, int] = {}
        chaotic = run_trials(
            run_scenario,
            [p[:2] for p in points],
            n_workers=n_workers,
            retries=2,
            fault_plan=self._chaos_plan(),
            journal=tmp_path / f"chaos{n_workers}.jsonl",
            stats=stats,
        )
        assert chaotic == reference
        assert stats["injected"] >= 2 and stats["retried"] >= 2
        assert stats["pool_restarts"] >= 1

    def test_faulted_serial_equals_clean_serial(self):
        points = [p[:2] for p in self._points()]
        reference = run_trials(run_scenario, points)
        chaotic = run_trials(
            run_scenario,
            points,
            retries=2,
            fault_plan=self._chaos_plan(),
        )
        assert chaotic == reference

    def test_duplicate_board_posts_do_not_change_a_full_execution(self):
        spec, seed = self._points()[0][:2]
        reference = run_scenario(spec, seed)
        plan = FaultPlan(faults=tuple(
            PlannedFault(site="board.post", point=0, occurrence=o,
                         action="duplicate")
            for o in (0, 2, 5)
        ))
        with installed(FaultInjector(plan, point=0, attempt=0)):
            chaotic = run_scenario(spec, seed)
        # Row equality covers predictions, probe counts and probe requests.
        assert chaotic == reference


# ---------------------------------------------------------------------------
# Journal: checkpoint, resume, dedup
# ---------------------------------------------------------------------------
class TestJournal:
    def test_resume_from_every_prefix_length(self, tmp_path):
        points = list(range(6))
        clean = run_trials(_record, points)
        full = tmp_path / "full.jsonl"
        assert run_trials(_record, points, journal=full) == clean
        lines = full.read_text().splitlines()
        assert len(lines) == 1 + len(points)  # header + one result per point
        for prefix in range(1, len(lines) + 1):
            partial = tmp_path / f"prefix{prefix}.jsonl"
            partial.write_text("\n".join(lines[:prefix]) + "\n")
            assert resume_trials(partial, trial=_record) == clean

    def test_resume_tolerates_a_torn_final_line(self, tmp_path):
        points = list(range(4))
        clean = run_trials(_record, points)
        full = tmp_path / "full.jsonl"
        run_trials(_record, points, journal=full)
        text = full.read_text()
        for cut in (1, 7, 19):
            torn = tmp_path / f"torn{cut}.jsonl"
            torn.write_text(text[:-cut])
            assert resume_trials(torn, trial=_record) == clean

    def test_resume_resolves_trial_and_points_from_header(self, tmp_path):
        spec = _tiny_spec()
        points = [(spec, 101), (spec, 202)]
        clean = run_trials(run_scenario, points)
        journal = tmp_path / "scenario.jsonl"
        run_trials(run_scenario, points, journal=journal)
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:2]) + "\n")  # header + 1 result
        # No trial, no points: both come back from the header.
        assert resume_trials(journal) == clean

    def test_duplicate_records_resolve_last_wins(self, tmp_path):
        tasks = [(0,), (1,)]
        journal = tmp_path / "dup.jsonl"
        with TrialJournal.attach(journal, _record, tasks) as j:
            key = point_key((0,))
            j.record_result(0, 0, key, {"x": 0, "y": -999})
            j.record_result(0, 0, key, _record(0))
        reopened = TrialJournal.attach(journal, _record, tasks)
        assert reopened.completed == {0: _record(0)}
        reopened.close()
        # And through the engine: the deduped value is returned verbatim.
        assert run_trials(_record, [0, 1], journal=journal) == [
            _record(0), _record(1),
        ]

    def test_journal_of_another_sweep_is_rejected(self, tmp_path):
        journal = tmp_path / "other.jsonl"
        run_trials(_record, [10, 20], journal=journal)
        with pytest.raises(ExperimentError, match="another sweep"):
            run_trials(_record, [11, 21], journal=journal)
        with pytest.raises(ExperimentError, match="refusing to resume"):
            run_trials(_record, [1, 2, 3], journal=journal)  # n_points mismatch

    def test_journal_records_are_results_json_compatible(self, tmp_path):
        journal = tmp_path / "fmt.jsonl"
        run_trials(_record, [5], journal=journal)
        header, result = [json.loads(line) for line in
                          journal.read_text().splitlines()]
        assert header["kind"] == "header" and header["n_points"] == 1
        assert result["kind"] == "result"
        assert result["index"] == 0 and result["result"] == _record(5)
        assert result["key"] == point_key((5,))


# ---------------------------------------------------------------------------
# Failure semantics (satellites 1 and 2)
# ---------------------------------------------------------------------------
class TestFailureSemantics:
    def test_pool_failure_names_point_and_args_and_chains(self):
        with pytest.raises(ExperimentError) as info:
            run_trials(_boom, list(range(6)), n_workers=2)
        assert "point 3" in str(info.value)
        assert "(3,)" in str(info.value)
        assert isinstance(info.value.__cause__, ValueError)

    def test_serial_plain_path_propagates_the_raw_exception(self):
        # Historical contract: no resilience features -> the trial's own
        # exception type, not ExperimentError.
        with pytest.raises(ValueError, match="kaboom"):
            run_trials(_boom, list(range(6)))

    def test_serial_with_retries_wraps_after_exhaustion(self):
        with pytest.raises(ExperimentError, match="point 3"):
            run_trials(_boom, list(range(6)), retries=1)

    def test_non_picklable_trial_rejected_at_submit_time(self):
        with pytest.raises(ExperimentError, match="module-level callable"):
            run_trials(lambda x: x, list(range(4)), n_workers=2)

    def test_retries_absorb_transient_failures(self):
        plan = FaultPlan(faults=(PlannedFault(site="worker.crash", point=2),))
        stats: dict[str, int] = {}
        out = run_trials(_record, list(range(4)), retries=1,
                         fault_plan=plan, stats=stats)
        assert out == [_record(x) for x in range(4)]
        assert stats["injected"] == 1 and stats["retried"] == 1

    def test_retries_zero_still_fails_on_injected_crash(self):
        plan = FaultPlan(faults=(PlannedFault(site="worker.crash", point=2),))
        with pytest.raises(ExperimentError, match="point 2") as info:
            run_trials(_record, list(range(4)), fault_plan=plan)
        assert isinstance(info.value.__cause__, InjectedCrash)

    def test_timeout_resubmits_and_matches_clean_run(self):
        clean = [_record(x) for x in range(4)]
        plan = FaultPlan(faults=(
            PlannedFault(site="worker.stall", point=1, param=5.0),
        ))
        stats: dict[str, int] = {}
        out = run_trials(_record, list(range(4)), n_workers=2, retries=1,
                         timeout_s=0.5, fault_plan=plan, stats=stats)
        assert out == clean
        assert stats["timeouts"] >= 1

    def test_argument_validation(self):
        with pytest.raises(ExperimentError):
            run_trials(_record, [1], retries=-1)
        with pytest.raises(ExperimentError):
            run_trials(_record, [1], timeout_s=0.0)

    def test_stats_note_format(self):
        note = fault_stats_note({"injected": 2, "retried": 3,
                                 "pool_restarts": 1, "timeouts": 0})
        assert note == "faults: injected=2 retried=3 pool_restarts=1 timeouts=0"


# ---------------------------------------------------------------------------
# Graceful degradation
# ---------------------------------------------------------------------------
class TestGracefulDegradation:
    def _context(self, probe_limit=None):
        instance = planted_clusters_instance(32, 48, seed=5, n_clusters=4,
                                             diameter=8)
        return make_context(instance, budget=4, seed=9,
                            probe_limits=probe_limit)

    def test_budget_exhaustion_raises_without_degrade(self):
        ctx = self._context(probe_limit=2)
        with pytest.raises(BudgetExceededError):
            robust_calculate_preferences(ctx, iterations=2)

    def test_budget_exhaustion_degrades_to_typed_partial_result(self):
        ctx = self._context(probe_limit=2)
        result = robust_calculate_preferences(ctx, iterations=2, degrade=True)
        assert result.partial
        assert result.resolved_players is not None
        assert result.resolved_players.size == 0  # nothing completed
        assert result.predictions.shape == (32, 48)
        assert result.predictions.sum() == 0
        assert len(result.failures) == 2
        assert {f.stage for f in result.failures} == {"iteration"}
        assert all(f.reason == "BudgetExceededError" for f in result.failures)
        assert result.iteration_results == ()

    def test_transient_oracle_fault_degrades_one_iteration(self):
        ctx = self._context()
        plan = FaultPlan(faults=(PlannedFault(site="oracle.probe", point=0),))
        with installed(FaultInjector(plan, point=0, attempt=0)):
            result = robust_calculate_preferences(ctx, iterations=2,
                                                  degrade=True)
        assert result.partial
        assert len(result.iteration_results) == 1  # iteration 0 was dropped
        (failure,) = result.failures
        assert failure.stage == "iteration" and failure.iteration == 0
        assert failure.reason == "OracleTimeout"
        assert np.asarray(result.resolved_players).size == 32
        assert result.predictions.shape == (32, 48)

    def test_clean_run_keeps_backward_compatible_defaults(self):
        ctx = self._context()
        result = robust_calculate_preferences(ctx, iterations=1)
        assert not result.partial
        assert result.failures == ()
        assert result.resolved_players is None


# ---------------------------------------------------------------------------
# Scenario vocabulary
# ---------------------------------------------------------------------------
class TestFaultsSpec:
    def test_registry_gained_the_chaos_families(self):
        names = scenario_names()
        assert len(names) >= 17
        assert "crashy-workers" in names and "flaky-oracle" in names
        assert get_scenario("crashy-workers").faults.worker_crashes == 1
        assert get_scenario("flaky-oracle").faults.oracle_timeouts == 2

    def test_faults_spec_validation(self):
        with pytest.raises(ConfigurationError):
            FaultsSpec(worker_crashes=-1)
        with pytest.raises(ConfigurationError):
            FaultsSpec(stalls=1, stall_s=0.0)
        with pytest.raises(ConfigurationError):
            FaultsSpec(timeout_s=0.0)
        assert not FaultsSpec().any_faults
        assert FaultsSpec(board_duplicates=1).any_faults

    def test_faults_spec_pickles_and_overrides(self):
        spec = get_scenario("flaky-oracle")
        assert pickle.loads(pickle.dumps(spec)) == spec
        bumped = apply_override(spec, "faults.oracle_timeouts", 5)
        assert bumped.faults.oracle_timeouts == 5
        assert spec.faults.oracle_timeouts == 2


# ---------------------------------------------------------------------------
# Disk-fault plans and gates: the durability sites
# ---------------------------------------------------------------------------


class TestDiskFaultPlansAndGates:
    def test_disk_sites_are_registered_with_their_actions(self):
        from repro.faults import DISK_FAULT_SITES, FAULT_ACTIONS, FAULT_SITES

        assert set(DISK_FAULT_SITES) <= set(FAULT_SITES)
        assert set(DISK_FAULT_SITES) == {
            "journal.append", "journal.fsync", "checkpoint.write",
        }
        assert FAULT_ACTIONS["journal.append"] == ("error", "enospc", "short-write")
        assert FAULT_ACTIONS["journal.fsync"] == ("error",)
        assert "corrupt" in FAULT_ACTIONS["checkpoint.write"]

    def test_planned_fault_validates_actions_per_site(self):
        assert PlannedFault(site="checkpoint.write", point=0).action == "error"
        assert (
            PlannedFault(site="journal.append", point=0, action="enospc").action
            == "enospc"
        )
        with pytest.raises(ConfigurationError, match="not valid"):
            PlannedFault(site="journal.fsync", point=0, action="corrupt")
        with pytest.raises(ConfigurationError, match="not valid"):
            PlannedFault(site="journal.append", point=0, action="drop")

    def test_make_fault_plan_draws_deterministic_disk_faults(self):
        from repro.faults import DISK_FAULT_SITES, FAULT_ACTIONS

        plan_a = make_fault_plan(n_points=4, seed=11, disk_faults=6)
        plan_b = make_fault_plan(n_points=4, seed=11, disk_faults=6)
        assert plan_a == plan_b
        assert plan_a.n_faults == 6
        for fault in plan_a.faults:
            assert fault.site in DISK_FAULT_SITES
            assert fault.action in FAULT_ACTIONS[fault.site]
            assert 0 <= fault.point < 4
        assert make_fault_plan(n_points=4, seed=12, disk_faults=6) != plan_a

    def test_gate_is_inert_without_an_injector_and_counts_with_one(self):
        from repro.faults import disk_fault_gate

        assert disk_fault_gate("journal.append") is None
        plan = FaultPlan(faults=(
            PlannedFault(
                site="journal.fsync", point=0, occurrence=1, action="error"
            ),
        ))
        injector = FaultInjector(plan, point=0, attempt=0)
        with installed(injector):
            assert disk_fault_gate("journal.fsync") is None    # occurrence 0
            assert disk_fault_gate("journal.fsync") == "error"  # occurrence 1
            assert disk_fault_gate("journal.fsync") is None    # past it
        (event,) = injector.events
        assert event.as_record()["site"] == "journal.fsync"
        assert disk_fault_gate("journal.fsync") is None  # uninstalled again

    def test_append_short_write_leaves_a_parseable_torn_tail(self, tmp_path):
        from repro.faults import AppendOnlyLog
        from repro.faults.journal import parse_records

        log = AppendOnlyLog(tmp_path / "log.jsonl")
        log.append({"kind": "header", "n": 0})
        plan = FaultPlan(faults=(
            PlannedFault(site="journal.append", point=0, action="short-write"),
        ))
        with installed(FaultInjector(plan, point=0, attempt=0)):
            with pytest.raises(OSError):
                log.append({"kind": "op", "n": 1})
        log.close()
        raw = (tmp_path / "log.jsonl").read_text()
        assert not raw.endswith("\n")  # genuinely torn on disk
        records = parse_records(raw)
        assert records == [{"kind": "header", "n": 0}]  # prefix survives

    @pytest.mark.parametrize("action", ["error", "enospc"])
    def test_append_errors_leave_no_partial_bytes(self, tmp_path, action):
        from repro.faults import AppendOnlyLog
        from repro.faults.journal import parse_records

        log = AppendOnlyLog(tmp_path / "log.jsonl")
        log.append({"kind": "header", "n": 0})
        plan = FaultPlan(faults=(
            PlannedFault(site="journal.append", point=0, action=action),
        ))
        with installed(FaultInjector(plan, point=0, attempt=0)):
            with pytest.raises(OSError):
                log.append({"kind": "op", "n": 1})
        log.close()
        raw = (tmp_path / "log.jsonl").read_text()
        assert raw.endswith("\n")  # the record is simply absent
        assert parse_records(raw) == [{"kind": "header", "n": 0}]

    def test_fsync_gate_fires_on_the_durability_barrier(self, tmp_path):
        from repro.faults import AppendOnlyLog

        log = AppendOnlyLog(tmp_path / "log.jsonl")
        log.append({"kind": "header", "n": 0})
        plan = FaultPlan(faults=(
            PlannedFault(site="journal.fsync", point=0, action="error"),
        ))
        with installed(FaultInjector(plan, point=0, attempt=0)):
            with pytest.raises(OSError):
                log.fsync()
        log.fsync()  # clean once the fault is consumed
        log.close()
