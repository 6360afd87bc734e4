"""Glue between declarative fault requests and the trial engine.

The scenario layer describes chaos declaratively (a ``FaultsSpec`` on the
scenario — "one worker crash, two oracle timeouts"); this module turns such
a request into a concrete :class:`~repro.faults.plan.FaultPlan` for a sweep
of a known size, and formats the engine's telemetry counters into the note
string the results-JSON writer carries.

``plan_from_spec`` is duck-typed on attribute names rather than importing
the scenario vocabulary, so the faults package stays a leaf: the scenario
layer depends on it, never the other way around.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro._typing import SeedLike
from repro.faults.plan import FaultPlan, make_fault_plan

__all__ = [
    "STAT_KEYS",
    "plan_from_spec",
    "fault_stats_note",
    "degraded_payload",
    "fault_metrics",
]

#: The trial engine's counters: every key is present in a ``stats=``
#: dictionary after :func:`repro.analysis.runner.run_trials` returns.
STAT_KEYS = ("injected", "retried", "pool_restarts", "timeouts", "journal_flushes")


def plan_from_spec(faults: Any, n_points: int, seed: SeedLike = None) -> FaultPlan:
    """Build a concrete :class:`FaultPlan` from a declarative fault request.

    ``faults`` is any object carrying (a subset of) the count attributes a
    scenario ``FaultsSpec`` declares — ``worker_crashes``,
    ``oracle_timeouts``, ``stalls``/``stall_s``, ``board_duplicates``,
    ``board_drops``.  Missing attributes count as zero.  The same
    ``(faults, n_points, seed)`` triple always yields the same plan.
    """
    return make_fault_plan(
        n_points=n_points,
        seed=seed,
        worker_crashes=int(getattr(faults, "worker_crashes", 0)),
        oracle_timeouts=int(getattr(faults, "oracle_timeouts", 0)),
        stalls=int(getattr(faults, "stalls", 0)),
        stall_s=float(getattr(faults, "stall_s", 1.0)),
        board_duplicates=int(getattr(faults, "board_duplicates", 0)),
        board_drops=int(getattr(faults, "board_drops", 0)),
    )


def fault_stats_note(stats: Mapping[str, int]) -> str:
    """One-line summary of a run's fault telemetry for results-JSON notes.

    E.g. ``"faults: injected=2 retried=3 pool_restarts=1 timeouts=0"``.
    The structured form lives in :func:`fault_metrics`; this compact note is
    kept for human readers of the notes list.
    """
    fields = ("injected", "retried", "pool_restarts", "timeouts")
    body = " ".join(f"{name}={int(stats.get(name, 0))}" for name in fields)
    return f"faults: {body}"


def degraded_payload(row: Mapping[str, Any]) -> dict[str, Any] | None:
    """The degraded-mode event payload for one result row, or ``None``.

    A scenario row marks itself ``degraded`` when churn or faults forced the
    protocol onto its fallback path.  Streaming consumers (the preference
    server's publisher) call this per row: clean rows yield ``None`` (no
    event), degraded rows yield a typed payload naming the trial and the
    degradation evidence so a subscriber can alert without parsing the full
    row.
    """
    if not bool(row.get("degraded", False)):
        return None
    payload: dict[str, Any] = {"degraded": True}
    for key in ("trial", "trial_seed", "scenario", "final_active", "max_error"):
        if key in row:
            payload[key] = row[key]
    return payload


def fault_metrics(stats: Mapping[str, int]) -> dict[str, int]:
    """Structured fault/engine telemetry for the results-JSON ``metrics`` block.

    Carries every :data:`STAT_KEYS` counter (injected faults, retries, pool
    restarts, timeouts, journal flushes) as plain integers, so downstream
    tooling parses numbers instead of scraping the :func:`fault_stats_note`
    free text.
    """
    return {name: int(stats.get(name, 0)) for name in STAT_KEYS}
