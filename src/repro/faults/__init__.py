"""Deterministic fault injection and crash-safe sweep infrastructure.

The package splits chaos into four small layers:

* :mod:`~repro.faults.plan` — *what* breaks: picklable
  :class:`~repro.faults.plan.FaultPlan` schedules addressing faults by
  ``(site, point, attempt, occurrence)``;
* :mod:`~repro.faults.runtime` — *how* it fires: the
  :class:`~repro.faults.runtime.FaultInjector` installed in the calling
  thread's ambient slot, which the oracle, board and disk gates consult (a
  single ``is None`` check when no chaos is active);
* :mod:`~repro.faults.journal` — crash-safety: the append-only JSONL
  :class:`~repro.faults.journal.TrialJournal` behind ``run_trials``'s
  ``journal=`` checkpointing and ``resume_trials``;
* :mod:`~repro.faults.chaos` — glue: declarative scenario fault requests
  to concrete plans, and telemetry formatting for results-JSON notes.

The design invariant throughout: transient faults (crashes, stalls, probe
timeouts, duplicate posts) are planned at a specific attempt, fire before
any observable state mutates (or are idempotent), and never re-fire on the
retry — so a faulted-and-retried run is bit-identical to a clean serial
run.  Only ``board.post``/``drop`` faults change results; they feed the
graceful-degradation path instead of the determinism gate.
"""

from repro.faults.chaos import (
    degraded_payload,
    fault_metrics,
    fault_stats_note,
    plan_from_spec,
)
from repro.faults.journal import (
    AppendOnlyLog,
    TrialJournal,
    point_key,
    resolve_trial_ref,
    trial_ref,
)
from repro.faults.plan import (
    DISK_FAULT_SITES,
    FAULT_ACTIONS,
    FAULT_SITES,
    FaultPlan,
    PlannedFault,
    make_fault_plan,
)
from repro.faults.runtime import (
    FaultEvent,
    FaultInjector,
    fault_gate,
    installed,
    oracle_fault_gate,
)

__all__ = [
    "AppendOnlyLog",
    "DISK_FAULT_SITES",
    "FAULT_ACTIONS",
    "FAULT_SITES",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "PlannedFault",
    "TrialJournal",
    "degraded_payload",
    "fault_gate",
    "fault_metrics",
    "fault_stats_note",
    "installed",
    "make_fault_plan",
    "oracle_fault_gate",
    "plan_from_spec",
    "point_key",
    "resolve_trial_ref",
    "trial_ref",
]
