"""The fault-injection runtime: ambient, countable, zero-cost when idle.

A :class:`FaultInjector` binds one :class:`~repro.faults.plan.FaultPlan` to
one ``(point, attempt)`` execution.  While installed (via :func:`installed`)
it is visible process-wide through a module global, so the chaos-aware
components — :class:`~repro.simulation.oracle.ProbeOracle` probe calls and
:class:`~repro.simulation.board.BulletinBoard` report posts — can consult it
from arbitrarily deep inside a trial without any plumbing through the
protocol layer.  When nothing is installed (the default, and every
non-chaos run) the gates are a single ``is None`` test.

Site calls are counted per execution in deterministic program order, which
is what makes the plan's ``occurrence`` coordinate meaningful: "the 3rd
probe call of attempt 0 of point 5" identifies the same moment in every
process and at every worker count.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.errors import OracleTimeout
from repro.faults.plan import FaultPlan, PlannedFault

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "installed",
    "oracle_fault_gate",
    "board_fault_gate",
    "disk_fault_gate",
]


@dataclass(frozen=True)
class FaultEvent:
    """One fault that actually fired (recorded for telemetry/journaling)."""

    site: str
    action: str
    point: int
    attempt: int
    occurrence: int

    def as_record(self) -> dict:
        """Plain-JSON form for the trial journal."""
        return {
            "site": self.site,
            "action": self.action,
            "point": self.point,
            "attempt": self.attempt,
            "occurrence": self.occurrence,
        }


class FaultInjector:
    """Counts site calls for one (point, attempt) execution and fires the
    plan's matching faults."""

    def __init__(self, plan: FaultPlan, point: int, attempt: int) -> None:
        self.plan = plan
        self.point = int(point)
        self.attempt = int(attempt)
        self._counters: dict[str, int] = {}
        self.events: list[FaultEvent] = []

    def record(self, site: str) -> PlannedFault | None:
        """Count one call of ``site``; return the planned fault if one fires."""
        occurrence = self._counters.get(site, 0)
        self._counters[site] = occurrence + 1
        fault = self.plan.lookup(site, self.point, self.attempt, occurrence)
        if fault is not None:
            self.events.append(
                FaultEvent(
                    site=site,
                    action=fault.action,
                    point=self.point,
                    attempt=self.attempt,
                    occurrence=occurrence,
                )
            )
        return fault


#: The installed injector, if any: one slot for the whole process, read by
#: every thread.  A trial worker runs one execution at a time, but
#: ``disk_fault_gate`` also runs on the server's per-session worker threads
#: under a plan installed from another thread (the durability tests install
#: from the test thread), so concurrent sessions under one plan share its
#: occurrence counters: install a disk plan around one session's work only.
_ACTIVE: FaultInjector | None = None


@contextmanager
def installed(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Install ``injector`` as the ambient fault source for the duration."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = previous


def oracle_fault_gate() -> None:
    """Called at the head of every ProbeOracle probe method.

    Raises :class:`~repro.errors.OracleTimeout` when the plan schedules a
    timeout at this call — *before* the oracle mutates any state, so a
    retried probe (or a retried trial) observes exactly the clean run.
    """
    injector = _ACTIVE
    if injector is None:
        return
    fault = injector.record("oracle.probe")
    if fault is not None:
        raise OracleTimeout(site="oracle.probe", occurrence=fault.occurrence)


def disk_fault_gate(site: str) -> str | None:
    """Called at the head of a durability-path disk operation.

    ``site`` is one of the disk fault sites (``journal.append``,
    ``journal.fsync``, ``checkpoint.write``).  Returns the planned action —
    ``"error"`` / ``"enospc"`` / ``"short-write"`` / ``"corrupt"`` — or
    ``None`` for a clean write.  The *caller* turns the action into the
    concrete failure (raising :class:`OSError`, truncating the write,
    flipping payload bytes) because only the caller knows what a partial
    write of its record looks like; counting here keeps the occurrence
    coordinate deterministic across every durability layer.
    """
    injector = _ACTIVE
    if injector is None:
        return None
    fault = injector.record(site)
    return fault.action if fault is not None else None


def board_fault_gate() -> str | None:
    """Called at the head of every BulletinBoard report-post method.

    Returns the planned action — ``"drop"`` (the post silently vanishes;
    the graceful-degradation channel) or ``"duplicate"`` (the post is
    applied twice; idempotent by the board's last-wins semantics, so
    bit-identical) — or ``None`` for a normal write.
    """
    injector = _ACTIVE
    if injector is None:
        return None
    fault = injector.record("board.post")
    return fault.action if fault is not None else None
