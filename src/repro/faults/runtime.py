"""The fault-injection runtime: ambient, countable, zero-cost when idle.

A :class:`FaultInjector` binds one :class:`~repro.faults.plan.FaultPlan` to
one ``(point, attempt)`` execution.  :func:`installed` puts it in the
calling thread's ambient slot (:mod:`repro.obs.runtime`, the slot that
also holds the telemetry collection), so the chaos-aware components (the
:class:`~repro.simulation.oracle.ProbeOracle` probe calls, the
:class:`~repro.simulation.board.BulletinBoard` report posts and the
durability layer's disk writes) can consult it from arbitrarily deep inside
a trial without any plumbing through the protocol layer.  A plan installed
on one thread is invisible to every other thread; the preference server's
``Session.submit`` carries the submitting thread's injector to the session
worker.  When nothing is installed (the default, and every non-chaos run)
the gates are a single ``is None`` test.

Site calls are counted per execution in deterministic program order, which
is what makes the plan's ``occurrence`` coordinate meaningful: "the 3rd
probe call of attempt 0 of point 5" identifies the same moment in every
process and at every worker count.
"""

from __future__ import annotations

from contextlib import AbstractContextManager
from dataclasses import asdict, dataclass
from typing import Any

from repro.errors import OracleTimeout
from repro.faults.plan import FaultPlan, PlannedFault
from repro.obs.runtime import _AMBIENT, installing

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "installed",
    "oracle_fault_gate",
    "fault_gate",
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
        return asdict(self)


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


def installed(injector: FaultInjector | None) -> AbstractContextManager[Any]:
    """Install ``injector`` (``None``: none) as this thread's fault source for
    the duration; nesting restores the previous one on exit."""
    return installing("faults", injector)


def oracle_fault_gate() -> None:
    """Called at the head of every ProbeOracle probe method.

    Raises :class:`~repro.errors.OracleTimeout` when the plan schedules a
    timeout at this call — *before* the oracle mutates any state, so a
    retried probe (or a retried trial) observes exactly the clean run.
    """
    injector = _AMBIENT.faults
    if injector is None:
        return
    fault = injector.record("oracle.probe")
    if fault is not None:
        raise OracleTimeout(site="oracle.probe", occurrence=fault.occurrence)


def fault_gate(site: str) -> str | None:
    """Count one call of ``site``; return the action planned for it, if any.

    Called at the head of every board report post (``board.post``: a
    ``"drop"`` silently discards the post, the graceful-degradation channel;
    a ``"duplicate"`` applies it twice, bit-identical under last-wins) and of
    every durability-path disk operation (``journal.append``,
    ``journal.fsync``, ``checkpoint.write``).  The caller turns the action
    into the concrete failure because only it knows what a partial write of
    its record looks like; counting here keeps the occurrence coordinate
    deterministic across every layer.
    """
    injector = _AMBIENT.faults
    if injector is None:
        return None
    fault = injector.record(site)
    return fault.action if fault is not None else None
