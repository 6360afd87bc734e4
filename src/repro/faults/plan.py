"""Deterministic fault plans: *what* breaks, *where*, and *when*.

The paper's adversaries corrupt the bulletin board; this module models the
orthogonal *system-level* adversary — crashing workers, timed-out probe
requests, flaky board writes — as data.  A :class:`FaultPlan` is a frozen,
picklable tuple of :class:`PlannedFault` records; every chaos run is exactly
reproducible from ``(plan, seed)`` because nothing about injection depends on
wall clock, scheduling, or worker count:

* each fault names a **site** (``worker.crash``, ``worker.stall``,
  ``oracle.probe``, ``board.post``), the trial **point** it applies to, the
  **attempt** number it fires on (0 = the first execution of that point), and
  for the in-trial sites the **occurrence** — the n-th call of that site
  within the trial;
* the runtime (:mod:`repro.faults.runtime`) counts site calls per trial
  execution, so "the 3rd probe call of point 5's first attempt" is a
  deterministic coordinate no matter which process runs it;
* a retried attempt carries a higher attempt number, so transient faults
  planned at attempt 0 do not re-fire — the retry replays the *clean*
  execution, which is what makes faulted-and-retried runs bit-identical to
  never-faulted runs.

:func:`make_fault_plan` draws a plan's coordinates from a seeded generator,
giving sweeps a one-line way to chaos-test themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._typing import SeedLike, as_generator
from repro.errors import ConfigurationError

__all__ = [
    "DISK_FAULT_SITES",
    "FAULT_SITES",
    "FAULT_ACTIONS",
    "PlannedFault",
    "FaultPlan",
    "make_fault_plan",
]


#: Injection sites the runtime knows how to fire.
FAULT_SITES: tuple[str, ...] = (
    "worker.crash",      # kill the worker process at point start
    "worker.stall",      # sleep at point start (exercises the timeout path)
    "oracle.probe",      # transient OracleTimeout on a ProbeOracle probe call
    "board.post",        # drop or duplicate a BulletinBoard report post
    "journal.append",    # disk fault on an append-only log write
    "journal.fsync",     # fsync failure on a durability barrier
    "checkpoint.write",  # disk fault while persisting a session checkpoint
)

#: Valid actions per site.
FAULT_ACTIONS: dict[str, tuple[str, ...]] = {
    "worker.crash": ("crash",),
    "worker.stall": ("stall",),
    "oracle.probe": ("timeout",),
    "board.post": ("drop", "duplicate"),
    "journal.append": ("error", "enospc", "short-write"),
    "journal.fsync": ("error",),
    "checkpoint.write": ("error", "enospc", "short-write", "corrupt"),
}

#: The disk-layer sites (everything the durability path must degrade
#: gracefully under); used by :func:`make_fault_plan`'s ``disk_faults``.
DISK_FAULT_SITES: tuple[str, ...] = (
    "journal.append",
    "journal.fsync",
    "checkpoint.write",
)


@dataclass(frozen=True)
class PlannedFault:
    """One planned fault occurrence.

    ``point`` is the trial point index the fault applies to; ``attempt`` the
    execution attempt it fires on (retries increment the attempt, so a fault
    at attempt 0 fires once and the retry runs clean); ``occurrence`` the
    n-th call of the site within that execution (only meaningful for the
    in-trial sites — the worker sites fire at point start and ignore it).
    ``param`` carries the stall duration in seconds for ``worker.stall``.
    """

    site: str
    point: int
    attempt: int = 0
    occurrence: int = 0
    action: str = ""
    param: float = 0.0

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ConfigurationError(
                f"unknown fault site {self.site!r}; known: {FAULT_SITES}"
            )
        action = self.action or FAULT_ACTIONS[self.site][0]
        object.__setattr__(self, "action", action)
        if action not in FAULT_ACTIONS[self.site]:
            raise ConfigurationError(
                f"action {action!r} is not valid for site {self.site!r} "
                f"(valid: {FAULT_ACTIONS[self.site]})"
            )
        if self.point < 0 or self.attempt < 0 or self.occurrence < 0:
            raise ConfigurationError(
                "point, attempt and occurrence must be non-negative in "
                f"{self!r}"
            )
        if self.site == "worker.stall" and self.param <= 0.0:
            raise ConfigurationError("worker.stall faults need param > 0 seconds")


@dataclass(frozen=True)
class FaultPlan:
    """A complete, picklable chaos schedule for one ``run_trials`` call.

    ``faults`` may list several faults on the same coordinates; lookups
    return the first match (later duplicates are ignored).  The plan is pure
    data — the runtime decides what firing means per site.
    """

    faults: tuple[PlannedFault, ...] = ()
    #: Provenance only (the seed :func:`make_fault_plan` drew from).
    seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def _index(self) -> dict[tuple[str, int, int, int], PlannedFault]:
        cached = self.__dict__.get("_lookup")
        if cached is None:
            cached = {}
            for fault in self.faults:
                key = (fault.site, fault.point, fault.attempt, fault.occurrence)
                cached.setdefault(key, fault)
            object.__setattr__(self, "_lookup", cached)
        return cached

    def lookup(
        self, site: str, point: int, attempt: int, occurrence: int = 0
    ) -> PlannedFault | None:
        """The fault planned at an exact (site, point, attempt, occurrence)."""
        return self._index().get((site, int(point), int(attempt), int(occurrence)))

    def disrupts(self, point: int, attempt: int) -> bool:
        """Whether this (point, attempt) execution is planned to crash or
        stall its worker — the faults that can break or hang a process pool.

        The trial engine uses this to attribute a pool break: points whose
        current attempt is disruptive consume the fault (their attempt
        advances on resubmission) while innocent in-flight points keep their
        attempt number and therefore their own fault schedule.
        """
        index = self._index()
        return (
            ("worker.crash", int(point), int(attempt), 0) in index
            or ("worker.stall", int(point), int(attempt), 0) in index
        )

    @property
    def n_faults(self) -> int:
        return len(self.faults)

    def __bool__(self) -> bool:
        return bool(self.faults)


def make_fault_plan(
    n_points: int,
    seed: SeedLike = None,
    worker_crashes: int = 0,
    oracle_timeouts: int = 0,
    stalls: int = 0,
    stall_s: float = 1.0,
    board_duplicates: int = 0,
    board_drops: int = 0,
    disk_faults: int = 0,
    max_occurrence: int = 8,
) -> FaultPlan:
    """Draw a deterministic chaos schedule from a seed.

    Each count places that many faults on points drawn uniformly from
    ``range(n_points)`` (several faults may land on one point); the in-trial
    sites draw their occurrence from ``[0, max_occurrence)`` — small, so the
    fault virtually always fires before a realistic trial finishes its probe
    or post traffic.  All faults are planned at attempt 0: the first
    execution is chaotic, the retry is clean.

    Note the semantic split: crashes, stalls, oracle timeouts and board
    *duplicates* never change results (killed/aborted attempts leave no
    trace; duplicate posts are idempotent on the board), so retried runs are
    bit-identical to clean ones.  Board *drops* silently remove data and are
    the graceful-degradation channel — exclude them from determinism gates.
    ``disk_faults`` draws from the durability sites
    (:data:`DISK_FAULT_SITES`) with a site-appropriate action each; they
    degrade durability (a session falls back to ephemeral, a checkpoint is
    skipped) but never change protocol results.
    """
    if n_points <= 0:
        raise ConfigurationError(f"n_points must be positive, got {n_points}")
    rng = as_generator(seed)
    faults: list[PlannedFault] = []

    def draw_point() -> int:
        return int(rng.integers(0, n_points))

    def draw_occurrence() -> int:
        return int(rng.integers(0, max(1, max_occurrence)))

    for _ in range(worker_crashes):
        faults.append(PlannedFault(site="worker.crash", point=draw_point()))
    for _ in range(stalls):
        faults.append(
            PlannedFault(site="worker.stall", point=draw_point(), param=float(stall_s))
        )
    for _ in range(oracle_timeouts):
        faults.append(
            PlannedFault(
                site="oracle.probe", point=draw_point(), occurrence=draw_occurrence()
            )
        )
    for _ in range(board_duplicates):
        faults.append(
            PlannedFault(
                site="board.post",
                point=draw_point(),
                occurrence=draw_occurrence(),
                action="duplicate",
            )
        )
    for _ in range(board_drops):
        faults.append(
            PlannedFault(
                site="board.post",
                point=draw_point(),
                occurrence=draw_occurrence(),
                action="drop",
            )
        )
    for _ in range(disk_faults):
        # Disk faults target the durability path: draw a site, then one of
        # its actions, both from the same seeded stream as everything else.
        site = DISK_FAULT_SITES[int(rng.integers(0, len(DISK_FAULT_SITES)))]
        actions = FAULT_ACTIONS[site]
        faults.append(
            PlannedFault(
                site=site,
                point=draw_point(),
                occurrence=draw_occurrence(),
                action=actions[int(rng.integers(0, len(actions)))],
            )
        )
    plan_seed = None
    if isinstance(seed, (int, np.integer)):
        plan_seed = int(seed)
    return FaultPlan(faults=tuple(faults), seed=plan_seed)
