"""Resilient parallel trial engine for the experiment drivers.

The E1–E12 drivers, the scenario sweeps and the chaos harness all quantify
claims by running many *independent* protocol executions — one per trial,
parameter point, or instance size.  This module fans them across a
:class:`concurrent.futures.ProcessPoolExecutor` while keeping every output
**deterministic regardless of worker count, faults, and retries**:

* each point's randomness derives from the driver's root seed and the
  point's *index* (a ``(seed, index)`` tuple or a :func:`spawn_seeds`
  stream, both built on :func:`repro._typing.spawn_generators`), never
  from execution order;
* results are returned in submission order, not completion order;
* ``n_workers=1`` (the default) bypasses the pool entirely: the same retry
  loop runs each point in-process when it collects it, which with no
  resilience feature engaged is the exact serial path the seed
  implementation ran;
* a failed attempt leaves no trace — trials are pure functions of their
  arguments, so re-running a crashed, timed-out or transiently-failed point
  from scratch reproduces exactly what an undisturbed run would have
  produced.  That is the chaos invariant the fault suite enforces:
  faulted-and-retried runs are bit-identical to clean serial runs.

Resilience features (all opt-in, defaults preserve the historical engine):

``retries=`` / ``backoff=``
    Re-run a point that raised, timed out, or died with its worker, up to
    ``retries`` extra attempts, sleeping ``min(backoff * 2**attempt,``
    ``BACKOFF_CAP_S)`` between attempts.  Exhausting the attempts raises
    :class:`~repro.errors.ExperimentError` naming the point and arguments,
    chained to the original failure, after cancelling all pending siblings.
``timeout_s=``
    Per-point wall-clock bound while awaiting a result.  A timed-out point
    is resubmitted (counting an attempt); the stalled worker's eventual
    result is discarded.  Ignored on the serial path (a single process
    cannot preempt itself).
``journal=``
    Path to an append-only JSONL checkpoint (:class:`repro.faults.journal.
    TrialJournal`): every completed point is flushed to disk as a
    results-JSON-compatible record keyed by point index + argument digest,
    so a killed sweep resumes from the journal — :func:`resume_trials`
    completes it, re-running only the missing points.
``fault_plan=``
    A :class:`repro.faults.plan.FaultPlan` injecting deterministic chaos
    (worker crashes, stalls, probe timeouts, board drop/duplicate) keyed by
    ``(point, attempt, occurrence)`` — see :mod:`repro.faults`.

Workers receive their arguments by pickling, so trial functions must be
module-level callables and their arguments picklable; a non-picklable trial
is rejected at submit time with a clear message instead of the raw pickle
traceback.
"""

from __future__ import annotations

import functools
import os
import pickle
import time
from concurrent.futures import Executor, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Any, Callable, Sequence

from repro._typing import spawn_seeds
from repro.errors import ExperimentError, InjectedCrash, OracleTimeout
from repro.faults.chaos import STAT_KEYS
from repro.faults.journal import TrialJournal, point_key, resolve_trial_ref
from repro.faults.plan import FaultPlan
from repro.faults.runtime import FaultInjector, installed
from repro.obs.report import TraceReport
from repro.obs.runtime import active_telemetry, collecting
from repro.obs.spans import Telemetry

__all__ = [
    "default_worker_count",
    "spawn_seeds",
    "run_trials",
    "resume_trials",
    "STAT_KEYS",
]

#: Upper bound on one backoff sleep, whatever the attempt count.
BACKOFF_CAP_S = 2.0


def default_worker_count() -> int:
    """Worker count matching the CPUs actually available to this process.

    Prefers the scheduler affinity mask (which respects cgroup/container
    limits) over ``os.cpu_count()``; always at least 1.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return max(1, os.cpu_count() or 1)


def _call_trial(
    trial: Callable[..., Any], task: tuple, collect: bool
) -> tuple[Any, TraceReport | None]:
    """Invoke one trial, optionally inside a fresh telemetry collection.

    The fresh-collection-per-attempt shape is what keeps telemetry
    deterministic under retries and worker counts alike: a failed or
    abandoned attempt's report is simply never absorbed, and both the serial
    and the pool path hand the parent the exact same picklable
    :class:`~repro.obs.report.TraceReport` unit to merge.
    """
    if not collect:
        return trial(*task), None
    with collecting() as telemetry:
        result = trial(*task)
    return result, telemetry.report()


def _execute_point(
    trial: Callable[..., Any],
    task: tuple,
    index: int,
    attempt: int,
    plan: FaultPlan | None,
    in_worker: bool,
    collect: bool = False,
) -> tuple[int, Any, tuple[dict, ...], TraceReport | None]:
    """Run one point under the fault plan; the unit a worker executes.

    Worker-level faults fire first: a planned crash kills the process for
    real in a pool worker (``os._exit`` — the pool surfaces it as
    ``BrokenProcessPool``) and raises :class:`~repro.errors.InjectedCrash`
    on the serial path; a planned stall sleeps before the trial starts so
    the parent's ``timeout_s`` machinery is exercised.  In-trial faults
    (oracle timeouts, board drop/duplicate) fire through the ambient
    injector while the trial runs.  With ``collect=True`` the trial runs
    inside its own telemetry window and its :class:`TraceReport` rides back
    alongside the result.
    """
    if plan is None:
        result, report = _call_trial(trial, task, collect)
        return index, result, (), report
    injector = FaultInjector(plan, index, attempt)
    if injector.record("worker.crash") is not None:
        if in_worker:
            os._exit(66)
        raise InjectedCrash(
            f"injected worker crash at point {index} (attempt {attempt})"
        )
    stall = injector.record("worker.stall")
    if stall is not None and in_worker:
        time.sleep(stall.param)
    with installed(injector):
        result, report = _call_trial(trial, task, collect)
    return index, result, tuple(event.as_record() for event in injector.events), report


def _normalise_tasks(points: Sequence[Any]) -> list[tuple]:
    return [point if isinstance(point, tuple) else (point,) for point in points]


def _check_picklable(trial: Callable[..., Any], task: tuple) -> None:
    """Reject non-picklable trials/arguments at submit time with a clear
    message instead of the pool's raw ``PicklingError`` traceback."""
    try:
        pickle.dumps((trial, task))
    except Exception as error:  # PicklingError, AttributeError, TypeError, ...
        raise ExperimentError(
            "trial must be a module-level callable with picklable arguments "
            "to run under a process pool (lambdas, closures and locally "
            f"defined functions cannot be shipped to workers): {error}"
        ) from error


def _sleep_backoff(backoff: float, attempt: int) -> None:
    if backoff > 0.0:
        time.sleep(min(backoff * (2.0 ** attempt), BACKOFF_CAP_S))


def _init_stats(stats: dict | None) -> dict:
    stats = stats if stats is not None else {}
    for key in STAT_KEYS:
        stats.setdefault(key, 0)
    return stats


class _Deferred(functools.partial):
    """A point that :class:`_InProcess` runs when its result is collected."""

    def result(self, timeout: float | None = None) -> Any:
        return self()

    def cancel(self) -> bool:
        return True


class _InProcess(Executor):
    """The executor of the in-process path (its ``shutdown`` is a no-op).

    A submitted point runs only when the loop collects its result, so the
    points run one at a time in point order, each result lands before the
    next point starts, and a failure that exhausts its attempts leaves the
    later points unstarted.
    """

    def submit(self, fn: Callable[..., Any], *args: Any) -> _Deferred:
        return _Deferred(fn, *args)


def _run_points(
    trial: Callable[..., Any],
    tasks: list[tuple],
    remaining: list[int],
    results: dict[int, Any],
    n_workers: int,
    retries: int,
    backoff: float,
    timeout_s: float | None,
    plan: FaultPlan | None,
    journal: TrialJournal | None,
    stats: dict,
    telemetry: Telemetry | None,
    on_result,
) -> None:
    """The retry loop: run the remaining points and collect them in point
    order, retrying failed attempts.

    With ``n_workers > 1`` and more than one point the points fan across a
    process pool, with pool-restart and timeout handling.  Otherwise they
    run in-process (:class:`_InProcess`) under the same bookkeeping: a
    planned crash raises :class:`~repro.errors.InjectedCrash` instead of
    killing a worker, ``timeout_s`` is ignored (a single process cannot
    preempt itself), and with no resilience feature engaged the trial's own
    exception propagates untouched, the historical serial contract.

    Under an ambient telemetry collection every point runs in its own
    window (``collect=True``), in-process or in a worker, and its
    :class:`TraceReport` is absorbed when the point's result lands, in
    submission order.  That uniformity makes the merged telemetry identical
    for every worker count and discards failed attempts' telemetry for free.
    """
    pooled = n_workers > 1 and len(remaining) > 1
    if pooled:
        _check_picklable(trial, tasks[remaining[0]])
        executor = ProcessPoolExecutor(max_workers=min(n_workers, len(remaining)))
    else:
        executor = _InProcess()
    plain = not pooled and retries == 0 and plan is None
    attempts = {index: 0 for index in remaining}
    saw_timeout = False
    collect = telemetry is not None

    def submit(index: int):
        return executor.submit(
            _execute_point, trial, tasks[index], index, attempts[index], plan,
            pooled, collect,
        )

    def abandon(error: BaseException, index: int) -> ExperimentError:
        """Cancel every pending sibling and wrap the failure with context."""
        for future in futures.values():
            future.cancel()
        executor.shutdown(wait=False, cancel_futures=True)
        return ExperimentError(
            f"trial failed at point {index} with arguments {tasks[index]!r} "
            f"after {attempts[index] + 1} attempt(s)"
        )

    futures = {index: submit(index) for index in remaining}
    try:
        while futures:
            index = min(futures)  # collect in submission (point) order
            # Only a pool wait can time out, and only a future still running
            # when the wait ends has: a trial's own TimeoutError (the class
            # ``concurrent.futures`` raises on a wait since Python 3.11) is an
            # ordinary failure, in a worker as in-process.
            if pooled and not wait([futures[index]], timeout=timeout_s).done:
                error = TimeoutError(
                    f"point {index} did not finish within timeout_s={timeout_s}"
                )
                saw_timeout = True
                stats["timeouts"] += 1
                if journal is not None:
                    journal.record_event(
                        event="timeout", index=index, attempt=attempts[index]
                    )
                if attempts[index] >= retries:
                    raise abandon(error, index) from error
                # Resubmit to the same (healthy) pool; the stalled worker's
                # eventual result is discarded with the abandoned future.
                attempts[index] += 1
                stats["retried"] += 1
                futures[index] = submit(index)
                continue
            try:
                _, result, events, report = futures[index].result()
            except BrokenProcessPool as error:
                stats["pool_restarts"] += 1
                if journal is not None:
                    journal.record_event(
                        event="pool-broken", pending=sorted(futures)
                    )
                # Attribute the crash: points whose current attempt is
                # *planned* to be disruptive consume their fault (attempt
                # advances); innocent in-flight points keep their attempt
                # and therefore their own fault schedule.  With no plan to
                # consult (a genuine crash), every pending point advances —
                # that guarantees the restart loop terminates.
                blamed = [
                    i
                    for i in futures
                    if plan is not None and plan.disrupts(i, attempts[i])
                ]
                stats["injected"] += len(blamed)  # planned crashes/stalls fired
                if not blamed:
                    blamed = sorted(futures)
                exhausted = [i for i in blamed if attempts[i] >= retries]
                if exhausted:
                    worst = exhausted[0]
                    raise abandon(error, worst) from error
                for i in blamed:
                    attempts[i] += 1
                    stats["retried"] += 1
                executor.shutdown(wait=False, cancel_futures=True)
                executor = ProcessPoolExecutor(
                    max_workers=min(n_workers, len(futures))
                )
                futures = {i: submit(i) for i in sorted(futures)}
                continue
            except Exception as error:
                if journal is not None:
                    journal.record_event(
                        event="attempt-failed",
                        index=index,
                        attempt=attempts[index],
                        error=repr(error),
                    )
                if plain:
                    # Historical contract: the in-process engine propagates
                    # the trial's own exception untouched.
                    raise
                stats["injected"] += isinstance(error, (InjectedCrash, OracleTimeout))
                if attempts[index] >= retries:
                    raise abandon(error, index) from error
                _sleep_backoff(backoff, attempts[index])
                attempts[index] += 1
                stats["retried"] += 1
                futures[index] = submit(index)
                continue
            del futures[index]
            stats["injected"] += len(events)
            if journal is not None:
                for event in events:
                    journal.record_event(event="fault", **event)
                journal.record_result(
                    index, attempts[index], point_key(tasks[index]), result
                )
            if telemetry is not None and report is not None:
                telemetry.absorb(report)
            results[index] = result
            if on_result is not None:
                on_result(index, result)
    finally:
        # A timed-out worker may still be inside its stalled trial; waiting
        # for it would block the caller on exactly the hang the timeout was
        # meant to survive.
        executor.shutdown(wait=not saw_timeout, cancel_futures=True)


def run_trials(
    trial: Callable[..., Any],
    points: Sequence[Any],
    n_workers: int = 1,
    retries: int = 0,
    backoff: float = 0.0,
    timeout_s: float | None = None,
    journal: Path | str | None = None,
    fault_plan: FaultPlan | None = None,
    stats: dict | None = None,
    on_result: Callable[[int, Any], None] | None = None,
) -> list[Any]:
    """Run ``trial(*point)`` for every point and return results in order.

    Parameters
    ----------
    trial:
        A module-level (picklable) callable executing one independent trial
        or parameter point.
    points:
        One argument tuple per trial (bare non-tuple entries are treated as
        single-argument calls).
    n_workers:
        ``<= 1`` runs everything serially in-process — byte-identical to the
        pre-engine drivers when no resilience features are engaged.  Larger
        values fan the points across a process pool (capped at the number of
        outstanding points).
    retries:
        Extra attempts granted to a point that raised, timed out, or died
        with its worker.  ``0`` (the default) preserves fail-fast semantics:
        the first worker failure cancels all pending siblings and raises
        :class:`~repro.errors.ExperimentError` naming the point and its
        arguments, chained to the original exception.
    backoff:
        Base of the capped exponential backoff between attempts
        (``min(backoff * 2**attempt, BACKOFF_CAP_S)`` seconds); ``0``
        retries immediately.
    timeout_s:
        Per-point bound on waiting for a result (pool path only).  A
        timed-out point is resubmitted, consuming an attempt.
    journal:
        Path to the on-disk checkpoint.  Completed points found in an
        existing journal are **not** re-run — their recorded results are
        returned — and each newly completed point is flushed before the
        next is awaited, so a killed run loses at most in-flight work.
    fault_plan:
        Deterministic chaos schedule (see :mod:`repro.faults.plan`).
    stats:
        Optional dict the engine fills with engine counters
        (:data:`STAT_KEYS`: faults injected, retries, pool restarts,
        timeouts, journal flushes) — the numbers the CLI surfaces into
        the results-JSON ``metrics`` block.
    on_result:
        Optional ``(index, result)`` callback fired once per point with its
        *final* (post-retry) result, as soon as the engine records it —
        journal-restored points first (ascending index), then newly executed
        points in submission order.  The preference server's publisher hooks
        this to stream round results while a run is still in flight; the
        callback runs on the engine's thread, so it must be cheap and must
        not raise.

    When an ambient telemetry collection is installed
    (:func:`repro.obs.runtime.collecting`), every trial runs in its own
    telemetry window — in-process or in a worker — and the per-point
    :class:`~repro.obs.report.TraceReport`\\ s are absorbed into the ambient
    collection in submission order, making the aggregated telemetry
    bit-identical for any ``n_workers``.
    """
    tasks = _normalise_tasks(points)
    n_workers = int(n_workers)
    if n_workers < 0:
        raise ExperimentError(f"n_workers must be non-negative, got {n_workers}")
    if retries < 0:
        raise ExperimentError(f"retries must be non-negative, got {retries}")
    if timeout_s is not None and timeout_s <= 0:
        raise ExperimentError(f"timeout_s must be positive, got {timeout_s}")
    stats = _init_stats(stats)
    telemetry = active_telemetry()

    journal_obj: TrialJournal | None = None
    results: dict[int, Any] = {}
    try:
        if journal is not None and tasks:
            journal_obj = TrialJournal.attach(journal, trial, tasks)
            results.update(journal_obj.completed)
            if on_result is not None:
                for index in sorted(results):
                    on_result(index, results[index])
        remaining = [index for index in range(len(tasks)) if index not in results]
        if not remaining:
            return [results[index] for index in range(len(tasks))]
        _run_points(
            trial, tasks, remaining, results,
            n_workers, retries, backoff, timeout_s,
            fault_plan, journal_obj, stats, telemetry,
            on_result,
        )
    finally:
        if journal_obj is not None:
            stats["journal_flushes"] += journal_obj.flushes
            journal_obj.close()
    return [results[index] for index in range(len(tasks))]


def resume_trials(
    journal: Path | str,
    trial: Callable[..., Any] | None = None,
    points: Sequence[Any] | None = None,
    **run_kwargs: Any,
) -> list[Any]:
    """Complete a partially finished, journaled ``run_trials`` sweep.

    The journal header records the trial callable's import path and the
    pickled points, so ``resume_trials(path)`` alone finishes the sweep:
    completed points come back from the journal verbatim and only the
    missing ones execute (with whatever ``n_workers=`` / ``retries=`` /
    ``timeout_s=`` keywords are forwarded).  Pass ``trial=`` / ``points=``
    explicitly to override the header (e.g. when the callable moved) —
    per-point argument digests still guard against resuming the wrong sweep.
    """
    header = TrialJournal.read_header(journal)
    if trial is None:
        trial = resolve_trial_ref(header["trial"])
    if points is None:
        points = TrialJournal.header_points(header)
    return run_trials(trial, points, journal=journal, **run_kwargs)
