"""The observability runtime: ambient, gated, zero-cost when idle.

A thread-local slot, ``_AMBIENT``, holds what the current thread installed:
the :class:`~repro.obs.spans.Telemetry` collection (``.telemetry``, via
:func:`collecting`) and the fault injector (``.faults``, via
:func:`repro.faults.runtime.installed`); both are ``None`` by default, and
:func:`installing` is the one install helper behind both.  Every
instrumentation site starts with a single ``is None`` test.  When nothing
is installed, :func:`add`/:func:`observe`/:func:`set_gauge` return
immediately, :func:`span` hands back a shared stateless null context
manager, and the :func:`traced`/:func:`timed_kernel` wrappers fall straight
through to the wrapped function — no allocation, no clock read, no
dictionary touch.  The telemetry test suite pins this down with a
call-count spy on :class:`Telemetry`.

Hot sites whose counter *value* is itself a computation (e.g. summing a
charge vector) should guard the computation too::

    if obs._AMBIENT.telemetry is not None:
        obs.add("oracle.probes", int(counts.sum()))

The slot is **thread-local**: worker processes are single-threaded (so they
pay only the attribute read), while the preference server runs one worker
thread per session, each collecting into its own session telemetry (and
faulting under its own submitter's plan) without clobbering its neighbours.
Installation/teardown stays strictly per-thread; cross-thread *reads* of a
live collection go through :meth:`~repro.obs.spans.Telemetry.snapshot`,
which tolerates concurrent mutation.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import AbstractContextManager, contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.obs.spans import Telemetry

if TYPE_CHECKING:
    from repro.faults.runtime import FaultInjector

__all__ = [
    "active_telemetry",
    "installing",
    "collecting",
    "span",
    "add",
    "observe",
    "set_gauge",
    "traced",
    "timed_kernel",
]


class _Ambient(threading.local):
    """Per-thread slot; the class defaults leave every new thread empty."""

    telemetry: Telemetry | None = None
    faults: FaultInjector | None = None


#: What the current thread installed (each field ``None`` when nothing is).
_AMBIENT = _Ambient()


@contextmanager
def installing(field: str, value: Any) -> Iterator[Any]:
    """Set ``_AMBIENT.<field>`` on this thread for the duration and yield
    ``value``; on exit the field gets back its previous value, so nested
    installs shadow outer ones."""
    previous = getattr(_AMBIENT, field)
    setattr(_AMBIENT, field, value)
    try:
        yield value
    finally:
        setattr(_AMBIENT, field, previous)


def active_telemetry() -> Telemetry | None:
    """The currently installed collection (``None`` outside traced runs)."""
    return _AMBIENT.telemetry


def collecting(
    telemetry: Telemetry | None = None,
) -> AbstractContextManager[Telemetry]:
    """Install a telemetry collection as the ambient sink for the duration.

    Creates a fresh :class:`Telemetry` when none is passed; yields the
    installed collection so the caller can pull its
    :meth:`~repro.obs.spans.Telemetry.report` afterwards.  Nesting restores
    the previous collection on exit (inner windows shadow outer ones).
    The installation is visible only to the current thread.
    """
    return installing("telemetry", Telemetry() if telemetry is None else telemetry)


class _NullSpan:
    """Shared do-nothing context manager returned when telemetry is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Live span context: times the region and keeps the stack honest."""

    __slots__ = ("_telemetry", "_name", "_node", "_start")

    def __init__(self, telemetry: Telemetry, name: str) -> None:
        self._telemetry = telemetry
        self._name = name

    def __enter__(self) -> "_SpanHandle":
        self._node = self._telemetry.enter(self._name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        self._telemetry.exit(self._node, time.perf_counter() - self._start)
        return False


def span(name: str):
    """Context manager opening the span ``name`` (no-op when idle)."""
    telemetry = _AMBIENT.telemetry
    if telemetry is None:
        return _NULL_SPAN
    return _SpanHandle(telemetry, name)


def add(name: str, value: int = 1) -> None:
    """Increment counter ``name`` on the active span stack (no-op when idle)."""
    telemetry = _AMBIENT.telemetry
    if telemetry is None:
        return
    telemetry.add(name, value)


def observe(name: str, value: float) -> None:
    """Add one histogram observation (no-op when idle)."""
    telemetry = _AMBIENT.telemetry
    if telemetry is None:
        return
    telemetry.observe(name, value)


def set_gauge(name: str, value: float) -> None:
    """Record the latest value of gauge ``name`` (no-op when idle)."""
    telemetry = _AMBIENT.telemetry
    if telemetry is None:
        return
    telemetry.set_gauge(name, value)


def traced(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator wrapping a protocol stage in the span ``name``.

    The disabled path is one global read and one ``is None`` test before the
    call — the protocol layer pays nothing for its instrumentation unless a
    collection is installed.
    """

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            telemetry = _AMBIENT.telemetry
            if telemetry is None:
                return fn(*args, **kwargs)
            node = telemetry.enter(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                telemetry.exit(node, time.perf_counter() - start)

        return wrapper

    return decorate


def timed_kernel(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Wrap one ``repro.perf`` kernel with a per-call cumulative timer.

    Kernels are leaves, not stages: they feed the ``perf.<name>`` timer
    registry (calls + cumulative seconds, the e13 microbench dimensions)
    rather than opening spans.  Disabled cost is the same single gate as
    :func:`traced`.
    """
    name = f"perf.{fn.__name__}"

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        telemetry = _AMBIENT.telemetry
        if telemetry is None:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            telemetry.time_kernel(name, time.perf_counter() - start)

    return wrapper
