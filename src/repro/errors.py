"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by the library derive from :class:`ReproError`, so a
caller embedding the simulator can catch one base class.  Sub-classes are
grouped by subsystem; they carry enough context (player / object identifiers,
budgets) to debug an experiment without re-running it.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A configuration object is internally inconsistent.

    Raised e.g. when ``n_players`` is not positive, when the dishonest
    fraction exceeds what a protocol tolerates, or when protocol constants are
    out of their documented ranges.
    """


class BudgetExceededError(ReproError):
    """A player attempted to probe beyond its hard probe budget.

    Only raised when the :class:`repro.simulation.oracle.ProbeOracle` is
    constructed with ``enforce_budget=True``; by default budgets are merely
    *measured* (the paper's statements are about probe counts, not about a
    mechanism that cuts players off).
    """

    def __init__(self, player: int, budget: int, attempted: int) -> None:
        self.player = int(player)
        self.budget = int(budget)
        self.attempted = int(attempted)
        super().__init__(
            f"player {player} attempted {attempted} probes, exceeding its "
            f"hard budget of {budget}"
        )


class ProtocolError(ReproError):
    """A protocol precondition was violated at run time.

    For example :func:`repro.protocols.zero_radius.zero_radius` being invoked
    with an empty object set, or a clustering step discovering that no player
    meets the degree requirement (which the paper's assumptions rule out).
    """


class LeaderElectionError(ReproError):
    """The leader-election substrate was invoked with an invalid coalition."""


class ExperimentError(ReproError):
    """An experiment driver was asked for an unknown experiment or
    inconsistent sweep parameters."""


class OracleTimeout(ReproError):
    """A probe request timed out in transit.

    This is a *transient* infrastructure fault, not a model-level event: the
    oracle's state (memoisation, charging, noise channel) is untouched, so a
    caller that retries the probe observes exactly what a never-faulted run
    would have observed.  Raised by the deterministic fault-injection layer
    (:mod:`repro.faults`); real deployments would map network timeouts onto
    the same type.
    """

    def __init__(self, site: str = "oracle.probe", occurrence: int = 0) -> None:
        self.site = site
        self.occurrence = int(occurrence)
        super().__init__(
            f"probe request timed out at {site} (call #{occurrence})"
        )


class ConnectionLost(ReproError):
    """The peer on the other side of a serve connection went away.

    Raised by the preference clients when a read or write hits a dead
    socket (``OSError``/EOF) or the stream returns bytes that no longer
    parse as a frame (the torn write of a crashing server).  Carries the
    per-session last-seen event cursors so a caller — or the client's own
    auto-reconnect — can resume each stream exactly where it stopped via
    ``subscribe(from_seq=...)``.

    For an in-flight request the outcome is *unknown*: the op may or may
    not have executed before the connection died.  Idempotent ops are
    retried transparently by the reconnecting clients; mutating ops
    surface this error so the caller decides.
    """

    def __init__(
        self, message: str, last_seen: dict[str, int] | None = None
    ) -> None:
        super().__init__(message)
        #: ``{session: last event seq observed}`` at the moment of loss.
        self.last_seen = dict(last_seen or {})


class InjectedCrash(ReproError):
    """A planned worker crash, simulated in-process.

    The parallel trial engine crashes faulted workers for real
    (``os._exit``); the serial path raises this instead so a single-process
    chaos run exercises the same retry logic without killing the interpreter.
    """
