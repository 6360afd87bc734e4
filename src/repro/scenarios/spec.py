"""The declarative scenario vocabulary: picklable specs, no behaviour.

A scenario is everything the engine needs to build and run one workload:

* :class:`PopulationSpec` — who the players are: instance size, which
  preference generator plants the hidden structure, and its parameters;
* :class:`CoalitionSpec` — one colluding coalition (strategy, size expressed
  absolutely or relative to the paper's ``n/(3B)`` tolerance or to ``n``
  itself, victim cluster, attack targets).  A scenario may carry *several*
  coalitions simultaneously — something the fixed E1–E12 drivers cannot
  express;
* :class:`DynamicsSpec` — how the world moves while the protocol runs:
  player churn between repetitions and a noisy probe channel;
* :class:`ProtocolSpec` — which algorithm answers the workload, under which
  constants profile, with which budget;
* :class:`FaultsSpec` — system-level chaos riding along with the workload:
  how many worker crashes, probe timeouts, stalls and flaky board posts the
  trial engine should inject (deterministically, from the sweep seed), and
  the resilience envelope (retries, per-point timeout, graceful
  degradation) it should run under.

Everything here is a frozen dataclass of plain Python/NumPy scalars, so a
spec pickles cleanly into :func:`repro.analysis.runner.run_trials` workers,
and the pair ``(spec, seed)`` fully determines an execution (the engine
derives every random stream from the seed alone).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.errors import ConfigurationError
from repro.players.adversaries import COALITION_STRATEGIES

__all__ = [
    "GENERATOR_NAMES",
    "PROTOCOL_NAMES",
    "SUBSET_PROTOCOLS",
    "PopulationSpec",
    "CoalitionSpec",
    "DynamicsSpec",
    "ProtocolSpec",
    "FaultsSpec",
    "ScenarioSpec",
    "apply_override",
]


#: Preference generators the population spec may name
#: (keys resolved in :mod:`repro.scenarios.engine`).
GENERATOR_NAMES: tuple[str, ...] = (
    "planted",
    "zero-radius",
    "mixture",
    "random",
    "heterogeneous",
)

#: Algorithms the protocol spec may name.
PROTOCOL_NAMES: tuple[str, ...] = (
    "calculate-preferences",
    "robust",
    "alon",
    "small-radius",
    "zero-radius",
    "solo-probing",
    "global-majority",
    "random-guessing",
    "oracle-clustering",
)

#: Protocols that accept an arbitrary player subset — the only ones that can
#: run under churn (the others are defined over the full population).
SUBSET_PROTOCOLS: tuple[str, ...] = ("small-radius", "zero-radius")


@dataclass(frozen=True)
class PopulationSpec:
    """The hidden preference instance: who plays and how they correlate.

    ``params`` are forwarded to the named generator; see
    :mod:`repro.preferences.generators` for each generator's vocabulary
    (``n_clusters``/``diameter`` for ``planted``, ``n_types``/``noise`` for
    ``mixture``, ``cluster_sizes``/``cluster_diameters`` for
    ``heterogeneous``, ...).  Heterogeneous per-cluster budgets are expressed
    through the ``heterogeneous`` generator's explicit size/diameter lists.
    """

    n_players: int = 128
    n_objects: int = 256
    generator: str = "planted"
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_players <= 0 or self.n_objects <= 0:
            raise ConfigurationError(
                "population sizes must be positive, got "
                f"n_players={self.n_players}, n_objects={self.n_objects}"
            )
        if self.generator not in GENERATOR_NAMES:
            raise ConfigurationError(
                f"unknown generator {self.generator!r}; known: {GENERATOR_NAMES}"
            )
        # Copy the mapping so later caller-side mutation cannot change the
        # spec after validation (specs are shared across workers by value).
        object.__setattr__(self, "params", dict(self.params))


@dataclass(frozen=True)
class CoalitionSpec:
    """One colluding coalition.

    Exactly one of ``size``, ``fraction_of_tolerance`` (relative to the
    paper's ``n/(3B)`` bound) or ``fraction_of_players`` (relative to ``n``;
    for β→1/2 stress scenarios) must be set.  ``victim_cluster`` names a
    planted cluster id; ``target_fraction`` sizes the attacked object set.
    """

    strategy: str = "strange"
    size: int | None = None
    fraction_of_tolerance: float | None = None
    fraction_of_players: float | None = None
    victim_cluster: int = 0
    target_fraction: float = 0.125

    def __post_init__(self) -> None:
        if self.strategy not in COALITION_STRATEGIES:
            raise ConfigurationError(
                f"unknown coalition strategy {self.strategy!r}; "
                f"known: {COALITION_STRATEGIES}"
            )
        sizings = [
            self.size is not None,
            self.fraction_of_tolerance is not None,
            self.fraction_of_players is not None,
        ]
        if sum(sizings) != 1:
            raise ConfigurationError(
                "exactly one of size / fraction_of_tolerance / "
                "fraction_of_players must be set per coalition"
            )
        if self.size is not None and self.size < 0:
            raise ConfigurationError(f"coalition size must be >= 0, got {self.size}")
        if self.fraction_of_tolerance is not None and self.fraction_of_tolerance < 0:
            raise ConfigurationError(
                f"fraction_of_tolerance must be >= 0, got {self.fraction_of_tolerance}"
            )
        if self.fraction_of_players is not None and not (
            0.0 <= self.fraction_of_players < 0.5
        ):
            raise ConfigurationError(
                "fraction_of_players must lie in [0, 0.5) (honest majority), "
                f"got {self.fraction_of_players}"
            )
        if not 0.0 < self.target_fraction <= 1.0:
            raise ConfigurationError(
                f"target_fraction must lie in (0, 1], got {self.target_fraction}"
            )

    def resolve_size(self, n_players: int, tolerance: int) -> int:
        """Concrete member count for an ``n_players`` population."""
        if self.size is not None:
            return int(self.size)
        if self.fraction_of_tolerance is not None:
            return int(round(self.fraction_of_tolerance * tolerance))
        return int(round(self.fraction_of_players * n_players))


@dataclass(frozen=True)
class DynamicsSpec:
    """World dynamics: churn between repetitions and probe-channel noise."""

    repetitions: int = 1
    arrivals: int = 0
    departures: int = 0
    initially_active: int | None = None
    noise_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.repetitions <= 0:
            raise ConfigurationError(
                f"repetitions must be positive, got {self.repetitions}"
            )
        if self.arrivals < 0 or self.departures < 0:
            raise ConfigurationError(
                "arrivals and departures must be non-negative, got "
                f"{self.arrivals}, {self.departures}"
            )
        if not 0.0 <= self.noise_rate < 0.5:
            raise ConfigurationError(
                f"noise_rate must lie in [0, 0.5), got {self.noise_rate}"
            )

    @property
    def has_churn(self) -> bool:
        """Whether any player ever arrives or departs."""
        return self.arrivals > 0 or self.departures > 0 or (
            self.initially_active is not None
        )


@dataclass(frozen=True)
class ProtocolSpec:
    """Which algorithm runs, under which constants, with which budget.

    ``budget`` is the *nominal* parameter ``B`` the algorithm reasons with.
    ``probe_limit`` is different: a **hard per-player cap** enforced by the
    oracle (the ROADMAP's "hard budget heterogeneity") — a protocol that
    exceeds it fails with :class:`~repro.errors.BudgetExceededError` rather
    than completing.  ``probe_limit_factors`` makes the cap heterogeneous:
    factor ``i`` scales the cap of every player in planted cluster ``i``
    (players outside the listed clusters keep factor 1), so a scenario can
    ration probe capacity unevenly across the population.
    """

    name: str = "calculate-preferences"
    budget: int = 4
    constants_profile: str = "practical"
    constants_overrides: Mapping[str, float] = field(default_factory=dict)
    diameter: float | None = None
    robust_iterations: int | None = None
    probe_limit: int | None = None
    probe_limit_factors: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.name not in PROTOCOL_NAMES:
            raise ConfigurationError(
                f"unknown protocol {self.name!r}; known: {PROTOCOL_NAMES}"
            )
        if self.budget <= 0:
            raise ConfigurationError(f"budget must be positive, got {self.budget}")
        if self.constants_profile not in ("practical", "paper"):
            raise ConfigurationError(
                "constants_profile must be 'practical' or 'paper', got "
                f"{self.constants_profile!r}"
            )
        if self.robust_iterations is not None and self.robust_iterations <= 0:
            raise ConfigurationError(
                f"robust_iterations must be positive, got {self.robust_iterations}"
            )
        if self.probe_limit is not None and self.probe_limit <= 0:
            raise ConfigurationError(
                f"probe_limit must be positive, got {self.probe_limit}"
            )
        object.__setattr__(
            self, "probe_limit_factors", tuple(self.probe_limit_factors)
        )
        if self.probe_limit_factors:
            if self.probe_limit is None:
                raise ConfigurationError(
                    "probe_limit_factors require a probe_limit to scale"
                )
            if any(factor <= 0 for factor in self.probe_limit_factors):
                raise ConfigurationError("probe_limit_factors must all be positive")
        object.__setattr__(self, "constants_overrides", dict(self.constants_overrides))


@dataclass(frozen=True)
class FaultsSpec:
    """Declarative system-level chaos for a scenario's trial sweep.

    The counts request that many deterministic faults spread (by the sweep
    seed) across the sweep's trial points — see
    :func:`repro.faults.chaos.plan_from_spec` and
    :func:`repro.faults.plan.make_fault_plan` for the exact semantics.
    ``retries`` / ``timeout_s`` set the resilience envelope the engine runs
    under; ``degrade`` forwards to
    :func:`repro.core.robust.robust_calculate_preferences` so a robust
    scenario survives budget/fault-channel exhaustion with a typed partial
    result instead of a failed trial.

    Crashes, timeouts, stalls and duplicate posts never change results
    (retried attempts replay the clean execution); ``board_drops`` silently
    removes data and is therefore excluded from determinism gates — it is
    the degradation channel.
    """

    worker_crashes: int = 0
    oracle_timeouts: int = 0
    stalls: int = 0
    stall_s: float = 0.25
    board_duplicates: int = 0
    board_drops: int = 0
    retries: int = 2
    timeout_s: float | None = None
    degrade: bool = False

    def __post_init__(self) -> None:
        for name in (
            "worker_crashes",
            "oracle_timeouts",
            "stalls",
            "board_duplicates",
            "board_drops",
            "retries",
        ):
            if int(getattr(self, name)) < 0:
                raise ConfigurationError(
                    f"{name} must be non-negative, got {getattr(self, name)}"
                )
        if self.stalls > 0 and self.stall_s <= 0.0:
            raise ConfigurationError(
                f"stall_s must be positive when stalls are planned, got {self.stall_s}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError(
                f"timeout_s must be positive, got {self.timeout_s}"
            )

    @property
    def any_faults(self) -> bool:
        """Whether this spec plans any fault at all."""
        return (
            self.worker_crashes
            + self.oracle_timeouts
            + self.stalls
            + self.board_duplicates
            + self.board_drops
        ) > 0


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, self-describing workload."""

    name: str
    description: str
    population: PopulationSpec = field(default_factory=PopulationSpec)
    protocol: ProtocolSpec = field(default_factory=ProtocolSpec)
    coalitions: tuple[CoalitionSpec, ...] = ()
    dynamics: DynamicsSpec = field(default_factory=DynamicsSpec)
    faults: FaultsSpec = field(default_factory=FaultsSpec)
    #: True for scenario families the fixed seed drivers cannot express
    #: (mixed coalitions, adaptive switches, churn, noisy oracles, ...).
    novel: bool = False
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario name must be non-empty")
        object.__setattr__(self, "coalitions", tuple(self.coalitions))
        object.__setattr__(self, "tags", tuple(self.tags))
        if self.dynamics.repetitions > 1 or self.dynamics.has_churn:
            if self.protocol.name not in SUBSET_PROTOCOLS:
                raise ConfigurationError(
                    f"protocol {self.protocol.name!r} runs over the full "
                    "population and cannot be combined with churn/repetitions; "
                    f"use one of {SUBSET_PROTOCOLS}"
                )
        if self.coalitions and self.protocol.name == "oracle-clustering":
            raise ConfigurationError(
                "oracle-clustering reads the hidden matrix and is only defined "
                "for honest populations"
            )


def apply_override(spec: ScenarioSpec, path: str, value: Any) -> ScenarioSpec:
    """Return a copy of ``spec`` with one dotted-path field replaced.

    Paths walk nested dataclasses and tuples, e.g. ``population.n_players``,
    ``dynamics.noise_rate``, ``protocol.budget`` or ``coalitions.0.size``.
    Numeric path segments index into tuples.  Used by the sweep engine and
    the CLI's ``--set`` flags.
    """
    segments = path.split(".")
    if not all(segments):
        raise ConfigurationError(f"invalid override path {path!r}")

    def rebuild(node: Any, remaining: list[str]) -> Any:
        head, *rest = remaining
        if isinstance(node, tuple):
            if not head.isdigit():
                raise ConfigurationError(
                    f"path segment {head!r} must be an index into a tuple in {path!r}"
                )
            index = int(head)
            if not 0 <= index < len(node):
                raise ConfigurationError(
                    f"index {index} out of range for {path!r} (length {len(node)})"
                )
            new_item = rebuild(node[index], rest) if rest else value
            return node[:index] + (new_item,) + node[index + 1 :]
        if not hasattr(node, head):
            raise ConfigurationError(
                f"{type(node).__name__} has no field {head!r} (path {path!r})"
            )
        if not rest:
            return replace(node, **{head: value})
        return replace(node, **{head: rebuild(getattr(node, head), rest)})

    return rebuild(spec, segments)
