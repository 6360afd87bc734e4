"""Named scenario families: the catalog behind ``python -m repro list``.

Each entry is a fully-specified :class:`~repro.scenarios.spec.ScenarioSpec`
sized to run in seconds on a laptop; sweeps scale them up by overriding
``population.n_players`` etc.  Specs marked ``novel=True`` exercise workloads
the fixed E1–E12 drivers cannot express at all — simultaneous mixed-strategy
coalitions, an adaptive mid-run strategy switch, player churn, a noisy probe
channel, and a β→1/2 adversarial-majority stress.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.scenarios.spec import (
    CoalitionSpec,
    DynamicsSpec,
    FaultsSpec,
    PopulationSpec,
    ProtocolSpec,
    ScenarioSpec,
)

__all__ = ["register", "get_scenario", "scenario_names", "all_scenarios"]


_REGISTRY: dict[str, ScenarioSpec] = {}


def register(spec: ScenarioSpec) -> ScenarioSpec:
    """Add a spec to the registry (name must be unused); returns it."""
    if spec.name in _REGISTRY:
        raise ConfigurationError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(
            f"unknown scenario {name!r}; registered scenarios: {known}"
        ) from None


def scenario_names() -> list[str]:
    """All registered scenario names, sorted."""
    return sorted(_REGISTRY)


def all_scenarios() -> list[ScenarioSpec]:
    """All registered specs, sorted by name."""
    return [_REGISTRY[name] for name in scenario_names()]


# ---------------------------------------------------------------------------
# Catalog — classic workloads (scenario-spec forms of the seed drivers)
# ---------------------------------------------------------------------------
register(ScenarioSpec(
    name="honest-planted",
    description=(
        "Planted bounded-diameter clusters, all players honest, full "
        "CalculatePreferences pipeline (the E5 workload as a spec)."
    ),
    population=PopulationSpec(
        n_players=128, n_objects=256, generator="planted",
        params={"n_clusters": 4, "diameter": 32},
    ),
    protocol=ProtocolSpec(name="calculate-preferences", budget=4),
    tags=("honest", "planted"),
))

register(ScenarioSpec(
    name="zero-radius-exact",
    description=(
        "Identical-preference clusters solved exactly by ZeroRadius "
        "(Theorem 4's workload)."
    ),
    population=PopulationSpec(
        n_players=96, n_objects=96, generator="zero-radius",
        params={"n_clusters": 4},
    ),
    protocol=ProtocolSpec(name="zero-radius", budget=4),
    tags=("honest", "exact"),
))

register(ScenarioSpec(
    name="small-radius-planted",
    description=(
        "SmallRadius alone on a small-diameter planted instance "
        "(Theorem 5's workload)."
    ),
    population=PopulationSpec(
        n_players=96, n_objects=128, generator="planted",
        params={"n_clusters": 4, "diameter": 8},
    ),
    protocol=ProtocolSpec(name="small-radius", budget=4, diameter=8.0),
    tags=("honest", "planted"),
))

register(ScenarioSpec(
    name="heterogeneous-clusters",
    description=(
        "Clusters of unequal sizes and diameters (the §8 heterogeneous-budget "
        "discussion; the E11 workload as a spec)."
    ),
    population=PopulationSpec(
        n_players=128, n_objects=256, generator="heterogeneous",
        params={
            "cluster_sizes": [64, 32, 16, 16],
            "cluster_diameters": [16, 32, 64, 8],
        },
    ),
    protocol=ProtocolSpec(name="calculate-preferences", budget=4),
    tags=("honest", "heterogeneous"),
))

register(ScenarioSpec(
    name="mixture-types",
    description=(
        "Players drawn from a noisy mixture of type vectors — the "
        "Kleinberg–Sandler related-work setting, off the paper's home turf."
    ),
    population=PopulationSpec(
        n_players=128, n_objects=256, generator="mixture",
        params={"n_types": 4, "noise": 0.05},
    ),
    protocol=ProtocolSpec(name="calculate-preferences", budget=4),
    tags=("honest", "mixture"),
))

register(ScenarioSpec(
    name="random-floor",
    description=(
        "Fully independent preferences scored by global majority — the "
        "no-exploitable-correlation sanity floor."
    ),
    population=PopulationSpec(n_players=96, n_objects=192, generator="random"),
    protocol=ProtocolSpec(name="global-majority", budget=4),
    tags=("honest", "baseline"),
))

register(ScenarioSpec(
    name="strange-coalition",
    description=(
        "Robust protocol vs a full-tolerance strange-object coalition "
        "(Lemma 13 / Theorem 14; the E6 workload as a spec)."
    ),
    population=PopulationSpec(
        n_players=128, n_objects=256, generator="planted",
        params={"n_clusters": 4, "diameter": 32},
    ),
    protocol=ProtocolSpec(name="robust", budget=4, robust_iterations=2),
    coalitions=(CoalitionSpec(strategy="strange", fraction_of_tolerance=1.0),),
    tags=("adversarial",),
))

register(ScenarioSpec(
    name="hijack-coalition",
    description=(
        "Robust protocol vs a full-tolerance cluster-hijacking coalition "
        "(the §7.2 infiltration attack)."
    ),
    population=PopulationSpec(
        n_players=128, n_objects=256, generator="planted",
        params={"n_clusters": 4, "diameter": 32},
    ),
    protocol=ProtocolSpec(name="robust", budget=4, robust_iterations=2),
    coalitions=(CoalitionSpec(strategy="hijack", fraction_of_tolerance=1.0),),
    tags=("adversarial",),
))


# ---------------------------------------------------------------------------
# Catalog — novel workloads (not expressible by the seed drivers)
# ---------------------------------------------------------------------------
register(ScenarioSpec(
    name="mixed-coalitions",
    description=(
        "Three disjoint coalitions attack simultaneously with different "
        "strategies (strange + hijack + random) against different victim "
        "clusters — the seed drivers only ever wire a single strategy."
    ),
    population=PopulationSpec(
        n_players=144, n_objects=256, generator="planted",
        params={"n_clusters": 4, "diameter": 32},
    ),
    protocol=ProtocolSpec(name="robust", budget=4, robust_iterations=2),
    coalitions=(
        CoalitionSpec(strategy="strange", fraction_of_tolerance=0.5, victim_cluster=0),
        CoalitionSpec(strategy="hijack", fraction_of_tolerance=0.5, victim_cluster=1),
        CoalitionSpec(strategy="random", fraction_of_tolerance=0.5, victim_cluster=2),
    ),
    novel=True,
    tags=("adversarial", "mixed"),
))

register(ScenarioSpec(
    name="adaptive-switch",
    description=(
        "A sleeper coalition reports honestly through sampling and "
        "clustering, then switches to the strange-object attack in work "
        "sharing — an adaptive strategy no fixed-strategy driver can express."
    ),
    population=PopulationSpec(
        n_players=128, n_objects=256, generator="planted",
        params={"n_clusters": 4, "diameter": 32},
    ),
    protocol=ProtocolSpec(name="robust", budget=4, robust_iterations=2),
    coalitions=(
        CoalitionSpec(strategy="adaptive", fraction_of_tolerance=1.0),
    ),
    novel=True,
    tags=("adversarial", "adaptive"),
))

register(ScenarioSpec(
    name="churn-small-radius",
    description=(
        "Players arrive and depart between SmallRadius repetitions — the "
        "population the last repetition scores is not the one the first saw."
    ),
    population=PopulationSpec(
        n_players=112, n_objects=128, generator="planted",
        params={"n_clusters": 4, "diameter": 8},
    ),
    protocol=ProtocolSpec(name="small-radius", budget=4, diameter=8.0),
    dynamics=DynamicsSpec(
        repetitions=3, arrivals=8, departures=8, initially_active=96
    ),
    novel=True,
    tags=("dynamics", "churn"),
))

register(ScenarioSpec(
    name="noisy-oracle",
    description=(
        "The probe channel itself lies: each oracle answer is flipped with "
        "probability 2% (consistently across repeats).  Measures the honest "
        "pipeline's robustness to measurement noise."
    ),
    population=PopulationSpec(
        n_players=128, n_objects=256, generator="planted",
        params={"n_clusters": 4, "diameter": 32},
    ),
    protocol=ProtocolSpec(name="calculate-preferences", budget=4),
    dynamics=DynamicsSpec(noise_rate=0.02),
    novel=True,
    tags=("dynamics", "noise"),
))

register(ScenarioSpec(
    name="adversarial-majority",
    description=(
        "β→1/2 stress: an inverting coalition of 45% of all players — far "
        "beyond the n/(3B) tolerance — against the robust wrapper, probing "
        "how gracefully the guarantees collapse near the honest-majority "
        "boundary."
    ),
    population=PopulationSpec(
        n_players=96, n_objects=192, generator="planted",
        params={"n_clusters": 4, "diameter": 24},
    ),
    protocol=ProtocolSpec(name="robust", budget=4, robust_iterations=2),
    coalitions=(CoalitionSpec(strategy="invert", fraction_of_players=0.45),),
    novel=True,
    tags=("adversarial", "stress"),
))

register(ScenarioSpec(
    name="rationed-budgets",
    description=(
        "Hard per-player probe caps, rationed unevenly across the planted "
        "clusters (factors 1.5/1.25/1.0/0.75 on a base cap of 64): the "
        "oracle *enforces* the caps instead of merely reporting usage, so "
        "the run proves ZeroRadius completes inside heterogeneous hard "
        "budgets — the ROADMAP's hard-budget-heterogeneity follow-up."
    ),
    population=PopulationSpec(
        n_players=96, n_objects=96, generator="zero-radius",
        params={"n_clusters": 4},
    ),
    protocol=ProtocolSpec(
        name="zero-radius", budget=4,
        probe_limit=64, probe_limit_factors=(1.5, 1.25, 1.0, 0.75),
    ),
    novel=True,
    tags=("budget", "heterogeneous", "enforced"),
))

register(ScenarioSpec(
    name="noisy-churn-stress",
    description=(
        "Noise and churn together under SmallRadius: a 3% noisy probe "
        "channel while a sixth of the population rotates between "
        "repetitions."
    ),
    population=PopulationSpec(
        n_players=112, n_objects=128, generator="planted",
        params={"n_clusters": 4, "diameter": 8},
    ),
    protocol=ProtocolSpec(name="small-radius", budget=4, diameter=8.0),
    dynamics=DynamicsSpec(
        repetitions=3, arrivals=8, departures=8, initially_active=96,
        noise_rate=0.03,
    ),
    novel=True,
    tags=("dynamics", "churn", "noise"),
))

register(ScenarioSpec(
    name="crashy-workers",
    description=(
        "The honest-planted workload swept under deterministic worker "
        "chaos: one planned worker crash plus a slow-worker stall per "
        "sweep, absorbed by the resilient trial engine (retries + pool "
        "restart).  Results must be bit-identical to an undisturbed "
        "serial sweep — that is the property the chaos CLI verb gates on."
    ),
    population=PopulationSpec(
        n_players=96, n_objects=128, generator="planted",
        params={"n_clusters": 4, "diameter": 16},
    ),
    protocol=ProtocolSpec(name="calculate-preferences", budget=4),
    faults=FaultsSpec(
        worker_crashes=1, stalls=1, stall_s=0.25,
        retries=2, timeout_s=60.0,
    ),
    novel=True,
    tags=("faults", "chaos", "crash"),
))

register(ScenarioSpec(
    name="flaky-oracle",
    description=(
        "The honest-planted workload under a flaky probe transport: two "
        "planned transient OracleTimeouts (pre-state, so retried trials "
        "replay cleanly) and a duplicated board post (idempotent by the "
        "board's last-wins semantics).  Exercises the in-trial fault "
        "channels end to end; results remain bit-identical to a clean "
        "serial sweep."
    ),
    population=PopulationSpec(
        n_players=96, n_objects=128, generator="planted",
        params={"n_clusters": 4, "diameter": 16},
    ),
    protocol=ProtocolSpec(name="calculate-preferences", budget=4),
    faults=FaultsSpec(
        oracle_timeouts=2, board_duplicates=1,
        retries=2,
    ),
    novel=True,
    tags=("faults", "chaos", "oracle"),
))
