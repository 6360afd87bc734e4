"""repro — reproduction of *Collaborative Scoring with Dishonest Participants*.

The package implements the paper's CalculatePreferences protocol and its
Byzantine-robust wrapper on top of a probe-counting simulation substrate,
together with the prior-work baselines it is compared against and the
experiment drivers that regenerate the paper's claims.

Quickstart
----------
>>> from repro import (
...     planted_clusters_instance, make_context, calculate_preferences,
...     optimal_diameters, protocol_report,
... )
>>> instance = planted_clusters_instance(
...     n_players=64, n_objects=64, n_clusters=8, diameter=6, seed=0)
>>> ctx = make_context(instance, budget=8, seed=0)
>>> result = calculate_preferences(ctx)
"""

from repro.core.calculate_preferences import (
    CalculatePreferencesResult,
    calculate_preferences,
    calculate_preferences_for_diameter,
    default_diameter_schedule,
    efficient_diameter_schedule,
)
from repro.core.clustering import Clustering, build_neighbor_graph, cluster_players
from repro.core.robust import RobustResult, robust_calculate_preferences
from repro.core.sampling import sample_disagreements, select_sample_set
from repro.core.work_sharing import share_work
from repro.leader.feige import ElectionResult, feige_leader_election
from repro.players.adversaries import CoalitionPlan, build_coalition
from repro.players.base import PlayerPool, ReportingStrategy
from repro.preferences.generators import (
    PlantedInstance,
    claim2_lower_bound_instance,
    heterogeneous_cluster_instance,
    mixture_model_instance,
    planted_clusters_instance,
    random_instance,
    zero_radius_instance,
)
from repro.preferences.metrics import (
    distance_matrix,
    hamming_distance,
    optimal_diameters,
    set_diameter,
)
from repro.protocols.context import ProtocolContext, make_context
from repro.protocols.rselect import rselect, rselect_collective
from repro.scenarios import (
    CoalitionSpec,
    DynamicsSpec,
    PopulationSpec,
    ProtocolSpec,
    ScenarioRun,
    ScenarioSpec,
    get_scenario,
    run_scenario,
    scenario_names,
    sweep_scenario,
)
from repro.protocols.select import select_collective, select_per_player
from repro.protocols.small_radius import small_radius
from repro.protocols.zero_radius import zero_radius
from repro.simulation.config import ProtocolConstants
from repro.simulation.metrics import ProtocolReport, protocol_report
from repro.simulation.oracle import ProbeOracle
from repro.simulation.randomness import AdversarialRandomness, SharedRandomness

__version__ = "0.1.0"

__all__ = [
    "AdversarialRandomness",
    "CalculatePreferencesResult",
    "Clustering",
    "CoalitionPlan",
    "CoalitionSpec",
    "DynamicsSpec",
    "ElectionResult",
    "PlantedInstance",
    "PlayerPool",
    "PopulationSpec",
    "ProbeOracle",
    "ProtocolConstants",
    "ProtocolContext",
    "ProtocolReport",
    "ProtocolSpec",
    "ReportingStrategy",
    "RobustResult",
    "ScenarioRun",
    "ScenarioSpec",
    "SharedRandomness",
    "build_coalition",
    "build_neighbor_graph",
    "calculate_preferences",
    "calculate_preferences_for_diameter",
    "claim2_lower_bound_instance",
    "cluster_players",
    "default_diameter_schedule",
    "distance_matrix",
    "efficient_diameter_schedule",
    "feige_leader_election",
    "get_scenario",
    "hamming_distance",
    "heterogeneous_cluster_instance",
    "make_context",
    "mixture_model_instance",
    "optimal_diameters",
    "planted_clusters_instance",
    "protocol_report",
    "random_instance",
    "robust_calculate_preferences",
    "rselect",
    "rselect_collective",
    "run_scenario",
    "sample_disagreements",
    "scenario_names",
    "select_collective",
    "select_per_player",
    "select_sample_set",
    "set_diameter",
    "share_work",
    "small_radius",
    "sweep_scenario",
    "zero_radius",
    "zero_radius_instance",
]
