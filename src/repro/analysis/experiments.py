"""Experiment drivers E1–E12 (one ``benchmarks/bench_eNN_*.py`` module each).

Each function builds the workload a paper claim quantifies over, runs the
relevant protocol(s) against the probe-counting simulator, and returns an
:class:`~repro.analysis.reporting.ExperimentTable`.  Benchmarks call these
drivers (one per table/figure analogue) and print the rendered table;
``benchmarks/results/eNN_*.md`` holds the committed outputs.

All drivers are deterministic given their ``seed`` and accept size parameters
so the same code scales from quick unit-test settings to the benchmark
settings.  Every driver with independent points accepts ``n_workers`` and
fans them through :func:`repro.analysis.runner.run_trials` (identical output
for any worker count).

E5, E6 and E11 build their workloads through the declarative scenario engine
(:mod:`repro.scenarios`): each point is a :class:`~repro.scenarios.ScenarioSpec`
executed by :func:`~repro.scenarios.engine.run_scenario`, so the same workload
definitions are reachable from the drivers, the sweep engine and the
``python -m repro`` CLI.
"""

from __future__ import annotations

import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro._typing import SeedLike, as_generator, spawn_generators
from repro.analysis.bounds import (
    calculate_preferences_probe_bound,
    rselect_probe_bound,
    small_radius_error_bound,
    small_radius_probe_bound,
    zero_radius_probe_bound,
)
from repro.analysis.reporting import ExperimentTable
from repro.analysis.runner import run_trials, spawn_seeds
from repro.baselines.alon import alon_awerbuch_azar_patt_shamir
from repro.core.calculate_preferences import (
    calculate_preferences,
    efficient_diameter_schedule,
)
from repro.core.sampling import sample_disagreements, select_sample_set
from repro.errors import ExperimentError
from repro.leader.feige import feige_leader_election
from repro.preferences.generators import planted_clusters_instance, zero_radius_instance
from repro.preferences.metrics import optimal_diameters, prediction_errors
from repro.protocols.context import make_context
from repro.protocols.rselect import rselect
from repro.protocols.small_radius import small_radius
from repro.protocols.zero_radius import zero_radius
from repro.scenarios.engine import execute, run_scenario
from repro.scenarios.spec import (
    CoalitionSpec,
    PopulationSpec,
    ProtocolSpec,
    ScenarioSpec,
)
from repro.simulation.config import ProtocolConstants

__all__ = [
    "rselect_experiment",
    "zero_radius_experiment",
    "small_radius_experiment",
    "sampling_concentration_experiment",
    "honest_protocol_experiment",
    "dishonest_sweep_experiment",
    "baseline_comparison_experiment",
    "leader_election_experiment",
    "scaling_experiment",
    "heterogeneous_budget_experiment",
    "ablation_experiment",
]


# ---------------------------------------------------------------------------
# E1 — RSelect (Theorem 3)
# ---------------------------------------------------------------------------
def _rselect_point(
    k: int,
    trial: int,
    truth: np.ndarray,
    candidates: np.ndarray,
    constants: ProtocolConstants,
) -> dict:
    """One E1 (k, trial) execution (module-level so the trial engine can
    pickle it).

    The driver generates the candidate sets serially (cheap, and bit-exactly
    as the pre-engine serial loop did); only the RSelect execution — the
    expensive part — fans out, with the context reseeded from ``trial`` as
    before, so rows are identical for any worker count.
    """
    from repro.preferences.generators import PlantedInstance

    instance = PlantedInstance(
        preferences=truth,
        cluster_of=np.zeros(1, dtype=np.int64),
        planted_diameters=np.zeros(1, dtype=np.int64),
        metadata={"generator": "rselect-experiment"},
    )
    vector = truth[0]
    ctx = make_context(instance, budget=8, constants=constants, seed=trial)
    _, chosen = rselect(ctx, 0, np.arange(vector.size), candidates)
    return dict(
        k=k,
        chosen_distance=float((chosen != vector).sum()),
        probe_requests=float(ctx.oracle.requests_used()[0]),
    )


def rselect_experiment(
    n_objects: int = 256,
    candidate_counts: tuple[int, ...] = (2, 4, 8, 16),
    best_distance: int = 4,
    decoy_distance: int = 64,
    trials: int = 5,
    constants: ProtocolConstants | None = None,
    seed: SeedLike = 0,
    n_workers: int = 1,
) -> ExperimentTable:
    """E1: RSelect picks a near-best candidate with ``O(k² log n)`` probes.

    One player faces ``k`` candidates: one at Hamming distance
    ``best_distance`` from its true vector and ``k−1`` decoys at
    ``decoy_distance``.  We report the distance of the chosen candidate and
    the probe requests spent, next to the Theorem-3 bound.  ``n_workers > 1``
    fans the (k, trial) pairs across the trial engine (identical output for
    any worker count).
    """
    constants = constants or ProtocolConstants.practical()
    table = ExperimentTable(
        experiment_id="E1",
        title="RSelect: chosen-candidate distance and probe cost vs k (Theorem 3)",
        columns=[
            "k",
            "best_distance",
            "mean_chosen_distance",
            "max_chosen_distance",
            "mean_probe_requests",
            "theorem3_probe_bound",
        ],
        notes=[
            "Theorem 3: output within O(best distance) using O(k^2 log n) probes.",
            f"{trials} trials per k; n_objects={n_objects}.",
        ],
    )
    rngs = spawn_generators(seed, trials)
    points = []
    for k in candidate_counts:
        if k < 2:
            raise ExperimentError("candidate_counts entries must be >= 2")
        for trial, rng in enumerate(rngs):
            truth = rng.integers(0, 2, size=(1, n_objects), dtype=np.uint8)
            vector = truth[0]
            candidates = np.empty((k, n_objects), dtype=np.uint8)
            best = vector.copy()
            best[rng.choice(n_objects, size=best_distance, replace=False)] ^= 1
            candidates[0] = best
            for j in range(1, k):
                decoy = vector.copy()
                decoy[rng.choice(n_objects, size=decoy_distance, replace=False)] ^= 1
                candidates[j] = decoy
            order = rng.permutation(k)
            candidates = candidates[order]
            points.append((k, trial, truth, candidates, constants))
    results = run_trials(_rselect_point, points, n_workers=n_workers)
    for k in candidate_counts:
        rows = [row for row in results if row["k"] == k]
        chosen_distances = [row["chosen_distance"] for row in rows]
        probe_requests = [row["probe_requests"] for row in rows]
        table.add_row(
            k=k,
            best_distance=best_distance,
            mean_chosen_distance=float(np.mean(chosen_distances)),
            max_chosen_distance=float(np.max(chosen_distances)),
            mean_probe_requests=float(np.mean(probe_requests)),
            theorem3_probe_bound=rselect_probe_bound(n_objects, k, constants),
        )
    return table


# ---------------------------------------------------------------------------
# E2 — ZeroRadius (Theorem 4)
# ---------------------------------------------------------------------------
def zero_radius_experiment(
    n_players: int = 256,
    n_objects: int = 256,
    budgets: tuple[int, ...] = (4, 8, 16),
    constants: ProtocolConstants | None = None,
    seed: SeedLike = 0,
) -> ExperimentTable:
    """E2: ZeroRadius recovers identical-preference clusters exactly.

    For each budget ``B'`` we plant ``B'`` identical-preference clusters of
    size ``n/B'`` and report the worst honest error (Theorem 4 predicts 0)
    and the probe requests next to the ``O(B' log n)`` bound.
    """
    constants = constants or ProtocolConstants.practical()
    table = ExperimentTable(
        experiment_id="E2",
        title="ZeroRadius: error and probes on identical-preference clusters (Theorem 4)",
        columns=[
            "budget_Bprime",
            "cluster_size",
            "max_error",
            "mean_error",
            "max_probe_requests",
            "theorem4_probe_bound",
        ],
        notes=["Theorem 4: exact recovery with O(B' log n) probes."],
    )
    for index, budget in enumerate(budgets):
        instance = zero_radius_instance(
            n_players, n_objects, n_clusters=budget, seed=(seed, index)
        )
        ctx = make_context(instance, budget=budget, constants=constants, seed=index)
        estimates = zero_radius(
            ctx, ctx.all_players(), ctx.all_objects(), budget_prime=budget
        )
        errors = prediction_errors(estimates, instance.preferences)
        table.add_row(
            budget_Bprime=budget,
            cluster_size=int(math.ceil(n_players / budget)),
            max_error=int(errors.max()),
            mean_error=float(errors.mean()),
            max_probe_requests=int(ctx.oracle.max_requests()),
            theorem4_probe_bound=zero_radius_probe_bound(n_players, budget, constants),
        )
    return table


# ---------------------------------------------------------------------------
# E3 — SmallRadius (Theorem 5)
# ---------------------------------------------------------------------------
def small_radius_experiment(
    n_players: int = 256,
    n_objects: int = 256,
    budget: int = 8,
    diameters: tuple[int, ...] = (2, 4, 8, 16),
    constants: ProtocolConstants | None = None,
    seed: SeedLike = 0,
) -> ExperimentTable:
    """E3: SmallRadius error stays within ``5D`` for small-diameter clusters."""
    constants = constants or ProtocolConstants.practical()
    table = ExperimentTable(
        experiment_id="E3",
        title="SmallRadius: error vs promised diameter D (Theorem 5)",
        columns=[
            "diameter_D",
            "max_error",
            "mean_error",
            "error_bound_5D",
            "max_probe_requests",
            "theorem5_leading_term",
        ],
        notes=[
            "Theorem 5: error <= 5D with O(B D^1.5 (D + log n)) probes.",
            "theorem5_leading_term = B * D^1.5 * (D + log n) with constant 1: the "
            "order of Theorem 5's probe bound, not the bound, so max_probe_requests "
            "above it (the D=2 row) breaks no bound.",
        ],
    )
    for index, diameter in enumerate(diameters):
        instance = planted_clusters_instance(
            n_players,
            n_objects,
            n_clusters=budget,
            diameter=diameter,
            seed=(seed, index),
        )
        ctx = make_context(instance, budget=budget, constants=constants, seed=index)
        estimates = small_radius(
            ctx, ctx.all_players(), ctx.all_objects(), diameter=diameter, budget=budget
        )
        errors = prediction_errors(estimates, instance.preferences)
        table.add_row(
            diameter_D=diameter,
            max_error=int(errors.max()),
            mean_error=float(errors.mean()),
            error_bound_5D=small_radius_error_bound(diameter),
            max_probe_requests=int(ctx.oracle.max_requests()),
            theorem5_leading_term=small_radius_probe_bound(
                n_players, budget, diameter, constants
            ),
        )
    return table


# ---------------------------------------------------------------------------
# E4 — Sample-set concentration (Lemma 6)
# ---------------------------------------------------------------------------
def _sampling_point(
    trial: int,
    n_players: int,
    n_objects: int,
    budget: int,
    diameter: int,
    constants: ProtocolConstants,
    seed: SeedLike,
) -> dict:
    """One E4 trial (module-level so the trial engine can pickle it).

    Seeded exactly as the serial loop seeded it — instance from
    ``(seed, trial)``, context from ``trial`` — so rows are identical for
    any worker count.
    """
    instance = planted_clusters_instance(
        n_players,
        n_objects,
        n_clusters=budget,
        diameter=diameter,
        seed=(seed, trial),
    )
    ctx = make_context(instance, budget=budget, constants=constants, seed=trial)
    sample = select_sample_set(ctx, diameter)
    disagreements = sample_disagreements(instance.preferences, sample)
    same_cluster = instance.cluster_of[:, None] == instance.cluster_of[None, :]
    np.fill_diagonal(same_cluster, False)
    different_cluster = ~same_cluster
    np.fill_diagonal(different_cluster, False)
    return dict(
        trial=trial,
        sample_size=int(sample.size),
        max_disagreement_close_pairs=int(disagreements[same_cluster].max()),
        close_pair_bound=float(constants.sample_agreement_bound(n_players)),
        min_disagreement_far_pairs=int(disagreements[different_cluster].min()),
        edge_threshold=float(constants.edge_threshold(n_players)),
    )


def sampling_concentration_experiment(
    n_players: int = 256,
    n_objects: int = 512,
    budget: int = 8,
    diameter: int = 64,
    trials: int = 5,
    constants: ProtocolConstants | None = None,
    seed: SeedLike = 0,
    n_workers: int = 1,
) -> ExperimentTable:
    """E4: close pairs stay close and far pairs stay far on the sample.

    Lemma 6: pairs at distance < D differ on at most ``2c·ln n`` sampled
    objects; pairs at distance ≥ separation·D differ on proportionally more.
    We report the observed maxima/minima over planted instances.
    ``n_workers > 1`` fans the trials across the trial engine (identical
    output for any worker count).
    """
    constants = constants or ProtocolConstants.practical()
    table = ExperimentTable(
        experiment_id="E4",
        title="Sample-set similarity preservation (Lemma 6)",
        columns=[
            "trial",
            "sample_size",
            "max_disagreement_close_pairs",
            "close_pair_bound",
            "min_disagreement_far_pairs",
            "edge_threshold",
        ],
        notes=[
            "Close pairs: same planted cluster (true distance <= D). Far pairs: "
            "different clusters (true distance >= separation * D for the planted "
            "instances used).",
        ],
    )
    points = [
        (trial, n_players, n_objects, budget, diameter, constants, seed)
        for trial in range(trials)
    ]
    for row in run_trials(_sampling_point, points, n_workers=n_workers):
        table.add_row(**row)
    return table


# ---------------------------------------------------------------------------
# E5 — Honest protocol vs baselines (Lemmas 9–12)
# ---------------------------------------------------------------------------
def _planted_scenario(
    name: str,
    protocol: str,
    n_players: int,
    n_objects: int,
    budget: int,
    diameter: int,
    constants: ProtocolConstants,
    coalitions: tuple[CoalitionSpec, ...] = (),
    robust_iterations: int | None = None,
) -> ScenarioSpec:
    """The planted-cluster workload of E5/E6 as a scenario spec.

    ``constants`` is folded into the spec as a full override set, so any
    constants object a driver receives round-trips through the declarative
    layer exactly.
    """
    return ScenarioSpec(
        name=name,
        description=f"driver-built planted workload ({name})",
        population=PopulationSpec(
            n_players=n_players,
            n_objects=n_objects,
            generator="planted",
            params={"n_clusters": budget, "diameter": diameter},
        ),
        protocol=ProtocolSpec(
            name=protocol,
            budget=budget,
            constants_overrides=asdict(constants),
            robust_iterations=robust_iterations,
        ),
        coalitions=coalitions,
    )


#: E5 display name -> scenario-engine protocol name; the single source of
#: truth for which algorithms E5 compares.
_E5_ALGORITHMS: dict[str, str] = {
    "calculate-preferences": "calculate-preferences",
    "oracle-clustering (skyline)": "oracle-clustering",
    "solo-probing": "solo-probing",
    "global-majority": "global-majority",
    "random-guessing": "random-guessing",
}


def _honest_protocol_point(
    name: str,
    n_players: int,
    n_objects: int,
    budget: int,
    diameter: int,
    constants: ProtocolConstants,
    seed: SeedLike,
) -> dict:
    """One E5 algorithm run (module-level so the trial engine can pickle it).

    Builds the workload through the scenario engine: the spec differs only in
    its protocol field across algorithms, and the engine derives the instance
    stream independently of the protocol, so every algorithm — on any worker
    — scores the same hidden preferences.
    """
    spec = _planted_scenario(
        f"e5-{_E5_ALGORITHMS[name]}",
        _E5_ALGORITHMS[name],
        n_players,
        n_objects,
        budget,
        diameter,
        constants,
    )
    row = run_scenario(spec, seed)
    bound = calculate_preferences_probe_bound(n_players, budget, constants)
    return dict(
        algorithm=name,
        max_error=row["max_error"],
        mean_error=row["honest_mean_error"],
        planted_D=float(diameter),
        max_probes=row["max_probes"],
        max_probe_requests=row["max_probe_requests"],
        lemma11_probe_bound=bound if name == "calculate-preferences" else None,
    )


def honest_protocol_experiment(
    n_players: int = 256,
    n_objects: int = 256,
    budget: int = 4,
    diameter: int = 48,
    constants: ProtocolConstants | None = None,
    seed: SeedLike = 0,
    n_workers: int = 1,
) -> ExperimentTable:
    """E5: the honest protocol's error is O(D) while probing a polylog·B share.

    Compares CalculatePreferences against solo probing, global majority,
    random guessing, the oracle-clustering skyline and probe-everything on a
    planted-cluster instance.  ``n_workers > 1`` fans the algorithms across
    the trial engine (identical output for any worker count).
    """
    constants = constants or ProtocolConstants.practical()

    table = ExperimentTable(
        experiment_id="E5",
        title="Honest protocol vs baselines (Lemmas 9-12)",
        columns=[
            "algorithm",
            "max_error",
            "mean_error",
            "planted_D",
            "max_probes",
            "max_probe_requests",
            "lemma11_probe_bound",
        ],
        notes=[
            f"n={n_players}, objects={n_objects}, B={budget}, planted diameter D={diameter}.",
            "The oracle-clustering skyline uses the hidden distance matrix and is "
            "unachievable by any real protocol (Definition 1 benchmark).",
        ],
    )
    points = [
        (name, n_players, n_objects, budget, diameter, constants, seed)
        for name in _E5_ALGORITHMS
    ]
    for row in run_trials(_honest_protocol_point, points, n_workers=n_workers):
        table.add_row(**row)
    return table


# ---------------------------------------------------------------------------
# E6 — Dishonest players (Lemma 13, Theorem 14)
# ---------------------------------------------------------------------------
def _dishonest_sweep_point(
    fraction: float,
    index: int,
    n_players: int,
    n_objects: int,
    budget: int,
    diameter: int,
    strategy: str,
    robust_iterations: int,
    constants: ProtocolConstants,
    seed: SeedLike,
) -> dict:
    """One E6 coalition size (module-level so the trial engine can pickle it).

    Both runs go through the scenario engine with the same ``(seed, index)``
    root: the engine derives the instance and coalition streams independently
    of the protocol field, so the robust protocol and the non-robust Alon
    baseline face the *identical* instance and coalition — and the row is
    identical for any worker count.
    """
    coalitions = (
        CoalitionSpec(
            strategy=strategy, fraction_of_tolerance=float(fraction), victim_cluster=0
        ),
    )
    robust_spec = _planted_scenario(
        f"e6-robust-{strategy}",
        "robust",
        n_players,
        n_objects,
        budget,
        diameter,
        constants,
        coalitions=coalitions,
        robust_iterations=robust_iterations,
    )
    point_seed = (seed, index)
    robust_row = run_scenario(robust_spec, point_seed)

    baseline_spec = _planted_scenario(
        f"e6-alon-{strategy}",
        "alon",
        n_players,
        n_objects,
        budget,
        diameter,
        constants,
        coalitions=coalitions,
    )
    baseline_row = run_scenario(baseline_spec, point_seed)

    return dict(
        coalition_size=robust_row["n_dishonest"],
        fraction_of_tolerance=float(fraction),
        strategy=strategy,
        robust_max_error=robust_row["honest_max_error"],
        robust_mean_error=robust_row["honest_mean_error"],
        nonrobust_baseline_max_error=baseline_row["honest_max_error"],
        honest_leader_iterations=robust_row["honest_leader_iterations"],
        planted_D=float(diameter),
    )


def dishonest_sweep_experiment(
    n_players: int = 256,
    n_objects: int = 256,
    budget: int = 4,
    diameter: int = 48,
    fractions: tuple[float, ...] = (0.0, 0.25, 0.5, 1.0),
    strategy: str = "strange",
    robust_iterations: int = 3,
    constants: ProtocolConstants | None = None,
    seed: SeedLike = 0,
    n_workers: int = 1,
) -> ExperimentTable:
    """E6: error of honest players as the dishonest coalition grows.

    ``fractions`` are fractions of the paper's tolerance ``n/(3B)``; for each
    we run the robust protocol and the non-robust Alon et al. baseline under
    the same coalition and report the worst honest-player error.
    ``n_workers > 1`` fans the coalition sizes across the trial engine
    (identical output for any worker count).
    """
    constants = constants or ProtocolConstants.practical()
    tolerance = constants.max_dishonest(n_players, budget)

    table = ExperimentTable(
        experiment_id="E6",
        title="Error of honest players vs dishonest-coalition size (Lemma 13 / Theorem 14)",
        columns=[
            "coalition_size",
            "fraction_of_tolerance",
            "strategy",
            "robust_max_error",
            "robust_mean_error",
            "nonrobust_baseline_max_error",
            "honest_leader_iterations",
            "planted_D",
        ],
        notes=[
            f"Tolerance n/(3B) = {tolerance} dishonest players at n={n_players}, B={budget}.",
            "robust = CalculatePreferences wrapped in leader election and RSelect (§7); "
            "nonrobust baseline = Alon et al. [2,3] under the same coalition.",
            f"Coalition strategy: {strategy} (see repro.players.adversaries).",
        ],
    )
    points = [
        (
            fraction,
            index,
            n_players,
            n_objects,
            budget,
            diameter,
            strategy,
            robust_iterations,
            constants,
            seed,
        )
        for index, fraction in enumerate(fractions)
    ]
    for row in run_trials(_dishonest_sweep_point, points, n_workers=n_workers):
        table.add_row(**row)
    return table


# ---------------------------------------------------------------------------
# E8 — Comparison against the Alon et al. baseline
# ---------------------------------------------------------------------------
def baseline_comparison_experiment(
    n_players: int = 256,
    n_objects: int = 256,
    budget: int = 4,
    diameter: int = 48,
    constants: ProtocolConstants | None = None,
    seed: SeedLike = 0,
) -> ExperimentTable:
    """E8: probes and error, CalculatePreferences vs Alon et al. [2,3].

    The paper's claim: the new protocol needs ``O(B polylog n)`` probes and a
    constant-factor approximation, versus ``O(B² polylog n)`` probes and a
    ``B``-approximation for the prior state of the art.
    """
    constants = constants or ProtocolConstants.practical()
    instance = planted_clusters_instance(
        n_players, n_objects, n_clusters=budget, diameter=diameter, seed=seed
    )
    schedule = efficient_diameter_schedule(n_players, n_objects, constants)

    table = ExperimentTable(
        experiment_id="E8",
        title="CalculatePreferences vs Alon et al. [2,3]: probes and error",
        columns=[
            "algorithm",
            "max_error",
            "mean_error",
            "max_probes",
            "max_probe_requests",
            "mean_probe_requests",
            "planted_D",
        ],
        notes=[
            f"n={n_players}, objects={n_objects}, B={budget}, planted D={diameter}; "
            "identical diameter schedules for both algorithms.",
            "Paper claim: B polylog n probes / constant-factor error (ours) vs "
            "B^2 polylog n probes / B-approximation ([2,3]).",
        ],
    )
    runs = {
        "calculate-preferences": lambda ctx: calculate_preferences(
            ctx, diameters=schedule
        ).predictions,
        "alon-awerbuch-azar-patt-shamir": lambda ctx: alon_awerbuch_azar_patt_shamir(
            ctx, diameters=schedule
        ).predictions,
    }
    for name, run in runs.items():
        ctx = make_context(instance, budget=budget, constants=constants, seed=seed)
        predictions = run(ctx)
        errors = prediction_errors(predictions, instance.preferences)
        requests = ctx.oracle.requests_used()
        table.add_row(
            algorithm=name,
            max_error=int(errors.max()),
            mean_error=float(errors.mean()),
            max_probes=int(ctx.oracle.max_probes()),
            max_probe_requests=int(requests.max()),
            mean_probe_requests=float(requests.mean()),
            planted_D=float(diameter),
        )
    return table


# ---------------------------------------------------------------------------
# E9 — Leader election (§7.1)
# ---------------------------------------------------------------------------
def _leader_election_point(
    fraction: float, point_seed: int, n_players: int, trials: int
) -> dict:
    """One E9 dishonest fraction (module-level so the trial engine can
    pickle it).  ``point_seed`` comes from the driver's per-fraction seed
    stream, so the row is identical for any worker count."""
    rng = as_generator(point_seed)
    n_dishonest = int(round(fraction * n_players))
    honest_wins = 0
    rounds = []
    for _ in range(trials):
        dishonest = rng.choice(n_players, size=n_dishonest, replace=False)
        result = feige_leader_election(
            n_players, dishonest=dishonest, seed=int(rng.integers(0, 2**63 - 1))
        )
        honest_wins += int(result.leader_is_honest)
        rounds.append(result.rounds)
    return dict(
        dishonest_fraction=float(fraction),
        dishonest_players=n_dishonest,
        p_honest_leader=honest_wins / trials,
        honest_fraction_baseline=1.0 - fraction,
        mean_rounds=float(np.mean(rounds)) if rounds else 0.0,
    )


def leader_election_experiment(
    n_players: int = 256,
    fractions: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.45),
    trials: int = 200,
    seed: SeedLike = 0,
    n_workers: int = 1,
) -> ExperimentTable:
    """E9: empirical probability of electing an honest leader.

    Feige's protocol guarantees an honest leader with probability
    ``Ω(δ^1.65)`` when a ``(1+δ)/2`` fraction is honest; the rushing-greedy
    coalition implemented here is the strongest attack the full-information
    model admits.  ``n_workers > 1`` fans the fractions across the trial
    engine (identical output for any worker count).
    """
    table = ExperimentTable(
        experiment_id="E9",
        title="Feige lightest-bin election: P[honest leader] vs dishonest fraction",
        columns=[
            "dishonest_fraction",
            "dishonest_players",
            "p_honest_leader",
            "honest_fraction_baseline",
            "mean_rounds",
        ],
        notes=[
            f"{trials} elections per point, n={n_players}; coalition uses a rushing "
            "greedy bin-stuffing strategy.",
            "honest_fraction_baseline = probability of an honest leader if one were "
            "picked uniformly at random (what the election must not fall below).",
        ],
    )
    point_seeds = spawn_seeds(seed, len(fractions))
    points = [
        (fraction, point_seeds[index], n_players, trials)
        for index, fraction in enumerate(fractions)
    ]
    for row in run_trials(_leader_election_point, points, n_workers=n_workers):
        table.add_row(**row)
    return table


# ---------------------------------------------------------------------------
# E10 — Probe-complexity scaling (Lemma 11)
# ---------------------------------------------------------------------------
def _scaling_point(
    n: int,
    index: int,
    budget: int,
    objects_per_player: int,
    constants: ProtocolConstants,
    seed: SeedLike,
) -> dict:
    """One E10 instance size (module-level so the trial engine can pickle it)."""
    n_objects = objects_per_player * n
    diameter = max(4, n // 4)
    instance = planted_clusters_instance(
        n, n_objects, n_clusters=budget, diameter=diameter, seed=(seed, index)
    )
    ctx = make_context(instance, budget=budget, constants=constants, seed=index)
    schedule = efficient_diameter_schedule(n, n_objects, constants)
    result = calculate_preferences(ctx, diameters=schedule)
    errors = prediction_errors(result.predictions, instance.preferences)
    return dict(
        n=n,
        n_objects=n_objects,
        planted_D=diameter,
        max_probes=int(ctx.oracle.max_probes()),
        max_probe_requests=int(ctx.oracle.max_requests()),
        probe_everything_cost=n_objects,
        lemma11_bound_Bpolylog=calculate_preferences_probe_bound(n, budget, constants),
        max_error=int(errors.max()),
    )


def scaling_experiment(
    sizes: tuple[int, ...] = (256, 512, 1024),
    budget: int = 8,
    objects_per_player: int = 2,
    constants: ProtocolConstants | None = None,
    seed: SeedLike = 0,
    n_workers: int = 1,
    journal: Path | str | None = None,
) -> ExperimentTable:
    """E10: probes per player vs n at fixed B (instances scale D ∝ n).

    Instances use ``objects_per_player · n`` objects, ``B`` planted clusters
    (size ``n/B``) of diameter ``n/4`` — so the cluster structure is
    scale-invariant while the trivial probe-everything cost grows linearly.
    The protocol's measured probes should grow like ``B · polylog n``
    (flat-ish) rather than linearly.  ``n_workers > 1`` fans the sizes
    across the trial engine (identical output for any worker count);
    ``journal=`` checkpoints each size's row to a JSONL file so an
    interrupted scaling run resumes instead of restarting.
    """
    constants = constants or ProtocolConstants.practical()
    table = ExperimentTable(
        experiment_id="E10",
        title="Probe complexity scaling with n (Lemma 11)",
        columns=[
            "n",
            "n_objects",
            "planted_D",
            "max_probes",
            "max_probe_requests",
            "probe_everything_cost",
            "lemma11_bound_Bpolylog",
            "max_error",
        ],
        notes=[
            f"B={budget}; planted instances use {budget} clusters of size n/{budget} "
            "with diameter n/4 over " f"{objects_per_player}·n objects.",
        ],
    )
    points = [
        (n, index, budget, objects_per_player, constants, seed)
        for index, n in enumerate(sizes)
    ]
    for row in run_trials(_scaling_point, points, n_workers=n_workers, journal=journal):
        table.add_row(**row)
    return table


# ---------------------------------------------------------------------------
# E11 — Heterogeneous cluster structure (§8 discussion)
# ---------------------------------------------------------------------------
def heterogeneous_budget_experiment(
    n_players: int = 256,
    n_objects: int = 256,
    budget: int = 4,
    constants: ProtocolConstants | None = None,
    seed: SeedLike = 0,
) -> ExperimentTable:
    """E11: clusters of unequal sizes and diameters.

    The §8 discussion argues the techniques extend to heterogeneous
    structure; we plant clusters of different sizes/diameters and report
    per-cluster error of the honest protocol.
    """
    constants = constants or ProtocolConstants.practical()
    sizes = [n_players // 2, n_players // 4, n_players // 8, n_players // 8]
    sizes[0] += n_players - sum(sizes)
    diameters = [n_objects // 16, n_objects // 8, n_objects // 4, n_objects // 32]
    spec = ScenarioSpec(
        name="e11-heterogeneous",
        description="heterogeneous cluster sizes/diameters (E11 workload)",
        population=PopulationSpec(
            n_players=n_players,
            n_objects=n_objects,
            generator="heterogeneous",
            params={"cluster_sizes": sizes, "cluster_diameters": diameters},
        ),
        protocol=ProtocolSpec(
            name="calculate-preferences",
            budget=budget,
            constants_overrides=asdict(constants),
        ),
    )
    run = execute(spec, seed)
    instance = run.instance
    errors = prediction_errors(run.predictions, instance.preferences)
    benchmark = optimal_diameters(instance.preferences, budget)

    table = ExperimentTable(
        experiment_id="E11",
        title="Heterogeneous cluster sizes and diameters (§8 extension)",
        columns=[
            "cluster",
            "size",
            "planted_diameter",
            "max_error",
            "mean_error",
            "definition1_benchmark",
        ],
        notes=[
            f"n={n_players}, objects={n_objects}, B={budget}.",
            "definition1_benchmark = max over cluster members of the Definition-1 "
            "optimal diameter D_opt(p) (2-approximated from the true distances): "
            "members of clusters smaller than n/B must reach into other clusters, "
            "so their benchmark — and hence any algorithm's error — is large.",
        ],
    )
    for cluster_id, (size, diameter) in enumerate(zip(sizes, diameters)):
        members = instance.cluster_members(cluster_id)
        table.add_row(
            cluster=cluster_id,
            size=int(size),
            planted_diameter=int(diameter),
            max_error=int(errors[members].max()),
            mean_error=float(errors[members].mean()),
            definition1_benchmark=int(benchmark[members].max()),
        )
    return table


# ---------------------------------------------------------------------------
# E12 — Ablations over the protocol's design choices
# ---------------------------------------------------------------------------
def _ablation_point(
    name: str,
    variant_constants: ProtocolConstants,
    schedule: list[float],
    n_players: int,
    n_objects: int,
    budget: int,
    diameter: int,
    seed: SeedLike,
) -> dict:
    """One E12 constants variant (module-level so the trial engine can
    pickle it).  The instance and context are rebuilt from ``seed`` exactly
    as the serial loop built them (and every variant shares the baseline's
    diameter schedule), so rows are identical for any worker count."""
    instance = planted_clusters_instance(
        n_players, n_objects, n_clusters=budget, diameter=diameter, seed=seed
    )
    ctx = make_context(instance, budget=budget, constants=variant_constants, seed=seed)
    result = calculate_preferences(ctx, diameters=schedule)
    errors = prediction_errors(result.predictions, instance.preferences)
    return dict(
        variant=name,
        max_error=int(errors.max()),
        mean_error=float(errors.mean()),
        max_probes=int(ctx.oracle.max_probes()),
        max_probe_requests=int(ctx.oracle.max_requests()),
    )


def ablation_experiment(
    n_players: int = 256,
    n_objects: int = 256,
    budget: int = 4,
    diameter: int = 48,
    constants: ProtocolConstants | None = None,
    seed: SeedLike = 0,
    n_workers: int = 1,
) -> ExperimentTable:
    """E12: what breaks when each protocol ingredient is weakened.

    Ablations: no vote redundancy (1 prober per object), a too-permissive
    neighbour threshold (everything merges), a too-strict threshold
    (clusters shatter), and a sparse sample (cheaper but noisier clustering).
    ``n_workers > 1`` fans the variants across the trial engine (identical
    output for any worker count).
    """
    base = constants or ProtocolConstants.practical()

    variants: dict[str, ProtocolConstants] = {
        "baseline (practical constants)": base,
        "no vote redundancy": base.with_overrides(vote_redundancy_factor=0.1),
        "permissive edge threshold (x4)": base.with_overrides(
            edge_threshold_factor=base.edge_threshold_factor * 4
        ),
        "strict edge threshold (/4)": base.with_overrides(
            edge_threshold_factor=base.edge_threshold_factor / 4
        ),
        "sparse sample (/3)": base.with_overrides(
            sample_prob_factor=base.sample_prob_factor / 3
        ),
    }
    table = ExperimentTable(
        experiment_id="E12",
        title="Ablations of CalculatePreferences design choices",
        columns=[
            "variant",
            "max_error",
            "mean_error",
            "max_probes",
            "max_probe_requests",
        ],
        notes=[
            f"n={n_players}, objects={n_objects}, B={budget}, planted D={diameter}; "
            "honest players only (the clustering/vote ablations matter even without "
            "an adversary).",
        ],
    )
    schedule = efficient_diameter_schedule(n_players, n_objects, base)
    points = [
        (name, consts, schedule, n_players, n_objects, budget, diameter, seed)
        for name, consts in variants.items()
    ]
    # The sparse sample also runs once on its own schedule, for the notes.
    sparse = variants["sparse sample (/3)"]
    own_schedule = efficient_diameter_schedule(n_players, n_objects, sparse)
    points.append(("own schedule", sparse, own_schedule, *points[0][3:]))
    *rows, own = run_trials(_ablation_point, points, n_workers=n_workers)
    for row in rows:
        table.add_row(**row)
    table.add_note(
        f"Every variant runs on the baseline's diameter schedule "
        f"{list(map(int, schedule))}.  On its own schedule "
        f"{list(map(int, own_schedule))}, the sparse sample reads max error "
        f"{own['max_error']}, mean error {own['mean_error']:.1f} and "
        f"{own['max_probe_requests']} max probe requests."
    )
    return table
