"""The scenario engine: turn ``(spec, seed)`` into one executed workload.

:func:`execute` builds the instance, wires the coalitions, applies the
dynamics hooks (noisy oracle, churn timeline) and dispatches to the named
protocol; it returns the full :class:`ScenarioRun` (instance, context,
predictions) for drivers that need structural access — E11's per-cluster
breakdown, for example.  :func:`run_scenario` is the picklable thinning used
by the sweep engine and the CLI: it returns just the flat metrics row, so it
can fan out through :func:`repro.analysis.runner.run_trials` and stay
bit-identical for any worker count.

Determinism contract: every random stream is derived from ``seed`` by
position (instance, coalitions, context, noise, churn, baselines), never
from spec *content*, so two specs that differ only in the protocol field see
the same hidden matrix and the same coalition — that is what lets a driver
compare the robust protocol against a non-robust baseline under an identical
attack (E6), or a sweep hold the workload fixed while varying the algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._typing import SeedLike, spawn_seeds
from repro.baselines.alon import alon_awerbuch_azar_patt_shamir
from repro.obs import runtime as obs
from repro.baselines.naive import global_majority, random_guessing, solo_probing
from repro.baselines.oracle import oracle_clustering
from repro.core.calculate_preferences import (
    calculate_preferences,
    efficient_diameter_schedule,
)
from repro.core.robust import robust_calculate_preferences
from repro.errors import ConfigurationError
from repro.players.adversaries import CoalitionPlan, build_coalition
from repro.players.base import ReportingStrategy
from repro.preferences.generators import (
    PlantedInstance,
    heterogeneous_cluster_instance,
    mixture_model_instance,
    planted_clusters_instance,
    random_instance,
    zero_radius_instance,
)
from repro.preferences.metrics import prediction_errors
from repro.protocols.context import ProtocolContext, make_context
from repro.protocols.small_radius import small_radius
from repro.protocols.zero_radius import zero_radius
from repro.simulation.config import ProtocolConstants
from repro.simulation.rounds import ChurnTimeline
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "ScenarioRun",
    "PreparedRun",
    "RESULT_COLUMNS",
    "prepare",
    "execute",
    "run_scenario",
    "run_point",
]


#: Keys of the metrics row every scenario execution emits, in render order.
RESULT_COLUMNS: tuple[str, ...] = (
    "scenario",
    "protocol",
    "generator",
    "n_players",
    "n_objects",
    "budget",
    "n_coalitions",
    "n_dishonest",
    "noise_rate",
    "repetitions",
    "final_active",
    "planted_D",
    "honest_max_error",
    "honest_mean_error",
    "max_error",
    "max_probes",
    "max_probe_requests",
    "honest_leader_iterations",
    "degraded",
)


@dataclass(frozen=True)
class ScenarioRun:
    """Everything produced by one scenario execution.

    ``predictions`` has one row per entry of ``active_players`` (the players
    active in the final repetition; the full population when there is no
    churn).  ``row`` is the flat metrics dictionary (the :data:`RESULT_COLUMNS`
    keys) that :func:`run_scenario` returns on its own.
    """

    spec: ScenarioSpec
    seed: SeedLike
    instance: PlantedInstance
    context: ProtocolContext
    predictions: np.ndarray
    active_players: np.ndarray
    plan: CoalitionPlan | None
    row: dict


@dataclass(frozen=True)
class PreparedRun:
    """A built-but-not-yet-run workload: instance, wired context, coalition.

    This is the state a scenario execution starts from — everything
    :func:`execute` derives from ``(spec, seed)`` *before* dispatching to
    the protocol.  The preference server keeps one of these alive per
    session, so interactive probe/report/select requests operate on exactly
    the board, oracle and randomness a batch :func:`execute` of the same
    pair would have seen; ``churn_seed`` and ``baseline_seed`` are carried
    so :func:`execute` can finish the job from a prepared state.
    """

    spec: ScenarioSpec
    seed: SeedLike
    instance: PlantedInstance
    context: ProtocolContext
    plan: CoalitionPlan | None
    churn_seed: int
    baseline_seed: int


def _build_instance(spec: ScenarioSpec, seed: int) -> PlantedInstance:
    pop = spec.population
    params = dict(pop.params)
    if pop.generator == "planted":
        params.setdefault("n_clusters", spec.protocol.budget)
        params.setdefault("diameter", max(1, pop.n_objects // 8))
        return planted_clusters_instance(
            pop.n_players, pop.n_objects, seed=seed, **params
        )
    if pop.generator == "zero-radius":
        params.setdefault("n_clusters", spec.protocol.budget)
        return zero_radius_instance(pop.n_players, pop.n_objects, seed=seed, **params)
    if pop.generator == "mixture":
        params.setdefault("n_types", spec.protocol.budget)
        return mixture_model_instance(pop.n_players, pop.n_objects, seed=seed, **params)
    if pop.generator == "random":
        return random_instance(pop.n_players, pop.n_objects, seed=seed, **params)
    if pop.generator == "heterogeneous":
        return heterogeneous_cluster_instance(
            pop.n_players, pop.n_objects, seed=seed, **params
        )
    raise ConfigurationError(f"unknown generator {pop.generator!r}")


def _resolve_probe_limits(
    spec: ScenarioSpec, instance: PlantedInstance
) -> int | np.ndarray | None:
    """Concrete oracle probe caps from the protocol spec's budget fields.

    ``probe_limit`` alone is a uniform hard cap; with
    ``probe_limit_factors`` the cap of every player in planted cluster ``i``
    is scaled by factor ``i`` (players outside the listed clusters, or in no
    cluster, keep factor 1), rounded and floored at one probe.  Returns
    ``None`` when the spec sets no cap — the oracle then runs unenforced,
    exactly as before.
    """
    limit = spec.protocol.probe_limit
    if limit is None:
        return None
    factors = spec.protocol.probe_limit_factors
    if not factors:
        return int(limit)
    per_player = np.ones(instance.n_players, dtype=np.float64)
    for cluster_id, factor in enumerate(factors):
        per_player[instance.cluster_of == cluster_id] = factor
    return np.maximum(1, np.round(limit * per_player)).astype(np.int64)


def _merge_plans(plans: list[CoalitionPlan]) -> CoalitionPlan | None:
    """Fold simultaneous coalitions into the single plan the robust wrapper
    (and the adversarial-randomness hooks) consume."""
    if not plans:
        return None
    if len(plans) == 1:
        return plans[0]
    members = np.unique(np.concatenate([p.members for p in plans]))
    victim = max(plans, key=lambda p: p.victim_cluster.size).victim_cluster
    targets = np.unique(np.concatenate([p.target_objects for p in plans]))
    hidden = np.unique(np.concatenate([p.hidden_objects for p in plans]))
    return CoalitionPlan(
        members=members,
        strategy_name="+".join(p.strategy_name for p in plans),
        victim_cluster=victim,
        target_objects=targets,
        hidden_objects=hidden,
    )


def _build_coalitions(
    spec: ScenarioSpec,
    instance: PlantedInstance,
    constants: ProtocolConstants,
    seed: int,
) -> tuple[dict[int, ReportingStrategy], list[CoalitionPlan]]:
    n = instance.n_players
    tolerance = constants.max_dishonest(n, spec.protocol.budget)
    strategies: dict[int, ReportingStrategy] = {}
    plans: list[CoalitionPlan] = []
    taken = np.zeros(0, dtype=np.int64)
    coalition_seeds = spawn_seeds(seed, max(1, len(spec.coalitions)))
    total = 0
    for coalition, c_seed in zip(spec.coalitions, coalition_seeds):
        size = coalition.resolve_size(n, tolerance)
        total += size
        if 2 * total >= n:
            raise ConfigurationError(
                f"scenario {spec.name!r}: combined coalitions of {total} players "
                f"would outnumber honest players at n={n}"
            )
        rng = np.random.default_rng(c_seed)
        victim = instance.cluster_members(coalition.victim_cluster)
        target_count = max(1, int(round(coalition.target_fraction * instance.n_objects)))
        targets = np.sort(
            rng.choice(instance.n_objects, size=target_count, replace=False)
        )
        built, plan = build_coalition(
            instance.preferences,
            size,
            strategy=coalition.strategy,  # type: ignore[arg-type]
            victim_cluster=victim if victim.size else None,
            target_objects=targets,
            seed=rng,
            exclude=taken,
        )
        strategies.update(built)
        plans.append(plan)
        taken = np.union1d(taken, plan.members)
    return strategies, plans


def _run_protocol(
    spec: ScenarioSpec,
    instance: PlantedInstance,
    ctx: ProtocolContext,
    plan: CoalitionPlan | None,
    baseline_seed: int,
    churn_seed: int,
) -> tuple[np.ndarray, np.ndarray, int | None, bool]:
    """Dispatch to the named protocol.

    Returns ``(predictions, active_players, honest_leader_iterations,
    degraded)`` where ``predictions`` rows align with ``active_players`` and
    ``degraded`` reports whether the robust wrapper gave up a stage under
    the scenario's ``faults.degrade`` envelope (always ``False`` elsewhere).
    """
    name = spec.protocol.name
    dynamics = spec.dynamics
    schedule = efficient_diameter_schedule(ctx.n_players, ctx.n_objects, ctx.constants)
    all_players = ctx.all_players()
    objects = ctx.all_objects()

    if name in ("small-radius", "zero-radius"):
        timeline = ChurnTimeline(
            ctx.n_players,
            departures=dynamics.departures,
            arrivals=dynamics.arrivals,
            seed=churn_seed,
            initially_active=dynamics.initially_active,
        )
        diameter = spec.protocol.diameter
        if diameter is None:
            diameter = float(max(1, int(instance.planted_diameters.max(initial=0))))
        estimates = np.zeros((0, objects.size), dtype=np.uint8)
        active = timeline.active_players()
        for repetition in range(dynamics.repetitions):
            channel = f"scenario/rep{repetition}"
            if name == "small-radius":
                estimates = small_radius(
                    ctx, active, objects,
                    diameter=float(diameter),
                    budget=spec.protocol.budget,
                    channel=channel,
                )
            else:
                estimates = zero_radius(
                    ctx, active, objects,
                    budget_prime=spec.protocol.budget,
                    channel=channel,
                )
            if repetition < dynamics.repetitions - 1:
                active = timeline.step()
        return estimates, active, None, False

    if name == "calculate-preferences":
        result = calculate_preferences(ctx, diameters=schedule)
        return result.predictions, all_players, None, False
    if name == "robust":
        result = robust_calculate_preferences(
            ctx,
            coalition=plan,
            iterations=spec.protocol.robust_iterations,
            diameters=schedule,
            degrade=spec.faults.degrade,
        )
        return (
            result.predictions,
            all_players,
            result.honest_leader_iterations,
            result.partial,
        )
    if name == "alon":
        result = alon_awerbuch_azar_patt_shamir(ctx, diameters=schedule)
        return result.predictions, all_players, None, False
    if name == "solo-probing":
        return solo_probing(ctx, seed=baseline_seed), all_players, None, False
    if name == "global-majority":
        return global_majority(ctx, seed=baseline_seed), all_players, None, False
    if name == "random-guessing":
        return random_guessing(ctx, seed=baseline_seed), all_players, None, False
    if name == "oracle-clustering":
        return oracle_clustering(ctx), all_players, None, False
    raise ConfigurationError(f"unknown protocol {name!r}")


def prepare(spec: ScenarioSpec, seed: SeedLike = 0) -> PreparedRun:
    """Build the executable state for ``(spec, seed)`` without running it.

    This is the first half of :func:`execute` — the deterministic setup
    (instance, coalitions, context with its sub-seeded noise/churn/baseline
    streams) — split out so a long-lived session can hold a *live* board +
    oracle + randomness and accept interactive protocol requests against
    exactly the state a batch execution of the same pair starts from.
    """
    (
        instance_seed,
        coalition_seed,
        context_seed,
        noise_seed,
        churn_seed,
        baseline_seed,
    ) = spawn_seeds(seed, 6)

    profile = spec.protocol.constants_profile
    constants = (
        ProtocolConstants.paper() if profile == "paper" else ProtocolConstants.practical()
    )
    if spec.protocol.constants_overrides:
        constants = constants.with_overrides(**spec.protocol.constants_overrides)

    instance = _build_instance(spec, instance_seed)
    strategies, plans = _build_coalitions(spec, instance, constants, coalition_seed)
    plan = _merge_plans(plans)

    ctx = make_context(
        instance,
        budget=spec.protocol.budget,
        constants=constants,
        strategies=strategies,
        seed=context_seed,
        noise_rate=spec.dynamics.noise_rate,
        noise_seed=noise_seed,
        probe_limits=_resolve_probe_limits(spec, instance),
    )
    return PreparedRun(
        spec=spec,
        seed=seed,
        instance=instance,
        context=ctx,
        plan=plan,
        churn_seed=int(churn_seed),
        baseline_seed=int(baseline_seed),
    )


def execute(spec: ScenarioSpec, seed: SeedLike = 0) -> ScenarioRun:
    """Run one scenario and return the full execution record.

    All randomness derives from ``seed`` via positional sub-streams, so the
    result is reproducible and independent of where (which process/worker)
    the call runs.
    """
    prepared = prepare(spec, seed)
    instance, ctx, plan = prepared.instance, prepared.context, prepared.plan

    with obs.span("scenario"):
        predictions, active, honest_leader_iterations, degraded = _run_protocol(
            spec, instance, ctx, plan, prepared.baseline_seed, prepared.churn_seed
        )

    # The oracle holds a copy of this matrix; the instance's own rows are
    # C-ordered, so gathering the active ones is cheaper than through the
    # oracle's transposed view.
    truth = instance.preferences[active]
    errors = prediction_errors(predictions, truth)
    honest_mask = ctx.pool.honest_mask[active]
    # When churn leaves no honest player active, the honest_* columns report
    # 0 (vacuous max/mean) rather than mislabelling attacker error as honest.
    honest_errors = errors[honest_mask]

    row = dict(
        scenario=spec.name,
        protocol=spec.protocol.name,
        generator=spec.population.generator,
        n_players=int(instance.n_players),
        n_objects=int(instance.n_objects),
        budget=int(spec.protocol.budget),
        n_coalitions=len(spec.coalitions),
        n_dishonest=int(ctx.pool.n_dishonest),
        noise_rate=float(spec.dynamics.noise_rate),
        repetitions=int(spec.dynamics.repetitions),
        final_active=int(active.size),
        planted_D=int(instance.planted_diameters.max(initial=0)),
        honest_max_error=int(honest_errors.max(initial=0)),
        honest_mean_error=float(honest_errors.mean()) if honest_errors.size else 0.0,
        max_error=int(errors.max(initial=0)),
        max_probes=int(ctx.oracle.max_probes()),
        max_probe_requests=int(ctx.oracle.max_requests()),
        honest_leader_iterations=honest_leader_iterations,
        degraded=int(degraded),
    )
    if obs._AMBIENT.telemetry is not None:
        # Derived oracle metrics: counters stay integer (and so land in the
        # deterministic canonical form); the hit *rate* is a gauge, and the
        # per-run outcome columns feed histograms so a multi-trial window
        # reports their spread.
        obs.add("oracle.memo_hits", ctx.oracle.memo_hits())
        obs.add("oracle.memo_misses", ctx.oracle.memo_misses())
        obs.set_gauge("oracle.memo_hit_rate", ctx.oracle.memo_hit_rate())
        obs.observe("scenario.max_probes", row["max_probes"])
        obs.observe("scenario.max_error", row["max_error"])
    return ScenarioRun(
        spec=spec,
        seed=seed,
        instance=instance,
        context=ctx,
        predictions=predictions,
        active_players=active,
        plan=plan,
        row=row,
    )


def run_scenario(spec: ScenarioSpec, seed: SeedLike = 0) -> dict:
    """Picklable trial function: one scenario execution → one metrics row.

    This is the unit the sweep engine and the CLI fan out through
    :func:`repro.analysis.runner.run_trials`; the returned dictionary's keys
    are :data:`RESULT_COLUMNS`.
    """
    return execute(spec, seed).row


def run_point(spec: ScenarioSpec, seed: int, trial: int) -> dict:
    """One sweep/CLI/server trial (module-level so it pickles into workers).

    The row is :func:`run_scenario`'s metrics dictionary prefixed with the
    trial index and its derived seed — the exact unit ``python -m repro
    run`` fans out, shared by the preference server so a session's full-run
    rows are bit-identical to the offline CLI's.
    """
    row = {"trial": trial, "trial_seed": seed}
    row.update(run_scenario(spec, seed))
    return row
