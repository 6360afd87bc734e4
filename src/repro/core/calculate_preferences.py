"""The CalculatePreferences protocol (§6, Figure 2).

The protocol does not know the true correlation level, so it *guesses* the
diameter: it runs its pipeline once for every ``D = 1, 2, 4, …, n`` and lets
each player pick the best resulting candidate vector with RSelect (§6.1).
For one guessed diameter the pipeline is:

(b) select a sample set ``S`` with per-object probability ``Θ(log n / D)``;
(c) run SmallRadius on ``S`` with diameter bound ``Θ(log n)`` so every player
    obtains an estimate ``z(p)`` of its preferences on the sample;
(d) build the neighbour graph on the published ``z`` vectors and extract
    clusters of size ``≥ n/B``;
(e) share the probing work inside each cluster with ``Θ(log n)``-redundant
    majority voting.

Two easy cases are dispatched as in §6.1: when the budget already allows
probing everything, do that; when the guessed diameter is below ``log n``,
SmallRadius alone solves the problem for that guess.

Each guess hands the final RSelect its candidate in the layout that
produced it: work sharing's ``(labels, rows)`` slot (one majority row per
cluster, and each player's cluster label), or the dense ``(n_players,
n_objects)`` matrix of an easy case.  No per-player stack of the guesses'
candidates is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.clustering import build_neighbor_graph, cluster_players
from repro.core.sampling import select_sample_set
from repro.core.work_sharing import share_work
from repro.errors import ProtocolError
from repro.obs.runtime import span, traced
from repro.protocols.context import ProtocolContext
from repro.protocols.rselect import rselect_collective
from repro.protocols.small_radius import small_radius

__all__ = [
    "DiameterIterationTrace",
    "CalculatePreferencesResult",
    "calculate_preferences_for_diameter",
    "calculate_preferences",
    "default_diameter_schedule",
    "efficient_diameter_schedule",
]


@dataclass(frozen=True)
class DiameterIterationTrace:
    """Diagnostics for one guessed-diameter iteration."""

    diameter: float
    sample_size: int
    n_clusters: int
    cluster_sizes: tuple[int, ...]
    used_small_radius_directly: bool


@dataclass(frozen=True)
class CalculatePreferencesResult:
    """Output of a full CalculatePreferences execution.

    ``candidates`` holds one slot per guessed diameter, in schedule order:
    work sharing's ``(labels, rows)`` pair (player ``p``'s candidate is
    ``rows[labels[p]]``) or an easy case's dense ``(n_players, n_objects)``
    matrix.  A run whose budget probed everything has one dense slot.
    """

    predictions: np.ndarray
    candidates: tuple[tuple[np.ndarray, np.ndarray] | np.ndarray, ...]
    diameters: tuple[float, ...]
    traces: tuple[DiameterIterationTrace, ...] = field(default_factory=tuple)
    probed_everything: bool = False


def default_diameter_schedule(n_objects: int) -> list[int]:
    """The doubling schedule ``D = 1, 2, 4, …, ≥ n`` of §6.1."""
    if n_objects <= 0:
        raise ProtocolError(f"n_objects must be positive, got {n_objects}")
    schedule = []
    d = 1
    while d < 2 * n_objects:
        schedule.append(d)
        d *= 2
    return schedule


def efficient_diameter_schedule(
    n_players: int,
    n_objects: int,
    constants,
) -> list[float]:
    """Doubling schedule restricted to guesses whose sample set is a strict
    subset of the objects.

    For guessed diameters below ``c · ln n`` (``c`` the sampling factor) the
    per-object inclusion probability saturates at 1, so the "sample" is the
    whole object set and the guess degenerates into probing everything — the
    regime the paper handles separately via the ``D < log n`` SmallRadius
    dispatch.  This schedule keeps only the guesses ``D ≥ c · ln n`` (always
    at least one guess).

    Trade-off: when the true optimal diameter ``D_opt`` is below the
    smallest retained guess ``T = Θ(log n)``, the protocol's guarantee
    weakens from ``O(D_opt)`` to ``O(T) = O(log n)`` additive — the same
    cluster still qualifies at the ``T`` guess, it is just measured against
    a coarser diameter.  Whenever ``D_opt = Ω(log n)`` the constant-factor
    guarantee is unchanged.
    """
    log_n = constants.log_n(n_players)
    minimum = constants.sample_prob_factor * log_n
    schedule = [float(d) for d in default_diameter_schedule(n_objects) if d >= minimum]
    if not schedule:
        schedule = [float(default_diameter_schedule(n_objects)[-1])]
    return schedule


def calculate_preferences_for_diameter(
    ctx: ProtocolContext,
    diameter: float,
    channel: str = "calc",
) -> tuple[tuple[np.ndarray, np.ndarray], DiameterIterationTrace]:
    """Run steps (b)–(e) of Figure 2 for one guessed diameter.

    Returns this guess's candidates as work sharing's ``(labels, rows)``
    slot (player ``p``'s candidate is ``rows[labels[p]]``) plus a trace of
    the intermediate structure (sample size, clusters).
    """
    players = ctx.all_players()
    constants = ctx.constants
    n = ctx.n_players

    # Step (b): sample set.
    sample = select_sample_set(ctx, diameter)

    # Step (c): SmallRadius on the sample with the Θ(log n) diameter bound.
    sample_diameter = constants.sample_agreement_bound(n)
    z_estimates = small_radius(
        ctx,
        players,
        sample,
        sample_diameter,
        budget=ctx.budget,
        channel=f"{channel}/sr",
    )
    published_z = ctx.publish_vectors_packed(f"{channel}/z", players, sample, z_estimates)

    # Step (d): neighbour graph and clusters.  The degree needed to seed a
    # cluster is lowered by the dishonest-player tolerance n/(3B): up to that
    # many of an honest player's true neighbours may publish garbage
    # estimates and therefore not show up as graph neighbours (§7.2).
    with span("cluster"):
        threshold = constants.edge_threshold(n)
        adjacency = build_neighbor_graph(published_z, threshold)
        min_cluster_size = max(2, int(math.ceil(n / ctx.budget)))
        seed_degree = max(1, min_cluster_size - 1 - constants.max_dishonest(n, ctx.budget))
        clustering = cluster_players(adjacency, min_cluster_size, seed_degree=seed_degree)

    # Step (e): work sharing.
    slot = share_work(ctx, clustering, channel=f"{channel}/work")

    trace = DiameterIterationTrace(
        diameter=float(diameter),
        sample_size=int(sample.size),
        n_clusters=clustering.n_clusters,
        cluster_sizes=tuple(int(size) for size in clustering.sizes()),
        used_small_radius_directly=False,
    )
    return slot, trace


@traced("diameter")
def _run_diameter_iteration(
    ctx: ProtocolContext, diameter: float, channel: str
) -> tuple[tuple[np.ndarray, np.ndarray] | np.ndarray, DiameterIterationTrace]:
    """One guessed-diameter iteration: the §6.1 dispatch between the direct
    SmallRadius easy case and the full pipeline."""
    if diameter <= 0:
        raise ProtocolError(f"guessed diameter must be positive, got {diameter}")
    if diameter < ctx.constants.log_n(ctx.n_players):
        # Easy case: SmallRadius alone handles sub-logarithmic diameters.
        preds = small_radius(
            ctx,
            ctx.all_players(),
            ctx.all_objects(),
            diameter,
            budget=ctx.budget,
            channel=f"{channel}/direct-sr",
        )
        trace = DiameterIterationTrace(
            diameter=float(diameter),
            sample_size=int(ctx.n_objects),
            n_clusters=0,
            cluster_sizes=(),
            used_small_radius_directly=True,
        )
        return preds, trace
    return calculate_preferences_for_diameter(ctx, diameter, channel=channel)


@traced("calculate_preferences")
def calculate_preferences(
    ctx: ProtocolContext,
    diameters: list[float] | None = None,
    channel: str = "calc",
) -> CalculatePreferencesResult:
    """Run the full CalculatePreferences protocol.

    Parameters
    ----------
    ctx:
        Execution context (honest or adversarial shared randomness).
    diameters:
        Guessed-diameter schedule; defaults to the doubling schedule of §6.1.
        Experiments with a known planted diameter may pass a restricted
        schedule to keep running times down — the restriction can only hurt
        the protocol, never help it, since the default schedule is a superset.
    channel:
        Bulletin-board channel prefix (the robust wrapper uses one prefix per
        leader-election iteration).

    Returns
    -------
    CalculatePreferencesResult
        Final per-player predictions, the per-diameter candidate slots, and
        per-iteration traces.
    """
    players = ctx.all_players()
    objects = ctx.all_objects()
    n, m = ctx.n_players, ctx.n_objects

    # Easy case (§6.1): the budget is large enough to probe everything within
    # the B·polylog(n) allowance.
    if ctx.budget * math.log2(max(2, n)) >= m:
        with span("probe_everything"):
            true_block, _ = ctx.probe_and_report_block(
                f"{channel}/probe-all", players, objects
            )
        return CalculatePreferencesResult(
            predictions=true_block,
            candidates=(true_block,),
            diameters=(float(m),),
            traces=(),
            probed_everything=True,
        )

    if diameters is None:
        diameters = [float(d) for d in default_diameter_schedule(m)]
    if not diameters:
        raise ProtocolError("diameters schedule must be non-empty")

    candidates: list[tuple[np.ndarray, np.ndarray] | np.ndarray] = []
    traces: list[DiameterIterationTrace] = []
    for index, diameter in enumerate(diameters):
        slot, trace = _run_diameter_iteration(ctx, diameter, f"{channel}/d{index}")
        candidates.append(slot)
        traces.append(trace)

    # One collective tournament: every player's RSelect over its
    # per-diameter candidates runs round-batched (player-major randomness,
    # one ragged oracle call per candidate-pair round).  A single guess's
    # candidates are returned as they are, with no draw and no probe.
    final = rselect_collective(ctx, players, objects, candidates)
    return CalculatePreferencesResult(
        predictions=final,
        candidates=tuple(candidates),
        diameters=tuple(float(d) for d in diameters),
        traces=tuple(traces),
    )
