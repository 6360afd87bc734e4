"""ZeroRadius: collaborative scoring when identical-preference clusters exist.

Figure 1 / Theorem 4 of the paper (originally from Awerbuch et al. [4]): if
at least ``n/B'`` players share *exactly* the same preference vector, every
honest player can recover its vector with ``O(B' log n)`` probes.  The
protocol recursively halves both the player set and the object set:

1. base case — when either side is small, every player probes every object;
2. otherwise each half recursively solves its own quadrant, publishes its
   results, and the other half adopts any vector published by sufficiently
   many players (``≥ |P''| / (2B')``), resolving disagreements between
   popular vectors by probing one distinguishing object at a time.

Our implementation is *collective*: one call simulates the recursion for all
players, returning each player's private estimate over the given objects.
Dishonest players participate (their published vectors pass through their
reporting strategies) but their private estimates are irrelevant.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ProtocolError
from repro.obs.runtime import traced
from repro.perf import PackedBits, packed_unique_rows
from repro.protocols.context import ProtocolContext

__all__ = ["zero_radius", "popular_vectors"]


def _positions_in(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Index of each element of ``needles`` within ``haystack``.

    ``haystack`` must contain every needle exactly once (the recursion's
    halves are subsets of the call's player/object arrays).
    """
    if haystack.size <= 1 or np.all(haystack[1:] > haystack[:-1]):
        return np.searchsorted(haystack, needles)
    order = np.argsort(haystack, kind="stable")
    return order[np.searchsorted(haystack, needles, sorter=order)]


def popular_vectors(
    published: np.ndarray | PackedBits, min_support: int
) -> np.ndarray:
    """Distinct published rows supported by at least ``min_support`` players.

    ``published`` is the block of published vectors, dense or already packed
    along the object axis (a :class:`PackedBits` straight from
    ``ctx.publish_vectors_packed`` — the packed dataflow skips the repack).
    Returns an array of shape ``(k, n_objects)``; ``k`` may be zero when no
    row reaches the threshold.
    """
    if not isinstance(published, PackedBits):
        published = np.asarray(published, dtype=np.uint8)
        if published.size == 0:
            return np.zeros(
                (0, published.shape[1] if published.ndim == 2 else 0), dtype=np.uint8
            )
    elif 0 in published.shape:
        return np.zeros((0, published.n_bits), dtype=np.uint8)
    # Identical to np.unique(published, axis=0, return_counts=True) — same
    # rows in the same lexicographic order — but sorts packed byte strings.
    uniques, counts = packed_unique_rows(published)
    return uniques[counts >= max(1, int(min_support))]


def _resolve_by_probing(
    ctx: ProtocolContext,
    player: int,
    global_objects: np.ndarray,
    candidates: np.ndarray,
) -> np.ndarray:
    """Figure 1, ZeroRadius step 5: probe disputed objects until the
    surviving candidates agree, then return the first survivor.

    ``candidates`` has shape ``(k, len(global_objects))`` with ``k ≥ 1``.
    Each probe reads the first column on which the survivors differ and
    eliminates every survivor disagreeing with the answer.  The survivors
    hold both values there, so a binary answer always keeps some of them:
    the survivor set never empties.  Off the Theorem-4 promise (the
    player's true vector is none of the candidates) the result is the
    candidate that agrees with every probed answer.
    """
    candidates = np.asarray(candidates, dtype=np.uint8)
    if candidates.shape[0] == 0:
        raise ProtocolError("_resolve_by_probing requires at least one candidate")
    alive = np.ones(candidates.shape[0], dtype=bool)
    while True:
        survivors = candidates[alive]
        disputed = np.flatnonzero(np.any(survivors != survivors[0], axis=0))
        if disputed.size == 0:
            return survivors[0].copy()
        column = int(disputed[0])
        value = ctx.oracle.probe(int(player), int(global_objects[column]))
        alive &= candidates[:, column] == value


def _cross_learn(
    ctx: ProtocolContext,
    learners: np.ndarray,
    publishers: np.ndarray,
    objects: np.ndarray,
    publisher_estimates: np.ndarray,
    budget_prime: float,
    channel: str,
) -> np.ndarray:
    """Learners adopt the popular vectors published by the other half.

    Returns estimates of shape ``(len(learners), len(objects))``.
    """
    published = ctx.publish_vectors_packed(
        channel, publishers, objects, publisher_estimates
    )
    min_support = max(
        1,
        int(
            np.floor(
                publishers.size
                / (ctx.constants.zero_radius_popularity_divisor * max(1.0, budget_prime))
            )
        ),
    )
    candidates = popular_vectors(published, min_support)
    if candidates.shape[0] == 0:
        # No vector is popular enough (off-promise input): fall back to every
        # distinct published vector so learners can still resolve by probing.
        candidates, _ = packed_unique_rows(published)
    if candidates.shape[0] == 1:
        # One candidate: every learner adopts it without probing, so the
        # per-learner resolution loop collapses to a single tile.
        return np.tile(candidates[0], (learners.size, 1))
    estimates = np.empty((learners.size, objects.size), dtype=np.uint8)
    for row, learner in enumerate(learners):
        estimates[row] = _resolve_by_probing(ctx, int(learner), objects, candidates)
    return estimates


@traced("zero_radius")
def zero_radius(
    ctx: ProtocolContext,
    players: np.ndarray,
    objects: np.ndarray,
    budget_prime: float,
    channel: str = "zero-radius",
) -> np.ndarray:
    """Run ZeroRadius collectively for ``players`` over ``objects``.

    Parameters
    ----------
    ctx:
        Execution context.
    players:
        Global player indices participating in this call.
    objects:
        Global object indices to be scored.
    budget_prime:
        The bound ``B'`` of Theorem 4 (at least ``|players|/B'`` players are
        promised to share identical preferences for the guarantee to hold).
    channel:
        Bulletin-board channel prefix for this call's published vectors.

    Returns
    -------
    numpy.ndarray
        ``estimates[i, j]`` — player ``players[i]``'s private estimate of its
        preference for ``objects[j]``.
    """
    players = np.asarray(players, dtype=np.int64)
    objects = np.asarray(objects, dtype=np.int64)
    if players.size == 0:
        return np.zeros((0, objects.size), dtype=np.uint8)
    if objects.size == 0:
        return np.zeros((players.size, 0), dtype=np.uint8)
    if budget_prime <= 0:
        raise ProtocolError(f"budget_prime must be positive, got {budget_prime}")

    # Note on channels: every recursion level reuses the same channel names.
    # Posts at different levels concern disjoint (player, object) cells or are
    # same-owner refinements, so reuse is safe — and it keeps the number of
    # bulletin-board channels (each backed by an (n × m) report matrix)
    # constant instead of exponential in the recursion depth.
    base_size = ctx.constants.zero_radius_base_size(ctx.n_players, budget_prime)
    if min(players.size, objects.size) < base_size:
        true_block, _ = ctx.probe_and_report_block(f"{channel}/base", players, objects)
        return true_block

    left_players, right_players = ctx.randomness.partition_in_two(players)
    left_objects, right_objects = ctx.randomness.partition_in_two(objects)

    left_estimates = zero_radius(
        ctx, left_players, left_objects, budget_prime, channel=channel
    )
    right_estimates = zero_radius(
        ctx, right_players, right_objects, budget_prime, channel=channel
    )

    left_on_right = _cross_learn(
        ctx,
        learners=left_players,
        publishers=right_players,
        objects=right_objects,
        publisher_estimates=right_estimates,
        budget_prime=budget_prime,
        channel=f"{channel}/pub",
    )
    right_on_left = _cross_learn(
        ctx,
        learners=right_players,
        publishers=left_players,
        objects=left_objects,
        publisher_estimates=left_estimates,
        budget_prime=budget_prime,
        channel=f"{channel}/pub",
    )

    # Assemble estimates back into the order of ``players`` × ``objects``
    # with vectorised index lookups (the halves are subsets of the inputs).
    estimates = np.empty((players.size, objects.size), dtype=np.uint8)
    left_rows = _positions_in(players, left_players)
    right_rows = _positions_in(players, right_players)
    left_cols = _positions_in(objects, left_objects)
    right_cols = _positions_in(objects, right_objects)

    estimates[left_rows[:, None], left_cols[None, :]] = left_estimates
    estimates[left_rows[:, None], right_cols[None, :]] = left_on_right
    estimates[right_rows[:, None], right_cols[None, :]] = right_estimates
    estimates[right_rows[:, None], left_cols[None, :]] = right_on_left
    return estimates
