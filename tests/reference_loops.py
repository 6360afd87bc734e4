"""Reference loops the batched protocol paths are tested against.

Each function here is the plain, one-step-at-a-time form of a batched
production path: SmallRadius run subset by subset, work sharing run cluster
by cluster (one :func:`cluster_majority_vote` each), and the collective
RSelect run player by player.  They make the same probes, posts, strategy
calls and shared-randomness draws in the order the protocol describes them,
so a batched path is correct exactly when it matches its reference bit for
bit (outputs, probe accounting, randomness state, strategy state and board
contents).  :func:`block_words_reduceat` is the player-major ``reduceat``
form of SmallRadius' block-word builder, and :func:`board_reports` reads a
report channel back as dense matrices.  Nothing in ``src/`` calls them.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.core.clustering import Clustering
from repro.protocols.context import ProtocolContext
from repro.protocols.rselect import _player_rngs, rselect
from repro.protocols.select import select_collective, select_per_player
from repro.protocols.zero_radius import popular_vectors, zero_radius
from repro.simulation.board import BulletinBoard


def board_reports(board: BulletinBoard, channel: str) -> tuple[np.ndarray, np.ndarray]:
    """A report channel as dense ``(values, posted)`` ``(n_players,
    n_objects)`` matrices (``uint8`` values, ``bool`` mask), unpacked from
    the board's own snapshot, :meth:`BulletinBoard.export_channels`.  A
    channel nobody posted to reads as all zeros."""
    packed = board.export_channels(channel)["reports"].get(channel)
    if packed is None:
        shape = (board.n_players, board.n_objects)
        return np.zeros(shape, dtype=np.uint8), np.zeros(shape, dtype=bool)
    values, posted = (
        np.unpackbits(rows, axis=1, count=board.n_players).T for rows in packed
    )
    return values, posted.view(bool)


def block_words_reduceat(
    bits: np.ndarray, widths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pack contiguous column blocks of a player-major 0/1 matrix into words.

    Block ``i`` is the next ``widths[i] >= 1`` columns of ``bits``; each of
    its rows becomes ``ceil(widths[i] / 64)`` words holding the block's
    columns in order, first column in the most significant bit (a block of
    at most 64 columns is one word, the row read as a binary number; wider
    blocks fill 64-bit words in turn, the last one left-aligned).  The words
    use the narrowest unsigned dtype holding ``min(64, max(widths))`` bits.
    Every bit is weighted by its place value and each word's weighted bits
    are summed by one ``np.add.reduceat`` along the rows.  Returns ``(words,
    starts)``: the ``(rows, n_words)`` word matrix and the index of each
    block's first word.
    """
    widths = np.asarray(widths, dtype=np.int64)
    dtype = np.min_scalar_type((1 << min(64, int(widths.max()))) - 1)
    offsets = np.concatenate(([0], np.cumsum(widths)))
    col_block = np.repeat(np.arange(widths.size), widths)
    position = np.arange(offsets[-1]) - offsets[col_block]
    shifts = (np.minimum(64, widths[col_block]) - 1 - (position & 63)).astype(np.uint64)
    weights = (np.uint64(1) << shifts).astype(dtype)
    words = np.add.reduceat(
        np.multiply(bits, weights, dtype=dtype),
        np.flatnonzero((position & 63) == 0),
        axis=1,
        dtype=dtype,
    )
    starts = np.concatenate(([0], np.cumsum((widths + 63) // 64)[:-1]))
    return words, starts


def small_radius_per_subset(
    ctx: ProtocolContext,
    players: np.ndarray,
    objects: np.ndarray,
    diameter: float,
    budget: int | None = None,
    channel: str = "small-radius",
) -> np.ndarray:
    """SmallRadius with every partition subset run on its own: ZeroRadius,
    publish, then Select, one subset after another."""
    players = np.asarray(players, dtype=np.int64)
    objects = np.asarray(objects, dtype=np.int64)
    budget = int(budget if budget is not None else ctx.budget)
    constants = ctx.constants
    repetitions = constants.small_radius_repetitions(ctx.n_players)
    zr_budget = constants.small_radius_budget_multiplier * budget
    min_support = max(
        1,
        int(np.floor(players.size / (constants.small_radius_popularity_divisor * budget))),
    )
    select_sample = constants.rselect_sample_size(ctx.n_players)

    repetition_candidates = np.empty(
        (players.size, repetitions, objects.size), dtype=np.uint8
    )
    object_order = np.argsort(objects, kind="stable")
    sorted_objects = objects[object_order]
    for rep in range(repetitions):
        partitions = ctx.randomness.partition_objects(
            objects, constants.small_radius_partitions(diameter, objects.size)
        )
        assembled = np.empty((players.size, objects.size), dtype=np.uint8)
        for subset in partitions:
            if not subset.size:
                continue
            cols = object_order[np.searchsorted(sorted_objects, subset)]
            own_estimates = zero_radius(
                ctx, players, subset, zr_budget, channel=f"{channel}/zr"
            )
            published = ctx.publish_vectors(
                f"{channel}/pub", players, subset, own_estimates
            )
            candidates = popular_vectors(published, min_support)
            if candidates.shape[0] == 0:
                assembled[:, cols] = own_estimates
                continue
            _, chosen = select_collective(
                ctx, players, subset, candidates, sample_size=select_sample
            )
            assembled[:, cols] = chosen
        repetition_candidates[:, rep, :] = assembled

    if repetitions == 1:
        return repetition_candidates[:, 0, :].copy()
    return select_per_player(
        ctx, players, objects, repetition_candidates, sample_size=select_sample
    )


def cluster_majority_vote(
    ctx: ProtocolContext, members: np.ndarray, redundancy: int, channel: str
) -> np.ndarray:
    """One cluster's shared prediction vector by redundant probing: for
    every object, ``redundancy`` members chosen by the shared randomness
    (with replacement) probe it and post their reports, and the prediction
    is the majority of the posted reports (ties go to 1)."""
    members = np.asarray(members, dtype=np.int64)
    n_objects = ctx.n_objects
    assignment = ctx.randomness.assign_probers(members, n_objects, redundancy)
    objects = np.repeat(np.arange(n_objects, dtype=np.int64), redundancy)
    probers = assignment.reshape(-1)
    true_values = ctx.oracle.probe_pairs(probers, objects)
    reported = ctx.pool.reports_pairs(probers, objects, true_values)
    ctx.board.post_report_pairs(
        channel, probers, objects, reported, consistent=not ctx.pool.has_strategies
    )
    likes = reported.reshape(n_objects, redundancy).sum(axis=1, dtype=np.int64)
    return (2 * likes >= redundancy).astype(np.uint8)


def share_work_per_cluster(
    ctx: ProtocolContext, clustering: Clustering, channel: str = "work-sharing"
) -> np.ndarray:
    """Work sharing with one :func:`cluster_majority_vote` per cluster, in
    cluster order."""
    redundancy = ctx.constants.vote_redundancy(ctx.n_players)
    predictions = np.zeros((ctx.n_players, ctx.n_objects), dtype=np.uint8)
    for cluster_id in range(clustering.n_clusters):
        members = clustering.members(cluster_id)
        if members.size:
            predictions[members] = cluster_majority_vote(
                ctx, members, redundancy, channel=f"{channel}/c{cluster_id}"
            )
    return predictions


def rselect_collective_serial(
    ctx: ProtocolContext,
    players: np.ndarray,
    objects: np.ndarray,
    candidates_per_player: np.ndarray,
    sample_size: int | None = None,
) -> np.ndarray:
    """The collective RSelect run player by player: one :func:`rselect` per
    player, each on the substream :func:`rselect_collective` derives for it
    (one batched player-major seed draw from the shared randomness)."""
    players = np.asarray(players, dtype=np.int64)
    objects = np.asarray(objects, dtype=np.int64)
    candidates_per_player = np.asarray(candidates_per_player, dtype=np.uint8)
    n_players, k, n_objects = candidates_per_player.shape
    if k == 1 or n_players == 0:
        return candidates_per_player[:, 0, :].copy()
    if sample_size is None:
        sample_size = ctx.constants.rselect_sample_size(ctx.n_players)
    rngs = _player_rngs(ctx, n_players)
    chosen = np.empty((n_players, n_objects), dtype=np.uint8)
    for i, player in enumerate(players):
        _, chosen[i] = rselect(
            ctx, int(player), objects, candidates_per_player[i],
            sample_size=sample_size, rng=rngs[i],
        )
    return chosen


def assert_same_board(board: BulletinBoard, reference: BulletinBoard) -> None:
    """Assert two boards hold the same channels with the same contents:
    their whole :meth:`BulletinBoard.export_channels` snapshots agree."""
    got, want = board.export_channels(""), reference.export_channels("")
    assert got["scalar"] == want["scalar"]
    assert got["reports"].keys() == want["reports"].keys()
    for channel, arrays in got["reports"].items():
        for got_rows, want_rows in zip(arrays, want["reports"][channel]):
            np.testing.assert_array_equal(got_rows, want_rows)


def assert_same_execution(ctx: ProtocolContext, reference: ProtocolContext) -> None:
    """Assert two executions left identical state behind: probe accounting,
    shared-randomness state, every strategy's internal state and the whole
    board."""
    np.testing.assert_array_equal(ctx.oracle.probes_used(), reference.oracle.probes_used())
    np.testing.assert_array_equal(
        ctx.oracle.requests_used(), reference.oracle.requests_used()
    )
    assert (
        ctx.randomness.generator.bit_generator.state
        == reference.randomness.generator.bit_generator.state
    )
    # A pickle captures a strategy's whole state: an adaptive strategy's
    # report count, a random reporter's generator, and so on.
    for player in range(ctx.n_players):
        strategy = ctx.pool.strategy_of(player)
        assert pickle.dumps(strategy) == pickle.dumps(reference.pool.strategy_of(player))
    assert_same_board(ctx.board, reference.board)
