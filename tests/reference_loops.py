"""Reference loops the batched protocol paths are tested against.

Each function here is the plain, one-step-at-a-time form of a batched
production path: SmallRadius run subset by subset, work sharing run cluster
by cluster (one :func:`cluster_majority_vote` each), and the collective
RSelect run player by player.  They make the same probes, posts and
shared-randomness draws in the order the protocol describes them, so a
batched path is correct exactly when it matches its reference bit for bit
(outputs, probe accounting, randomness state, strategies and board
contents).  :func:`block_words_reduceat` is the player-major ``reduceat``
form of SmallRadius' block-word builder, :class:`DenseReferenceBoard` is
the bulletin board as dense matrices written cell by cell,
:func:`board_reports` reads a report channel back as dense matrices, and
:func:`planted_clusters_per_row` builds the planted instance's preferences
flipping one row at a time.  Nothing in ``src/`` calls them.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro._typing import SeedLike, as_generator
from repro.core.clustering import Clustering
from repro.protocols.context import ProtocolContext
from repro.protocols.rselect import _player_rngs, rselect
from repro.protocols.select import select_collective, select_per_player
from repro.protocols.zero_radius import popular_vectors, zero_radius
from repro.simulation.board import BulletinBoard


class DenseReferenceBoard:
    """The pre-packed board semantics: dense matrices written one cell at a
    time in call order, so a repeated cell keeps its last value."""

    def __init__(self, n_players: int, n_objects: int) -> None:
        self.values = np.zeros((n_players, n_objects), dtype=np.uint8)
        self.posted = np.zeros((n_players, n_objects), dtype=bool)

    def post_reports(self, player, objects, values):
        for obj, value in zip(objects, values):
            self.values[player, obj] = value
            self.posted[player, obj] = True

    def post_pairs(self, players, objects, values):
        for player, obj, value in zip(players, objects, values):
            self.values[player, obj] = value
            self.posted[player, obj] = True

    def post_block(self, players, objects, values):
        for i, player in enumerate(players):
            self.post_reports(player, objects, values[i])

    def post_assignment(self, probers, values):
        """Row ``o`` of ``probers`` reports ``values[o]`` on object ``o``,
        entry after entry in row order."""
        for obj, (row_players, row_values) in enumerate(zip(probers, values)):
            for player, value in zip(row_players, row_values):
                self.values[player, obj] = value
                self.posted[player, obj] = True


def flip_within_radius_per_row(
    center: np.ndarray, radius: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` copies of ``center``, each flipping its own draw of
    positions, written row by row: per row a flip count of at most
    ``min(radius, len(center))``, then for a row with flips one ``choice``
    of that many distinct positions."""
    n_objects = center.shape[0]
    radius = min(radius, n_objects)
    out = np.tile(center, (count, 1))
    if radius == 0 or count == 0:
        return out
    for row, flips in enumerate(rng.integers(0, radius + 1, size=count)):
        if flips:
            out[row, rng.choice(n_objects, size=int(flips), replace=False)] ^= 1
    return out


def planted_clusters_per_row(
    n_players: int, n_objects: int, n_clusters: int, diameter: int, seed: SeedLike
) -> np.ndarray:
    """The preferences of ``planted_clusters_instance`` with the same draws
    (the balanced assignment, the centres, then cluster by cluster its
    members' flips), each row flipped on its own."""
    rng = as_generator(seed)
    base = np.repeat(np.arange(n_clusters), int(np.ceil(n_players / n_clusters)))
    assignment = rng.permutation(base[:n_players])
    centers = rng.integers(0, 2, size=(n_clusters, n_objects), dtype=np.uint8)
    preferences = np.empty((n_players, n_objects), dtype=np.uint8)
    for cluster_id in range(n_clusters):
        members = np.flatnonzero(assignment == cluster_id)
        preferences[members] = flip_within_radius_per_row(
            centers[cluster_id], diameter // 2, members.size, rng
        )
    return preferences


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
        (repetitions, objects.size, players.size), dtype=np.uint8
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
        repetition_candidates[rep] = assembled.T

    if repetitions == 1:
        return repetition_candidates[0].T.copy()
    return select_per_player(
        ctx, players, objects, repetition_candidates, sample_size=select_sample
    ).T.copy()


def cluster_majority_vote(
    ctx: ProtocolContext, members: np.ndarray, redundancy: int, channel: str
) -> np.ndarray:
    """One cluster's shared prediction vector by redundant probing: for
    every object, ``redundancy`` members chosen by the shared randomness
    (with replacement) probe it and post their reports, and the prediction
    is the majority of the posted reports (ties go to 1).  Each (member,
    object) pair is probed, reported and posted on its own, through the
    one-player paths ``probe_objects``, ``reports_for`` and
    ``post_reports``."""
    members = np.asarray(members, dtype=np.int64)
    n_objects = ctx.n_objects
    assignment = ctx.randomness.assign_probers(members, n_objects, redundancy)
    reported = np.empty((n_objects, redundancy), dtype=np.uint8)
    for obj in range(n_objects):
        cell = np.asarray([obj])
        for slot, player in enumerate(assignment[obj].tolist()):
            true_value = ctx.oracle.probe_objects(player, cell)
            reported[obj, slot] = ctx.pool.reports_for(channel, player, cell, true_value)[0]
            ctx.board.post_reports(channel, player, cell, reported[obj, slot : slot + 1])
    likes = reported.sum(axis=1, dtype=np.int64)
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


def dense_slots(candidates_per_player: np.ndarray) -> list[np.ndarray]:
    """The ``k`` dense slots of a ``(P, k, m)`` per-player candidate stack,
    as :func:`~repro.protocols.rselect.rselect_collective` takes them."""
    return [candidates_per_player[:, slot] for slot in range(candidates_per_player.shape[1])]


def rselect_collective_serial(
    ctx: ProtocolContext,
    players: np.ndarray,
    objects: np.ndarray,
    candidates_per_player: np.ndarray,
    sample_size: int | None = None,
) -> np.ndarray:
    """The collective RSelect run player by player: one :func:`rselect` per
    player, each on the substream :func:`rselect_collective` derives for it
    (one batched player-major seed draw from the shared randomness).
    Player ``players[i]`` chooses among ``candidates_per_player[i]``, a
    dense ``(P, k, m)`` stack."""
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
    assert got["reports"].keys() == want["reports"].keys()
    for channel, arrays in got["reports"].items():
        for got_rows, want_rows in zip(arrays, want["reports"][channel]):
            np.testing.assert_array_equal(got_rows, want_rows)


def assert_same_execution(ctx: ProtocolContext, reference: ProtocolContext) -> None:
    """Assert two executions left identical state behind: probe accounting,
    shared-randomness state, every strategy and the whole board."""
    np.testing.assert_array_equal(ctx.oracle.probes_used(), reference.oracle.probes_used())
    np.testing.assert_array_equal(
        ctx.oracle.requests_used(), reference.oracle.requests_used()
    )
    assert (
        ctx.randomness.generator.bit_generator.state
        == reference.randomness.generator.bit_generator.state
    )
    # A pickle captures a strategy's whole state, and the two runs group
    # their report calls differently: a call that changed a strategy would
    # show here.
    for player in range(ctx.n_players):
        strategy = ctx.pool.strategy_of(player)
        assert pickle.dumps(strategy) == pickle.dumps(reference.pool.strategy_of(player))
    assert_same_board(ctx.board, reference.board)
