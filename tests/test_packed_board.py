"""Property tests for the packed bulletin board and the packed dataflow.

The board stores report channels bit-packed (object-major rows, eight
players per byte).  Everything here asserts **bit-for-bit** equality with a
dense reference board on random posting histories — values, posted mask,
duplicate-pair resolution, index and value validation — plus channel
snapshots, the packed board-side kernels, the oracle's packed outputs and
per-player budgets, batched work sharing and scenario probe limits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import BudgetExceededError, ConfigurationError
from repro.obs.runtime import collecting
from repro.perf import (
    PackedBits,
    bit_cover,
    pack_bits,
    packed_masked_majority,
    packed_scatter_columns,
    packed_unique_rows,
)
from repro.core.clustering import Clustering, build_neighbor_graph
from repro.core.work_sharing import share_work
from repro.players.adversaries import (
    COALITION_STRATEGIES,
    InvertingStrategy,
    RandomReportStrategy,
    build_coalition,
)
from repro.preferences.generators import planted_clusters_instance, zero_radius_instance
from repro.protocols.context import make_context
from repro.scenarios.engine import _resolve_probe_limits, run_scenario
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import PopulationSpec, ProtocolSpec, ScenarioSpec
from repro.simulation.board import BulletinBoard
from repro.simulation.oracle import ProbeOracle
from reference_loops import (
    DenseReferenceBoard,
    assert_same_board,
    assert_same_execution,
    board_reports,
    share_work_per_cluster,
)


# Widths deliberately not multiples of eight: pad bits must never leak.
SHAPES = [(13, 21), (8, 8), (29, 50), (64, 17)]


@pytest.mark.parametrize("n_players,n_objects", SHAPES)
def test_random_posting_history_matches_dense_reference(n_players, n_objects):
    rng = np.random.default_rng(100 * n_players + n_objects)
    board = BulletinBoard(n_players, n_objects)
    reference = DenseReferenceBoard(n_players, n_objects)
    for step in range(30):
        kind = rng.integers(0, 3)
        if kind == 0:
            player = int(rng.integers(0, n_players))
            m = int(rng.integers(1, n_objects + 1))
            objects = rng.integers(0, n_objects, size=m)  # duplicates allowed
            values = rng.integers(0, 2, size=m, dtype=np.uint8)
            board.post_reports("ch", player, objects, values)
            reference.post_reports(player, objects, values)
        elif kind == 1:
            # An assignment: a player may repeat within an object row.
            k = int(rng.integers(0, 4))
            probers = rng.integers(0, n_players, size=(n_objects, k))
            values = rng.integers(0, 2, size=(n_objects, k), dtype=np.uint8)
            board.post_report_assignment("ch", probers, values)
            reference.post_assignment(probers, values)
        else:
            # Full-player posts, or unsorted players with repeats; objects
            # unsorted with repeats.  Repeats keep their last row/column.
            if rng.random() < 0.5:
                players = np.arange(n_players, dtype=np.int64)
            else:
                players = rng.integers(0, n_players, size=int(rng.integers(1, n_players + 1)))
            objects = rng.integers(0, n_objects, size=int(rng.integers(1, n_objects + 1)))
            values = rng.integers(0, 2, size=(players.size, objects.size), dtype=np.uint8)
            board.post_report_block("ch", players, objects, values)
            reference.post_block(players, objects, values)
        got_values, got_posted = board_reports(board, "ch")
        np.testing.assert_array_equal(got_values, reference.values, err_msg=f"step {step}")
        np.testing.assert_array_equal(got_posted, reference.posted, err_msg=f"step {step}")


@pytest.mark.parametrize("n_players,n_objects", SHAPES)
def test_full_player_block_posts_alike_in_either_memory_order(n_players, n_objects):
    # Protocols post full-player blocks both player-major (C-ordered, the z
    # publish) and as object-major views (F-ordered, the base and pub
    # posts); the packed rows must not depend on which.
    rng = np.random.default_rng(n_players + 7 * n_objects)
    players = np.arange(n_players, dtype=np.int64)
    objects = rng.permutation(n_objects)[: max(1, n_objects - 3)]
    values = rng.integers(0, 2, size=(n_players, objects.size), dtype=np.uint8)
    c_board, f_board = BulletinBoard(n_players, n_objects), BulletinBoard(n_players, n_objects)
    reference = DenseReferenceBoard(n_players, n_objects)
    c_board.post_report_block("z", players, objects, np.ascontiguousarray(values))
    f_board.post_report_block("z", players, objects, np.asfortranarray(values))
    reference.post_block(players, objects, values)
    assert_same_board(c_board, f_board)
    got_values, got_posted = board_reports(c_board, "z")
    np.testing.assert_array_equal(got_values, reference.values)
    np.testing.assert_array_equal(got_posted, reference.posted)


def test_player_repeated_in_an_object_row_resolves_last_wins_like_a_loop():
    board = BulletinBoard(6, 10)
    loop_board = BulletinBoard(6, 10)
    probers = np.tile(np.asarray([1, 4, 1, 0, 1]), (10, 1))
    probers[4] = [2, 2, 3, 2, 2]
    probers[7] = [3, 3, 3, 3, 3]
    values = np.random.default_rng(4).integers(0, 2, size=(10, 5), dtype=np.uint8)
    values[4] = [1, 0, 1, 1, 0]
    values[7] = [0, 1, 1, 0, 1]
    board.post_report_assignment("ch", probers, values)
    for obj in range(10):
        for player, value in zip(probers[obj], values[obj]):
            loop_board.post_reports("ch", int(player), np.asarray([obj]), np.asarray([value]))
    assert_same_board(board, loop_board)
    # The last entries of (2, 4) and (3, 7) carry 0 and 1: last wins.
    reported = board_reports(board, "ch")[0]
    assert reported[2, 4] == 0 and reported[3, 4] == 1 and reported[3, 7] == 1


def test_every_dropped_repeat_counts_as_dedup_dropped():
    board = BulletinBoard(6, 10)
    with collecting() as telemetry:
        board.post_reports("ch", 2, np.asarray([4, 1, 4, 4]), np.asarray([1, 0, 1, 0]))
        board.post_report_block(
            "ch", np.asarray([3, 0, 3]), np.asarray([5, 5, 2]), np.zeros((3, 3), dtype=np.uint8)
        )
        # Distinct indices drop nothing, and an assignment post writes
        # every entry, a player repeated in a row included.
        board.post_reports("ch", 0, np.asarray([9, 8]), np.asarray([1, 1]))
        board.post_report_assignment("ch", np.full((10, 2), 1), np.ones((10, 2)))
    # Two repeats of object 4, a repeated player and object.
    assert telemetry.report().counters["board.dedup_dropped"] == 2 + 2


class TestOwnershipAndIntegrity:
    def test_out_of_range_indices_rejected_everywhere(self):
        board = BulletinBoard(4, 6)
        with pytest.raises(ConfigurationError):
            board.post_reports("ch", 9, np.asarray([0]), np.asarray([1]))
        with pytest.raises(ConfigurationError):
            board.post_reports("ch", 0, np.asarray([6]), np.asarray([1]))
        with pytest.raises(ConfigurationError):
            board.post_report_assignment("ch", np.full((6, 1), 4), np.ones((6, 1)))
        with pytest.raises(ConfigurationError):
            board.post_report_assignment("ch", np.full((6, 1), -1), np.ones((6, 1)))
        with pytest.raises(ConfigurationError):
            board.post_report_block(
                "ch", np.asarray([0]), np.asarray([9]), np.zeros((1, 1), dtype=np.uint8)
            )

    def test_non_binary_and_misaligned_rejected(self):
        board = BulletinBoard(4, 6)
        values = np.ones((6, 2), dtype=np.uint8)
        values[3, 1] = 5
        with pytest.raises(ConfigurationError):
            board.post_report_assignment("ch", np.zeros((6, 2), dtype=np.int64), values)
        with pytest.raises(ConfigurationError):  # not one row per object
            board.post_report_assignment("ch", np.zeros((5, 2), dtype=np.int64), values[:5])
        with pytest.raises(ConfigurationError):  # values not aligned
            board.post_report_assignment("ch", np.zeros((6, 2), dtype=np.int64), values[:, :1])
        with pytest.raises(ConfigurationError):  # not an assignment matrix
            board.post_report_assignment("ch", np.zeros(6, dtype=np.int64), np.ones(6))
        with pytest.raises(ConfigurationError):
            board.post_report_block(
                "ch", np.asarray([0, 1]), np.asarray([0]), np.zeros((1, 1), dtype=np.uint8)
            )


class TestBoardReads:
    def test_reading_an_unknown_channel_does_not_create_it(self):
        board = BulletinBoard(4, 6)
        board.post_reports("ch", 1, np.asarray([0, 3]), np.asarray([1, 0]))
        channels, stats = board.channels(), board.channel_stats()
        majority, support = board.masked_majority("never-posted")
        np.testing.assert_array_equal(majority, np.ones(6, dtype=np.uint8))
        np.testing.assert_array_equal(support, np.zeros(6, dtype=np.int64))
        assert board.channels() == channels == ["ch"]
        assert board.channel_stats() == stats


class TestBoardSnapshots:
    def test_export_is_a_private_copy(self):
        board = BulletinBoard(5, 9)
        board.post_reports("ch", 0, np.asarray([2]), np.asarray([1]))
        values, posted = board.export_channels("ch")["reports"]["ch"]
        values[:] = 0
        posted[:] = 0
        got_values, got_posted = board_reports(board, "ch")
        assert got_values[0, 2] == 1 and got_posted[0, 2]

    def test_snapshots_follow_later_posts(self):
        board = BulletinBoard(5, 9)
        board.post_reports("ch", 0, np.asarray([2]), np.asarray([1]))
        before_values, _ = board_reports(board, "ch")
        board.post_reports("ch", 0, np.asarray([2]), np.asarray([0]))
        after_values, after_posted = board_reports(board, "ch")
        assert before_values[0, 2] == 1 and after_values[0, 2] == 0
        assert after_posted[0, 2]

    def test_export_selects_channels_by_prefix(self):
        board = BulletinBoard(6, 8)
        board.post_reports("ws/c0", 2, np.asarray([3]), np.asarray([1]))
        board.post_reports("sr/base", 4, np.asarray([5]), np.asarray([0]))
        payload = board.export_channels("ws/")
        assert list(payload["reports"]) == ["ws/c0"]
        assert sorted(board.export_channels("")["reports"]) == ["sr/base", "ws/c0"]

    def test_absorb_round_trips_an_export(self):
        rng = np.random.default_rng(11)
        source, target = BulletinBoard(13, 21), BulletinBoard(13, 21)
        for channel in ("d1/a", "d1/b"):
            probers = rng.integers(0, 13, size=(21, 2))
            values = rng.integers(0, 2, size=(21, 2), dtype=np.uint8)
            source.post_report_assignment(channel, probers, values)
        target.absorb_channels(source.export_channels("d1/"))
        assert_same_board(target, source)
        assert target.channel_stats() == source.channel_stats()
        for channel in ("d1/a", "d1/b"):
            for got, want in zip(
                target.masked_majority(channel), source.masked_majority(channel)
            ):
                np.testing.assert_array_equal(got, want)

    def test_absorb_replaces_a_channel_wholesale(self):
        source, target = BulletinBoard(6, 9), BulletinBoard(6, 9)
        source.post_reports("ch", 2, np.asarray([0, 4]), np.asarray([1, 0]))
        target.post_reports("ch", 5, np.asarray([7, 8]), np.asarray([1, 1]))
        target.post_reports("other", 1, np.asarray([3]), np.asarray([1]))
        target.absorb_channels(source.export_channels("ch"))
        values, posted = board_reports(target, "ch")
        want_values, want_posted = board_reports(source, "ch")
        # Target's own cells of "ch" are gone, not merged with the import.
        np.testing.assert_array_equal(values, want_values)
        np.testing.assert_array_equal(posted, want_posted)
        assert not posted[5].any()
        assert target.channel_stats() == {
            "ch": {"report_cells": 2},
            "other": {"report_cells": 1},
        }

    def test_export_with_an_unmatched_prefix_is_empty(self):
        board = BulletinBoard(6, 9)
        board.post_reports("ws/c0", 2, np.asarray([3]), np.asarray([1]))
        payload = board.export_channels("sr/")
        assert payload == {"reports": {}}
        target = BulletinBoard(6, 9)
        target.post_reports("ws/c0", 0, np.asarray([1]), np.asarray([0]))
        stats = target.channel_stats()
        target.absorb_channels(payload)
        assert target.channel_stats() == stats

    @pytest.mark.parametrize("shape", [(17, 9), (6, 10)])
    def test_absorb_rejects_a_channel_of_another_shape(self, shape):
        source, target = BulletinBoard(*shape), BulletinBoard(6, 9)
        source.post_reports("ch", 0, np.asarray([1]), np.asarray([1]))
        with pytest.raises(ConfigurationError):
            target.absorb_channels(source.export_channels("ch"))
        assert target.channels() == []

    def test_absorbed_channels_do_not_alias_the_payload(self):
        source, target = BulletinBoard(6, 9), BulletinBoard(6, 9)
        source.post_reports("ch", 2, np.asarray([0, 4]), np.asarray([1, 1]))
        payload = source.export_channels("ch")
        target.absorb_channels(payload)
        for rows in payload["reports"]["ch"]:
            rows[:] = 0
        assert_same_board(target, source)


class TestBoardReductions:
    def test_reporters_support_and_masked_majority_match_dense(self):
        rng = np.random.default_rng(3)
        n_players, n_objects = 21, 33
        board = BulletinBoard(n_players, n_objects)
        reference = DenseReferenceBoard(n_players, n_objects)
        for _ in range(12):
            k = int(rng.integers(1, 4))
            probers = rng.integers(0, n_players, size=(n_objects, k))
            values = rng.integers(0, 2, size=(n_objects, k), dtype=np.uint8)
            board.post_report_assignment("ch", probers, values)
            reference.post_assignment(probers, values)
        _, posted = board_reports(board, "ch")
        for obj in range(n_objects):
            np.testing.assert_array_equal(
                np.flatnonzero(posted[:, obj]), np.flatnonzero(reference.posted[:, obj])
            )
        majority, support = board.masked_majority("ch")
        likes = (reference.values * reference.posted).sum(axis=0)
        votes = reference.posted.sum(axis=0)
        expected = np.where(votes > 0, 2 * likes >= votes, 1).astype(np.uint8)
        np.testing.assert_array_equal(majority, expected)
        np.testing.assert_array_equal(support, votes)


class TestPackedKernels:
    @pytest.mark.parametrize("n_bits", [1, 7, 8, 9, 64, 65])
    def test_bit_cover_matches_packbits_of_ones(self, n_bits):
        np.testing.assert_array_equal(
            bit_cover(n_bits), np.packbits(np.ones(n_bits, dtype=np.uint8))
        )

    def test_scatter_then_gather_roundtrip(self):
        rng = np.random.default_rng(5)
        rows, width = 17, 43
        dense = rng.integers(0, 2, size=(rows, width), dtype=np.uint8)
        dest = np.packbits(dense, axis=1)
        columns = np.sort(rng.choice(width, size=19, replace=False))
        bits = rng.integers(0, 2, size=(rows, columns.size), dtype=np.uint8)
        packed_scatter_columns(dest, columns, bits)
        dense[:, columns] = bits
        unpacked = np.unpackbits(dest, axis=1, count=width)
        np.testing.assert_array_equal(unpacked, dense)
        np.testing.assert_array_equal(unpacked[:, columns], bits)

    def test_scatter_row_subset(self):
        rng = np.random.default_rng(6)
        rows, width = 12, 30
        dense = rng.integers(0, 2, size=(rows, width), dtype=np.uint8)
        dest = np.packbits(dense, axis=1)
        subset = np.asarray([2, 5, 9])
        columns = np.asarray([0, 7, 8, 29])
        bits = rng.integers(0, 2, size=(subset.size, columns.size), dtype=np.uint8)
        packed_scatter_columns(dest, columns, bits, rows=subset)
        dense[subset[:, None], columns[None, :]] = bits
        np.testing.assert_array_equal(np.unpackbits(dest, axis=1, count=width), dense)

    def test_scatter_rejects_unsorted_columns(self):
        from repro.errors import ProtocolError

        dest = np.zeros((2, 2), dtype=np.uint8)
        with pytest.raises(ProtocolError):
            packed_scatter_columns(
                dest, np.asarray([3, 1]), np.zeros((2, 2), dtype=np.uint8)
            )

    def test_masked_majority_kernel_matches_dense(self):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 2, size=(25, 37), dtype=np.uint8)
        posted = rng.integers(0, 2, size=(25, 37), dtype=np.uint8)
        posted[3] = 0  # a row nobody posted to reads as 1
        majority, support = packed_masked_majority(pack_bits(values), pack_bits(posted))
        likes = (values & posted).sum(axis=1)
        votes = posted.sum(axis=1)
        np.testing.assert_array_equal(support, votes)
        np.testing.assert_array_equal(
            majority, np.where(votes > 0, 2 * likes >= votes, 1).astype(np.uint8)
        )

    def test_packed_unique_rows_accepts_packed_input(self):
        rng = np.random.default_rng(8)
        rows = rng.integers(0, 2, size=(40, 19), dtype=np.uint8)[
            rng.integers(0, 6, size=40)
        ]
        ref_rows, ref_counts = np.unique(rows, axis=0, return_counts=True)
        got_rows, got_counts = packed_unique_rows(pack_bits(rows))
        np.testing.assert_array_equal(got_rows, ref_rows)
        np.testing.assert_array_equal(got_counts, ref_counts)

    def test_neighbor_graph_accepts_packed_input(self):
        rng = np.random.default_rng(9)
        rows = rng.integers(0, 2, size=(20, 31), dtype=np.uint8)
        np.testing.assert_array_equal(
            build_neighbor_graph(rows, 7.0), build_neighbor_graph(pack_bits(rows), 7.0)
        )


class TestOraclePackedPaths:
    def test_probe_block_packed_equals_dense(self):
        rng = np.random.default_rng(10)
        truth = rng.integers(0, 2, size=(14, 26), dtype=np.uint8)
        dense_oracle, packed_oracle = ProbeOracle(truth), ProbeOracle(truth)
        players = np.arange(14, dtype=np.int64)
        objects = np.sort(rng.choice(26, size=11, replace=False))
        dense = dense_oracle.probe_block(players, objects)
        packed = packed_oracle.probe_block(players, objects, packed=True)
        assert isinstance(packed, PackedBits)
        np.testing.assert_array_equal(packed.unpack(), dense)
        np.testing.assert_array_equal(
            dense_oracle.probes_used(), packed_oracle.probes_used()
        )

    def test_probe_ragged_packed_equals_padded_dense(self):
        rng = np.random.default_rng(11)
        truth = rng.integers(0, 2, size=(9, 30), dtype=np.uint8)
        flat_oracle, packed_oracle = ProbeOracle(truth), ProbeOracle(truth)
        players = np.asarray([0, 2, 5, 8])
        lists = [rng.choice(30, size=size, replace=False) for size in (4, 0, 9, 2)]
        lengths = np.asarray([len(objs) for objs in lists])
        flat = flat_oracle.probe_ragged(players, np.concatenate(lists), lengths)
        packed = packed_oracle.probe_ragged(
            players, np.concatenate(lists), lengths, packed=True
        )
        rows = np.zeros((4, 9), dtype=np.uint8)
        rows[np.arange(9)[None, :] < lengths[:, None]] = flat
        np.testing.assert_array_equal(packed.unpack(), rows)
        np.testing.assert_array_equal(
            flat_oracle.probes_used(), packed_oracle.probes_used()
        )
        np.testing.assert_array_equal(
            flat_oracle.requests_used(), packed_oracle.requests_used()
        )

    def test_per_player_budget_enforced_for_the_right_player(self):
        truth = np.ones((4, 10), dtype=np.uint8)
        limits = np.asarray([10, 2, 10, 10])
        oracle = ProbeOracle(truth, budget=limits, enforce_budget=True)
        oracle.probe_objects(1, np.asarray([0, 1]))  # exactly at the cap
        with pytest.raises(BudgetExceededError) as info:
            oracle.probe_objects(1, np.asarray([5]))
        assert info.value.player == 1
        # Other players keep probing under their own caps.
        oracle.probe_objects(0, np.arange(10))

    def test_per_player_budget_enforced_on_pair_paths(self):
        truth = np.ones((4, 10), dtype=np.uint8)
        oracle = ProbeOracle(
            truth, budget=np.asarray([1, 8, 8, 8]), enforce_budget=True
        )
        # Player 0 probes objects 1 and 2; nobody else passes 3 probes.
        probers = np.asarray([[1], [0], [0], [2], [3], [1], [2], [3], [1], [2]])
        with pytest.raises(BudgetExceededError) as info:
            oracle.probe_assignment(probers)
        assert info.value.player == 0
        # The whole batch is checked before any charge.
        assert not oracle.probes_used().any()
        assert not oracle.probe_state()[0].any()

    def test_per_player_budget_validation(self):
        truth = np.ones((3, 4), dtype=np.uint8)
        with pytest.raises(ConfigurationError):
            ProbeOracle(truth, budget=np.asarray([1, 2]))  # wrong shape
        with pytest.raises(ConfigurationError):
            ProbeOracle(truth, budget=np.asarray([1, 0, 2]))  # non-positive


class TestShareWorkBatching:
    @pytest.mark.parametrize(
        "strategy",
        [pytest.param(None, id="honest"), *COALITION_STRATEGIES, "shared-random"],
    )
    def test_batched_share_work_bit_identical_to_cluster_loop(self, strategy):
        instance = planted_clusters_instance(48, 60, n_clusters=3, diameter=6, seed=2)
        clusters = [
            np.flatnonzero(instance.cluster_of == cid) for cid in range(3)
        ]
        assignment = instance.cluster_of.copy()
        clustering = Clustering(assignment=assignment, clusters=clusters)

        def context():
            strategies = None
            if strategy == "shared-random":
                # One instance behind liars in every cluster: each lies per
                # player and channel, so the per-cluster posts differ.
                shared = RandomReportStrategy(seed=5)
                strategies = {int(p): shared for p in (1, 7, 18, 30, 41)}
            elif strategy is not None:
                # A one-player victim set lets the liars land in every
                # cluster.
                strategies, _ = build_coalition(
                    instance.preferences, 6, strategy,
                    victim_cluster=np.asarray([0]), seed=5,
                )
            return make_context(instance, budget=4, strategies=strategies, seed=77)

        ctx_b = context()
        labels, rows = share_work(ctx_b, clustering)
        batched = rows[labels]
        ctx_l = context()
        looped = share_work_per_cluster(ctx_l, clustering)
        np.testing.assert_array_equal(batched, looped)
        assert_same_execution(ctx_b, ctx_l)

    @pytest.mark.parametrize("liars", [0, 3])
    def test_share_work_recovers_cluster_consensus(self, liars):
        # Zero-radius clusters: each cluster's members share one preference
        # vector, which every member's vote recovers exactly; three
        # inverting liars (1/8 of cluster 0) flip almost nothing.
        instance = zero_radius_instance(n_players=48, n_objects=48, n_clusters=2, seed=3)
        clusters = [instance.cluster_members(cid) for cid in range(2)]
        clustering = Clustering(assignment=instance.cluster_of.copy(), clusters=clusters)
        strategies = {int(p): InvertingStrategy() for p in clusters[0][:liars]}

        def context():
            return make_context(instance, budget=4, strategies=strategies, seed=3)

        ctx_b = context()
        labels, rows = share_work(ctx_b, clustering)
        batched = rows[labels]
        ctx_l = context()
        np.testing.assert_array_equal(batched, share_work_per_cluster(ctx_l, clustering))
        assert_same_execution(ctx_b, ctx_l)
        for members in clusters:
            errors = (batched[members] != instance.preferences[members[-1]]).sum(axis=1)
            assert errors.max() <= (3 if liars else 0)


class TestScenarioProbeLimits:
    def test_factors_resolve_per_cluster(self):
        spec = ScenarioSpec(
            name="x",
            description="d",
            population=PopulationSpec(
                n_players=12, n_objects=16, generator="zero-radius",
                params={"n_clusters": 2},
            ),
            protocol=ProtocolSpec(
                name="zero-radius", budget=4,
                probe_limit=10, probe_limit_factors=(2.0, 0.5),
            ),
        )
        instance = planted_clusters_instance(12, 16, n_clusters=2, diameter=2, seed=0)
        limits = _resolve_probe_limits(spec, instance)
        np.testing.assert_array_equal(
            np.unique(limits[instance.cluster_of == 0]), [20]
        )
        np.testing.assert_array_equal(
            np.unique(limits[instance.cluster_of == 1]), [5]
        )

    def test_factors_require_limit_and_positive_values(self):
        with pytest.raises(ConfigurationError):
            ProtocolSpec(probe_limit_factors=(1.0,))
        with pytest.raises(ConfigurationError):
            ProtocolSpec(probe_limit=5, probe_limit_factors=(0.0,))
        with pytest.raises(ConfigurationError):
            ProtocolSpec(probe_limit=0)

    def test_registry_family_runs_inside_its_caps(self):
        row = run_scenario(get_scenario("rationed-budgets"), seed=3)
        assert row["max_probes"] <= int(round(64 * 1.5))
        assert row["max_error"] == 0  # zero-radius clusters are exact

    def test_tight_caps_actually_bite(self):
        spec = get_scenario("rationed-budgets")
        from repro.scenarios.spec import apply_override

        strangled = apply_override(spec, "protocol.probe_limit", 2)
        strangled = apply_override(strangled, "protocol.probe_limit_factors", ())
        with pytest.raises(BudgetExceededError):
            run_scenario(strangled, seed=3)
