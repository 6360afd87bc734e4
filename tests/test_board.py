"""Tests for the bulletin board: report channels, attribution, channel stats."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.simulation.board import BulletinBoard
from reference_loops import board_reports


@pytest.fixture
def board():
    return BulletinBoard(n_players=6, n_objects=10)


class TestReportChannels:
    def test_post_and_read_reports(self, board):
        board.post_reports("probes", player=3, objects=np.asarray([1, 4]), values=np.asarray([1, 0]))
        values, posted = board_reports(board, "probes")
        assert values[3, 1] == 1 and values[3, 4] == 0
        assert posted[3, 1] and posted[3, 4]
        assert not posted[3, 2]

    def test_reporters_of(self, board):
        board.post_reports("probes", 0, np.asarray([2]), np.asarray([1]))
        board.post_reports("probes", 5, np.asarray([2]), np.asarray([0]))
        _, posted = board_reports(board, "probes")
        np.testing.assert_array_equal(np.flatnonzero(posted[:, 2]), [0, 5])

    def test_block_post(self, board):
        players = np.asarray([0, 1])
        objects = np.asarray([3, 4, 5])
        values = np.asarray([[1, 0, 1], [0, 0, 1]], dtype=np.uint8)
        board.post_report_block("blk", players, objects, values)
        got, posted = board_reports(board, "blk")
        np.testing.assert_array_equal(got[np.ix_(players, objects)], values)
        assert posted[np.ix_(players, objects)].all()

    def test_non_binary_rejected(self, board):
        with pytest.raises(ConfigurationError):
            board.post_reports("c", 0, np.asarray([0]), np.asarray([2]))

    def test_misaligned_rejected(self, board):
        with pytest.raises(ConfigurationError):
            board.post_reports("c", 0, np.asarray([0, 1]), np.asarray([1]))
        with pytest.raises(ConfigurationError):
            board.post_report_block(
                "c", np.asarray([0]), np.asarray([0, 1]), np.zeros((2, 2), dtype=np.uint8)
            )

    def test_out_of_range_object_rejected(self, board):
        with pytest.raises(ConfigurationError):
            board.post_reports("c", 0, np.asarray([50]), np.asarray([1]))

    def test_empty_post_is_noop(self, board):
        board.post_reports("c", 0, np.asarray([], dtype=np.int64), np.asarray([], dtype=np.uint8))
        _, posted = board_reports(board, "c")
        assert not posted.any()

    def test_player_may_overwrite_own_reports(self, board):
        board.post_reports("c", 1, np.asarray([2, 7]), np.asarray([1, 1]))
        board.post_reports("c", 1, np.asarray([7]), np.asarray([0]))
        values, posted = board_reports(board, "c")
        assert values[1, 2] == 1 and values[1, 7] == 0
        assert posted[1, 2] and posted[1, 7]
        # Re-posting a cell does not count it twice.
        assert board.channel_stats() == {"c": {"report_cells": 2}}

    def test_post_leaves_other_players_cells_untouched(self, board):
        # Integrity: players 1 and 2 share a packed byte, so each post must
        # rewrite only its own player's bits.
        objects = np.asarray([0, 3, 9])
        board.post_reports("c", 1, objects, np.asarray([1, 1, 1]))
        board.post_reports("c", 2, objects, np.asarray([0, 0, 0]))
        # Player 2 reports on every object, 1 only on object 0.
        reports = np.zeros((10, 1), dtype=np.uint8)
        reports[0] = 1
        board.post_report_assignment("c", np.full((10, 1), 2), reports)
        board.post_report_block(
            "c", np.asarray([0, 3]), objects, np.zeros((2, 3), dtype=np.uint8)
        )
        values, posted = board_reports(board, "c")
        np.testing.assert_array_equal(values[1, objects], [1, 1, 1])
        np.testing.assert_array_equal(values[2, objects], [1, 0, 0])
        assert posted[[0, 1, 2, 3]][:, objects].all()
        assert posted[2].all() and not posted[1, [1, 2]].any()
        assert not posted[[4, 5]].any()

    def test_rejected_assignment_post_writes_nothing(self, board):
        board.post_reports("c", 0, np.asarray([1]), np.asarray([1]))
        before = board_reports(board, "c")
        probers = np.tile(np.asarray([0, 3]), (10, 1))
        probers[9, 1] = 6  # the last entry names a player outside the board
        with pytest.raises(ConfigurationError):
            board.post_report_assignment("c", probers, np.ones((10, 2), dtype=np.uint8))
        after = board_reports(board, "c")
        for got, want in zip(after, before):
            np.testing.assert_array_equal(got, want)
        assert board.channels() == ["c"]


class TestChannels:
    def test_channels_listing(self, board):
        board.post_reports("b", 0, np.asarray([0]), np.asarray([1]))
        board.post_reports("a", 0, np.asarray([0]), np.asarray([1]))
        assert board.channels() == ["a", "b"]

    def test_channel_stats_carry_only_posted_cell_counts(self, board):
        board.post_reports("a", 2, np.asarray([1, 4, 4]), np.asarray([1, 0, 1]))
        # Players 0 and 5 report on every object, player 5 twice on object 9.
        probers = np.tile(np.asarray([0, 5]), (10, 1))
        probers[9] = 5
        board.post_report_assignment("b", probers, np.ones((10, 2), dtype=np.uint8))
        expected = {"a": {"report_cells": 2}, "b": {"report_cells": 19}}
        assert board.channel_stats() == expected
        restored = BulletinBoard(n_players=6, n_objects=10)
        restored.absorb_channels(board.export_channels(""))
        assert restored.channel_stats() == expected

    def test_empty_posts_create_no_channel(self, board):
        empty = np.asarray([], dtype=np.int64)
        board.post_reports("a", 0, empty, empty)
        board.post_report_assignment(
            "b", np.zeros((10, 0), dtype=np.int64), np.zeros((10, 0), dtype=np.uint8)
        )
        board.post_report_block("c", np.asarray([0, 1]), empty, np.zeros((2, 0), dtype=np.uint8))
        assert board.channels() == []
        assert board.channel_stats() == {}
        assert board.export_channels("") == {"reports": {}}

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            BulletinBoard(0, 5)
        with pytest.raises(ConfigurationError):
            BulletinBoard(5, 0)
