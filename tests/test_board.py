"""Tests for the bulletin board: attribution, integrity, report channels."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import BoardOwnershipError, ConfigurationError
from repro.simulation.board import BulletinBoard
from reference_loops import board_reports


@pytest.fixture
def board():
    return BulletinBoard(n_players=6, n_objects=10)


class TestScalarPosts:
    def test_post_and_read(self, board):
        board.post("leader", owner=2, key="seed", value=1234)
        assert board.read("leader", "seed") == 1234

    def test_read_missing_returns_default(self, board):
        assert board.read("leader", "missing", default="d") == "d"

    def test_same_owner_may_overwrite(self, board):
        board.post("c", owner=1, key="k", value=1)
        board.post("c", owner=1, key="k", value=2)
        assert board.read("c", "k") == 2

    def test_other_player_cannot_overwrite(self, board):
        board.post("c", owner=1, key="k", value=1)
        with pytest.raises(BoardOwnershipError):
            board.post("c", owner=3, key="k", value=99)
        assert board.read("c", "k") == 1

    def test_invalid_owner_rejected(self, board):
        with pytest.raises(ConfigurationError):
            board.post("c", owner=10, key="k", value=1)

    def test_entries_iteration(self, board):
        board.post("c", owner=0, key="a", value=1)
        board.post("c", owner=1, key="b", value=2)
        owners = sorted(e.owner for e in board.entries("c"))
        assert owners == [0, 1]


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


class TestChannels:
    def test_channels_listing(self, board):
        board.post("a", 0, "k", 1)
        board.post_reports("b", 0, np.asarray([0]), np.asarray([1]))
        assert board.channels() == ["a", "b"]

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            BulletinBoard(0, 5)
        with pytest.raises(ConfigurationError):
            BulletinBoard(5, 0)
