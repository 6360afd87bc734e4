"""Tests for the ProtocolContext plumbing and the make_context factory."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    AdversarialRandomness,
    ProtocolConstants,
    SharedRandomness,
    make_context,
    planted_clusters_instance,
)
from repro.errors import ConfigurationError
from repro.players.adversaries import InvertingStrategy
from repro.players.base import PlayerPool
from repro.protocols.context import ProtocolContext
from repro.simulation.board import BulletinBoard
from repro.simulation.oracle import ProbeOracle
from reference_loops import board_reports


@pytest.fixture
def instance():
    return planted_clusters_instance(16, 24, n_clusters=2, diameter=4, seed=0)


class TestMakeContext:
    def test_defaults(self, instance):
        ctx = make_context(instance, budget=4, seed=0)
        assert ctx.n_players == 16
        assert ctx.n_objects == 24
        assert ctx.budget == 4
        assert ctx.randomness.honest
        assert ctx.pool.n_dishonest == 0
        np.testing.assert_array_equal(ctx.all_players(), np.arange(16))
        np.testing.assert_array_equal(ctx.all_objects(), np.arange(24))

    def test_strategies_and_custom_randomness(self, instance):
        ctx = make_context(
            instance,
            budget=2,
            strategies={3: InvertingStrategy()},
            randomness=AdversarialRandomness(0),
            seed=1,
        )
        assert ctx.pool.n_dishonest == 1
        assert not ctx.randomness.honest

    def test_invalid_budget(self, instance):
        with pytest.raises(ConfigurationError):
            make_context(instance, budget=0)

    def test_mismatched_components_rejected(self, instance):
        oracle = ProbeOracle(instance.preferences)
        board = BulletinBoard(instance.n_players, instance.n_objects)
        wrong_pool = PlayerPool(instance.preferences[:8])
        with pytest.raises(ConfigurationError):
            ProtocolContext(
                oracle=oracle,
                board=board,
                pool=wrong_pool,
                randomness=SharedRandomness(0),
                constants=ProtocolConstants.practical(),
                budget=2,
            )


class TestContextOperations:
    def test_probe_and_report_block_truth_vs_reports(self, instance):
        ctx = make_context(instance, budget=2, strategies={0: InvertingStrategy()}, seed=2)
        players = np.asarray([0, 1])
        objects = np.asarray([0, 1, 2])
        true_block, reported = ctx.probe_and_report_block("chan", players, objects)
        np.testing.assert_array_equal(true_block, instance.preferences[np.ix_(players, objects)])
        np.testing.assert_array_equal(reported[1], true_block[1])       # honest row
        np.testing.assert_array_equal(reported[0], 1 - true_block[0])   # liar row
        # The board saw the *reported* values, not the truth.
        values, posted = board_reports(ctx.board, "chan")
        np.testing.assert_array_equal(values[0, objects], 1 - true_block[0])
        assert posted[np.ix_(players, objects)].all()
        # Probes were charged for both players.
        assert ctx.oracle.probes_used()[0] == 3
        assert ctx.oracle.probes_used()[1] == 3

    def test_publish_vectors_routes_through_strategies(self, instance):
        ctx = make_context(instance, budget=2, strategies={2: InvertingStrategy()}, seed=3)
        players = np.asarray([2, 3])
        objects = np.arange(5)
        vectors = np.zeros((2, 5), dtype=np.uint8)
        published = ctx.publish_vectors("z", players, objects, vectors)
        np.testing.assert_array_equal(published[0], np.ones(5))   # inverted
        np.testing.assert_array_equal(published[1], np.zeros(5))  # honest
        # Publishing consumes no probes.
        assert ctx.oracle.total_probes() == 0

    def test_with_randomness_swaps_only_randomness(self, instance):
        ctx = make_context(instance, budget=2, seed=4)
        replacement = AdversarialRandomness(1)
        swapped = ctx.with_randomness(replacement)
        assert swapped.randomness is replacement
        assert swapped.oracle is ctx.oracle
        assert swapped.board is ctx.board
        assert swapped.pool is ctx.pool
        assert ctx.randomness is not replacement
