"""Tests for Select / distance estimation and RSelect (Theorems 3, Select)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import make_context, zero_radius_instance
from repro.errors import ProtocolError
from repro.preferences.generators import PlantedInstance, planted_clusters_instance
from repro.protocols.rselect import rselect, rselect_collective
from repro.protocols.select import (
    estimate_distances,
    select_collective,
    select_per_player,
)


@pytest.fixture
def ctx(constants):
    instance = planted_clusters_instance(24, 64, n_clusters=3, diameter=4, seed=0)
    return make_context(instance, budget=4, constants=constants, seed=0)


def _candidates_for(ctx, player: int, distances: list[int], rng) -> np.ndarray:
    """Candidates at the given Hamming distances from a player's true vector."""
    truth = ctx.oracle.ground_truth()[player]
    out = np.empty((len(distances), truth.size), dtype=np.uint8)
    for row, distance in enumerate(distances):
        vector = truth.copy()
        if distance:
            flip = rng.choice(truth.size, size=distance, replace=False)
            vector[flip] ^= 1
        out[row] = vector
    return out


class TestEstimateDistances:
    def test_exact_when_sample_covers_everything(self, ctx, rng):
        candidates = _candidates_for(ctx, 0, [0, 5, 20], rng)
        distances, _ = estimate_distances(
            ctx, np.asarray([0]), ctx.all_objects(), candidates, sample_size=10**6
        )
        np.testing.assert_allclose(distances[0], [0, 5, 20])

    def test_scaling_applied_for_partial_sample(self, ctx, rng):
        candidates = _candidates_for(ctx, 0, [0, 32], rng)
        distances, positions = estimate_distances(
            ctx, np.asarray([0]), ctx.all_objects(), candidates, sample_size=16
        )
        assert positions.size == 16
        assert distances[0, 0] == 0.0
        assert distances[0, 1] > 0.0

    def test_validation(self, ctx):
        with pytest.raises(ProtocolError):
            estimate_distances(ctx, np.asarray([0]), ctx.all_objects(), np.zeros((0, 64)), 4)
        with pytest.raises(ProtocolError):
            estimate_distances(
                ctx, np.asarray([0]), ctx.all_objects(), np.zeros((1, 3), dtype=np.uint8), 4
            )
        with pytest.raises(ProtocolError):
            estimate_distances(
                ctx, np.asarray([0]), ctx.all_objects(), np.zeros((1, 64), dtype=np.uint8), 0
            )


class TestSelectCollective:
    def test_every_player_picks_its_own_cluster_vector(self, constants):
        instance = zero_radius_instance(24, 48, n_clusters=3, seed=1)
        ctx = make_context(instance, budget=4, constants=constants, seed=1)
        # Candidates: the three distinct cluster vectors.
        candidates = np.unique(instance.preferences, axis=0)
        choice, chosen = select_collective(
            ctx, ctx.all_players(), ctx.all_objects(), candidates, sample_size=48
        )
        np.testing.assert_array_equal(chosen, instance.preferences)
        assert choice.shape == (24,)

    def test_single_candidate_short_circuit(self, ctx):
        candidates = np.zeros((1, ctx.n_objects), dtype=np.uint8)
        before = ctx.oracle.total_probes()
        choice, chosen = select_collective(ctx, ctx.all_players(), ctx.all_objects(), candidates)
        assert (choice == 0).all()
        assert ctx.oracle.total_probes() == before  # no probes needed

    def test_charges_probes(self, ctx, rng):
        candidates = _candidates_for(ctx, 0, [0, 10], rng)
        select_collective(ctx, ctx.all_players(), ctx.all_objects(), candidates, sample_size=8)
        assert ctx.oracle.max_probes() >= 8 or ctx.n_objects < 8


class TestSelectPerPlayer:
    def test_picks_closest_per_player(self, ctx, rng):
        players = ctx.all_players()
        objects = ctx.all_objects()
        truth = ctx.oracle.ground_truth()
        k = 3
        stack = np.empty((k, objects.size, players.size), dtype=np.uint8)
        for i in range(players.size):
            stack[:, :, i] = _candidates_for(ctx, i, [0, 15, 30], rng)
        chosen = select_per_player(ctx, players, objects, stack, sample_size=objects.size)
        np.testing.assert_array_equal(chosen.T, truth)

    @pytest.mark.parametrize("n_players", [1, 5, 13, 27])
    def test_each_player_gets_its_first_repetition_at_the_fewest_disagreements(
        self, constants, n_players
    ):
        # Computed here, not by the function: every player's disagreements
        # with each of its repetitions over the whole object set (the sample
        # covers it, so nothing is drawn), and the first repetition with the
        # fewest.  Distances of 0-2 flips make ties between different rows
        # common; repetition 4 repeats repetition 1 outright.
        rng = np.random.default_rng(n_players)
        n_objects, k = 37, 5
        truth = rng.integers(0, 2, size=(n_players, n_objects), dtype=np.uint8)
        instance = PlantedInstance(
            preferences=truth,
            cluster_of=np.zeros(n_players, dtype=np.int64),
            planted_diameters=np.zeros(n_players, dtype=np.int64),
            metadata={"generator": "select-per-player"},
        )
        stack = np.empty((k, n_objects, n_players), dtype=np.uint8)
        for repetition in range(k - 1):
            for i in range(n_players):
                row = truth[i].copy()
                row[rng.choice(n_objects, size=int(rng.integers(0, 3)), replace=False)] ^= 1
                stack[repetition, :, i] = row
        stack[k - 1] = stack[1]
        players, objects = np.arange(n_players), np.arange(n_objects)

        ctx = make_context(instance, budget=2, constants=constants, seed=n_players)
        state = ctx.randomness.generator.bit_generator.state
        chosen = select_per_player(ctx, players, objects, stack, sample_size=n_objects)

        assert chosen.shape == (n_objects, n_players)
        ties = 0
        for i in range(n_players):
            counts = [int((stack[c, :, i] != truth[i]).sum()) for c in range(k)]
            first = counts.index(min(counts))
            np.testing.assert_array_equal(chosen[:, i], stack[first, :, i])
            ties += any(
                counts[c] == counts[first] and (stack[c, :, i] != stack[first, :, i]).any()
                for c in range(first + 1, k)
            )
        if n_players > 5:
            assert ties  # some player's first choice beat a different tied row
        assert ctx.randomness.generator.bit_generator.state == state
        # The probes charged are those of one probe block over the sample.
        reference = make_context(instance, budget=2, constants=constants, seed=n_players)
        reference.oracle.probe_block(players, objects)
        np.testing.assert_array_equal(ctx.oracle.probes_used(), reference.oracle.probes_used())
        np.testing.assert_array_equal(
            ctx.oracle.requests_used(), reference.oracle.requests_used()
        )

    def test_single_candidate_short_circuit(self, ctx):
        players = ctx.all_players()
        stack = np.zeros((1, ctx.n_objects, players.size), dtype=np.uint8)
        chosen = select_per_player(ctx, players, ctx.all_objects(), stack)
        assert chosen.shape == (ctx.n_objects, players.size)

    def test_shape_validation(self, ctx):
        with pytest.raises(ProtocolError):
            select_per_player(
                ctx, ctx.all_players(), ctx.all_objects(), np.zeros((1, ctx.n_objects, 2), dtype=np.uint8)
            )


class TestRSelect:
    def test_returns_best_candidate_exactly_when_present(self, ctx, rng):
        candidates = _candidates_for(ctx, 3, [0, 20, 25, 30], rng)
        order = rng.permutation(4)
        winner_index, winner = rselect(ctx, 3, ctx.all_objects(), candidates[order])
        np.testing.assert_array_equal(winner, ctx.oracle.ground_truth()[3])
        assert winner_index == int(np.flatnonzero(order == 0)[0])

    def test_near_best_when_no_exact_candidate(self, ctx, rng):
        candidates = _candidates_for(ctx, 2, [3, 25, 30], rng)
        _, winner = rselect(ctx, 2, ctx.all_objects(), candidates)
        error = int((winner != ctx.oracle.ground_truth()[2]).sum())
        assert error <= 3 * 4  # within a small constant of the best candidate

    def test_single_candidate(self, ctx):
        candidates = np.ones((1, ctx.n_objects), dtype=np.uint8)
        index, winner = rselect(ctx, 0, ctx.all_objects(), candidates)
        assert index == 0
        np.testing.assert_array_equal(winner, candidates[0])

    def test_identical_candidates_no_probes(self, ctx):
        candidates = np.zeros((3, ctx.n_objects), dtype=np.uint8)
        before = ctx.oracle.requests_used()[0]
        rselect(ctx, 0, ctx.all_objects(), candidates)
        assert ctx.oracle.requests_used()[0] == before

    def test_empty_candidates_rejected(self, ctx):
        with pytest.raises(ProtocolError):
            rselect(ctx, 0, ctx.all_objects(), np.zeros((0, ctx.n_objects), dtype=np.uint8))

    def test_probe_requests_scale_with_pairs(self, ctx, rng):
        candidates = _candidates_for(ctx, 1, [0, 20, 25, 30, 35, 40], rng)
        before = ctx.oracle.requests_used()[1]
        rselect(ctx, 1, ctx.all_objects(), candidates)
        spent = ctx.oracle.requests_used()[1] - before
        sample = ctx.constants.rselect_sample_size(ctx.n_players)
        assert spent <= (6 * 5 // 2) * sample


class TestRSelectCollective:
    def test_shapes_and_quality(self, ctx, rng):
        players = ctx.all_players()
        truth = ctx.oracle.ground_truth()
        stack = np.empty((players.size, 2, ctx.n_objects), dtype=np.uint8)
        for i in range(players.size):
            stack[i] = _candidates_for(ctx, i, [0, 30], rng)
        chosen = rselect_collective(ctx, players, ctx.all_objects(), [stack[:, 0], stack[:, 1]])
        np.testing.assert_array_equal(chosen, truth)

    def test_shape_validation(self, ctx):
        with pytest.raises(ProtocolError):
            rselect_collective(
                ctx, ctx.all_players(), ctx.all_objects(), np.zeros((1, 2, ctx.n_objects), dtype=np.uint8)
            )
