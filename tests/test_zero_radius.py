"""Tests for the ZeroRadius protocol (Theorem 4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import make_context, zero_radius_instance
from repro.errors import ProtocolError
from repro.players.adversaries import InvertingStrategy, RandomReportStrategy
from repro.preferences.generators import PlantedInstance
from repro.preferences.metrics import prediction_errors
from repro.protocols.zero_radius import _resolve_by_probing, popular_vectors, zero_radius


class TestPopularVectors:
    def test_threshold_filters(self):
        published = np.asarray(
            [[0, 1], [0, 1], [0, 1], [1, 0]], dtype=np.uint8
        )
        assert popular_vectors(published, 2).shape == (1, 2)
        assert popular_vectors(published, 1).shape == (2, 2)
        assert popular_vectors(published, 4).shape[0] == 0

    def test_empty_input(self):
        out = popular_vectors(np.zeros((0, 3), dtype=np.uint8), 1)
        assert out.shape[0] == 0


class TestResolveByProbing:
    def test_off_promise_keeps_the_candidate_agreeing_with_every_probe(self):
        # Player 0's true vector over objects 2..7 is none of the candidates,
        # which only happens off the Theorem-4 promise.
        truth = np.asarray([[0, 0, 1, 0, 1, 1, 0, 1]], dtype=np.uint8)
        instance = PlantedInstance(
            preferences=truth,
            cluster_of=np.zeros(1, dtype=np.int64),
            planted_diameters=np.zeros(1, dtype=np.int64),
            metadata={"generator": "off-promise"},
        )
        objects = np.arange(2, 8)
        candidates = np.asarray(
            [
                [0, 0, 1, 1, 0, 0],
                [1, 1, 1, 0, 0, 0],
                [1, 0, 0, 0, 1, 1],
            ],
            dtype=np.uint8,
        )
        assert not (candidates == truth[0, objects]).all(axis=1).any()
        ctx = make_context(instance, budget=1, seed=0)
        got = _resolve_by_probing(ctx, 0, objects, candidates)
        # Column 0 (object 2, value 1) drops candidate 0; column 1 (object 3,
        # value 0) drops candidate 1; the survivor is candidate 2 as is,
        # wrong on the three columns nobody probed a dispute on.
        np.testing.assert_array_equal(got, candidates[2])
        assert ctx.oracle.probes_used()[0] == 2
        assert ctx.oracle.requests_used()[0] == 2
        # Identical survivors stop the probing: one (memoised) probe of
        # object 3 drops candidate 1, and the two copies of candidate 2 agree.
        again = _resolve_by_probing(ctx, 0, objects, candidates[[1, 2, 2]])
        np.testing.assert_array_equal(again, candidates[2])
        assert ctx.oracle.probes_used()[0] == 2
        assert ctx.oracle.requests_used()[0] == 3
        # A single candidate is returned without a probe.
        np.testing.assert_array_equal(
            _resolve_by_probing(ctx, 0, objects, candidates[:1]), candidates[0]
        )
        assert ctx.oracle.requests_used()[0] == 3

    def test_requires_a_candidate(self):
        ctx = make_context(zero_radius_instance(4, 6, n_clusters=1, seed=0), budget=1, seed=0)
        with pytest.raises(ProtocolError):
            _resolve_by_probing(ctx, 0, np.arange(6), np.zeros((0, 6), dtype=np.uint8))


class TestZeroRadiusHonest:
    def test_exact_recovery_on_identical_clusters(self, ctx_zero_radius, zero_radius_small):
        estimates = zero_radius(
            ctx_zero_radius,
            ctx_zero_radius.all_players(),
            ctx_zero_radius.all_objects(),
            budget_prime=4,
        )
        errors = prediction_errors(estimates, zero_radius_small.preferences)
        assert errors.max() == 0

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1 (practical profile): ZeroRadius is not exact at "
        "n=512, B'=8; 63 players end wrong on this seed",
    )
    def test_exact_recovery_at_512_players_and_eight_clusters(self):
        # Theorem 4's setting, where the recursion bottoms out in 64-player
        # halves (base size 100) and a cluster averages 8 members per half.
        # Context seeds 0-29 on this instance fail 4 times at B'=8; seed 9
        # leaves 63 players wrong with a max error of 29.
        instance = zero_radius_instance(512, 512, n_clusters=8, seed=(1, 0))
        ctx = make_context(instance, budget=8, seed=9)
        estimates = zero_radius(ctx, ctx.all_players(), ctx.all_objects(), budget_prime=8)
        errors = prediction_errors(estimates, instance.preferences)
        assert errors.max() == 0

    def test_probe_cost_well_below_probe_everything(self, constants):
        instance = zero_radius_instance(n_players=128, n_objects=128, n_clusters=8, seed=3)
        ctx = make_context(instance, budget=8, constants=constants, seed=3)
        zero_radius(ctx, ctx.all_players(), ctx.all_objects(), budget_prime=8)
        assert ctx.oracle.max_probes() < 128
        # Theorem 4 shape: O(B' log n) with the profile's constants.
        bound = 4 * constants.zero_radius_base_size(128, 8)
        assert ctx.oracle.max_requests() <= bound

    def test_subset_of_players_and_objects(self, ctx_zero_radius, zero_radius_small):
        players = np.arange(0, 24)
        objects = np.arange(10, 40)
        estimates = zero_radius(ctx_zero_radius, players, objects, budget_prime=4)
        assert estimates.shape == (players.size, objects.size)
        errors = (estimates != zero_radius_small.preferences[np.ix_(players, objects)]).sum(axis=1)
        assert errors.max() == 0

    def test_empty_inputs(self, ctx_zero_radius):
        out = zero_radius(ctx_zero_radius, np.asarray([], dtype=np.int64), np.arange(4), 2)
        assert out.shape == (0, 4)
        out = zero_radius(ctx_zero_radius, np.arange(4), np.asarray([], dtype=np.int64), 2)
        assert out.shape == (4, 0)

    def test_invalid_budget(self, ctx_zero_radius):
        with pytest.raises(ProtocolError):
            zero_radius(
                ctx_zero_radius,
                ctx_zero_radius.all_players(),
                ctx_zero_radius.all_objects(),
                budget_prime=0,
            )

    def test_deterministic_given_seed(self, constants):
        instance = zero_radius_instance(32, 32, n_clusters=4, seed=5)
        runs = []
        for _ in range(2):
            ctx = make_context(instance, budget=4, constants=constants, seed=9)
            runs.append(zero_radius(ctx, ctx.all_players(), ctx.all_objects(), 4))
        np.testing.assert_array_equal(runs[0], runs[1])


class TestZeroRadiusDishonest:
    def test_honest_players_unaffected_by_small_coalition(self, constants):
        instance = zero_radius_instance(n_players=96, n_objects=96, n_clusters=4, seed=6)
        # 8 dishonest players (tolerance n/(3B) = 96/12 = 8) reporting garbage.
        dishonest = list(range(0, 96, 12))
        strategies = {p: RandomReportStrategy(seed=p) for p in dishonest}
        ctx = make_context(instance, budget=4, constants=constants, strategies=strategies, seed=6)
        estimates = zero_radius(ctx, ctx.all_players(), ctx.all_objects(), budget_prime=4)
        errors = prediction_errors(estimates, instance.preferences)
        honest_mask = np.ones(96, dtype=bool)
        honest_mask[dishonest] = False
        assert errors[honest_mask].max() == 0

    def test_inverting_coalition_cannot_forge_popular_vectors(self, constants):
        instance = zero_radius_instance(n_players=96, n_objects=96, n_clusters=4, seed=7)
        dishonest = list(range(3))
        strategies = {p: InvertingStrategy() for p in dishonest}
        ctx = make_context(instance, budget=4, constants=constants, strategies=strategies, seed=7)
        estimates = zero_radius(ctx, ctx.all_players(), ctx.all_objects(), budget_prime=4)
        honest_mask = np.ones(96, dtype=bool)
        honest_mask[dishonest] = False
        errors = prediction_errors(estimates, instance.preferences)[honest_mask]
        assert errors.max() == 0
