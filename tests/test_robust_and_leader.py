"""Tests for leader election and the Byzantine-robust wrapper (§7)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import make_context, planted_clusters_instance
from repro.core.calculate_preferences import efficient_diameter_schedule
from repro.core.robust import robust_calculate_preferences
from repro.errors import LeaderElectionError, ProtocolError
from repro.leader.feige import feige_leader_election
from repro.players.adversaries import build_coalition
from repro.preferences.metrics import prediction_errors
from reference_loops import assert_same_board


class TestFeigeLeaderElection:
    def test_all_honest_always_elects_honest(self):
        for seed in range(5):
            result = feige_leader_election(64, seed=seed)
            assert result.leader_is_honest
            assert 0 <= result.leader < 64

    def test_survivor_counts_decrease(self):
        result = feige_leader_election(128, seed=0)
        counts = result.survivors_per_round
        assert counts[0] == 128
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_dishonest_leader_flagged(self):
        # With everyone dishonest except one, the election usually picks a
        # dishonest leader and must say so.
        dishonest = np.arange(1, 32)
        results = [
            feige_leader_election(32, dishonest=dishonest, seed=s) for s in range(20)
        ]
        assert any(not r.leader_is_honest for r in results)
        for r in results:
            assert r.leader_is_honest == (r.leader == 0)

    def test_honest_leader_probability_reasonable_at_tolerance(self):
        # With a third of the players dishonest the election should still be
        # won by honest players most of the time.
        n, trials = 96, 60
        rng = np.random.default_rng(0)
        wins = 0
        for _ in range(trials):
            dishonest = rng.choice(n, size=n // 3, replace=False)
            result = feige_leader_election(n, dishonest=dishonest, seed=int(rng.integers(0, 2**62)))
            wins += int(result.leader_is_honest)
        assert wins / trials >= 0.5

    def test_single_player(self):
        result = feige_leader_election(1, seed=0)
        assert result.leader == 0

    def test_invalid_inputs(self):
        with pytest.raises(LeaderElectionError):
            feige_leader_election(0)
        with pytest.raises(LeaderElectionError):
            feige_leader_election(4, dishonest=np.asarray([9]))


class TestRobustWrapper:
    @pytest.fixture
    def setup(self, constants):
        n, m, budget, diameter = 128, 256, 4, 40
        instance = planted_clusters_instance(n, m, n_clusters=budget, diameter=diameter, seed=0)
        schedule = efficient_diameter_schedule(n, m, constants)
        return instance, budget, diameter, schedule, constants

    def test_no_coalition_matches_honest_quality(self, setup):
        instance, budget, diameter, schedule, constants = setup
        ctx = make_context(instance, budget=budget, constants=constants, seed=1)
        result = robust_calculate_preferences(ctx, iterations=2, diameters=schedule)
        errors = prediction_errors(result.predictions, instance.preferences)
        assert errors.max() <= 2 * diameter
        assert result.honest_leader_iterations == 2
        assert len(result.iteration_results) == 2
        assert len(result.elections) == 2

    @pytest.mark.parametrize("strategy", ["strange", "hijack", "random"])
    def test_honest_error_bounded_under_tolerated_coalition(self, setup, strategy):
        instance, budget, diameter, schedule, constants = setup
        n = instance.n_players
        tolerance = constants.max_dishonest(n, budget)
        victim = instance.cluster_members(0)
        strategies, plan = build_coalition(
            instance.preferences,
            tolerance,
            strategy=strategy,
            victim_cluster=victim,
            seed=3,
        )
        ctx = make_context(
            instance, budget=budget, constants=constants, strategies=strategies, seed=3
        )
        result = robust_calculate_preferences(
            ctx, coalition=plan, iterations=2, diameters=schedule
        )
        honest_mask = np.ones(n, dtype=bool)
        honest_mask[plan.members] = False
        errors = prediction_errors(result.predictions, instance.preferences)[honest_mask]
        # Theorem 14: the coalition causes no asymptotic loss — errors stay O(D).
        assert errors.max() <= 3 * diameter

    def test_same_seed_runs_are_bit_identical(self, setup):
        # Under a coalition the seed still fixes every election, every
        # repetition and the final RSelect; each repetition keeps its own
        # board prefix.
        instance, budget, _, schedule, constants = setup
        tolerance = constants.max_dishonest(instance.n_players, budget)
        runs = []
        for _ in range(2):
            strategies, plan = build_coalition(
                instance.preferences,
                tolerance,
                strategy="hijack",
                victim_cluster=instance.cluster_members(0),
                seed=6,
            )
            ctx = make_context(
                instance, budget=budget, constants=constants, strategies=strategies, seed=6
            )
            result = robust_calculate_preferences(
                ctx, coalition=plan, iterations=2, diameters=schedule
            )
            runs.append((result, ctx))
        (first, ctx1), (second, ctx2) = runs
        np.testing.assert_array_equal(first.predictions, second.predictions)
        assert first.elections == second.elections
        for got, want in zip(first.iteration_results, second.iteration_results):
            np.testing.assert_array_equal(got.candidate_stack, want.candidate_stack)
        np.testing.assert_array_equal(ctx1.oracle.probes_used(), ctx2.oracle.probes_used())
        assert_same_board(ctx1.board, ctx2.board)
        prefixes = {"/".join(name.split("/")[:2]) for name in ctx1.board.channels()}
        assert prefixes == {"robust/i0", "robust/i1"}

    def test_invalid_iterations(self, setup):
        instance, budget, _, schedule, constants = setup
        ctx = make_context(instance, budget=budget, constants=constants, seed=4)
        with pytest.raises(ProtocolError):
            robust_calculate_preferences(ctx, iterations=0, diameters=schedule)

    def test_default_iterations_from_constants(self, setup):
        instance, budget, _, schedule, constants = setup
        ctx = make_context(instance, budget=budget, constants=constants, seed=5)
        result = robust_calculate_preferences(ctx, diameters=[float(schedule[0])])
        assert len(result.iteration_results) == constants.robust_iterations(instance.n_players)
