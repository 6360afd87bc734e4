"""Tests for the baseline algorithms."""

from __future__ import annotations

import numpy as np
import pytest

from repro import make_context, planted_clusters_instance, zero_radius_instance
from repro.baselines.alon import alon_awerbuch_azar_patt_shamir
from repro.baselines.naive import (
    global_majority,
    probe_everything,
    random_guessing,
    solo_probing,
)
from repro.baselines.oracle import ideal_clusters, oracle_clustering
from repro.errors import ProtocolError
from repro.preferences.metrics import prediction_errors, set_diameter


class TestNaiveBaselines:
    def test_random_guessing_costs_no_probes(self, ctx_planted):
        predictions = random_guessing(ctx_planted, seed=0)
        assert predictions.shape == (ctx_planted.n_players, ctx_planted.n_objects)
        assert ctx_planted.oracle.total_probes() == 0

    def test_probe_everything_exact_and_expensive(self, ctx_planted, planted_small):
        predictions = probe_everything(ctx_planted)
        assert prediction_errors(predictions, planted_small.preferences).max() == 0
        assert ctx_planted.oracle.max_probes() == ctx_planted.n_objects

    def test_solo_probing_respects_budget_and_learns_probed_objects(self, ctx_planted, planted_small):
        predictions = solo_probing(ctx_planted, seed=1)
        assert ctx_planted.oracle.max_probes() <= ctx_planted.budget
        errors = prediction_errors(predictions, planted_small.preferences)
        # Far from exact, but better than guessing everything at random in expectation.
        assert errors.max() <= ctx_planted.n_objects

    def test_global_majority_identical_preferences(self, constants):
        # When everyone agrees, the pooled majority is exact wherever probed.
        instance = zero_radius_instance(40, 40, n_clusters=1, seed=2)
        ctx = make_context(instance, budget=8, constants=constants, seed=2)
        predictions = global_majority(ctx, seed=2)
        errors = prediction_errors(predictions, instance.preferences)
        # Objects probed by at least one player are exact; unprobed ones may not be.
        assert errors.mean() < 10

    def test_global_majority_fails_with_heterogeneous_preferences(self, constants):
        instance = planted_clusters_instance(48, 96, n_clusters=4, diameter=4, seed=3)
        ctx = make_context(instance, budget=8, constants=constants, seed=3)
        predictions = global_majority(ctx, seed=3)
        errors = prediction_errors(predictions, instance.preferences)
        assert errors.mean() > 10  # personalisation is lost


class TestOracleSkyline:
    def test_ideal_clusters_recover_planted_structure(self):
        instance = planted_clusters_instance(40, 80, n_clusters=4, diameter=4, seed=4)
        clustering = ideal_clusters(instance.preferences, budget=4)
        assert clustering.n_clusters == 4
        for cluster in clustering.clusters:
            assert set_diameter(instance.preferences, cluster) <= 4

    def test_ideal_clusters_total_assignment(self):
        instance = planted_clusters_instance(30, 30, n_clusters=3, diameter=2, seed=5)
        clustering = ideal_clusters(instance.preferences, budget=3)
        assert np.sort(np.concatenate(clustering.clusters)).tolist() == list(range(30))

    def test_ideal_clusters_invalid_budget(self):
        with pytest.raises(ProtocolError):
            ideal_clusters(np.zeros((4, 4), dtype=np.uint8), 0)

    def test_oracle_clustering_error_is_order_D(self, constants):
        instance = planted_clusters_instance(64, 128, n_clusters=4, diameter=10, seed=6)
        ctx = make_context(instance, budget=4, constants=constants, seed=6)
        predictions = oracle_clustering(ctx)
        errors = prediction_errors(predictions, instance.preferences)
        assert errors.max() <= 2 * 10
        # It only pays the work-sharing probes, never a discovery cost.
        assert ctx.oracle.max_probes() < ctx.n_objects


class TestAlonBaseline:
    def test_error_order_D_on_planted_instance(self, constants):
        instance = planted_clusters_instance(96, 96, n_clusters=4, diameter=8, seed=7)
        ctx = make_context(instance, budget=4, constants=constants, seed=7)
        result = alon_awerbuch_azar_patt_shamir(ctx, diameters=[8.0, 16.0])
        errors = prediction_errors(result.predictions, instance.preferences)
        assert errors.max() <= 5 * 8 + 8
        assert [candidate.shape for candidate in result.candidates] == [(96, 96)] * 2

    def test_probe_requests_exceed_calculate_preferences(self, constants):
        # The headline comparison: on the same schedule, the prior state of the
        # art spends substantially more probe requests (B vs B^2 scaling).
        from repro.core.calculate_preferences import calculate_preferences

        n, m, budget, diameter = 128, 256, 4, 64
        instance = planted_clusters_instance(n, m, n_clusters=budget, diameter=diameter, seed=8)
        schedule = [64.0, 128.0]

        ours_ctx = make_context(instance, budget=budget, constants=constants, seed=8)
        calculate_preferences(ours_ctx, diameters=schedule)
        alon_ctx = make_context(instance, budget=budget, constants=constants, seed=8)
        alon_awerbuch_azar_patt_shamir(alon_ctx, diameters=schedule)

        assert alon_ctx.oracle.max_requests() > ours_ctx.oracle.max_requests()

    def test_empty_schedule_rejected(self, ctx_planted):
        with pytest.raises(ProtocolError):
            alon_awerbuch_azar_patt_shamir(ctx_planted, diameters=[])
