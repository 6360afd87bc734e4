"""Integration tests for the full CalculatePreferences protocol (honest case)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    ProtocolConstants,
    make_context,
    planted_clusters_instance,
    zero_radius_instance,
)
from repro.core.calculate_preferences import (
    calculate_preferences,
    calculate_preferences_for_diameter,
    default_diameter_schedule,
    efficient_diameter_schedule,
)
from repro.errors import ProtocolError
from repro.preferences.metrics import prediction_errors
from reference_loops import assert_same_board


class TestDiameterSchedules:
    def test_default_schedule_doubles_and_covers_n(self):
        schedule = default_diameter_schedule(100)
        assert schedule[0] == 1
        assert schedule[-1] >= 100
        assert all(b == 2 * a for a, b in zip(schedule, schedule[1:]))

    def test_default_schedule_invalid(self):
        with pytest.raises(ProtocolError):
            default_diameter_schedule(0)

    def test_efficient_schedule_is_subset_of_default(self, constants):
        full = set(default_diameter_schedule(256))
        efficient = efficient_diameter_schedule(256, 256, constants)
        assert set(int(d) for d in efficient).issubset(full)
        assert len(efficient) >= 1
        minimum = constants.sample_prob_factor * constants.log_n(256)
        assert all(d >= minimum for d in efficient)

    def test_efficient_schedule_never_empty(self, constants):
        assert efficient_diameter_schedule(4, 4, constants)


class TestEasyCases:
    def test_probe_everything_when_budget_large(self, constants):
        instance = planted_clusters_instance(16, 16, 2, 2, seed=0)
        ctx = make_context(instance, budget=16, constants=constants, seed=0)
        result = calculate_preferences(ctx)
        assert result.probed_everything
        assert prediction_errors(result.predictions, instance.preferences).max() == 0

    def test_small_diameter_guess_uses_small_radius_directly(self, constants):
        instance = planted_clusters_instance(64, 64, 4, 2, seed=1)
        ctx = make_context(instance, budget=4, constants=constants, seed=1)
        result = calculate_preferences(ctx, diameters=[2.0])
        assert result.traces[0].used_small_radius_directly
        errors = prediction_errors(result.predictions, instance.preferences)
        assert errors.max() <= 5 * 2 + 3


class TestFullProtocol:
    def test_invalid_schedules_rejected(self, ctx_planted):
        with pytest.raises(ProtocolError):
            calculate_preferences(ctx_planted, diameters=[])
        with pytest.raises(ProtocolError):
            calculate_preferences(ctx_planted, diameters=[-1.0])

    def test_error_is_order_planted_diameter(self, constants):
        n, m, budget, diameter = 128, 256, 4, 40
        instance = planted_clusters_instance(n, m, n_clusters=budget, diameter=diameter, seed=2)
        ctx = make_context(instance, budget=budget, constants=constants, seed=2)
        schedule = efficient_diameter_schedule(n, m, constants)
        result = calculate_preferences(ctx, diameters=schedule)
        errors = prediction_errors(result.predictions, instance.preferences)
        assert errors.max() <= 2 * diameter
        assert errors.mean() <= diameter

    def test_clusters_found_at_appropriate_guess(self, constants):
        n, m, budget, diameter = 128, 256, 4, 40
        instance = planted_clusters_instance(n, m, n_clusters=budget, diameter=diameter, seed=3)
        ctx = make_context(instance, budget=budget, constants=constants, seed=3)
        schedule = efficient_diameter_schedule(n, m, constants)
        result = calculate_preferences(ctx, diameters=schedule)
        cluster_counts = [t.n_clusters for t in result.traces if not t.used_small_radius_directly]
        assert max(cluster_counts, default=0) == budget

    def test_candidate_stack_shape(self, constants):
        n, m = 64, 64
        instance = planted_clusters_instance(n, m, 4, 8, seed=4)
        ctx = make_context(instance, budget=4, constants=constants, seed=4)
        schedule = [16.0, 32.0]
        result = calculate_preferences(ctx, diameters=schedule)
        assert len(result.candidates) == 2
        for labels, rows in result.candidates:
            assert labels.shape == (n,) and rows.shape[1] == m
            assert rows[labels].shape == (n, m)
        assert result.diameters == (16.0, 32.0)
        assert len(result.traces) == 2

    def test_probe_usage_below_probe_everything_at_scale(self, constants):
        n, m, budget = 256, 512, 8
        instance = planted_clusters_instance(n, m, budget, diameter=n // 4, seed=5)
        ctx = make_context(instance, budget=budget, constants=constants, seed=5)
        schedule = efficient_diameter_schedule(n, m, constants)
        result = calculate_preferences(ctx, diameters=schedule)
        errors = prediction_errors(result.predictions, instance.preferences)
        assert errors.max() <= 2 * (n // 4)
        assert ctx.oracle.max_probes() < m  # strictly cheaper than probing everything

    def test_single_guess_skips_final_rselect(self, constants):
        instance = planted_clusters_instance(64, 64, 4, 8, seed=6)
        ctx = make_context(instance, budget=4, constants=constants, seed=6)
        result = calculate_preferences(ctx, diameters=[32.0])
        ((labels, rows),) = result.candidates
        np.testing.assert_array_equal(result.predictions, rows[labels])

    def test_same_seed_runs_are_bit_identical(self, constants):
        # The context's seed fixes the whole run: outputs, probe accounting,
        # the board, and how far the shared stream advanced.
        instance = planted_clusters_instance(96, 192, n_clusters=8, diameter=24, seed=5)
        schedule = efficient_diameter_schedule(96, 192, constants)
        assert len(schedule) >= 2  # the final RSelect runs
        runs = []
        for _ in range(2):
            ctx = make_context(instance, budget=8, constants=constants, seed=11)
            runs.append((calculate_preferences(ctx, diameters=schedule), ctx))
        (first, ctx1), (second, ctx2) = runs
        np.testing.assert_array_equal(first.predictions, second.predictions)
        for (got_labels, got_rows), (want_labels, want_rows) in zip(
            first.candidates, second.candidates, strict=True
        ):
            np.testing.assert_array_equal(got_labels, want_labels)
            np.testing.assert_array_equal(got_rows, want_rows)
        assert first.traces == second.traces
        np.testing.assert_array_equal(ctx1.oracle.probes_used(), ctx2.oracle.probes_used())
        np.testing.assert_array_equal(
            ctx1.oracle.requests_used(), ctx2.oracle.requests_used()
        )
        assert_same_board(ctx1.board, ctx2.board)
        assert int(ctx1.randomness.generator.integers(0, 2**63 - 1)) == int(
            ctx2.randomness.generator.integers(0, 2**63 - 1)
        )

    def test_each_guess_posts_under_its_own_channel_prefix(self, constants):
        instance = planted_clusters_instance(64, 64, 4, 8, seed=4)
        ctx = make_context(instance, budget=4, constants=constants, seed=4)
        # 2 < log n takes the direct SmallRadius case; 16 and 32 the pipeline.
        calculate_preferences(ctx, diameters=[2.0, 16.0, 32.0], channel="run")
        phases: dict[str, set[str]] = {}
        for name in ctx.board.channels():
            root, guess, phase = name.split("/", 3)[:3]
            assert root == "run"
            phases.setdefault(guess, set()).add(phase)
        assert phases == {
            "d0": {"direct-sr"},
            "d1": {"sr", "z", "work"},
            "d2": {"sr", "z", "work"},
        }

    def test_single_iteration_trace_contents(self, constants):
        instance = planted_clusters_instance(96, 96, 4, 24, seed=7)
        ctx = make_context(instance, budget=4, constants=constants, seed=7)
        (labels, rows), trace = calculate_preferences_for_diameter(ctx, 24.0)
        assert rows[labels].shape == (96, 96)
        assert trace.sample_size >= 1
        assert trace.n_clusters >= 1
        assert sum(trace.cluster_sizes) == 96


class TestZeroDiameterEnd2End:
    def test_identical_clusters_recovered_with_full_schedule(self, constants):
        # Identical-preference clusters have a tiny optimal diameter, which the
        # *full* doubling schedule handles through its small-D guesses (the
        # D < log n SmallRadius dispatch).  The restricted efficient schedule
        # intentionally trades this regime away (documented in
        # efficient_diameter_schedule), so this test uses the default schedule.
        instance = zero_radius_instance(96, 96, n_clusters=4, seed=8)
        ctx = make_context(instance, budget=4, constants=constants, seed=8)
        result = calculate_preferences(ctx, diameters=[1.0, 2.0, 4.0])
        errors = prediction_errors(result.predictions, instance.preferences)
        # With zero-diameter clusters the protocol should be near-exact.
        assert errors.mean() <= 2
