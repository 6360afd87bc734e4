"""Tests for the protocol constants and their two profiles."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.simulation.config import ProtocolConstants


class TestProtocolConstantsProfiles:
    def test_paper_profile_matches_paper_constants(self):
        paper = ProtocolConstants.paper()
        assert paper.sample_prob_factor == 10.0
        assert paper.sample_agreement_factor == 20.0
        assert paper.small_radius_error_factor == 100.0
        assert paper.edge_threshold_factor == 220.0
        assert paper.separation_factor == 84.0
        assert paper.cluster_diameter_factor == 336.0
        assert paper.dishonest_budget_divisor == 3.0

    def test_practical_profile_preserves_lemma7_inequality(self):
        # Edge threshold must be at least 2 * SmallRadius error + in-cluster
        # sample disagreement (Lemma 7 part 1) in both profiles.
        for constants in (ProtocolConstants.paper(), ProtocolConstants.practical()):
            assert constants.edge_threshold_factor >= (
                2 * constants.small_radius_error_factor
                + constants.sample_agreement_factor * 0.99
            ) * 0.99

    def test_practical_profile_separation_consistency(self):
        # Separation: far pairs (>= separation * D) must land above the edge
        # threshold: 5 * separation >= threshold + 2 * error (paper's Lemma 7
        # part 2 shape, scaled).
        for constants in (ProtocolConstants.paper(), ProtocolConstants.practical()):
            lhs = (constants.sample_prob_factor / 2) * constants.separation_factor
            rhs = constants.edge_threshold_factor / 10
            assert lhs > rhs

    def test_invalid_majority_rejected(self):
        with pytest.raises(ConfigurationError):
            ProtocolConstants(rselect_majority=0.4)
        with pytest.raises(ConfigurationError):
            ProtocolConstants(rselect_majority=1.0)

    def test_negative_factor_rejected(self):
        with pytest.raises(ConfigurationError):
            ProtocolConstants(sample_prob_factor=-1.0)
        with pytest.raises(ConfigurationError):
            ProtocolConstants(vote_redundancy_factor=0.0)

    def test_with_overrides_returns_new_instance(self):
        base = ProtocolConstants.practical()
        changed = base.with_overrides(edge_threshold_factor=99.0)
        assert changed.edge_threshold_factor == 99.0
        assert base.edge_threshold_factor != 99.0


class TestDerivedQuantities:
    def test_log_n_clamped(self):
        constants = ProtocolConstants.practical()
        assert constants.log_n(1) >= 1.0
        assert constants.log_n(0) >= 1.0
        assert constants.log_n(1000) == pytest.approx(math.log(1000))

    def test_sample_probability_formula_and_cap(self):
        constants = ProtocolConstants.practical()
        n = 256
        expected = constants.sample_prob_factor * math.log(n) / 200.0
        assert constants.sample_probability(n, 200.0) == pytest.approx(expected)
        assert constants.sample_probability(n, 1.0) == 1.0  # capped

    def test_sample_probability_rejects_nonpositive_diameter(self):
        with pytest.raises(ConfigurationError):
            ProtocolConstants.practical().sample_probability(64, 0.0)

    def test_edge_threshold_monotone_in_n(self):
        constants = ProtocolConstants.practical()
        assert constants.edge_threshold(1024) > constants.edge_threshold(64)

    def test_vote_redundancy_at_least_three(self):
        constants = ProtocolConstants.practical()
        assert constants.vote_redundancy(4) >= 3
        assert constants.vote_redundancy(10**6) >= 3

    def test_small_radius_partitions_capped_by_objects(self):
        constants = ProtocolConstants.practical()
        assert constants.small_radius_partitions(10**6, 10) <= 10
        assert constants.small_radius_partitions(1, 100) >= 1

    def test_max_dishonest_formula(self):
        constants = ProtocolConstants.practical()
        assert constants.max_dishonest(300, 10) == int(300 / (3 * 10))
        with pytest.raises(ConfigurationError):
            constants.max_dishonest(300, 0)

    def test_zero_radius_base_size_positive(self):
        constants = ProtocolConstants.practical()
        assert constants.zero_radius_base_size(256, 4) >= 2

    def test_robust_iterations_at_least_two(self):
        assert ProtocolConstants.practical().robust_iterations(4) >= 2
