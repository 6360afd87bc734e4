"""Tests for shared randomness (honest and adversarial)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.simulation.randomness import AdversarialRandomness, SharedRandomness


class TestSharedRandomness:
    def test_sample_objects_probability_one_selects_all(self):
        rng = SharedRandomness(0)
        sample = rng.sample_objects(20, 1.0)
        np.testing.assert_array_equal(sample, np.arange(20))

    def test_sample_objects_never_empty(self):
        rng = SharedRandomness(0)
        for _ in range(20):
            assert rng.sample_objects(50, 0.01).size >= 1

    def test_sample_objects_invalid_probability(self):
        rng = SharedRandomness(0)
        with pytest.raises(ConfigurationError):
            rng.sample_objects(10, 0.0)
        with pytest.raises(ConfigurationError):
            rng.sample_objects(10, 1.5)

    def test_partition_in_two_is_a_partition(self):
        rng = SharedRandomness(1)
        indices = np.arange(37)
        left, right = rng.partition_in_two(indices)
        assert left.size > 0 and right.size > 0
        np.testing.assert_array_equal(np.sort(np.concatenate([left, right])), indices)

    def test_partition_in_two_small_input(self):
        rng = SharedRandomness(2)
        left, right = rng.partition_in_two(np.asarray([5, 9]))
        assert {int(left[0]), int(right[0])} == {5, 9}

    def test_partition_objects_covers_everything(self):
        rng = SharedRandomness(3)
        objects = np.arange(40)
        parts = rng.partition_objects(objects, 7)
        assert len(parts) == 7
        np.testing.assert_array_equal(np.sort(np.concatenate(parts)), objects)

    def test_partition_objects_caps_parts(self):
        rng = SharedRandomness(3)
        parts = rng.partition_objects(np.arange(3), 10)
        assert len(parts) == 3

    def test_partition_objects_matches_mask_comprehension(self):
        # The subsets of one integers draw, built one mask per subset.
        cases = np.random.default_rng(11)
        for seed in range(40):
            n = int(cases.integers(0, 60))
            requested = int(cases.integers(1, 80))  # often more parts than objects
            objects = np.sort(cases.choice(500, size=n, replace=False))
            rng, reference = SharedRandomness(seed), SharedRandomness(seed)
            got = rng.partition_objects(objects, requested)
            parts = max(1, min(requested, max(1, n)))
            assignment = reference.generator.integers(0, parts, size=n)
            want = [objects[assignment == i] for i in range(parts)]
            assert len(got) == len(want)
            for subset, expected in zip(got, want):
                assert subset.dtype == np.int64
                np.testing.assert_array_equal(subset, expected)
            assert (
                rng.generator.bit_generator.state == reference.generator.bit_generator.state
            )

    def test_assign_probers_shape_and_membership(self):
        rng = SharedRandomness(4)
        members = np.asarray([3, 8, 11])
        assignment = rng.assign_probers(members, n_objects=6, redundancy=5)
        assert assignment.shape == (6, 5)
        assert np.isin(assignment, members).all()

    def test_assign_probers_empty_cluster_rejected(self):
        rng = SharedRandomness(4)
        with pytest.raises(ConfigurationError):
            rng.assign_probers(np.asarray([], dtype=np.int64), 4, 3)

    def test_determinism(self):
        a = SharedRandomness(9).sample_objects(100, 0.3)
        b = SharedRandomness(9).sample_objects(100, 0.3)
        np.testing.assert_array_equal(a, b)


class TestAdversarialRandomness:
    def test_flagged_dishonest(self):
        adv = AdversarialRandomness(0)
        assert not adv.honest

    def test_hidden_objects_excluded_from_samples(self):
        hidden = np.asarray([0, 1, 2, 3, 4])
        adv = AdversarialRandomness(0, hidden_objects=hidden)
        for _ in range(10):
            sample = adv.sample_objects(30, 0.9)
            assert not np.isin(sample, hidden).any()
            assert sample.size > 0

    def test_sample_still_nonempty_when_everything_hidden(self):
        adv = AdversarialRandomness(0, hidden_objects=np.arange(10))
        sample = adv.sample_objects(10, 0.9)
        assert sample.size > 0

    def test_favoured_players_overrepresented(self):
        members = np.arange(20)
        favoured = np.asarray([0, 1])
        adv = AdversarialRandomness(
            1, favoured_players=favoured, favoured_weight=50.0
        )
        assignment = adv.assign_probers(members, n_objects=200, redundancy=5)
        favoured_share = np.isin(assignment, favoured).mean()
        # Unbiased share would be 2/20 = 0.1; heavy weighting must beat it.
        assert favoured_share > 0.5

    def test_unbiased_leader_draws_like_an_honest_one(self):
        # With nothing hidden, a dishonest leader's sample sets and object
        # partitions are the honest leader's draws for the same seed.
        def draws(source):
            return (
                source.sample_objects(60, 0.2),
                *source.partition_in_two(np.arange(40)),
                *source.partition_objects(np.arange(50), 6),
            )

        got, want = draws(AdversarialRandomness(7)), draws(SharedRandomness(7))
        assert len(got) == len(want) == 9
        for got_draw, want_draw in zip(got, want):
            np.testing.assert_array_equal(got_draw, want_draw)

    def test_invalid_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            AdversarialRandomness(0, favoured_weight=0.5)
