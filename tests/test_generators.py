"""Tests for preference-instance generators, including property-based checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.preferences.generators import (
    _flip_within_radius,
    claim2_lower_bound_instance,
    heterogeneous_cluster_instance,
    mixture_model_instance,
    planted_clusters_instance,
    random_instance,
    zero_radius_instance,
)
from repro.preferences.metrics import set_diameter
from reference_loops import flip_within_radius_per_row, planted_clusters_per_row


class TestZeroRadius:
    def test_shapes_and_binary(self):
        inst = zero_radius_instance(20, 30, 4, seed=0)
        assert inst.preferences.shape == (20, 30)
        assert set(np.unique(inst.preferences)).issubset({0, 1})
        assert inst.n_clusters() == 4

    def test_clusters_have_zero_diameter(self):
        inst = zero_radius_instance(24, 40, 3, seed=1)
        for cid in range(3):
            members = inst.cluster_members(cid)
            assert set_diameter(inst.preferences, members) == 0

    def test_planted_diameters_zero(self):
        inst = zero_radius_instance(10, 10, 2, seed=2)
        assert (inst.planted_diameters == 0).all()

    def test_invalid_cluster_count(self):
        with pytest.raises(ConfigurationError):
            zero_radius_instance(4, 4, 0)
        with pytest.raises(ConfigurationError):
            zero_radius_instance(4, 4, 5)


class TestPlantedClusters:
    def test_cluster_diameter_bounded(self):
        diameter = 10
        inst = planted_clusters_instance(30, 60, 3, diameter, seed=3)
        for cid in range(3):
            members = inst.cluster_members(cid)
            assert set_diameter(inst.preferences, members) <= diameter

    def test_balanced_sizes(self):
        inst = planted_clusters_instance(31, 20, 4, 4, seed=4)
        sizes = np.bincount(inst.cluster_of)
        assert sizes.min() >= 31 // 4
        assert sizes.sum() == 31

    # Diameters 0 (no draw at all), 1 (radius 0), 2 (most rows flip 0 or
    # 1 positions), wider ones, and the whole width.
    @pytest.mark.parametrize("diameter", [0, 1, 2, 9, 40, 57])
    @pytest.mark.parametrize("n_clusters", [1, 3, 7])
    def test_matches_the_per_row_flip_loop(self, diameter, n_clusters):
        inst = planted_clusters_instance(45, 57, n_clusters, diameter, seed=diameter)
        want = planted_clusters_per_row(45, 57, n_clusters, diameter, seed=diameter)
        np.testing.assert_array_equal(inst.preferences, want)

    @pytest.mark.parametrize("radius", [0, 1, 3, 16, 17, 40])
    def test_flips_match_the_per_row_loop_at_any_radius(self, radius):
        # Radii at and beyond the width of 17 flip at most every position;
        # radius 1 leaves about half the rows unflipped.
        center = np.random.default_rng(1).integers(0, 2, size=17, dtype=np.uint8)
        rng, reference_rng = np.random.default_rng(radius), np.random.default_rng(radius)
        got = _flip_within_radius(center, radius, 30, rng)
        want = flip_within_radius_per_row(center, radius, 30, reference_rng)
        np.testing.assert_array_equal(got, want)
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        distances = (got != center).sum(axis=1)
        assert distances.max() <= min(radius, 17)
        if radius == 1:
            assert (distances == 0).any() and (distances == 1).any()

    def test_invalid_diameter(self):
        with pytest.raises(ConfigurationError):
            planted_clusters_instance(10, 10, 2, diameter=11)
        with pytest.raises(ConfigurationError):
            planted_clusters_instance(10, 10, 2, diameter=-1)

    @settings(max_examples=20, deadline=None)
    @given(
        n_players=st.integers(4, 40),
        n_clusters=st.integers(1, 4),
        diameter=st.integers(0, 10),
        seed=st.integers(0, 2**20),
    )
    def test_property_cluster_diameter_never_exceeds_planted(
        self, n_players, n_clusters, diameter, seed
    ):
        n_clusters = min(n_clusters, n_players)
        n_objects = 32
        diameter = min(diameter, n_objects)
        inst = planted_clusters_instance(n_players, n_objects, n_clusters, diameter, seed=seed)
        for cid in range(n_clusters):
            members = inst.cluster_members(cid)
            if members.size:
                assert set_diameter(inst.preferences, members) <= diameter


class TestMixtureModel:
    def test_shapes(self):
        inst = mixture_model_instance(20, 50, 4, noise=0.1, seed=5)
        assert inst.preferences.shape == (20, 50)
        assert inst.n_clusters() == 4

    def test_zero_noise_gives_identical_members(self):
        inst = mixture_model_instance(12, 30, 3, noise=0.0, seed=6)
        for cid in range(3):
            members = inst.cluster_members(cid)
            assert set_diameter(inst.preferences, members) == 0

    def test_invalid_noise(self):
        with pytest.raises(ConfigurationError):
            mixture_model_instance(10, 10, 2, noise=0.7)


class TestClaim2:
    def test_metadata_describes_structure(self):
        inst = claim2_lower_bound_instance(40, 40, budget=4, diameter=8, seed=7)
        meta = inst.metadata
        assert meta["generator"] == "claim2_lower_bound"
        assert len(meta["special_objects"]) == 8
        assert meta["distinguished_player"] in meta["cluster_members"]
        assert len(meta["cluster_members"]) >= 40 // 4

    def test_cluster_agrees_outside_special_set(self):
        inst = claim2_lower_bound_instance(30, 30, budget=3, diameter=6, seed=8)
        meta = inst.metadata
        p = meta["distinguished_player"]
        special = np.asarray(meta["special_objects"])
        ordinary = np.setdiff1d(np.arange(30), special)
        for member in meta["cluster_members"]:
            np.testing.assert_array_equal(
                inst.preferences[member, ordinary], inst.preferences[p, ordinary]
            )

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            claim2_lower_bound_instance(10, 10, budget=0, diameter=2)
        with pytest.raises(ConfigurationError):
            claim2_lower_bound_instance(10, 10, budget=2, diameter=0)
        with pytest.raises(ConfigurationError):
            claim2_lower_bound_instance(10, 10, budget=2, diameter=11)


class TestRandomAndHeterogeneous:
    def test_random_instance_no_clusters(self):
        inst = random_instance(15, 25, seed=9)
        assert inst.n_clusters() == 0
        assert (inst.cluster_of == -1).all()

    def test_heterogeneous_sizes_and_diameters(self):
        inst = heterogeneous_cluster_instance(
            20, 40, cluster_sizes=[10, 6, 4], cluster_diameters=[4, 8, 2], seed=10
        )
        sizes = np.bincount(inst.cluster_of)
        np.testing.assert_array_equal(np.sort(sizes), [4, 6, 10])
        for cid, diameter in enumerate([4, 8, 2]):
            members = inst.cluster_members(cid)
            assert set_diameter(inst.preferences, members) <= diameter

    def test_heterogeneous_validation(self):
        with pytest.raises(ConfigurationError):
            heterogeneous_cluster_instance(10, 10, [5, 4], [1, 1, 1])
        with pytest.raises(ConfigurationError):
            heterogeneous_cluster_instance(10, 10, [5, 4], [1, 1])
        with pytest.raises(ConfigurationError):
            heterogeneous_cluster_instance(10, 10, [5, 5], [1, 99])

    def test_determinism(self):
        a = planted_clusters_instance(16, 16, 2, 4, seed=123)
        b = planted_clusters_instance(16, 16, 2, 4, seed=123)
        np.testing.assert_array_equal(a.preferences, b.preferences)
        np.testing.assert_array_equal(a.cluster_of, b.cluster_of)
