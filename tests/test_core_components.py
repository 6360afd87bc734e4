"""Tests for the core protocol's components: sampling, clustering, work sharing."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import make_context, planted_clusters_instance, zero_radius_instance
from repro.core.clustering import Clustering, build_neighbor_graph, cluster_players
from repro.core.sampling import (
    expected_sample_size,
    sample_disagreements,
    select_sample_set,
)
from repro.core.work_sharing import share_work
from repro.errors import ProtocolError
from repro.preferences.metrics import prediction_errors
from repro.simulation.randomness import AdversarialRandomness


class TestSampling:
    def test_sample_probability_decreases_with_diameter(self, ctx_planted):
        small_d = select_sample_set(ctx_planted, 4.0)
        assert small_d.size >= 1
        expected_large = expected_sample_size(ctx_planted, 1000.0)
        expected_small = expected_sample_size(ctx_planted, 4.0)
        assert expected_large < expected_small

    def test_invalid_diameter(self, ctx_planted):
        with pytest.raises(ProtocolError):
            select_sample_set(ctx_planted, 0.0)

    def test_adversarial_randomness_bias_flows_through(self, planted_small, constants):
        hidden = np.arange(10)
        ctx = make_context(
            planted_small,
            budget=4,
            constants=constants,
            randomness=AdversarialRandomness(0, hidden_objects=hidden),
            seed=0,
        )
        sample = select_sample_set(ctx, 4.0)
        assert not np.isin(sample, hidden).any()

    def test_sample_disagreements_lemma6_shape(self, planted_small):
        # Close (same-cluster) pairs must disagree on fewer sampled objects
        # than far (cross-cluster) pairs, on average.
        sample = np.arange(planted_small.n_objects)  # full sample: exact distances
        disagreements = sample_disagreements(planted_small.preferences, sample)
        same = planted_small.cluster_of[:, None] == planted_small.cluster_of[None, :]
        np.fill_diagonal(same, False)
        different = ~same
        np.fill_diagonal(different, False)
        assert disagreements[same].mean() < disagreements[different].mean()

    def test_sample_disagreements_requires_nonempty_sample(self, planted_small):
        with pytest.raises(ProtocolError):
            sample_disagreements(planted_small.preferences, np.asarray([], dtype=np.int64))


class TestNeighborGraph:
    def test_edges_follow_threshold(self):
        estimates = np.asarray(
            [[0, 0, 0, 0], [0, 0, 0, 1], [1, 1, 1, 1]], dtype=np.uint8
        )
        adjacency = build_neighbor_graph(estimates, threshold=1)
        assert adjacency[0, 1] and adjacency[1, 0]
        assert not adjacency[0, 2]
        assert not adjacency.diagonal().any()

    def test_rejects_non_matrix(self):
        with pytest.raises(ProtocolError):
            build_neighbor_graph(np.zeros(4), threshold=1)


class TestClusterPlayers:
    def _block_adjacency(self, sizes):
        n = sum(sizes)
        adjacency = np.zeros((n, n), dtype=bool)
        start = 0
        for size in sizes:
            adjacency[start : start + size, start : start + size] = True
            start += size
        np.fill_diagonal(adjacency, False)
        return adjacency

    def test_recovers_planted_blocks(self):
        adjacency = self._block_adjacency([8, 8, 8])
        clustering = cluster_players(adjacency, min_cluster_size=8)
        assert clustering.n_clusters == 3
        assert sorted(clustering.sizes().tolist()) == [8, 8, 8]
        # Every pair in the same cluster must indeed be in the same block.
        for cluster in clustering.clusters:
            assert np.ptp(cluster // 8) == 0

    def test_every_player_assigned_exactly_once(self):
        adjacency = self._block_adjacency([10, 6])
        clustering = cluster_players(adjacency, min_cluster_size=6)
        counted = np.concatenate(clustering.clusters)
        assert np.sort(counted).tolist() == list(range(16))
        assert (clustering.assignment >= 0).all()

    def test_leftovers_attach_to_a_neighbouring_cluster(self):
        adjacency = self._block_adjacency([8, 3])
        # The 3-block cannot seed (needs degree >= 7); its members must attach
        # somewhere so the clustering is total.
        adjacency[8, 0] = adjacency[0, 8] = True  # one bridge edge
        clustering = cluster_players(adjacency, min_cluster_size=8)
        assert (clustering.assignment >= 0).all()
        assert clustering.n_clusters == 1
        assert clustering.clusters[0].size == 11

    def test_degenerate_no_seed_gives_single_cluster(self):
        adjacency = np.zeros((5, 5), dtype=bool)
        clustering = cluster_players(adjacency, min_cluster_size=4)
        assert clustering.n_clusters == 1
        assert clustering.clusters[0].size == 5

    def test_seed_degree_override_allows_depleted_clusters(self):
        adjacency = self._block_adjacency([8, 6])
        strict = cluster_players(adjacency, min_cluster_size=8)
        relaxed = cluster_players(adjacency, min_cluster_size=8, seed_degree=5)
        assert strict.n_clusters == 1 or strict.sizes().max() >= 8
        assert relaxed.n_clusters == 2

    def test_invalid_inputs(self):
        with pytest.raises(ProtocolError):
            cluster_players(np.zeros((2, 3), dtype=bool), 1)
        with pytest.raises(ProtocolError):
            cluster_players(np.zeros((2, 2), dtype=bool), 0)


class TestWorkSharing:
    def test_share_work_assigns_every_player(self, constants):
        instance = zero_radius_instance(n_players=32, n_objects=40, n_clusters=4, seed=1)
        ctx = make_context(instance, budget=4, constants=constants, seed=1)
        clustering = Clustering(
            assignment=instance.cluster_of.copy(),
            clusters=[instance.cluster_members(c) for c in range(4)],
        )
        predictions = share_work(ctx, clustering)
        errors = prediction_errors(predictions, instance.preferences)
        assert errors.max() == 0

    def test_probe_load_is_shared(self, constants):
        instance = zero_radius_instance(n_players=64, n_objects=64, n_clusters=2, seed=2)
        ctx = make_context(instance, budget=4, constants=constants, seed=2)
        clustering = Clustering(
            assignment=instance.cluster_of.copy(),
            clusters=[instance.cluster_members(c) for c in range(2)],
        )
        share_work(ctx, clustering)
        redundancy = constants.vote_redundancy(64)
        expected_per_player = 64 * redundancy / 32  # objects * redundancy / cluster size
        assert ctx.oracle.max_probes() <= 4 * expected_per_player
        assert ctx.oracle.max_probes() < 64
