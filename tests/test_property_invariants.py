"""Property-based tests on cross-cutting protocol invariants.

These use hypothesis to exercise the simulator's bookkeeping invariants —
the properties every protocol run must satisfy regardless of instance,
adversary or constants:

* probe accounting: distinct probes never exceed requests, never exceed the
  number of objects, and never decrease;
* report integrity: honest rows pass through the player pool untouched and
  dishonest rows stay binary;
* protocol outputs are always binary matrices of the right shape;
* the clustering step always produces a partition of the players.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import make_context, planted_clusters_instance
from repro.core.clustering import build_neighbor_graph, cluster_players
from repro.players.adversaries import build_coalition
from repro.players.base import PlayerPool
from repro.protocols.small_radius import small_radius
from repro.protocols.zero_radius import zero_radius
from repro.simulation.config import ProtocolConstants
from repro.simulation.oracle import ProbeOracle


small_instances = st.builds(
    planted_clusters_instance,
    n_players=st.integers(8, 32),
    n_objects=st.integers(8, 48),
    n_clusters=st.integers(1, 4),
    diameter=st.integers(0, 6),
    seed=st.integers(0, 2**20),
)


@settings(max_examples=15, deadline=None)
@given(instance=small_instances, budget=st.integers(1, 6), seed=st.integers(0, 100))
def test_probe_accounting_invariants(instance, budget, seed):
    diameter = min(6, instance.n_objects)
    ctx = make_context(instance, budget=budget, seed=seed)
    small_radius(ctx, ctx.all_players(), ctx.all_objects(), diameter=diameter, budget=budget)
    probes = ctx.oracle.probes_used()
    requests = ctx.oracle.requests_used()
    assert (probes >= 0).all()
    assert (probes <= instance.n_objects).all()
    assert (requests >= probes).all()


@settings(max_examples=15, deadline=None)
@given(instance=small_instances, budget=st.integers(1, 6), seed=st.integers(0, 100))
def test_zero_radius_output_is_binary_and_well_shaped(instance, budget, seed):
    ctx = make_context(instance, budget=budget, seed=seed)
    estimates = zero_radius(ctx, ctx.all_players(), ctx.all_objects(), budget_prime=budget)
    assert estimates.shape == (instance.n_players, instance.n_objects)
    assert set(np.unique(estimates)).issubset({0, 1})


@settings(max_examples=15, deadline=None)
@given(
    instance=small_instances,
    coalition_size=st.integers(0, 4),
    strategy=st.sampled_from(["random", "invert", "promote", "hijack", "strange"]),
    seed=st.integers(0, 100),
)
def test_reports_stay_binary_and_honest_rows_untouched(instance, coalition_size, strategy, seed):
    coalition_size = min(coalition_size, instance.n_players - instance.n_players // 2 - 1)
    coalition_size = max(coalition_size, 0)
    victim = np.arange(instance.n_players // 2)
    strategies, plan = build_coalition(
        instance.preferences, coalition_size, strategy=strategy, victim_cluster=victim, seed=seed
    )
    pool = PlayerPool(instance.preferences, strategies=strategies)
    players = np.arange(instance.n_players)
    objects = np.arange(instance.n_objects)
    true_block = instance.preferences.copy()
    reports = pool.reports_block("sr/pub", players, objects, true_block)
    assert set(np.unique(reports)).issubset({0, 1})
    honest_rows = np.setdiff1d(players, plan.members)
    np.testing.assert_array_equal(reports[honest_rows], true_block[honest_rows])


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(4, 30),
    threshold=st.integers(0, 20),
    min_cluster_size=st.integers(1, 8),
    seed=st.integers(0, 2**16),
)
def test_clustering_is_always_a_partition(n, threshold, min_cluster_size, seed):
    rng = np.random.default_rng(seed)
    estimates = rng.integers(0, 2, size=(n, 24), dtype=np.uint8)
    adjacency = build_neighbor_graph(estimates, threshold=threshold)
    clustering = cluster_players(adjacency, min_cluster_size=min(min_cluster_size, n))
    members = np.concatenate(clustering.clusters)
    assert np.sort(members).tolist() == list(range(n))
    assert (clustering.assignment >= 0).all()
    for cluster_id, cluster in enumerate(clustering.clusters):
        assert (clustering.assignment[cluster] == cluster_id).all()


@settings(max_examples=15, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 10), st.integers(1, 20)),
    seed=st.integers(0, 2**16),
)
def test_oracle_memoisation_idempotent(shape, seed):
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, 2, size=shape, dtype=np.uint8)
    oracle = ProbeOracle(truth)
    players = np.arange(shape[0])
    objects = np.arange(shape[1])
    first = oracle.probe_block(players, objects)
    counts_after_first = oracle.probes_used().copy()
    second = oracle.probe_block(players, objects)
    np.testing.assert_array_equal(first, second)
    np.testing.assert_array_equal(oracle.probes_used(), counts_after_first)
    np.testing.assert_array_equal(first, truth)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_practical_constants_keep_lemma7_threshold_ordering(seed):
    # For any n, the in-cluster bound must stay below the edge threshold and
    # the edge threshold below the expected far-pair disagreement at the
    # separation distance — the ordering Lemma 7 needs.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(16, 4096))
    constants = ProtocolConstants.practical()
    close = constants.sample_agreement_bound(n)
    threshold = constants.edge_threshold(n)
    far = (
        constants.sample_prob_factor
        * constants.log_n(n)
        * constants.separation_factor
        / 2.0
    )
    assert close < threshold < far * 2.0
