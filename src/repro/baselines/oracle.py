"""Oracle skyline: clustering on the *true* distance matrix.

Definition 1 benchmarks every algorithm against the diameter of the best
set of ``n/B`` players around each player.  This module realises that
benchmark operationally: it clusters players using the hidden distance
matrix (something no real protocol can do — it is an *unachievable
skyline*), then runs the paper's own work-sharing phase inside those ideal
clusters.  The result is the best error the work-sharing mechanism could
possibly deliver, and experiments use it to normalise approximation ratios
("how much do we lose by having to *discover* the clusters from probes?").
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.clustering import Clustering
from repro.core.work_sharing import share_work
from repro.errors import ProtocolError
from repro.preferences.metrics import distance_matrix
from repro.protocols.context import ProtocolContext

__all__ = ["oracle_clustering", "ideal_clusters"]


def ideal_clusters(truth: np.ndarray, budget: int) -> Clustering:
    """Greedy min-diameter clustering using the hidden distance matrix.

    Repeatedly pick the player whose ``⌈n/B⌉``-th nearest neighbour is
    closest (the tightest remaining ball), make a cluster of that ball, and
    remove it; leftovers join the cluster of their nearest assigned player.
    This is the natural constructive realisation of the Definition-1
    benchmark (it is a 2-approximation of the per-player optimal diameter,
    by the triangle inequality).
    """
    truth = np.asarray(truth)
    n = truth.shape[0]
    if budget <= 0:
        raise ProtocolError(f"budget must be positive, got {budget}")
    target = max(2, int(math.ceil(n / budget)))
    distances = distance_matrix(truth)

    assignment = np.full(n, -1, dtype=np.int64)
    remaining = np.ones(n, dtype=bool)
    clusters: list[np.ndarray] = []
    while remaining.sum() >= target:
        rem_idx = np.flatnonzero(remaining)
        sub = distances[np.ix_(rem_idx, rem_idx)]
        k = min(target - 1, sub.shape[0] - 1)
        radii = np.partition(sub, k, axis=1)[:, k]
        seed_local = int(np.argmin(radii))
        order = np.argsort(sub[seed_local])
        members = rem_idx[order[:target]]
        cluster_id = len(clusters)
        clusters.append(np.sort(members))
        assignment[members] = cluster_id
        remaining[members] = False

    leftovers = np.flatnonzero(remaining)
    if clusters:
        assigned = np.flatnonzero(assignment >= 0)
        for player in leftovers:
            nearest = assigned[int(np.argmin(distances[player, assigned]))]
            assignment[player] = assignment[nearest]
    else:
        assignment[:] = 0
        clusters = [np.arange(n, dtype=np.int64)]
        return Clustering(assignment=assignment, clusters=clusters)

    rebuilt = [np.flatnonzero(assignment == cid).astype(np.int64) for cid in range(len(clusters))]
    return Clustering(assignment=assignment, clusters=rebuilt)


def oracle_clustering(ctx: ProtocolContext) -> np.ndarray:
    """Run work sharing inside ideal (true-distance) clusters.

    The clustering step reads the ground truth (hence "oracle"); the
    work-sharing phase still goes through the probe oracle and the player
    pool, so dishonest players can still lie inside their assigned clusters —
    making this skyline meaningful in the Byzantine experiments too.
    """
    clustering = ideal_clusters(ctx.oracle.ground_truth(), ctx.budget)
    labels, rows = share_work(ctx, clustering, channel="baseline/oracle-work")
    return rows[labels]
