"""Step 3 of CalculatePreferences: neighbour graph and greedy clustering.

After every player has an estimate ``z(p)`` of its preferences on the sample
set, an edge joins ``p`` and ``q`` whenever ``|z(p) − z(q)|`` is below the
``Θ(log n)`` threshold of Lemma 7.  Lemma 8 guarantees (under the diameter
promise) that every player has degree ``≥ n/B − 1`` and that edges only join
players whose *true* distance is ``O(D)``.  The greedy procedure of §6.5 then
extracts clusters of size ``≥ n/B`` and diameter ``O(D)``:

1. repeatedly pick a player with degree ``≥ n/B − 1``, make a cluster of it
   and its neighbours, and remove them from the graph;
2. attach every remaining player to a cluster containing one of its former
   neighbours.

Off the diameter promise (wrong guessed ``D``, heavy adversarial noise) the
procedure can leave players with no former neighbour in any cluster; they are
attached to the cluster whose members' published estimates are closest on
average, so the output is always a total clustering (Lemma 9 property 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ProtocolError
from repro.perf import PackedBits, pack_bits, pairwise_hamming

__all__ = ["Clustering", "build_neighbor_graph", "cluster_players"]


@dataclass(frozen=True)
class Clustering:
    """A total assignment of players to clusters.

    ``assignment[p]`` is the cluster id of player ``p``; ``clusters[j]`` is
    the sorted array of members of cluster ``j``.
    """

    assignment: np.ndarray
    clusters: list[np.ndarray]

    @property
    def n_clusters(self) -> int:
        """Number of clusters."""
        return len(self.clusters)

    def sizes(self) -> np.ndarray:
        """Cluster sizes."""
        return np.asarray([c.size for c in self.clusters], dtype=np.int64)

    def members(self, cluster_id: int) -> np.ndarray:
        """Members of one cluster."""
        return self.clusters[int(cluster_id)]


def build_neighbor_graph(
    published_estimates: np.ndarray | PackedBits, threshold: float
) -> np.ndarray:
    """Adjacency matrix of the neighbour graph.

    ``published_estimates`` holds each player's published estimate on the
    sample set (shape ``(n_players, sample_size)``), dense or already packed
    along the sample axis (the packed publish path hands the block over
    without a repack); an edge joins two players whose estimates differ on
    at most ``threshold`` sampled objects.  Self-loops are excluded.  The
    distances are exact integers (:func:`repro.perf.pairwise_hamming`
    counts them in integer arithmetic and compares them with ``threshold``
    inside the kernel), so a threshold that lands on a distance keeps that
    edge.
    """
    if isinstance(published_estimates, PackedBits):
        packed = published_estimates
    else:
        published_estimates = np.asarray(published_estimates)
        if published_estimates.ndim != 2:
            raise ProtocolError(
                f"published_estimates must be 2-D, got shape {published_estimates.shape}"
            )
        packed = pack_bits(published_estimates.astype(np.uint8))
    if packed.data.ndim != 2:
        raise ProtocolError(
            f"published_estimates must be 2-D, got shape {packed.data.shape}"
        )
    adjacency = pairwise_hamming(packed, threshold)
    np.fill_diagonal(adjacency, False)
    return adjacency


def cluster_players(
    adjacency: np.ndarray,
    min_cluster_size: int,
    seed_degree: int | None = None,
) -> Clustering:
    """Greedy clustering of §6.5.

    Parameters
    ----------
    adjacency:
        Boolean adjacency matrix of the neighbour graph.
    min_cluster_size:
        The target cluster size ``⌈n/B⌉`` — a player seeds a cluster only if
        its remaining degree is at least ``seed_degree``.
    seed_degree:
        Minimum remaining degree required to seed a new cluster; defaults to
        ``min_cluster_size − 1`` (the honest-only rule of §6.5).  In the
        dishonest setting (§7.2) up to ``n/(3B)`` of an honest player's true
        neighbours may be dishonest and publish arbitrary estimates, so its
        *visible* degree can be that much lower; callers tolerate this by
        passing ``min_cluster_size − 1 − n/(3B)``.

    Returns
    -------
    Clustering
        Total clustering; every player belongs to exactly one cluster
        (Lemma 9 property 1).  Attachment of leftovers can only grow seeded
        clusters.  When *no* player meets the degree requirement (possible
        off the diameter promise), all players fall into a single cluster so
        the protocol still returns a total output.
    """
    adjacency = np.asarray(adjacency, dtype=bool)
    n = adjacency.shape[0]
    if adjacency.shape != (n, n):
        raise ProtocolError(f"adjacency must be square, got shape {adjacency.shape}")
    if min_cluster_size <= 0:
        raise ProtocolError(f"min_cluster_size must be positive, got {min_cluster_size}")
    if seed_degree is None:
        seed_degree = min_cluster_size - 1
    seed_degree = max(1, int(seed_degree))

    assignment = np.full(n, -1, dtype=np.int64)
    remaining = np.ones(n, dtype=bool)
    clusters: list[np.ndarray] = []

    # Phase 1: seed clusters around high-degree players.  Degrees over the
    # remaining graph are maintained incrementally — removing a cluster
    # subtracts its members' adjacency columns from the players still
    # remaining (no other degree is read again) — so seeding costs
    # O(n · removed) per cluster (O(n²) total) instead of recomputing the
    # full (adjacency & remaining) sum each round.
    degrees = adjacency.sum(axis=1, dtype=np.int64)
    while True:
        active_degrees = np.where(remaining, degrees, -1)
        eligible = np.flatnonzero(active_degrees >= seed_degree)
        if eligible.size == 0:
            break
        seed = int(eligible[int(np.argmax(active_degrees[eligible]))])
        neighbors = np.flatnonzero(adjacency[seed] & remaining)
        members = np.unique(np.concatenate([[seed], neighbors]))
        cluster_id = len(clusters)
        clusters.append(members.astype(np.int64))
        assignment[members] = cluster_id
        remaining[members] = False
        rest = np.flatnonzero(remaining)
        degrees[rest] -= adjacency[rest][:, members].sum(axis=1, dtype=np.int64)

    # Phase 2: attach leftovers to a cluster containing a former neighbour.
    leftovers = np.flatnonzero(remaining)
    if clusters:
        for player in leftovers:
            neighbor_clusters = assignment[adjacency[player]]
            neighbor_clusters = neighbor_clusters[neighbor_clusters >= 0]
            if neighbor_clusters.size:
                counts = np.bincount(neighbor_clusters, minlength=len(clusters))
                target = int(np.argmax(counts))
            else:
                # No former neighbour in any cluster: join the largest cluster
                # (a conservative default; only reachable off the promise).
                target = int(np.argmax([c.size for c in clusters]))
            assignment[player] = target
    else:
        # Degenerate case: nobody met the degree requirement.
        assignment[:] = 0
        clusters = [np.arange(n, dtype=np.int64)]
        return Clustering(assignment=assignment, clusters=clusters)

    # Rebuild member lists to include attached leftovers.
    rebuilt: list[np.ndarray] = []
    for cluster_id in range(len(clusters)):
        rebuilt.append(np.flatnonzero(assignment == cluster_id).astype(np.int64))
    return Clustering(assignment=assignment, clusters=rebuilt)
