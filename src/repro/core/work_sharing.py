"""Step 4 of CalculatePreferences: sharing the probing work inside clusters.

For every cluster and every object, ``Θ(log n)`` cluster members are chosen
at random to probe the object and post their results; every member of the
cluster adopts the majority of the posted values as its prediction for that
object.  Lemma 10 bounds each player's expected load by ``O(B log n)``
probes; Lemma 12 bounds the resulting error by ``O(D)``; Lemma 13 shows
dishonest members can only flip the majority on ``O(D)`` "strange" objects.

The prober assignment comes from the shared randomness — a dishonest leader
can bias it toward coalition members (see
:class:`repro.simulation.randomness.AdversarialRandomness`), which is exactly
the attack surface the robust wrapper's leader election closes.

:func:`share_work` runs the whole phase **cross-cluster batched**: the
assignments are still drawn cluster by cluster (the shared-randomness order
is part of the protocol's determinism contract), but the probes of *all*
clusters resolve through one ``probe_assignment`` call on the assignments
laid side by side, and each cluster's reports are produced for and posted
to its own channel.  Clusters are disjoint, so the batched accounting,
board state and majorities are bit-identical to voting one cluster at a
time (tested against that loop, kept in the tests as the reference, which
probes, reports and posts one pair at a time).
"""

from __future__ import annotations

import numpy as np

from repro.core.clustering import Clustering
from repro.obs.runtime import traced
from repro.protocols.context import ProtocolContext

__all__ = ["share_work"]


def _majority_from_votes(reported: np.ndarray, redundancy: int) -> np.ndarray:
    """Majority of the redundancy votes per object (ties go to 1).

    Row ``o`` of ``reported``, shape ``(n_objects, redundancy)``, holds the
    votes for object ``o``.  Votes are a multiset — the same member drawn
    twice counts twice — which is why the majority is taken here and not
    from the board's distinct-cell state.
    """
    likes = reported.sum(axis=1, dtype=np.int64)
    return (2 * likes >= redundancy).astype(np.uint8)


@traced("share_work")
def share_work(
    ctx: ProtocolContext,
    clustering: Clustering,
    channel: str = "work-sharing",
) -> tuple[np.ndarray, np.ndarray]:
    """Run the work-sharing phase for every cluster.

    Every member of a cluster receives the cluster's majority vector: for
    every object, ``redundancy`` members chosen by the shared randomness
    (with replacement) probe it and post reports, and the cluster adopts
    the majority of the posted reports.  The probe traffic of all clusters
    goes through one bulk call; this is bit-identical to voting one cluster
    at a time — same shared-randomness draws (still per cluster, in cluster
    order), same probe accounting (clusters are disjoint, so no
    cross-cluster pair collides), same board state, same majorities.

    Returns the predictions as a ``(labels, rows)`` pair, the layout in
    which the vote produces them: ``rows[c]`` is cluster ``c``'s majority
    vector (zeros for a cluster without members), and player ``p``
    predicts ``rows[labels[p]]``.  Labels are given cluster by cluster, so
    a player listed in two clusters takes the later one's row.  A player in
    no cluster gets an all-zero row, appended after the clusters' rows only
    when some player needs it.  No ``(n_players, n_objects)`` matrix is
    built; ``rows[labels]`` is the dense prediction matrix.

    Cluster ``c``'s reports are posted to ``{channel}/c{c}``.  Naming rule:
    every work-sharing channel contains ``work`` (the default, ``…/work``
    under CalculatePreferences, ``baseline/oracle-work``) and no other
    protocol channel does; :class:`~repro.players.adversaries.AdaptiveStrategy`
    reads its attack phase from it.
    """
    redundancy = ctx.constants.vote_redundancy(ctx.n_players)
    n_objects = ctx.n_objects
    labels = np.full(ctx.n_players, -1, dtype=np.int64)
    rows = np.zeros((clustering.n_clusters, n_objects), dtype=np.uint8)

    populated = [
        cluster_id
        for cluster_id in range(clustering.n_clusters)
        if clustering.members(cluster_id).size
    ]
    if populated:
        # Draw every cluster's (n_objects, redundancy) assignment first
        # (cluster order — the draws are the protocol-visible part), then
        # resolve all probes in one call on the assignments laid side by side.
        assignments = [
            ctx.randomness.assign_probers(
                clustering.members(cluster_id), n_objects, redundancy
            )
            for cluster_id in populated
        ]
        true_values = ctx.oracle.probe_assignment(np.concatenate(assignments, axis=1))

        objects = np.repeat(np.arange(n_objects, dtype=np.int64), redundancy)
        for index, cluster_id in enumerate(populated):
            columns = slice(index * redundancy, (index + 1) * redundancy)
            probers = assignments[index]
            cluster_channel = f"{channel}/c{cluster_id}"
            # The pool reports on the flat pairs, object-major: entry
            # o * redundancy + r is object o's r-th prober and its answer.
            reported = ctx.pool.reports_pairs(
                cluster_channel,
                probers.reshape(-1),
                objects,
                true_values[:, columns].reshape(-1),
            ).reshape(n_objects, redundancy)
            ctx.board.post_report_assignment(cluster_channel, probers, reported)
            rows[cluster_id] = _majority_from_votes(reported, redundancy)
            labels[clustering.members(cluster_id)] = cluster_id
    unassigned = labels < 0
    if unassigned.any():
        labels[unassigned] = rows.shape[0]
        rows = np.concatenate([rows, np.zeros((1, n_objects), dtype=np.uint8)])
    return labels, rows
