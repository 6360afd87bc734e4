"""Instance generators: hidden preference matrices with known structure.

The paper's guarantees are parameterised by the (unknown) correlation
structure of the players' preferences.  To evaluate the protocol we generate
instances where that structure is *planted* and therefore known exactly:

* :func:`zero_radius_instance` — clusters of identical preferences (the
  ZeroRadius setting of Theorem 4);
* :func:`planted_clusters_instance` — clusters of bounded diameter ``D``
  (the general setting of Theorems 5 and 14);
* :func:`mixture_model_instance` — players drawn from a mixture of type
  vectors (the related-work setting of Kleinberg–Sandler, used to test the
  protocol off its home turf);
* :func:`claim2_lower_bound_instance` — the exact adversarial distribution
  used in the proof of Claim 2 (the lower bound);
* :func:`random_instance` — fully independent preferences (collaboration
  cannot help; sanity baseline);
* :func:`heterogeneous_cluster_instance` — clusters of varying sizes and
  diameters (stress test for the clustering step, §8 discussion).

Every generator returns a :class:`PlantedInstance` carrying the matrix, the
planted cluster assignment and per-player diameter bounds usable as the
Definition-1 benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro._typing import PreferenceMatrix, SeedLike, as_generator
from repro.errors import ConfigurationError

__all__ = [
    "PlantedInstance",
    "zero_radius_instance",
    "planted_clusters_instance",
    "mixture_model_instance",
    "claim2_lower_bound_instance",
    "random_instance",
    "heterogeneous_cluster_instance",
]


@dataclass(frozen=True)
class PlantedInstance:
    """A generated instance with its planted structure.

    Attributes
    ----------
    preferences:
        The hidden matrix ``V`` of shape ``(n_players, n_objects)``.
    cluster_of:
        Planted cluster id per player (``-1`` when no cluster was planted).
    planted_diameters:
        Per-player upper bound on ``D_opt(p)`` implied by the planted
        structure (the diameter of the player's planted cluster), or the
        2-approximation when no structure exists.
    metadata:
        Generator name and parameters, recorded for experiment provenance.
    """

    preferences: PreferenceMatrix
    cluster_of: np.ndarray
    planted_diameters: np.ndarray
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def n_players(self) -> int:
        """Number of players."""
        return self.preferences.shape[0]

    @property
    def n_objects(self) -> int:
        """Number of objects."""
        return self.preferences.shape[1]

    def cluster_members(self, cluster_id: int) -> np.ndarray:
        """Indices of players in a planted cluster."""
        return np.flatnonzero(self.cluster_of == cluster_id)

    def n_clusters(self) -> int:
        """Number of planted clusters (0 if none)."""
        ids = self.cluster_of[self.cluster_of >= 0]
        return int(np.unique(ids).size) if ids.size else 0


def _validate_sizes(n_players: int, n_objects: int) -> None:
    if n_players <= 0 or n_objects <= 0:
        raise ConfigurationError(
            f"n_players and n_objects must be positive, got {n_players}, {n_objects}"
        )


def _balanced_cluster_assignment(
    n_players: int, n_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """Assign players to clusters of (near-)equal size, in random order."""
    if n_clusters <= 0 or n_clusters > n_players:
        raise ConfigurationError(
            f"n_clusters must lie in [1, n_players]; got {n_clusters} for {n_players} players"
        )
    base = np.repeat(np.arange(n_clusters), int(np.ceil(n_players / n_clusters)))[:n_players]
    return rng.permutation(base)


def _flip_within_radius(
    center: np.ndarray, radius: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Generate ``count`` vectors within Hamming distance ``radius`` of ``center``.

    Each vector flips a uniformly random subset of exactly
    ``rng.integers(0, radius+1)`` positions, so pairwise distances within the
    resulting set are at most ``2 · radius`` (triangle inequality).
    """
    n_objects = center.shape[0]
    radius = min(radius, n_objects)
    out = np.tile(center, (count, 1))
    if radius == 0 or count == 0:
        return out
    flips_per_row = rng.integers(0, radius + 1, size=count)
    # One draw per row with flips, in row order; a row's positions are
    # distinct, so one flat scatter applies every flip exactly.
    rows = np.flatnonzero(flips_per_row)
    if rows.size:
        positions = [
            rng.choice(n_objects, size=int(flips), replace=False)
            for flips in flips_per_row[rows].tolist()
        ]
        offsets = np.repeat(rows * n_objects, flips_per_row[rows])
        out.reshape(-1)[np.concatenate(positions) + offsets] ^= 1
    return out


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------
def zero_radius_instance(
    n_players: int,
    n_objects: int,
    n_clusters: int,
    seed: SeedLike = None,
) -> PlantedInstance:
    """Clusters of players with *identical* preferences (diameter 0).

    This is the Theorem-4 setting: at least ``n / n_clusters`` players share
    each preference vector exactly.
    """
    _validate_sizes(n_players, n_objects)
    rng = as_generator(seed)
    assignment = _balanced_cluster_assignment(n_players, n_clusters, rng)
    centers = rng.integers(0, 2, size=(n_clusters, n_objects), dtype=np.uint8)
    preferences = centers[assignment]
    return PlantedInstance(
        preferences=preferences.astype(np.uint8),
        cluster_of=assignment.astype(np.int64),
        planted_diameters=np.zeros(n_players, dtype=np.int64),
        metadata={
            "generator": "zero_radius",
            "n_clusters": int(n_clusters),
        },
    )


def planted_clusters_instance(
    n_players: int,
    n_objects: int,
    n_clusters: int,
    diameter: int,
    seed: SeedLike = None,
) -> PlantedInstance:
    """Clusters of bounded Hamming diameter ``diameter``.

    Each cluster has a random centre; members flip at most ``diameter // 2``
    random positions, so every planted cluster has diameter ``≤ diameter``.
    This is the workload for the main optimality experiments (E5, E6, E8).
    """
    _validate_sizes(n_players, n_objects)
    if diameter < 0 or diameter > n_objects:
        raise ConfigurationError(
            f"diameter must lie in [0, n_objects]; got {diameter} for {n_objects} objects"
        )
    rng = as_generator(seed)
    assignment = _balanced_cluster_assignment(n_players, n_clusters, rng)
    centers = rng.integers(0, 2, size=(n_clusters, n_objects), dtype=np.uint8)
    preferences = np.empty((n_players, n_objects), dtype=np.uint8)
    radius = diameter // 2
    for cluster_id in range(n_clusters):
        members = np.flatnonzero(assignment == cluster_id)
        preferences[members] = _flip_within_radius(
            centers[cluster_id], radius, members.size, rng
        )
    return PlantedInstance(
        preferences=preferences,
        cluster_of=assignment.astype(np.int64),
        planted_diameters=np.full(n_players, int(diameter), dtype=np.int64),
        metadata={
            "generator": "planted_clusters",
            "n_clusters": int(n_clusters),
            "diameter": int(diameter),
        },
    )


def mixture_model_instance(
    n_players: int,
    n_objects: int,
    n_types: int,
    noise: float = 0.05,
    seed: SeedLike = None,
) -> PlantedInstance:
    """Players drawn from a mixture of type vectors with i.i.d. noise.

    Each player picks a type uniformly at random and flips each coordinate of
    the type vector independently with probability ``noise``.  The expected
    pairwise distance within a type is ``2 · noise · (1 − noise) · n_objects``,
    so the planted diameter bound records a high-probability envelope
    (``2 · noise · n_objects + 4 · sqrt(n_objects)``).
    """
    _validate_sizes(n_players, n_objects)
    if not 0.0 <= noise < 0.5:
        raise ConfigurationError(f"noise must lie in [0, 0.5), got {noise}")
    rng = as_generator(seed)
    assignment = _balanced_cluster_assignment(n_players, n_types, rng)
    types = rng.integers(0, 2, size=(n_types, n_objects), dtype=np.uint8)
    preferences = types[assignment]
    flips = rng.random((n_players, n_objects)) < noise
    preferences = preferences ^ flips.astype(np.uint8)
    envelope = int(np.ceil(2 * noise * n_objects + 4 * np.sqrt(n_objects)))
    return PlantedInstance(
        preferences=preferences,
        cluster_of=assignment.astype(np.int64),
        planted_diameters=np.full(n_players, min(envelope, n_objects), dtype=np.int64),
        metadata={
            "generator": "mixture_model",
            "n_types": int(n_types),
            "noise": float(noise),
        },
    )


def claim2_lower_bound_instance(
    n_players: int,
    n_objects: int,
    budget: int,
    diameter: int,
    seed: SeedLike = None,
) -> PlantedInstance:
    """The adversarial distribution from the proof of Claim 2.

    A set ``P`` of ``n/B`` players is chosen; a distinguished player ``p ∈ P``
    gets a random vector; every other member of ``P`` agrees with ``p``
    everywhere except on a special set ``S`` of ``diameter`` objects where its
    preferences are random; players outside ``P`` are fully random.  Claim 2
    shows that *no* B-budget algorithm can predict ``p``'s preferences on
    ``S`` better than guessing, so every algorithm suffers error ``≥ D/4`` in
    expectation for ``p``.

    The metadata records the distinguished player and the special object set
    so the lower-bound experiment (E7) can measure error restricted to ``S``.
    """
    _validate_sizes(n_players, n_objects)
    if budget <= 0:
        raise ConfigurationError(f"budget must be positive, got {budget}")
    if not 0 < diameter <= n_objects:
        raise ConfigurationError(
            f"diameter must lie in (0, n_objects]; got {diameter} for {n_objects} objects"
        )
    rng = as_generator(seed)
    cluster_size = max(2, int(np.ceil(n_players / budget)))
    cluster_size = min(cluster_size, n_players)
    members = rng.choice(n_players, size=cluster_size, replace=False)
    distinguished = int(members[0])
    special_objects = rng.choice(n_objects, size=diameter, replace=False)

    preferences = rng.integers(0, 2, size=(n_players, n_objects), dtype=np.uint8)
    # Members of P (other than the distinguished player) copy p everywhere
    # except on the special set, where they stay random.
    base = preferences[distinguished].copy()
    for member in members[1:]:
        row = base.copy()
        row[special_objects] = rng.integers(0, 2, size=diameter, dtype=np.uint8)
        preferences[member] = row

    cluster_of = np.full(n_players, -1, dtype=np.int64)
    cluster_of[members] = 0
    planted = np.full(n_players, n_objects, dtype=np.int64)
    planted[members] = int(diameter)
    return PlantedInstance(
        preferences=preferences,
        cluster_of=cluster_of,
        planted_diameters=planted,
        metadata={
            "generator": "claim2_lower_bound",
            "budget": int(budget),
            "diameter": int(diameter),
            "distinguished_player": distinguished,
            "cluster_members": members.astype(int).tolist(),
            "special_objects": special_objects.astype(int).tolist(),
        },
    )


def random_instance(
    n_players: int,
    n_objects: int,
    seed: SeedLike = None,
) -> PlantedInstance:
    """Fully independent uniform preferences (no exploitable correlation)."""
    _validate_sizes(n_players, n_objects)
    rng = as_generator(seed)
    preferences = rng.integers(0, 2, size=(n_players, n_objects), dtype=np.uint8)
    return PlantedInstance(
        preferences=preferences,
        cluster_of=np.full(n_players, -1, dtype=np.int64),
        planted_diameters=np.full(n_players, n_objects, dtype=np.int64),
        metadata={"generator": "random"},
    )


def heterogeneous_cluster_instance(
    n_players: int,
    n_objects: int,
    cluster_sizes: list[int],
    cluster_diameters: list[int],
    seed: SeedLike = None,
) -> PlantedInstance:
    """Clusters of explicitly given sizes and diameters.

    Stress test for the clustering step: sizes need not be equal and
    diameters may differ per cluster, matching the §8 discussion of
    heterogeneous budgets / cluster structure.  ``sum(cluster_sizes)`` must
    equal ``n_players``.
    """
    _validate_sizes(n_players, n_objects)
    if len(cluster_sizes) != len(cluster_diameters):
        raise ConfigurationError("cluster_sizes and cluster_diameters must align")
    if sum(cluster_sizes) != n_players:
        raise ConfigurationError(
            f"cluster sizes must sum to n_players={n_players}, got {sum(cluster_sizes)}"
        )
    if any(size <= 0 for size in cluster_sizes):
        raise ConfigurationError("every cluster size must be positive")
    if any(d < 0 or d > n_objects for d in cluster_diameters):
        raise ConfigurationError("every cluster diameter must lie in [0, n_objects]")
    rng = as_generator(seed)
    order = rng.permutation(n_players)
    preferences = np.empty((n_players, n_objects), dtype=np.uint8)
    cluster_of = np.empty(n_players, dtype=np.int64)
    planted = np.empty(n_players, dtype=np.int64)
    cursor = 0
    for cluster_id, (size, diameter) in enumerate(zip(cluster_sizes, cluster_diameters)):
        members = order[cursor : cursor + size]
        cursor += size
        center = rng.integers(0, 2, size=n_objects, dtype=np.uint8)
        preferences[members] = _flip_within_radius(center, diameter // 2, size, rng)
        cluster_of[members] = cluster_id
        planted[members] = diameter
    return PlantedInstance(
        preferences=preferences,
        cluster_of=cluster_of,
        planted_diameters=planted,
        metadata={
            "generator": "heterogeneous_clusters",
            "cluster_sizes": [int(s) for s in cluster_sizes],
            "cluster_diameters": [int(d) for d in cluster_diameters],
        },
    )
