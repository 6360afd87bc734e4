"""Shared randomness: leader-published random bits, honest or adversarial.

The CalculatePreferences protocol relies on random choices agreed upon by
all players (the sample set of §6.3 and the prober assignment of §6.6).  In
the dishonest setting (§7.1) those bits are published by an elected leader:
an honest leader publishes unbiased bits, a dishonest leader may publish
bits crafted by the coalition.

:class:`SharedRandomness` exposes exactly the draw types the protocol needs;
:class:`AdversarialRandomness` is a drop-in replacement representing a
dishonest leader.  Its bias hooks implement the attacks the paper's analysis
worries about:

* hiding "revealing" objects from the sample set so colluders are clustered
  with honest victims (cluster hijacking, §7.2);
* steering the prober assignment of Step 4 toward coalition members so their
  lies carry majorities.
"""

from __future__ import annotations

import numpy as np

from repro._typing import SeedLike, as_generator
from repro.errors import ConfigurationError

__all__ = ["SharedRandomness", "AdversarialRandomness"]


class SharedRandomness:
    """Unbiased shared random bits, as published by an honest leader."""

    #: Whether the source is honest (unbiased).  Adversarial subclasses flip it.
    honest: bool = True

    def __init__(self, seed: SeedLike = None) -> None:
        self._rng = as_generator(seed)

    # -- raw access --------------------------------------------------------
    @property
    def generator(self) -> np.random.Generator:
        """The underlying generator (for draws with no adversarial hook)."""
        return self._rng

    # -- protocol-level draws ----------------------------------------------
    def sample_objects(self, n_objects: int, probability: float) -> np.ndarray:
        """Sample-set selection of §6.3: include each object i.i.d. w.p. ``probability``.

        Returns the sorted indices of selected objects.  Guarantees a
        non-empty result (re-draws once, then falls back to a single uniform
        object) because an empty sample would make downstream steps
        degenerate on tiny test instances.
        """
        if not 0.0 < probability <= 1.0:
            raise ConfigurationError(
                f"sample probability must lie in (0, 1], got {probability}"
            )
        mask = self._rng.random(n_objects) < probability
        if not mask.any():
            mask = self._rng.random(n_objects) < probability
        if not mask.any():
            mask[self._rng.integers(0, n_objects)] = True
        return np.flatnonzero(mask)

    def partition_in_two(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Randomly split ``indices`` into two halves (ZeroRadius step 2).

        Each element goes to either side with probability 1/2; if either side
        ends up empty the split is balanced deterministically instead, which
        only happens for very small inputs.
        """
        indices = np.asarray(indices, dtype=np.int64)
        side = self._rng.random(indices.size) < 0.5
        left, right = indices[side], indices[~side]
        if left.size == 0 or right.size == 0:
            shuffled = self._rng.permutation(indices)
            half = max(1, indices.size // 2)
            left, right = shuffled[:half], shuffled[half:]
        return left, right

    def partition_objects(self, objects: np.ndarray, parts: int) -> list[np.ndarray]:
        """Randomly partition ``objects`` into ``parts`` disjoint subsets
        (SmallRadius step 1).

        Each object draws its subset uniformly; subset ``i`` lists its
        objects in input order and may be empty.  One stable sort groups
        the objects by subset, in place of one mask over every object per
        subset.
        """
        objects = np.asarray(objects, dtype=np.int64)
        parts = max(1, min(int(parts), max(1, objects.size)))
        assignment = self._rng.integers(0, parts, size=objects.size)
        grouped = objects[np.argsort(assignment, kind="stable")]
        stops = np.cumsum(np.bincount(assignment, minlength=parts)).tolist()
        return [grouped[start:stop] for start, stop in zip([0, *stops[:-1]], stops)]

    def assign_probers(
        self,
        cluster_members: np.ndarray,
        n_objects: int,
        redundancy: int,
    ) -> np.ndarray:
        """Step 4 prober assignment: for each object choose ``redundancy``
        cluster members uniformly at random (with replacement, as in the
        paper's "choose at random one of the players, repeated Θ(log n)
        times").

        Returns an ``(n_objects, redundancy)`` array of player indices.
        """
        cluster_members = np.asarray(cluster_members, dtype=np.int64)
        if cluster_members.size == 0:
            raise ConfigurationError("cannot assign probers from an empty cluster")
        picks = self._rng.integers(0, cluster_members.size, size=(n_objects, redundancy))
        return cluster_members[picks]


class AdversarialRandomness(SharedRandomness):
    """Shared bits published by a *dishonest* leader.

    Parameters
    ----------
    seed:
        Seed of the underlying generator (the adversary still needs
        unpredictable bits for whatever it does not care about).
    hidden_objects:
        Objects the coalition wants excluded from any sample set — typically
        the objects on which colluders disagree with the honest cluster they
        are trying to infiltrate, so that the neighbour graph cannot tell
        them apart.
    favoured_players:
        Players (the coalition) to over-represent in Step-4 prober
        assignments.
    favoured_weight:
        Relative sampling weight given to each favoured player (an honest
        player has weight 1).  The paper's integrity argument is that even a
        dishonest leader cannot forge posts, only bias choices; the weight
        models how aggressively the leader skews assignments while still
        producing a superficially plausible assignment.
    """

    honest = False

    def __init__(
        self,
        seed: SeedLike = None,
        hidden_objects: np.ndarray | None = None,
        favoured_players: np.ndarray | None = None,
        favoured_weight: float = 8.0,
    ) -> None:
        super().__init__(seed)
        self.hidden_objects = (
            np.asarray(hidden_objects, dtype=np.int64)
            if hidden_objects is not None
            else np.zeros(0, dtype=np.int64)
        )
        self.favoured_players = (
            np.asarray(favoured_players, dtype=np.int64)
            if favoured_players is not None
            else np.zeros(0, dtype=np.int64)
        )
        if favoured_weight < 1.0:
            raise ConfigurationError(
                f"favoured_weight must be >= 1, got {favoured_weight}"
            )
        self.favoured_weight = float(favoured_weight)

    def sample_objects(self, n_objects: int, probability: float) -> np.ndarray:
        """Biased sample: draw as usual, then silently drop hidden objects."""
        sample = super().sample_objects(n_objects, probability)
        if self.hidden_objects.size:
            sample = np.setdiff1d(sample, self.hidden_objects, assume_unique=False)
            if sample.size == 0:
                # The leader must still publish *something* plausible.
                visible = np.setdiff1d(
                    np.arange(n_objects), self.hidden_objects, assume_unique=True
                )
                pool = visible if visible.size else np.arange(n_objects)
                sample = np.sort(
                    self.generator.choice(pool, size=min(4, pool.size), replace=False)
                )
        return sample

    def assign_probers(
        self,
        cluster_members: np.ndarray,
        n_objects: int,
        redundancy: int,
    ) -> np.ndarray:
        """Biased prober assignment: over-weight coalition members."""
        cluster_members = np.asarray(cluster_members, dtype=np.int64)
        if cluster_members.size == 0:
            raise ConfigurationError("cannot assign probers from an empty cluster")
        weights = np.ones(cluster_members.size, dtype=np.float64)
        if self.favoured_players.size:
            favoured_mask = np.isin(cluster_members, self.favoured_players)
            weights[favoured_mask] = self.favoured_weight
        weights /= weights.sum()
        picks = self.generator.choice(
            cluster_members.size, size=(n_objects, redundancy), replace=True, p=weights
        )
        return cluster_members[picks]
