"""Adversary strategies: the dishonest behaviours the paper worries about.

The model (§2, §7) lets dishonest players collude, know everything, and post
arbitrary values — but they cannot forge other players' posts and their own
probes still cost them probes.  The strategies here implement the concrete
attacks motivated in the introduction and analysed in §7.2:

* :class:`RandomReportStrategy` — the "too busy reviewer" who posts random
  scores instead of reading papers;
* :class:`InvertingStrategy` — posts the complement of the truth (maximally
  misleading about its own cluster membership and about objects);
* :class:`PromotionStrategy` — posts honest values except on a target set of
  objects, which it always scores 1 (the "bias toward colleagues' papers"
  attack) or always 0 (a smear attack);
* :class:`ClusterHijackStrategy` — mimics a victim player's true vector so it
  gets clustered with the victims, then lies on a target object set from
  inside the cluster (the "hijacking" of §7.2);
* :class:`StrangeObjectStrategy` — the vote-flipping attack the Lemma-13
  analysis is about: on objects where the victim cluster is internally split
  ("strange" objects), vote with the minority to flip the majority outcome;
  elsewhere blend in by reporting the cluster consensus;
* :class:`AdaptiveStrategy` — a two-phase attack that the fixed strategies
  above cannot express: report honestly (blend in) until a switch point, then
  turn into one of the other attacks mid-run.  It models a sleeper coalition
  that survives the clustering phase and only lies once its reports carry
  majority weight.

All but the random and adaptive strategies are
:attr:`~repro.players.base.ReportingStrategy.pointwise`: they keep no state
and draw no randomness, so how a protocol groups its calls changes no value.
The random reporter draws from its own generator and the adaptive strategy
counts what it has reported, so both see a protocol's calls one by one.

Every strategy constructor accepts a ``seed`` in any
:data:`~repro._typing.SeedLike` form (``int``, ``SeedSequence``,
``numpy.random.Generator`` or ``None``) — strategies that do not randomise
simply ignore it, so coalition builders can thread seeds uniformly.

:func:`build_coalition` wires a coalition of a chosen size and strategy into
the ``strategies`` mapping expected by :class:`~repro.players.base.PlayerPool`,
together with a :class:`CoalitionPlan` describing the attack for use by the
adversarial-randomness hooks.  Coalitions must leave the honest players a
strict majority (the model's standing assumption); violating sizes raise
:class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from repro._typing import SeedLike, as_generator
from repro.errors import ConfigurationError
from repro.players.base import PlayerPool, ReportingStrategy

__all__ = [
    "RandomReportStrategy",
    "InvertingStrategy",
    "PromotionStrategy",
    "ClusterHijackStrategy",
    "StrangeObjectStrategy",
    "AdaptiveStrategy",
    "CoalitionPlan",
    "build_coalition",
]


class _ObjectSet:
    """A fixed set of object indices with a membership table built once.

    :meth:`contains` equals ``np.isin(objects, self.objects)`` for every
    input, but an ``int64`` query (what :class:`PlayerPool` passes) costs
    one table gather instead of the sort ``np.isin`` pays per call.
    """

    #: Widest index range given a table (one byte per index in the range);
    #: a set spread wider keeps ``np.isin``.
    MAX_SPAN = 1 << 20

    def __init__(self, objects: np.ndarray) -> None:
        objects = np.array(objects, dtype=np.int64)
        objects.flags.writeable = False
        self.objects = objects
        low = int(objects.min()) if objects.size else 0
        span = int(objects.max()) - low + 1 if objects.size else 0
        self._table: np.ndarray | None = None
        if span <= self.MAX_SPAN:
            # One False sentinel on each side: a query outside the range
            # clips onto one of them.
            self._table = np.zeros(span + 2, dtype=bool)
            self._table[objects - low + 1] = True
        self._offset = low - 1

    def contains(self, objects: np.ndarray) -> np.ndarray:
        """Boolean mask: which of ``objects`` are in the set."""
        objects = np.asarray(objects)
        if self._table is None or objects.dtype != np.int64:
            return np.isin(objects, self.objects)
        return self._table.take(objects - self._offset, mode="clip")


class RandomReportStrategy(ReportingStrategy):
    """Post uniformly random values regardless of the truth."""

    def __init__(self, seed: SeedLike = None) -> None:
        self._rng = as_generator(seed)

    def report(
        self,
        player: int,
        objects: np.ndarray,
        true_values: np.ndarray,
        pool: PlayerPool,
    ) -> np.ndarray:
        return self._rng.integers(0, 2, size=objects.size, dtype=np.uint8)


class InvertingStrategy(ReportingStrategy):
    """Post the complement of every true value.

    ``seed`` is accepted for constructor uniformity with the randomised
    strategies but the attack itself is deterministic.
    """

    pointwise = True

    def __init__(self, seed: SeedLike = None) -> None:
        pass

    def report(
        self,
        player: int,
        objects: np.ndarray,
        true_values: np.ndarray,
        pool: PlayerPool,
    ) -> np.ndarray:
        return (1 - np.asarray(true_values, dtype=np.uint8)).astype(np.uint8)


class PromotionStrategy(ReportingStrategy):
    """Honest everywhere except on ``target_objects``, which always get
    ``promoted_value`` (1 = promote, 0 = smear)."""

    pointwise = True

    def __init__(
        self,
        target_objects: np.ndarray,
        promoted_value: int = 1,
        seed: SeedLike = None,
    ) -> None:
        self._targets = _ObjectSet(target_objects)
        if promoted_value not in (0, 1):
            raise ConfigurationError(f"promoted_value must be 0 or 1, got {promoted_value}")
        self.promoted_value = int(promoted_value)

    @property
    def target_objects(self) -> np.ndarray:
        """The attacked objects (read-only)."""
        return self._targets.objects

    def report(
        self,
        player: int,
        objects: np.ndarray,
        true_values: np.ndarray,
        pool: PlayerPool,
    ) -> np.ndarray:
        reports = np.asarray(true_values, dtype=np.uint8).copy()
        reports[self._targets.contains(objects)] = self.promoted_value
        return reports


class ClusterHijackStrategy(ReportingStrategy):
    """Mimic a victim player to infiltrate its cluster, lie on target objects.

    The strategy reports the *victim's* true values (full-knowledge adversary)
    on every object except the target set, where it reports the complement of
    the victim's value.  If the protocol clusters by reported similarity the
    hijacker looks like a core member of the victim's cluster while pushing
    wrong values for the targeted objects.
    """

    pointwise = True

    def __init__(
        self, victim: int, target_objects: np.ndarray, seed: SeedLike = None
    ) -> None:
        self.victim = int(victim)
        self._targets = _ObjectSet(target_objects)

    @property
    def target_objects(self) -> np.ndarray:
        """The objects lied about (read-only)."""
        return self._targets.objects

    def report(
        self,
        player: int,
        objects: np.ndarray,
        true_values: np.ndarray,
        pool: PlayerPool,
    ) -> np.ndarray:
        victim_values = pool.truth[self.victim, objects].astype(np.uint8)
        return victim_values ^ self._targets.contains(objects)


class StrangeObjectStrategy(ReportingStrategy):
    """Flip votes on the victim cluster's internally-contested objects.

    For each reported object the strategy looks at the victim cluster's true
    preference split.  On *strange* objects — where the split is close enough
    that Lemma 13 says the adversary might matter — it votes with the current
    minority, trying to flip the majority outcome.  On clear-cut objects it
    votes with the majority so that its reports do not expose it as an
    outlier during clustering.
    """

    pointwise = True

    def __init__(
        self,
        victim_cluster: np.ndarray,
        strangeness_ratio: float = 5.0,
        seed: SeedLike = None,
    ) -> None:
        self.victim_cluster = np.asarray(victim_cluster, dtype=np.int64)
        if self.victim_cluster.size == 0:
            raise ConfigurationError("victim_cluster must be non-empty")
        if strangeness_ratio <= 1.0:
            raise ConfigurationError(
                f"strangeness_ratio must exceed 1, got {strangeness_ratio}"
            )
        self.strangeness_ratio = float(strangeness_ratio)

    def report(
        self,
        player: int,
        objects: np.ndarray,
        true_values: np.ndarray,
        pool: PlayerPool,
    ) -> np.ndarray:
        cluster_truth = pool.truth[np.ix_(self.victim_cluster, objects)]
        likes = cluster_truth.sum(axis=0).astype(np.int64)
        dislikes = cluster_truth.shape[0] - likes
        majority = (likes >= dislikes).astype(np.uint8)
        minority = (1 - majority).astype(np.uint8)
        bigger = np.maximum(likes, dislikes).astype(np.float64)
        smaller = np.maximum(1, np.minimum(likes, dislikes)).astype(np.float64)
        strange = bigger <= self.strangeness_ratio * smaller
        reports = majority.copy()
        reports[strange] = minority[strange]
        return reports


class AdaptiveStrategy(ReportingStrategy):
    """Blend in honestly, then switch to an attack strategy mid-run.

    The strategy counts the values it has reported so far; until
    ``switch_after`` values it behaves perfectly honestly (so the clustering
    phase sees a core cluster member), after which every report is produced
    by ``attack`` — any other :class:`ReportingStrategy` instance (an
    :class:`InvertingStrategy` by default).

    The switch is per-strategy-instance state, so each coalition member
    flips independently once *its own* reporting volume crosses the
    threshold — roughly "after the sampling/clustering phase" when
    ``switch_after`` is set near the sample size.
    """

    def __init__(
        self,
        switch_after: int,
        attack: ReportingStrategy | None = None,
        seed: SeedLike = None,
    ) -> None:
        if switch_after < 0:
            raise ConfigurationError(
                f"switch_after must be non-negative, got {switch_after}"
            )
        self.switch_after = int(switch_after)
        self.attack = attack if attack is not None else InvertingStrategy(seed=seed)
        self._reported = 0

    def report(
        self,
        player: int,
        objects: np.ndarray,
        true_values: np.ndarray,
        pool: PlayerPool,
    ) -> np.ndarray:
        self._reported += int(np.asarray(objects).size)
        if self._reported <= self.switch_after:
            return np.asarray(true_values, dtype=np.uint8).copy()
        return self.attack.report(player, objects, true_values, pool)


@dataclass(frozen=True)
class CoalitionPlan:
    """Description of a colluding coalition, consumed by experiments.

    ``members`` are the dishonest players; ``victim_cluster`` and
    ``target_objects`` describe what the coalition is attacking (may be empty
    for unfocused strategies); ``hidden_objects`` are objects the coalition
    would like excluded from sample sets when it controls the leader.
    """

    members: np.ndarray
    strategy_name: str
    victim_cluster: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    target_objects: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    hidden_objects: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))


_StrategyName = Literal[
    "random", "invert", "promote", "smear", "hijack", "strange", "adaptive"
]

#: Strategy names :func:`build_coalition` understands.
COALITION_STRATEGIES: tuple[str, ...] = (
    "random", "invert", "promote", "smear", "hijack", "strange", "adaptive"
)


def build_coalition(
    truth: np.ndarray,
    coalition_size: int,
    strategy: _StrategyName,
    victim_cluster: np.ndarray | None = None,
    target_objects: np.ndarray | None = None,
    seed: SeedLike = None,
    exclude: np.ndarray | None = None,
    switch_after: int | None = None,
) -> tuple[dict[int, ReportingStrategy], CoalitionPlan]:
    """Create a coalition of ``coalition_size`` dishonest players.

    Coalition members are drawn from *outside* the victim cluster (the attack
    model is outsiders infiltrating or disrupting a cluster of honest
    players).  Returns the ``strategies`` mapping for
    :class:`~repro.players.base.PlayerPool` plus a :class:`CoalitionPlan`.

    Parameters
    ----------
    truth:
        The hidden preference matrix (used to size index ranges and to pick
        default targets).
    coalition_size:
        Number of dishonest players.  Dishonest players must stay a strict
        minority (``coalition_size < n_players / 2``); larger sizes raise
        :class:`~repro.errors.ConfigurationError` because every guarantee in
        the paper (and the leader election underneath the robust wrapper)
        assumes an honest majority.
    strategy:
        One of ``random``, ``invert``, ``promote``, ``smear``, ``hijack``,
        ``strange``, ``adaptive``.
    victim_cluster:
        Players the coalition targets (required by ``hijack`` / ``strange``;
        defaults to the first ``max(2, n//8)`` players).
    target_objects:
        Objects the coalition wants mis-scored (defaults to a random eighth
        of the objects).
    seed:
        Randomness for member/target selection and randomised strategies; any
        :data:`~repro._typing.SeedLike` (including an existing
        ``numpy.random.Generator``) is accepted.
    exclude:
        Additional players ineligible for membership — used when several
        coalitions coexist in one scenario and must stay disjoint.
    switch_after:
        ``adaptive`` only: reported values before each member turns hostile
        (defaults to the number of objects, i.e. roughly one reporting pass).
    """
    truth = np.asarray(truth)
    n_players, n_objects = truth.shape
    if coalition_size < 0:
        raise ConfigurationError(
            f"coalition_size must be non-negative, got {coalition_size}"
        )
    if 2 * coalition_size >= n_players:
        raise ConfigurationError(
            f"coalition_size={coalition_size} would leave no honest majority at "
            f"n_players={n_players}; the model requires dishonest players to be "
            "a strict minority (coalition_size < n_players / 2)"
        )
    rng = as_generator(seed)

    if victim_cluster is None:
        victim_cluster = np.arange(max(2, n_players // 8), dtype=np.int64)
    else:
        victim_cluster = np.asarray(victim_cluster, dtype=np.int64)
    if target_objects is None:
        target_count = max(1, n_objects // 8)
        target_objects = np.sort(rng.choice(n_objects, size=target_count, replace=False))
    else:
        target_objects = np.asarray(target_objects, dtype=np.int64)

    ineligible = victim_cluster
    if exclude is not None:
        ineligible = np.union1d(ineligible, np.asarray(exclude, dtype=np.int64))
    candidates = np.setdiff1d(np.arange(n_players), ineligible, assume_unique=False)
    if candidates.size < coalition_size:
        raise ConfigurationError(
            "not enough players outside the victim cluster (and exclusions) to "
            f"form the coalition ({candidates.size} available, "
            f"{coalition_size} requested)"
        )
    members = np.sort(rng.choice(candidates, size=coalition_size, replace=False))

    strategies: dict[int, ReportingStrategy] = {}
    hidden_objects = np.zeros(0, dtype=np.int64)
    for member in members:
        member_seed = int(rng.integers(0, 2**63 - 1))
        if strategy == "random":
            strategies[int(member)] = RandomReportStrategy(seed=member_seed)
        elif strategy == "invert":
            strategies[int(member)] = InvertingStrategy(seed=member_seed)
        elif strategy == "promote":
            strategies[int(member)] = PromotionStrategy(
                target_objects, promoted_value=1, seed=member_seed
            )
        elif strategy == "smear":
            strategies[int(member)] = PromotionStrategy(
                target_objects, promoted_value=0, seed=member_seed
            )
        elif strategy == "hijack":
            victim = int(victim_cluster[int(rng.integers(0, victim_cluster.size))])
            strategies[int(member)] = ClusterHijackStrategy(
                victim, target_objects, seed=member_seed
            )
            hidden_objects = target_objects
        elif strategy == "strange":
            strategies[int(member)] = StrangeObjectStrategy(
                victim_cluster, seed=member_seed
            )
            hidden_objects = target_objects
        elif strategy == "adaptive":
            threshold = n_objects if switch_after is None else int(switch_after)
            strategies[int(member)] = AdaptiveStrategy(
                switch_after=threshold,
                attack=StrangeObjectStrategy(victim_cluster, seed=member_seed),
                seed=member_seed,
            )
            hidden_objects = target_objects
        else:
            raise ConfigurationError(f"unknown coalition strategy {strategy!r}")

    plan = CoalitionPlan(
        members=members,
        strategy_name=str(strategy),
        victim_cluster=victim_cluster,
        target_objects=target_objects,
        hidden_objects=hidden_objects,
    )
    return strategies, plan
