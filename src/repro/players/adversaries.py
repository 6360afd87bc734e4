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
  above cannot express: report honestly (blend in) through sampling and
  clustering, then answer with one of the other attacks in the work-sharing
  phase.  It models a sleeper coalition that survives the clustering phase
  and only lies once its reports carry majority weight.

No strategy keeps state or owns a generator: every report is a function of
(player, object, true value, channel), the channel being the board channel
the report is posted to.  The random reporter hashes its seed with the
channel, player and object; the adaptive strategy reads its phase from the
channel name.

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

import hashlib
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


def _splitmix64(key: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """SplitMix64's outputs (Steele et al., OOPSLA 2014) ``counters + 1``
    steps into the stream seeded with ``key``: each depends on its own
    counter alone, so the stream is counter-based (Salmon et al., SC 2011)."""
    z = key + (counters.astype(np.uint64) + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class RandomReportStrategy(ReportingStrategy):
    """Post uniformly random values regardless of the truth: the top bit of
    a SplitMix64 hash of (seed, channel, player, object), so one lie per
    cell and channel."""

    def __init__(self, seed: SeedLike = None) -> None:
        # Any seed form, reduced to the 64-bit key the hash starts from.
        self._key = np.uint64(as_generator(seed).integers(2**64, dtype=np.uint64))

    def report(
        self,
        channel: str,
        player: int,
        objects: np.ndarray,
        true_values: np.ndarray,
        pool: PlayerPool,
    ) -> np.ndarray:
        name = hashlib.blake2b(channel.encode(), digest_size=8).digest()
        stream = _splitmix64(self._key, np.frombuffer(name, dtype="<u8"))
        stream = _splitmix64(stream, np.asarray([player]))
        return (_splitmix64(stream, np.asarray(objects)) >> np.uint64(63)).astype(np.uint8)


class InvertingStrategy(ReportingStrategy):
    """Post the complement of every true value.

    ``seed`` is accepted for constructor uniformity with the randomised
    strategies but the attack itself is deterministic.
    """

    def __init__(self, seed: SeedLike = None) -> None:
        pass

    def report(
        self,
        channel: str,
        player: int,
        objects: np.ndarray,
        true_values: np.ndarray,
        pool: PlayerPool,
    ) -> np.ndarray:
        return (1 - np.asarray(true_values, dtype=np.uint8)).astype(np.uint8)


class PromotionStrategy(ReportingStrategy):
    """Honest everywhere except on ``target_objects``, which always get
    ``promoted_value`` (1 = promote, 0 = smear)."""

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
        channel: str,
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
        channel: str,
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
        channel: str,
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
    """Blend in honestly, then attack in the work-sharing phase.

    Reports are the truth on every channel but the work-sharing posts (whose
    names contain ``work``; see :func:`repro.core.work_sharing.share_work`),
    so sampling and clustering see a core cluster member.  On those posts
    ``attack`` answers — any other :class:`ReportingStrategy` instance (an
    :class:`InvertingStrategy` by default).
    """

    def __init__(
        self, attack: ReportingStrategy | None = None, seed: SeedLike = None
    ) -> None:
        self.attack = attack if attack is not None else InvertingStrategy(seed=seed)

    def report(
        self,
        channel: str,
        player: int,
        objects: np.ndarray,
        true_values: np.ndarray,
        pool: PlayerPool,
    ) -> np.ndarray:
        if "work" in channel:
            return self.attack.report(channel, player, objects, true_values, pool)
        return np.asarray(true_values, dtype=np.uint8).copy()


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
            strategies[int(member)] = AdaptiveStrategy(
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
