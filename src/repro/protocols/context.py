"""Protocol execution context: everything a protocol step needs in one bag.

Every protocol function takes a :class:`ProtocolContext` as its first
argument.  The context bundles the probe oracle (charging probes), the
bulletin board (publishing reports), the player pool (who lies and how), the
shared randomness (honest or leader-biased), the protocol constants, and the
nominal budget ``B``.  Factory helpers build a context from a generated
instance so tests, examples and benchmarks all set up executions the same
way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro._typing import SeedLike
from repro.errors import ConfigurationError
from repro.perf import PackedBits, pack_bits
from repro.players.base import PlayerPool, ReportingStrategy
from repro.preferences.generators import PlantedInstance
from repro.simulation.board import BulletinBoard
from repro.simulation.config import ProtocolConstants
from repro.simulation.oracle import ProbeOracle
from repro.simulation.randomness import SharedRandomness

__all__ = ["ProtocolContext", "make_context"]


@dataclass
class ProtocolContext:
    """Shared state threaded through every protocol call."""

    oracle: ProbeOracle
    board: BulletinBoard
    pool: PlayerPool
    randomness: SharedRandomness
    constants: ProtocolConstants
    budget: int

    def __post_init__(self) -> None:
        if self.budget <= 0:
            raise ConfigurationError(f"budget must be positive, got {self.budget}")
        if self.oracle.n_players != self.pool.n_players:
            raise ConfigurationError(
                "oracle and pool disagree on the number of players: "
                f"{self.oracle.n_players} vs {self.pool.n_players}"
            )
        if self.oracle.n_objects != self.pool.n_objects:
            raise ConfigurationError(
                "oracle and pool disagree on the number of objects: "
                f"{self.oracle.n_objects} vs {self.pool.n_objects}"
            )

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def n_players(self) -> int:
        """Number of players."""
        return self.oracle.n_players

    @property
    def n_objects(self) -> int:
        """Number of objects."""
        return self.oracle.n_objects

    def all_players(self) -> np.ndarray:
        """Indices of all players."""
        return np.arange(self.n_players, dtype=np.int64)

    def all_objects(self) -> np.ndarray:
        """Indices of all objects."""
        return np.arange(self.n_objects, dtype=np.int64)

    # ------------------------------------------------------------------
    # Composite operations
    # ------------------------------------------------------------------
    def probe_and_report_block(
        self,
        channel: str,
        players: np.ndarray,
        objects: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every listed player probes every listed object and posts a report.

        Returns ``(true_block, reported_block)``: the true values each player
        learned (used for each player's *own* estimates) and the values posted
        on the board (what *other* players see — dishonest rows may differ).

        Treat both returned blocks as **read-only**: on a pool with no
        reporting strategies they are the *same* array (reports are the true
        values verbatim, and skipping the copy is part of the packed-dataflow
        fast path), so mutating one would corrupt the other.
        """
        players = np.asarray(players, dtype=np.int64)
        objects = np.asarray(objects, dtype=np.int64)
        true_block = self.oracle.probe_block(players, objects)
        if self.pool.has_strategies:
            reported = self.pool.reports_block(channel, players, objects, true_block)
        else:
            # No strategies installed: reports are the true values verbatim,
            # so the copy-then-rewrite pass is skipped (the board never
            # mutates its input).
            reported = true_block
        self.board.post_report_block(channel, players, objects, reported)
        return true_block, reported

    def publish_vectors(
        self,
        channel: str,
        players: np.ndarray,
        objects: np.ndarray,
        vectors: np.ndarray,
    ) -> np.ndarray:
        """Players publish (claimed) estimate vectors over ``objects``.

        ``vectors[i]`` is player ``players[i]``'s private estimate; the
        published version passes through each dishonest player's strategy
        (an adversary misrepresents its estimates exactly as it misrepresents
        probe results).  Returns the published block — **read-only by
        contract**: on a pool with no reporting strategies it is ``vectors``
        itself (no copy), so a caller must not mutate it.
        """
        players = np.asarray(players, dtype=np.int64)
        objects = np.asarray(objects, dtype=np.int64)
        vectors = np.asarray(vectors, dtype=np.uint8)
        if self.pool.has_strategies:
            published = self.pool.reports_block(channel, players, objects, vectors)
        else:
            published = vectors
        self.board.post_report_block(channel, players, objects, published)
        return published

    def publish_vectors_packed(
        self,
        channel: str,
        players: np.ndarray,
        objects: np.ndarray,
        vectors: np.ndarray,
    ) -> PackedBits:
        """Like :meth:`publish_vectors`, but hands back the published block
        **bit-packed** along the object axis.

        This is the packed-dataflow publish: the downstream consumers of a
        published block — :func:`repro.protocols.zero_radius.popular_vectors`
        and :func:`repro.core.clustering.build_neighbor_graph` — operate on
        packed rows, so returning :class:`PackedBits` lets them skip their
        own pack pass, and the honest fast path never materialises a dense
        copy of the published block at all.
        """
        published = self.publish_vectors(channel, players, objects, vectors)
        return pack_bits(published)

    def with_randomness(self, randomness: SharedRandomness) -> "ProtocolContext":
        """A copy of the context using a different shared-randomness source
        (used by the robust wrapper when a new leader is elected)."""
        return replace(self, randomness=randomness)


def make_context(
    instance: PlantedInstance,
    budget: int,
    constants: ProtocolConstants | None = None,
    strategies: dict[int, ReportingStrategy] | None = None,
    randomness: SharedRandomness | None = None,
    seed: SeedLike = None,
    noise_rate: float = 0.0,
    noise_seed: SeedLike = None,
    probe_limits: int | np.ndarray | None = None,
) -> ProtocolContext:
    """Build a fresh execution context for a generated instance.

    Parameters
    ----------
    instance:
        The generated preference instance (hidden matrix + planted structure).
    budget:
        The nominal probe budget ``B``.
    constants:
        Protocol constants; defaults to the practical profile.
    strategies:
        Dishonest strategies keyed by player index (all-honest by default).
    randomness:
        Shared randomness source; defaults to an honest source seeded from
        ``seed``.
    seed:
        Seed for the default randomness source.
    noise_rate / noise_seed:
        Optional noisy-oracle channel (see :class:`ProbeOracle`): each probe
        answer is flipped with probability ``noise_rate``, consistently
        across repeats, with the flip pattern drawn from ``noise_seed``.
    probe_limits:
        Optional **hard** probe cap enforced by the oracle — a scalar for a
        uniform cap or a per-player vector for heterogeneous budgets.  This
        is distinct from the nominal budget ``B`` (a parameter of the
        algorithm): a protocol that exceeds its cap raises
        :class:`~repro.errors.BudgetExceededError` instead of completing.
    """
    constants = constants if constants is not None else ProtocolConstants.practical()
    oracle = ProbeOracle(
        instance.preferences,
        budget=probe_limits,
        enforce_budget=probe_limits is not None,
        noise_rate=noise_rate,
        noise_seed=noise_seed,
    )
    board = BulletinBoard(instance.n_players, instance.n_objects)
    pool = PlayerPool(instance.preferences, strategies=strategies)
    rng = randomness if randomness is not None else SharedRandomness(seed)
    return ProtocolContext(
        oracle=oracle,
        board=board,
        pool=pool,
        randomness=rng,
        constants=constants,
        budget=int(budget),
    )
