"""Player pool and the reporting-strategy interface.

A *reporting strategy* answers one question: when the protocol asks player
``p`` to publish the results of probing objects ``O``, what values does ``p``
actually post?  Honest players post the truth; dishonest players post
whatever their strategy computes.  The pool applies the right strategy per
player and exposes vectorised bulk paths, because the collective protocol
implementations move blocks of reports at a time.  The bulk paths cost
O(rows with a strategy) on top of one copy: honest rows are never visited.

Every report is a function of (player, object, true value, channel), where
the channel is the board channel the report is posted to: a strategy keeps
no state and draws from no generator.  So how a protocol groups, splits,
repeats or orders its calls changes no value, and a protocol may ask for
every block bound for one channel in one call.  Under telemetry the pool
counts the strategy calls it makes (``players.strategy_calls``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro._typing import PreferenceMatrix, check_binary
from repro.errors import ConfigurationError
from repro.obs import runtime as obs

__all__ = ["ReportingStrategy", "PlayerPool"]


class ReportingStrategy(ABC):
    """How one player turns true probe results into published reports."""

    #: Whether the strategy is honest (reports the truth verbatim).
    honest: bool = False

    @abstractmethod
    def report(
        self,
        channel: str,
        player: int,
        objects: np.ndarray,
        true_values: np.ndarray,
        pool: "PlayerPool",
    ) -> np.ndarray:
        """Values player ``player`` posts on ``channel`` for ``objects``.

        ``true_values`` are the results of the player's actual probes (aligned
        with ``objects``).  ``pool`` gives full-knowledge adversaries access
        to the hidden matrix and the coalition.  Must return a binary array
        aligned with ``objects`` whose entry ``j`` depends only on
        ``channel``, ``player``, ``objects[j]``, ``true_values[j]`` and the
        pool, and must leave the strategy unchanged.
        """


class PlayerPool:
    """Per-player strategies plus the hidden matrix adversaries may inspect.

    Parameters
    ----------
    truth:
        The hidden preference matrix (adversaries in the worst-case model are
        allowed to know it; honest code paths never read it from here).
    strategies:
        Mapping from player index to strategy for every *dishonest* player.
        Unlisted players are honest.
    """

    def __init__(
        self,
        truth: PreferenceMatrix,
        strategies: dict[int, ReportingStrategy] | None = None,
    ) -> None:
        truth = np.asarray(truth)
        if truth.ndim != 2:
            raise ConfigurationError(f"truth must be 2-D, got shape {truth.shape}")
        self._truth = truth.astype(np.uint8)
        self.n_players, self.n_objects = truth.shape
        strategies = dict(strategies or {})
        for player, strategy in strategies.items():
            if not 0 <= int(player) < self.n_players:
                raise ConfigurationError(f"strategy assigned to unknown player {player}")
            if not isinstance(strategy, ReportingStrategy):
                raise ConfigurationError(
                    f"strategy for player {player} must be a ReportingStrategy, "
                    f"got {type(strategy).__name__}"
                )
        self._strategies = {int(p): s for p, s in strategies.items()}
        # Built once: the bulk report paths find the rows they must rewrite
        # with one gather instead of a dict lookup per row.
        self._has_strategy = np.zeros(self.n_players, dtype=bool)
        self._has_strategy[list(self._strategies)] = True

    # ------------------------------------------------------------------
    # Composition queries
    # ------------------------------------------------------------------
    @property
    def truth(self) -> PreferenceMatrix:
        """The hidden matrix (adversary knowledge / evaluation only)."""
        return self._truth

    def strategy_of(self, player: int) -> ReportingStrategy | None:
        """The dishonest strategy of ``player``, or ``None`` if honest."""
        return self._strategies.get(int(player))

    @property
    def has_strategies(self) -> bool:
        """Whether *any* player carries a reporting strategy.

        Every protocol takes the same batched paths either way; this only
        lets them skip the copy-then-rewrite report pass, since with no
        strategies installed reports are the true values verbatim.
        """
        return bool(self._strategies)

    @property
    def dishonest_players(self) -> np.ndarray:
        """Sorted indices of dishonest players."""
        dishonest = [
            p for p, s in self._strategies.items() if not s.honest
        ]
        return np.asarray(sorted(dishonest), dtype=np.int64)

    @property
    def honest_mask(self) -> np.ndarray:
        """Boolean mask: ``True`` for honest players."""
        mask = np.ones(self.n_players, dtype=bool)
        mask[self.dishonest_players] = False
        return mask

    @property
    def n_dishonest(self) -> int:
        """Number of dishonest players."""
        return int(self.dishonest_players.size)

    # ------------------------------------------------------------------
    # Report generation
    # ------------------------------------------------------------------
    def reports_for(
        self, channel: str, player: int, objects: np.ndarray, true_values: np.ndarray
    ) -> np.ndarray:
        """Reports posted by one player on ``channel`` for the given objects."""
        objects = np.asarray(objects, dtype=np.int64)
        true_values = np.asarray(true_values, dtype=np.uint8)
        if objects.shape != true_values.shape:
            raise ConfigurationError("objects and true_values must align")
        if int(player) not in self._strategies:
            return true_values.copy()
        if obs._AMBIENT.telemetry is not None:
            obs.add("players.strategy_calls")
        reported = self._strategy_reports(channel, int(player), objects, true_values)
        return reported.astype(np.uint8)

    def _strategy_reports(
        self, channel: str, player: int, objects: np.ndarray, true_values: np.ndarray
    ) -> np.ndarray:
        """``player``'s strategy output, checked by :func:`check_binary`
        but not yet cast to ``uint8``.

        Callers pass ``int64`` objects and aligned ``uint8`` true values.
        """
        reported = np.asarray(
            self._strategies[player].report(channel, player, objects, true_values, self)
        )
        if reported.shape != objects.shape:
            raise ConfigurationError(
                f"strategy for player {player} returned reports of shape "
                f"{reported.shape}, expected {objects.shape}"
            )
        check_binary(reported, f"the reports of player {player}'s strategy")
        return reported

    def reports_block(
        self, channel: str, players: np.ndarray, objects: np.ndarray, true_block: np.ndarray
    ) -> np.ndarray:
        """Reports posted on ``channel`` by several players for the same
        object list.

        ``true_block[i, j]`` is the true probe result of ``players[i]`` on
        ``objects[j]``.  Honest rows pass through untouched (vectorised);
        rows with a strategy are rewritten by it, one call per row in row
        order.
        """
        players = np.asarray(players, dtype=np.int64)
        objects = np.asarray(objects, dtype=np.int64)
        true_block = np.asarray(true_block, dtype=np.uint8)
        if true_block.shape != (players.size, objects.size):
            raise ConfigurationError(
                f"true_block must have shape {(players.size, objects.size)}, "
                f"got {true_block.shape}"
            )
        reports = true_block.copy()
        if not self._strategies:
            return reports
        rows = np.flatnonzero(self._has_strategy[players])
        if obs._AMBIENT.telemetry is not None:
            obs.add("players.strategy_calls", int(rows.size))
        for row in rows:
            reports[row] = self._strategy_reports(
                channel, int(players[row]), objects, true_block[row]
            )
        return reports

    def reports_pairs(
        self, channel: str, players: np.ndarray, objects: np.ndarray, true_values: np.ndarray
    ) -> np.ndarray:
        """Reports posted on ``channel`` for an arbitrary batch of (player,
        object) pairs.

        Used by the work-sharing phase where each object is probed by a
        different random subset of players.  Honest pairs pass through; the
        pairs of each player with a strategy are grouped (in pair order) and
        rewritten by its strategy in one call, players in ascending order.
        """
        players = np.asarray(players, dtype=np.int64)
        objects = np.asarray(objects, dtype=np.int64)
        true_values = np.asarray(true_values, dtype=np.uint8)
        if not (players.shape == objects.shape == true_values.shape):
            raise ConfigurationError("players, objects and true_values must align")
        reports = true_values.copy()
        if not self._strategies:
            return reports
        rows = np.flatnonzero(self._has_strategy[players])
        if rows.size == 0:
            return reports
        # Group the strategy rows by player; the stable sort keeps each
        # player's pairs in their original order.
        rows = rows[np.argsort(players[rows], kind="stable")]
        owners = players[rows]
        starts = np.flatnonzero(np.diff(owners, prepend=-1))
        if obs._AMBIENT.telemetry is not None:
            obs.add("players.strategy_calls", int(starts.size))
        for group in np.split(rows, starts[1:]):
            reports[group] = self._strategy_reports(
                channel, int(players[group[0]]), objects[group], true_values[group]
            )
        return reports

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PlayerPool(n_players={self.n_players}, n_objects={self.n_objects}, "
            f"n_dishonest={self.n_dishonest})"
        )
