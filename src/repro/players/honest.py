"""The honest strategy: report exactly what was probed.

Honest players are the default in :class:`repro.players.base.PlayerPool`
(players without an explicit strategy are treated as honest without any
per-row work), so this class exists mainly so tests and examples can be
explicit about a player's role and so mixed pools can list every player.
"""

from __future__ import annotations

import numpy as np

from repro.players.base import PlayerPool, ReportingStrategy

__all__ = ["HonestStrategy"]


class HonestStrategy(ReportingStrategy):
    """Post the true probe results, unmodified."""

    honest = True

    def report(
        self,
        channel: str,
        player: int,
        objects: np.ndarray,
        true_values: np.ndarray,
        pool: PlayerPool,
    ) -> np.ndarray:
        return np.asarray(true_values, dtype=np.uint8).copy()
