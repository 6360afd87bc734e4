"""Player churn between protocol repetitions.

:class:`ChurnTimeline` is the player arrival/departure schedule behind the
scenario engine's dynamics hooks: a protocol repetition runs over the
currently active players, then the timeline steps — some active players
depart, some inactive players (re-)join — before the next repetition.

Per-phase probe counts are not kept here: the telemetry spans attribute
``oracle.probes`` to each protocol phase, and ``python -m repro trace``
reconciles those counts with the oracle's own accounting.
"""

from __future__ import annotations

import numpy as np

from repro._typing import SeedLike, as_generator
from repro.errors import ConfigurationError

__all__ = ["ChurnTimeline"]


class ChurnTimeline:
    """Deterministic player churn between protocol repetitions.

    The player *universe* is fixed (the oracle's matrix never changes shape);
    churn toggles which players are currently active.  Departing players are
    drawn uniformly from the active set, arriving players uniformly from the
    inactive set, so the whole trajectory is determined by ``seed``.

    Parameters
    ----------
    n_players:
        Size of the player universe.
    departures, arrivals:
        How many players leave / (re-)join at each :meth:`step`.  Departures
        are capped so at least two players always stay active; arrivals are
        capped by the size of the inactive pool.
    seed:
        Randomness for the churn draws.
    initially_active:
        Number of players active before the first repetition (defaults to the
        whole universe, leaving nobody to arrive until someone departs).
    """

    def __init__(
        self,
        n_players: int,
        departures: int = 0,
        arrivals: int = 0,
        seed: SeedLike = None,
        initially_active: int | None = None,
    ) -> None:
        if n_players <= 0:
            raise ConfigurationError(f"n_players must be positive, got {n_players}")
        if departures < 0 or arrivals < 0:
            raise ConfigurationError(
                f"departures and arrivals must be non-negative, got "
                f"{departures}, {arrivals}"
            )
        active_count = n_players if initially_active is None else int(initially_active)
        if not 1 <= active_count <= n_players:
            raise ConfigurationError(
                f"initially_active must lie in [1, n_players]; got {active_count}"
            )
        self.n_players = int(n_players)
        self.departures = int(departures)
        self.arrivals = int(arrivals)
        self._rng = as_generator(seed)
        self._active = np.zeros(n_players, dtype=bool)
        initial = self._rng.choice(n_players, size=active_count, replace=False)
        self._active[initial] = True

    def active_players(self) -> np.ndarray:
        """Sorted indices of currently active players."""
        return np.flatnonzero(self._active)

    @property
    def n_active(self) -> int:
        """Number of currently active players."""
        return int(self._active.sum())

    def step(self) -> np.ndarray:
        """Apply one churn event (departures, then arrivals); returns the new
        active set."""
        active = np.flatnonzero(self._active)
        n_leave = min(self.departures, max(0, active.size - 2))
        if n_leave:
            leavers = self._rng.choice(active, size=n_leave, replace=False)
            self._active[leavers] = False
        inactive = np.flatnonzero(~self._active)
        n_join = min(self.arrivals, inactive.size)
        if n_join:
            joiners = self._rng.choice(inactive, size=n_join, replace=False)
            self._active[joiners] = True
        return self.active_players()
