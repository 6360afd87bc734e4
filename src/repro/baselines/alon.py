"""The prior state of the art: Alon–Awerbuch–Azar–Patt-Shamir ([2,3]).

"Tell me who I am: an interactive recommendation system" solves the general
collaborative scoring problem *without* dishonest players.  Its structure,
as summarised in §1/§4/§6.1 of our paper, is:

* guess the diameter ``D`` by doubling (the same §6.1 strategy the new
  protocol reuses);
* for each guess, run SmallRadius **directly on the full object set** with
  that diameter — no sampling, no clustering, no work sharing;
* let each player pick its best candidate with RSelect.

Because SmallRadius partitions the objects into ``Θ(D^{3/2})`` groups and
runs a budget-``5B`` ZeroRadius inside each, the probe complexity scales as
``O(B² polylog n)`` once ``D`` reaches the interesting ``Θ(n/B)`` range, and
the guarantee degrades to a ``B``-approximation of the optimal error.  It
also has no defence against dishonest players — lies flow straight into the
ZeroRadius popular-vector sets.

This module is the comparator for experiments E6 (robustness) and E8
(probe/error comparison).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.calculate_preferences import default_diameter_schedule
from repro.errors import ProtocolError
from repro.protocols.context import ProtocolContext
from repro.protocols.rselect import rselect_collective
from repro.protocols.small_radius import small_radius

__all__ = ["AlonBaselineResult", "alon_awerbuch_azar_patt_shamir"]


@dataclass(frozen=True)
class AlonBaselineResult:
    """Output of the Alon et al. baseline."""

    predictions: np.ndarray
    #: One dense ``(n_players, n_objects)`` SmallRadius output per guess.
    candidates: tuple[np.ndarray, ...]
    diameters: tuple[float, ...]


def alon_awerbuch_azar_patt_shamir(
    ctx: ProtocolContext,
    diameters: list[float] | None = None,
    channel: str = "alon",
) -> AlonBaselineResult:
    """Run the [2,3] algorithm: doubling over SmallRadius on all objects.

    Parameters
    ----------
    ctx:
        Execution context (reuse a fresh context per algorithm so probe
        counters are attributable).
    diameters:
        Guessed-diameter schedule; defaults to the full doubling schedule.
        Benchmarks pass the same restricted schedule they give
        CalculatePreferences so the comparison is probe-for-probe fair.
    channel:
        Bulletin-board channel prefix.

    Returns
    -------
    AlonBaselineResult
        Final predictions and the per-guess candidates.
    """
    players = ctx.all_players()
    objects = ctx.all_objects()
    if diameters is None:
        diameters = [float(d) for d in default_diameter_schedule(ctx.n_objects)]
    if not diameters:
        raise ProtocolError("diameters schedule must be non-empty")

    candidates: list[np.ndarray] = []
    for index, diameter in enumerate(diameters):
        if diameter <= 0:
            raise ProtocolError(f"guessed diameter must be positive, got {diameter}")
        preds = small_radius(
            ctx,
            players,
            objects,
            diameter,
            budget=ctx.budget,
            channel=f"{channel}/d{index}",
        )
        candidates.append(preds)

    return AlonBaselineResult(
        predictions=rselect_collective(ctx, players, objects, candidates),
        candidates=tuple(candidates),
        diameters=tuple(float(d) for d in diameters),
    )
