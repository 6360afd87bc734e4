"""Naive baselines: the envelopes every comparison is framed against.

None of these use the paper's machinery; they bound the problem from below
(random guessing, solo probing) and from above (probe everything), and
``global_majority`` represents the non-personalised aggregation that the
introduction's program-committee example implicitly argues against.
"""

from __future__ import annotations

import numpy as np

from repro._typing import SeedLike, as_generator
from repro.errors import ProtocolError
from repro.protocols.context import ProtocolContext

__all__ = [
    "random_guessing",
    "probe_everything",
    "solo_probing",
    "global_majority",
]


def random_guessing(ctx: ProtocolContext, seed: SeedLike = None) -> np.ndarray:
    """Every player guesses every preference uniformly at random (0 probes).

    Expected error is ``n_objects / 2`` per player; this is the floor any
    collaboration must beat.
    """
    rng = as_generator(seed)
    return rng.integers(0, 2, size=(ctx.n_players, ctx.n_objects), dtype=np.uint8)


def probe_everything(ctx: ProtocolContext) -> np.ndarray:
    """Every player probes every object (error 0, ``n_objects`` probes).

    The upper envelope on probe cost: collaborative scoring is interesting
    exactly when this is unaffordable.
    """
    block, _ = ctx.probe_and_report_block("baseline/probe-all", ctx.all_players(), ctx.all_objects())
    return block


def solo_probing(ctx: ProtocolContext, seed: SeedLike = None) -> np.ndarray:
    """Every player probes ``B`` random objects on its own and guesses the rest.

    No collaboration: expected error ``(n_objects − B) / 2``.  This is the
    baseline the introduction motivates collaborative scoring against — a
    busy reviewer reading only its ``B`` assigned papers and flipping coins
    for the rest.
    """
    rng = as_generator(seed)
    budget = min(ctx.budget, ctx.n_objects)
    predictions = rng.integers(0, 2, size=(ctx.n_players, ctx.n_objects), dtype=np.uint8)
    for player in range(ctx.n_players):
        probed = rng.choice(ctx.n_objects, size=budget, replace=False)
        values = ctx.oracle.probe_objects(player, probed)
        predictions[player, probed] = values
    return predictions


def global_majority(ctx: ProtocolContext, seed: SeedLike = None) -> np.ndarray:
    """Pool all posted reports and give every player the global majority.

    Each player probes ``B`` random objects and posts the result; every
    player then predicts, for each object, the majority of the posted reports
    (ties and never-probed objects fall back to 1).  Works only when players
    are near-unanimous and no one lies: personalisation and robustness both
    collapse, which is exactly what experiments E5/E6 illustrate.
    """
    rng = as_generator(seed)
    budget = min(ctx.budget, ctx.n_objects)
    if budget <= 0:
        raise ProtocolError("global_majority requires a positive budget")
    for player in range(ctx.n_players):
        probed = rng.choice(ctx.n_objects, size=budget, replace=False)
        true_values = ctx.oracle.probe_objects(player, probed)
        reported = ctx.pool.reports_for(player, probed, true_values)
        ctx.board.post_reports("baseline/global-majority", player, probed, reported)
    # Every (player, object) cell is posted at most once here (each player
    # draws without replacement and posts once), so the vote multiset equals
    # the board's distinct-cell state and the consensus *is* the board's
    # masked majority — one packed reduction over the posted channel.
    consensus, _ = ctx.board.masked_majority("baseline/global-majority")
    return np.tile(consensus, (ctx.n_players, 1))
