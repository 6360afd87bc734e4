"""The dishonest-player wrapper (§7): leader election × repetition × RSelect.

CalculatePreferences depends on shared random choices.  With dishonest
players in the system those choices must not be biasable, so the paper wraps
the protocol as follows (§7.1):

1. elect a leader with a Byzantine-tolerant election (Feige's lightest-bin
   protocol) — an honest leader is elected with constant probability;
2. the leader publishes the random bits used for the sample set, the
   SmallRadius partitions and the prober assignment; a dishonest leader may
   publish biased bits;
3. run CalculatePreferences with those bits, producing one candidate vector
   per player;
4. repeat Θ(log n) times so that, with high probability, at least one
   repetition used honest randomness;
5. each player runs RSelect over its candidate vectors — RSelect uses only
   the player's own probes, so the dishonest players cannot influence the
   final choice.

The wrapper models the dishonest leader faithfully: when the coalition wins
an election, the shared randomness is replaced by an
:class:`~repro.simulation.randomness.AdversarialRandomness` configured from
the coalition's plan (hide revealing objects from samples, over-assign
coalition members as probers).  Publishing the bits is modelled by handing
the repetition's context that stream; nothing is posted on the bulletin
board.  Each repetition runs CalculatePreferences' guessed diameters one
after another on its one stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.calculate_preferences import (
    CalculatePreferencesResult,
    calculate_preferences,
)
from repro.errors import BudgetExceededError, OracleTimeout, ProtocolError
from repro.leader.feige import ElectionResult, feige_leader_election
from repro.players.adversaries import CoalitionPlan
from repro.protocols.context import ProtocolContext
from repro.protocols.rselect import rselect_collective
from repro.simulation.randomness import AdversarialRandomness, SharedRandomness

__all__ = ["DegradedRun", "RobustResult", "robust_calculate_preferences"]


@dataclass(frozen=True)
class DegradedRun:
    """Structured reason one protocol stage was abandoned under ``degrade=``.

    ``stage`` is ``"iteration"`` (one leader-election repetition gave up —
    its candidates are simply missing from the final RSelect) or
    ``"final-select"`` (the closing RSelect itself gave up — predictions
    fall back to the first completed repetition's candidates).  ``reason``
    is the exception class name (``BudgetExceededError``, ``OracleTimeout``),
    ``detail`` its message.
    """

    stage: str
    iteration: int | None
    reason: str
    detail: str


@dataclass(frozen=True)
class RobustResult:
    """Output of the robust (dishonest-tolerant) protocol.

    ``partial`` / ``failures`` / ``resolved_players`` describe graceful
    degradation (see :func:`robust_calculate_preferences` ``degrade=``); a
    normal run leaves them at their defaults, so existing callers and
    pickles are unaffected.
    """

    predictions: np.ndarray
    iteration_results: tuple[CalculatePreferencesResult, ...]
    elections: tuple[ElectionResult, ...]
    #: True when any stage was abandoned and the result is best-effort.
    partial: bool = False
    #: Why, stage by stage (empty for a clean run).
    failures: tuple[DegradedRun, ...] = ()
    #: Players whose predictions rest on at least one completed repetition
    #: (``None`` for a clean run: trivially all players).
    resolved_players: np.ndarray | None = None

    @property
    def honest_leader_iterations(self) -> int:
        """How many repetitions were driven by an honestly elected leader."""
        return sum(1 for e in self.elections if e.leader_is_honest)


def robust_calculate_preferences(
    ctx: ProtocolContext,
    coalition: CoalitionPlan | None = None,
    iterations: int | None = None,
    diameters: list[float] | None = None,
    degrade: bool = False,
) -> RobustResult:
    """Run the Byzantine-robust CalculatePreferences protocol.

    Parameters
    ----------
    ctx:
        Execution context.  Its ``randomness`` field provides the honest
        leaders' bits; each iteration derives an independent stream from it.
    coalition:
        The dishonest coalition's plan (members + attack targets).  ``None``
        or an empty coalition reduces to the honest protocol repeated with a
        final RSelect.
    iterations:
        Number of leader-election repetitions; defaults to ``Θ(log n)`` from
        the constants.
    diameters:
        Guessed-diameter schedule forwarded to every repetition.
    degrade:
        With the default ``False``, a probe-budget or fault-channel
        exhaustion (:class:`~repro.errors.BudgetExceededError`,
        :class:`~repro.errors.OracleTimeout`) propagates as usual.  With
        ``True`` the protocol degrades gracefully instead of raising: a
        failed repetition is dropped (the final RSelect runs over the
        repetitions that completed), a failed final RSelect falls back to
        the first completed repetition's candidates, and if *nothing*
        completed the result carries zero predictions and an empty
        ``resolved_players``.  Every abandonment is recorded as a
        :class:`DegradedRun` in ``failures`` and flips ``partial``.
        Degradation never consumes extra randomness: both per-iteration
        seeds are drawn before the attempt, so the seed stream — and hence
        every *surviving* stage — is bit-identical to the clean run's.

    Returns
    -------
    RobustResult
        Final predictions, the per-iteration protocol results, and the
        election outcomes (so experiments can report how often the coalition
        captured the leadership).
    """
    n = ctx.n_players
    if iterations is None:
        iterations = ctx.constants.robust_iterations(n)
    if iterations <= 0:
        raise ProtocolError(f"iterations must be positive, got {iterations}")

    coalition_members = (
        coalition.members if coalition is not None else np.zeros(0, dtype=np.int64)
    )

    iteration_results: list[CalculatePreferencesResult] = []
    elections: list[ElectionResult] = []
    candidate_blocks: list[np.ndarray] = []
    failures: list[DegradedRun] = []

    for iteration in range(iterations):
        election_seed = int(ctx.randomness.generator.integers(0, 2**63 - 1))
        election = feige_leader_election(
            n_players=n, dishonest=coalition_members, seed=election_seed
        )
        elections.append(election)

        leader_seed = int(ctx.randomness.generator.integers(0, 2**63 - 1))
        if election.leader_is_honest or coalition is None:
            randomness: SharedRandomness = SharedRandomness(leader_seed)
        else:
            randomness = AdversarialRandomness(
                leader_seed,
                hidden_objects=coalition.hidden_objects,
                favoured_players=coalition.members,
            )

        iteration_ctx = ctx.with_randomness(randomness)
        try:
            result = calculate_preferences(
                iteration_ctx, diameters=diameters, channel=f"robust/i{iteration}"
            )
        except (BudgetExceededError, OracleTimeout) as error:
            if not degrade:
                raise
            failures.append(
                DegradedRun(
                    stage="iteration",
                    iteration=iteration,
                    reason=type(error).__name__,
                    detail=str(error),
                )
            )
            continue
        iteration_results.append(result)
        candidate_blocks.append(result.predictions)

    if not candidate_blocks:
        # Every repetition exhausted its channel: nothing is resolved, but
        # the caller still gets a typed result it can inspect and report.
        return RobustResult(
            predictions=np.zeros((n, ctx.all_objects().size), dtype=np.uint8),
            iteration_results=(),
            elections=tuple(elections),
            partial=True,
            failures=tuple(failures),
            resolved_players=np.zeros(0, dtype=np.int64),
        )

    candidate_stack = np.stack(candidate_blocks, axis=1)  # (n_players, iters, n_objects)
    if candidate_stack.shape[1] == 1:
        final = candidate_stack[:, 0, :].copy()
    else:
        # Step 5's per-player RSelect over the per-iteration candidates runs
        # as one collective round-batched tournament; each player still
        # relies only on its own probes and substream, so the dishonest
        # players cannot influence anyone else's choice.
        try:
            final = rselect_collective(
                ctx, ctx.all_players(), ctx.all_objects(), candidate_stack
            )
        except (BudgetExceededError, OracleTimeout) as error:
            if not degrade:
                raise
            failures.append(
                DegradedRun(
                    stage="final-select",
                    iteration=None,
                    reason=type(error).__name__,
                    detail=str(error),
                )
            )
            final = candidate_blocks[0].copy()
    partial = bool(failures)
    return RobustResult(
        predictions=final,
        iteration_results=tuple(iteration_results),
        elections=tuple(elections),
        partial=partial,
        failures=tuple(failures),
        resolved_players=ctx.all_players() if partial else None,
    )
