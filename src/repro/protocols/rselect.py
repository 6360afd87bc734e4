"""RSelect: the randomised candidate-selection tournament (Theorem 3).

Given candidate vectors ``w_1 … w_k``, player ``p`` wants the one closest to
its own (unknown) preference vector.  For every pair of surviving candidates
the player probes a random sample of the objects on which the pair *differs*
and eliminates the candidate that loses a 2/3 majority.  Theorem 3 shows the
survivor is within a constant factor of the best candidate's distance, using
``O(k² log n)`` probes.

Two entry points are provided:

* :func:`rselect` — the per-player tournament exactly as in Figure 1; used
  where one player holds its *own* candidate list (the E1 driver).
* :func:`rselect_collective` — runs the tournament for every player at once.
  The pair schedule is shared (all players walk the same ``(a, b)`` nested
  order, skipping pairs they already eliminated), so each round vectorises:
  per-player differing positions come from one packed XOR + unpack over the
  candidate stack, every player's sample probes are charged through a single
  :meth:`~repro.simulation.oracle.ProbeOracle.probe_ragged` call, and the
  votes are counted by :func:`repro.perf.packed_pair_vote`.

Randomness contract: ``rselect_collective`` first draws **one 63-bit seed
per player from the shared randomness, in player order** (a single batched
``integers`` call — the documented "player-major" draw), and every player's
tournament consumes only its own derived substream.  Within a tournament,
each pair round whose differing-position count exceeds the sample size
draws **one uniform key per differing position** from the player's
substream and probes the ``sample_size`` smallest-keyed positions in
increasing key order (a weighted-shuffle draw: batchable across players,
unlike ``Generator.choice``).  A player's sequence of draws therefore does
not depend on how the tournaments are interleaved, so running the players
one by one (``rselect`` per player on its substream) and running them
round-by-round produce the same samples, the same probes and the same
winners.  The one-by-one loop lives in ``tests/reference_loops.py`` as
``rselect_collective_serial``, and ``tests/test_tournament_vectorised.py``
checks the collective path against it bit for bit.

Survivor tie-break: with a majority threshold strictly above 1/2 the alive
set can never empty (each processed pair eliminates at most the loser), but
for threshold ≤ 1/2 — reachable only by bypassing the constants validation —
mutual elimination can kill both members of the final pair.  Both functions
then fall back to the **most recently eliminated** candidate (``a`` of the
final pair, which was killed after ``b``) rather than unconditionally
``candidates[0]``: the last candidate standing in the tournament order is
the one that survived the most comparisons.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ProtocolError
from repro.obs.runtime import traced
from repro.perf import pack_bits, packed_pair_vote, popcount
from repro.protocols.context import ProtocolContext

__all__ = ["rselect", "rselect_collective"]


def _player_rngs(ctx: ProtocolContext, n_players: int) -> list[np.random.Generator]:
    """Derive one independent substream per player, in player-major order.

    One batched draw of ``n_players`` 63-bit seeds from the shared
    randomness: the collective tournament and its per-player reference loop
    both consume exactly this call, so they advance the shared stream
    identically.
    """
    seeds = ctx.randomness.generator.integers(0, 2**63 - 1, size=n_players)
    return [np.random.default_rng(int(seed)) for seed in seeds]


def _sample_differing(
    differing: np.ndarray, sample_size: int, rng: np.random.Generator
) -> np.ndarray:
    """The documented per-pair sample draw: all differing positions when they
    fit, else the ``sample_size`` smallest of one uniform key per position
    (in increasing key order — ties are measure-zero for doubles)."""
    if differing.size <= sample_size:
        return differing
    keys = rng.random(differing.size)
    smallest = np.argpartition(keys, sample_size - 1)[:sample_size]
    return differing[smallest[np.argsort(keys[smallest])]]


def _pair_vote(
    ctx: ProtocolContext,
    player: int,
    objects: np.ndarray,
    w_a: np.ndarray,
    w_b: np.ndarray,
    sample_size: int,
    rng: np.random.Generator,
) -> tuple[int, int]:
    """Probe a sample of the positions where ``w_a`` and ``w_b`` differ.

    Returns ``(agree_a, agree_b)``: how many probed positions agree with each
    candidate.  If the candidates are identical the vote is a (0, 0) tie.
    """
    differing = np.flatnonzero(w_a != w_b)
    if differing.size == 0:
        return 0, 0
    picked = _sample_differing(differing, sample_size, rng)
    true_values = ctx.oracle.probe_objects(int(player), objects[picked])
    agree_a = int((true_values == w_a[picked]).sum())
    agree_b = int((true_values == w_b[picked]).sum())
    return agree_a, agree_b


@traced("select.tournament")
def rselect(
    ctx: ProtocolContext,
    player: int,
    objects: np.ndarray,
    candidates: np.ndarray,
    sample_size: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[int, np.ndarray]:
    """Run RSelect for one player.

    Parameters
    ----------
    ctx:
        Execution context.
    player:
        The player running the tournament (probes are charged to it).
    objects:
        Global object indices the candidate vectors are defined over.
    candidates:
        Array of shape ``(k, len(objects))``.
    sample_size:
        Per-pair sample size; defaults to ``Θ(log n)`` from the constants.
    rng:
        Source of the per-pair sample draws.  Defaults to the shared
        randomness; the per-player reference of :func:`rselect_collective`
        passes each player's derived substream instead (see the module
        docstring's randomness contract).

    Returns
    -------
    (index, vector):
        The index of the surviving candidate and the candidate itself.
    """
    objects = np.asarray(objects, dtype=np.int64)
    candidates = np.asarray(candidates, dtype=np.uint8)
    if candidates.ndim != 2 or candidates.shape[1] != objects.size:
        raise ProtocolError(
            f"candidates must have shape (k, {objects.size}), got {candidates.shape}"
        )
    k = candidates.shape[0]
    if k == 0:
        raise ProtocolError("rselect requires at least one candidate")
    if k == 1:
        return 0, candidates[0].copy()
    sample_size = int(
        sample_size
        if sample_size is not None
        else ctx.constants.rselect_sample_size(ctx.n_players)
    )
    if sample_size <= 0:
        raise ProtocolError(f"sample_size must be positive, got {sample_size}")
    majority = ctx.constants.rselect_majority
    if rng is None:
        rng = ctx.randomness.generator

    alive = np.ones(k, dtype=bool)
    last_eliminated = -1
    for a in range(k):
        if not alive[a]:
            continue
        for b in range(a + 1, k):
            if not alive[b] or not alive[a]:
                continue
            agree_a, agree_b = _pair_vote(
                ctx, player, objects, candidates[a], candidates[b], sample_size, rng
            )
            total = agree_a + agree_b
            if total == 0:
                continue
            if agree_a >= majority * total:
                alive[b] = False
                last_eliminated = b
            if agree_b >= majority * total:
                alive[a] = False
                last_eliminated = a
    survivors = np.flatnonzero(alive)
    if survivors.size == 0:
        # Mutual elimination (threshold ≤ 1/2 only): keep the most recently
        # eliminated candidate — the one that outlived every other.
        survivors = np.asarray([last_eliminated if last_eliminated >= 0 else 0])
    winner = int(survivors[0])
    return winner, candidates[winner].copy()


@traced("select.tournament")
def rselect_collective(
    ctx: ProtocolContext,
    players: np.ndarray,
    objects: np.ndarray,
    candidates_per_player: np.ndarray,
    sample_size: int | None = None,
) -> np.ndarray:
    """Run RSelect independently for every listed player.

    ``candidates_per_player`` has shape ``(len(players), k, len(objects))``:
    player ``players[i]`` chooses among ``candidates_per_player[i]``.
    Returns the chosen vectors, shape ``(len(players), len(objects))``.
    """
    players = np.asarray(players, dtype=np.int64)
    objects = np.asarray(objects, dtype=np.int64)
    candidates_per_player = np.asarray(candidates_per_player, dtype=np.uint8)
    if (
        candidates_per_player.ndim != 3
        or candidates_per_player.shape[0] != players.size
        or candidates_per_player.shape[2] != objects.size
    ):
        raise ProtocolError(
            "candidates_per_player must have shape (n_players, k, n_objects); got "
            f"{candidates_per_player.shape}"
        )
    n_players, k, n_objects = candidates_per_player.shape
    if k == 0:
        raise ProtocolError("rselect requires at least one candidate")
    if k == 1 or n_players == 0:
        return candidates_per_player[:, 0, :].copy()
    sample_size = int(
        sample_size
        if sample_size is not None
        else ctx.constants.rselect_sample_size(ctx.n_players)
    )
    if sample_size <= 0:
        raise ProtocolError(f"sample_size must be positive, got {sample_size}")
    rngs = _player_rngs(ctx, n_players)
    majority = ctx.constants.rselect_majority
    packed = pack_bits(candidates_per_player)  # (P, k, n_bytes)
    alive = np.ones((n_players, k), dtype=bool)
    last_eliminated = np.full(n_players, -1, dtype=np.int64)
    for a in range(k):
        for b in range(a + 1, k):
            active = np.flatnonzero(alive[:, a] & alive[:, b])
            if active.size == 0:
                continue
            # Differing positions for every active player at once: XOR the
            # packed candidate rows, then unpack only the XOR (an eighth of
            # two dense != broadcasts).  Flatnonzero of the raveled bits
            # walks row-major, i.e. player-major with ascending positions —
            # the exact order np.flatnonzero yields in rselect's pair vote.
            xor = packed.data[active, a, :] ^ packed.data[active, b, :]
            diff_counts = popcount(xor).sum(axis=-1, dtype=np.int64)
            diff_bits = np.unpackbits(xor, axis=-1, count=n_objects)
            flat = np.flatnonzero(diff_bits.view(bool).ravel())
            diff_positions = flat % n_objects
            offsets = np.concatenate(([0], np.cumsum(diff_counts)))

            # Draw the sampling keys player-by-player (each from its own
            # substream, ascending player order), then select every sampled
            # player's smallest keys in one padded argpartition + argsort.
            needs_draw = np.flatnonzero(diff_counts > sample_size)
            selections: np.ndarray | None = None
            if needs_draw.size:
                widths = diff_counts[needs_draw]
                keys = np.full((needs_draw.size, int(widths.max())), np.inf)
                for row, j in enumerate(needs_draw):
                    keys[row, : diff_counts[j]] = rngs[active[j]].random(diff_counts[j])
                smallest = np.argpartition(keys, sample_size - 1, axis=1)[:, :sample_size]
                rows = np.arange(needs_draw.size)[:, None]
                order = np.argsort(keys[rows, smallest], axis=1)
                selections = smallest[rows, order]

            voters: list[int] = []
            picked_lists: list[np.ndarray] = []
            draw_row = 0
            for j, i in enumerate(active):
                differing = diff_positions[offsets[j] : offsets[j + 1]]
                if differing.size == 0:
                    continue  # identical candidates: (0, 0) tie, no draw
                if differing.size > sample_size:
                    picked = differing[selections[draw_row]]
                    draw_row += 1
                else:
                    picked = differing
                voters.append(int(i))
                picked_lists.append(picked)
            if not voters:
                continue
            voter_rows = np.asarray(voters, dtype=np.int64)
            lengths = np.asarray([p.size for p in picked_lists], dtype=np.int64)
            # The oracle answers the whole ragged batch as zero-padded packed
            # rows — the vote kernel's operand shape — so the probed values
            # never pass through a dense block on this side.
            true_packed = ctx.oracle.probe_ragged(
                players[voter_rows], [objects[p] for p in picked_lists], packed=True
            )

            # Candidate rows → zero-padded operands for the packed vote kernel.
            concat_positions = np.concatenate(picked_lists)
            concat_rows = np.repeat(voter_rows, lengths)
            pad_mask = np.arange(int(lengths.max()))[None, :] < lengths[:, None]
            pad_a = np.zeros(pad_mask.shape, dtype=np.uint8)
            pad_b = np.zeros(pad_mask.shape, dtype=np.uint8)
            pad_a[pad_mask] = candidates_per_player[concat_rows, a, concat_positions]
            pad_b[pad_mask] = candidates_per_player[concat_rows, b, concat_positions]
            agree_a, agree_b = packed_pair_vote(true_packed, pad_a, pad_b, lengths)

            # Every sampled position distinguishes the pair, so the vote
            # total is the sample length; eliminations mirror rselect's
            # order (b first, then a) so `last_eliminated` ties break alike.
            kill_b = agree_a >= majority * lengths
            kill_a = agree_b >= majority * lengths
            alive[voter_rows[kill_b], b] = False
            last_eliminated[voter_rows[kill_b]] = b
            alive[voter_rows[kill_a], a] = False
            last_eliminated[voter_rows[kill_a]] = a

    any_alive = alive.any(axis=1)
    winner = np.where(
        any_alive,
        alive.argmax(axis=1),
        np.where(last_eliminated >= 0, last_eliminated, 0),
    )
    return candidates_per_player[np.arange(n_players), winner, :].copy()
