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
  order, skipping pairs they already eliminated), so each round vectorises.
  Players often share candidate rows (CalculatePreferences hands every
  member of a work-sharing cluster its cluster's vector), so each of the
  ``k`` candidate slots is a set of rows plus every player's label into
  them: work sharing hands over its ``(labels, rows)`` pair, one row per
  cluster, and a dense ``(n_players, n_objects)`` slot has its distinct
  rows labelled by a hash of their packed words.  No per-player stack of
  the slots is built.  Each round does its XOR, its popcount and its
  ascending list of differing positions (the unpacked XOR bits through one
  ``flatnonzero``) once per distinct pair of labels, and reads candidate
  ``a``'s sampled bits from its slot's rows; every voting player reads its
  differing-bit count, and its sampled positions by rank, from its pair's.
  The drawing players' keys land in one flat buffer, reused from round to
  round, whose ``sample_size`` smallest per player are selected exactly (a
  fixed key prefilter, then one small padded argsort); every player's
  sample probes are charged through a single flat
  :meth:`~repro.simulation.oracle.ProbeOracle.probe_ragged` call; and the
  votes are counted by :func:`repro.perf.packed_pair_vote`.  The only step
  that walks the players in Python is one ``random`` call per drawing
  player.

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

from typing import Any, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from repro.errors import ProtocolError
from repro.obs.runtime import traced
from repro.perf import pack_bits, packed_pair_vote
from repro.perf.bitset import _as_words, _popcount_words
from repro.protocols.context import ProtocolContext

__all__ = ["rselect", "rselect_collective"]

#: Oversampling of the collective path's key prefilter: a row of ``w`` keys
#: keeps those below ``_PREFILTER · s / w``, about ``_PREFILTER · s`` of
#: them.  Fewer than ``s`` pass, and the row falls back to a selection over
#: all of its keys, with probability below 2e-7 at ``s = 14`` (the
#: practical profile at 1,024 players) and 3e-3 at the minimum ``s = 4``
#: (the Poisson tail of the passing count).
_PREFILTER = 3.0

#: Odd multiplier of the candidate-row hash: word ``i`` of a packed row is
#: weighted by its ``i + 1``-th power, modulo 2**64.
_ROW_HASH_MULTIPLIER = 0x9E3779B97F4A7C15


#: ``SeedSequence``'s hash constants (NumPy's ``bit_generator.pyx``): the
#: entropy-mixing multiplier, the state-output multiplier and the two
#: pool-mixing multipliers, each with its starting value where it evolves.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _seed_states(seeds: np.ndarray) -> np.ndarray:
    """``np.random.SeedSequence(int(s)).generate_state(4, np.uint64)`` for
    every non-negative 64-bit seed ``s`` at once, as an ``(n, 4)`` array.

    The same ``uint32`` arithmetic as ``SeedSequence``, one vector operation
    per step: the seed enters as two little-endian 32-bit words (a seed
    below 2**32 is one word, and a missing word hashes as 0, so the two
    agree), the 4-word pool is mixed as ``mix_entropy`` mixes it, and eight
    32-bit outputs pair up little-endian into the four state words.  The
    hash multipliers evolve the same way for every seed, so they stay
    Python integers.
    """
    seeds = np.asarray(seeds).astype(np.uint64)
    hash_a = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_a
        value = value ^ np.uint32(hash_a)
        hash_a = (hash_a * _MULT_A) & _MASK32
        value = value * np.uint32(hash_a)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    zero = np.zeros(seeds.shape, dtype=np.uint32)
    entropy = [
        (seeds & np.uint64(_MASK32)).astype(np.uint32),
        (seeds >> np.uint64(32)).astype(np.uint32),
    ]
    pool = [hashmix(entropy[0]), hashmix(entropy[1]), hashmix(zero), hashmix(zero)]
    for source in range(4):
        for target in range(4):
            if source != target:
                pool[target] = mix(pool[target], hashmix(pool[source]))
    hash_b = _INIT_B
    words = np.empty((seeds.size, 8), dtype=np.uint32)
    for index in range(8):
        value = pool[index % 4] ^ np.uint32(hash_b)
        hash_b = (hash_b * _MULT_B) & _MASK32
        value = value * np.uint32(hash_b)
        words[:, index] = value ^ (value >> np.uint32(16))
    return words.astype("<u4").view("<u8").astype(np.uint64)


class _SeedState(ISeedSequence):
    """A seed source that hands ``PCG64`` one precomputed state.

    ``PCG64`` asks its seed source for ``generate_state(4, np.uint64)`` once,
    at construction; this answers with a row of :func:`_seed_states`, so
    the generator starts exactly where ``default_rng(seed)``'s does without
    building a ``SeedSequence``.  It answers no other request.
    """

    __slots__ = ("_state",)

    def __init__(self, state: np.ndarray) -> None:
        self._state = state

    def generate_state(self, n_words: int, dtype: Any = np.uint32) -> np.ndarray:
        return self._state


def _player_rngs(ctx: ProtocolContext, n_players: int) -> list[np.random.Generator]:
    """Derive one independent substream per player, in player-major order.

    One batched draw of ``n_players`` 63-bit seeds from the shared
    randomness: the collective tournament and its per-player reference loop
    both consume exactly this call, so they advance the shared stream
    identically.  Player ``i``'s generator is ``default_rng(int(seeds[i]))``
    stream for stream; the seed states are derived in one vectorised pass
    (:func:`_seed_states`) rather than one ``SeedSequence`` at a time.
    """
    seeds = ctx.randomness.generator.integers(0, 2**63 - 1, size=n_players)
    return [
        np.random.Generator(np.random.PCG64(_SeedState(state)))
        for state in _seed_states(seeds)
    ]


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


def _smallest_keys(keys: np.ndarray, widths: np.ndarray, sample_size: int) -> np.ndarray:
    """:func:`_sample_differing`'s selection for many rows of keys at once.

    ``keys`` concatenates rows of ``widths`` keys, every row wider than
    ``sample_size``.  Returns ``(rows, sample_size)``: the in-row indices of
    each row's ``sample_size`` smallest keys, in increasing key order —
    what ``argpartition`` + ``argsort`` on the row's own keys give.  When at
    least ``sample_size`` of a row's keys lie below ``_PREFILTER ·
    sample_size / width``, its smallest ``sample_size`` are among them, so
    only the passing keys are sorted, in one padded argsort; a row with
    fewer passing keys selects from all of its own.
    """
    bounds = np.concatenate(([0], np.cumsum(widths)))
    starts = bounds[:-1]
    limits = np.minimum(1.0, _PREFILTER * sample_size / widths)
    kept = np.flatnonzero(keys < np.repeat(limits, widths))
    per_row = np.diff(np.searchsorted(kept, bounds))
    row = np.repeat(np.arange(widths.size), per_row)
    column = np.arange(kept.size) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    width = max(int(per_row.max()), sample_size)
    padded = np.full((widths.size, width), np.inf)
    padded[row, column] = keys[kept]
    in_row = np.zeros((widths.size, width), dtype=np.int64)
    in_row[row, column] = kept - starts[row]
    chosen = np.take_along_axis(in_row, np.argsort(padded, axis=1)[:, :sample_size], axis=1)
    for short in np.flatnonzero(per_row < sample_size):
        row_keys = keys[starts[short] : bounds[short + 1]]
        smallest = np.argpartition(row_keys, sample_size - 1)[:sample_size]
        chosen[short] = smallest[np.argsort(row_keys[smallest])]
    return chosen


def _slot_labels(words: np.ndarray) -> np.ndarray:
    """Label the distinct rows of one dense candidate slot.

    ``words`` is the slot's packed ``(P, n_words)`` rows.  The rows are
    sorted by a hash of their words, and a new run starts wherever a row
    differs from its predecessor (a different hash, or an equal hash and
    different words); every row is labelled with the index of the row that
    starts its run, so equal labels always mean equal rows.  (Equal rows
    that a colliding row separates in that order get two labels, which
    costs work, never a wrong answer.)  Returns the ``(P,)`` labels, each an
    index into the slot's own rows.
    """
    multipliers = np.cumprod(
        np.full(words.shape[-1], _ROW_HASH_MULTIPLIER, dtype=np.uint64)
    )
    hashes = words @ multipliers  # integer arithmetic, modulo 2**64
    order = np.argsort(hashes, kind="stable")
    ordered_hashes = hashes[order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = ordered_hashes[1:] != ordered_hashes[:-1]
    (same,) = np.nonzero(~starts)
    starts[same] = (words[order[same]] != words[order[same - 1]]).any(axis=-1)
    labels = np.empty(order.size, dtype=np.int64)
    labels[order] = order[starts][np.cumsum(starts) - 1]
    return labels


def _checked_slot(
    slot: Any, n_players: int, n_objects: int
) -> tuple[np.ndarray | None, np.ndarray]:
    """One candidate slot of :func:`rselect_collective`, validated.

    A tuple is a ``(labels, rows)`` pair: player ``i`` holds
    ``rows[labels[i]]``.  Anything else is a dense ``(n_players,
    n_objects)`` matrix, returned with ``None`` for labels (it is labelled
    only if a tournament runs).
    """
    if isinstance(slot, tuple):
        labels, rows = slot
        labels = np.asarray(labels)
        rows = np.asarray(rows, dtype=np.uint8)
        if rows.ndim != 2 or rows.shape[1] != n_objects:
            raise ProtocolError(
                f"slot rows must have shape (n_rows, {n_objects}), got {rows.shape}"
            )
        if labels.shape != (n_players,) or (
            n_players and labels.dtype.kind not in "iu"
        ):
            raise ProtocolError(
                f"slot labels must be {n_players} integers, got {labels.dtype} "
                f"of shape {labels.shape}"
            )
        if n_players and (labels.min() < 0 or labels.max() >= rows.shape[0]):
            raise ProtocolError(
                f"slot labels must index its {rows.shape[0]} rows, got "
                f"[{labels.min()}, {labels.max()}]"
            )
        return labels.astype(np.int64, copy=False), rows
    rows = np.asarray(slot, dtype=np.uint8)
    if rows.shape != (n_players, n_objects):
        raise ProtocolError(
            f"a dense slot must have shape ({n_players}, {n_objects}), got {rows.shape}"
        )
    return None, rows


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
    candidates: Sequence[tuple[np.ndarray, np.ndarray] | np.ndarray],
    sample_size: int | None = None,
) -> np.ndarray:
    """Run RSelect independently for every listed player.

    ``candidates`` holds the ``k`` candidate slots; player ``players[i]``
    chooses among its row of each.  A slot is either a ``(labels, rows)``
    pair — ``rows`` of shape ``(n_rows, len(objects))`` and player ``i``'s
    candidate ``rows[labels[i]]``, the layout work sharing produces — or a
    dense ``(len(players), len(objects))`` matrix, whose distinct rows are
    labelled by hashing (:func:`_slot_labels`).  Returns the chosen vectors,
    shape ``(len(players), len(objects))``.
    """
    players = np.asarray(players, dtype=np.int64)
    objects = np.asarray(objects, dtype=np.int64)
    n_players = players.size
    slots = [_checked_slot(slot, n_players, objects.size) for slot in candidates]
    k = len(slots)
    if k == 0:
        raise ProtocolError("rselect requires at least one candidate")
    if k == 1 or n_players == 0:
        labels, rows = slots[0]
        return rows.copy() if labels is None else rows[labels]
    sample_size = int(
        sample_size
        if sample_size is not None
        else ctx.constants.rselect_sample_size(ctx.n_players)
    )
    if sample_size <= 0:
        raise ProtocolError(f"sample_size must be positive, got {sample_size}")
    rngs = _player_rngs(ctx, n_players)
    majority = ctx.constants.rselect_majority
    # Every slot as packed row words and each player's label: an index into
    # the slot's rows, equal labels meaning equal rows.
    words = [_as_words(pack_bits(rows).data) for _, rows in slots]
    labels = [
        _slot_labels(slot_words) if slot_labels is None else slot_labels
        for (slot_labels, _), slot_words in zip(slots, words)
    ]
    # Bits per unpacked XOR row: a differing position's flat index in the
    # unpacked pair rows is its pair's row times this, plus the position.
    row_bits = 8 * words[0].itemsize * words[0].shape[-1]
    keys = np.empty(0)
    alive = np.ones((n_players, k), dtype=bool)
    last_eliminated = np.full(n_players, -1, dtype=np.int64)
    for a in range(k):
        for b in range(a + 1, k):
            active = np.flatnonzero(alive[:, a] & alive[:, b])
            if active.size == 0:
                continue
            # Players holding the same two rows share the round's XOR: its
            # popcount and its differing positions are computed once per
            # distinct (row a, row b) pair.  A player whose candidates are
            # identical has a (0, 0) tie: no draw, no probe.
            n_b = words[b].shape[0]
            pairs, pair_of = np.unique(
                labels[a][active] * n_b + labels[b][active], return_inverse=True
            )
            xor = words[a][pairs // n_b] ^ words[b][pairs % n_b]
            pair_counts = _popcount_words(xor).sum(axis=-1, dtype=np.int64)
            diff_counts = pair_counts[pair_of]
            voting = np.flatnonzero(diff_counts)
            if voting.size == 0:
                continue
            voter_rows = active[voting]
            lengths = np.minimum(diff_counts[voting], sample_size)
            starts = np.cumsum(lengths) - lengths

            # Each voter's sample as ranks among its differing positions:
            # all of them (ascending) when they fit, else the smallest keys
            # of one draw from its own substream — one `random` call per
            # drawing player, in ascending player order, written in place
            # into the key buffer.
            ranks = np.arange(int(lengths.sum())) - np.repeat(starts, lengths)
            drawing = np.flatnonzero(diff_counts[voting] > sample_size)
            if drawing.size:
                widths = diff_counts[voting[drawing]]
                stops = np.cumsum(widths).tolist()
                if keys.size < stops[-1]:
                    keys = np.empty(stops[-1])
                for row, start, stop in zip(voter_rows[drawing].tolist(), [0, *stops], stops):
                    rngs[row].random(out=keys[start:stop])
                ranks[starts[drawing][:, None] + np.arange(sample_size)] = _smallest_keys(
                    keys[: stops[-1]], widths, sample_size
                )
            # Ranks -> object positions, in the order rselect's pair vote
            # probes them: every distinct pair's differing positions,
            # ascending, lie in one flat list, its rows one after another.
            positions = np.flatnonzero(np.unpackbits(xor.view(np.uint8)).view(bool))
            pair_starts = np.cumsum(pair_counts) - pair_counts
            picked = (
                positions[np.repeat(pair_starts[pair_of[voting]], lengths) + ranks] % row_bits
            )
            # The oracle answers the whole ragged batch as zero-padded packed
            # rows — the vote kernel's operand shape — so the probed values
            # never pass through a dense block on this side.
            true_packed = ctx.oracle.probe_ragged(
                players[voter_rows], objects[picked], lengths, packed=True
            )

            # Candidate a's sampled bits, read from its slot's rows, as
            # zero-padded operands for the packed vote kernel; every sampled
            # position distinguishes the pair, so candidate b holds the
            # complement of candidate a there.
            values_a = slots[a][1][np.repeat(labels[a][voter_rows], lengths), picked]
            pad_mask = np.arange(int(lengths.max()))[None, :] < lengths[:, None]
            pad_a = np.zeros(pad_mask.shape, dtype=np.uint8)
            pad_b = np.zeros(pad_mask.shape, dtype=np.uint8)
            pad_a[pad_mask] = values_a
            pad_b[pad_mask] = values_a ^ 1
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
    chosen = np.empty((n_players, objects.size), dtype=np.uint8)
    for slot, ((_, rows), slot_labels) in enumerate(zip(slots, labels)):
        won = np.flatnonzero(winner == slot)
        chosen[won] = rows[slot_labels[won]]
    return chosen
