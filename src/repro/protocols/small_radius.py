"""SmallRadius: collaborative scoring for clusters of small diameter.

Figure 1 / Theorem 5 of the paper (from Alon et al. [2,3]): if every player
belongs to a set of ``≥ n/B`` players whose preference diameter is at most
``D``, each player can compute a vector within ``5D`` of its true preferences
using ``O(B · D^{3/2} (D + log n))`` probes.  The protocol:

1. randomly partitions the objects into ``s = Θ(D^{3/2})`` subsets;
2. runs ZeroRadius on every subset with an inflated budget (``5B``) — within
   a small subset, a diameter-``D`` cluster collapses to near-identical
   preferences often enough for ZeroRadius to produce useful vectors;
3. keeps the vectors output by sufficiently many players (``≥ n/(5B)``) and
   lets every player pick its closest candidate with ``Select``;
4. repeats Θ(log n) times and lets every player ``Select`` among the
   per-repetition concatenated candidates.

The implementation is collective (one call simulates all players) and leans
on the vectorised :func:`repro.protocols.select.select_collective`.  Each
repetition batches every partition subset that falls into ZeroRadius' base
case — *mixed recursion*: the base-case subsets collapse into one probe
block over their union, one post per channel and one probe block over their
Select samples, while the subsets large enough to recurse still run the
full ZeroRadius at their position in the partition order.  Pools with
dishonest players take the same path: their strategies are asked for each
base subset's reports at that subset's position, so every strategy sees the
calls of the per-subset loop in its order.  The batched repetition consumes
the shared randomness in exactly the per-subset order and charges the same
probes, so its output is bit-identical to running ZeroRadius, publish and
Select subset by subset (property-tested against that loop, kept in the
tests as the reference).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ProtocolError
from repro.obs.runtime import traced
from repro.perf import packed_hamming
from repro.protocols.context import ProtocolContext
from repro.protocols.select import (
    draw_sample_positions,
    select_collective,
    select_per_player,
)
from repro.protocols.zero_radius import popular_vectors, zero_radius

__all__ = ["small_radius"]


def _block_words(bits: np.ndarray, widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pack contiguous column blocks of a 0/1 matrix into unsigned words.

    Block ``i`` is the next ``widths[i] >= 1`` columns of ``bits``; each of
    its rows becomes ``ceil(widths[i] / 64)`` words holding the block's
    columns in order, first column in the most significant bit.  A block of
    at most 64 columns is thus one word, the row read as a binary number, so
    numeric order on the words is lexicographic order on the rows; and the
    XOR popcount of two rows' words is their Hamming distance on the block.
    The words use the narrowest unsigned dtype holding ``min(64,
    max(widths))`` bits, so the same width set always gives the same dtype.
    Returns ``(words, starts)``: the ``(rows, n_words)`` word matrix and the
    index of each block's first word.
    """
    widths = np.asarray(widths, dtype=np.int64)
    dtype = np.min_scalar_type((1 << min(64, int(widths.max()))) - 1)
    offsets = np.concatenate(([0], np.cumsum(widths)))
    col_block = np.repeat(np.arange(widths.size), widths)
    position = np.arange(offsets[-1]) - offsets[col_block]
    shifts = (np.minimum(64, widths[col_block]) - 1 - (position & 63)).astype(np.uint64)
    weights = (np.uint64(1) << shifts).astype(dtype)
    words = np.add.reduceat(
        np.multiply(bits, weights, dtype=dtype),
        np.flatnonzero((position & 63) == 0),
        axis=1,
        dtype=dtype,
    )
    starts = np.concatenate(([0], np.cumsum((widths + 63) // 64)[:-1]))
    return words, starts


def _popular_vectors_blocks(
    published: np.ndarray, widths: np.ndarray, min_support: int
) -> list[np.ndarray]:
    """Per-block :func:`popular_vectors` over contiguous column blocks.

    ``published`` holds the concatenated base-subset columns; block ``i``
    occupies ``widths[i]`` columns.  Returns, per block, exactly
    ``popular_vectors(published[:, block], min_support)`` — same rows, same
    ascending-lexicographic order — but blocks of ≤ 64 bits (the common
    case: base subsets are small by construction) are resolved together:
    each block row becomes one word key (:func:`_block_words`), one sort
    orders every block's keys at once, and one run-length pass finds the
    rows with enough support.  Only blocks wider than 64 bits fall back to
    the per-block call.
    """
    n_players = published.shape[0]
    widths = np.asarray(widths, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(widths)))
    min_support = max(1, int(min_support))

    words, word_starts = _block_words(published, widths)
    # One key per block row: its first word, the whole row for blocks of
    # ≤ 64 bits.  Block-major, so each block's keys sort as one contiguous row.
    keys = words.T[word_starts]
    keys.sort(axis=1)
    flat = keys.ravel()
    is_start = np.empty(flat.size, dtype=bool)
    is_start[0] = True
    is_start[1:] = flat[1:] != flat[:-1]
    is_start[:: n_players] = True  # runs never cross block boundaries
    starts = np.flatnonzero(is_start)
    counts = np.diff(np.append(starts, flat.size))
    popular_starts = starts[counts >= min_support]
    popular_keys = flat[popular_starts]
    popular_block = popular_starts // n_players
    first = np.searchsorted(popular_block, np.arange(widths.size))
    last = np.searchsorted(popular_block, np.arange(widths.size), side="right")

    blocks: list[np.ndarray] = []
    for index, width in enumerate(widths):
        if width > 64:
            blocks.append(
                popular_vectors(
                    published[:, offsets[index] : offsets[index + 1]], min_support
                )
            )
            continue
        block_keys = popular_keys[first[index] : last[index]]
        bit_shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
        blocks.append(
            ((block_keys[:, None] >> bit_shifts[None, :]) & np.uint64(1)).astype(np.uint8)
        )
    return blocks


def _first_argmin(distances: np.ndarray, max_distance: int) -> np.ndarray:
    """``distances.argmin(axis=0)`` for distances in ``[0, max_distance]``.

    Each candidate's index is folded into its distance as ``distance · k +
    index`` (in the narrowest unsigned dtype holding the largest key), so
    the smallest key names the first closest candidate, as argmin does, and
    one min over the leading axis — a vectorised pass per candidate —
    replaces argmin's scan along a short axis for every element.
    """
    count = distances.shape[0]
    dtype = np.min_scalar_type((max_distance + 1) * count - 1)
    keys = distances.astype(dtype)
    keys *= dtype.type(count)
    keys += np.arange(count, dtype=dtype).reshape(count, *[1] * (keys.ndim - 1))
    return keys.min(axis=0) % count


@traced("small_radius")
def small_radius(
    ctx: ProtocolContext,
    players: np.ndarray,
    objects: np.ndarray,
    diameter: float,
    budget: int | None = None,
    channel: str = "small-radius",
) -> np.ndarray:
    """Run SmallRadius collectively for ``players`` over ``objects``.

    Parameters
    ----------
    ctx:
        Execution context.
    players:
        Global player indices.
    objects:
        Global object indices to be scored.
    diameter:
        The promised cluster diameter ``D`` (over ``objects``).
    budget:
        The budget ``B``; defaults to ``ctx.budget``.
    channel:
        Bulletin-board channel prefix.

    Returns
    -------
    numpy.ndarray
        ``estimates[i, j]`` — player ``players[i]``'s estimate of its
        preference for ``objects[j]``.
    """
    players = np.asarray(players, dtype=np.int64)
    objects = np.asarray(objects, dtype=np.int64)
    if players.size == 0 or objects.size == 0:
        return np.zeros((players.size, objects.size), dtype=np.uint8)
    if diameter < 0:
        raise ProtocolError(f"diameter must be non-negative, got {diameter}")
    budget = int(budget if budget is not None else ctx.budget)
    if budget <= 0:
        raise ProtocolError(f"budget must be positive, got {budget}")

    constants = ctx.constants
    repetitions = constants.small_radius_repetitions(ctx.n_players)
    zr_budget = constants.small_radius_budget_multiplier * budget
    min_support = max(
        1,
        int(np.floor(players.size / (constants.small_radius_popularity_divisor * budget))),
    )
    select_sample = constants.rselect_sample_size(ctx.n_players)

    repetition_candidates = np.empty(
        (players.size, repetitions, objects.size), dtype=np.uint8
    )
    object_order = np.argsort(objects, kind="stable")
    sorted_objects = objects[object_order]
    base_size = constants.zero_radius_base_size(ctx.n_players, zr_budget)
    for rep in range(repetitions):
        partitions = ctx.randomness.partition_objects(
            objects, constants.small_radius_partitions(diameter, objects.size)
        )
        partitions = [subset for subset in partitions if subset.size]
        assembled = np.empty((players.size, objects.size), dtype=np.uint8)
        # Mixed recursion: subsets that would hit ZeroRadius' base case (the
        # common regime — the partition count is Θ(D^1.5), so subsets are
        # small) share one probe block, one post per channel and one probe
        # block over their Select samples; subsets large enough to recurse
        # run inline, in partition order.
        is_base = [min(players.size, subset.size) < base_size for subset in partitions]
        _batched_base_repetition(
            ctx,
            players,
            partitions,
            is_base,
            zr_budget,
            object_order,
            sorted_objects,
            min_support,
            select_sample,
            assembled,
            channel,
        )
        repetition_candidates[:, rep, :] = assembled

    if repetitions == 1:
        return repetition_candidates[:, 0, :].copy()
    return select_per_player(
        ctx, players, objects, repetition_candidates, sample_size=select_sample
    )


def _batched_base_repetition(
    ctx: ProtocolContext,
    players: np.ndarray,
    partitions: list[np.ndarray],
    is_base: list[bool],
    zr_budget: float,
    object_order: np.ndarray,
    sorted_objects: np.ndarray,
    min_support: int,
    select_sample: int,
    assembled: np.ndarray,
    channel: str,
) -> np.ndarray:
    """One SmallRadius repetition with the base-case subsets batched.

    Performs the same probes, board writes, strategy calls and
    shared-randomness draws as running the per-subset loop, but bulks the
    base group: base-case subsets are disjoint, so their dense probe blocks
    concatenate into one call up front (a ZeroRadius base case consumes no
    shared randomness, so hoisting it cannot shift any draw), their reports
    land in one post per channel at the end, and their per-subset Select
    sample probes concatenate into one more call.  Subsets that recurse run
    the full ZeroRadius *inline at their partition position*.

    A pool with strategies is asked for each base subset's two report
    blocks (the ZeroRadius base report, then the publish) at that subset's
    position too, so strategies with per-instance state see the loop's
    calls in the loop's order.  A base subset's Select sample draw needs its
    candidate set, and so its published block: consecutive base subsets (a
    *run*) resolve together, before the next recursive subset draws, which
    keeps every shared-randomness draw in per-subset order (strategies never
    touch the shared randomness, so asking them before a run's draws is
    safe).  Results are written into ``assembled`` in place.
    """
    pool = ctx.pool
    base_subsets = [subset for subset, base in zip(partitions, is_base) if base]
    widths = np.asarray([subset.size for subset in base_subsets], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(widths)))
    if base_subsets:
        merged = np.concatenate(base_subsets)
        # ZeroRadius base case for every base subset at once.
        true_merged = ctx.oracle.probe_block(players, merged)
        # One lookup resolves every base subset's assembled columns; the walk
        # below only slices it.
        merged_cols = object_order[np.searchsorted(sorted_objects, merged)]
        # Read-only by contract: without strategies, reports and published
        # vectors are the true values verbatim.
        reported = published = true_merged
        if pool.has_strategies:
            reported = np.empty_like(true_merged)
            published = np.empty_like(true_merged)

    # Walk the partition in order.  Resolved base columns/values accumulate
    # and land in one scatter; base subsets whose Select needs probing
    # defer the probe (``pending``) to one block at the end.
    write_cols: list[np.ndarray] = []
    write_vals: list[np.ndarray] = []
    pending: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    run_start = 0

    def resolve_run(run_stop: int) -> None:
        """Candidate sets and Select draws of base subsets ``[run_start,
        run_stop)``, in partition order."""
        nonlocal run_start
        if run_stop == run_start:
            return
        run = slice(offsets[run_start], offsets[run_stop])
        run_candidates = _popular_vectors_blocks(
            published[:, run], widths[run_start:run_stop], min_support
        )
        for index, candidates in zip(range(run_start, run_stop), run_candidates):
            block = slice(offsets[index], offsets[index + 1])
            cols = merged_cols[block]
            if candidates.shape[0] == 0:
                # Off-promise input: no vector has enough support, so each
                # player keeps its own ZeroRadius estimate for this subset.
                write_cols.append(cols)
                write_vals.append(true_merged[:, block])
                continue
            if candidates.shape[0] == 1:
                # select_collective's single-candidate shortcut: no sample drawn.
                write_cols.append(cols)
                write_vals.append(np.broadcast_to(candidates[0], (players.size, cols.size)))
                continue
            subset = base_subsets[index]
            positions = draw_sample_positions(ctx, subset.size, select_sample)
            pending.append((subset[positions], cols, candidates, positions))
        run_start = run_stop

    base_index = 0
    for subset, base in zip(partitions, is_base):
        if not base:
            resolve_run(base_index)
            cols = object_order[np.searchsorted(sorted_objects, subset)]
            # Partitions cover disjoint objects and repetitions re-post over
            # a player's own cells, so a single pair of channels serves every
            # (repetition, partition) — keeping board memory independent of
            # the partition count.
            own_estimates = zero_radius(
                ctx, players, subset, zr_budget, channel=f"{channel}/zr"
            )
            packed = ctx.publish_vectors_packed(
                f"{channel}/pub", players, subset, own_estimates
            )
            candidates = popular_vectors(packed, min_support)
            if candidates.shape[0] == 0:
                assembled[:, cols] = own_estimates
                continue
            _, chosen = select_collective(
                ctx, players, subset, candidates, sample_size=select_sample
            )
            assembled[:, cols] = chosen
            continue
        if pool.has_strategies:
            block = slice(offsets[base_index], offsets[base_index + 1])
            true_block = true_merged[:, block]
            reported[:, block] = pool.reports_block(players, subset, true_block)
            published[:, block] = pool.reports_block(players, subset, true_block)
        base_index += 1
    resolve_run(base_index)
    if base_subsets:
        # The base subsets' posts, on the channels the per-subset loop uses.
        ctx.board.post_report_block(f"{channel}/zr/base", players, merged, reported)
        ctx.board.post_report_block(f"{channel}/pub", players, merged, published)

    if pending:
        # Final pass: one probe block over every deferred subset's sample.
        # One builder packs each subset's sample into words, for every
        # player row and every candidate row alike, and each (candidate
        # count, word count) group of subsets stacks into one (k, P, S)
        # packed argmin.
        sample_widths = np.asarray([positions.size for *_, positions in pending])
        counts = np.asarray([candidates.shape[0] for _, _, candidates, _ in pending])
        true_samples = ctx.oracle.probe_block(
            players, np.concatenate([sampled for sampled, *_ in pending])
        )
        true_words, true_starts = _block_words(true_samples, sample_widths)
        # One block per candidate row, of its subset's sample width: the
        # width set is the players', so the word dtype is too.
        cand_words, cand_starts = _block_words(
            np.concatenate(
                [candidates[:, positions].ravel() for _, _, candidates, positions in pending]
            )[None, :],
            np.repeat(sample_widths, counts),
        )
        cand_starts = cand_starts[np.cumsum(counts) - counts]
        groups: dict[tuple[int, int], list[int]] = {}
        n_words = (sample_widths + 63) // 64
        for index, key in enumerate(zip(counts.tolist(), n_words.tolist())):
            groups.setdefault(key, []).append(index)
        for (count, words), indices in groups.items():
            true_block = np.take(
                true_words, true_starts[indices][:, None] + np.arange(words), axis=1
            )  # (P, S, words), C-contiguous so its bytes view in place
            cand_block = cand_words[
                0,
                cand_starts[indices][None, :, None]
                + words * np.arange(count)[:, None, None]
                + np.arange(words),
            ]  # (k, S, words)
            disagreements = packed_hamming(
                cand_block.view(np.uint8)[:, None, :, :],
                true_block.view(np.uint8)[None, :, :, :],
            )  # (k, P, S)
            choices = _first_argmin(disagreements, int(sample_widths[indices].max()))
            for row, i in enumerate(indices):
                _, cols, candidates, _ = pending[i]
                write_cols.append(cols)
                write_vals.append(candidates[choices[:, row]])
    if write_cols:
        # All base-subset results land in one column scatter instead of one
        # strided write per subset.
        assembled[:, np.concatenate(write_cols)] = np.concatenate(write_vals, axis=1)
    return assembled
