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
dishonest players take the same path: a report depends only on its cell
and its channel, so the pool is asked once per channel per repetition for
every base subset's reports.  The batched repetition consumes the shared
randomness in exactly the per-subset order and charges the same probes, so
its output is bit-identical to running ZeroRadius, publish and Select
subset by subset (property-tested against that loop, kept in the tests as
the reference).

The base group is **object-major** from the probe to the result, the
layout of the oracle's observed matrix and of the board: players sit on
the contiguous axis, so one vector operation advances every player at once
(the vertical layout of bit-sliced scans).  The probe block arrives as
object rows and packs once per repetition into every player's words by
shift-or (:func:`_block_words`): one word per subset of at most 64
objects.  The popular vectors are found and kept as words of the published
block — the same words when nothing was misreported.  The repetition result starts as
every player's true rows, the ZeroRadius base estimate, and Select resolves
each subset with candidates on one of two routes:

* **by word** (:func:`_select_by_word`), for a subset whose Select sample
  is the whole subset (no draw) and whose keys fit one word — nearly every
  subset, since base subsets are small.  Select's sample words are then the
  players' base words and the candidates' keys, and popular keys are
  distinct, so a player whose word is a candidate is at distance 0 from
  that key alone and keeps its true rows.  Only the other players count
  distances; each takes the first nearest key in ascending key order, and
  only the bits where it differs are flipped;
* **sampled** (:func:`_deferred_select`), for a subset that drew a sample
  or has keys wider than 64 bits: sample words are packed from the Select
  probe block and cut from the keys, and each player's chosen key unpacks
  into the subset's rows.

Select's probe block covers every subset with two or more candidates,
whichever route resolves it, so probes and requests are the per-subset
loop's on both routes.

The repetitions stay object-major to the end: each is written in place
into one ``(repetitions, n_objects, n_players)`` array, step 4's Select
(:func:`~repro.protocols.select.select_per_player`) reads that array and
merges each player's chosen repetition with one masked XOR pass per chosen
repetition, and the result turns player-major once, in one blocked
transpose.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ProtocolError
from repro.obs.runtime import traced
from repro.perf.bitset import _popcount_words, _transpose
from repro.protocols.context import ProtocolContext
from repro.protocols.select import (
    draw_sample_positions,
    select_collective,
    select_per_player,
)
from repro.protocols.zero_radius import popular_vectors, zero_radius

__all__ = ["small_radius"]


def _block_words(rows: np.ndarray, widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pack contiguous row blocks of an object-major 0/1 matrix into words.

    ``rows`` holds one bit position per row (an object) and one column per
    player, the oracle's and the board's orientation; block ``i`` is the
    next ``widths[i] >= 1`` rows.  Each column of a block becomes
    ``ceil(widths[i] / 64)`` words holding the block's rows in order, first
    row in the most significant bit.  A block of at most 64 rows is thus one
    word per column, the column read as a binary number, so numeric order on
    the words is lexicographic order on the block's columns; and the XOR
    popcount of two columns' words is their Hamming distance on the block.
    Wider blocks fill 64-bit words in turn, the last one left-aligned.  The
    words use the narrowest unsigned dtype holding ``min(64, max(widths))``
    bits, so the same width set always gives the same dtype.

    The words are built by shift-or over in-block bit positions: step ``t``
    shifts row ``t`` of every word that long into place and ORs it in, one
    vector operation across every column of those words, so a call takes at
    most 64 steps however many blocks and columns it packs.  Returns
    ``(words, starts)``: the ``(n_words, columns)`` word matrix and the
    index of each block's first word.
    """
    widths = np.asarray(widths, dtype=np.int64)
    dtype = np.min_scalar_type((1 << min(64, int(widths.max()))) - 1)
    n_words = (widths + 63) // 64
    starts = np.concatenate(([0], np.cumsum(n_words)[:-1]))
    # Per word: its first row, its bit count and the shift of its first bit.
    block = np.repeat(np.arange(widths.size), n_words)
    bit_offset = 64 * (np.arange(block.size) - starts[block])
    first = np.concatenate(([0], np.cumsum(widths)[:-1]))[block] + bit_offset
    length = np.minimum(64, widths[block] - bit_offset)
    top = np.minimum(64, widths[block]) - 1
    # Longest words first, so the words still taking bits at step t are a
    # prefix: ``active[t]`` of them are longer than t.
    order = np.argsort(-length, kind="stable")
    first, length, top = first[order], length[order], top[order]
    active = np.searchsorted(-length, -np.arange(length[0]))
    packed = np.zeros((block.size, rows.shape[1]), dtype=dtype)
    for step, count in enumerate(active.tolist()):
        shifts = (top[:count] - step).astype(dtype)[:, None]
        packed[:count] |= np.left_shift(rows[first[:count] + step], shifts, dtype=dtype)
    words = np.empty_like(packed)
    words[order] = packed
    return words, starts


def _bit_location(widths: np.ndarray, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where :func:`_block_words` puts bit ``positions`` of blocks of ``widths`` bits.

    Returns ``(word, shift)``: the index of the word within its block's
    words, and the bit's left shift within that word (first bit most
    significant, the last word of a wider block left-aligned).
    """
    return positions >> 6, np.minimum(64, widths) - 1 - (positions & 63)


def _popular_vectors_blocks(
    published: np.ndarray, words: np.ndarray, widths: np.ndarray, min_support: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-block :func:`popular_vectors` over contiguous row blocks, as words.

    ``published`` holds the concatenated base-subset rows, object-major (one
    row per object, one column per player); block ``i`` occupies
    ``widths[i]`` rows.  ``words`` holds the values of the
    :func:`_block_words` words of those blocks, in any unsigned dtype wide
    enough (the caller may already have packed the same rows).  Block
    ``i``'s popular vectors are exactly ``popular_vectors(published[block].T,
    min_support)`` — same vectors, same ascending-lexicographic order — each
    encoded as its :func:`_block_words` key of ``ceil(widths[i] / 64)``
    words.  Returns ``(keys, counts)``: every block's keys, flat in block,
    vector, word order, and the number of popular vectors per block.  Blocks
    of ≤ 64 bits (the common case: base subsets are small by construction)
    are resolved together in word space: one sort orders every block's keys
    at once, and one run-length pass finds the keys with enough support.
    Only blocks wider than 64 bits go through :func:`popular_vectors`.
    """
    n_players = published.shape[1]
    widths = np.asarray(widths, dtype=np.int64)
    min_support = max(1, int(min_support))

    word_starts = np.concatenate(([0], np.cumsum((widths + 63) // 64)[:-1]))
    # One key per (block, player): its first word, the whole column for
    # blocks of ≤ 64 bits.  Block-major, so each block's keys sort as a row.
    keys = words[word_starts]
    # NumPy radix-sorts one-byte keys under kind="stable"; its default
    # introsort is an order of magnitude slower on them.
    keys.sort(axis=1, kind="stable" if keys.itemsize == 1 else None)
    flat = keys.ravel()
    is_start = np.empty(flat.size, dtype=bool)
    is_start[0] = True
    is_start[1:] = flat[1:] != flat[:-1]
    is_start[:: n_players] = True  # runs never cross block boundaries
    starts = np.flatnonzero(is_start)
    run_lengths = np.diff(np.append(starts, flat.size))
    popular = starts[run_lengths >= min_support]
    popular_block = popular // n_players
    narrow = widths[popular_block] <= 64
    popular, popular_block = popular[narrow], popular_block[narrow]
    counts = np.bincount(popular_block, minlength=widths.size)
    wide = np.flatnonzero(widths > 64)
    if not wide.size:
        return flat[popular], counts

    offsets = np.concatenate(([0], np.cumsum(widths)))
    wide_keys = []
    for index in wide:
        vectors = popular_vectors(published[offsets[index] : offsets[index + 1]].T, min_support)
        counts[index] = vectors.shape[0]
        wide_keys.append(_block_words(vectors.T, widths[index : index + 1])[0].T.ravel())
    key_starts = np.concatenate(([0], np.cumsum(counts * ((widths + 63) // 64))))
    out = np.empty(key_starts[-1], dtype=words.dtype)
    rank = np.arange(popular.size) - np.searchsorted(popular_block, popular_block)
    out[key_starts[popular_block] + rank] = flat[popular]
    for index, block_keys in zip(wide, wide_keys):
        out[key_starts[index] : key_starts[index + 1]] = block_keys
    return out, counts


def _sample_distances(
    cand_block: np.ndarray, true_block: np.ndarray, max_distance: int
) -> np.ndarray:
    """``(k, S, P)`` disagreement counts between sample words.

    ``cand_block`` holds ``(k, S, W)`` candidate words and ``true_block``
    ``(S, W, P)`` player words of one unsigned dtype.  Each word's XOR
    popcount adds into the narrowest unsigned dtype holding
    ``max_distance`` (the widest sample), the range :func:`_first_argmin`
    works in, so no ``int64`` count is written only to be narrowed again.
    """
    distances = _popcount_words(
        cand_block[:, :, 0, None] ^ true_block[None, :, 0, :]
    ).astype(np.min_scalar_type(max_distance), copy=False)
    for word in range(1, cand_block.shape[-1]):
        distances += _popcount_words(cand_block[:, :, word, None] ^ true_block[None, :, word, :])
    return distances


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

    # Object-major repetitions: row j of repetition r holds every player's
    # estimate for objects[j], the layout the base group writes and Select
    # reads.
    repetition_candidates = np.empty(
        (repetitions, objects.size, players.size), dtype=np.uint8
    )
    object_order = np.argsort(objects, kind="stable")
    sorted_objects = objects[object_order]
    base_size = constants.zero_radius_base_size(ctx.n_players, zr_budget)
    for rep in range(repetitions):
        partitions = ctx.randomness.partition_objects(
            objects, constants.small_radius_partitions(diameter, objects.size)
        )
        partitions = [subset for subset in partitions if subset.size]
        assembled = repetition_candidates[rep]
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

    chosen = repetition_candidates[0]
    if repetitions > 1:
        chosen = select_per_player(
            ctx, players, objects, repetition_candidates, sample_size=select_sample
        )
    return _transpose(chosen)


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
) -> None:
    """One SmallRadius repetition with the base-case subsets batched.

    Performs the same probes, board writes and shared-randomness draws as
    running the per-subset loop, and posts the same reports, but bulks the
    base group: base-case subsets are disjoint, so their dense probe blocks
    concatenate into one call up front (a ZeroRadius base case consumes no
    shared randomness, so hoisting it cannot shift any draw), their reports
    land in one post per channel at the end, and their per-subset Select
    sample probes concatenate into one more call.  Subsets that recurse run
    the full ZeroRadius *inline at their partition position*.

    The pool is asked once per channel, before the walk, for every base
    subset's reports: the ZeroRadius base report, then the publish.  A
    report depends only on its cell and its channel, so each merged block
    holds the values the per-subset loop posts subset by subset, and since
    strategies never touch the shared randomness the early calls move no
    draw.  A base subset's Select sample draw needs its candidate set, and
    so its published block: consecutive base subsets (a *run*) resolve
    together, before the next recursive subset draws, which keeps every
    shared-randomness draw in per-subset order.

    The base group stays object-major from probe to result: the probe
    block arrives as object rows and packs once into every player's
    :func:`_block_words` words per subset, and candidate sets are keys in
    the same layout.  Every base subset's rows of ``assembled``
    (object-major: row ``j`` holds every player's estimate for
    ``objects[j]``) start as the players' true rows, the ZeroRadius base
    estimate, and Select then takes one of two routes per subset with
    candidates:

    * **by word** (:func:`_select_by_word`), when the Select sample is the
      whole subset and the keys fit one word — nearly every subset, since
      base subsets are small.  The sample words are then the base words and
      the candidates' keys, so a player whose word is a candidate keeps its
      true rows, and only the others' rows are rewritten;
    * **sampled** (:func:`_deferred_select`), when the subset drew a sample
      or its keys are wider than 64 bits: the sample words are packed from
      the Select probe block, and each player's chosen key unpacks into the
      subset's rows.

    Either way the Select probes of every subset with two or more
    candidates are issued as one block, as the per-subset loop issues them.
    """
    base_channel, pub_channel = f"{channel}/zr/base", f"{channel}/pub"
    base_subsets = [subset for subset, base in zip(partitions, is_base) if base]
    widths = np.asarray([subset.size for subset in base_subsets], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(widths)))
    if base_subsets:
        merged = np.concatenate(base_subsets)
        # ZeroRadius base case for every base subset at once, as object rows.
        true_rows = ctx.oracle.probe_block(players, merged).T
        # Every player's true words on every base subset: Select's word
        # route reads them, and so does the popularity pass whenever the
        # published block is the true block.
        true_words, word_starts = _block_words(true_rows, widths)
        word_offsets = np.append(word_starts, true_words.shape[0])
        # One lookup resolves every base subset's rows of ``assembled``.
        merged_rows = object_order[np.searchsorted(sorted_objects, merged)]
        # Read-only by contract: without strategies, reports and published
        # vectors are the true values verbatim.
        reported = published = true_rows
        if ctx.pool.has_strategies:
            # One call per channel answers every base subset.
            reported = ctx.pool.reports_block(base_channel, players, merged, true_rows.T).T
            published = np.ascontiguousarray(
                ctx.pool.reports_block(pub_channel, players, merged, true_rows.T).T
            )

    # Walk the partition in order.  Each resolved run contributes its
    # popular keys and per-subset counts; a Select whose sample is smaller
    # than its subset draws its positions here, in partition order.
    key_parts: list[np.ndarray] = []
    count_parts: list[np.ndarray] = []
    draws: dict[int, np.ndarray] = {}
    run_start = 0

    def resolve_run(run_stop: int) -> None:
        """Candidate sets and Select draws of base subsets ``[run_start,
        run_stop)``, in partition order."""
        nonlocal run_start
        if run_stop == run_start:
            return
        block = slice(offsets[run_start], offsets[run_stop])
        run_widths = widths[run_start:run_stop]
        if published is true_rows:
            words = true_words[word_offsets[run_start] : word_offsets[run_stop]]
        else:
            words = _block_words(published[block], run_widths)[0]
        keys, counts = _popular_vectors_blocks(published[block], words, run_widths, min_support)
        key_parts.append(keys)
        count_parts.append(counts)
        # No candidates: the subset keeps its ZeroRadius estimate; one:
        # select_collective's single-candidate shortcut.  Neither draws.
        drawing = (counts >= 2) & (run_widths > select_sample)
        for index in run_start + np.flatnonzero(drawing):
            draws[int(index)] = draw_sample_positions(ctx, int(widths[index]), select_sample)
        run_start = run_stop

    base_index = 0
    for subset, base in zip(partitions, is_base):
        if not base:
            resolve_run(base_index)
            rows = object_order[np.searchsorted(sorted_objects, subset)]
            # Partitions cover disjoint objects and repetitions re-post over
            # a player's own cells, so a single pair of channels serves every
            # (repetition, partition) — keeping board memory independent of
            # the partition count.
            own_estimates = zero_radius(
                ctx, players, subset, zr_budget, channel=f"{channel}/zr"
            )
            packed = ctx.publish_vectors_packed(
                pub_channel, players, subset, own_estimates
            )
            candidates = popular_vectors(packed, min_support)
            if candidates.shape[0] == 0:
                assembled[rows] = own_estimates.T
                continue
            _, chosen = select_collective(
                ctx, players, subset, candidates, sample_size=select_sample
            )
            assembled[rows] = chosen.T
            continue
        base_index += 1
    resolve_run(base_index)
    if not base_subsets:
        return
    # The base subsets' posts, on the channels the per-subset loop uses.
    ctx.board.post_report_block(base_channel, players, merged, reported.T)
    ctx.board.post_report_block(pub_channel, players, merged, published.T)

    keys = np.concatenate(key_parts)
    counts = np.concatenate(count_parts)
    key_words = (widths + 63) // 64
    key_starts = np.concatenate(([0], np.cumsum(counts * key_words)[:-1]))
    # Every base subset's rows start as its ZeroRadius estimate, the true
    # rows: final when no vector had enough support (an off-promise input).
    assembled[merged_rows] = true_rows
    drawn = np.zeros(widths.size, dtype=bool)
    drawn[np.fromiter(draws, dtype=np.int64, count=len(draws))] = True
    by_word = (counts > 0) & (key_words == 1) & ~drawn
    sampled = np.flatnonzero((counts > 0) & ~by_word)
    # Each sampled-route player's candidate: the only one, or its Select
    # choice.
    choices = np.zeros((sampled.size, players.size), dtype=np.int64)
    pending = np.flatnonzero(counts >= 2)
    if pending.size:
        choices[counts[sampled] >= 2] = _deferred_select(
            ctx, players, merged, offsets, pending, ~by_word[pending], draws, select_sample,
            keys, key_starts, counts,
        )
    if by_word.any():
        route = np.flatnonzero(by_word)
        _select_by_word(
            np.take(true_words, word_starts[route], axis=0), keys, key_starts[route],
            counts[route], offsets[route + 1], merged_rows, assembled,
        )
    if not sampled.size:
        return

    # Row ``chosen_starts[i] + w`` of ``chosen`` is word w of every player's
    # chosen key for sampled subset i.
    words = key_words[sampled]
    chosen_starts = np.concatenate(([0], np.cumsum(words)[:-1]))
    chosen = np.empty((int(words.sum()), players.size), dtype=keys.dtype)
    choices *= words[:, None]
    subsets, rows = sampled, chosen_starts
    for word in range(int(words.max())):
        longer = np.flatnonzero(words > word)  # only keys wider than 64 bits
        if longer.size < subsets.size:
            subsets, rows, words, choices = (
                subsets[longer], rows[longer], words[longer], choices[longer]
            )
        chosen[rows + word] = keys[np.add(choices, (key_starts[subsets] + word)[:, None])]

    # Each sampled subset's rows: its players' chosen keys, unpacked.
    spans = widths[sampled]
    position = np.arange(spans.sum()) - np.repeat(np.cumsum(spans) - spans, spans)
    word, shifts = _bit_location(np.repeat(spans, spans), position)
    bits = chosen[np.repeat(chosen_starts, spans) + word]
    np.right_shift(bits, shifts.astype(bits.dtype)[:, None], out=bits)
    bits &= 1
    assembled[merged_rows[np.repeat(offsets[sampled], spans) + position]] = bits


def _select_by_word(
    true_words: np.ndarray,
    keys: np.ndarray,
    key_starts: np.ndarray,
    counts: np.ndarray,
    ends: np.ndarray,
    merged_rows: np.ndarray,
    assembled: np.ndarray,
) -> None:
    """Select by word for base subsets whose sample is the whole subset.

    For each such subset ``i`` of at most 64 objects, row ``i`` of
    ``true_words`` holds every player's true word, and ``keys[key_starts[i]
    :][: counts[i]]`` its ``counts[i] >= 1`` candidate keys in ascending
    order.  Its objects are those before ``ends[i]`` in the merged base
    block, whose rows of ``assembled`` (C-ordered, one column per player)
    ``merged_rows`` names; they already hold the players' true rows.

    This is exactly Select on the whole subset.  A player's sample word is
    its base word and a candidate's is its key, so the sample distances are
    the XOR popcounts of words.  Popular keys are distinct, so a player whose
    word is a candidate is at distance 0 from that one key alone; the first
    argmin picks it, and its unpacked key is the player's true rows, already
    in place.  Only the other players' distances are counted: each takes the
    first key at minimum distance in ascending key order (``argmin``, as
    :func:`_first_argmin`), and only the bits where that key differs from
    its word are flipped.  A single candidate needs no sample and is every
    player's choice, which the same pass writes.
    """
    n_players = true_words.shape[1]
    slots = np.arange(int(counts.max()))
    # Keys padded with copies of each subset's first key: a copy ties with
    # its original and comes later, so it never wins the first argmin.
    candidates = keys[
        key_starts[:, None] + np.where(slots < counts[:, None], slots, 0)
    ].astype(true_words.dtype, copy=False)  # (S, k)
    own = true_words == candidates[:, :1]
    for slot in slots[1:]:
        own |= true_words == candidates[:, slot, None]
    miss = np.flatnonzero(~own)
    if not miss.size:
        return
    subset, player = np.divmod(miss, n_players)
    word = true_words.reshape(-1)[miss]
    differing = np.take(candidates, subset, axis=0) ^ word[:, None]  # (M, k)
    nearest = _popcount_words(differing).argmin(axis=1)
    flips = differing[np.arange(miss.size), nearest]
    # Bit b of a subset's word is its object b + 1 from the end (first
    # object most significant).  Flip the set bits lowest first, dropping
    # each player once its bits are done.
    last = ends[subset] - 1
    cells = assembled.reshape(-1)
    one = flips.dtype.type(1)
    while flips.size:
        bit = _popcount_words(flips ^ (flips - one)) - 1  # the lowest set bit
        cells[merged_rows[last - bit] * n_players + player] ^= 1
        flips &= flips - one
        left = np.flatnonzero(flips)
        flips, last, player = flips[left], last[left], player[left]


def _deferred_select(
    ctx: ProtocolContext,
    players: np.ndarray,
    merged: np.ndarray,
    offsets: np.ndarray,
    pending: np.ndarray,
    sampled: np.ndarray,
    draws: dict[int, np.ndarray],
    select_sample: int,
    keys: np.ndarray,
    key_starts: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    """Select's probes for every base subset with two or more candidates,
    and the sampled route's choices.

    ``pending`` lists those subsets (blocks of ``merged`` between
    ``offsets``); ``draws`` holds the sample positions drawn for those whose
    sample is smaller than the subset, and ``keys`` from ``key_starts`` the
    ``counts`` candidate keys of each.  One probe block covers every pending
    subset's sample, whichever route resolves it, so the probes are the
    per-subset loop's.  The subsets flagged in ``sampled`` (a drawn sample,
    or keys wider than 64 bits) Select on that block here.  One builder,
    :func:`_block_words`, packs each such subset's sample into words for the
    players (from the probe block's object rows) and for the candidates
    (from the sampled bits of their keys), so both sides share one word
    layout and dtype, and each (candidate count, sample word count) group of
    subsets stacks into one ``(k, S, P)`` :func:`_sample_distances` pass,
    counted in the narrow dtype :func:`_first_argmin` keys in, and one
    :func:`_first_argmin`.  Returns each player's choice per sampled subset,
    ``(sampled.sum(), P)``.
    """
    widths = np.diff(offsets)
    sample_widths = np.minimum(widths[pending], select_sample)
    width = int(sample_widths.max())
    positions = np.broadcast_to(np.arange(width), (pending.size, width)).copy()
    if draws:
        positions[np.searchsorted(pending, list(draws))] = np.stack(list(draws.values()))
    in_sample = np.arange(width) < sample_widths[:, None]
    sample_rows = ctx.oracle.probe_block(
        players, merged[(offsets[pending][:, None] + positions)[in_sample]]
    ).T
    if not sampled.any():
        return np.empty((0, players.size), dtype=np.int64)
    sample_rows = sample_rows[np.repeat(sampled, sample_widths)]
    pending, sample_widths = pending[sampled], sample_widths[sampled]
    positions, in_sample = positions[sampled], in_sample[sampled]
    true_words, true_starts = _block_words(sample_rows, sample_widths)

    # Every candidate's sampled key bits, candidate after candidate: bit j
    # of candidate c of pending subset i is bit ``positions[i, j]`` of its
    # key, for the ``sample_widths[i]`` positions in the sample.
    n_candidates = counts[pending]
    cand_first = np.concatenate(([0], np.cumsum(n_candidates)[:-1]))
    owner = np.repeat(np.arange(pending.size), n_candidates)
    subset = pending[owner]
    rank = np.arange(owner.size) - cand_first[owner]
    key_base = key_starts[subset] + rank * ((widths[subset] + 63) // 64)
    cand_widths = sample_widths[owner]
    word, shift = _bit_location(
        np.repeat(widths[subset], cand_widths), positions[owner][in_sample[owner]]
    )
    bits = (keys[np.repeat(key_base, cand_widths) + word] >> shift.astype(keys.dtype)) & 1
    cand_words, cand_starts = _block_words(bits.astype(np.uint8)[:, None], cand_widths)

    sample_words = (sample_widths + 63) // 64
    choices = np.empty((pending.size, players.size), dtype=np.int64)
    groups, group_of = np.unique(
        n_candidates * (int(sample_words.max()) + 1) + sample_words, return_inverse=True
    )
    for group in range(groups.size):
        rows = np.flatnonzero(group_of == group)
        count, words = int(n_candidates[rows[0]]), int(sample_words[rows[0]])
        true_block = true_words[true_starts[rows][:, None] + np.arange(words)]  # (S, words, P)
        cand_block = cand_words[
            cand_starts[cand_first[rows][None, :] + np.arange(count)[:, None]][..., None]
            + np.arange(words),
            0,
        ]  # (k, S, words)
        max_distance = int(sample_widths[rows].max())
        choices[rows] = _first_argmin(
            _sample_distances(cand_block, true_block, max_distance), max_distance
        )
    return choices
