"""Bit-packed binary-vector kernels: the simulator's performance core.

Every hot computation in the protocol stack is Hamming-distance-shaped: a
binary vector (a preference estimate, a published report row, a candidate)
is compared against many others and the number of disagreeing positions is
counted.  Dense ``uint8`` tensors for these comparisons — ``(P, k, s)``
broadcasts in Select, row-sorting ``np.unique`` in ZeroRadius — cap the
simulable instance size long before the algorithmic probe complexity does.

This module stores binary vectors **eight positions per byte**
(:func:`numpy.packbits`) and computes disagreement counts as XOR followed by
a population count, a machine word at a time: :func:`packed_hamming` views
the packed bytes as the narrowest unsigned word that holds them (8, 16, 32
or 64 bits) and accumulates per word, so no reduction runs over a short byte
axis.  The popcount uses :func:`numpy.bitwise_count` when the installed
NumPy provides it (>= 2.0) and a 256-entry lookup table otherwise, so the
kernels run everywhere the rest of the package does.  The all-pairs
neighbour test (:func:`pairwise_hamming`) accumulates per word the same way,
over a word-major layout, in pure integer arithmetic, and compares each
block of distances with its threshold in that narrow integer dtype.

All kernels are *bit-for-bit* equivalent to their unpacked references —
``tests/test_perf_kernels.py`` asserts exact equality on random instances,
including widths that are not multiples of eight (the pad bits of the last
byte are zero in both operands and therefore never contribute to an XOR
popcount, and never change lexicographic row order).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.errors import ProtocolError

__all__ = [
    "PackedBits",
    "pack_bits",
    "popcount",
    "bit_cover",
    "column_plan",
    "packed_hamming",
    "pairwise_hamming",
    "packed_masked_majority",
    "packed_pair_vote",
    "packed_scatter_columns",
    "packed_unique_rows",
]

#: Per-byte population counts, the fallback when ``np.bitwise_count`` is absent.
_POPCOUNT_LUT = (
    np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    .sum(axis=1)
    .astype(np.uint8)
)
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: Target scratch size (bytes) of one word's XOR block in the chunked
#: pairwise kernel: about a core's L2 cache, so the XOR, popcount and
#: accumulate passes over a chunk stay cache-resident.
_CHUNK_BYTES = 1 << 20

#: Most rows in one chunk of the pairwise kernel's triangle.  Short chunks
#: waste less of each chunk's corner below the diagonal, tall ones make
#: fewer NumPy calls; 64 timed best both on whole 1024-row stacks and on
#: the ~128-row groups the pivot bounds leave in the neighbour graph.
_CHUNK_ROWS = 64

#: Most pivots :func:`pairwise_hamming` places when bounding distances
#: before it counts them: each costs one distance pass over the rows.
_MAX_PIVOTS = 16


def popcount(values: np.ndarray) -> np.ndarray:
    """Per-byte population count of a ``uint8`` array.

    Uses the native ``np.bitwise_count`` ufunc when available, else a lookup
    table; both return ``uint8`` counts of the same shape as ``values``.
    """
    values = np.asarray(values, dtype=np.uint8)
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(values)
    return _POPCOUNT_LUT[values]


def _popcount_words(words: np.ndarray) -> np.ndarray:
    """Per-element population count of an unsigned-word array (``uint8``
    counts); the lookup-table fallback sums the counts of each word's bytes."""
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words)
    words = np.asarray(words)
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    return _POPCOUNT_LUT[as_bytes].reshape(*words.shape, words.itemsize).sum(
        axis=-1, dtype=np.uint8
    )


def _as_words(data: np.ndarray) -> np.ndarray:
    """View packed bytes as unsigned words along the last axis.

    A row of ``n`` bytes becomes one word of the narrowest width holding it
    (8, 16, 32 or 64 bits), or ``ceil(n / 8)`` 64-bit words beyond eight
    bytes.  Widths between word sizes are zero-padded, and zero pad bytes add
    nothing to an XOR popcount.  Only the grouping of bits into words
    changes, so the Hamming distance between two operands viewed alike is
    the distance between their packed rows.
    """
    n_bytes = data.shape[-1]
    itemsize = 8
    for candidate in (1, 2, 4):
        if n_bytes <= candidate:
            itemsize = candidate
            break
    pad = -n_bytes % itemsize
    if pad:
        data = np.concatenate(
            [data, np.zeros((*data.shape[:-1], pad), dtype=np.uint8)], axis=-1
        )
    if data.shape[-1] > 1 and data.strides[-1] != 1:
        # A word view needs the bytes of each row adjacent in memory.
        data = np.ascontiguousarray(data)
    return data.view(np.dtype(f"u{itemsize}"))


@dataclass(frozen=True)
class PackedBits:
    """A binary array packed eight positions per byte along its last axis.

    ``data`` has the same leading shape as the source array with the last
    axis shrunk to ``ceil(n_bits / 8)`` bytes; ``n_bits`` remembers the
    logical width so pad bits can be stripped on unpacking.
    """

    data: np.ndarray
    n_bits: int

    @property
    def n_bytes(self) -> int:
        """Packed width of the last axis in bytes."""
        return int(self.data.shape[-1])

    @property
    def shape(self) -> tuple[int, ...]:
        """Logical (unpacked) shape."""
        return (*self.data.shape[:-1], self.n_bits)

    def unpack(self) -> np.ndarray:
        """The original binary array (``uint8`` entries in ``{0, 1}``)."""
        if self.n_bits == 0:
            return np.zeros(self.shape, dtype=np.uint8)
        return np.unpackbits(self.data, axis=-1, count=self.n_bits)


def pack_bits(values: np.ndarray) -> PackedBits:
    """Pack a binary array along its last axis.

    ``values`` must contain only 0/1 entries (``uint8`` or bool); the final
    partial byte, if any, is padded with zero bits, which every kernel in
    this module is invariant to.
    """
    values = np.asarray(values, dtype=np.uint8)
    if values.ndim == 0:
        raise ProtocolError("pack_bits requires at least a 1-D array")
    return PackedBits(data=np.packbits(values, axis=-1), n_bits=int(values.shape[-1]))


def bit_cover(n_bits: int) -> np.ndarray:
    """Byte mask covering the first ``n_bits`` positions of a packed row.

    All bytes are ``0xFF`` except the last, whose trailing pad bits are zero
    (MSB-first packing).  ANDing with this mask clears pad bits, which keeps
    popcount-based reductions over packed rows exact for widths that are not
    multiples of eight.
    """
    if n_bits < 0:
        raise ProtocolError(f"n_bits must be non-negative, got {n_bits}")
    n_bytes = (n_bits + 7) // 8
    cover = np.full(n_bytes, 0xFF, dtype=np.uint8)
    tail = n_bits % 8
    if n_bytes and tail:
        cover[-1] = (0xFF << (8 - tail)) & 0xFF
    return cover


def column_plan(
    columns: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Byte-level access plan for a strictly increasing set of bit columns.

    Returns ``(touched, cover, weights, starts)``: the distinct byte indices
    the columns fall into, the per-touched-byte mask of covered bit
    positions, the per-column single-bit weight (``128 >> (column % 8)``)
    and the segment starts grouping columns by destination byte.  This is
    the shared front half of :func:`packed_scatter_columns`; callers that
    address the same column set repeatedly can compute it once.
    """
    columns = np.asarray(columns, dtype=np.int64)
    if columns.ndim != 1:
        raise ProtocolError(f"columns must be 1-D, got shape {columns.shape}")
    if columns.size and not np.all(columns[1:] > columns[:-1]):
        raise ProtocolError("columns must be strictly increasing")
    byte_idx = columns >> 3
    weights = np.uint8(128) >> (columns & 7).astype(np.uint8)
    if columns.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, np.zeros(0, dtype=np.uint8), weights, empty
    starts = np.flatnonzero(np.r_[True, byte_idx[1:] != byte_idx[:-1]])
    touched = byte_idx[starts]
    cover = np.add.reduceat(weights, starts).astype(np.uint8)
    return touched, cover, weights, starts


def packed_scatter_columns(
    dest: np.ndarray,
    columns: np.ndarray,
    bits: np.ndarray,
    rows: np.ndarray | None = None,
    plan: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> None:
    """Write bit columns into packed rows in place.

    ``dest`` is a packed ``uint8`` matrix (rows packed MSB-first along the
    last axis); after the call, bit ``columns[j]`` of destination row ``r``
    equals ``bits[r, j]``.  ``columns`` must be strictly increasing and
    ``bits`` must be 0/1.  Only the touched bytes are read-modified-written,
    so a scatter of ``m`` columns costs ``O(rows · m)`` byte ops with
    sequential access — no full-width traffic and no bool mask the size of
    the unpacked matrix.  ``rows`` restricts the write to a subset of
    destination rows (``bits`` then has one row per entry); ``plan`` reuses a
    precomputed :func:`column_plan` for repeated scatters to one column set.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    columns = np.asarray(columns, dtype=np.int64)
    if bits.ndim != 2 or bits.shape[1] != columns.size:
        raise ProtocolError(
            f"bits must have shape (rows, {columns.size}), got {bits.shape}"
        )
    if columns.size == 0:
        return
    touched, cover, weights, starts = plan if plan is not None else column_plan(columns)
    contrib = np.add.reduceat(bits * weights[None, :], starts, axis=1).astype(np.uint8)
    if rows is None:
        dest[:, touched] = (dest[:, touched] & ~cover) | contrib
    else:
        rows = np.asarray(rows, dtype=np.int64)
        sub = dest[rows[:, None], touched[None, :]]
        dest[rows[:, None], touched[None, :]] = (sub & ~cover) | contrib


def packed_masked_majority(
    values: PackedBits, posted: PackedBits
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row majority of value bits over the posted cells (ties go to 1).

    ``values`` and ``posted`` are packed stacks of the same logical shape;
    row ``r``'s majority counts only the positions whose ``posted`` bit is
    set (a bulletin-board row where not every player reported).  Returns
    ``(majority, support)``: the ``uint8`` majority per row (a row with no
    posted cell is a 0-0 tie and reads as 1) and the ``int64`` count of
    posted cells per row.  Everything is XOR/AND + popcount on the packed
    words — the dense equivalent is two full-size masked reductions.
    """
    if values.data.shape != posted.data.shape or values.n_bits != posted.n_bits:
        raise ProtocolError(
            "values and posted must share one packed shape, got "
            f"{values.data.shape}/{values.n_bits} vs {posted.data.shape}/{posted.n_bits}"
        )
    support = popcount(posted.data).sum(axis=-1, dtype=np.int64)
    likes = popcount(values.data & posted.data).sum(axis=-1, dtype=np.int64)
    majority = (2 * likes >= support).astype(np.uint8)
    return majority, support


def packed_hamming(a_data: np.ndarray, b_data: np.ndarray) -> np.ndarray:
    """Hamming distances between packed operands, broadcasting leading axes.

    ``a_data`` and ``b_data`` are packed ``uint8`` arrays (``PackedBits.data``)
    of the *same* logical width; the result drops the byte axis, e.g.
    ``(P, 1, nb) ^ (1, k, nb) -> (P, k)``, as ``int64``.  The byte axis is
    viewed as machine words (see :func:`_as_words`): rows of up to eight
    bytes cost one XOR and one popcount over the broadcast shape, and wider
    rows add one XOR + popcount per further 64-bit word into the running
    count, so no reduction ever runs over the short word axis.  Any
    contiguous unsigned words (a ``uint16`` key per row, say) can be passed
    as their byte view.
    """
    a_data = np.asarray(a_data, dtype=np.uint8)
    b_data = np.asarray(b_data, dtype=np.uint8)
    if a_data.shape[-1] != b_data.shape[-1]:
        raise ProtocolError(
            "packed operands disagree on byte width: "
            f"{a_data.shape[-1]} vs {b_data.shape[-1]}"
        )
    if a_data.shape[-1] == 0:
        return np.zeros(np.broadcast_shapes(a_data.shape[:-1], b_data.shape[:-1]), np.int64)
    a_words, b_words = _as_words(a_data), _as_words(b_data)
    distance = _popcount_words(a_words[..., 0] ^ b_words[..., 0]).astype(np.int64)
    for word in range(1, a_words.shape[-1]):
        distance += _popcount_words(a_words[..., word] ^ b_words[..., word])
    return distance


def _close_blocks(
    words: np.ndarray, n_rows: int, bound: np.integer
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Threshold test of word-major rows against the rows after them.

    ``words`` holds ``m`` rows word-major (``(n_words, m)``).  For each chunk
    ``[start, stop)`` of the first ``n_rows`` rows, yields ``(start, stop,
    close)`` where ``close[i, j]`` says whether rows ``start + i`` and
    ``start + j`` differ in at most ``bound`` positions: the upper block
    triangle, chunk by chunk.  The per-word popcounts accumulate in
    ``bound``'s dtype, which must hold the largest distance.  A chunk has
    at most ``_CHUNK_ROWS`` rows, and fewer when one word's XOR scratch
    would outgrow ``_CHUNK_BYTES``.
    """
    m = words.shape[1]
    chunk = max(1, min(_CHUNK_ROWS, _CHUNK_BYTES // max(1, m * words.itemsize)))
    for start in range(0, n_rows, chunk):
        stop = min(n_rows, start + chunk)
        block = np.zeros((stop - start, m - start), dtype=bound.dtype)
        for row in words:
            block += _popcount_words(row[start:stop, None] ^ row[None, start:])
        yield start, stop, block <= bound


def _separated_groups(
    rows: np.ndarray, limit: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Groups of rows whose pairs provably differ in more than ``limit``
    positions, or ``None`` when such groups would leave most pairs to count.

    ``rows`` holds ``n`` rows of unsigned words (see :func:`_as_words`).
    Hamming distance is a metric, so for any pivot row ``p``,
    ``d(i, j) >= |d(i, p) - d(j, p)|``.  Pivots are chosen farthest-first
    from row 0 (each next pivot is the first row farthest from every pivot
    so far) until every row lies within ``limit`` of one, or
    ``_MAX_PIVOTS`` are placed; each row joins its nearest pivot's group.
    Groups ``a`` and ``b`` are *apart* when some pivot's distances to every
    member of one exceed its distances to every member of the other by more
    than ``limit``: then no pair across them can be within ``limit``.

    Returns ``(order, edges, count)``: the rows sorted by group, the group
    boundaries in that order, and the ``(groups, groups)`` mask of group
    pairs that must still be counted.
    """
    n = rows.shape[0]
    pivot_distances = []
    group = np.zeros(n, dtype=np.int64)
    nearest = None
    pivot = 0
    while True:
        distance = _popcount_words(rows ^ rows[pivot]).sum(axis=1, dtype=np.int64)
        pivot_distances.append(distance)
        if nearest is None:
            nearest = distance
        else:
            closer = distance < nearest
            nearest = np.where(closer, distance, nearest)
            group[closer] = len(pivot_distances) - 1
        pivot = int(np.argmax(nearest))
        if nearest[pivot] <= limit or len(pivot_distances) == _MAX_PIVOTS:
            break
    if len(pivot_distances) == 1:
        return None  # one group: nothing to rule out
    # Every group holds its own pivot (distance 0), so none is empty.
    order = np.argsort(group, kind="stable")
    sizes = np.bincount(group)
    edges = np.concatenate(([0], np.cumsum(sizes)))
    by_group = np.stack(pivot_distances)[:, order]
    low = np.minimum.reduceat(by_group, edges[:-1], axis=1)  # (pivots, groups)
    high = np.maximum.reduceat(by_group, edges[:-1], axis=1)
    apart = (low[:, None, :] - high[:, :, None] > limit).any(axis=0)
    count = ~(apart | apart.T)
    if 2 * int(sizes @ count @ sizes) > n * n:
        return None
    return order, edges, count


def pairwise_hamming(packed: PackedBits, max_distance: float) -> np.ndarray:
    """Which pairs of a stack of packed rows differ in at most
    ``max_distance`` positions.

    ``packed`` holds ``n`` rows; returns the symmetric ``(n, n)`` boolean
    matrix whose ``[i, j]`` entry says whether rows ``i`` and ``j`` differ
    in at most ``max_distance`` positions (the diagonal included).
    Distances are exact integers, so a threshold that lands on a distance
    keeps that pair, a negative or NaN one keeps none, and one at or above
    the row width keeps every pair without counting.

    Rows are viewed as machine words (see :func:`_as_words`) and laid out
    word-major, so each word of a chunk of rows XORs against the same word
    of every later row in one contiguous outer operation.  The per-word
    popcounts accumulate in the narrowest unsigned integer holding the row
    width, and each chunk is compared with the threshold in that dtype, so
    no distance is ever widened.  Only the upper block triangle is computed
    — each chunk compares against the rows at or after its own start and
    the transpose fills the mirror half.

    Before counting, pivot bounds (see :func:`_separated_groups`) rule out
    whole groups of pairs that the triangle inequality proves are farther
    apart than the threshold; such pairs are written ``False`` uncounted,
    and each group is counted against itself and the groups not ruled out.
    Rows far apart in clusters, as the neighbour graph's estimates are
    (Lemma 7), leave a small share of pairs to count.  When the bounds
    leave most pairs, the rows are counted in their own order with no
    grouping; so are rows few enough that one word's XOR over every pair
    fits the ``_CHUNK_BYTES`` scratch budget, which a few cache-resident
    passes count faster than pivot passes could prune.
    """
    data = np.ascontiguousarray(packed.data)
    if data.ndim != 2:
        raise ProtocolError(f"pairwise_hamming requires 2-D rows, got shape {data.shape}")
    n, n_bytes = data.shape
    limit = np.floor(max_distance)
    if not limit >= 0:  # negative or NaN: no pair is that close
        return np.zeros((n, n), dtype=bool)
    if limit >= packed.n_bits:  # no pair differs in more positions than that
        return np.ones((n, n), dtype=bool)
    out = np.zeros((n, n), dtype=bool)
    rows = _as_words(data)  # (n, n_words)
    bound = np.min_scalar_type(8 * n_bytes).type(limit)  # holds the largest distance
    groups = _separated_groups(rows, limit) if n * n * rows.itemsize > _CHUNK_BYTES else None
    if groups is None:
        for start, stop, close in _close_blocks(np.ascontiguousarray(rows.T), n, bound):
            out[start:stop, start:] = close
            out[start:, start:stop] = close.T
        return out
    order, edges, count = groups
    cells = out.reshape(-1)
    for group in range(edges.size - 1):
        later = np.flatnonzero(count[group, group + 1 :]) + group + 1
        members = order[edges[group] : edges[group + 1]]
        index = np.concatenate(
            [members, *(order[edges[other] : edges[other + 1]] for other in later)]
        )
        words = np.ascontiguousarray(rows[index].T)
        for start, stop, close in _close_blocks(words, members.size, bound):
            near, far = index[start:stop], index[start:]
            # Flat offsets scatter faster than a broadcast pair of indices.
            cells[(near[:, None] * n + far).ravel()] = close.ravel()
            cells[(far[:, None] * n + near).ravel()] = close.T.ravel()
    return out


def packed_pair_vote(
    true_rows: np.ndarray,
    a_rows: np.ndarray,
    b_rows: np.ndarray,
    lengths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row agreement counts of probed values against two candidate rows.

    The operands are 0/1 matrices of shape ``(r, max_len)`` where row ``i``
    is meaningful only on its first ``lengths[i]`` columns and **must be
    zero-padded** beyond (in all three operands).  ``true_rows`` may also be
    an already-packed :class:`PackedBits` of that logical shape (as returned
    by ``ProbeOracle.probe_ragged(..., packed=True)``), in which case it is
    consumed without a repack.  Returns ``(agree_a,
    agree_b)`` ``int64`` arrays: on how many of its meaningful columns row
    ``i`` of ``true_rows`` equals the corresponding candidate row.

    Because the pad columns are zero everywhere they never disagree, so the
    agreement is ``lengths − packed_hamming(true, cand)`` — one XOR+popcount
    per candidate over byte-packed rows instead of two dense ``==`` +
    reduction broadcasts.  This is the vote kernel of the collective RSelect
    tournament, where the rows are the ragged per-player probe samples of one
    candidate-pair round.
    """
    if isinstance(true_rows, PackedBits):
        true_packed = true_rows
    else:
        true_packed = pack_bits(np.asarray(true_rows, dtype=np.uint8))
    a_rows = np.asarray(a_rows, dtype=np.uint8)
    b_rows = np.asarray(b_rows, dtype=np.uint8)
    lengths = np.asarray(lengths, dtype=np.int64)
    shape = true_packed.shape
    if len(shape) != 2 or shape != a_rows.shape or shape != b_rows.shape:
        raise ProtocolError(
            "packed_pair_vote operands must share one 2-D shape, got "
            f"{shape}, {a_rows.shape}, {b_rows.shape}"
        )
    if lengths.shape != (shape[0],):
        raise ProtocolError(
            f"lengths must have shape ({shape[0]},), got {lengths.shape}"
        )
    if np.any(lengths < 0) or np.any(lengths > shape[1]):
        raise ProtocolError("lengths must lie in [0, max_len]")
    agree_a = lengths - packed_hamming(true_packed.data, pack_bits(a_rows).data)
    agree_b = lengths - packed_hamming(true_packed.data, pack_bits(b_rows).data)
    return agree_a, agree_b


def packed_unique_rows(
    values: np.ndarray | PackedBits,
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a binary matrix with their multiplicities.

    Bit-identical to ``np.unique(values, axis=0, return_counts=True)`` for
    0/1 matrices — rows come back in ascending lexicographic order — but
    sorts packed byte strings instead of full ``uint8`` rows, which is the
    difference between ZeroRadius spending half its time in ``np.unique``
    and it disappearing from the profile.  (MSB-first packing preserves the
    lexicographic order of binary rows, and the zero pad bits only break
    ties between rows that are already equal.)  A :class:`PackedBits` input
    — e.g. a published block straight off the packed dataflow — is consumed
    without re-packing.
    """
    if isinstance(values, PackedBits):
        if values.data.ndim != 2:
            raise ProtocolError(
                f"packed_unique_rows requires 2-D rows, got {values.data.shape}"
            )
        n, width = values.shape
        if n == 0:
            return np.zeros((0, width), dtype=np.uint8), np.zeros(0, dtype=np.int64)
        if width == 0:
            return np.zeros((1, 0), dtype=np.uint8), np.asarray([n], dtype=np.int64)
        return _packed_unique_core(np.ascontiguousarray(values.data), None, width)
    values = np.asarray(values, dtype=np.uint8)
    if values.ndim != 2:
        raise ProtocolError(f"packed_unique_rows requires a 2-D matrix, got {values.shape}")
    n, width = values.shape
    if n == 0:
        return values.copy(), np.zeros(0, dtype=np.int64)
    if width == 0:
        return np.zeros((1, 0), dtype=np.uint8), np.asarray([n], dtype=np.int64)
    packed = np.ascontiguousarray(np.packbits(values, axis=1))
    return _packed_unique_core(packed, values, width)


def _packed_unique_core(
    packed: np.ndarray, values: np.ndarray | None, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Shared body of :func:`packed_unique_rows` over pre-packed rows."""
    n = packed.shape[0]
    n_bytes = packed.shape[1]
    if n_bytes <= 8:
        # Narrow rows fit one big-endian uint64 per row; numeric order on the
        # assembled keys equals lexicographic order on the packed bytes, and
        # integer unique is much faster than sorting void records.  The
        # unique rows are rebuilt from the keys themselves, avoiding the
        # argsort a return_index lookup would cost.
        keys = np.zeros(n, dtype=np.uint64)
        for column in range(n_bytes):
            keys = (keys << np.uint64(8)) | packed[:, column].astype(np.uint64)
        unique_keys, counts = np.unique(keys, return_counts=True)
        shifts = (np.uint64(8) * np.arange(n_bytes - 1, -1, -1, dtype=np.uint64))[None, :]
        unique_packed = (
            (unique_keys[:, None] >> shifts) & np.uint64(0xFF)
        ).astype(np.uint8)
        rows = np.unpackbits(unique_packed, axis=1, count=width)
        return rows, counts.astype(np.int64)
    as_items = packed.view([("row", np.void, n_bytes)]).ravel()
    _, first_index, counts = np.unique(as_items, return_index=True, return_counts=True)
    if values is None:
        rows = np.unpackbits(packed[first_index], axis=1, count=width)
        return rows, counts.astype(np.int64)
    return values[first_index], counts.astype(np.int64)
