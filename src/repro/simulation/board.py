"""Public bulletin board (shared memory) used by all protocols.

The paper (§2) models communication as a public bulletin board: every player
can post the result of its probes and read everything posted by others.  Two
properties matter for the proofs and are enforced here:

* **Attribution** — every entry records which player posted it, so readers
  can count how many *distinct* players support a value.
* **Integrity** — an entry, once posted, cannot be modified by a different
  player (a dishonest player cannot tamper with honest posts).  Re-posting
  by the same owner is allowed and simply overwrites its own entry.

Entries are organised into named *channels* (one per protocol phase), and
each channel holds either scalar posts (e.g. a leader's published random
seed) or per-(player, object) probe reports.

Report channels are stored **bit-packed**: one packed row per *object*,
eight players per byte (``repro.perf.bitset`` words), with a parallel packed
posted-mask.  The object-major orientation matches the write pattern of the
collective protocols — a phase posts a full-player block over a column
subset, which lands as contiguous packed rows — and the read pattern of the
board-side reductions (``reporters_of``, ``support_counts``,
``masked_majority`` are per-object row reductions over packed words).  A
post therefore costs one ``packbits`` plus a row scatter of ``m/8``-byte
rows instead of two dense ``(n_players, m)`` strided writes, and the posted
mask costs one eighth of a bool matrix.  The dense
``(n_players, n_objects)`` view survives as a compatibility accessor
(:meth:`report_matrix`), bit-identical to the pre-packed board and cached
per channel between posts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from repro._typing import check_binary
from repro.errors import BoardOwnershipError, ConfigurationError
from repro.faults.runtime import board_fault_gate
from repro.obs import runtime as obs
from repro.perf import (
    PackedBits,
    bit_cover,
    column_plan,
    packed_masked_majority,
    packed_scatter_columns,
    popcount,
)

__all__ = ["BoardEntry", "BulletinBoard"]


def _readonly_view(array: np.ndarray) -> np.ndarray:
    """A zero-copy view of ``array`` that cannot be written through."""
    view = array.view()
    view.flags.writeable = False
    return view


def _keep_last(keys: np.ndarray) -> np.ndarray:
    """Indices keeping the *last* occurrence of each key, in first-seen order
    of the surviving keys' original positions (ascending index order).

    Mirrors the sequential-overwrite semantics of a posting loop: when the
    same cell appears twice in one bulk call, the later value wins.
    """
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    is_last = np.r_[sorted_keys[1:] != sorted_keys[:-1], True]
    return np.sort(order[is_last])


@dataclass(frozen=True)
class BoardEntry:
    """One immutable post: ``owner`` wrote ``value`` under ``key``."""

    owner: int
    key: Any
    value: Any


class BulletinBoard:
    """Append-only shared memory with per-entry ownership.

    Parameters
    ----------
    n_players:
        Number of players allowed to post (owners are ``0 .. n_players-1``).
    n_objects:
        Number of objects; used to size the packed report channels.
    """

    def __init__(self, n_players: int, n_objects: int) -> None:
        if n_players <= 0 or n_objects <= 0:
            raise ConfigurationError(
                f"n_players and n_objects must be positive, got {n_players}, {n_objects}"
            )
        self.n_players = int(n_players)
        self.n_objects = int(n_objects)
        #: Packed width of a report row (eight players per byte).
        self._player_bytes = (self.n_players + 7) // 8
        #: Byte mask of the valid player bits (pad bits always stay zero).
        self._player_cover = bit_cover(self.n_players)
        # channel -> key -> BoardEntry  (scalar posts)
        self._scalar: dict[str, dict[Any, BoardEntry]] = {}
        # channel -> (values, posted); packed (n_objects, player_bytes) each.
        self._reports: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        # channel -> (dense values, dense posted) read-only compatibility
        # views, rebuilt lazily after a post.
        self._dense_cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # Scalar posts (leader announcements, published vectors, ...)
    # ------------------------------------------------------------------
    def post(self, channel: str, owner: int, key: Any, value: Any) -> None:
        """Post ``value`` under ``key`` on ``channel``.

        Raises :class:`~repro.errors.BoardOwnershipError` if a *different*
        player already posted under the same key on this channel.
        """
        self._check_owner(owner)
        entries = self._scalar.setdefault(channel, {})
        existing = entries.get(key)
        if existing is not None and existing.owner != int(owner):
            raise BoardOwnershipError(writer=int(owner), owner=existing.owner, key=(channel, key))
        entries[key] = BoardEntry(owner=int(owner), key=key, value=value)
        obs.add("board.posts")

    def read(self, channel: str, key: Any, default: Any = None) -> Any:
        """Read the value posted under ``key`` on ``channel`` (or ``default``)."""
        entry = self._scalar.get(channel, {}).get(key)
        return default if entry is None else entry.value

    def read_entry(self, channel: str, key: Any) -> BoardEntry | None:
        """Read the full entry (including owner) posted under ``key``."""
        return self._scalar.get(channel, {}).get(key)

    def entries(self, channel: str) -> Iterator[BoardEntry]:
        """Iterate over all scalar entries on ``channel``."""
        return iter(self._scalar.get(channel, {}).values())

    # ------------------------------------------------------------------
    # Probe-report channels (bit-packed)
    # ------------------------------------------------------------------
    def _report_channel(self, channel: str) -> tuple[np.ndarray, np.ndarray]:
        if channel not in self._reports:
            values = np.zeros((self.n_objects, self._player_bytes), dtype=np.uint8)
            posted = np.zeros((self.n_objects, self._player_bytes), dtype=np.uint8)
            self._reports[channel] = (values, posted)
        return self._reports[channel]

    def _touch(self, channel: str) -> None:
        self._dense_cache.pop(channel, None)

    def post_reports(
        self,
        channel: str,
        player: int,
        objects: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Player ``player`` posts probe reports for ``objects`` on ``channel``.

        ``values`` must be binary and aligned with ``objects``.  A player may
        re-post over its own previous reports (e.g. refining an estimate);
        those cells are owned by the same player so no integrity violation
        occurs.  Duplicate objects within one call resolve in order (last
        wins), as in a sequential posting loop.
        """
        faulted = board_fault_gate()
        if faulted == "drop":
            return  # the post silently vanished in transit
        self._check_owner(player)
        objects = np.asarray(objects, dtype=np.int64)
        values = np.asarray(values)
        if objects.shape != values.shape or objects.ndim != 1:
            raise ConfigurationError(
                f"objects and values must align: {objects.shape} vs {values.shape}"
            )
        if objects.size == 0:
            return
        if objects.min() < 0 or objects.max() >= self.n_objects:
            raise ConfigurationError("object index out of range in post_reports")
        check_binary(values, "post_reports")
        values = np.asarray(values, dtype=np.uint8)
        if obs._AMBIENT.telemetry is not None:
            obs.add("board.posts")
            obs.add("board.cells", int(objects.size))
        if np.unique(objects).size != objects.size:
            keep = _keep_last(objects)
            if obs._AMBIENT.telemetry is not None:
                obs.add("board.dedup_dropped", int(objects.size - keep.size))
            objects, values = objects[keep], values[keep]
        matrix, posted = self._report_channel(channel)
        byte = int(player) >> 3
        weight = np.uint8(128 >> (int(player) & 7))
        # A duplicated post is delivered twice; the write is idempotent, so
        # the board ends in the same state either way.
        for _ in range(2 if faulted == "duplicate" else 1):
            matrix[objects, byte] = (matrix[objects, byte] & ~weight) | (values * weight)
            posted[objects, byte] |= weight
        self._touch(channel)

    def post_report_pairs(
        self,
        channel: str,
        players: np.ndarray,
        objects: np.ndarray,
        values: np.ndarray,
        consistent: bool = False,
    ) -> None:
        """Post reports for an arbitrary batch of (player, object) pairs.

        ``values[i]`` is player ``players[i]``'s report for ``objects[i]``.
        This is the bulk path for phases where each object is probed by a
        different subset of players (work sharing): one vectorised call
        replaces a per-player posting loop.  Ownership is enforced the same
        way as :meth:`post_reports` — every pair's cell is attributed to (and
        can only be written by) the player in that pair, and owner indices
        are range-checked.  Duplicate pairs resolve in order (last wins),
        matching a sequential posting loop; callers no longer need to
        pre-group pairs by player.  A caller that *knows* duplicate pairs
        always carry equal values (e.g. honest reports, which are a pure
        function of the cell) may pass ``consistent=True`` to skip the
        last-wins deduplication sort — the unbuffered bit updates then land
        the same result in one pass.
        """
        faulted = board_fault_gate()
        if faulted == "drop":
            return
        players = np.asarray(players, dtype=np.int64)
        objects = np.asarray(objects, dtype=np.int64)
        values = np.asarray(values)
        if not (players.shape == objects.shape == values.shape) or players.ndim != 1:
            raise ConfigurationError(
                "players, objects and values must be aligned 1-D arrays: "
                f"{players.shape}, {objects.shape}, {values.shape}"
            )
        if players.size == 0:
            return
        if players.min() < 0 or players.max() >= self.n_players:
            raise ConfigurationError("player index out of range in post_report_pairs")
        if objects.min() < 0 or objects.max() >= self.n_objects:
            raise ConfigurationError("object index out of range in post_report_pairs")
        check_binary(values, "post_report_pairs")
        values = np.asarray(values, dtype=np.uint8)
        if obs._AMBIENT.telemetry is not None:
            obs.add("board.posts")
            obs.add("board.cells", int(players.size))
        if not consistent:
            cells = objects * self.n_players + players
            order = np.argsort(cells, kind="stable")
            sorted_cells = cells[order]
            if np.any(sorted_cells[1:] == sorted_cells[:-1]):
                is_last = np.r_[sorted_cells[1:] != sorted_cells[:-1], True]
                keep = np.sort(order[is_last])
                if obs._AMBIENT.telemetry is not None:
                    obs.add("board.dedup_dropped", int(players.size - keep.size))
                players, objects, values = players[keep], objects[keep], values[keep]
        matrix, posted = self._report_channel(channel)
        byte_pos = objects * self._player_bytes + (players >> 3)
        weights = np.uint8(128) >> (players & 7).astype(np.uint8)
        # Cells are unique but may share a byte, so the updates must be
        # unbuffered: clear each cell's bit, then OR in its value and mark it
        # posted.  A duplicated delivery repeats the idempotent writes.
        for _ in range(2 if faulted == "duplicate" else 1):
            np.bitwise_and.at(matrix.reshape(-1), byte_pos, ~weights)
            np.bitwise_or.at(matrix.reshape(-1), byte_pos, weights * values)
            np.bitwise_or.at(posted.reshape(-1), byte_pos, weights)
        self._touch(channel)

    def _prepare_block(
        self,
        where: str,
        players: np.ndarray,
        objects: np.ndarray,
        width: tuple[int, int] | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None]:
        """Shared validation/dedup front half of the block posting paths.

        Returns ``(players, objects, player_keep, object_keep)`` where the
        keep arrays select the surviving rows/columns of the values block
        (``None`` when nothing was dropped).  Duplicate players or objects
        keep their *last* occurrence, matching sequential overwrite.
        """
        if width is not None and width != (players.size, objects.size):
            raise ConfigurationError(
                f"values must have shape {(players.size, objects.size)}, got {width}"
            )
        if players.size and (players.min() < 0 or players.max() >= self.n_players):
            raise ConfigurationError(f"player index out of range in {where}")
        if objects.size and (objects.min() < 0 or objects.max() >= self.n_objects):
            raise ConfigurationError(f"object index out of range in {where}")
        player_keep = object_keep = None
        if players.size and np.unique(players).size != players.size:
            player_keep = _keep_last(players)
            if obs._AMBIENT.telemetry is not None:
                obs.add("board.dedup_dropped", int(players.size - player_keep.size))
            players = players[player_keep]
        if objects.size and np.unique(objects).size != objects.size:
            object_keep = _keep_last(objects)
            if obs._AMBIENT.telemetry is not None:
                obs.add("board.dedup_dropped", int(objects.size - object_keep.size))
            objects = objects[object_keep]
        return players, objects, player_keep, object_keep

    def post_report_block(
        self,
        channel: str,
        players: np.ndarray,
        objects: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Post a dense block of reports: ``values[i, j]`` is player
        ``players[i]``'s report for object ``objects[j]``.

        This is the vectorised bulk path used by collective protocol steps.
        Full-player posts (the common collective case) reduce to one
        ``packbits`` and a contiguous row scatter of packed rows; posts by a
        player subset scatter single bit columns through
        :func:`repro.perf.packed_scatter_columns`.
        """
        faulted = board_fault_gate()
        if faulted == "drop":
            return
        players = np.asarray(players, dtype=np.int64)
        objects = np.asarray(objects, dtype=np.int64)
        values = np.asarray(values)
        players, objects, player_keep, object_keep = self._prepare_block(
            "post_report_block", players, objects, values.shape if values.ndim == 2 else None
        )
        if values.ndim != 2:
            raise ConfigurationError(
                f"values must have shape {(players.size, objects.size)}, got {values.shape}"
            )
        if players.size == 0 or objects.size == 0:
            return
        check_binary(values, "post_report_block")
        values = np.asarray(values, dtype=np.uint8)
        if player_keep is not None:
            values = values[player_keep]
        if object_keep is not None:
            values = values[:, object_keep]
        if obs._AMBIENT.telemetry is not None:
            obs.add("board.posts")
            obs.add("board.cells", int(players.size) * int(objects.size))
        for _ in range(2 if faulted == "duplicate" else 1):
            self._write_block(channel, players, objects, values)

    def post_report_block_packed(
        self,
        channel: str,
        players: np.ndarray,
        objects: np.ndarray,
        values: PackedBits,
    ) -> None:
        """Post a dense block whose values arrive already bit-packed.

        ``values`` is packed along the *object* axis with logical shape
        ``(len(players), len(objects))`` — exactly what
        ``ProbeOracle.probe_block(..., packed=True)`` returns — so a caller
        on the packed dataflow never materialises a dense report block of
        its own.  The board realigns the bits to its object-major rows with
        one C-level unpack of the block (packing orientation necessarily
        flips between the player-major oracle and the object-major board);
        validation of the bit values is free because packed bits are binary
        by construction.
        """
        faulted = board_fault_gate()
        if faulted == "drop":
            return
        players = np.asarray(players, dtype=np.int64)
        objects = np.asarray(objects, dtype=np.int64)
        if not isinstance(values, PackedBits):
            raise ConfigurationError(
                "post_report_block_packed requires a PackedBits value block"
            )
        players, objects, player_keep, object_keep = self._prepare_block(
            "post_report_block_packed", players, objects, values.shape
        )
        if players.size == 0 or objects.size == 0:
            return
        bits = values.unpack()
        if player_keep is not None:
            bits = bits[player_keep]
        if object_keep is not None:
            bits = bits[:, object_keep]
        if obs._AMBIENT.telemetry is not None:
            obs.add("board.posts")
            obs.add("board.cells", int(players.size) * int(objects.size))
        for _ in range(2 if faulted == "duplicate" else 1):
            self._write_block(channel, players, objects, bits)

    def _write_block(
        self, channel: str, players: np.ndarray, objects: np.ndarray, values: np.ndarray
    ) -> None:
        """Scatter a validated, deduplicated 0/1 block into the packed rows."""
        matrix, posted = self._report_channel(channel)
        if players.size == self.n_players and np.all(
            players == np.arange(self.n_players)
        ):
            # Full-player post: every player bit of the touched rows is
            # rewritten, so the packed rows are simply replaced.
            matrix[objects] = np.packbits(values, axis=0).T
            posted[objects] = self._player_cover
            if obs._AMBIENT.telemetry is not None:
                obs.add("board.packed_bytes", int(objects.size) * self._player_bytes)
        else:
            if players.size > 1 and not np.all(players[1:] > players[:-1]):
                order = np.argsort(players, kind="stable")
                players, values = players[order], values[order]
            plan = column_plan(players)
            packed_scatter_columns(matrix, players, values.T, rows=objects, plan=plan)
            touched, cover = plan[0], plan[1]
            posted[objects[:, None], touched[None, :]] |= cover
            if obs._AMBIENT.telemetry is not None:
                obs.add("board.packed_bytes", int(objects.size) * int(touched.size))
        self._touch(channel)

    # ------------------------------------------------------------------
    # Report readers
    # ------------------------------------------------------------------
    def _dense_views(self, channel: str) -> tuple[np.ndarray, np.ndarray]:
        cached = self._dense_cache.get(channel)
        if cached is None:
            matrix, posted = self._report_channel(channel)
            values = np.ascontiguousarray(
                np.unpackbits(matrix, axis=1, count=self.n_players).T
            )
            mask = np.ascontiguousarray(
                np.unpackbits(posted, axis=1, count=self.n_players).T
            ).view(np.bool_)
            values.flags.writeable = False
            mask.flags.writeable = False
            cached = (values, mask)
            self._dense_cache[channel] = cached
        return cached

    def report_matrix(
        self, channel: str, copy: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return the dense ``(values, posted)`` view of a report channel.

        ``values`` is an ``(n_players, n_objects)`` uint8 matrix; ``posted``
        is a boolean mask saying which cells were actually reported.  Cells
        never posted read as 0 in ``values`` — always consult the mask.

        With ``copy=False`` the returned arrays are **read-only**
        (``writeable=False``) and shared with the board's per-channel cache:
        repeat reads between posts cost nothing.  The default ``copy=True``
        hands back private mutable copies, matching the historical contract.
        """
        obs.add("board.reads")
        values, posted = self._dense_views(channel)
        if copy:
            return values.copy(), posted.copy()
        return values, posted

    def report_matrix_packed(self, channel: str) -> tuple[PackedBits, PackedBits]:
        """Zero-copy packed view of a report channel: ``(values, posted)``.

        Rows are **objects**, bits are players (the board's native packed
        orientation); both are read-only views of the live storage, so they
        reflect later posts.  ``unpack()`` yields the transpose of
        :meth:`report_matrix`'s dense arrays.
        """
        obs.add("board.reads")
        matrix, posted = self._report_channel(channel)
        return (
            PackedBits(data=_readonly_view(matrix), n_bits=self.n_players),
            PackedBits(data=_readonly_view(posted), n_bits=self.n_players),
        )

    def reporters_of(self, channel: str, obj: int) -> np.ndarray:
        """Indices of players that posted a report for ``obj`` on ``channel``."""
        obs.add("board.reads")
        _, posted = self._report_channel(channel)
        row = np.unpackbits(posted[int(obj)], count=self.n_players)
        return np.flatnonzero(row)

    def support_counts(self, channel: str, objects: np.ndarray | None = None) -> np.ndarray:
        """Number of *distinct* players that reported each object.

        One popcount reduction over the packed posted rows — the packed
        replacement for ``report_matrix()[1].sum(axis=0)``.  ``objects``
        restricts the count to a subset (default: all objects).
        """
        obs.add("board.reads")
        _, posted = self._report_channel(channel)
        rows = posted if objects is None else posted[np.asarray(objects, dtype=np.int64)]
        return popcount(rows).sum(axis=1, dtype=np.int64)

    def masked_majority(
        self, channel: str, objects: np.ndarray | None = None, default: int = 1
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-object majority of the posted reports (ties go to 1).

        Counts only cells actually posted; objects nobody reported fall back
        to ``default``.  Returns ``(majority, support)`` — the board-side
        packed kernel behind consensus-style readers (one AND + two popcount
        passes over the packed rows; see
        :func:`repro.perf.packed_masked_majority`).
        """
        obs.add("board.reads")
        matrix, posted = self._report_channel(channel)
        if objects is not None:
            rows = np.asarray(objects, dtype=np.int64)
            matrix, posted = matrix[rows], posted[rows]
        return packed_masked_majority(
            PackedBits(data=matrix, n_bits=self.n_players),
            PackedBits(data=posted, n_bits=self.n_players),
            default=default,
        )

    # ------------------------------------------------------------------
    # State transfer (parallel diameter search)
    # ------------------------------------------------------------------
    def export_channels(self, prefix: str) -> dict[str, Any]:
        """Snapshot every channel whose name starts with ``prefix``.

        Returns a picklable payload for :meth:`absorb_channels`; used by the
        parallel diameter search to ship the board writes of one guessed
        diameter iteration back from a worker process.
        """
        payload: dict[str, Any] = {"scalar": {}, "reports": {}}
        for channel, entries in self._scalar.items():
            if channel.startswith(prefix):
                payload["scalar"][channel] = dict(entries)
        for channel, (matrix, posted) in self._reports.items():
            if channel.startswith(prefix):
                payload["reports"][channel] = (matrix.copy(), posted.copy())
        return payload

    def absorb_channels(self, payload: dict[str, Any]) -> None:
        """Install channels exported by :meth:`export_channels`.

        Channels are installed wholesale (the parallel diameter iterations
        write disjoint channel prefixes, so nothing is merged cell-wise).
        """
        for channel, entries in payload.get("scalar", {}).items():
            self._scalar[channel] = dict(entries)
        for channel, (matrix, posted) in payload.get("reports", {}).items():
            if matrix.shape != (self.n_objects, self._player_bytes):
                raise ConfigurationError(
                    f"absorbed channel {channel!r} has shape {matrix.shape}, "
                    f"expected {(self.n_objects, self._player_bytes)}"
                )
            self._reports[channel] = (matrix.copy(), posted.copy())
            self._touch(channel)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _check_owner(self, owner: int) -> None:
        owner = int(owner)
        if not 0 <= owner < self.n_players:
            raise ConfigurationError(f"owner index {owner} out of range")

    def channels(self) -> list[str]:
        """All channel names seen so far (scalar and report channels)."""
        return sorted(set(self._scalar) | set(self._reports))

    def channel_stats(self) -> dict[str, dict[str, int]]:
        """Per-channel posting counters: ``{channel: {scalar_posts,
        report_cells}}``.

        ``scalar_posts`` counts live scalar entries (last-write-wins keys);
        ``report_cells`` counts posted cells via one popcount over the packed
        ``posted`` rows, so no dense matrix is materialised.  The preference
        server's publisher diffs successive calls to emit board-delta events;
        both inner reads tolerate a concurrent poster (dict copies are
        C-level, the popcount reads a live array whose cells only ever gain
        bits), so the view may be torn across channels but never raises.
        """
        stats: dict[str, dict[str, int]] = {}
        for channel, entries in list(self._scalar.items()):
            stats[channel] = {"scalar_posts": len(entries), "report_cells": 0}
        for channel, (_, posted) in list(self._reports.items()):
            cells = int(popcount(posted).sum())
            entry = stats.setdefault(
                channel, {"scalar_posts": 0, "report_cells": 0}
            )
            entry["report_cells"] = cells
        return stats

    def clear_channel(self, channel: str) -> None:
        """Drop a channel entirely (used between independent protocol runs)."""
        self._scalar.pop(channel, None)
        self._reports.pop(channel, None)
        self._dense_cache.pop(channel, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BulletinBoard(n_players={self.n_players}, n_objects={self.n_objects}, "
            f"channels={self.channels()})"
        )
