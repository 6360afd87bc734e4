"""Public bulletin board (shared memory) used by all protocols.

The paper (§2) models communication as a public bulletin board: every player
can post the result of its probes and read everything posted by others.  Two
properties matter for the proofs and hold here by construction:

* **Attribution** — every cell belongs to one (player, object) pair, so
  readers can count how many *distinct* players support a value.
* **Integrity** — a report is written only into its own player's cell, so
  no post can change another player's reports (a dishonest player cannot
  tamper with honest posts).  Re-posting over one's own cells is allowed and
  simply overwrites them.

Entries are organised into named *channels* (one per protocol phase), and
every channel holds per-(player, object) probe reports.  Nothing else is
posted: a published vector is a row of reports, and a leader's random bits
reach the players as the context's shared-randomness stream
(:mod:`repro.core.robust`), not as a board entry.

Report channels are stored **bit-packed**: one packed row per *object*,
eight players per byte (``repro.perf.bitset`` words), with a parallel packed
posted-mask.  The object-major orientation matches the write pattern of the
collective protocols — a phase posts a full-player block over a column
subset, which lands as contiguous packed rows — and the one board-side
reduction, :meth:`BulletinBoard.masked_majority`, is a per-object row
reduction over packed words.  A post therefore costs one ``packbits`` plus a
row scatter of ``m/8``-byte rows instead of two dense ``(n_players, m)``
strided writes, and the posted mask costs one eighth of a bool matrix.

The readers are :meth:`~BulletinBoard.masked_majority`,
:meth:`~BulletinBoard.channel_stats` (posted-cell counts, which the
preference server publishes) and :meth:`~BulletinBoard.export_channels` /
:meth:`~BulletinBoard.absorb_channels` (private copies of whole channels,
through which the tests read and compare boards).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro._typing import check_binary
from repro.errors import ConfigurationError
from repro.faults.runtime import fault_gate
from repro.obs import runtime as obs
from repro.perf import (
    PackedBits,
    bit_cover,
    column_plan,
    packed_masked_majority,
    packed_scatter_columns,
    popcount,
)

__all__ = ["BulletinBoard"]


def _has_repeats(indices: np.ndarray, bound: int) -> bool:
    """Whether an index in ``[0, bound)`` occurs more than once.

    Marks every index in a ``bound``-long mask and counts the marks, as
    :meth:`~repro.simulation.oracle.ProbeOracle.probe_block` builds its
    cover: no sort.
    """
    marks = np.zeros(bound, dtype=bool)
    marks[indices] = True
    return int(np.count_nonzero(marks)) != indices.size


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


class BulletinBoard:
    """Append-only shared memory with per-cell ownership.

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
        # channel -> (values, posted); packed (n_objects, player_bytes) each.
        self._reports: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # Probe-report channels (bit-packed)
    # ------------------------------------------------------------------
    def _report_channel(self, channel: str) -> tuple[np.ndarray, np.ndarray]:
        if channel not in self._reports:
            values = np.zeros((self.n_objects, self._player_bytes), dtype=np.uint8)
            posted = np.zeros((self.n_objects, self._player_bytes), dtype=np.uint8)
            self._reports[channel] = (values, posted)
        return self._reports[channel]

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
        faulted = fault_gate("board.post")
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
        if _has_repeats(objects, self.n_objects):
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

    def post_report_assignment(
        self,
        channel: str,
        probers: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Post the reports of an assignment of players to objects.

        Row ``o`` of ``probers``, shape ``(n_objects, k)``, lists the players
        reporting on object ``o`` (the shape
        :meth:`~repro.simulation.randomness.SharedRandomness.assign_probers`
        returns, and the one
        :meth:`~repro.simulation.oracle.ProbeOracle.probe_assignment` takes);
        ``values[o, j]`` is player ``probers[o, j]``'s report for object
        ``o``.  This is the bulk path of work sharing, where each object is
        reported by its own few players.  Equivalent to posting the entries
        one at a time in row order: a player repeated within a row keeps its
        last value there.  Ownership is enforced as in :meth:`post_reports`:
        every entry writes only its own player's cell, and player indices
        are range-checked before anything is written.

        The entries are written one column at a time.  A column names every
        object row once, so its cells are distinct and each lies in its own
        packed byte; one buffered read-modify-write of the value bytes and
        one of the posted bytes per column land every cell exactly, and the
        later columns overwrite the earlier ones, which is last-wins.
        """
        faulted = fault_gate("board.post")
        if faulted == "drop":
            return
        probers = np.asarray(probers, dtype=np.int64)
        values = np.asarray(values)
        if probers.ndim != 2 or probers.shape[0] != self.n_objects:
            raise ConfigurationError(
                f"probers must have shape ({self.n_objects}, k), got {probers.shape}"
            )
        if values.shape != probers.shape:
            raise ConfigurationError(
                f"values must have the probers' shape {probers.shape}, got {values.shape}"
            )
        if probers.size == 0:
            return
        if probers.min() < 0 or probers.max() >= self.n_players:
            raise ConfigurationError("player index out of range in post_report_assignment")
        check_binary(values, "post_report_assignment")
        if obs._AMBIENT.telemetry is not None:
            obs.add("board.posts")
            obs.add("board.cells", int(probers.size))
        # Column-major copies, so each column is one contiguous row.
        columns = np.ascontiguousarray(probers.T)
        bytes_at = columns >> 3
        bytes_at += np.arange(self.n_objects) * self._player_bytes
        weights = np.right_shift(np.uint8(128), (columns & 7).astype(np.uint8))
        set_bits = np.ascontiguousarray(values.T, dtype=np.uint8) * weights
        matrix, posted = self._report_channel(channel)
        flat_values, flat_posted = matrix.reshape(-1), posted.reshape(-1)
        # A duplicated delivery repeats the idempotent writes.
        for _ in range(2 if faulted == "duplicate" else 1):
            for cells, weight, bits in zip(bytes_at, weights, set_bits):
                flat_values[cells] = (flat_values[cells] & ~weight) | bits
                flat_posted[cells] |= weight

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
        if players.size and _has_repeats(players, self.n_players):
            player_keep = _keep_last(players)
            if obs._AMBIENT.telemetry is not None:
                obs.add("board.dedup_dropped", int(players.size - player_keep.size))
            players = players[player_keep]
        if objects.size and _has_repeats(objects, self.n_objects):
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
        faulted = fault_gate("board.post")
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

    def _write_block(
        self, channel: str, players: np.ndarray, objects: np.ndarray, values: np.ndarray
    ) -> None:
        """Scatter a validated, deduplicated 0/1 block into the packed rows."""
        matrix, posted = self._report_channel(channel)
        if players.size == self.n_players and np.all(
            players == np.arange(self.n_players)
        ):
            # Full-player post: every player bit of the touched rows is
            # rewritten, so the packed rows are simply replaced.  Packing
            # runs along a contiguous player axis: a player-major block is
            # transposed first, which costs less than a strided pack.
            matrix[objects] = np.packbits(np.ascontiguousarray(values.T), axis=1)
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

    # ------------------------------------------------------------------
    # Report readers
    # ------------------------------------------------------------------
    def masked_majority(self, channel: str) -> tuple[np.ndarray, np.ndarray]:
        """Per-object majority of the posted reports (ties go to 1).

        Counts only cells actually posted; objects nobody reported read as 1.
        Returns ``(majority, support)`` — the board-side packed kernel behind
        consensus-style readers (one AND + two popcount passes over the
        packed rows; see :func:`repro.perf.packed_masked_majority`).  A
        channel nobody posted to reads as all 1 with zero support, and
        reading it does not create it.
        """
        obs.add("board.reads")
        stored = self._reports.get(channel)
        if stored is None:
            return (
                np.ones(self.n_objects, dtype=np.uint8),
                np.zeros(self.n_objects, dtype=np.int64),
            )
        matrix, posted = stored
        return packed_masked_majority(
            PackedBits(data=matrix, n_bits=self.n_players),
            PackedBits(data=posted, n_bits=self.n_players),
        )

    # ------------------------------------------------------------------
    # Channel snapshots
    # ------------------------------------------------------------------
    def export_channels(self, prefix: str) -> dict[str, Any]:
        """Snapshot every channel whose name starts with ``prefix``.

        Returns ``{"reports": {channel: (values, posted)}}``, private copies
        of the packed rows, for :meth:`absorb_channels`.  No protocol reads
        it.  ``export_channels("")`` is the whole board: the tests read and
        compare boards through it, and :meth:`absorb_channels` installs it
        into a fresh board of the same shape.
        """
        return {
            "reports": {
                channel: (matrix.copy(), posted.copy())
                for channel, (matrix, posted) in self._reports.items()
                if channel.startswith(prefix)
            }
        }

    def absorb_channels(self, payload: dict[str, Any]) -> None:
        """Install channels exported by :meth:`export_channels`.

        Each channel is installed wholesale, replacing any channel of the
        same name; nothing is merged cell-wise.
        """
        expected = (self.n_objects, self._player_bytes)
        for channel, (matrix, posted) in payload.get("reports", {}).items():
            if matrix.shape != expected or posted.shape != expected:
                raise ConfigurationError(
                    f"absorbed channel {channel!r} has shapes {matrix.shape} and "
                    f"{posted.shape}, expected {expected}"
                )
            self._reports[channel] = (matrix.copy(), posted.copy())

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _check_owner(self, owner: int) -> None:
        owner = int(owner)
        if not 0 <= owner < self.n_players:
            raise ConfigurationError(f"owner index {owner} out of range")

    def channels(self) -> list[str]:
        """All channel names posted to so far, sorted."""
        return sorted(self._reports)

    def channel_stats(self) -> dict[str, dict[str, int]]:
        """Per-channel posting counters: ``{channel: {"report_cells": n}}``.

        ``report_cells`` counts posted cells via one popcount over the packed
        ``posted`` rows, so no dense matrix is materialised.  The preference
        server's publisher diffs successive calls to emit board-delta events;
        the read tolerates a concurrent poster (the channel dict is copied at
        C level, and the popcount reads a live array whose cells only ever
        gain bits), so the view may be torn across channels but never raises.
        """
        return {
            channel: {"report_cells": int(popcount(posted).sum())}
            for channel, (_, posted) in list(self._reports.items())
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BulletinBoard(n_players={self.n_players}, n_objects={self.n_objects}, "
            f"channels={self.channels()})"
        )
