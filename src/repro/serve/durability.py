"""Session durability: write-ahead op logs, event cursors, replay rings.

This module is what makes a preference-server session survive its process.
Three pieces, all built on the crash-safety contract of
:mod:`repro.faults.journal` (per-line append+flush, torn-tail-tolerant
loading):

* :class:`SessionJournal` — a per-session write-ahead op log under
  ``<state-dir>/sessions/<name>.jsonl``.  The header records everything
  needed to rebuild the session's ``(spec, seed)`` pair (scenario name +
  the dotted-path overrides it was opened with); every mutating op
  (``probe``/``report``/``select``/``rselect``/``election``/``run``) is
  appended *before* it executes and before its result frame is sent, with
  a monotonic ``seq``.  A restarted server replays the journaled ops in
  order against a freshly ``prepare()``-d context — the ops are
  deterministic functions of session state, so the rebuilt session is
  bit-identical to the never-crashed one.
* :class:`EventRing` — the bounded replay buffer behind ``(session, seq)``
  event cursors.  Every published event is stamped with the session's next
  seq and retained until it falls off the ring; ``subscribe(from_seq=)``
  backfills from here, and a cursor that has fallen out (or points past
  the recovered high-water mark) yields a typed ``gap`` so the client
  knows to resnapshot instead of silently missing frames.
* :class:`SessionCheckpoint` — bounded-time recovery.  Replaying a
  lifetime of ops is O(lifetime); a checkpoint (format 4) stores the only
  state session ops change — the oracle's memo mask and request counts,
  every board channel, and the shared generator's state — as packed
  arrays behind a checksummed JSON header, written atomically (tmp →
  fsync → read-back verify → rename), after which the journal is
  **compacted** to the suffix past the checkpoint.  Recovery runs
  ``prepare(spec, seed)``, installs the snapshot and replays the tail:
  O(checkpoint + tail).  A torn, corrupt or mismatched checkpoint fails
  verification at load and recovery falls back to full replay with a
  :class:`DurabilityWarning`; it can never produce wrong state.
* :func:`clear_stale_socket` — UNIX-socket hygiene for restarts: a socket
  file left by a SIGKILLed predecessor is detected (nobody accepts on it)
  and removed, while a *live* server's socket raises instead of being
  stolen.

Disk faults (injected via the ``journal.append`` / ``journal.fsync`` /
``checkpoint.write`` sites of :mod:`repro.faults`) degrade, never corrupt:
a failed append quarantines the log and the session continues ephemeral; a
failed checkpoint write keeps the full journal; a failed compaction keeps
the full journal.  Eviction and explicit close archive a session's files
to ``sessions/<name>.evicted/`` (:func:`archive_session_state`), which the
recovery scan skips.

Event-seq continuity across a crash: the journal also records an
``events`` high-water mark (``next_seq``) *before* a publisher tick's
frames are sent.  On recovery the ring resumes numbering from that mark,
so a seq a client has actually seen is never reissued for a different
event — at worst the resuming cursor lands in the (empty) recovered ring
and the client receives a ``gap``.
"""

from __future__ import annotations

import errno
import hashlib
import json
import math
import os
import re
import socket
import time
from pathlib import Path
from threading import Lock
from typing import Any

import numpy as np

from repro.errors import ExperimentError
from repro.faults.journal import AppendOnlyLog, parse_records
from repro.faults.runtime import fault_gate
from repro.protocols.context import ProtocolContext
from repro.scenarios.engine import PreparedRun, prepare
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "CheckpointError",
    "DurabilityWarning",
    "EventRing",
    "SessionCheckpoint",
    "SessionJournal",
    "archive_session_state",
    "clear_stale_socket",
    "scan_state_dir",
    "session_archive_dir",
    "session_checkpoint_path",
    "session_journal_path",
    "session_ordinal",
]

_JOURNAL_VERSION = 1
#: Version 4 stores only the state session ops change: the payload is the
#: oracle's memo mask and request counts, then every board channel's packed
#: values and posted rows, and the header names the channels and carries the
#: shared generator's state.  Versions 1-3 serialised the whole prepared run
#: as a Python object graph; recovery refuses them and replays the journal
#: instead.
_CHECKPOINT_VERSION = 4


class DurabilityWarning(UserWarning):
    """A durability degradation the server survived.

    Emitted (never raised) when the durable path falls back without losing
    correctness: a journal append failed and the session continues
    ephemeral, a checkpoint could not be written and the full op log is
    kept, a checkpoint failed verification and recovery fell back to full
    replay, or a state-dir entry could not be recovered and boot skipped
    it.  Typed so tests and operators can filter them precisely
    (``-W error::DurabilityWarning`` turns any silent degradation into a
    failure).
    """


class CheckpointError(ExperimentError):
    """A session checkpoint failed verification (torn, corrupt, or stale).

    Raised by :class:`SessionCheckpoint` when the header is unreadable, the
    payload length or checksum disagrees with the header, or the captured
    state does not fit the session it would restore.  Always recoverable:
    the caller falls back to full journal replay.
    """

#: Ops that must be journaled before execution (everything that can mutate
#: session state or consume shared randomness; reads are not logged).
JOURNALED_OPS = frozenset(
    {"probe", "report", "select", "rselect", "election", "run"}
)


def session_journal_path(state_dir: Path | str, name: str) -> Path:
    """Where session ``name``'s op log lives under ``state_dir``."""
    return Path(state_dir) / "sessions" / f"{name}.jsonl"


def session_checkpoint_path(journal_path: Path | str) -> Path:
    """Where the checkpoint of the session logging to ``journal_path`` lives
    (``<name>.ckpt`` beside ``<name>.jsonl``)."""
    return Path(journal_path).with_suffix(".ckpt")


def session_archive_dir(state_dir: Path | str, name: str) -> Path:
    """Where session ``name``'s files are archived on eviction/close."""
    return Path(state_dir) / "sessions" / f"{name}.evicted"


def scan_state_dir(state_dir: Path | str) -> list[Path]:
    """All session journals under ``state_dir``, in stable name order.

    Only live ``*.jsonl`` files qualify: checkpoints (``*.ckpt``),
    quarantined logs (``*.jsonl.broken``), atomic-write temporaries
    (``*.tmp``) and archived sessions (``*.evicted/`` directories) all
    fail the glob, so eviction and degradation never resurrect state.
    """
    sessions = Path(state_dir) / "sessions"
    if not sessions.is_dir():
        return []
    return sorted(path for path in sessions.glob("*.jsonl") if path.is_file())


def archive_session_state(state_dir: Path | str, name: str) -> Path | None:
    """Move session ``name``'s journal + checkpoint into its archive dir.

    Called on eviction and explicit close instead of deletion: the files
    stop being recoverable (the ``*.jsonl`` scan skips directories) but
    stay on disk for post-mortem, under
    ``<state-dir>/sessions/<name>.evicted/``.  Returns the archive
    directory, or ``None`` when the session left nothing behind.  A name
    reused after an earlier archive overwrites the earlier files
    (last-wins, like a re-run journal).
    """
    journal = session_journal_path(state_dir, name)
    checkpoint = session_checkpoint_path(journal)
    archive = session_archive_dir(state_dir, name)
    moved = False
    for candidate in (
        journal,
        checkpoint,
        journal.with_name(journal.name + ".tmp"),
        checkpoint.with_name(checkpoint.name + ".tmp"),
        journal.with_name(journal.name + ".broken"),
    ):
        if candidate.is_file():
            archive.mkdir(parents=True, exist_ok=True)
            os.replace(candidate, archive / candidate.name)
            moved = True
    return archive if moved else None


def _fsync_dir(path: Path) -> None:
    """Flush a directory entry (the rename half of an atomic write)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _encode_state(context: ProtocolContext) -> tuple[dict[str, Any], bytes]:
    """The header fields and payload bytes of the state ops change: the
    memo mask, the request counts (little-endian int64), then each
    channel's values and posted rows in channel-name order."""
    probed, requests = context.oracle.probe_state()
    reports = context.board.export_channels("")["reports"]
    channels = sorted(reports)
    arrays = [probed, requests.astype("<i8")]
    for channel in channels:
        arrays.extend(reports[channel])
    fields = {
        "channels": channels,
        "generator": context.randomness.generator.bit_generator.state,
    }
    return fields, b"".join(array.tobytes() for array in arrays)


class SessionCheckpoint:
    """A checksummed snapshot of the state one session's ops have changed.

    On disk: one JSON header line (session identity, the op seq the state
    includes, the event-ring high-water mark, the board's channel names,
    the shared generator's ``bit_generator.state``, payload length and
    sha256) followed by a raw payload of packed arrays: the oracle's memo
    mask and request counts, then every channel's values and posted rows.
    Everything else in a session follows from its ``(spec, seed)`` pair, so
    :meth:`restore` runs ``prepare(spec, seed)`` and installs these three
    pieces; the restored session is bit-identical to the captured one.
    Per-player probe counts are not stored: each is the popcount of that
    player's memo row.

    Writes are atomic and self-verifying: payload → ``<path>.tmp`` →
    flush + fsync → **read back and re-verify the checksum** → rename over
    ``<path>`` → fsync the directory.  The read-back means a checkpoint
    that an injected fault corrupted *in flight* is caught before the
    rename, so the previous checkpoint (and the uncompacted journal)
    stays authoritative; a crash at any point leaves either the old file
    or the new file, never a torn one under the live name.  Loads verify
    header shape, version, payload length and checksum, and
    :meth:`check_fits` verifies the captured state against the session's
    dimensions; each raises :class:`CheckpointError` on any disagreement —
    the recovery path's cue to fall back to full replay.
    """

    def __init__(self, path: Path, header: dict[str, Any], payload: bytes) -> None:
        self.path = Path(path)
        self.header = header
        self.payload = payload

    @property
    def op_seq(self) -> int:
        """Seq of the last journaled op included in this state (0 = none)."""
        return int(self.header.get("op_seq", 0))

    @property
    def events_next_seq(self) -> int:
        """Event-ring high-water mark at capture time."""
        return max(1, int(self.header.get("events_next_seq", 1)))

    @classmethod
    def write(
        cls,
        path: Path | str,
        *,
        session: str,
        scenario: str,
        overrides: dict[str, Any] | None,
        seed: int,
        op_seq: int,
        events_next_seq: int,
        prepared: PreparedRun,
    ) -> "SessionCheckpoint":
        """Atomically persist the changing state of ``prepared``'s context.

        Raises :class:`OSError` (write/fsync failed, including injected
        ``checkpoint.write`` faults) or :class:`CheckpointError` (the
        read-back verification caught corruption); in both cases the
        previous checkpoint file is untouched and the caller keeps the
        full journal.
        """
        path = Path(path)
        fields, payload = _encode_state(prepared.context)
        header = {
            "kind": "checkpoint",
            "version": _CHECKPOINT_VERSION,
            "session": session,
            "scenario": scenario,
            "overrides": dict(overrides or {}),
            "seed": int(seed),
            "op_seq": int(op_seq),
            "events_next_seq": max(1, int(events_next_seq)),
            **fields,
            "payload_bytes": len(payload),
            "sha256": hashlib.sha256(payload).hexdigest(),
            "created_unix_time": time.time(),
        }
        data = json.dumps(header, separators=(",", ":")).encode("utf-8")
        data += b"\n" + payload
        action = fault_gate("checkpoint.write")
        if action == "error":
            raise OSError(errno.EIO, f"injected I/O error writing {path}")
        if action == "enospc":
            raise OSError(errno.ENOSPC, f"injected ENOSPC writing {path}")
        if action == "short-write":
            data = data[: max(1, len(data) // 2)]
        elif action == "corrupt":
            # Flip one payload byte at the file layer: the in-memory
            # checksum in the header is pristine, so only read-back
            # verification can notice — exactly the path under test.
            flip = len(data) - 1
            data = data[:flip] + bytes([data[flip] ^ 0xFF])
        tmp = path.with_name(path.name + ".tmp")
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(tmp, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            if action == "short-write":
                raise OSError(errno.EIO, f"injected short write on {path}")
            loaded = cls.load(tmp)  # read-back: catches in-flight corruption
        except (OSError, CheckpointError):
            tmp.unlink(missing_ok=True)
            raise
        os.replace(tmp, path)
        _fsync_dir(path.parent)
        return cls(path, loaded.header, loaded.payload)

    @classmethod
    def load(cls, path: Path | str) -> "SessionCheckpoint":
        """Read and verify a checkpoint; :class:`CheckpointError` if bad."""
        path = Path(path)
        try:
            raw = path.read_bytes()
        except OSError as error:
            raise CheckpointError(
                f"checkpoint {path} is unreadable: {error}"
            ) from error
        newline = raw.find(b"\n")
        if newline < 0:
            raise CheckpointError(f"checkpoint {path} has no header line")
        try:
            header = json.loads(raw[:newline])
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise CheckpointError(
                f"checkpoint {path} header is not valid JSON"
            ) from error
        if not isinstance(header, dict) or header.get("kind") != "checkpoint":
            raise CheckpointError(f"checkpoint {path} header has the wrong kind")
        if header.get("version") != _CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint {path} has unsupported version "
                f"{header.get('version')!r}"
            )
        payload = raw[newline + 1:]
        if len(payload) != header.get("payload_bytes"):
            raise CheckpointError(
                f"checkpoint {path} payload is torn "
                f"({len(payload)} bytes, header says {header.get('payload_bytes')})"
            )
        if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
            raise CheckpointError(f"checkpoint {path} fails its checksum")
        return cls(path, header, payload)

    def check_fits(self, n_players: int, n_objects: int) -> None:
        """Raise :class:`CheckpointError` unless the captured state fits a
        session of ``n_players`` x ``n_objects``: a well-formed channel
        list, the payload size that list and the dimensions imply, and a
        generator state the shared generator accepts."""
        self._state(n_players, n_objects)

    def _state(self, n_players: int, n_objects: int) -> tuple[Any, ...]:
        """Verified ``(memo mask, requests, channels)`` views of the payload."""
        channels = self.header.get("channels")
        if not (
            isinstance(channels, list)
            and all(isinstance(channel, str) for channel in channels)
            and len(set(channels)) == len(channels)
        ):
            raise CheckpointError(f"checkpoint {self.path} has a malformed channel list")
        mask_bytes, request_bytes = n_players * ((n_objects + 7) // 8), 8 * n_players
        channel_shape = (len(channels), 2, n_objects, (n_players + 7) // 8)
        expected = mask_bytes + request_bytes + math.prod(channel_shape)
        if len(self.payload) != expected:
            raise CheckpointError(
                f"checkpoint {self.path} holds {len(self.payload)} payload bytes, "
                f"but {len(channels)} channels at {n_players} x {n_objects} "
                f"take {expected}"
            )
        try:
            np.random.default_rng(0).bit_generator.state = self.header.get("generator")
        except (TypeError, ValueError, KeyError, OverflowError) as error:
            raise CheckpointError(
                f"checkpoint {self.path} has an invalid generator state: {error!r}"
            ) from error
        payload = np.frombuffer(self.payload, dtype=np.uint8)
        probed = payload[:mask_bytes].reshape(n_players, -1)
        requests = payload[mask_bytes:mask_bytes + request_bytes].view("<i8")
        rows = payload[mask_bytes + request_bytes:].reshape(channel_shape)
        reports = {channel: (rows[i, 0], rows[i, 1]) for i, channel in enumerate(channels)}
        return probed, requests, reports

    def restore(self, spec: ScenarioSpec, seed: int) -> PreparedRun:
        """Rebuild the session: ``prepare(spec, seed)``, then install the
        captured memo mask, request counts, board channels and generator
        state into its context.  Returns the :class:`PreparedRun`."""
        prepared = prepare(spec, seed)
        context = prepared.context
        probed, requests, reports = self._state(context.n_players, context.n_objects)
        context.oracle.install_probe_state(probed, requests)
        context.board.absorb_channels({"reports": reports})
        context.randomness.generator.bit_generator.state = self.header["generator"]
        return prepared

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SessionCheckpoint(path={str(self.path)!r}, "
            f"op_seq={self.op_seq}, payload={len(self.payload)}B)"
        )


def session_ordinal(name: str) -> int:
    """The numeric part of a server-allocated session name (``s7`` → 7).

    Used after recovery to restart the name counter past every recovered
    session, so new sessions never collide with replayed ones.  Names that
    do not match the server's ``s<N>`` pattern contribute 0.
    """
    match = re.fullmatch(r"s(\d+)", name)
    return int(match.group(1)) if match else 0


class SessionJournal:
    """Write-ahead op log for one session (crash-safe, torn-tail-tolerant).

    Use :meth:`create` for a fresh session and :meth:`load` to recover one;
    both leave the file open for appending.  Appends may come from two
    threads (op records from the session worker, event high-water marks
    from the server's publisher on the event loop), so writes are locked.
    """

    def __init__(
        self,
        path: Path,
        header: dict[str, Any],
        ops: list[tuple[int, str, dict[str, Any]]],
        events_next_seq: int,
    ) -> None:
        self.path = Path(path)
        self.header = header
        #: ``(seq, op, params)`` records recovered from the file, in order.
        self.recovered_ops = ops
        #: Event-seq high-water mark recovered from the file (>= 1).
        self.events_next_seq = max(1, int(events_next_seq))
        self._lock = Lock()
        self._log = AppendOnlyLog(path)
        self._last_events_mark = self.events_next_seq

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: Path | str,
        *,
        session: str,
        scenario: str,
        overrides: dict[str, Any] | None,
        seed: int,
        max_pending: int,
    ) -> "SessionJournal":
        """Start a fresh journal: write the header, return the open log.

        The header stores the *wire-level* session description (scenario
        name + dotted-path overrides, exactly what the ``open`` op carried)
        rather than a serialised spec object: ``build_spec`` reconstructs the same
        :class:`~repro.scenarios.spec.ScenarioSpec` on recovery, and the
        file stays human-readable JSON end to end.
        """
        header = {
            "kind": "header",
            "version": _JOURNAL_VERSION,
            "session": session,
            "scenario": scenario,
            "overrides": dict(overrides or {}),
            "seed": int(seed),
            "max_pending": int(max_pending),
            "created_unix_time": time.time(),
        }
        journal = cls(Path(path), header, [], 1)
        journal._log.append(header)
        return journal

    @classmethod
    def load(cls, path: Path | str) -> "SessionJournal":
        """Recover a journal from disk, tolerating a torn final line.

        Returns the open journal with :attr:`recovered_ops` holding every
        fully-written op record in append order and :attr:`events_next_seq`
        at the recorded high-water mark.  A file without a valid header is
        rejected (:class:`~repro.errors.ExperimentError`) — the caller
        skips it rather than serving a session of unknown provenance.
        """
        path = Path(path)
        records = parse_records(path.read_text(encoding="utf-8"))
        if not records or records[0].get("kind") != "header":
            raise ExperimentError(
                f"session journal {path} has no valid header; cannot recover"
            )
        header = records[0]
        if int(header.get("version", -1)) != _JOURNAL_VERSION:
            raise ExperimentError(
                f"session journal {path} has unsupported version "
                f"{header.get('version')!r}"
            )
        ops: list[tuple[int, str, dict[str, Any]]] = []
        events_next_seq = 1
        for record in records[1:]:
            kind = record.get("kind")
            if kind == "op":
                ops.append(
                    (
                        int(record.get("seq", len(ops) + 1)),
                        str(record.get("op")),
                        dict(record.get("params") or {}),
                    )
                )
            elif kind == "events":
                events_next_seq = max(events_next_seq, int(record.get("next_seq", 1)))
        return cls(path, header, ops, events_next_seq)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    @property
    def flushes(self) -> int:
        return self._log.flushes

    @property
    def compacted_at_seq(self) -> int:
        """Highest op seq dropped by compaction (0 = never compacted).

        Ops at or below this seq live only inside the checkpoint; replay
        must start strictly after it, and :attr:`next_op_seq` must never
        reuse a seq from the compacted range.
        """
        return int(self.header.get("compacted_at_seq", 0))

    @property
    def next_op_seq(self) -> int:
        """The seq the next journaled op should use (monotonic, 1-based).

        Accounts for compaction: a journal whose tail is empty because
        every op moved into the checkpoint still hands out seqs past the
        compaction point, so op seqs stay unique across the session's
        whole lifetime.
        """
        last = self.recovered_ops[-1][0] if self.recovered_ops else 0
        return max(last, self.compacted_at_seq) + 1

    def record_op(self, seq: int, op: str, params: dict[str, Any]) -> None:
        """Append one op record (the write-ahead point: flushed before the
        op executes, so an acked op is always recoverable)."""
        with self._lock:
            if not self._log.closed:
                self._log.append(
                    {"kind": "op", "seq": int(seq), "op": op, "params": params}
                )

    def record_events_mark(self, next_seq: int) -> None:
        """Persist the event-seq high-water mark (before frames are sent).

        Idempotent per value: repeated marks at the same seq are skipped so
        a chatty publisher does not grow the file without new events.
        """
        next_seq = int(next_seq)
        with self._lock:
            if next_seq <= self._last_events_mark or self._log.closed:
                return
            self._last_events_mark = next_seq
            self._log.append({"kind": "events", "next_seq": next_seq})

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self, upto_seq: int) -> int:
        """Drop journaled ops with ``seq <= upto_seq`` (they live in the
        checkpoint now); returns the number of tail ops retained.

        Only call after a checkpoint covering ``upto_seq`` has been
        *verified and renamed into place* — the compacted journal alone
        can no longer rebuild the session.  The rewrite is atomic (tmp +
        fsync + rename over the live file, directory fsynced), so a crash
        mid-compaction leaves either the full journal or the compacted
        one, and either recovers exactly: replay skips ops at or below
        the checkpoint's ``op_seq`` whether or not they are still in the
        file.  The new header records ``compacted_at_seq`` and the rewrite
        preserves the event-seq high-water mark.

        An injected ``journal.fsync`` fault (or any real :class:`OSError`)
        aborts the rewrite with the full journal untouched — losing a
        compaction is a missed optimisation, never lost state.
        """
        upto_seq = int(upto_seq)
        with self._lock:
            if self._log.closed:
                return 0
            records = parse_records(self.path.read_text(encoding="utf-8"))
            header = dict(self.header)
            header["compacted_at_seq"] = max(upto_seq, self.compacted_at_seq)
            mark = {"kind": "events", "next_seq": self._last_events_mark}
            tail = [
                record
                for record in records[1:]
                if record.get("kind") == "op"
                and int(record.get("seq", 0)) > upto_seq
            ]
            data = "".join(
                json.dumps(record, separators=(",", ":")) + "\n"
                for record in (header, mark, *tail)
            )
            tmp = self.path.with_name(self.path.name + ".tmp")
            action = fault_gate("journal.fsync")
            try:
                with open(tmp, "w", encoding="utf-8") as handle:
                    handle.write(data)
                    handle.flush()
                    if action == "error":
                        raise OSError(
                            errno.EIO,
                            f"injected fsync failure compacting {self.path}",
                        )
                    os.fsync(handle.fileno())
            except OSError:
                tmp.unlink(missing_ok=True)
                raise
            # Swap the live file under the append handle: close, rename,
            # reopen in append mode on the new inode.  All under the lock,
            # so no op or events mark can land between close and reopen.
            flushes = self._log.flushes
            self._log.close()
            os.replace(tmp, self.path)
            _fsync_dir(self.path.parent)
            self._log = AppendOnlyLog(self.path)
            self._log.flushes = flushes
            self.header = header
            return len(tail)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._log.close()

    def delete(self) -> None:
        """Close and remove the file (the session is gone for good)."""
        self.close()
        self.path.unlink(missing_ok=True)

    def quarantine(self) -> Path:
        """Sideline an unappendable journal as ``<name>.jsonl.broken``.

        Called when a journal append hits a real disk fault: the session
        degrades to ephemeral, and the valid prefix is preserved under a
        name the recovery scan ignores (post-mortem evidence, never a
        half-trusted recovery source).  Returns the quarantine path.
        """
        self.close()
        broken = self.path.with_name(self.path.name + ".broken")
        try:
            os.replace(self.path, broken)
        except OSError:
            return self.path
        return broken

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SessionJournal(path={str(self.path)!r}, "
            f"ops={len(self.recovered_ops)}, "
            f"events_next_seq={self.events_next_seq})"
        )


class EventRing:
    """Bounded replay buffer assigning ``(session, seq)`` event cursors.

    :meth:`stamp` gives a frame the next monotonic seq and retains it;
    :meth:`replay` returns the retained frames at or after a cursor, plus
    the resume point when the cursor cannot be honoured — either because
    it fell off the ring (events evicted) or because it points past
    :attr:`next_seq` (a pre-crash cursor beyond the recovered high-water
    mark).  Both cases mean the subscriber missed frames it can never get
    back, which the server surfaces as a typed ``gap`` event.
    """

    def __init__(self, capacity: int = 1024, next_seq: int = 1) -> None:
        self.capacity = max(1, int(capacity))
        self.next_seq = max(1, int(next_seq))
        #: Frames dropped off the ring since construction.
        self.dropped = 0
        self._frames: list[dict[str, Any]] = []

    @property
    def oldest_seq(self) -> int:
        """Seq of the oldest retained frame (== ``next_seq`` when empty)."""
        return self._frames[0]["seq"] if self._frames else self.next_seq

    def __len__(self) -> int:
        return len(self._frames)

    def stamp(self, frame: dict[str, Any]) -> dict[str, Any]:
        """Assign the next seq to ``frame``, retain it, and return it."""
        frame["seq"] = self.next_seq
        self.next_seq += 1
        self._frames.append(frame)
        overflow = len(self._frames) - self.capacity
        if overflow > 0:
            del self._frames[:overflow]
            self.dropped += overflow
        return frame

    def replay(
        self, from_seq: int
    ) -> tuple[list[dict[str, Any]], int | None]:
        """Frames with ``seq >= from_seq``, plus a gap resume point.

        Returns ``(frames, resume_seq)``.  ``resume_seq`` is ``None`` when
        the cursor is fully honoured; otherwise it is the earliest seq the
        subscriber can actually resume from (the oldest retained frame, or
        ``next_seq`` for a future cursor) and ``frames`` holds whatever is
        still available from there.
        """
        from_seq = max(1, int(from_seq))
        if from_seq > self.next_seq:
            return [], self.next_seq
        if from_seq < self.oldest_seq:
            return list(self._frames), self.oldest_seq
        return [frame for frame in self._frames if frame["seq"] >= from_seq], None


def clear_stale_socket(path: Path | str) -> str:
    """Make way for binding a UNIX socket at ``path``.

    Returns ``"absent"`` (nothing there), ``"removed"`` (a dead socket file
    from a killed predecessor was unlinked) or raises :class:`OSError`
    (``EADDRINUSE``) when a live server still accepts connections on it —
    never steal a running server's socket.
    """
    path = Path(path)
    if not path.exists():
        return "absent"
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    probe.settimeout(0.5)
    try:
        probe.connect(str(path))
    except OSError:
        path.unlink(missing_ok=True)
        return "removed"
    finally:
        probe.close()
    raise OSError(
        errno.EADDRINUSE,
        f"socket {path} is in use by a live server; refusing to replace it",
    )
