"""The asyncio preference server: control plane, publisher, eviction.

``PreferenceServer`` is the control side of the control/state split.  The
event loop owns connections, sessions-table bookkeeping and the two
background tasks; every protocol mutation is handed to the owning session's
single worker thread (:meth:`repro.serve.session.Session.submit`) and
awaited without blocking the loop, so dozens of sessions run concurrently
while each one's state stays single-threaded.

The **publisher** task is the streaming half: on a fixed cadence it walks
every session that has subscribers and emits

* ``round-result`` events — trials drained from the session's results deque
  (fed by ``run_trials``'s ``on_result`` callback while a run is in flight),
  plus a ``degraded`` event for any row that took the fallback path;
* ``board-delta`` events — the per-channel posting counters that changed
  since the last tick (:meth:`BulletinBoard.channel_stats` diffs);
* ``telemetry`` events — the session collection's metric families whenever
  its run-wide counters moved (:meth:`Telemetry.snapshot`, the
  tear-tolerant mid-run read).

Degradation is graceful by construction: per-session backpressure caps the
op queue with a typed retryable ``overloaded`` error (carrying a
``retry_after_s`` hint), stalled subscribers are shed rather than allowed
to stall the publisher (the replay ring lets them resume by cursor), idle
sessions are evicted on a timeout (subscribers get a ``session-evicted``
event), and every library exception crosses the wire as a typed error
frame instead of a dropped connection.

Durability (``state_dir=``): sessions journal their mutating ops
write-ahead via :mod:`repro.serve.durability`, periodically checkpoint
the state their ops change (format 4: memo mask, request counts, board
channels, generator state) and compact the log (``checkpoint_every=``),
and a restarted server rebuilds each one from ``prepare`` + checkpoint +
tail replay — falling back to full replay (or skipping, with a typed
warning) when a checkpoint fails verification.  A stale UNIX socket file
is cleared on boot, and graceful shutdown (SIGTERM/SIGINT or the
``shutdown`` op) flushes journals and broadcasts ``server-shutdown``
before exiting.
Eviction and explicit close archive a session's files to
``sessions/<name>.evicted/``.

Admission control: ``max_sessions=`` caps live sessions server-wide and
``session_ops_per_s=`` token-buckets each session's mutating ops; both
shed with typed retryable ``quota-exceeded`` frames (``retry_after_s``
hint) that the clients' backoff paths honour.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import warnings
from pathlib import Path
from typing import Any

from repro.errors import ExperimentError, ReproError
from repro.faults.chaos import degraded_payload
from repro.obs.runtime import collecting, span
from repro.obs.spans import Telemetry
from repro.scenarios.spec import ScenarioSpec
from repro.serve.durability import (
    CheckpointError,
    DurabilityWarning,
    SessionCheckpoint,
    SessionJournal,
    archive_session_state,
    clear_stale_socket,
    scan_state_dir,
    session_checkpoint_path,
    session_journal_path,
    session_ordinal,
)
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    QuotaExceeded,
    ServeError,
    decode_frame,
    encode_frame,
    error_frame,
    ok_frame,
)
from repro.serve.session import DEFAULT_MAX_PENDING, Session, build_spec

__all__ = ["PreferenceServer"]

#: Ops that execute on a session's worker thread.
_SESSION_OPS = frozenset(
    {"probe", "report", "board", "select", "rselect", "election", "run"}
)


class PreferenceServer:
    """Serve live protocol sessions over TCP or a UNIX socket."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_path: str | Path | None = None,
        run_workers: int = 1,
        idle_timeout_s: float | None = None,
        max_pending: int = DEFAULT_MAX_PENDING,
        publish_interval_s: float = 0.25,
        state_dir: str | Path | None = None,
        ring_size: int = 1024,
        send_timeout_s: float = 5.0,
        max_sessions: int | None = None,
        checkpoint_every: int | None = 256,
        session_ops_per_s: float | None = None,
        session_ops_burst: int | None = None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.socket_path = None if socket_path is None else Path(socket_path)
        self.run_workers = max(1, int(run_workers))
        self.idle_timeout_s = idle_timeout_s
        self.max_pending = int(max_pending)
        self.publish_interval_s = float(publish_interval_s)
        #: Durable-session root: per-session write-ahead op logs live under
        #: ``<state_dir>/sessions/``; ``None`` serves ephemeral sessions.
        self.state_dir = None if state_dir is None else Path(state_dir)
        self.ring_size = int(ring_size)
        #: A subscriber whose stream write stalls longer than this is shed
        #: (dropped from the session's subscriber set) — safe because the
        #: replay ring lets it reconnect and resume from its cursor.
        self.send_timeout_s = float(send_timeout_s)
        #: Admission control: a server-wide cap on live sessions (``open``
        #: beyond it sheds with a retryable ``quota-exceeded``) and the
        #: per-session token-bucket op quota handed to every new session.
        self.max_sessions = None if max_sessions is None else max(1, int(max_sessions))
        self.session_ops_per_s = session_ops_per_s
        self.session_ops_burst = session_ops_burst
        #: Checkpoint cadence for durable sessions: snapshot + compact the
        #: journal every N journaled ops (``None``/0 = never — recovery
        #: replays the whole log).
        self.checkpoint_every = (
            max(1, int(checkpoint_every)) if checkpoint_every else None
        )
        #: Server-level telemetry (recovery span + durability counters);
        #: per-session counters live on each session's own collection.
        self.telemetry = Telemetry()
        #: Sessions rebuilt from the state dir at the last boot.
        self.recovered_sessions = 0
        #: Recovery accounting from the last boot, echoed by ``ping``/
        #: ``sessions`` and the serve startup log line.
        self.recovery_stats: dict[str, int] = {
            "sessions_recovered": 0,
            "ops_replayed": 0,
            "checkpoint_loads": 0,
            "checkpoint_fallbacks": 0,
            "sessions_skipped": 0,
        }
        #: Set once the listener is bound; ``address`` is then readable.
        self.ready = threading.Event()
        #: ``("tcp", host, port)`` or ``("unix", path)`` once listening.
        self.address: tuple[Any, ...] | None = None
        self.sessions: dict[str, Session] = {}
        self._session_ids = itertools.count(1)
        self._subscribers: dict[str, set[asyncio.StreamWriter]] = {}
        self._writer_locks: dict[asyncio.StreamWriter, asyncio.Lock] = {}
        self._board_seen: dict[str, dict[str, dict[str, int]]] = {}
        self._counters_seen: dict[str, dict[str, int]] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown: asyncio.Event | None = None
        self._shutdown_requested = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Blocking entry point: serve until shutdown is requested."""
        asyncio.run(self.serve_forever())

    def request_shutdown(self) -> None:
        """Ask the server to stop; safe to call from any thread or a
        signal handler (a request landing before the loop exists is
        honoured as soon as it comes up)."""
        self._shutdown_requested = True
        loop, shutdown = self._loop, self._shutdown
        if loop is not None and shutdown is not None:
            loop.call_soon_threadsafe(shutdown.set)

    async def serve_forever(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        if self._shutdown_requested:  # signal arrived before the loop did
            self._shutdown.set()
        if self.state_dir is not None:
            self._recover_sessions()
        if self.socket_path is not None:
            # A socket file left by a SIGKILLed predecessor is removed; a
            # *live* server's socket raises EADDRINUSE instead.
            clear_stale_socket(self.socket_path)
            server = await asyncio.start_unix_server(
                self._handle_connection, path=str(self.socket_path),
                limit=MAX_FRAME_BYTES,
            )
            self.address = ("unix", str(self.socket_path))
        else:
            server = await asyncio.start_server(
                self._handle_connection, self.host, self.port,
                limit=MAX_FRAME_BYTES,
            )
            bound = server.sockets[0].getsockname()
            self.address = ("tcp", bound[0], bound[1])
        self.ready.set()
        publisher = asyncio.create_task(self._publisher_loop())
        evictor = asyncio.create_task(self._evictor_loop())
        try:
            await self._shutdown.wait()
        finally:
            publisher.cancel()
            evictor.cancel()
            for task in (publisher, evictor):
                try:
                    await task
                except asyncio.CancelledError:
                    pass
            # Graceful shutdown: tell every connection, then flush and keep
            # each durable session's journal so a restarted --state-dir
            # server recovers the sessions (explicit closes already removed
            # theirs).  A final publisher pass first, so events produced
            # after the last tick still reach the ring journal's high-water
            # mark and connected subscribers.
            try:
                for name, session in list(self.sessions.items()):
                    await self._publish_session(name, session)
            except Exception:  # pragma: no cover - best-effort final flush
                pass
            for writer in list(self._writer_locks):
                await self._send(
                    writer, {"event": "server-shutdown", "reason": "shutdown"}
                )
            server.close()
            await server.wait_closed()
            for session in self.sessions.values():
                session.close(remove_journal=False)
            self.sessions.clear()
            if self.socket_path is not None:
                self.socket_path.unlink(missing_ok=True)
            self.ready.clear()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover_sessions(self) -> None:
        """Rebuild every journaled session found under the state dir.

        Per session: load the journal, try the checkpoint, and pick the
        cheapest recovery that is still *exact* —

        * valid checkpoint → restore it and replay only the post-checkpoint
          tail (O(checkpoint + tail), the bounded-time path);
        * torn/corrupt/missing checkpoint with the full journal intact →
          fall back to full replay (typed :class:`DurabilityWarning`);
        * torn/corrupt checkpoint *and* a compacted journal → the early
          ops exist nowhere trustworthy; skip the session with a warning
          rather than serve approximately-right state.

        :meth:`serve_forever` calls this on the event loop *before* it binds
        the socket, so the bind waits for the scan: every journal is parsed
        here (:meth:`SessionJournal.load`, which grows with the journal's
        length), and every checkpoint is loaded and checked here, before
        its session is built.  What moves to each session's own worker
        thread is ``prepare()``, the checkpoint install and the op replay;
        client ops queue behind the replay.  Runs under the server
        telemetry as the ``serve.recovery`` span; nothing found in the scan
        can crash boot.
        """
        stats = self.recovery_stats
        for key in stats:
            stats[key] = 0
        self.recovered_sessions = 0
        max_ordinal = 0
        with collecting(self.telemetry), span("serve.recovery"):
            for path in scan_state_dir(self.state_dir):
                journal = None
                try:
                    journal = SessionJournal.load(path)
                    header = journal.header
                    name = str(header.get("session") or path.stem)
                    spec = build_spec(
                        str(header["scenario"]), dict(header.get("overrides") or {})
                    )
                    checkpoint, rejected = self._load_checkpoint(name, journal, spec)
                    if checkpoint is None and journal.compacted_at_seq > 0:
                        journal.close()
                        self.telemetry.add("serve.recovery_skipped", 1)
                        stats["sessions_skipped"] += 1
                        warnings.warn(
                            f"session {name!r} cannot be recovered: its "
                            "journal was compacted and no valid checkpoint "
                            "covers the compacted ops "
                            f"({rejected or 'no checkpoint file'}); skipping it",
                            DurabilityWarning,
                            stacklevel=2,
                        )
                        continue
                    if rejected is not None:
                        warnings.warn(
                            f"session {name!r}: {rejected}; falling back to "
                            "full replay",
                            DurabilityWarning,
                            stacklevel=2,
                        )
                    session = Session(
                        name,
                        spec,
                        int(header.get("seed", 0)),
                        max_pending=int(header.get("max_pending", self.max_pending)),
                        run_workers=self.run_workers,
                        journal=journal,
                        ring_size=self.ring_size,
                        checkpoint=checkpoint,
                        checkpoint_every=self.checkpoint_every,
                        ops_per_s=self.session_ops_per_s,
                        ops_burst=self.session_ops_burst,
                    )
                except (ReproError, ExperimentError, KeyError, ValueError, OSError) as error:
                    # A journal we cannot recover (corrupt header, scenario
                    # no longer registered, a directory wearing a .jsonl
                    # name...) must not take the whole server down; skip it
                    # and serve the rest.
                    if journal is not None:
                        journal.close()
                    self.telemetry.add("serve.recovery_skipped", 1)
                    stats["sessions_skipped"] += 1
                    warnings.warn(
                        f"skipping unrecoverable session state {path}: {error}",
                        DurabilityWarning,
                        stacklevel=2,
                    )
                    continue
                tail_ops = sum(
                    1
                    for op in journal.recovered_ops
                    if op[0] > session.checkpoint_seq
                )
                self.telemetry.add("serve.sessions_recovered", 1)
                if tail_ops:
                    self.telemetry.add("serve.ops_replayed", tail_ops)
                stats["sessions_recovered"] += 1
                stats["ops_replayed"] += tail_ops
                self.sessions[name] = session
                self.recovered_sessions += 1
                max_ordinal = max(max_ordinal, session_ordinal(name))
        self._session_ids = itertools.count(max_ordinal + 1)

    def _load_checkpoint(
        self, name: str, journal: SessionJournal, spec: ScenarioSpec
    ) -> tuple[SessionCheckpoint | None, CheckpointError | None]:
        """``(checkpoint, None)`` for a verified checkpoint, ``(None, None)``
        when there is none, and ``(None, error)`` when verification fails.

        Verification failures — a torn payload, a checksum mismatch, another
        format version, a checkpoint naming a different session, scenario,
        overrides or seed than the journal, one older than the journal's
        compaction point, or state that does not fit the spec's dimensions
        — count as ``checkpoint_fallbacks``; the caller warns once, naming
        the error and whether full replay stands in or the session is skipped.
        """
        ckpt_path = session_checkpoint_path(journal.path)
        if not ckpt_path.is_file():
            return None, None
        try:
            checkpoint = SessionCheckpoint.load(ckpt_path)
            expected = dict(journal.header, session=name)
            for key in ("session", "scenario", "overrides", "seed"):
                if checkpoint.header.get(key) != expected.get(key):
                    raise CheckpointError(
                        f"checkpoint {ckpt_path} names {key} "
                        f"{checkpoint.header.get(key)!r}, journal says "
                        f"{expected.get(key)!r}"
                    )
            if checkpoint.op_seq < journal.compacted_at_seq:
                raise CheckpointError(
                    f"checkpoint {ckpt_path} (op_seq {checkpoint.op_seq}) "
                    "is older than the journal's compaction point "
                    f"({journal.compacted_at_seq})"
                )
            checkpoint.check_fits(
                int(spec.population.n_players), int(spec.population.n_objects)
            )
        except CheckpointError as error:
            self.telemetry.add("serve.checkpoint_fallbacks", 1)
            self.recovery_stats["checkpoint_fallbacks"] += 1
            return None, error
        self.telemetry.add("serve.checkpoint_loads", 1)
        self.recovery_stats["checkpoint_loads"] += 1
        return checkpoint, None

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writer_locks[writer] = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(writer, error_frame(
                        None, ServeError("frame-too-large", "request line too long")
                    ))
                    break
                if not line:
                    break
                # One task per request: a long op (a full run) must not
                # stall this connection's cheap ops behind it.
                task = asyncio.create_task(self._serve_request(line, writer))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except asyncio.CancelledError:
            # Server shutdown cancels handler tasks mid-read; asyncio's
            # stream machinery logs the propagated CancelledError as an
            # unhandled exception, so end the task quietly instead.
            pass
        except (ConnectionError, OSError):
            pass  # client went away mid-read; cleanup below is enough
        finally:
            for task in tasks:
                task.cancel()
            self._drop_writer(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                # Cancellation can land again on this await when the whole
                # server tears down; the transport is closed either way.
                pass

    async def _serve_request(
        self, line: bytes, writer: asyncio.StreamWriter
    ) -> None:
        request_id: Any = None
        try:
            frame = decode_frame(line)
            request_id = frame.get("id")
            result = await self._dispatch(frame, writer)
            await self._send(writer, ok_frame(request_id, result))
        except (ServeError, ReproError) as error:
            await self._send(writer, error_frame(request_id, error))
        except (ConnectionError, OSError):
            self._drop_writer(writer)
        except Exception as error:  # noqa: BLE001 - typed frame, never a drop
            await self._send(writer, error_frame(request_id, error))

    async def _dispatch(
        self, frame: dict[str, Any], writer: asyncio.StreamWriter
    ) -> Any:
        op = frame.get("op")
        if not isinstance(op, str):
            raise ServeError("bad-request", "request has no 'op' string")
        params = frame.get("params") or {}
        if not isinstance(params, dict):
            raise ServeError("bad-request", "'params' must be an object")

        if op == "ping":
            return {
                "pong": True,
                "sessions": len(self.sessions),
                "max_sessions": self.max_sessions,
                "durable": self.state_dir is not None,
                "recovered_sessions": self.recovered_sessions,
                "recovery": dict(self.recovery_stats),
            }
        if op == "open":
            return self._op_open(params)
        if op == "sessions":
            return {
                "sessions": [s.describe() for s in self.sessions.values()],
                "recovery": dict(self.recovery_stats),
            }
        if op == "shutdown":
            assert self._loop is not None and self._shutdown is not None
            self._loop.call_soon(self._shutdown.set)  # after the response flushes
            return {"shutting_down": True}

        session = self._session_for(frame)
        if op == "close":
            self._evict(session, reason="closed")
            return {"closed": session.name}
        if op == "subscribe":
            return await self._op_subscribe(session, writer, params)
        if op == "unsubscribe":
            self._subscribers.get(session.name, set()).discard(writer)
            return {"unsubscribed": session.name}
        if op == "snapshot":
            session.touch()
            return session.op_snapshot(params)
        if op in _SESSION_OPS:
            future = session.submit_op(op, params)
            return await asyncio.wrap_future(future)
        raise ServeError("unknown-op", f"unknown op {op!r}")

    async def _op_subscribe(
        self,
        session: Session,
        writer: asyncio.StreamWriter,
        params: dict[str, Any],
    ) -> dict[str, Any]:
        """Subscribe a connection, backfilling from ``from_seq`` if given.

        The backfill loop keeps replaying until the ring yields nothing new
        and only *then* adds the writer to the live subscriber set — the
        final empty replay and the set add happen with no ``await`` in
        between, so no frame can fall between backfill and live delivery.
        A cursor the ring can no longer honour (fell off, or beyond the
        recovered high-water mark) gets one typed ``gap`` event naming the
        seq the stream actually resumes from; the client resnapshots.
        """
        name = session.name
        ring = session.ring
        from_seq = params.get("from_seq")
        replayed = 0
        if from_seq is not None:
            try:
                cursor = int(from_seq)
            except (TypeError, ValueError) as error:
                raise ServeError(
                    "bad-request", "'from_seq' must be an integer"
                ) from error
            gap_sent = False
            while True:
                frames, resume_seq = ring.replay(cursor)
                if resume_seq is not None and not gap_sent:
                    gap_sent = True
                    await self._send(writer, {
                        "event": "gap",
                        "session": name,
                        "requested_seq": cursor,
                        "resume_seq": resume_seq,
                    })
                if not frames:
                    break
                for frame in frames:
                    await self._send(writer, frame)
                replayed += len(frames)
                cursor = ring.next_seq
        self._subscribers.setdefault(name, set()).add(writer)
        return {"subscribed": name, "next_seq": ring.next_seq, "replayed": replayed}

    def _op_open(self, params: dict[str, Any]) -> dict[str, Any]:
        scenario = params.get("scenario")
        if not isinstance(scenario, str):
            raise ServeError("bad-request", "'open' needs a scenario name")
        if self.max_sessions is not None and len(self.sessions) >= self.max_sessions:
            # Admission control: shed before any state is created, typed
            # retryable — a later retry may find a slot freed by close or
            # idle eviction.
            raise QuotaExceeded(
                f"server is at its session cap ({self.max_sessions}); "
                "close a session or retry after eviction",
                retry_after_s=1.0,
            )
        seed = int(params.get("seed", 0))
        overrides = params.get("overrides") or {}
        if not isinstance(overrides, dict):
            raise ServeError("bad-request", "'overrides' must be an object")
        spec = build_spec(scenario, overrides)
        name = f"s{next(self._session_ids)}"
        max_pending = int(params.get("max_pending", self.max_pending))
        journal = None
        if self.state_dir is not None:
            journal = SessionJournal.create(
                session_journal_path(self.state_dir, name),
                session=name,
                scenario=scenario,
                overrides=overrides,
                seed=seed,
                max_pending=max_pending,
            )
        session = Session(
            name, spec, seed,
            max_pending=max_pending,
            run_workers=self.run_workers,
            journal=journal,
            ring_size=self.ring_size,
            checkpoint_every=self.checkpoint_every,
            ops_per_s=self.session_ops_per_s,
            ops_burst=self.session_ops_burst,
        )
        self.sessions[name] = session
        return {
            "session": name,
            "scenario": spec.name,
            "seed": seed,
            "n_players": int(spec.population.n_players),
            "n_objects": int(spec.population.n_objects),
            "protocol": spec.protocol.name,
            "durable": journal is not None,
        }

    def _session_for(self, frame: dict[str, Any]) -> Session:
        name = frame.get("session")
        if not isinstance(name, str):
            raise ServeError("bad-request", "request has no 'session' name")
        session = self.sessions.get(name)
        if session is None:
            raise ServeError("unknown-session", f"no session named {name!r}")
        return session

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    async def _send(self, writer: asyncio.StreamWriter, frame: dict[str, Any]) -> None:
        """Serialise and write one frame under the connection's write lock."""
        lock = self._writer_locks.get(writer)
        if lock is None:
            return
        data = encode_frame(frame)
        try:
            async with lock:
                writer.write(data)
                await writer.drain()
        except (ConnectionError, OSError):
            self._drop_writer(writer)

    def _drop_writer(self, writer: asyncio.StreamWriter) -> None:
        self._writer_locks.pop(writer, None)
        for subscribers in self._subscribers.values():
            subscribers.discard(writer)

    async def _broadcast(self, session_name: str, frame: dict[str, Any]) -> None:
        """Send one frame to every subscriber, shedding stalled ones.

        A subscriber whose write does not complete within
        ``send_timeout_s`` is dropped from the set instead of stalling the
        publisher — safe, not lossy: the frame stays in the session's
        replay ring, so the client reconnects and resumes from its cursor.

        The timeout uses ``asyncio.wait`` rather than ``wait_for``: the
        publisher is cancelled at shutdown, and 3.11's ``wait_for`` can
        swallow a cancellation that races the send completing, leaving the
        publisher alive (and shutdown hung on awaiting it) forever.
        """
        for writer in list(self._subscribers.get(session_name, ())):
            send = asyncio.ensure_future(self._send(writer, frame))
            _done, pending = await asyncio.wait(
                {send}, timeout=self.send_timeout_s
            )
            if pending:
                send.cancel()
                self._drop_writer(writer)

    async def _publisher_loop(self) -> None:
        while True:
            await asyncio.sleep(self.publish_interval_s)
            for name in list(self.sessions):
                session = self.sessions.get(name)
                if session is None:
                    continue
                await self._publish_session(name, session)

    async def _publish_session(self, name: str, session: Session) -> None:
        """One publisher tick for one session.

        Every tick's events are stamped into the session's replay ring
        whether or not anyone is currently subscribed — the ring *is* the
        pub/sub buffer, so a client that subscribes (or reconnects) later
        can still backfill them by cursor.  For durable sessions the
        event-seq high-water mark is journaled *before* any frame is sent:
        a crash can therefore lose seqs that were never delivered (they
        are simply reissued for new events after recovery) but can never
        reissue a seq some client has already seen.
        """
        frames: list[dict[str, Any]] = []
        while session.rounds:
            payload = session.rounds.popleft()
            row = payload["row"]
            frames.append({"event": "round-result", "session": name, "row": row})
            degraded = degraded_payload(row)
            if degraded is not None:
                frames.append({"event": "degraded", "session": name, **degraded})
        if session.prepared_ready():
            stats = session.prepared.context.board.channel_stats()
            seen = self._board_seen.get(name, {})
            delta = {
                channel: counts
                for channel, counts in stats.items()
                if seen.get(channel) != counts
            }
            if delta:
                self._board_seen[name] = stats
                frames.append(
                    {"event": "board-delta", "session": name, "channels": delta}
                )
        report = session.telemetry.snapshot()
        counters = report.counters
        if counters and counters != self._counters_seen.get(name, {}):
            self._counters_seen[name] = counters
            frames.append({
                "event": "telemetry",
                "session": name,
                "metrics": report.metrics_block(),
            })
        if not frames:
            return
        stamped = [session.ring.stamp(frame) for frame in frames]
        # Capture the reference: a disk fault on the session worker can
        # degrade the session (journal -> None) between check and call.
        journal = session.journal
        if journal is not None:
            journal.record_events_mark(session.ring.next_seq)
        for frame in stamped:
            await self._broadcast(name, frame)

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    async def _evictor_loop(self) -> None:
        if self.idle_timeout_s is None:
            return
        interval = max(0.05, min(1.0, self.idle_timeout_s / 4.0))
        while True:
            await asyncio.sleep(interval)
            for name in list(self.sessions):
                session = self.sessions.get(name)
                if session is not None and session.idle_for() > self.idle_timeout_s:
                    await self._broadcast(name, session.ring.stamp({
                        "event": "session-evicted",
                        "session": name,
                        "reason": "idle",
                        "idle_s": round(session.idle_for(), 3),
                    }))
                    self._evict(session, reason="idle")

    def _evict(self, session: Session, reason: str) -> None:
        # Eviction (idle) and explicit close both end the session for good;
        # its journal + checkpoint are *archived* (sessions/<name>.evicted/)
        # rather than deleted: the recovery scan skips the archive, so a
        # restart does not resurrect the session, but the files survive for
        # post-mortem instead of vanishing with it.
        session.close(remove_journal=False)
        if self.state_dir is not None:
            try:
                archive_session_state(self.state_dir, session.name)
            except OSError:  # pragma: no cover - archive is best-effort
                pass
        self.sessions.pop(session.name, None)
        self._subscribers.pop(session.name, None)
        self._board_seen.pop(session.name, None)
        self._counters_seen.pop(session.name, None)
