"""Typed, reconnecting clients for the preference server: one state machine.

:class:`AsyncPreferenceClient` is the client.  It speaks the NDJSON
protocol of :mod:`repro.serve.protocol` on an event loop: a reader task
demultiplexes incoming lines into per-request futures (responses, matched
on ``id``) and an :class:`asyncio.Queue` (events), so many requests may be
in flight at once — the load harness drives its whole request fan-out
through one of these per simulated session.  :class:`PreferenceClient` is
the blocking form for scripts and CI: a thin facade that runs one
``AsyncPreferenceClient`` on a private event-loop thread and holds no
connection logic of its own.

Both expose ``call(op, ...)`` for request/response, typed convenience
wrappers (``open_session``, ``probe``, ``run`` …) and an event inbox for
subscribed streams.  A server-side failure raises :class:`ServerSideError`
carrying the wire ``code``/``type`` (plus the ``retry_after_s`` hint on
``overloaded`` sheds) — the client never has to parse error frames by hand.

Failures are typed and survivable:

* Every wait for a response is bounded by ``timeout_s`` and raises
  :class:`TimeoutError` when it runs out.
* A dead peer (EOF, ``OSError``, a torn half-written frame) surfaces as
  :class:`~repro.errors.ConnectionLost` carrying the per-session last-seen
  event cursors — never a raw ``OSError`` or ``json.JSONDecodeError``.
* With ``auto_reconnect`` (the default) the client redials with capped
  exponential backoff (``reconnect_attempts``, ``backoff_base_s``,
  ``backoff_cap_s``) and **resumes every subscribed stream** via
  ``subscribe(from_seq=last_seen + 1)``, so a server restart costs
  subscribers nothing the replay ring still holds; a cursor that fell off
  the ring arrives as a typed ``gap`` event (resnapshot and carry on).
  Idempotent ops (``ping``, ``snapshot``, ``board``, ``run``, …) are
  retried transparently after a reconnect; mutating ops (``probe``,
  ``report``, …) raise :class:`ConnectionLost` — their outcome is unknown
  — while the restored connection stays usable for the next call.  A
  reconnect that runs out of attempts fails the calls waiting on it; the
  next call starts a fresh attempt budget.
* While a caller waits for events (``next_event``, and through it the
  facade's ``wait_event``), ``heartbeat_s`` of silence sends a ``ping``; a
  ping still unanswered after another ``heartbeat_s`` drops the connection,
  which takes the reconnect-and-resume path.  This catches peers that died
  without closing the socket.

Admission-control sheds are honoured, not just surfaced: a typed retryable
error frame (``overloaded``, ``quota-exceeded``) means the server refused
the request *before* executing it, so the client sleeps the frame's
``retry_after_s`` hint and re-issues — any op, mutating ones included — up
to ``shed_retries`` times (0 disables, surfacing every shed).

Reconnect bookkeeping is exposed on ``client.stats`` (``reconnects``,
``resubscribes``, ``heartbeats``, ``gaps``, ``sheds``).
"""

from __future__ import annotations

import asyncio
import collections
import functools
import threading
import time
from pathlib import Path
from typing import Any, Awaitable, Callable, Coroutine

from repro.errors import ConnectionLost, ReproError
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    ServeError,
    decode_frame,
    encode_frame,
)

__all__ = [
    "ConnectionLost",
    "ServerSideError",
    "PreferenceClient",
    "AsyncPreferenceClient",
]

#: Ops that are safe to re-issue after a reconnect: reads, subscription
#: management, and ``run`` (which never mutates session state and is
#: deterministic for the session's ``(spec, seed)``, so a re-run returns
#: bit-identical rows).  Everything else may have executed before the
#: connection died, so the client surfaces ``ConnectionLost`` instead of
#: guessing.
IDEMPOTENT_OPS = frozenset(
    {"ping", "sessions", "snapshot", "board", "subscribe", "unsubscribe", "run"}
)

Dial = Callable[[], Awaitable[tuple[asyncio.StreamReader, asyncio.StreamWriter]]]


class ServerSideError(ReproError):
    """An error frame returned by the server, surfaced as an exception."""

    def __init__(self, body: dict[str, Any]) -> None:
        super().__init__(f"[{body.get('code')}] {body.get('message')}")
        self.code = str(body.get("code"))
        self.remote_type = str(body.get("type"))
        #: ``True`` for typed retryable sheds (``overloaded``).
        self.retryable = bool(body.get("retryable", False))
        #: Back-off hint attached to ``overloaded`` frames, else ``None``.
        self.retry_after_s = (
            float(body["retry_after_s"]) if "retry_after_s" in body else None
        )


class AsyncPreferenceClient:
    """Asyncio client with concurrent in-flight requests.

    Build one with :meth:`connect`; the options are described in the
    module docstring.  A background reader task resolves response futures
    by ``id`` and pushes events onto :attr:`events`; :meth:`next_event`
    awaits them with heartbeats.  Safe for many outstanding ``call``\\ s at
    once, which is what the serving benchmark leans on.
    """

    def __init__(
        self,
        dial: Dial,
        timeout_s: float = 60.0,
        auto_reconnect: bool = True,
        reconnect_attempts: int = 8,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        heartbeat_s: float = 10.0,
        shed_retries: int = 4,
    ) -> None:
        self._dial = dial
        self.timeout_s = float(timeout_s)
        self.auto_reconnect = bool(auto_reconnect)
        self.reconnect_attempts = max(1, int(reconnect_attempts))
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self.heartbeat_s = float(heartbeat_s)
        self.shed_retries = max(0, int(shed_retries))
        #: ``{session: last event seq observed}`` — the resume cursors.
        self.last_seen: dict[str, int] = {}
        self.stats = {
            "reconnects": 0,
            "resubscribes": 0,
            "heartbeats": 0,
            "gaps": 0,
            "sheds": 0,
        }
        self.events: asyncio.Queue[dict[str, Any]] = asyncio.Queue()
        self._subscribed: set[str] = set()
        self._next_id = 0
        self._pending: dict[int, asyncio.Future] = {}
        self._awaiting_pong = False
        self._closing = False
        #: Why the connection is down (``None`` while it is up).
        self._lost: ConnectionLost | None = None
        self._reconnect_task: asyncio.Task | None = None
        self._writer: asyncio.StreamWriter
        self._reader_task: asyncio.Task

    @classmethod
    async def connect(
        cls,
        host: str | None = None,
        port: int | None = None,
        socket_path: str | Path | None = None,
        **options: Any,
    ) -> "AsyncPreferenceClient":
        async def dial() -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
            if socket_path is not None:
                return await asyncio.open_unix_connection(
                    str(socket_path), limit=MAX_FRAME_BYTES
                )
            return await asyncio.open_connection(
                host, port, limit=MAX_FRAME_BYTES
            )

        client = cls(dial, **options)
        await client._open()
        return client

    async def close(self) -> None:
        self._closing = True
        if self._reconnect_task is not None:
            self._reconnect_task.cancel()
            await asyncio.wait({self._reconnect_task})
        # Read after the reconnect stopped: it may have started a new loop.
        self._reader_task.cancel()
        await asyncio.wait({self._reader_task})
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "AsyncPreferenceClient":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Connection state: open, read, drop, reconnect
    # ------------------------------------------------------------------
    def _error(self, reason: str) -> ConnectionLost:
        return ConnectionLost(f"connection lost: {reason}", self.last_seen)

    async def _open(self) -> None:
        """Dial once (bounded by ``timeout_s``) and start the read loop."""
        async with asyncio.timeout(self.timeout_s):
            reader, writer = await self._dial()
        self._writer = writer
        self._awaiting_pong = False
        self._reader_task = asyncio.create_task(self._read_loop(reader, writer))

    async def _read_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    raise self._error("server closed the connection")
                try:
                    frame = decode_frame(line)
                except ServeError as error:
                    # A torn or garbled line is a dying peer, not a protocol
                    # bug on our side — type it accordingly.
                    raise self._error(f"unreadable frame ({error})") from error
                self._awaiting_pong = False  # any full frame proves liveness
                if "event" in frame:
                    self._note_event(frame)
                    self.events.put_nowait(frame)
                    continue
                future = self._pending.pop(frame.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(frame)
        except asyncio.CancelledError:
            raise
        except Exception as error:  # noqa: BLE001 - fail every waiter, typed
            writer.transport.abort()
            lost = error if isinstance(error, ConnectionLost) else self._error(str(error))
            self._lost = lost
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(lost)
            self._pending.clear()
            if self.auto_reconnect and not self._closing:
                self._reconnect_task = asyncio.create_task(self._reconnect())

    def _note_event(self, frame: dict[str, Any]) -> None:
        """Update the resume cursors from one incoming event frame."""
        session = frame.get("session")
        if frame.get("event") == "gap":
            # The server cannot replay from our cursor; resume from where
            # the stream actually restarts (the caller should resnapshot).
            self.stats["gaps"] += 1
            resume = frame.get("resume_seq")
            if isinstance(session, str) and resume is not None:
                self.last_seen[session] = int(resume) - 1
            return
        seq = frame.get("seq")
        if isinstance(session, str) and seq is not None:
            self.last_seen[session] = max(self.last_seen.get(session, 0), int(seq))
        if frame.get("event") == "session-evicted" and isinstance(session, str):
            self._subscribed.discard(session)

    async def _reconnect(self) -> None:
        """Redial with capped exponential backoff, then resume every
        subscribed stream from its cursor.  Running out of attempts leaves
        the reason in ``_lost`` for the calls waiting on this task."""
        for attempt in range(self.reconnect_attempts):
            if attempt:
                await asyncio.sleep(
                    min(self.backoff_base_s * 2 ** (attempt - 1), self.backoff_cap_s)
                )
            try:
                await self._open()
                break
            except OSError as error:
                self._lost = self._error(
                    f"reconnect failed after {attempt + 1} attempt(s): {error}"
                )
        else:
            return
        self._lost = None
        self.stats["reconnects"] += 1
        for session in sorted(self._subscribed):
            try:
                await self._call_once(
                    "subscribe", session,
                    {"from_seq": self.last_seen.get(session, 0) + 1},
                )
                self.stats["resubscribes"] += 1
            except ServerSideError:
                # The restarted server no longer knows this session (it was
                # ephemeral, or evicted).  Surface that as an event rather
                # than failing the whole reconnect.
                self._subscribed.discard(session)
                self.events.put_nowait({
                    "event": "session-evicted",
                    "session": session,
                    "reason": "lost-on-reconnect",
                })
            except ConnectionLost:
                return  # the new read loop scheduled the next reconnect

    async def _ensure_connected(self) -> None:
        """Return once the connection is up.

        Waits out a reconnect in flight; on a dead connection with none in
        flight, starts one with a fresh attempt budget.  Raises
        :class:`ConnectionLost` when the reconnect it waited on gave up.
        """
        waited = False
        while True:
            task = self._reconnect_task
            if task is not None and not task.done():
                await asyncio.wait({task})
                waited = True
                continue
            if not self._reader_task.done():
                return
            if waited or not self.auto_reconnect or self._closing:
                raise self._lost or self._error("client is closed")
            self._reconnect_task = asyncio.create_task(self._reconnect())

    async def _heartbeat(self) -> None:
        """A heartbeat window passed in silence: ping the server, or drop
        the connection when the previous ping went unanswered."""
        writer, reader_task = self._writer, self._reader_task
        if reader_task.done():
            return  # already down; the next wait reconnects
        if self._awaiting_pong:
            # Drop the connection: its read loop fails the waiters and
            # schedules the reconnect.
            writer.transport.abort()
            await asyncio.wait({reader_task})
            return
        self._awaiting_pong = True
        self.stats["heartbeats"] += 1
        self._next_id += 1
        writer.write(encode_frame({"id": self._next_id, "op": "ping", "params": {}}))

    # ------------------------------------------------------------------
    # Core protocol
    # ------------------------------------------------------------------
    async def _call_once(
        self, op: str, session: str | None, params: dict[str, Any]
    ) -> Any:
        self._next_id += 1
        request_id = self._next_id
        frame: dict[str, Any] = {"id": request_id, "op": op, "params": params}
        if session is not None:
            frame["session"] = session
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        writer, reader_task = self._writer, self._reader_task
        try:
            try:
                writer.write(encode_frame(frame))
                await writer.drain()
            except (ConnectionError, OSError):
                writer.transport.abort()  # the read loop fails the future
            # Waiting on the future alone could hang if the reader died
            # before this request registered; racing it against the read
            # loop turns that into a typed loss.
            done, _ = await asyncio.wait(
                {future, reader_task}, timeout=self.timeout_s,
                return_when=asyncio.FIRST_COMPLETED,
            )
        finally:
            self._pending.pop(request_id, None)
        if not done:
            raise TimeoutError(f"no response to {op!r} within {self.timeout_s}s")
        if not future.done():
            raise self._error("connection lost awaiting response")
        response = future.result()
        if response.get("ok"):
            return response.get("result")
        raise ServerSideError(response.get("error") or {})

    async def call(
        self,
        op: str,
        session: str | None = None,
        retry: bool | None = None,
        **params: Any,
    ) -> Any:
        """Send one request and await its response.

        On connection loss the client reconnects (capped backoff) and —
        for idempotent ops, or when ``retry=True`` — re-issues the
        request.  Mutating ops raise :class:`ConnectionLost` after the
        reconnect: their outcome on the dead connection is unknown, and
        the caller must decide (the restored connection is ready for the
        next call either way).

        Typed retryable sheds (``overloaded``, ``quota-exceeded``) are
        different: the server refused the request *before* executing it,
        so any op — mutating or not — is safe to re-issue.  The client
        sleeps the frame's ``retry_after_s`` hint and retries up to
        ``shed_retries`` times before surfacing the error.
        """
        retryable = (op in IDEMPOTENT_OPS) if retry is None else bool(retry)
        attempts = 0
        sheds = 0
        while True:
            await self._ensure_connected()
            try:
                return await self._call_once(op, session, params)
            except ServerSideError as error:
                if not error.retryable or sheds >= self.shed_retries:
                    raise
                sheds += 1
                self.stats["sheds"] += 1
                await asyncio.sleep(
                    min(
                        self.backoff_cap_s,
                        error.retry_after_s or self.backoff_base_s,
                    )
                )
            except ConnectionLost:
                if not self.auto_reconnect:
                    raise
                attempts += 1
                await self._ensure_connected()  # raises when exhausted
                if not retryable or attempts > 2:
                    raise

    async def next_event(
        self, event: str | None = None, timeout_s: float = 30.0
    ) -> dict[str, Any]:
        """Await the next event, optionally of one kind (others are dropped).

        A window of ``heartbeat_s`` silence sends a ``ping``; one still
        unanswered a window later drops the connection.  With no event
        queued, a dead connection is re-established first, as for a call.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        while True:
            if self.events.empty():
                await self._ensure_connected()
            remaining = deadline - loop.time()
            if remaining <= 0:
                raise TimeoutError(f"no {event or 'any'} event within {timeout_s}s")
            window = min(remaining, self.heartbeat_s)
            try:
                async with asyncio.timeout(window):
                    frame = await self.events.get()
            except TimeoutError:
                if window == self.heartbeat_s:
                    await self._heartbeat()
                continue
            if event is None or frame.get("event") == event:
                return frame

    # ------------------------------------------------------------------
    # Typed convenience wrappers
    # ------------------------------------------------------------------
    async def ping(self) -> dict[str, Any]:
        return await self.call("ping")

    async def open_session(
        self,
        scenario: str,
        seed: int = 0,
        overrides: dict[str, Any] | None = None,
        **params: Any,
    ) -> str:
        result = await self.call(
            "open", scenario=scenario, seed=seed, overrides=overrides or {}, **params
        )
        return result["session"]

    async def probe(
        self, session: str, player: int, objects: list[int]
    ) -> dict[str, Any]:
        return await self.call("probe", session=session, player=player, objects=objects)

    async def report(
        self, session: str, channel: str, player: int,
        objects: list[int], values: list[int],
    ) -> dict[str, Any]:
        return await self.call(
            "report", session=session, channel=channel,
            player=player, objects=objects, values=values,
        )

    async def run(self, session: str, trials: int = 1, **params: Any) -> dict[str, Any]:
        return await self.call("run", session=session, trials=trials, **params)

    async def subscribe(
        self, session: str, from_seq: int | None = None
    ) -> dict[str, Any]:
        params = {} if from_seq is None else {"from_seq": int(from_seq)}
        result = await self.call("subscribe", session=session, **params)
        self._subscribed.add(session)
        if isinstance(result, dict) and "next_seq" in result:
            # Baseline the cursor at the server's current position so a
            # later resume starts from "everything after subscription".
            self.last_seen.setdefault(session, int(result["next_seq"]) - 1)
        return result

    async def snapshot(self, session: str) -> dict[str, Any]:
        return await self.call("snapshot", session=session)

    async def shutdown_server(self) -> dict[str, Any]:
        return await self.call("shutdown", retry=False)


def _blocking(name: str) -> Callable[..., Any]:
    """The facade's blocking form of ``AsyncPreferenceClient.<name>``."""
    method = getattr(AsyncPreferenceClient, name)

    @functools.wraps(method)
    def blocking(self: "PreferenceClient", *args: Any, **kwargs: Any) -> Any:
        return self._run(method(self._client, *args, **kwargs))

    return blocking


class PreferenceClient:
    """Blocking facade over :class:`AsyncPreferenceClient`.

    Runs one async client on a private event-loop thread and blocks on
    each call.  ``connect`` accepts ``"host:port"`` for TCP or a filesystem
    path for a UNIX socket; keyword options are the async client's.  Events
    that arrive are appended to :attr:`events` in arrival order as each
    call returns, and :meth:`wait_event` blocks for one.
    """

    def __init__(self, connect: str, **options: Any) -> None:
        if ":" in connect and not Path(connect).exists():
            host, _, port = connect.rpartition(":")
            address: dict[str, Any] = {"host": host, "port": int(port)}
        else:
            address = {"socket_path": connect}
        self.events: collections.deque[dict[str, Any]] = collections.deque()
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="preference-client", daemon=True
        )
        self._thread.start()
        try:
            self._client = asyncio.run_coroutine_threadsafe(
                AsyncPreferenceClient.connect(**address, **options), self._loop
            ).result()
        except BaseException:
            self._stop_loop()
            raise

    @property
    def last_seen(self) -> dict[str, int]:
        """Per-session last observed event seq (the resume cursors)."""
        return self._client.last_seen

    @property
    def stats(self) -> dict[str, int]:
        """Reconnect/heartbeat/gap/shed counters."""
        return self._client.stats

    def _drain(self) -> None:
        """Move the events the reader queued into :attr:`events` (loop thread)."""
        queue = self._client.events
        while not queue.empty():
            self.events.append(queue.get_nowait())

    def _run(self, coroutine: Coroutine[Any, Any, Any]) -> Any:
        """Block on ``coroutine`` on the loop thread, then drain events."""
        if self._loop.is_closed():
            coroutine.close()
            raise ConnectionLost("client is closed", self.last_seen)

        async def run_and_drain() -> Any:
            try:
                return await coroutine
            finally:
                self._drain()

        future = asyncio.run_coroutine_threadsafe(run_and_drain(), self._loop)
        try:
            return future.result()
        except BaseException:
            future.cancel()  # an interrupt must not leave the call running
            raise

    def _stop_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._loop.close()

    def close(self) -> None:
        if self._loop.is_closed():
            return
        try:
            self._run(self._client.close())
        finally:
            self._stop_loop()

    def __enter__(self) -> "PreferenceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    call = _blocking("call")
    ping = _blocking("ping")
    open_session = _blocking("open_session")
    probe = _blocking("probe")
    report = _blocking("report")
    run = _blocking("run")
    subscribe = _blocking("subscribe")
    snapshot = _blocking("snapshot")
    shutdown_server = _blocking("shutdown_server")

    def wait_event(
        self, event: str | None = None, timeout_s: float = 30.0
    ) -> dict[str, Any]:
        """Block until an event (optionally of one kind) arrives.

        Events of other kinds stay in :attr:`events`.  Waiting runs
        :meth:`AsyncPreferenceClient.next_event`, so silence is covered by
        heartbeats and a lost connection is reconnected and its streams
        resumed before waiting continues.
        """
        return self._run(self._wait_event(event, timeout_s))

    async def _wait_event(self, event: str | None, timeout_s: float) -> dict[str, Any]:
        deadline = time.monotonic() + timeout_s
        while True:
            self._drain()
            for index, frame in enumerate(self.events):
                if event is None or frame.get("event") == event:
                    del self.events[index]
                    return frame
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"no {event or 'any'} event within {timeout_s}s")
            try:
                self.events.append(await self._client.next_event(timeout_s=remaining))
            except TimeoutError:
                pass  # the deadline check above raises with the wanted kind
