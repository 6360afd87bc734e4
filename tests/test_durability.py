"""Tests for session durability: journals, replay rings, crash recovery.

The load-bearing properties from the durability acceptance criteria:

* **Write-ahead recovery** — after a crash at an *arbitrary* prefix of the
  journaled op sequence (including a torn final record), restart + replay
  rebuilds a session whose board, oracle accounting and subsequent op
  results are bit-identical to a never-crashed session that executed the
  same prefix.
* **Replayable streams** — every published event carries a monotonic
  ``(session, seq)`` cursor; ``subscribe(from_seq=)`` backfills retained
  frames, and a cursor that fell off the ring yields one typed ``gap``
  event (never silent loss) after which a resnapshot restores full state.
* **Reconnecting clients** — connection loss is a typed
  :class:`~repro.errors.ConnectionLost` (with last-seen cursors), never a
  raw ``OSError``; with auto-reconnect the client redials with capped
  backoff, resumes subscriptions from its cursors, and retries idempotent
  ops transparently across a server restart on the same UNIX socket.
* **Restart hygiene** — a stale socket file from a killed server is
  cleared at boot, a live server's socket is never stolen, and graceful
  shutdown broadcasts ``server-shutdown`` and keeps journals recoverable.
* **Bounded-time recovery** — periodic checkpoints snapshot the state
  session ops change (memo mask, request counts, board channels,
  generator state) behind a checksummed, atomically-written header and
  the journal compacts to the post-checkpoint suffix; recovery from
  checkpoint + tail is bit-identical to full replay and to a
  never-crashed twin, for crash points including mid-checkpoint and
  mid-compaction.  A torn, corrupt, older-format or mismatched
  checkpoint degrades to full replay (or a skipped session when the
  journal was already compacted) with a typed
  :class:`DurabilityWarning` — never wrong state.
* **Disk-fault hardening** — injected ``journal.append`` /
  ``journal.fsync`` / ``checkpoint.write`` faults degrade durability
  (ephemeral fallback, kept journal) without corrupting session state,
  and a hostile state dir (torn tails, empty files, corrupt headers,
  foreign files) can never crash boot.
* **Admission control** — per-session op quotas and the server-wide
  session cap shed with typed retryable ``quota-exceeded`` frames whose
  ``retry_after_s`` both clients honour.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import pickle
import re
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.errors import ConnectionLost, ExperimentError
from repro.faults import FaultInjector, FaultPlan, PlannedFault, installed
from repro.scenarios.engine import prepare
from repro.serve.client import (
    AsyncPreferenceClient,
    PreferenceClient,
    ServerSideError,
)
from repro.serve.durability import (
    CheckpointError,
    DurabilityWarning,
    EventRing,
    SessionCheckpoint,
    SessionJournal,
    archive_session_state,
    clear_stale_socket,
    scan_state_dir,
    session_archive_dir,
    session_checkpoint_path,
    session_journal_path,
    session_ordinal,
)
from repro.serve.protocol import QuotaExceeded, ServeError
from repro.serve.server import PreferenceServer
from repro.serve.session import Session, _OpQuota, build_spec

SCENARIO = "zero-radius-exact"

#: A mixed mutating-op script against SCENARIO; every entry is journaled.
#: The select samples 5 of its 16 objects, so it draws from the shared
#: generator (and probes and posts on the board).
OP_SCRIPT = [
    ("probe", {"player": 0, "objects": [0, 1, 2]}),
    ("report", {"channel": "c1", "player": 1, "objects": [0, 1], "values": [1, 0]}),
    ("select", {
        "objects": list(range(16)),
        "candidates": [[0] * 16, [1] * 16, [0, 1] * 8],
        "sample_size": 5,
    }),
    ("probe", {"player": 2, "objects": [3, 7]}),
    ("election", {"seed": 5}),
    ("report", {"channel": "c2", "player": 0, "objects": [2, 4], "values": [1, 1]}),
    ("probe", {"player": 0, "objects": [0, 3]}),
]


def _drive(session: Session, ops) -> list:
    """Apply ops through the journaling entry point, returning results."""
    return [session.submit_op(op, dict(params)).result() for op, params in ops]


def _settle(session: Session) -> None:
    """Barrier: wait until prepare + any queued replay have run."""
    session.submit(lambda: None).result()


def _ckpt_path(state_dir, name: str = "s1"):
    return session_checkpoint_path(session_journal_path(state_dir, name))


def _context_state(context) -> tuple:
    """Everything session ops change: every board channel's packed rows,
    the oracle's memo mask and request counts, and the shared generator."""
    channels = context.board.export_channels("")["reports"]
    probed, requests = context.oracle.probe_state()
    return (
        {
            channel: (values.tobytes(), posted.tobytes())
            for channel, (values, posted) in channels.items()
        },
        probed.tobytes(),
        requests.tolist(),
        context.oracle.probes_used().tolist(),
        context.randomness.generator.bit_generator.state,
    )


def _session_state(session: Session) -> tuple:
    """The state a recovered session must reproduce exactly."""
    _settle(session)
    return _context_state(session.prepared.context)


def _disk_fault(site: str, action: str, occurrence: int = 0):
    """Ambient injector arming one disk fault at the site's n-th call."""
    plan = FaultPlan(faults=(
        PlannedFault(site=site, point=0, occurrence=occurrence, action=action),
    ))
    return installed(FaultInjector(plan, point=0, attempt=0))


class TestEventRing:
    def test_stamp_assigns_monotonic_seqs(self):
        ring = EventRing(capacity=8)
        frames = [ring.stamp({"event": "e", "n": n}) for n in range(5)]
        assert [f["seq"] for f in frames] == [1, 2, 3, 4, 5]
        assert ring.next_seq == 6
        assert ring.oldest_seq == 1
        assert len(ring) == 5

    def test_capacity_trims_oldest_and_counts_drops(self):
        ring = EventRing(capacity=3)
        for n in range(7):
            ring.stamp({"event": "e", "n": n})
        assert len(ring) == 3
        assert ring.dropped == 4
        assert ring.oldest_seq == 5

    def test_replay_honours_retained_cursor(self):
        ring = EventRing(capacity=8)
        for n in range(5):
            ring.stamp({"event": "e", "n": n})
        frames, resume = ring.replay(3)
        assert resume is None
        assert [f["seq"] for f in frames] == [3, 4, 5]
        # A cursor at next_seq is fully honoured: nothing to replay yet.
        frames, resume = ring.replay(ring.next_seq)
        assert (frames, resume) == ([], None)

    def test_replay_gap_when_cursor_fell_off_the_ring(self):
        ring = EventRing(capacity=3)
        for n in range(7):
            ring.stamp({"event": "e", "n": n})
        frames, resume = ring.replay(1)
        assert resume == ring.oldest_seq == 5
        assert [f["seq"] for f in frames] == [5, 6, 7]

    def test_replay_gap_for_future_cursor(self):
        # A pre-crash cursor beyond the recovered high-water mark: the ring
        # restarts empty at a lower next_seq than the client has seen.
        ring = EventRing(capacity=8, next_seq=4)
        frames, resume = ring.replay(9)
        assert frames == []
        assert resume == 4


class TestSessionJournal:
    def test_create_load_roundtrip(self, tmp_path):
        path = session_journal_path(tmp_path, "s1")
        journal = SessionJournal.create(
            path, session="s1", scenario=SCENARIO,
            overrides={"population.n_players": 16}, seed=7, max_pending=4,
        )
        journal.record_op(1, "probe", {"player": 0, "objects": [0]})
        journal.record_op(2, "report", {"channel": "c", "player": 1,
                                        "objects": [0], "values": [1]})
        journal.record_events_mark(5)
        journal.close()

        loaded = SessionJournal.load(path)
        assert loaded.header["scenario"] == SCENARIO
        assert loaded.header["overrides"] == {"population.n_players": 16}
        assert loaded.header["seed"] == 7
        assert [op for _seq, op, _p in loaded.recovered_ops] == ["probe", "report"]
        assert loaded.next_op_seq == 3
        assert loaded.events_next_seq == 5
        loaded.close()

    def test_torn_tail_mid_op_record_is_dropped(self, tmp_path):
        path = session_journal_path(tmp_path, "s1")
        journal = SessionJournal.create(
            path, session="s1", scenario=SCENARIO,
            overrides=None, seed=0, max_pending=32,
        )
        journal.record_op(1, "probe", {"player": 0, "objects": [0]})
        journal.record_op(2, "probe", {"player": 1, "objects": [1]})
        journal.close()
        # Simulate the crash landing mid-append of op 3.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "op", "seq": 3, "op": "pro')

        loaded = SessionJournal.load(path)
        assert [seq for seq, _op, _p in loaded.recovered_ops] == [1, 2]
        assert loaded.next_op_seq == 3
        loaded.close()

    def test_file_without_header_is_rejected(self, tmp_path):
        path = tmp_path / "sessions" / "bad.jsonl"
        path.parent.mkdir(parents=True)
        path.write_text('{"kind": "op", "seq": 1, "op": "probe", "params": {}}\n')
        with pytest.raises(ExperimentError):
            SessionJournal.load(path)

    def test_events_mark_is_idempotent_per_value(self, tmp_path):
        path = session_journal_path(tmp_path, "s1")
        journal = SessionJournal.create(
            path, session="s1", scenario=SCENARIO,
            overrides=None, seed=0, max_pending=32,
        )
        for mark in (4, 4, 3, 4, 6):
            journal.record_events_mark(mark)
        journal.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 3  # header + marks 4 and 6 only
        assert SessionJournal.load(path).events_next_seq == 6

    def test_session_ordinal(self):
        assert session_ordinal("s12") == 12
        assert session_ordinal("custom") == 0


class TestCrashRecoveryProperty:
    @pytest.mark.parametrize("prefix", [0, 1, 3, len(OP_SCRIPT)])
    def test_replay_after_crash_prefix_is_bit_identical(self, tmp_path, prefix):
        """Crash after any prefix of journaled ops → replay rebuilds the
        exact session: board, oracle accounting, and every subsequent op
        (including a full run's rows) bit-identical to a never-crashed
        twin that executed the same prefix."""
        spec = build_spec(SCENARIO)
        ops = OP_SCRIPT[:prefix]

        # The "crashed" session: journal everything, then drop it on the
        # floor without closing the journal cleanly (a close would only
        # flush, and every record is already flushed per-line).
        path = session_journal_path(tmp_path, "s1")
        journal = SessionJournal.create(
            path, session="s1", scenario=SCENARIO,
            overrides=None, seed=3, max_pending=32,
        )
        crashed = Session("s1", spec, 3, journal=journal)
        _drive(crashed, ops)
        _settle(crashed)
        crashed._executor.shutdown(wait=True)  # the "crash": no close()

        # The never-crashed twin.
        reference = Session("ref", spec, 3)
        reference_results = _drive(reference, ops)

        # Restart: load the journal, let the new session replay it.
        recovered = Session("s1", spec, 3, journal=SessionJournal.load(path))
        _settle(recovered)
        assert not recovered.replaying
        assert recovered.replayed_ops == len(ops)
        assert _session_state(recovered) == _session_state(reference)
        assert recovered.op_seq == len(ops) + 1  # seq continues, no reuse

        # Replay re-executes the script; spot-check it got the same answers.
        if ops and ops[0][0] == "probe":
            again = recovered.submit_op("probe", dict(OP_SCRIPT[0][1])).result()
            expected = reference.submit_op("probe", dict(OP_SCRIPT[0][1])).result()
            assert again == expected
            assert reference_results[0]["values"] == again["values"]

        # The decisive check: full-run rows are bit-identical.
        run_a = recovered.submit_op("run", {"trials": 2}).result()
        run_b = reference.submit_op("run", {"trials": 2}).result()
        assert run_a["rows"] == run_b["rows"]

        recovered.close(remove_journal=True)
        reference.close()

    def test_replay_applies_dotted_path_overrides(self, tmp_path):
        """The journal header carries the open-time overrides; recovery
        rebuilds the overridden spec, not the registry default."""
        overrides = {"population.n_players": 24}
        path = session_journal_path(tmp_path, "s1")
        journal = SessionJournal.create(
            path, session="s1", scenario=SCENARIO,
            overrides=overrides, seed=1, max_pending=32,
        )
        original = Session("s1", build_spec(SCENARIO, overrides), 1, journal=journal)
        _drive(original, [("probe", {"player": 5, "objects": [0, 1]})])
        _settle(original)
        original._executor.shutdown(wait=True)

        server = PreferenceServer(state_dir=tmp_path)
        server._recover_sessions()
        assert server.recovered_sessions == 1
        recovered = server.sessions["s1"]
        assert int(recovered.spec.population.n_players) == 24
        _settle(recovered)
        assert recovered.replayed_ops == 1
        assert recovered.prepared.context.oracle.probes_used()[5] == 2
        recovered.close(remove_journal=True)


class TestStaleSocket:
    def test_absent_path(self, tmp_path):
        assert clear_stale_socket(tmp_path / "none.sock") == "absent"

    def test_dead_socket_file_is_removed(self, tmp_path):
        path = tmp_path / "dead.sock"
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(str(path))
        listener.close()  # the file outlives the (SIGKILLed) listener
        assert clear_stale_socket(path) == "removed"
        assert not path.exists()

    def test_live_socket_is_never_stolen(self, tmp_path):
        path = tmp_path / "live.sock"
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(str(path))
        listener.listen(1)
        try:
            with pytest.raises(OSError):
                clear_stale_socket(path)
            assert path.exists()
        finally:
            listener.close()


def _boot(socket_path, state_dir, **kwargs):
    srv = PreferenceServer(
        socket_path=socket_path, state_dir=state_dir,
        publish_interval_s=0.05, **kwargs,
    )
    thread = threading.Thread(target=srv.run, daemon=True)
    thread.start()
    assert srv.ready.wait(timeout=30)
    return srv, thread


class TestServerRestartAndReconnect:
    def test_restart_recovers_sessions_and_client_resumes(self, tmp_path):
        sock = str(tmp_path / "repro.sock")
        state = tmp_path / "state"
        srv, thread = _boot(sock, state)
        client = PreferenceClient(
            sock, reconnect_attempts=40, backoff_base_s=0.02, backoff_cap_s=0.2
        )
        try:
            session = client.open_session(SCENARIO, seed=2)
            client.subscribe(session)
            probe = client.probe(session, player=4, objects=[0, 1, 2])
            client.report(session, "live", 4, [0, 1], [1, 0])
            delta = client.wait_event("board-delta", timeout_s=30)
            assert delta["session"] == session and delta["seq"] >= 1
            pre_cursor = client.last_seen[session]
            assert pre_cursor >= delta["seq"]

            # Graceful stop: subscribers hear about it, journals survive.
            srv.request_shutdown()
            shutdown = client.wait_event("server-shutdown", timeout_s=30)
            assert shutdown["reason"] == "shutdown"
            thread.join(timeout=30)
            assert state.exists()

            # Restart on the same socket + state dir; the next idempotent
            # call rides the reconnect transparently.
            srv2, thread2 = _boot(sock, state)
            pong = client.ping()
            assert pong["durable"] is True
            assert pong["recovered_sessions"] == 1
            assert client.stats["reconnects"] == 1
            assert client.stats["resubscribes"] == 1

            # Oracle accounting carried over: re-probing the pre-crash
            # objects answers identically and is still charged only once
            # (the replay restored them as already-probed), so fresh
            # objects land on top of the pre-crash count, not on zero.
            again = client.probe(session, player=4, objects=[0, 1, 2])
            assert again["values"] == probe["values"]
            assert again["probes_used"] == probe["probes_used"]
            fresh = client.probe(session, player=4, objects=[5, 6])
            assert fresh["probes_used"] == probe["probes_used"] + 2

            # New sessions never collide with recovered names.
            other = client.open_session(SCENARIO, seed=9)
            assert other != session
            assert session_ordinal(other) > session_ordinal(session)

            client.call("close", session=session)
            client.call("close", session=other)
            srv2.request_shutdown()
            thread2.join(timeout=30)
        finally:
            client.close()

    def test_connection_lost_is_typed_without_reconnect(self, tmp_path):
        sock = str(tmp_path / "repro.sock")
        srv, thread = _boot(sock, None)
        client = PreferenceClient(sock, auto_reconnect=False)
        try:
            assert client.ping()["durable"] is False
            srv.request_shutdown()
            thread.join(timeout=30)
            with pytest.raises(ConnectionLost) as err:
                for _ in range(3):  # first reads may still drain the farewell
                    client.ping()
            assert isinstance(err.value.last_seen, dict)
        finally:
            client.close()

    def test_subscribe_from_fallen_cursor_gets_typed_gap(self, tmp_path):
        sock = str(tmp_path / "repro.sock")
        srv, thread = _boot(sock, None, ring_size=3)
        client = PreferenceClient(sock)
        try:
            session = client.open_session(SCENARIO, seed=0)
            ring = srv.sessions[session].ring
            for n in range(8):  # overflow the 3-deep ring deterministically
                ring.stamp({"event": "telemetry", "session": session, "n": n})

            result = client.subscribe(session, from_seq=1)
            assert result["replayed"] == 3
            assert result["next_seq"] == 9
            gap = client.wait_event("gap", timeout_s=30)
            assert gap["requested_seq"] == 1
            assert gap["resume_seq"] == 6
            assert client.stats["gaps"] == 1
            replayed = [client.wait_event("telemetry", timeout_s=30)["seq"]
                        for _ in range(3)]
            assert replayed == [6, 7, 8]
            assert client.last_seen[session] == 8
            # The documented client response to a gap: resnapshot.
            snap = client.snapshot(session)
            assert snap["session"] == session

            client.call("close", session=session)
            srv.request_shutdown()
            thread.join(timeout=30)
        finally:
            client.close()

    def test_heartbeat_probes_keep_idle_waits_live(self, tmp_path):
        sock = str(tmp_path / "repro.sock")
        srv, thread = _boot(sock, None)
        client = PreferenceClient(sock, heartbeat_s=0.1)
        try:
            session = client.open_session(SCENARIO, seed=0)
            client.subscribe(session)
            with pytest.raises(TimeoutError):
                client.wait_event("never-happens", timeout_s=0.8)
            assert client.stats["heartbeats"] >= 1
            assert client.stats["reconnects"] == 0  # server answered them
            client.call("close", session=session)
            srv.request_shutdown()
            thread.join(timeout=30)
        finally:
            client.close()


def _stop(srv, thread) -> None:
    srv.request_shutdown()
    thread.join(timeout=30)


class TestAsyncClientReconnect:
    """The one client state machine, driven directly on its event loop
    (server restarts run in a thread so the client's loop keeps going)."""

    @staticmethod
    def _mute_listener(path: str) -> socket.socket:
        """A UNIX listener the kernel accepts on and nobody ever answers."""
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen(16)
        return listener

    def test_unanswered_call_times_out(self, tmp_path):
        sock = str(tmp_path / "mute.sock")
        listener = self._mute_listener(sock)

        async def scenario() -> float:
            client = await AsyncPreferenceClient.connect(socket_path=sock, timeout_s=0.5)
            try:
                start = time.monotonic()
                with pytest.raises(TimeoutError):
                    # The outer bound only keeps a broken client from
                    # hanging the suite; the elapsed check tells them apart.
                    await asyncio.wait_for(client.call("ping"), 5.0)
                return time.monotonic() - start
            finally:
                await client.close()

        try:
            elapsed = asyncio.run(scenario())
        finally:
            listener.close()
        assert 0.4 <= elapsed < 2.0

    def test_unanswered_heartbeat_drops_into_reconnect(self, tmp_path):
        sock = str(tmp_path / "mute.sock")
        listener = self._mute_listener(sock)

        async def scenario() -> dict[str, int]:
            async with await AsyncPreferenceClient.connect(
                socket_path=sock, heartbeat_s=0.1, backoff_base_s=0.01
            ) as client:
                with pytest.raises(TimeoutError):
                    await client.next_event(timeout_s=1.0)
                return dict(client.stats)

        try:
            stats = asyncio.run(scenario())
        finally:
            listener.close()
        assert stats["heartbeats"] >= 2
        assert stats["reconnects"] >= 1  # each silent ping dropped its link

    def test_next_event_heartbeats_an_idle_subscription(self, tmp_path):
        sock = str(tmp_path / "repro.sock")
        srv, thread = _boot(sock, None)

        async def scenario() -> dict[str, int]:
            async with await AsyncPreferenceClient.connect(
                socket_path=sock, heartbeat_s=0.1
            ) as client:
                session = await client.open_session(SCENARIO, seed=0)
                await client.subscribe(session)
                with pytest.raises(TimeoutError):
                    await client.next_event("never-happens", timeout_s=0.8)
                await client.call("close", session=session)
                return dict(client.stats)

        try:
            stats = asyncio.run(scenario())
        finally:
            _stop(srv, thread)
        assert stats["heartbeats"] >= 1
        assert stats["reconnects"] == 0  # the server answered them

    def test_exhausted_reconnect_leaves_the_next_call_a_fresh_budget(self, tmp_path):
        sock = str(tmp_path / "repro.sock")
        srv, thread = _boot(sock, None)

        async def scenario() -> dict[str, int]:
            client = await AsyncPreferenceClient.connect(
                socket_path=sock, reconnect_attempts=2,
                backoff_base_s=0.01, backoff_cap_s=0.02,
            )
            try:
                assert (await client.ping())["pong"] is True
                await asyncio.to_thread(_stop, srv, thread)
                with pytest.raises(ConnectionLost):
                    await client.ping()  # two redials, both refused
                srv2, thread2 = await asyncio.to_thread(_boot, sock, None)
                try:
                    assert (await client.ping())["pong"] is True
                finally:
                    await asyncio.to_thread(_stop, srv2, thread2)
                return dict(client.stats)
            finally:
                await client.close()

        assert asyncio.run(scenario())["reconnects"] == 1

    def test_stream_resumes_across_restart_while_waiting_in_next_event(
        self, tmp_path
    ):
        sock = str(tmp_path / "repro.sock")
        state = tmp_path / "state"
        srv, thread = _boot(sock, state)

        async def scenario() -> tuple[dict, dict, dict[str, int]]:
            client = await AsyncPreferenceClient.connect(
                socket_path=sock, reconnect_attempts=40,
                backoff_base_s=0.02, backoff_cap_s=0.2,
            )
            try:
                session = await client.open_session(SCENARIO, seed=2)
                await client.subscribe(session)
                await client.report(session, "before", 4, [0, 1], [1, 0])
                before = await client.next_event("board-delta", timeout_s=30)

                async def delta_with(channel: str) -> dict:
                    while True:
                        frame = await client.next_event("board-delta", timeout_s=30)
                        if channel in frame["channels"]:
                            return frame

                waiting = asyncio.create_task(delta_with("after"))
                await asyncio.to_thread(_stop, srv, thread)
                srv2, thread2 = await asyncio.to_thread(_boot, sock, state)
                try:
                    # Another client posts; only the resumed subscription
                    # can carry the delta to the waiting one.
                    async with await AsyncPreferenceClient.connect(
                        socket_path=sock
                    ) as other:
                        await other.report(session, "after", 5, [2], [1])
                    after = await waiting
                    await client.call("close", session=session)
                finally:
                    await asyncio.to_thread(_stop, srv2, thread2)
                return before, after, dict(client.stats)
            finally:
                await client.close()

        before, after, stats = asyncio.run(scenario())
        assert after["session"] == before["session"]
        assert after["seq"] > before["seq"]
        assert stats["reconnects"] == 1
        assert stats["resubscribes"] == 1

    def test_facade_buffers_events_that_precede_a_response(self, tmp_path):
        sock = str(tmp_path / "repro.sock")
        srv, thread = _boot(sock, None)
        client = PreferenceClient(sock)
        try:
            session = client.open_session(SCENARIO, seed=0)
            ring = srv.sessions[session].ring
            for n in range(3):
                ring.stamp({"event": "telemetry", "session": session, "n": n})
            client.subscribe(session, from_seq=1)
            # The backfill precedes the subscribe response on the wire, so
            # it is already in the inbox, in order, when the call returns.
            assert [frame["n"] for frame in client.events if "n" in frame] == [0, 1, 2]
            client.call("close", session=session)
        finally:
            client.close()
            _stop(srv, thread)

    def test_failed_blocking_connect_is_typed_and_stops_its_loop(self, tmp_path):
        stale = str(tmp_path / "stale.sock")
        dead = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        dead.bind(stale)
        dead.close()  # the file stays; nobody listens on it
        before = set(threading.enumerate())
        with pytest.raises(FileNotFoundError):
            PreferenceClient(str(tmp_path / "absent.sock"))
        with pytest.raises(ConnectionRefusedError):
            PreferenceClient(stale)
        assert set(threading.enumerate()) <= before


def _edit_header(path, **changes) -> None:
    """Rewrite a checkpoint's JSON header line, keeping its payload bytes."""
    raw = path.read_bytes()
    newline = raw.find(b"\n")
    header = json.loads(raw[:newline])
    header.update(changes)
    path.write_bytes(json.dumps(header).encode("utf-8") + raw[newline:])


class TestSessionCheckpoint:
    OVERRIDES = {"population.n_players": 16}

    def _prepared(self):
        """A prepared run whose probes, posts and draws moved every piece
        of the state a checkpoint keeps."""
        prepared = prepare(build_spec(SCENARIO, self.OVERRIDES), 3)
        context = prepared.context
        context.oracle.probe_objects(1, np.asarray([0, 5, 9, 5]))
        context.oracle.probe_block(np.arange(4), np.asarray([2, 40, 95]))
        context.board.post_reports("c1", 2, np.asarray([0, 4]), np.asarray([1, 0]))
        context.board.post_reports("a0", 15, np.asarray([95]), np.asarray([1]))
        context.randomness.generator.random(3)
        return prepared

    def _write(self, tmp_path, prepared=None, op_seq=7):
        return SessionCheckpoint.write(
            _ckpt_path(tmp_path),
            session="s1",
            scenario=SCENARIO,
            overrides=self.OVERRIDES,
            seed=3,
            op_seq=op_seq,
            events_next_seq=4,
            prepared=prepared if prepared is not None else self._prepared(),
        )

    def test_write_load_restore_roundtrip(self, tmp_path):
        prepared = self._prepared()
        written = self._write(tmp_path, prepared)
        loaded = SessionCheckpoint.load(written.path)
        assert loaded.op_seq == 7
        assert loaded.events_next_seq == 4
        assert loaded.header["session"] == "s1"
        assert loaded.header["scenario"] == SCENARIO
        assert loaded.header["overrides"] == self.OVERRIDES
        assert loaded.header["channels"] == ["a0", "c1"]
        restored = loaded.restore(build_spec(SCENARIO, self.OVERRIDES), 3)
        assert _context_state(restored.context) == _context_state(prepared.context)
        # The restored session goes on exactly like the captured one.
        for context in (restored.context, prepared.context):
            context.oracle.probe_objects(1, np.asarray([5, 6]))
        assert _context_state(restored.context) == _context_state(prepared.context)
        # Atomic write leaves no temporary behind.
        assert not written.path.with_name(written.path.name + ".tmp").exists()

    def test_payload_holds_only_the_changing_state(self, tmp_path):
        """At 1024 x 2048 with an empty board the payload is the memo mask
        (one bit per cell) plus one int64 request count per player."""
        spec = build_spec("honest-planted", {
            "population.n_players": 1024, "population.n_objects": 2048,
        })
        written = SessionCheckpoint.write(
            _ckpt_path(tmp_path), session="s1", scenario="honest-planted",
            overrides=None, seed=0, op_seq=0, events_next_seq=1,
            prepared=prepare(spec, 0),
        )
        assert len(written.payload) == 1024 * 2048 // 8 + 8 * 1024
        assert written.header["channels"] == []
        assert written.path.stat().st_size < 500_000

    def test_state_that_does_not_fit_the_session_is_rejected(self, tmp_path):
        path = self._write(tmp_path).path
        loaded = SessionCheckpoint.load(path)
        loaded.check_fits(16, 96)
        with pytest.raises(CheckpointError, match="payload bytes"):
            loaded.check_fits(24, 96)
        _edit_header(path, channels=["c1"])
        with pytest.raises(CheckpointError, match="payload bytes"):
            SessionCheckpoint.load(path).check_fits(16, 96)
        for channels in (["c1", "c1"], "c1", [3, "c1"]):
            _edit_header(path, channels=channels)
            with pytest.raises(CheckpointError, match="channel list"):
                SessionCheckpoint.load(path).check_fits(16, 96)
        _edit_header(path, channels=["a0", "c1"])
        for state in (None, {"bit_generator": "MT19937"}, {"bit_generator": "PCG64"}):
            _edit_header(path, generator=state)
            with pytest.raises(CheckpointError, match="generator state"):
                SessionCheckpoint.load(path).check_fits(16, 96)

    def test_corrupt_payload_fails_checksum(self, tmp_path):
        path = self._write(tmp_path).path
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum"):
            SessionCheckpoint.load(path)

    def test_truncated_payload_is_torn(self, tmp_path):
        path = self._write(tmp_path).path
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(CheckpointError, match="torn"):
            SessionCheckpoint.load(path)

    def test_garbage_headers_are_rejected(self, tmp_path):
        path = _ckpt_path(tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"all one line, no header separator")
        with pytest.raises(CheckpointError, match="no header"):
            SessionCheckpoint.load(path)
        path.write_bytes(b"not json\npayload")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            SessionCheckpoint.load(path)
        path.write_bytes(b'{"kind": "header"}\npayload')
        with pytest.raises(CheckpointError, match="wrong kind"):
            SessionCheckpoint.load(path)
        with pytest.raises(CheckpointError, match="unreadable"):
            SessionCheckpoint.load(tmp_path / "absent.ckpt")

    def test_unsupported_version_is_rejected(self, tmp_path):
        path = self._write(tmp_path).path
        for version in (99, "4", None):
            _edit_header(path, version=version)
            with pytest.raises(CheckpointError, match="unsupported version"):
                SessionCheckpoint.load(path)

    @pytest.mark.parametrize("action", ["error", "enospc", "short-write"])
    def test_injected_write_faults_leave_no_live_file(self, tmp_path, action):
        with _disk_fault("checkpoint.write", action):
            with pytest.raises(OSError):
                self._write(tmp_path)
        path = _ckpt_path(tmp_path)
        assert not path.exists()
        assert not path.with_name(path.name + ".tmp").exists()

    def test_injected_corruption_is_caught_at_read_back(self, tmp_path):
        """A fault that flips bytes *in flight* cannot slip past: the
        header checksum is computed from pristine in-memory bytes, so the
        read-back verification fails before the rename and the previous
        checkpoint stays authoritative."""
        first = self._write(tmp_path, op_seq=5)
        with _disk_fault("checkpoint.write", "corrupt"):
            with pytest.raises(CheckpointError):
                self._write(tmp_path, op_seq=9)
        survivor = SessionCheckpoint.load(first.path)
        assert survivor.op_seq == 5
        assert not first.path.with_name(first.path.name + ".tmp").exists()


class TestJournalCompaction:
    def _journal(self, tmp_path, n_ops=5):
        journal = SessionJournal.create(
            session_journal_path(tmp_path, "s1"), session="s1",
            scenario=SCENARIO, overrides=None, seed=0, max_pending=32,
        )
        for seq in range(1, n_ops + 1):
            journal.record_op(seq, "probe", {"player": 0, "objects": [seq]})
        journal.record_events_mark(9)
        return journal

    def test_compact_drops_prefix_keeps_tail_and_seqs(self, tmp_path):
        journal = self._journal(tmp_path)
        assert journal.compact(3) == 2
        assert journal.compacted_at_seq == 3
        # Appends keep working on the rewritten file.
        journal.record_op(6, "probe", {"player": 1, "objects": [0]})
        journal.close()
        loaded = SessionJournal.load(journal.path)
        assert [seq for seq, _op, _p in loaded.recovered_ops] == [4, 5, 6]
        assert loaded.compacted_at_seq == 3
        assert loaded.events_next_seq == 9  # high-water mark survives
        assert loaded.next_op_seq == 7
        loaded.close()

    def test_compact_to_empty_tail_still_advances_seqs(self, tmp_path):
        journal = self._journal(tmp_path)
        assert journal.compact(5) == 0
        journal.close()
        loaded = SessionJournal.load(journal.path)
        assert loaded.recovered_ops == []
        assert loaded.next_op_seq == 6  # never reuse a compacted seq
        assert loaded.events_next_seq == 9
        loaded.close()

    def test_compaction_fault_keeps_the_full_journal(self, tmp_path):
        journal = self._journal(tmp_path)
        before = journal.path.read_text()
        with _disk_fault("journal.fsync", "error"):
            with pytest.raises(OSError):
                journal.compact(3)
        assert journal.path.read_text() == before
        assert not journal.path.with_name(journal.path.name + ".tmp").exists()
        # The journal stays appendable after the aborted rewrite.
        journal.record_op(6, "probe", {"player": 0, "objects": [0]})
        journal.close()
        loaded = SessionJournal.load(journal.path)
        assert loaded.next_op_seq == 7
        loaded.close()


class TestCheckpointedRecovery:
    """The bounded-time recovery property: checkpoint + tail replay is
    bit-identical to full replay and to a never-crashed twin, for crash
    points including mid-checkpoint and mid-compaction."""

    def _crashed_session(self, tmp_path, ops, checkpoint_every=None):
        journal = SessionJournal.create(
            session_journal_path(tmp_path, "s1"), session="s1",
            scenario=SCENARIO, overrides=None, seed=3, max_pending=32,
        )
        session = Session(
            "s1", build_spec(SCENARIO), 3,
            journal=journal, checkpoint_every=checkpoint_every,
        )
        _drive(session, ops)
        _settle(session)
        session._executor.shutdown(wait=True)  # the "crash": no close()
        return session

    def _reference(self, ops):
        reference = Session("ref", build_spec(SCENARIO), 3)
        _drive(reference, ops)
        return reference

    def _recover(self, tmp_path, checkpoint_every=2):
        server = PreferenceServer(
            state_dir=tmp_path, checkpoint_every=checkpoint_every
        )
        server._recover_sessions()
        return server

    @pytest.mark.parametrize("prefix", [2, 3, 5, 6, 7])
    def test_checkpointed_recovery_is_bit_identical(self, tmp_path, prefix):
        """Crash after any prefix (checkpointing every 2 ops): recovery
        restores the checkpoint, replays only the post-checkpoint tail,
        and matches a never-crashed twin bit for bit — board, oracle
        memo and accounting, generator state, seq continuity, and a full
        run's rows.  The select (op 3) lands in the replayed tail at
        prefix 3 and inside the checkpoint from prefix 4 on."""
        ops = OP_SCRIPT[:prefix]
        self._crashed_session(tmp_path, ops, checkpoint_every=2)
        assert _ckpt_path(tmp_path).is_file()

        server = self._recover(tmp_path)
        stats = server.recovery_stats
        assert stats["sessions_recovered"] == 1
        assert stats["checkpoint_loads"] == 1
        assert stats["checkpoint_fallbacks"] == 0
        # Compaction bounded the replay to the ops past the checkpoint.
        assert stats["ops_replayed"] == prefix % 2

        recovered = server.sessions["s1"]
        reference = self._reference(ops)
        assert _session_state(recovered) == _session_state(reference)
        assert recovered.op_seq == len(ops) + 1  # seq continues, no reuse
        run_a = recovered.submit_op("run", {"trials": 2}).result()
        run_b = reference.submit_op("run", {"trials": 2}).result()
        assert run_a["rows"] == run_b["rows"]
        recovered.close(remove_journal=True)
        reference.close()

    def test_torn_checkpoint_tmp_from_mid_write_crash_is_ignored(self, tmp_path):
        """A crash mid-checkpoint leaves only a torn ``.ckpt.tmp``; it is
        never mistaken for (or promoted to) a live checkpoint, and the
        session recovers by full replay with no fallback warning."""
        ops = OP_SCRIPT[:3]
        self._crashed_session(tmp_path, ops)
        ckpt = _ckpt_path(tmp_path)
        ckpt.with_name(ckpt.name + ".tmp").write_bytes(b'{"kind":"checkpoi')

        server = self._recover(tmp_path)
        assert server.recovery_stats == {
            "sessions_recovered": 1, "ops_replayed": 3,
            "checkpoint_loads": 0, "checkpoint_fallbacks": 0,
            "sessions_skipped": 0,
        }
        recovered = server.sessions["s1"]
        reference = self._reference(ops)
        assert _session_state(recovered) == _session_state(reference)
        recovered.close(remove_journal=True)
        reference.close()

    def test_mid_compaction_crash_replays_only_past_the_checkpoint(self, tmp_path):
        """Crash in the window between the checkpoint rename and the
        journal rewrite: both files are live and the journal still holds
        every op.  Replay starts strictly after the checkpoint's op_seq —
        and a full-replay recovery of the same journal agrees exactly."""
        journal = SessionJournal.create(
            session_journal_path(tmp_path, "s1"), session="s1",
            scenario=SCENARIO, overrides=None, seed=3, max_pending=32,
        )
        session = Session("s1", build_spec(SCENARIO), 3, journal=journal)
        _drive(session, OP_SCRIPT[:4])
        _settle(session)
        # Write the checkpoint but fail the compaction — exactly the
        # mid-compaction crash window.
        with _disk_fault("journal.fsync", "error"):
            with pytest.warns(DurabilityWarning, match="compaction failed"):
                assert session.write_checkpoint() is True
        _drive(session, OP_SCRIPT[4:])
        _settle(session)
        session._executor.shutdown(wait=True)
        path = session_journal_path(tmp_path, "s1")
        full = SessionJournal.load(path)
        assert len(full.recovered_ops) == len(OP_SCRIPT)  # nothing compacted
        full.close()

        server = self._recover(tmp_path)
        assert server.recovery_stats["checkpoint_loads"] == 1
        assert server.recovery_stats["ops_replayed"] == len(OP_SCRIPT) - 4  # tail only
        recovered = server.sessions["s1"]
        reference = self._reference(OP_SCRIPT)
        state = _session_state(recovered)
        assert state == _session_state(reference)
        recovered.close(remove_journal=False)

        # Third leg: delete the checkpoint and recover again by pure full
        # replay — same state, so checkpointed recovery changed nothing.
        _ckpt_path(tmp_path).unlink()
        replay_only = self._recover(tmp_path)
        assert replay_only.recovery_stats["checkpoint_loads"] == 0
        assert replay_only.recovery_stats["ops_replayed"] == len(OP_SCRIPT)
        assert _session_state(replay_only.sessions["s1"]) == state
        replay_only.sessions["s1"].close(remove_journal=True)
        reference.close()

    def _checkpoint_over_full_journal(self, tmp_path, ops) -> Session:
        """Crash a session that checkpointed after ``ops`` but kept its full
        journal (the compaction failed), so full replay can stand in for a
        checkpoint recovery rejects."""
        journal = SessionJournal.create(
            session_journal_path(tmp_path, "s1"), session="s1",
            scenario=SCENARIO, overrides=None, seed=3, max_pending=32,
        )
        session = Session("s1", build_spec(SCENARIO), 3, journal=journal)
        _drive(session, ops)
        _settle(session)
        with _disk_fault("journal.fsync", "error"):
            with pytest.warns(DurabilityWarning, match="compaction failed"):
                assert session.write_checkpoint() is True
        session._executor.shutdown(wait=True)
        return session

    def _recover_by_full_replay(self, tmp_path, ops, reason):
        """Recover, expecting the checkpoint rejected for ``reason`` and a
        full replay bit-identical to a never-crashed twin."""
        with pytest.warns(DurabilityWarning, match=f"{reason}.*full replay"):
            server = self._recover(tmp_path)
        assert server.recovery_stats == {
            "sessions_recovered": 1, "ops_replayed": len(ops),
            "checkpoint_loads": 0, "checkpoint_fallbacks": 1,
            "sessions_skipped": 0,
        }
        recovered = server.sessions["s1"]
        reference = self._reference(ops)
        assert _session_state(recovered) == _session_state(reference)
        return recovered, reference

    def test_corrupt_checkpoint_falls_back_to_full_replay(self, tmp_path):
        """A checkpoint that fails its checksum degrades to full replay
        (typed warning + fallback counter), never to wrong state."""
        ops = OP_SCRIPT[:4]
        self._checkpoint_over_full_journal(tmp_path, ops)
        ckpt = _ckpt_path(tmp_path)
        raw = bytearray(ckpt.read_bytes())
        raw[-1] ^= 0xFF
        ckpt.write_bytes(bytes(raw))

        recovered, reference = self._recover_by_full_replay(tmp_path, ops, "checksum")
        recovered.close(remove_journal=True)
        reference.close()

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_pickled_checkpoint_of_an_older_version_falls_back(self, tmp_path, version):
        """Versions 1-3 stored a pickle of the whole prepared run.  Such a
        file is refused without being unpickled, and the session comes
        back by full replay, bit-identical to a never-crashed twin — state
        and a full run's rows."""
        ops = OP_SCRIPT[:4]
        session = self._checkpoint_over_full_journal(tmp_path, ops)
        ckpt = _ckpt_path(tmp_path)
        raw = ckpt.read_bytes()
        header = json.loads(raw[:raw.find(b"\n")])
        for key in ("channels", "generator"):
            del header[key]
        payload = pickle.dumps(session.prepared, protocol=pickle.HIGHEST_PROTOCOL)
        header.update(
            version=version, payload_bytes=len(payload),
            sha256=hashlib.sha256(payload).hexdigest(),
        )
        ckpt.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)

        recovered, reference = self._recover_by_full_replay(
            tmp_path, ops, f"unsupported version {version}"
        )
        run_a = recovered.submit_op("run", {"trials": 2}).result()
        run_b = reference.submit_op("run", {"trials": 2}).result()
        assert run_a["rows"] == run_b["rows"]
        recovered.close(remove_journal=True)
        reference.close()

    @pytest.mark.parametrize("change, reason", [
        ({"seed": 4}, "names seed 4"),
        ({"scenario": "small-radius-planted"}, "names scenario"),
        ({"overrides": {"population.n_objects": 64}}, "names overrides"),
        ({"session": "s9"}, "names session"),
        ({"channels": []}, "payload bytes"),
    ])
    def test_mismatched_checkpoint_is_rejected_at_load(self, tmp_path, change, reason):
        """A well-formed checkpoint that does not belong to the journal's
        ``(scenario, overrides, seed)`` session, or whose payload does not
        fit its channel list at the spec's dimensions, is rejected before
        the session is built: a fallback, then full replay."""
        ops = OP_SCRIPT[:4]
        self._checkpoint_over_full_journal(tmp_path, ops)
        _edit_header(_ckpt_path(tmp_path), **change)

        recovered, reference = self._recover_by_full_replay(tmp_path, ops, reason)
        recovered.close(remove_journal=True)
        reference.close()

    def test_corrupt_checkpoint_with_compacted_journal_skips_session(self, tmp_path):
        """When the journal was compacted, a bad checkpoint means the
        early ops exist nowhere trustworthy: the session is skipped with
        a typed warning — approximately-right state is never served."""
        self._crashed_session(tmp_path, OP_SCRIPT[:4], checkpoint_every=2)
        ckpt = _ckpt_path(tmp_path)
        raw = bytearray(ckpt.read_bytes())
        raw[-1] ^= 0xFF
        ckpt.write_bytes(bytes(raw))

        with pytest.warns(DurabilityWarning) as record:
            server = self._recover(tmp_path)
        # One warning, naming the rejection and the skip; no full replay
        # is promised because none can happen.
        (warning,) = record
        assert re.fullmatch(
            r"session 's1' cannot be recovered: .*fails its checksum.*; "
            r"skipping it",
            str(warning.message),
        )
        assert server.sessions == {}
        assert server.recovery_stats["sessions_recovered"] == 0
        assert server.recovery_stats["sessions_skipped"] == 1
        assert server.recovery_stats["checkpoint_fallbacks"] == 1

    def test_recovery_span_and_counters(self, tmp_path):
        self._crashed_session(tmp_path, OP_SCRIPT[:3], checkpoint_every=2)
        server = self._recover(tmp_path)
        report = server.telemetry.snapshot()
        spans = [child["name"] for child in report.spans["children"]]
        assert "serve.recovery" in spans
        counters = report.counters
        assert counters["serve.sessions_recovered"] == 1
        assert counters["serve.checkpoint_loads"] == 1
        assert counters["serve.ops_replayed"] == 1
        server.sessions["s1"].close(remove_journal=True)


class TestDiskFaultDegradation:
    @pytest.mark.parametrize("action", ["error", "enospc", "short-write"])
    def test_journal_append_fault_degrades_to_ephemeral(self, tmp_path, action):
        """A failing append quarantines the log and the session carries
        on ephemeral — the op still executes, state stays correct, and
        the quarantined file never feeds recovery."""
        journal = SessionJournal.create(
            session_journal_path(tmp_path, "s1"), session="s1",
            scenario=SCENARIO, overrides=None, seed=3, max_pending=32,
        )
        session = Session("s1", build_spec(SCENARIO), 3, journal=journal)
        _settle(session)
        reference = Session("ref", build_spec(SCENARIO), 3)
        probe = {"player": 0, "objects": [0, 1, 2]}
        with _disk_fault("journal.append", action):
            with pytest.warns(DurabilityWarning, match="quarantined"):
                result = session.submit_op("probe", dict(probe)).result()
        assert result == reference.submit_op("probe", dict(probe)).result()
        assert session.durability_degraded
        assert session.journal is None
        assert session.describe()["durability_degraded"] is True
        path = session_journal_path(tmp_path, "s1")
        assert path.with_name(path.name + ".broken").is_file()
        assert not path.exists()
        assert scan_state_dir(tmp_path) == []  # quarantine never recovers
        counters = session.telemetry.snapshot().counters
        assert counters["serve.journal_degraded"] == 1
        # Later ops run clean, unjournaled.
        second = session.submit_op("probe", {"player": 1, "objects": [3]})
        expected = reference.submit_op("probe", {"player": 1, "objects": [3]})
        assert second.result() == expected.result()
        session.close()
        reference.close()

    def test_concurrent_sessions_fault_under_their_own_plans(self, tmp_path):
        """Two sessions, each driven from its own thread under its own
        ``journal.append`` plan, degrade at exactly their own planned op:
        a plan reaches only the ops its thread submits."""
        ops = [("probe", {"player": n, "objects": [n]}) for n in range(6)]
        both_installed = threading.Barrier(2, timeout=60)

        def drive(name: str, occurrence: int) -> list[bool]:
            journal = SessionJournal.create(
                session_journal_path(tmp_path, name), session=name,
                scenario=SCENARIO, overrides=None, seed=3, max_pending=32,
            )
            session = Session(name, build_spec(SCENARIO), 3, journal=journal)
            _settle(session)
            degraded = []
            with _disk_fault("journal.append", "error", occurrence):
                both_installed.wait()
                for op, params in ops:
                    session.submit_op(op, dict(params)).result()
                    degraded.append(session.durability_degraded)
            session.close()
            return degraded

        plans = {"s1": 1, "s2": 4}  # each session's faulted append
        with pytest.warns(DurabilityWarning, match="quarantined") as record:
            with ThreadPoolExecutor(max_workers=2) as pool:
                runs = {name: pool.submit(drive, name, at) for name, at in plans.items()}
                degraded = {name: runs[name].result(timeout=60) for name in plans}
        assert len(record) == 2
        for name, at in plans.items():
            assert degraded[name].index(True) == at
            path = session_journal_path(tmp_path, name)
            broken = path.with_name(path.name + ".broken").read_text()
            # The quarantined log holds exactly the ops before the fault.
            kinds = [json.loads(line)["kind"] for line in broken.splitlines()]
            assert kinds.count("op") == at

    def test_checkpoint_fault_keeps_the_full_journal_then_recovers(self, tmp_path):
        """A failed checkpoint write degrades to "keep the full journal";
        the next clean checkpoint compacts as usual."""
        journal = SessionJournal.create(
            session_journal_path(tmp_path, "s1"), session="s1",
            scenario=SCENARIO, overrides=None, seed=3, max_pending=32,
        )
        session = Session("s1", build_spec(SCENARIO), 3, journal=journal)
        ops = OP_SCRIPT[:3]
        _drive(session, ops)
        _settle(session)
        with _disk_fault("checkpoint.write", "enospc"):
            with pytest.warns(DurabilityWarning, match="checkpoint failed"):
                assert session.write_checkpoint() is False
        assert session.checkpoint_seq == 0
        assert not _ckpt_path(tmp_path).exists()
        counters = session.telemetry.snapshot().counters
        assert counters["serve.checkpoint_errors"] == 1
        # The clean retry checkpoints and compacts.
        assert session.write_checkpoint() is True
        assert session.checkpoint_seq == len(ops)
        session._executor.shutdown(wait=True)

        server = PreferenceServer(state_dir=tmp_path)
        server._recover_sessions()
        assert server.recovery_stats["checkpoint_loads"] == 1
        assert server.recovery_stats["ops_replayed"] == 0
        recovered = server.sessions["s1"]
        reference = Session("ref", build_spec(SCENARIO), 3)
        _drive(reference, ops)
        assert _session_state(recovered) == _session_state(reference)
        recovered.close(remove_journal=True)
        reference.close()


class TestHostileStateDir:
    def test_scan_ignores_everything_but_live_journals(self, tmp_path):
        sessions = tmp_path / "sessions"
        sessions.mkdir(parents=True)
        live = session_journal_path(tmp_path, "s1")
        live.write_text("x\n")
        (sessions / "s2.jsonl.broken").write_text("x\n")
        (sessions / "s3.ckpt").write_bytes(b"x")
        (sessions / "s4.jsonl.tmp").write_text("x\n")
        (sessions / "s5.ckpt.tmp").write_bytes(b"x")
        (sessions / "notes.txt").write_text("hello")
        (sessions / "dir.jsonl").mkdir()  # a directory wearing the name
        archive = sessions / "s9.evicted"
        archive.mkdir()
        (archive / "s9.jsonl").write_text("x\n")
        assert scan_state_dir(tmp_path) == [live]

    def test_scan_of_missing_dir_is_empty(self, tmp_path):
        assert scan_state_dir(tmp_path / "nope") == []

    def test_hostile_entries_never_crash_boot(self, tmp_path):
        """Boot over a state dir full of wreckage: torn tails recover,
        everything unrecoverable is skipped with a typed warning, and the
        healthy sessions come up."""
        sessions = tmp_path / "sessions"
        sessions.mkdir(parents=True)
        # One healthy session with a journaled op.
        good = SessionJournal.create(
            session_journal_path(tmp_path, "good"), session="good",
            scenario=SCENARIO, overrides=None, seed=1, max_pending=32,
        )
        good.record_op(1, "probe", {"player": 0, "objects": [0]})
        good.close()
        # A torn tail: the half-written op is dropped, the session lives.
        torn = SessionJournal.create(
            session_journal_path(tmp_path, "torn"), session="torn",
            scenario=SCENARIO, overrides=None, seed=2, max_pending=32,
        )
        torn.close()
        with open(session_journal_path(tmp_path, "torn"), "a") as handle:
            handle.write('{"kind": "op", "seq": 1, "op"')
        (sessions / "empty.jsonl").write_text("")
        (sessions / "garbage.jsonl").write_text("not json at all\n")
        (sessions / "wrongkind.jsonl").write_text('{"kind": "op", "seq": 1}\n')
        (sessions / "badscenario.jsonl").write_text(json.dumps({
            "kind": "header", "version": 1, "session": "badscenario",
            "scenario": "no-such-scenario", "overrides": {}, "seed": 0,
            "max_pending": 4,
        }) + "\n")
        (sessions / "dir.jsonl").mkdir()

        server = PreferenceServer(state_dir=tmp_path)
        with pytest.warns(DurabilityWarning):
            server._recover_sessions()
        assert sorted(server.sessions) == ["good", "torn"]
        assert server.recovery_stats["sessions_recovered"] == 2
        assert server.recovery_stats["sessions_skipped"] == 4
        assert server.recovery_stats["ops_replayed"] == 1
        for session in server.sessions.values():
            _settle(session)
            assert not session.replaying
            session.close(remove_journal=True)


class TestArchiveLifecycle:
    def test_evict_archives_journal_and_checkpoint(self, tmp_path):
        server = PreferenceServer(state_dir=tmp_path, checkpoint_every=1)
        name = server._op_open({"scenario": SCENARIO, "seed": 1})["session"]
        session = server.sessions[name]
        session.submit_op("probe", {"player": 0, "objects": [0]}).result()
        assert _ckpt_path(tmp_path, name).is_file()

        server._evict(session, reason="closed")
        archive = session_archive_dir(tmp_path, name)
        assert (archive / f"{name}.jsonl").is_file()
        assert (archive / f"{name}.ckpt").is_file()
        assert not session_journal_path(tmp_path, name).exists()
        # The recovery scan skips archives: no restart resurrects it.
        assert scan_state_dir(tmp_path) == []
        reboot = PreferenceServer(state_dir=tmp_path)
        reboot._recover_sessions()
        assert reboot.sessions == {}
        assert reboot.recovery_stats["sessions_recovered"] == 0

    def test_archive_of_nothing_returns_none(self, tmp_path):
        assert archive_session_state(tmp_path, "ghost") is None


class TestAdmissionControl:
    def test_quota_bucket_spends_and_refills_at_rate(self):
        quota = _OpQuota(rate=10.0, burst=2)
        assert quota.try_acquire() == 0.0
        assert quota.try_acquire() == 0.0
        wait = quota.try_acquire()
        assert 0.0 < wait <= 0.1 + 1e-6  # one token at 10/s

    def test_quota_rejects_nonpositive_rate(self):
        with pytest.raises(ServeError, match="positive"):
            _OpQuota(rate=0.0)

    def test_quota_exceeded_is_typed_and_pre_execution(self):
        session = Session(
            "s1", build_spec(SCENARIO), 3, ops_per_s=5.0, ops_burst=1
        )
        try:
            _settle(session)
            session.submit_op("probe", {"player": 0, "objects": [0]}).result()
            used = int(session.prepared.context.oracle.probes_used()[0])
            with pytest.raises(QuotaExceeded) as err:
                session.submit_op("probe", {"player": 0, "objects": [1]})
            assert err.value.code == "quota-exceeded"
            assert err.value.retryable is True
            assert 0.05 <= err.value.retry_after_s <= 5.0
            # Refused before journaling or queueing: nothing changed.
            assert int(session.prepared.context.oracle.probes_used()[0]) == used
            # The hinted wait is exact: honouring it succeeds.
            time.sleep(err.value.retry_after_s + 0.05)
            session.submit_op("probe", {"player": 0, "objects": [1]}).result()
        finally:
            session.close()

    def test_reads_bypass_the_quota(self):
        session = Session(
            "s1", build_spec(SCENARIO), 3, ops_per_s=0.1, ops_burst=1
        )
        try:
            _settle(session)
            session.submit_op("report", {
                "channel": "c", "player": 0, "objects": [0], "values": [1],
            }).result()  # spends the whole burst
            for _ in range(3):  # reads are never quota-limited
                session.submit_op("board", {"channel": "c"}).result()
            with pytest.raises(QuotaExceeded):  # mutations still are
                session.submit_op("report", {
                    "channel": "c", "player": 1, "objects": [0], "values": [1],
                })
        finally:
            session.close()

    def test_max_sessions_cap_on_open(self):
        server = PreferenceServer(max_sessions=1)
        name = server._op_open({"scenario": SCENARIO, "seed": 0})["session"]
        with pytest.raises(QuotaExceeded) as err:
            server._op_open({"scenario": SCENARIO, "seed": 1})
        assert err.value.code == "quota-exceeded"
        assert err.value.retry_after_s == 1.0
        assert len(server.sessions) == 1  # no half-created state
        # Closing frees the slot for the retry the hint promised.
        server._evict(server.sessions[name], reason="closed")
        reopened = server._op_open({"scenario": SCENARIO, "seed": 2})
        assert reopened["session"] != name
        server.sessions[reopened["session"]].close()

    def test_clients_honour_quota_sheds_end_to_end(self, tmp_path):
        sock = str(tmp_path / "repro.sock")
        srv, thread = _boot(
            sock, None, session_ops_per_s=2.0, session_ops_burst=1,
            max_sessions=2,
        )
        client = PreferenceClient(sock)
        try:
            assert client.ping()["max_sessions"] == 2
            session = client.open_session(SCENARIO, seed=0)
            # The default client sleeps the retry_after_s hint and
            # re-issues; every op lands despite the 1-op burst.
            for n in range(3):
                result = client.probe(session, player=0, objects=[n])
                assert result["values"] is not None
            assert client.stats["sheds"] >= 1
            listing = client.call("sessions")
            assert "recovery" in listing
            (desc,) = [
                s for s in listing["sessions"] if s["session"] == session
            ]
            assert desc["quota"] is True
            assert desc["checkpoint_seq"] == 0  # ephemeral: no checkpoints
            assert desc["durability_degraded"] is False
            # A zero-budget client surfaces the typed refusal instead.
            strict = PreferenceClient(sock, shed_retries=0)
            try:
                with pytest.raises(ServerSideError) as err:
                    for n in range(10):
                        strict.probe(session, player=1, objects=[n])
                assert err.value.code == "quota-exceeded"
                assert err.value.retryable is True
                assert err.value.retry_after_s is not None
                assert err.value.retry_after_s > 0
            finally:
                strict.close()
            client.call("close", session=session)
            srv.request_shutdown()
            thread.join(timeout=30)
        finally:
            client.close()


class TestCheckpointedRestartEndToEnd:
    def test_restart_resumes_from_checkpoint_and_reports_recovery(self, tmp_path):
        """Across a real server restart: the journal is compacted to the
        post-checkpoint tail, recovery loads the checkpoint, ping/serve
        surface the recovery stats, and oracle accounting carries over."""
        sock = str(tmp_path / "repro.sock")
        state = tmp_path / "state"
        srv, thread = _boot(sock, state, checkpoint_every=2)
        client = PreferenceClient(
            sock, reconnect_attempts=40, backoff_base_s=0.02, backoff_cap_s=0.2
        )
        try:
            session = client.open_session(SCENARIO, seed=2)
            for n in range(5):
                client.probe(session, player=0, objects=[n])
            before = client.probe(session, player=1, objects=[0, 1])
            # 6 journaled ops at checkpoint_every=2: compacted at seq 6.
            srv.request_shutdown()
            thread.join(timeout=30)
            assert _ckpt_path(state, session).is_file()
            journal = SessionJournal.load(session_journal_path(state, session))
            assert journal.compacted_at_seq == 6
            assert journal.recovered_ops == []  # the whole log compacted away
            journal.close()

            srv2, thread2 = _boot(sock, state, checkpoint_every=2)
            pong = client.ping()
            assert pong["recovery"] == {
                "sessions_recovered": 1, "ops_replayed": 0,
                "checkpoint_loads": 1, "checkpoint_fallbacks": 0,
                "sessions_skipped": 0,
            }
            # Restored oracle memo: the re-probe answers identically and
            # is still charged only once.
            again = client.probe(session, player=1, objects=[0, 1])
            assert again["values"] == before["values"]
            assert again["probes_used"] == before["probes_used"]
            client.call("close", session=session)
            srv2.request_shutdown()
            thread2.join(timeout=30)
        finally:
            client.close()
