"""Tests for the preference server: protocol, sessions, streaming, limits.

The load-bearing properties from the serving acceptance criteria:

* **Bit-identity over the wire** — a session ``run`` op returns rows (and,
  with ``include_predictions``, prediction matrices) bit-identical to the
  offline engine's for the same ``(spec, seed)``, for any worker count, and
  regardless of interactive mutations made on the session beforehand.
* **Live state** — interactive ``probe`` ops answer from exactly the ground
  truth a batch execution of the pair would see (the session owns a
  :func:`~repro.scenarios.engine.prepare`\\ d context).
* **Typed degradation** — unknown sessions/ops, malformed parameters and
  library errors come back as typed error frames (stable ``code``), never
  dropped connections; per-session backpressure and idle eviction degrade
  the same way.
* **Streaming** — subscribers receive round-result, board-delta and
  telemetry events while work is in flight.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import numpy as np
import pytest

from repro.analysis.runner import run_trials, spawn_seeds
from repro.scenarios.engine import execute, prepare, run_point
from repro.scenarios.registry import get_scenario
from repro.serve.client import (
    AsyncPreferenceClient,
    PreferenceClient,
    ServerSideError,
)
from repro.serve.protocol import (
    ERROR_CODES,
    Overloaded,
    ServeError,
    decode_array,
    decode_frame,
    encode_array,
    encode_frame,
    error_body,
)
from repro.serve.server import PreferenceServer
from repro.serve.session import DEFAULT_MAX_PENDING, Session, build_spec

SCENARIO = "zero-radius-exact"


@pytest.fixture(scope="module")
def server():
    """One in-process server on a loopback port, shared by the module."""
    srv = PreferenceServer(port=0, publish_interval_s=0.05)
    thread = threading.Thread(target=srv.run, daemon=True)
    thread.start()
    assert srv.ready.wait(timeout=30)
    yield srv
    srv.request_shutdown()
    thread.join(timeout=30)


@pytest.fixture()
def client(server):
    _, host, port = server.address
    with PreferenceClient(f"{host}:{port}") as c:
        yield c


class TestWireProtocol:
    def test_array_roundtrip_is_bit_exact(self):
        rng = np.random.default_rng(0)
        for array in (
            rng.integers(0, 2, size=(7, 13), dtype=np.uint8),
            rng.integers(-1000, 1000, size=40, dtype=np.int64),
            np.zeros((0, 5), dtype=np.uint8),
        ):
            decoded = decode_array(encode_array(array))
            assert decoded.dtype == array.dtype
            assert decoded.shape == array.shape
            assert np.array_equal(decoded, array)

    def test_frame_roundtrip_encodes_ndarrays(self):
        frame = {"id": 1, "ok": True, "result": {"m": np.eye(3, dtype=np.uint8)}}
        decoded = decode_frame(encode_frame(frame))
        assert np.array_equal(
            decode_array(decoded["result"]["m"]), np.eye(3, dtype=np.uint8)
        )

    def test_error_codes_are_stable(self):
        from repro.errors import BudgetExceededError, ConfigurationError

        assert error_body(BudgetExceededError(0, 4, 5))["code"] == "budget-exceeded"
        assert error_body(ConfigurationError("x"))["code"] == "configuration"
        assert error_body(ServeError("backpressure", "x"))["code"] == "backpressure"
        assert error_body(ValueError("x"))["code"] == "internal"

    def test_error_codes_cover_every_library_error_most_derived_first(self):
        import inspect

        from repro import errors

        library = {
            klass
            for _, klass in inspect.getmembers(errors, inspect.isclass)
            if issubclass(klass, errors.ReproError)
        }
        listed = [klass for klass, _ in ERROR_CODES]
        assert set(listed) == library
        assert len({code for _, code in ERROR_CODES}) == len(ERROR_CODES)
        # No entry is shadowed by an earlier, more general one.
        for index, klass in enumerate(listed):
            assert not any(issubclass(klass, earlier) for earlier in listed[:index])


class TestSessions:
    def test_probe_answers_from_prepared_ground_truth(self, client):
        session = client.open_session(SCENARIO, seed=11)
        local = prepare(get_scenario(SCENARIO), 11)
        truth = local.context.oracle.ground_truth()
        result = client.probe(session, player=3, objects=[0, 5, 9])
        assert result["values"] == truth[3, [0, 5, 9]].tolist()
        assert result["probes_used"] == 3
        client.call("close", session=session)

    def test_run_rows_bit_identical_to_offline_engine(self, client):
        spec = get_scenario(SCENARIO)
        seeds = spawn_seeds(7, 3)
        offline = run_trials(
            run_point, [(spec, seeds[t], t) for t in range(3)], n_workers=1
        )
        session = client.open_session(SCENARIO, seed=7)
        # Interactive mutations must not perturb the batch-run results.
        client.probe(session, player=0, objects=[0, 1, 2, 3])
        client.report(session, "interactive", 0, [0, 1], [1, 0])
        result = client.run(session, trials=3, workers=2, include_predictions=True)
        assert len(result["rows"]) == 3
        for off, row in zip(offline, result["rows"]):
            stripped = {
                k: v for k, v in row.items()
                if k not in ("predictions", "active_players")
            }
            assert stripped == off
        for trial in range(3):
            reference = execute(spec, seeds[trial])
            assert np.array_equal(
                decode_array(result["rows"][trial]["predictions"]),
                reference.predictions,
            )
            assert np.array_equal(
                decode_array(result["rows"][trial]["active_players"]),
                reference.active_players,
            )
        client.call("close", session=session)

    def test_board_and_snapshot_reflect_interactive_posts(self, client):
        session = client.open_session(SCENARIO, seed=2)
        client.subscribe(session)
        client.report(session, "notes", 4, [1, 2, 3], [1, 1, 0])
        board = client.call("board", session=session, channel="notes")
        assert board["stats"] == {"report_cells": 3}
        majority = decode_array(board["majority"])
        assert majority[1] == 1 and majority[3] == 0
        snap = client.snapshot(session)
        assert snap["board"] == {"notes": {"report_cells": 3}}
        assert snap["telemetry"]["counters"]["board.posts"] >= 1
        delta = client.wait_event("board-delta", timeout_s=30)
        assert delta["channels"] == {"notes": {"report_cells": 3}}
        client.call("close", session=session)

    def test_election_and_select_ops(self, client):
        session = client.open_session(SCENARIO, seed=4)
        election = client.call("election", session=session, seed=9)
        assert 0 <= election["leader"] < 96
        assert election["leader_is_honest"]  # all-honest scenario
        spec = get_scenario(SCENARIO)
        candidates = np.zeros((2, spec.population.n_objects), dtype=np.uint8)
        candidates[1, :] = 1
        select = client.call(
            "select", session=session,
            players=[0, 1, 2], candidates=encode_array(candidates),
        )
        assert len(select["choice"]) == 3
        assert decode_array(select["chosen_vectors"]).shape == (3, 96)
        client.call("close", session=session)

    def test_overrides_apply_dotted_paths(self, client):
        result = client.call(
            "open", scenario=SCENARIO, seed=1,
            overrides={"population.n_players": 32, "population.n_objects": 48},
        )
        assert result["n_players"] == 32 and result["n_objects"] == 48
        probe = client.probe(result["session"], player=31, objects=[47])
        assert probe["values"][0] in (0, 1)
        client.call("close", session=result["session"])

    def test_build_spec_round_trips_cli_vocabulary(self):
        spec = build_spec(SCENARIO, {"protocol.budget": 8})
        assert spec.protocol.budget == 8


class TestTypedErrors:
    def test_unknown_session_and_op(self, client):
        with pytest.raises(ServerSideError) as err:
            client.probe("phantom", player=0, objects=[0])
        assert err.value.code == "unknown-session"
        session = client.open_session(SCENARIO, seed=0)
        with pytest.raises(ServerSideError) as err:
            client.call("frobnicate", session=session)
        assert err.value.code == "unknown-op"
        client.call("close", session=session)

    def test_bad_request_and_library_errors_carry_codes(self, client):
        with pytest.raises(ServerSideError) as err:
            client.call("open", scenario="no-such-scenario")
        assert err.value.code == "configuration"
        session = client.open_session(SCENARIO, seed=0)
        with pytest.raises(ServerSideError) as err:
            client.call("probe", session=session, objects=[0])  # missing player
        assert err.value.code == "bad-request"
        with pytest.raises(ServerSideError) as err:
            client.call(
                "report", session=session, channel="c",
                player=0, objects=[10_000], values=[1],
            )
        assert err.value.code == "configuration"
        client.call("close", session=session)

    def test_closed_session_rejects_further_ops(self, client):
        session = client.open_session(SCENARIO, seed=0)
        client.call("close", session=session)
        with pytest.raises(ServerSideError) as err:
            client.probe(session, player=0, objects=[0])
        assert err.value.code == "unknown-session"


class TestBackpressureAndEviction:
    def test_backpressure_fails_fast_with_typed_error(self, server):
        _, host, port = server.address

        async def scenario() -> ServerSideError | None:
            async with await AsyncPreferenceClient.connect(
                host=host, port=port, shed_retries=0
            ) as client:
                session = await client.open_session(
                    SCENARIO, seed=3, max_pending=1
                )
                # Occupy the single worker with a multi-trial run, then pile
                # on concurrent probes until the queue cap trips.
                run_task = asyncio.create_task(
                    client.run(session, trials=8, workers=1)
                )
                await asyncio.sleep(0.05)  # let the run claim the slot
                shed = None
                try:
                    for _ in range(200):
                        try:
                            await client.probe(session, player=0, objects=[0])
                        except ServerSideError as error:
                            shed = error
                            break
                        await asyncio.sleep(0)
                finally:
                    await run_task
                    await client.call("close", session=session)
                return shed

        shed = asyncio.run(scenario())
        assert shed is not None
        assert shed.code == "overloaded"
        assert shed.retryable is True
        assert shed.retry_after_s is not None and shed.retry_after_s > 0

    def test_default_cap_queues_a_burst_behind_a_stalled_worker(self):
        # A host stall holds the worker while requests keep arriving: the
        # default cap queues 200 probes without a shed and answers every one
        # once the worker resumes; only the (cap + 1)-th op in flight is shed.
        session = Session("burst", build_spec(SCENARIO), 3)
        release = threading.Event()
        try:
            assert session.max_pending == DEFAULT_MAX_PENDING
            held = session.submit(release.wait)
            ctx = session.prepared.context
            objects = [[i % ctx.n_objects] for i in range(200)]
            probes = [
                session.submit_op("probe", {"player": 0, "objects": objs})
                for objs in objects
            ]
            fillers = [
                session.submit(lambda: None)
                for _ in range(DEFAULT_MAX_PENDING - 1 - len(probes))
            ]
            with pytest.raises(Overloaded):
                session.submit(lambda: None)
            release.set()
            assert held.result(timeout=30) is True
            truth = ctx.oracle.ground_truth()
            for objs, probe in zip(objects, probes):
                assert probe.result(timeout=30)["values"] == truth[0, objs].tolist()
            for filler in fillers:
                filler.result(timeout=30)
        finally:
            release.set()
            session.close()

    def test_idle_sessions_are_evicted_with_event(self):
        srv = PreferenceServer(
            port=0, publish_interval_s=0.05, idle_timeout_s=0.2
        )
        thread = threading.Thread(target=srv.run, daemon=True)
        thread.start()
        assert srv.ready.wait(timeout=30)
        try:
            _, host, port = srv.address
            with PreferenceClient(f"{host}:{port}") as client:
                session = client.open_session(SCENARIO, seed=0)
                client.subscribe(session)
                event = client.wait_event("session-evicted", timeout_s=30)
                assert event["session"] == session
                assert event["reason"] == "idle"
                with pytest.raises(ServerSideError) as err:
                    client.probe(session, player=0, objects=[0])
                assert err.value.code == "unknown-session"
        finally:
            srv.request_shutdown()
            thread.join(timeout=30)


class TestStreaming:
    def test_subscriber_receives_round_board_and_telemetry_events(self, client):
        session = client.open_session(SCENARIO, seed=6)
        client.subscribe(session)
        result = client.run(session, trials=2, workers=1)
        assert len(result["rows"]) == 2
        rounds = [
            client.wait_event("round-result", timeout_s=30) for _ in range(2)
        ]
        assert sorted(r["row"]["trial"] for r in rounds) == [0, 1]
        for frame in rounds:
            assert frame["row"]["scenario"] == SCENARIO
        # Interactive posts show up as board deltas on the next tick.
        client.report(session, "stream", 1, [0], [1])
        delta = client.wait_event("board-delta", timeout_s=30)
        assert "channels" in delta
        telemetry = client.wait_event("telemetry", timeout_s=30)
        assert telemetry["metrics"]["counters"]
        client.call("close", session=session)

    def test_sessions_listing_tracks_open_sessions(self, client):
        session = client.open_session(SCENARIO, seed=1)
        listed = client.call("sessions")["sessions"]
        assert any(entry["session"] == session for entry in listed)
        client.call("close", session=session)
        listed = client.call("sessions")["sessions"]
        assert not any(entry["session"] == session for entry in listed)


class TestCliWiring:
    def test_serve_verbs_are_registered(self):
        from repro.scenarios.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["serve", "--port", "0"])
        assert args.command == "serve"
        args = parser.parse_args(
            ["call", "ping", "--connect", "127.0.0.1:1"]
        )
        assert args.command == "call" and args.op == "ping"
        args = parser.parse_args(
            ["watch", SCENARIO, "--connect", "127.0.0.1:1", "--trials", "2"]
        )
        assert args.command == "watch" and args.trials == 2

    def test_call_and_watch_print_every_round_result(self, capsys):
        """With a slow publisher tick the run response beats most round
        results; watch must keep streaming until each trial's arrived."""
        from repro.scenarios.cli import main

        srv = PreferenceServer(port=0, publish_interval_s=0.5)
        thread = threading.Thread(target=srv.run, daemon=True)
        thread.start()
        assert srv.ready.wait(timeout=30)
        try:
            _, host, port = srv.address
            address = f"{host}:{port}"
            assert main(["call", "ping", "--connect", address]) == 0
            assert json.loads(capsys.readouterr().out)["pong"] is True

            assert main(["watch", SCENARIO, "--connect", address, "--trials", "3"]) == 0
            captured = capsys.readouterr()
            lines = [json.loads(line) for line in captured.out.splitlines()]
            rounds = [line for line in lines if line.get("event") == "round-result"]
            assert sorted(frame["row"]["trial"] for frame in rounds) == [0, 1, 2]
            seqs = [line["seq"] for line in lines if "seq" in line]
            assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
            assert lines[-1]["completed"] == 3
            assert captured.err == ""

            assert main(["call", "sessions", "--connect", address]) == 0
            assert json.loads(capsys.readouterr().out)["sessions"] == []
        finally:
            srv.request_shutdown()
            thread.join(timeout=30)


class TestRunnerStreaming:
    def test_on_result_fires_in_submission_order(self):
        spec = get_scenario(SCENARIO)
        seeds = spawn_seeds(5, 3)
        points = [(spec, seeds[t], t) for t in range(3)]
        for workers in (1, 2):
            seen: list[int] = []
            rows = run_trials(
                run_point, points, n_workers=workers,
                on_result=lambda index, row: seen.append(index),
            )
            assert seen == [0, 1, 2]
            assert [row["trial"] for row in rows] == [0, 1, 2]

    def test_on_result_replays_journal_restored_points(self, tmp_path):
        spec = get_scenario(SCENARIO)
        seeds = spawn_seeds(5, 2)
        points = [(spec, seeds[t], t) for t in range(2)]
        journal = tmp_path / "journal.jsonl"
        run_trials(run_point, points, n_workers=1, journal=journal)
        seen: list[int] = []
        rows = run_trials(
            run_point, points, n_workers=1, journal=journal,
            on_result=lambda index, row: seen.append(index),
        )
        assert seen == [0, 1]
        assert [row["trial"] for row in rows] == [0, 1]
