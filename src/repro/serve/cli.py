"""CLI verbs for the preference server: ``serve``, ``call``, ``watch``.

Registered into the main ``python -m repro`` parser by
:func:`add_serve_commands`, keeping the scenario CLI module free of any
serving imports until a serve verb actually runs.

* ``serve`` — run the server in the foreground (TCP by default, UNIX socket
  with ``--socket``); prints the bound address once listening.  With
  ``--state-dir`` every session keeps a write-ahead op log there and a
  restarted server rebuilds them by replay — ``--checkpoint-every``
  bounds that replay by snapshotting sessions and compacting their
  journals, and a recovery summary line is printed before the address.
  ``--max-sessions`` / ``--session-ops-per-s`` add admission control
  (typed retryable ``quota-exceeded`` refusals).  SIGTERM and SIGINT both drive
  the graceful path: journals flushed, a ``server-shutdown`` event
  broadcast to subscribers, exit code 0.
* ``call`` — one-shot scripting: send a single op (params as inline JSON)
  and print the JSON response.  ``python -m repro call --connect HOST:PORT
  open --params '{"scenario": "zero-radius-exact", "seed": 1}'``.
* ``watch`` — open a session, subscribe, kick off a full run and stream the
  round-result / board-delta / telemetry events as JSON lines until every
  trial's round-result has arrived.  Each line carries the event's
  ``(session, seq)`` cursor; a jump in ``seq`` (or a server ``gap`` event)
  is flagged on stderr so missed frames never pass silently.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

__all__ = ["add_serve_commands"]


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.serve.server import PreferenceServer
    from repro.serve.session import DEFAULT_MAX_PENDING

    server = PreferenceServer(
        host=args.host,
        port=args.port,
        socket_path=args.socket,
        run_workers=args.run_workers,
        idle_timeout_s=args.idle_timeout_s,
        max_pending=DEFAULT_MAX_PENDING if args.max_pending is None else args.max_pending,
        publish_interval_s=args.publish_interval_s,
        state_dir=args.state_dir,
        max_sessions=args.max_sessions,
        checkpoint_every=args.checkpoint_every,
        session_ops_per_s=args.session_ops_per_s,
        session_ops_burst=args.session_ops_burst,
    )

    import threading

    def announce() -> None:
        server.ready.wait()
        if args.state_dir:
            # Recovery runs before the socket binds, so the stats are
            # final by the time ready is set.
            stats = server.recovery_stats
            print(
                f"recovered {stats['sessions_recovered']} session(s) "
                f"({stats['ops_replayed']} op(s) replayed, "
                f"{stats['checkpoint_loads']} checkpoint load(s), "
                f"{stats['checkpoint_fallbacks']} fallback(s), "
                f"{stats['sessions_skipped']} skipped)",
                flush=True,
            )
        if server.address and server.address[0] == "unix":
            print(f"listening on {server.address[1]}", flush=True)
        elif server.address:
            print(f"listening on {server.address[1]}:{server.address[2]}", flush=True)

    def graceful(signum: int, _frame: Any) -> None:
        # Both signals take the same orderly path: the server's finally
        # block flushes journals and broadcasts server-shutdown, and the
        # process exits 0 so supervisors see a clean stop.
        print(f"received {signal.Signals(signum).name}; shutting down", flush=True)
        server.request_shutdown()

    signal.signal(signal.SIGTERM, graceful)
    signal.signal(signal.SIGINT, graceful)
    threading.Thread(target=announce, daemon=True).start()
    try:
        server.run()
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_call(args: argparse.Namespace) -> int:
    from repro.serve.client import PreferenceClient, ServerSideError

    try:
        params: dict[str, Any] = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as error:
        raise SystemExit(f"--params must be valid JSON: {error}")
    with PreferenceClient(args.connect) as client:
        try:
            result = client.call(args.op, session=args.session, **params)
        except ServerSideError as error:
            print(
                json.dumps({"ok": False, "code": error.code, "message": str(error)}),
                file=sys.stderr,
            )
            return 2
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.serve.client import PreferenceClient

    with PreferenceClient(args.connect) as client:
        session = client.open_session(args.scenario, seed=args.seed)
        client.subscribe(session)
        print(json.dumps({"opened": session, "scenario": args.scenario}), flush=True)
        result = client.run(session, trials=args.trials, workers=args.workers)
        # The publisher streams round results on its own tick, so most of
        # them can arrive *after* the run response.  Print events in arrival
        # order (each line carries its (session, seq) cursor) until one
        # round-result per returned row has been printed.  A jump in seq —
        # or a server gap event after a reconnect — means frames this
        # watcher can never get back; flag it on stderr instead of passing
        # silently.
        trials = len(result["rows"])
        expected_seq: int | None = None
        rounds = 0
        while rounds < trials or client.events:
            try:
                frame = client.wait_event(timeout_s=30.0)
            except TimeoutError:
                print(
                    f"warning: {trials - rounds} round result(s) did not "
                    "arrive within 30s",
                    file=sys.stderr, flush=True,
                )
                break
            seq = frame.get("seq")
            if frame.get("event") == "gap":
                print(
                    f"warning: stream gap — events before seq "
                    f"{frame.get('resume_seq')} are no longer replayable",
                    file=sys.stderr, flush=True,
                )
            elif seq is not None:
                if expected_seq is not None and seq > expected_seq:
                    print(
                        f"warning: sequence gap — expected seq {expected_seq}, "
                        f"got {seq} ({seq - expected_seq} event(s) missed)",
                        file=sys.stderr, flush=True,
                    )
                expected_seq = int(seq) + 1
            if frame.get("event") == "round-result":
                rounds += 1
            print(json.dumps(frame), flush=True)
        summary = {
            "completed": trials,
            "wall_s": round(result["wall_s"], 3),
            "stats": result["stats"],
            "last_seq": client.last_seen.get(session),
            "reconnects": client.stats["reconnects"],
        }
        print(json.dumps(summary), flush=True)
        client.call("close", session=session)
    return 0 if rounds >= trials else 1


def add_serve_commands(sub: argparse._SubParsersAction) -> None:
    """Register the serving verbs on the main CLI's subparser set."""
    p_serve = sub.add_parser("serve", help="run the async preference server")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0, help="0 picks a free port")
    p_serve.add_argument(
        "--socket", default=None, metavar="PATH",
        help="serve on a UNIX socket instead of TCP",
    )
    p_serve.add_argument(
        "--run-workers", type=int, default=1,
        help="default process-pool width for session 'run' ops",
    )
    p_serve.add_argument(
        "--idle-timeout-s", type=float, default=None,
        help="evict sessions idle longer than this (default: never)",
    )
    p_serve.add_argument(
        "--max-pending", type=int, default=None,
        help="per-session backpressure limit on queued ops (default: "
        "repro.serve.session.DEFAULT_MAX_PENDING, 512)",
    )
    p_serve.add_argument(
        "--publish-interval-s", type=float, default=0.25,
        help="publisher tick for board-delta/telemetry/round-result events",
    )
    p_serve.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="journal sessions here and recover them on restart "
        "(default: ephemeral sessions)",
    )
    p_serve.add_argument(
        "--max-sessions", type=int, default=None,
        help="admission-control cap on concurrently open sessions; "
        "open beyond the cap is refused with a retryable quota-exceeded "
        "frame (default: unbounded)",
    )
    p_serve.add_argument(
        "--checkpoint-every", type=int, default=256,
        help="snapshot durable sessions and compact their journals every "
        "N journaled ops; 0 disables checkpoints (default: 256)",
    )
    p_serve.add_argument(
        "--session-ops-per-s", type=float, default=None,
        help="per-session token-bucket rate for mutating ops; exceeding "
        "it is refused with a retryable quota-exceeded frame "
        "(default: unlimited)",
    )
    p_serve.add_argument(
        "--session-ops-burst", type=int, default=None,
        help="token-bucket burst for --session-ops-per-s "
        "(default: 2x the rate)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_call = sub.add_parser("call", help="send one op to a running server")
    p_call.add_argument("op", help="operation name (ping, open, probe, run, ...)")
    p_call.add_argument(
        "--connect", required=True, metavar="ADDR",
        help="host:port or UNIX socket path",
    )
    p_call.add_argument("--session", default=None, help="session name for scoped ops")
    p_call.add_argument(
        "--params", default=None, metavar="JSON", help="op parameters as inline JSON"
    )
    p_call.set_defaults(func=_cmd_call)

    p_watch = sub.add_parser(
        "watch", help="open a session, run it, and stream its events"
    )
    p_watch.add_argument("scenario", help="registry scenario name")
    p_watch.add_argument("--connect", required=True, metavar="ADDR")
    p_watch.add_argument("--seed", type=int, default=0)
    p_watch.add_argument("--trials", type=int, default=1)
    p_watch.add_argument("--workers", type=int, default=1)
    p_watch.set_defaults(func=_cmd_watch)
