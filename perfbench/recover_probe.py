"""Time a restart of the preference server over a crashed state dir.

Run as ``python perfbench/recover_probe.py --state-dir DIR`` in a fresh
interpreter: imports happen before any clock starts, so interpreter start
is excluded.  Each of :data:`REPEATS` restarts copies ``DIR`` (untimed), then
times an in-process ``PreferenceServer(state_dir=copy)`` from construction
until it is ready *and* every recovered session has finished rebuilding
its state (checkpoint restore plus journal-tail replay), which is when a
client op on it would start executing.  Prints one JSON line with each
repeat's time, recovery counters and the recovered sessions' observable
state (board channel stats, per-player probes used).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import threading
import time
from pathlib import Path
from typing import Any

from harness import fresh_work_dir, remove_tree

#: Seconds to wait for the server to come up or go down.
TIMEOUT_S = 60.0
#: Restarts timed per probe; the caller reports their median.
REPEATS = 5


def recover_once(state_dir: Path) -> dict[str, Any]:
    from repro.serve.server import PreferenceServer

    copy = fresh_work_dir("recover-")
    try:
        shutil.copytree(state_dir, copy, dirs_exist_ok=True)
        start = time.perf_counter()
        server = PreferenceServer(port=0, state_dir=copy)
        thread = threading.Thread(target=server.run, name="recovered-server", daemon=True)
        thread.start()
        if not server.ready.wait(timeout=TIMEOUT_S):
            raise RuntimeError("recovered server did not become ready")
        sessions = dict(server.sessions)
        for session in sessions.values():
            session.submit(lambda: None).result(timeout=TIMEOUT_S)
        elapsed = time.perf_counter() - start

        def observe(session: Any) -> dict[str, Any]:
            context = session.prepared.context
            return {
                "channel_stats": context.board.channel_stats(),
                "probes_used": context.oracle.probes_used().tolist(),
            }

        state = {
            name: session.submit(lambda s=session: observe(s)).result(timeout=TIMEOUT_S)
            for name, session in sessions.items()
        }
        stats = dict(server.recovery_stats)
        server.request_shutdown()
        thread.join(timeout=TIMEOUT_S)
        if thread.is_alive():
            raise RuntimeError("recovered server did not shut down")
    finally:
        remove_tree(copy)
    return {
        "recovery_s": elapsed,
        "ops_replayed": stats["ops_replayed"],
        "checkpoint_loads": stats["checkpoint_loads"],
        "sessions": state,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--state-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    import repro.serve.server  # noqa: F401  (import cost is not recovery cost)

    runs = [recover_once(args.state_dir) for _ in range(REPEATS)]
    print(json.dumps({"runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
