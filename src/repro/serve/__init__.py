"""Protocol-as-a-service: the asyncio preference server and its clients.

The package splits along the control/state boundary:

* :mod:`repro.serve.protocol` — the NDJSON wire format (frames, typed error
  codes, exact ndarray encoding).
* :mod:`repro.serve.session` — one live ``(spec, seed)`` protocol context
  per session, mutated only by that session's single worker thread.
* :mod:`repro.serve.durability` — per-session write-ahead op logs,
  checksum-verified session checkpoints with journal compaction (so
  recovery is O(checkpoint + tail), not O(history)), event cursors with
  bounded replay rings, and stale-socket hygiene: the pieces that make a
  ``--state-dir`` server crash-recoverable by deterministic replay.
* :mod:`repro.serve.server` — the asyncio control plane: connections,
  dispatch, the pub/sub publisher, overload shedding, idle eviction,
  session recovery and graceful shutdown.
* :mod:`repro.serve.client` — one typed async client state machine with
  auto-reconnect, heartbeat liveness probes and cursor-based stream
  resume, plus a blocking facade over it (connection loss surfaces as a
  typed :class:`~repro.errors.ConnectionLost`, never a raw ``OSError``).
* :mod:`repro.serve.cli` — the ``serve`` / ``call`` / ``watch`` verbs.

Everything is stdlib + numpy; the server holds no state that is not
reconstructible from ``(scenario, seed)`` plus the journaled op sequence,
and a session's full-run results are bit-identical to ``python -m repro
run`` of the same pair — before a crash, after recovery, and across a
client reconnect.
"""

from repro.errors import ConnectionLost
from repro.serve.client import AsyncPreferenceClient, PreferenceClient, ServerSideError
from repro.serve.durability import (
    CheckpointError,
    DurabilityWarning,
    EventRing,
    SessionCheckpoint,
    SessionJournal,
    archive_session_state,
)
from repro.serve.protocol import (
    Overloaded,
    QuotaExceeded,
    ServeError,
    decode_array,
    encode_array,
)
from repro.serve.server import PreferenceServer
from repro.serve.session import Session, build_spec

__all__ = [
    "AsyncPreferenceClient",
    "CheckpointError",
    "ConnectionLost",
    "DurabilityWarning",
    "EventRing",
    "Overloaded",
    "PreferenceClient",
    "PreferenceServer",
    "QuotaExceeded",
    "ServeError",
    "ServerSideError",
    "Session",
    "SessionCheckpoint",
    "SessionJournal",
    "archive_session_state",
    "build_spec",
    "decode_array",
    "encode_array",
]
