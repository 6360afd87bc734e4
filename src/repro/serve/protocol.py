"""The preference server's wire protocol: newline-delimited JSON frames.

Every frame is one JSON object on one line (UTF-8, ``\\n``-terminated).
Three frame shapes exist:

* **request** — ``{"id": <int|str>, "op": <str>, "session": <str|null>,
  "params": {...}}``.  ``id`` is caller-chosen and echoed verbatim; every
  request gets exactly one response.  Session-scoped ops carry the session
  name; connection-scoped ops (``ping``, ``open``, ``sessions``,
  ``shutdown``) leave it out.
* **response** — ``{"id": ..., "ok": true, "result": {...}}`` on success,
  ``{"id": ..., "ok": false, "error": {"code", "type", "message"}}`` on
  failure.  ``code`` is a stable machine string (see :data:`ERROR_CODES`),
  ``type`` the Python exception class name, ``message`` the human text.
* **event** — ``{"event": <str>, "session": <str>, "seq": <int>, ...}``
  with **no** ``id``: unsolicited frames streamed to subscribers
  (``board-delta``, ``telemetry``, ``round-result``, ``degraded``,
  ``session-evicted``).  Clients demultiplex on the presence of ``id`` vs
  ``event``.  ``seq`` is the session-scoped event cursor assigned by the
  publisher's replay ring — ``subscribe(from_seq=)`` backfills missed
  frames from it.  Two synthetic frames carry no ring cursor: ``gap``
  (the requested cursor is no longer replayable; resume from
  ``resume_seq`` and resnapshot) and ``server-shutdown`` (connection
  scoped, broadcast during graceful shutdown).

Binary payloads (prediction matrices, report vectors) cross the wire as
``{"__ndarray__": <base64>, "dtype": ..., "shape": ...}`` objects via
:func:`encode_array`/:func:`decode_array` — JSON-clean, and exact (the
bytes are the array's C-order buffer, so decode → re-encode round-trips
bit-identically, which the bit-identity gates rely on).
"""

from __future__ import annotations

import base64
import json
from typing import Any

import numpy as np

from repro.errors import (
    BudgetExceededError,
    ConfigurationError,
    ConnectionLost,
    ExperimentError,
    InjectedCrash,
    LeaderElectionError,
    OracleTimeout,
    ProtocolError,
    ReproError,
)

__all__ = [
    "MAX_FRAME_BYTES",
    "Overloaded",
    "QuotaExceeded",
    "ServeError",
    "encode_frame",
    "decode_frame",
    "encode_array",
    "decode_array",
    "error_body",
    "error_frame",
    "ok_frame",
]

#: Upper bound on one frame, requests and responses alike.  Generous enough
#: for a full prediction matrix at the scales the registry ships, small
#: enough that a stray non-protocol client cannot balloon server memory.
MAX_FRAME_BYTES = 16 * 1024 * 1024


class ServeError(ReproError):
    """A server-side protocol violation with a stable wire error code.

    Raised for conditions that exist only at the serving layer — unknown
    session, unknown op, malformed request, overload shedding, admission
    control, eviction — as opposed to :class:`~repro.errors.ReproError`
    subclasses bubbling out of the protocol stack, which map to codes via
    :data:`ERROR_CODES`.  Subclasses that represent *transient* refusals
    set :attr:`retryable` (and a ``retry_after_s`` hint), which
    :func:`error_body` copies onto the wire so clients can back off and
    re-issue safely.
    """

    #: Whether re-issuing the identical request later can succeed; the
    #: request was refused *before* touching session state.
    retryable: bool = False
    #: Back-off hint in seconds for retryable refusals (``None`` otherwise).
    retry_after_s: float | None = None

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


class Overloaded(ServeError):
    """A retryable shed: the server refused work it cannot queue right now.

    Raised when a session's pending-op queue or its event pipeline
    saturates.  The error frame carries ``retryable: true`` and a
    ``retry_after_s`` hint so well-behaved clients back off instead of
    hammering a struggling server — the response-side half of graceful
    degradation (the stream side is the replay ring: a shed subscriber
    reconnects and resumes from its cursor).
    """

    retryable = True

    def __init__(self, message: str, retry_after_s: float = 0.25) -> None:
        super().__init__("overloaded", message)
        self.retry_after_s = float(retry_after_s)


class QuotaExceeded(ServeError):
    """Admission control refused the request: a quota is exhausted.

    Two limits surface this code: the per-session op quota (a token
    bucket over mutating ops) and the server-wide ``--max-sessions`` cap
    on ``open``.  Like :class:`Overloaded` it is typed retryable with a
    ``retry_after_s`` hint — the refusal happens before any state is
    touched or any op is journaled, so re-issuing the identical request
    after the hint is always safe.  The distinct code lets clients and
    dashboards separate "the server is struggling" (overloaded) from
    "the caller is over its allowance" (quota-exceeded).
    """

    retryable = True

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__("quota-exceeded", message)
        self.retry_after_s = float(retry_after_s)


#: Stable wire code for every library exception a request can surface.
#: Ordered most-derived-first; the first ``isinstance`` match wins.
ERROR_CODES: tuple[tuple[type[BaseException], str], ...] = (
    (BudgetExceededError, "budget-exceeded"),
    (LeaderElectionError, "leader-election"),
    (OracleTimeout, "oracle-timeout"),
    (InjectedCrash, "injected-crash"),
    (ConnectionLost, "connection-lost"),
    (ProtocolError, "protocol"),
    (ConfigurationError, "configuration"),
    (ExperimentError, "experiment"),
    (ReproError, "repro"),
)


def error_body(error: BaseException) -> dict[str, Any]:
    """The ``error`` object of a failure response for ``error``."""
    if isinstance(error, ServeError):
        code = error.code
    else:
        code = "internal"
        for klass, klass_code in ERROR_CODES:
            if isinstance(error, klass):
                code = klass_code
                break
    body: dict[str, Any] = {
        "code": code,
        "type": type(error).__name__,
        "message": str(error),
    }
    if getattr(error, "retryable", False):
        body["retryable"] = True
        retry_after_s = getattr(error, "retry_after_s", None)
        if retry_after_s is not None:
            body["retry_after_s"] = float(retry_after_s)
    return body


def ok_frame(request_id: Any, result: Any) -> dict[str, Any]:
    """A success response frame echoing ``request_id``."""
    return {"id": request_id, "ok": True, "result": result}


def error_frame(request_id: Any, error: BaseException) -> dict[str, Any]:
    """A failure response frame echoing ``request_id``."""
    return {"id": request_id, "ok": False, "error": error_body(error)}


def encode_frame(frame: dict[str, Any]) -> bytes:
    """Serialise one frame to its wire form (one JSON line)."""
    line = json.dumps(frame, separators=(",", ":"), default=_json_default)
    data = line.encode("utf-8") + b"\n"
    if len(data) > MAX_FRAME_BYTES:
        raise ServeError(
            "frame-too-large",
            f"frame of {len(data)} bytes exceeds the {MAX_FRAME_BYTES} limit",
        )
    return data


def decode_frame(line: bytes) -> dict[str, Any]:
    """Parse one wire line back into a frame dictionary."""
    if len(line) > MAX_FRAME_BYTES:
        raise ServeError(
            "frame-too-large",
            f"frame of {len(line)} bytes exceeds the {MAX_FRAME_BYTES} limit",
        )
    try:
        frame = json.loads(line)
    except json.JSONDecodeError as error:
        raise ServeError("bad-request", f"frame is not valid JSON: {error}") from error
    if not isinstance(frame, dict):
        raise ServeError(
            "bad-request", f"frame must be a JSON object, got {type(frame).__name__}"
        )
    return frame


def _json_default(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return encode_array(value)
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"frame value of type {type(value).__name__} is not JSON-encodable")


def encode_array(array: np.ndarray) -> dict[str, Any]:
    """JSON-clean exact encoding of an ndarray (base64 of the C-order buffer)."""
    array = np.ascontiguousarray(array)
    return {
        "__ndarray__": base64.b64encode(array.tobytes()).decode("ascii"),
        "dtype": str(array.dtype),
        "shape": list(array.shape),
    }


def decode_array(payload: dict[str, Any]) -> np.ndarray:
    """Invert :func:`encode_array` (bit-exact round trip)."""
    raw = base64.b64decode(payload["__ndarray__"])
    array = np.frombuffer(raw, dtype=np.dtype(payload["dtype"]))
    return array.reshape(tuple(int(n) for n in payload["shape"])).copy()
