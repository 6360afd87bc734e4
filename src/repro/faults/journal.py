"""The trial journal: a crash-safe, append-only record of a sweep.

One JSON record per line.  The first line is a header describing the run
(point count, the trial callable's import path, and the pickled points, so
:func:`repro.analysis.runner.resume_trials` can finish a sweep from the file
alone); every completed point appends a ``result`` record; fault/retry
telemetry appends ``event`` records.  Records are flushed per line, so a
killed process leaves a valid prefix — and the loader tolerates a torn final
line (the write that died mid-flight), which is exactly the property the
resume tests exercise by truncating a journal at every prefix length.

Result records are **results-JSON-compatible**: values pass through the same
scalar coercion :func:`repro.analysis.reporting.write_table_json` applies, so
a journaled scenario row round-trips bit-for-bit (dicts, lists, ints, floats,
strings, booleans, ``None``).  Trials that return non-JSON types (tuples,
arrays) can still run journaled, but their resumed values come back in JSON
form — keep journaled trials on plain rows, as every driver in this repo
does.

Each result record carries a ``key`` — a digest of the point's pickled
arguments — so resuming against the *wrong* points (different seeds, edited
spec) fails loudly instead of silently stitching two different sweeps
together.  Duplicate records for one index are resolved **last-wins**,
mirroring a re-run that appended to an existing file.
"""

from __future__ import annotations

import base64
import errno
import hashlib
import importlib
import json
import os
import pickle
import time
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.errors import ExperimentError
from repro.faults.runtime import fault_gate

__all__ = [
    "AppendOnlyLog",
    "TrialJournal",
    "parse_records",
    "trial_ref",
    "resolve_trial_ref",
    "point_key",
]

_JOURNAL_VERSION = 1


def _json_default(value: Any) -> Any:
    """Coerce numpy scalars (and anything else numeric) for json.dump."""
    if hasattr(value, "item"):
        return value.item()
    return str(value)


def trial_ref(trial: Callable[..., Any]) -> str:
    """``module:qualname`` import path of a trial callable."""
    return f"{getattr(trial, '__module__', '?')}:{getattr(trial, '__qualname__', '?')}"


def resolve_trial_ref(ref: str) -> Callable[..., Any]:
    """Import a trial callable back from its ``module:qualname`` path."""
    module_name, _, qualname = ref.partition(":")
    if not module_name or not qualname:
        raise ExperimentError(f"malformed trial reference {ref!r} in journal header")
    try:
        obj: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError) as error:
        raise ExperimentError(
            f"cannot resolve trial {ref!r} from the journal header; pass the "
            "trial callable to resume_trials explicitly"
        ) from error
    if not callable(obj):
        raise ExperimentError(f"journal trial reference {ref!r} is not callable")
    return obj


def point_key(task: tuple) -> str:
    """Short digest identifying one point's arguments.

    Raw ``pickle.dumps`` is not stable across object *identity* structure:
    the pickler back-references repeated strings/objects by identity, so an
    original task and its unpickled copy (e.g. points reconstructed from a
    journal header) can produce different bytes for equal values.  One
    ``loads(dumps(...))`` round trip is pickle's fixed point — the copy's
    sharing structure is exactly what the pickle encodes — so hashing the
    re-dump of the round-tripped task gives equal keys for equal tasks on
    both sides of a resume.
    """
    canonical = pickle.dumps(pickle.loads(pickle.dumps(task)))
    return hashlib.sha256(canonical).hexdigest()[:16]


def parse_records(text: str) -> list[dict]:
    """Parse journal lines, tolerating a torn (partially written) tail.

    A line that fails to parse marks the truncation point: it and everything
    after it are discarded, so a journal killed mid-append loads as the valid
    prefix it is.  Shared by every append-only log in the repo (trial
    journals here, session op logs in :mod:`repro.serve.durability`).
    """
    records: list[dict] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            break
        if not isinstance(record, dict):
            break
        records.append(record)
    return records


class AppendOnlyLog:
    """A crash-safe append-only JSONL file: one record per line, flushed.

    The write half of the journal contract — every :meth:`append` is
    flushed to the OS before returning, so a killed process leaves a valid
    prefix plus at most one torn line, which :func:`parse_records`
    discards on load.  :class:`TrialJournal` and the serve layer's
    per-session op logs both build on this.
    """

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: Lines flushed to disk by this handle; surfaced as telemetry.
        self.flushes = 0
        self._handle = open(self.path, "a", encoding="utf-8")

    def append(self, record: dict) -> None:
        """Write one record and flush it (the durability point).

        Passes through the ``journal.append`` disk-fault gate: an injected
        ``"error"``/``"enospc"`` raises before any byte lands (the record
        is simply absent), while ``"short-write"`` leaves a torn,
        newline-less prefix on disk before raising — exactly the tail shape
        :func:`parse_records` is built to discard, so a faulted log still
        loads as its valid prefix.
        """
        line = json.dumps(record, separators=(",", ":"), default=_json_default) + "\n"
        action = fault_gate("journal.append")
        if action == "error":
            raise OSError(errno.EIO, f"injected I/O error appending to {self.path}")
        if action == "enospc":
            raise OSError(
                errno.ENOSPC, f"injected ENOSPC appending to {self.path}"
            )
        if action == "short-write":
            self._handle.write(line[: max(1, len(line) // 2)])
            self._handle.flush()
            raise OSError(
                errno.EIO, f"injected short write appending to {self.path}"
            )
        self._handle.write(line)
        self._handle.flush()
        self.flushes += 1

    def fsync(self) -> None:
        """Force the file's bytes to stable storage (a durability barrier).

        Separate from :meth:`append`'s per-line flush — flush hands bytes
        to the OS (enough for a killed *process*), fsync survives a killed
        *machine*.  The serve layer calls this around checkpoint/compaction
        renames.  Passes through the ``journal.fsync`` disk-fault gate.
        """
        if self._handle.closed:
            return
        self._handle.flush()
        action = fault_gate("journal.fsync")
        if action == "error":
            raise OSError(errno.EIO, f"injected fsync failure on {self.path}")
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    @property
    def closed(self) -> bool:
        return self._handle.closed

    def __enter__(self) -> "AppendOnlyLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class TrialJournal:
    """Append-only journal for one ``run_trials`` execution.

    Use :meth:`attach` — it creates the file with a header on first use and
    validates + loads completed results when resuming an existing file.
    """

    def __init__(self, path: Path, header: dict, completed: dict[int, Any]) -> None:
        self.path = path
        self.header = header
        self._completed = completed
        self._log = AppendOnlyLog(path)

    @property
    def flushes(self) -> int:
        """Lines flushed to disk by this handle (header + results + events);
        surfaced through the trial engine's ``stats`` as journal telemetry."""
        return self._log.flushes

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def attach(
        cls,
        path: Path | str,
        trial: Callable[..., Any],
        tasks: Sequence[tuple],
    ) -> "TrialJournal":
        """Open (or create) the journal at ``path`` for this run.

        A fresh file gets a header; an existing file is validated against the
        run (point count, per-point argument keys) and its completed results
        are loaded, deduplicated last-wins.
        """
        path = Path(path)
        keys = [point_key(task) for task in tasks]
        if path.exists() and path.stat().st_size > 0:
            records = parse_records(path.read_text(encoding="utf-8"))
            if not records or records[0].get("kind") != "header":
                raise ExperimentError(
                    f"journal {path} has no valid header; refusing to resume"
                )
            header = records[0]
            if int(header.get("n_points", -1)) != len(tasks):
                raise ExperimentError(
                    f"journal {path} records {header.get('n_points')} points "
                    f"but this run has {len(tasks)}; refusing to resume"
                )
            completed: dict[int, Any] = {}
            for record in records[1:]:
                if record.get("kind") != "result":
                    continue
                index = int(record["index"])
                if not 0 <= index < len(tasks):
                    raise ExperimentError(
                        f"journal {path} holds result for out-of-range point "
                        f"{index} (run has {len(tasks)} points)"
                    )
                if record.get("key") not in (None, keys[index]):
                    raise ExperimentError(
                        f"journal {path} point {index} was recorded for "
                        "different arguments than this run's — the journal "
                        "belongs to another sweep (seed or spec changed)"
                    )
                # Duplicate records resolve last-wins, like a re-appended run.
                completed[index] = record.get("result")
            return cls(path, header, completed)

        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "kind": "header",
            "version": _JOURNAL_VERSION,
            "n_points": len(tasks),
            "trial": trial_ref(trial),
            "points": base64.b64encode(pickle.dumps(list(tasks))).decode("ascii"),
            "created_unix_time": time.time(),
        }
        journal = cls(path, header, {})
        journal._append(header)
        return journal

    @staticmethod
    def read_header(path: Path | str) -> dict:
        """Load just the header of an existing journal."""
        path = Path(path)
        if not path.exists():
            raise ExperimentError(f"journal {path} does not exist")
        records = parse_records(path.read_text(encoding="utf-8"))
        if not records or records[0].get("kind") != "header":
            raise ExperimentError(f"journal {path} has no valid header")
        return records[0]

    @staticmethod
    def header_points(header: dict) -> list[tuple]:
        """Unpickle the points embedded in a journal header."""
        try:
            return pickle.loads(base64.b64decode(header["points"]))
        except Exception as error:  # noqa: BLE001 - any unpickling failure
            raise ExperimentError(
                "journal header points cannot be reconstructed; pass points "
                "to resume_trials explicitly"
            ) from error

    # ------------------------------------------------------------------
    # Reading / writing
    # ------------------------------------------------------------------
    @property
    def completed(self) -> dict[int, Any]:
        """Results loaded from the file at attach time, keyed by point index."""
        return dict(self._completed)

    def record_result(self, index: int, attempt: int, key: str, result: Any) -> None:
        """Append one completed point (flushed immediately — the checkpoint)."""
        self._append(
            {
                "kind": "result",
                "index": int(index),
                "key": key,
                "attempt": int(attempt),
                "result": result,
            }
        )

    def record_event(self, **fields: Any) -> None:
        """Append one telemetry event (fault fired, retry, pool restart...)."""
        self._append({"kind": "event", **fields})

    def _append(self, record: dict) -> None:
        self._log.append(record)

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "TrialJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TrialJournal(path={str(self.path)!r}, "
            f"n_points={self.header.get('n_points')}, "
            f"completed={len(self._completed)})"
        )
