"""Live protocol sessions: the state side of the server's control/state split.

A :class:`Session` owns everything one connected experiment needs to probe,
post and run interactively: the :class:`~repro.scenarios.engine.PreparedRun`
for its ``(spec, seed)`` pair (live board, oracle, shared randomness — the
exact state a batch ``execute(spec, seed)`` starts from), a private
:class:`~repro.obs.spans.Telemetry` collection, and a **single-threaded**
executor that serialises every mutation.  One worker thread per session is
the whole concurrency story: protocol state needs no locks (only the worker
touches it), while the asyncio side stays free to multiplex connections and
stream events — publishers read the live state only through the
tear-tolerant snapshot paths (:meth:`Telemetry.snapshot`,
:meth:`BulletinBoard.channel_stats`).

Interactive ops mutate the live context (probes consume the session's
budget, reports land on its board).  The ``run`` op deliberately does *not*:
it fans fresh contexts through :func:`repro.analysis.runner.run_trials` with
the same ``run_point`` unit the CLI uses, so a session's full-run rows are
bit-identical to ``python -m repro run`` of the same pair no matter what the
session did interactively beforehand.
"""

from __future__ import annotations

import collections
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

import numpy as np

from repro._typing import spawn_seeds
from repro.analysis.runner import run_trials
from repro.errors import ReproError
from repro.faults.chaos import degraded_payload
from repro.faults.runtime import installed
from repro.leader.feige import feige_leader_election
from repro.obs.runtime import _AMBIENT, collecting
from repro.obs.spans import Telemetry
from repro.protocols.rselect import rselect_collective
from repro.protocols.select import select_collective
from repro.scenarios.engine import (
    RESULT_COLUMNS,
    execute,
    prepare,
    run_point,
)
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ScenarioSpec, apply_override
from repro.serve.durability import (
    JOURNALED_OPS,
    CheckpointError,
    DurabilityWarning,
    EventRing,
    SessionCheckpoint,
    SessionJournal,
    session_checkpoint_path,
)
from repro.serve.protocol import (
    Overloaded,
    QuotaExceeded,
    ServeError,
    decode_array,
    encode_array,
)

__all__ = ["DEFAULT_MAX_PENDING", "Session", "build_spec", "run_point_with_predictions"]

#: Ops one session may hold queued or running before a further request is
#: shed with ``overloaded``: the default of :class:`Session`,
#: :class:`~repro.serve.server.PreferenceServer` and ``serve --max-pending``.
#: The cap bounds what a flooding client can queue; it is not meant to shed
#: the bursts a host stall builds up in an open-loop stream.  It is the
#: smallest power of two at least twice the most ops seen in flight: 132,
#: over five runs of the ``serve-durable`` benchmark workload (300
#: requests/s per session at its peak) with two busy loops competing for
#: the host's two cores.
DEFAULT_MAX_PENDING = 512


class _OpQuota:
    """Token bucket over a session's mutating ops (admission control).

    ``rate`` tokens refill per second up to ``burst``; each journaled op
    spends one.  :meth:`try_acquire` is called on the event loop (and from
    test threads), so the tiny critical section is locked.  An empty
    bucket returns the exact wait until the next token — the
    ``retry_after_s`` the quota-exceeded frame carries.
    """

    def __init__(self, rate: float, burst: int | None = None) -> None:
        self.rate = float(rate)
        if self.rate <= 0:
            raise ServeError(
                "bad-request", f"op quota rate must be positive, got {rate}"
            )
        self.burst = max(1, int(burst if burst is not None else 2 * self.rate))
        self._tokens = float(self.burst)
        self._updated = time.monotonic()
        self._lock = threading.Lock()

    def try_acquire(self) -> float:
        """Spend one token; returns 0.0 on success else seconds to wait."""
        with self._lock:
            now = time.monotonic()
            self._tokens = min(
                float(self.burst),
                self._tokens + (now - self._updated) * self.rate,
            )
            self._updated = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return 0.0
            return (1.0 - self._tokens) / self.rate


def build_spec(scenario: str, overrides: dict[str, Any] | None = None) -> ScenarioSpec:
    """Resolve a registry scenario and apply dotted-path overrides.

    ``overrides`` maps ``apply_override`` paths to values, e.g.
    ``{"population.n_players": 64, "dynamics.noise_rate": 0.1}`` — the same
    vocabulary as the CLI's ``--set`` flags, so a session can open any spec
    the sweep engine can reach.
    """
    spec = get_scenario(scenario)
    for path, value in (overrides or {}).items():
        spec = apply_override(spec, path, value)
    return spec


def run_point_with_predictions(spec: ScenarioSpec, seed: int, trial: int) -> dict:
    """``run_point`` plus the wire-encoded prediction matrix.

    Module-level so process-pool workers can import it.  The row portion is
    built from the same :func:`~repro.scenarios.engine.execute` call that
    produced the predictions (not a second execution), so row and matrix
    describe one run and the row stays bit-identical to :func:`run_point`'s.
    """
    run = execute(spec, seed)
    row = {"trial": trial, "trial_seed": seed}
    row.update(run.row)
    row["predictions"] = encode_array(run.predictions)
    row["active_players"] = encode_array(run.active_players)
    return row


class Session:
    """One live ``(spec, seed)`` protocol context plus its worker thread."""

    def __init__(
        self,
        name: str,
        spec: ScenarioSpec,
        seed: int,
        max_pending: int = DEFAULT_MAX_PENDING,
        run_workers: int = 1,
        journal: SessionJournal | None = None,
        ring_size: int = 1024,
        checkpoint: SessionCheckpoint | None = None,
        checkpoint_every: int | None = None,
        ops_per_s: float | None = None,
        ops_burst: int | None = None,
    ) -> None:
        self.name = name
        self.spec = spec
        self.seed = int(seed)
        self.max_pending = int(max_pending)
        self.run_workers = max(1, int(run_workers))
        self.telemetry = Telemetry()
        self.created_at = time.monotonic()
        self.last_used = self.created_at
        self.closed = False
        self._pending = 0
        self._lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"session-{name}"
        )
        # Round results stream out of run_trials' on_result callback (engine
        # thread) and drain on the asyncio side; deque appends/popleft are
        # GIL-atomic so no further locking is needed.
        self.rounds: collections.deque[dict[str, Any]] = collections.deque()
        self.run_stats: dict[str, int] = {}
        # Durability: the write-ahead op log (None for ephemeral sessions)
        # and the replay ring assigning (session, seq) event cursors.  A
        # recovered journal seeds both the op-seq and event-seq counters so
        # cursors stay monotonic across the restart; a recovered checkpoint
        # pushes both past everything its state already includes.
        self.journal = journal
        #: Every `checkpoint_every` journaled ops the worker snapshots the
        #: session state and compacts the log (None = never checkpoint).
        self.checkpoint_every = (
            max(1, int(checkpoint_every)) if checkpoint_every else None
        )
        self._ops_since_checkpoint = 0
        #: Seq of the last op covered by the on-disk checkpoint (0 = none).
        self.checkpoint_seq = checkpoint.op_seq if checkpoint is not None else 0
        #: Set when a journal append failed and the session fell back to
        #: ephemeral (the log was quarantined; state is still correct).
        self.durability_degraded = False
        self._quota = _OpQuota(ops_per_s, ops_burst) if ops_per_s else None
        journal_next = journal.next_op_seq if journal is not None else 1
        self.op_seq = max(journal_next, self.checkpoint_seq + 1)
        ring_next = journal.events_next_seq if journal is not None else 1
        if checkpoint is not None:
            ring_next = max(ring_next, checkpoint.events_next_seq)
        self.ring = EventRing(capacity=ring_size, next_seq=ring_next)
        #: True while journaled ops are being re-executed after a restart;
        #: round events are suppressed so subscribers never see replayed
        #: trials as fresh results.
        self.replaying = False
        self.replayed_ops = 0
        # prepare()/checkpoint.restore() runs on the session's own worker so
        # the event loop never blocks on instance generation; the executor
        # serialises it before any op that could race the construction.
        # The server verified the checkpoint against this spec before
        # building the session, so the restore cannot reject it here.
        if checkpoint is not None:
            self._prepared_future = self._executor.submit(
                checkpoint.restore, spec, self.seed
            )
        else:
            self._prepared_future = self._executor.submit(prepare, spec, self.seed)
        if journal is not None:
            # Replay only the tail past the checkpoint (everything at or
            # below checkpoint_seq is already inside the restored state —
            # including ops a crash left in a not-yet-compacted journal).
            # Replay queues behind prepare() on the same single worker, so
            # the socket can bind immediately: client ops land in the queue
            # and execute only after the session state is rebuilt.
            tail = [
                op for op in journal.recovered_ops if op[0] > self.checkpoint_seq
            ]
            if tail:
                self.replaying = True
                self._executor.submit(self._replay, tail)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def prepared(self):
        return self._prepared_future.result()

    def prepared_ready(self) -> bool:
        """Whether the deferred ``prepare()`` has finished (non-blocking)."""
        return self._prepared_future.done()

    def touch(self) -> None:
        self.last_used = time.monotonic()

    def idle_for(self) -> float:
        return time.monotonic() - self.last_used

    def close(self, remove_journal: bool = False) -> None:
        """Tear the session down; queued work is abandoned.

        ``remove_journal=True`` deletes the op log *and* checkpoint — the
        session is gone for good.  The default keeps the files so a
        restarted ``--state-dir`` server recovers the session (graceful
        shutdown path).  Eviction and explicit close go through the
        server, which closes with the files intact and then *archives*
        them (``sessions/<name>.evicted/``) rather than deleting.
        """
        self.closed = True
        self._executor.shutdown(wait=False, cancel_futures=True)
        if self.journal is not None:
            if remove_journal:
                ckpt = session_checkpoint_path(self.journal.path)
                self.journal.delete()
                ckpt.unlink(missing_ok=True)
            else:
                self.journal.close()

    def describe(self) -> dict[str, Any]:
        return {
            "session": self.name,
            "scenario": self.spec.name,
            "seed": self.seed,
            "pending": self._pending,
            "idle_s": round(self.idle_for(), 3),
            "closed": self.closed,
            "durable": self.journal is not None,
            "durability_degraded": self.durability_degraded,
            "next_seq": self.ring.next_seq,
            "op_seq": self.op_seq,
            "checkpoint_seq": self.checkpoint_seq,
            "quota": self._quota is not None,
            "replaying": self.replaying,
            "replayed_ops": self.replayed_ops,
        }

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _replay(self, ops: list[tuple[int, str, dict[str, Any]]]) -> None:
        """Re-execute journaled ops in order against the fresh context.

        Runs on the session worker, after ``prepare()`` and before any new
        client op.  Each op is the same deterministic function of session
        state it was the first time, so the rebuilt board/oracle/randomness
        are bit-identical to the pre-crash session's.  Ops that raised on
        the live server raise identically here and are skipped the same
        way (the live server answered the client with a typed error and
        carried on).  Runs under the session telemetry so recovered
        counters match an uncrashed server's.
        """
        errors = 0
        try:
            with collecting(self.telemetry):
                for _seq, op, params in ops:
                    if op not in JOURNALED_OPS:
                        continue
                    method = getattr(self, f"op_{op}", None)
                    if method is None:
                        continue
                    try:
                        method(params)
                    except (ReproError, ServeError):
                        errors += 1
                    self.replayed_ops += 1
                self.telemetry.add("serve.replayed_ops", self.replayed_ops)
                if errors:
                    self.telemetry.add("serve.replay_errors", errors)
        finally:
            self.replaying = False

    # ------------------------------------------------------------------
    # Worker dispatch
    # ------------------------------------------------------------------
    def submit(self, fn: Callable[[], Any]):
        """Queue ``fn`` on the session worker under overload limits.

        Returns the :class:`concurrent.futures.Future`.  At most
        ``max_pending`` ops may be queued or running; the overflow request
        is shed fast with a typed retryable ``overloaded`` error (carrying
        a ``retry_after_s`` hint) instead of growing an unbounded queue
        behind a slow op.

        ``fn`` runs under the session telemetry and under the fault
        injector of the thread that submits it (if any): the one place a
        fault plan crosses threads, so each session's disk faults count in
        its own submitter's plan.
        """
        if self.closed:
            raise ServeError("session-evicted", f"session {self.name!r} is closed")
        with self._lock:
            if self._pending >= self.max_pending:
                raise Overloaded(
                    f"session {self.name!r} has {self._pending} ops in flight "
                    f"(limit {self.max_pending}); retry after results drain",
                    retry_after_s=min(2.0, 0.05 * self._pending),
                )
            self._pending += 1
        self.touch()
        injector = _AMBIENT.faults

        def call() -> Any:
            try:
                with collecting(self.telemetry), installed(injector):
                    return fn()
            finally:
                with self._lock:
                    self._pending -= 1

        try:
            return self._executor.submit(call)
        except RuntimeError as error:  # executor already shut down
            with self._lock:
                self._pending -= 1
            raise ServeError(
                "session-evicted", f"session {self.name!r} is closed"
            ) from error

    def submit_op(self, op: str, params: dict[str, Any]):
        """Queue a named protocol op, write-ahead journaling it first.

        The journal record (monotonic ``seq``, op name, wire params) is
        appended and flushed *on the session worker immediately before the
        op executes* — strictly before its result frame can be sent — so
        every op a client ever saw acknowledged is recoverable by replay.
        A crash between append and execution leaves an op that was never
        acked; replaying it anyway is indistinguishable (to every client)
        from the op having completed just before the crash.

        Admission control happens first: a mutating op that exceeds the
        session's token-bucket quota is refused with a typed retryable
        ``quota-exceeded`` *before* it is journaled or queued, so the
        retry the client issues after ``retry_after_s`` is always safe.
        A journal append that hits a disk fault degrades the session to
        ephemeral (typed :class:`DurabilityWarning`, log quarantined) and
        the op still executes — durability is lost, correctness is not.
        """
        method = getattr(self, f"op_{op}")
        if self._quota is not None and op in JOURNALED_OPS:
            wait_s = self._quota.try_acquire()
            if wait_s > 0.0:
                raise QuotaExceeded(
                    f"session {self.name!r} op quota exhausted; "
                    f"next token in {wait_s:.2f}s",
                    retry_after_s=min(5.0, max(0.05, wait_s)),
                )
        if op == "run" and len(self.rounds) >= self.ring.capacity:
            # The publisher is starved: round events are piling up faster
            # than they drain.  Shed the run rather than stack more.
            raise Overloaded(
                f"session {self.name!r} has {len(self.rounds)} undrained "
                "round events; retry once the stream drains",
                retry_after_s=0.5,
            )

        def call() -> Any:
            journaled = False
            if self.journal is not None and op in JOURNALED_OPS:
                seq = self.op_seq
                self.op_seq = seq + 1
                try:
                    self.journal.record_op(seq, op, params)
                    journaled = True
                except OSError as error:
                    self._degrade_journal(error)
            result = method(params)
            if journaled:
                self._maybe_checkpoint()
            return result

        return self.submit(call)

    # ------------------------------------------------------------------
    # Checkpointing / durability degradation (session worker only)
    # ------------------------------------------------------------------
    def _maybe_checkpoint(self) -> None:
        """Periodic checkpoint trigger, called after each journaled op."""
        if self.checkpoint_every is None or self.replaying:
            return
        self._ops_since_checkpoint += 1
        if self._ops_since_checkpoint < self.checkpoint_every:
            return
        self._ops_since_checkpoint = 0
        self.write_checkpoint()

    def write_checkpoint(self) -> bool:
        """Snapshot the session state and compact the journal to the tail.

        Must run on the session worker (or with the session quiescent):
        the snapshot copies the live memo mask, board channels and
        generator state, so nothing may mutate them mid-capture.  The
        checkpoint covers every op executed so far (``op_seq - 1``); only
        after its atomic write *and read-back verification* succeed is the
        journal compacted.  Any failure —
        injected ``checkpoint.write`` faults, real ENOSPC, a failed
        compaction fsync — degrades to a typed :class:`DurabilityWarning`
        with the previous checkpoint and the full journal intact.
        Returns whether a new checkpoint is in place.
        """
        journal = self.journal
        if journal is None:
            return False
        upto_seq = self.op_seq - 1
        header = journal.header
        try:
            checkpoint = SessionCheckpoint.write(
                session_checkpoint_path(journal.path),
                session=self.name,
                scenario=str(header.get("scenario", self.spec.name)),
                overrides=dict(header.get("overrides") or {}),
                seed=self.seed,
                op_seq=upto_seq,
                events_next_seq=self.ring.next_seq,
                prepared=self.prepared,
            )
        except (OSError, CheckpointError) as error:
            self.telemetry.add("serve.checkpoint_errors", 1)
            warnings.warn(
                f"session {self.name!r} checkpoint failed ({error}); "
                "keeping the full journal",
                DurabilityWarning,
                stacklevel=2,
            )
            return False
        self.checkpoint_seq = checkpoint.op_seq
        self.telemetry.add("serve.checkpoint_writes", 1)
        try:
            journal.compact(checkpoint.op_seq)
        except OSError as error:
            # The checkpoint is good; a failed compaction just means the
            # journal keeps ops the checkpoint already covers.  Recovery
            # replays only the post-checkpoint tail either way.
            self.telemetry.add("serve.compaction_errors", 1)
            warnings.warn(
                f"session {self.name!r} journal compaction failed ({error}); "
                "the full journal remains valid",
                DurabilityWarning,
                stacklevel=2,
            )
            return True
        self.telemetry.add("serve.compactions", 1)
        return True

    def _degrade_journal(self, error: Exception) -> None:
        """A journal append failed: quarantine the log, go ephemeral."""
        journal = self.journal
        self.journal = None
        self.durability_degraded = True
        self.telemetry.add("serve.journal_degraded", 1)
        broken = journal.path
        try:
            broken = journal.quarantine()
        except OSError:  # pragma: no cover - quarantine is best-effort
            pass
        warnings.warn(
            f"session {self.name!r} journal append failed ({error}); the log "
            f"was quarantined at {broken} and the session continues "
            "ephemeral (state remains correct, recovery is lost)",
            DurabilityWarning,
            stacklevel=2,
        )

    # ------------------------------------------------------------------
    # Ops (each runs on the session worker via submit())
    # ------------------------------------------------------------------
    def op_probe(self, params: dict[str, Any]) -> dict[str, Any]:
        """Probe the session oracle: one player, a list of objects."""
        ctx = self.prepared.context
        player = _require_int(params, "player")
        objects = _as_indices(params, "objects")
        values = ctx.oracle.probe_objects(player, objects)
        return {
            "player": player,
            "objects": objects.tolist(),
            "values": np.asarray(values).tolist(),
            "probes_used": int(ctx.oracle.probes_used()[player]),
        }

    def op_report(self, params: dict[str, Any]) -> dict[str, Any]:
        """Post one player's binary reports for a set of objects."""
        ctx = self.prepared.context
        channel = _require_str(params, "channel")
        player = _require_int(params, "player")
        objects = _as_indices(params, "objects")
        values = _as_values(params, "values")
        ctx.board.post_reports(channel, player, objects, values)
        return {"channel": channel, "posted": int(objects.size)}

    def op_board(self, params: dict[str, Any]) -> dict[str, Any]:
        """Read a report channel: per-object majority, support, and stats."""
        ctx = self.prepared.context
        channel = _require_str(params, "channel")
        stats = ctx.board.channel_stats()
        if channel not in stats:
            raise ServeError("bad-request", f"unknown board channel {channel!r}")
        majority, support = ctx.board.masked_majority(channel)
        return {
            "channel": channel,
            "stats": stats[channel],
            "majority": encode_array(np.asarray(majority)),
            "support": encode_array(np.asarray(support)),
        }

    def op_select(self, params: dict[str, Any]) -> dict[str, Any]:
        """Run the ``Select`` building block on the live context."""
        ctx = self.prepared.context
        players = _as_indices(params, "players", default=ctx.all_players())
        objects = _as_indices(params, "objects", default=ctx.all_objects())
        candidates = _as_matrix(params, "candidates")
        sample_size = params.get("sample_size")
        choice, chosen = select_collective(
            ctx, players, objects, candidates,
            sample_size=None if sample_size is None else int(sample_size),
        )
        return {
            "choice": choice.tolist(),
            "chosen_vectors": encode_array(chosen),
        }

    def op_rselect(self, params: dict[str, Any]) -> dict[str, Any]:
        """Run the recursive ``RSelect`` building block on the live context."""
        ctx = self.prepared.context
        players = _as_indices(params, "players", default=ctx.all_players())
        objects = _as_indices(params, "objects", default=ctx.all_objects())
        candidates = _as_matrix(params, "candidates_per_player", ndim=3)
        if candidates.shape[0] != players.size:
            raise ServeError(
                "bad-request",
                f"candidates_per_player has {candidates.shape[0]} rows for "
                f"{players.size} players",
            )
        sample_size = params.get("sample_size")
        chosen = rselect_collective(
            ctx, players, objects,
            [candidates[:, slot] for slot in range(candidates.shape[1])],
            sample_size=None if sample_size is None else int(sample_size),
        )
        return {"chosen_vectors": encode_array(chosen)}

    def op_election(self, params: dict[str, Any]) -> dict[str, Any]:
        """Run one Feige leader election over the session's player pool."""
        ctx = self.prepared.context
        n_players = int(params.get("n_players", ctx.n_players))
        dishonest = params.get("dishonest")
        if dishonest is None:
            dishonest = ctx.pool.dishonest_players
        else:
            dishonest = np.asarray(dishonest, dtype=np.int64)
        seed = int(params.get("seed", self.seed))
        max_rounds = int(params.get("max_rounds", 64))
        result = feige_leader_election(
            n_players, dishonest=dishonest, seed=seed, max_rounds=max_rounds
        )
        return {
            "leader": int(result.leader),
            "leader_is_honest": bool(result.leader_is_honest),
            "rounds": int(result.rounds),
            "survivors_per_round": [int(s) for s in result.survivors_per_round],
        }

    def op_run(self, params: dict[str, Any]) -> dict[str, Any]:
        """Full batch run of the session's ``(spec, seed)`` pair.

        Mirrors ``python -m repro run`` exactly: the same ``spawn_seeds``
        stream, the same trial unit, the same engine — which is what makes
        the returned rows bit-identical to the offline CLI for any worker
        count.  Each completed trial is also pushed onto ``self.rounds`` so
        the publisher can stream round-result events while later trials are
        still executing.
        """
        trials = int(params.get("trials", 1))
        if trials <= 0:
            raise ServeError("bad-request", f"trials must be positive, got {trials}")
        workers = int(params.get("workers", self.run_workers))
        include_predictions = bool(params.get("include_predictions", False))
        retries = int(params.get("retries", 0))
        seeds = spawn_seeds(self.seed, trials)
        points = [(self.spec, seeds[trial], trial) for trial in range(trials)]
        trial_fn = run_point_with_predictions if include_predictions else run_point

        def on_result(index: int, row: dict[str, Any]) -> None:
            if self.replaying:
                # A recovery replay re-executes journaled runs to rebuild
                # telemetry, but subscribers already streamed these trials
                # before the crash — do not re-publish them as fresh.
                return
            event_row = {
                key: row[key]
                for key in ("trial", "trial_seed", *RESULT_COLUMNS)
                if key in row
            }
            self.rounds.append({"session": self.name, "row": event_row})

        stats: dict[str, int] = {}
        start = time.perf_counter()
        rows = run_trials(
            trial_fn, points,
            n_workers=workers, retries=retries,
            stats=stats, on_result=on_result,
        )
        self.run_stats = dict(stats)
        return {
            "rows": rows,
            "columns": ["trial", "trial_seed", *RESULT_COLUMNS]
            + (["predictions", "active_players"] if include_predictions else []),
            "stats": stats,
            "wall_s": time.perf_counter() - start,
        }

    def op_snapshot(self, params: dict[str, Any]) -> dict[str, Any]:
        """Mid-run state snapshot: telemetry families + board counters.

        Runs on the *event loop*, not the worker — that is the point: it
        must stay responsive while the worker is deep inside a run, and the
        underlying reads are tear-tolerant by design.
        """
        report = self.telemetry.snapshot()
        board = (
            self.prepared.context.board.channel_stats()
            if self.prepared_ready()
            else {}
        )
        return {
            "session": self.name,
            "telemetry": report.metrics_block(),
            "board": board,
            "run_stats": dict(self.run_stats),
        }


# ----------------------------------------------------------------------
# Parameter coercion helpers (typed bad-request errors, never tracebacks)
# ----------------------------------------------------------------------
def _require(params: dict[str, Any], key: str) -> Any:
    if key not in params:
        raise ServeError("bad-request", f"missing required parameter {key!r}")
    return params[key]


def _require_int(params: dict[str, Any], key: str) -> int:
    value = _require(params, key)
    try:
        return int(value)
    except (TypeError, ValueError) as error:
        raise ServeError("bad-request", f"parameter {key!r} must be an integer") from error


def _require_str(params: dict[str, Any], key: str) -> str:
    value = _require(params, key)
    if not isinstance(value, str):
        raise ServeError("bad-request", f"parameter {key!r} must be a string")
    return value


def _as_indices(
    params: dict[str, Any], key: str, default: np.ndarray | None = None
) -> np.ndarray:
    value = params.get(key)
    if value is None:
        if default is None:
            raise ServeError("bad-request", f"missing required parameter {key!r}")
        return default
    try:
        return np.asarray(value, dtype=np.int64).reshape(-1)
    except (TypeError, ValueError) as error:
        raise ServeError(
            "bad-request", f"parameter {key!r} must be a list of indices"
        ) from error


def _as_values(params: dict[str, Any], key: str) -> np.ndarray:
    value = _require(params, key)
    try:
        return np.asarray(value, dtype=np.uint8).reshape(-1)
    except (TypeError, ValueError) as error:
        raise ServeError(
            "bad-request", f"parameter {key!r} must be a list of binary values"
        ) from error


def _as_matrix(params: dict[str, Any], key: str, ndim: int = 2) -> np.ndarray:
    value = _require(params, key)
    if isinstance(value, dict) and "__ndarray__" in value:
        array = decode_array(value)
    else:
        try:
            array = np.asarray(value, dtype=np.uint8)
        except (TypeError, ValueError) as error:
            raise ServeError(
                "bad-request", f"parameter {key!r} must be an array"
            ) from error
    if array.ndim != ndim:
        raise ServeError(
            "bad-request", f"parameter {key!r} must be {ndim}-D, got {array.ndim}-D"
        )
    return array.astype(np.uint8)


#: Degraded-event payload builder re-exported for the publisher.
degraded_event_payload = degraded_payload
