"""E15 — bounded-time recovery: checkpointed restart vs full journal replay.

Not a paper experiment: this table records the durability layer's recovery
cost so the "restart is O(checkpoint + tail), not O(history)" property is a
measured number rather than a claim.  A durable session is driven through a
ladder of journaled ``probe`` ops, then recovered two ways from the same
state dir:

* **replay** — no checkpoint on disk: recovery re-executes every journaled
  op against a fresh ``prepare(spec, seed)`` (the O(history) path);
* **checkpoint** — a checkpoint written at the end of the op stream with
  the journal compacted to the (empty) post-checkpoint tail: recovery runs
  ``prepare(spec, seed)``, installs the snapshot (memo mask, request
  counts, board channels, generator state) and replays nothing (the
  O(checkpoint + tail) path).

Both recoveries must land on bit-identical state (every board channel's
packed rows, the oracle's memo mask, request and probe counts, and the
shared generator's state); the ``speedup_x`` column is the headline number
— the acceptance gate wants the 10k-op restart at least 10x faster with a
checkpoint.

Columns: ``mode`` (replay / checkpoint), ``ops`` (journaled op count),
``replayed`` (ops re-executed during recovery), ``ckpt_kib`` (checkpoint
size on disk, 0 for replay rows), ``wall_s`` (recovery time, from the scan
until the session worker has rebuilt the state) and ``speedup_x`` (replay
wall over checkpoint wall for the same op count).
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.analysis.reporting import ExperimentTable, render_markdown, render_text
from repro.serve.durability import SessionJournal, session_checkpoint_path, session_journal_path
from repro.serve.server import PreferenceServer
from repro.serve.session import Session, build_spec

OP_COUNTS: tuple[int, ...] = (1_000, 10_000)
SCENARIO = "zero-radius-exact"
SEED = 7


def _build_durable_session(state_dir: Path, n_ops: int) -> None:
    """Journal ``n_ops`` probe ops then crash (no close, no checkpoint)."""
    journal = SessionJournal.create(
        session_journal_path(state_dir, "bench"), session="bench",
        scenario=SCENARIO, overrides=None, seed=SEED, max_pending=64,
    )
    session = Session("bench", build_spec(SCENARIO), SEED, journal=journal)
    for index in range(n_ops):
        objects = [(index + offset) % 96 for offset in range(4)]
        session.submit_op("probe", {"player": index % 96, "objects": objects}).result()
    session._executor.shutdown(wait=True)


def _recover(state_dir: Path) -> tuple[float, PreferenceServer]:
    """Time a cold recovery of the state dir.

    The scan only queues each session's rebuild (``prepare`` plus the
    checkpoint install, then the tail replay) on the session's worker, so
    the clock stops at a barrier behind that work.
    """
    server = PreferenceServer(state_dir=state_dir)
    start = time.perf_counter()
    server._recover_sessions()
    for session in server.sessions.values():
        session.submit(lambda: None).result()
    return time.perf_counter() - start, server


def _observable_state(session: Session) -> tuple:
    """Everything session ops change: board channels, memo, counts, RNG."""
    session.submit(lambda: None).result()  # settle replay
    context = session.prepared.context
    channels = context.board.export_channels("")["reports"]
    probed, requests = context.oracle.probe_state()
    return (
        {name: (values.tobytes(), posted.tobytes()) for name, (values, posted) in channels.items()},
        probed.tobytes(),
        requests.tolist(),
        context.oracle.probes_used().tolist(),
        context.randomness.generator.bit_generator.state,
    )


def recovery_benchmark(op_counts: tuple[int, ...] = OP_COUNTS) -> ExperimentTable:
    """Replay-vs-checkpoint recovery ladder over journaled op counts."""
    table = ExperimentTable(
        experiment_id="E15",
        title="Session recovery: full journal replay vs checkpoint + tail",
        columns=["mode", "ops", "replayed", "ckpt_kib", "wall_s", "speedup_x"],
        notes=[
            f"scenario {SCENARIO!r}; journaled probe ops, 4 objects each; "
            "recovery timed cold, from the scan until the session worker "
            "settles (includes prepare, the snapshot install and any replay).",
            "checkpoint rows: snapshot written after the last op, journal "
            "compacted to the empty tail; replay rows: same journal, no "
            "checkpoint on disk.",
            "both modes recover bit-identical state (board channels, oracle "
            "memo and counts, shared generator state).",
        ],
    )
    for n_ops in op_counts:
        with tempfile.TemporaryDirectory(prefix="e15-state-") as tmp:
            state_dir = Path(tmp)
            _build_durable_session(state_dir, n_ops)

            replay_wall, server = _recover(state_dir)
            assert server.recovery_stats["ops_replayed"] == n_ops
            recovered = server.sessions["bench"]
            state_after_replay = _observable_state(recovered)

            # Checkpoint the recovered session: snapshot + compaction.
            assert recovered.write_checkpoint() is True
            recovered._executor.shutdown(wait=True)
            journal_path = session_journal_path(state_dir, "bench")
            ckpt_bytes = session_checkpoint_path(journal_path).stat().st_size

            ckpt_wall, server2 = _recover(state_dir)
            assert server2.recovery_stats["checkpoint_loads"] == 1
            replayed_tail = server2.recovery_stats["ops_replayed"]
            assert _observable_state(server2.sessions["bench"]) == state_after_replay
            server2.sessions["bench"]._executor.shutdown(wait=True)

            speedup = replay_wall / ckpt_wall if ckpt_wall > 0 else float("inf")
            table.add_row(
                mode="replay", ops=n_ops, replayed=n_ops, ckpt_kib=0,
                wall_s=round(replay_wall, 4), speedup_x=1.0,
            )
            table.add_row(
                mode="checkpoint", ops=n_ops, replayed=replayed_tail,
                ckpt_kib=round(ckpt_bytes / 1024, 1),
                wall_s=round(ckpt_wall, 4), speedup_x=round(speedup, 1),
            )
    return table


def test_e15_recovery(benchmark, report_table):
    table = report_table(benchmark, recovery_benchmark, "e15_recovery")
    by_ops: dict[int, dict[str, dict]] = {}
    for row in table.rows:
        by_ops.setdefault(row["ops"], {})[row["mode"]] = row
    assert max(by_ops) >= 10_000
    for ops, modes in by_ops.items():
        assert modes["replay"]["replayed"] == ops
        assert modes["checkpoint"]["replayed"] == 0
        assert modes["checkpoint"]["wall_s"] < modes["replay"]["wall_s"]
    # The acceptance gate: the 10k-op restart is >= 10x faster checkpointed.
    assert by_ops[10_000]["checkpoint"]["speedup_x"] >= 10.0


def main() -> None:
    from conftest import RESULTS_DIR, write_result_json

    start = time.perf_counter()
    table = recovery_benchmark()
    wall = time.perf_counter() - start
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    text = render_text(table)
    (RESULTS_DIR / "e15_recovery.txt").write_text(text + "\n")
    (RESULTS_DIR / "e15_recovery.md").write_text(render_markdown(table) + "\n")
    path = write_result_json("e15_recovery", table, wall)
    print(text)
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
