"""The ``serve-durable`` workload: open-loop load on a durable server.

The server runs as ``python -m repro serve --state-dir DIR`` in its own
process; this process only generates load.  Two sessions on the recorded
scenario get one :class:`~repro.serve.client.AsyncPreferenceClient`
connection each.  The op script is a pure function of the benchmark seed:
about 70 % ``probe`` (8 objects), 20 % ``report`` and 10 % ``board`` reads,
sent open-loop at two fixed offered rates, in rounds of a ``light`` phase
followed by a ``heavy`` one.  Each request is timed from the moment it was
*due*, so a stall also charges the requests queued behind it, and the
generator's own lateness is reported.
After the load the server is SIGKILLed and a fresh process times restarts
over the same state dir (``recover_probe.py``).

The traced pass hosts the server in-process instead, with
:class:`layers.ServeSpans` wrapped around each serve layer.
"""

from __future__ import annotations

import asyncio
import json
import queue
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from harness import (
    BENCH_DIR,
    WORK_DIR,
    HostSpeed,
    Outcome,
    fresh_work_dir,
    median,
    proc_peak_rss_mb,
    quantile,
    remove_tree,
)

#: Requests still unanswered this long after the last one was due count as
#: timed out.
DRAIN_TIMEOUT_S = 10.0
#: Child processes that do not come up (or go down) in time fail the run.
PROCESS_TIMEOUT_S = 60.0
#: Shed codes: the server refused the request before executing it.
SHED_CODES = frozenset({"overloaded", "quota-exceeded"})
#: Reference computations per host-speed sample: a run takes only a few
#: samples, so each is a median, which keeps one slow reference from
#: skewing it.
SPEED_REPEATS = 5


@dataclass
class Op:
    due_s: float
    session: int
    kind: str
    params: dict[str, Any]
    phase: tuple[str, int]


@dataclass
class PhaseStats:
    latencies_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    slow: int = 0


def make_script(
    run_seed: int,
    record: dict[str, Any],
    truths: list[Any],
    phases: list[tuple[tuple[str, int], float, float]],
) -> list[Op]:
    """The deterministic op script: ``phases`` is ``[(phase, rate, seconds)]``.

    Requests alternate between the two sessions at a fixed spacing; a
    ``board`` read only targets a channel its session has already posted
    to (before that it becomes a ``report``).
    """
    rng = random.Random(run_seed)
    mix = record["op_mix"]
    n_players, n_objects = truths[0].shape
    width = int(record["objects_per_op"])
    channels = [f"bench/c{k}" for k in range(int(record["channels"]))]
    reported: list[list[str]] = [[] for _ in truths]
    script: list[Op] = []
    start = 0.0
    for phase, rate, seconds in phases:
        count = int(rate * seconds)
        for index in range(count):
            session = index % len(truths)
            player = rng.randrange(n_players)
            objects = sorted(rng.sample(range(n_objects), width))
            draw = rng.random()
            if draw < mix["probe"]:
                kind, params = "probe", {"player": player, "objects": objects}
            elif draw < mix["probe"] + mix["report"] or not reported[session]:
                channel = rng.choice(channels)
                if channel not in reported[session]:
                    reported[session].append(channel)
                values = truths[session][player, objects].tolist()
                kind = "report"
                params = {"channel": channel, "player": player,
                          "objects": objects, "values": values}
            else:
                kind, params = "board", {"channel": rng.choice(reported[session])}
            script.append(Op(start + index / rate, session, kind, params, phase))
        start += seconds
    return script


def offline_truths(spec: Any, seeds: list[int]) -> list[Any]:
    """Ground truth of each session from an offline ``prepare(spec, seed)``."""
    from repro.scenarios.engine import prepare

    return [prepare(spec, seed).context.oracle.ground_truth() for seed in seeds]


# ----------------------------------------------------------------------
# Server process management
# ----------------------------------------------------------------------
class ServerProcess:
    """``python -m repro serve`` in a child process."""

    def __init__(self, state_dir: Path, checkpoint_every: int) -> None:
        self.log_path = state_dir / "server.log"
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--state-dir", str(state_dir),
                "--checkpoint-every", str(checkpoint_every),
            ],
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def wait_ready(self) -> tuple[str, int]:
        deadline = time.monotonic() + PROCESS_TIMEOUT_S
        while True:
            try:
                line = self._lines.get(timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError("server did not report its address in time") from None
            if line is None:
                raise RuntimeError(
                    f"server exited early:\n{self.log_path.read_text()[-2000:]}"
                )
            if line.startswith("listening on "):
                host, _, port = line.split()[-1].rpartition(":")
                return host, int(port)

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self, sig: int = signal.SIGTERM) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
        try:
            self.proc.wait(timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=PROCESS_TIMEOUT_S)
        self._reader.join(timeout=PROCESS_TIMEOUT_S)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
class LoadGenerator:
    """Open-loop load generator over one client connection per session."""

    def __init__(
        self, record: dict[str, Any], truths: list[Any], outcome: Outcome
    ) -> None:
        self.record = record
        self.truths = truths
        self.outcome = outcome
        self.clients: list[Any] = []
        self.sessions: list[str] = []
        self.phases: dict[tuple[str, int], PhaseStats] = {}
        self.lags_s: list[float] = []
        self.probes_used: list[dict[int, int]] = [{} for _ in truths]
        self.sheds = 0

    async def connect(self, host: str, port: int, seeds: list[int]) -> None:
        """Open one connection and one session per seed, each settled: an
        empty probe returns only once the session's state is built."""
        from repro.serve.client import AsyncPreferenceClient

        for seed in seeds:
            client = await AsyncPreferenceClient.connect(
                host=host, port=port, shed_retries=0
            )
            self.clients.append(client)
            session = await client.open_session(
                self.record["scenario"], seed=seed, overrides=self.record["overrides"]
            )
            self.sessions.append(session)
            await client.probe(session, player=0, objects=[])

    async def close(self) -> None:
        for client in self.clients:
            await client.close()

    def _check(self, op: Op, result: Any) -> str:
        if op.kind == "probe":
            player, objects = op.params["player"], op.params["objects"]
            expected = self.truths[op.session][player, objects].tolist()
            if result.get("values") != expected:
                return f"probe of player {player} disagrees with the ground truth"
            seen = self.probes_used[op.session]
            seen[player] = max(seen.get(player, 0), int(result["probes_used"]))
        elif op.kind == "report":
            if result.get("posted") != len(op.params["objects"]):
                return "report posted a different number of cells"
        elif result.get("channel") != op.params["channel"]:
            return "board read answered for another channel"
        return ""

    async def _send(self, op: Op, due: float, stats: PhaseStats, slo_s: float) -> None:
        from repro.errors import ConnectionLost
        from repro.serve.client import ServerSideError

        loop = asyncio.get_running_loop()
        client = self.clients[op.session]
        # Stays the verdict if the drain timeout cancels the request.
        problem, wrong = f"{op.kind} timed out", False
        try:
            result = await client.call(op.kind, session=self.sessions[op.session], **op.params)
            problem = self._check(op, result)
            wrong = bool(problem)
        except ServerSideError as error:
            if error.code in SHED_CODES:
                self.sheds += 1
            problem = f"{op.kind} refused: {error}"
        except ConnectionLost as error:
            problem = f"{op.kind} lost its connection: {error}"
        finally:
            latency = loop.time() - due
            stats.attempted += 1
            if problem:
                stats.failed += 1
            else:
                stats.latencies_s.append(latency)
                if latency > slo_s:
                    stats.slow += 1
            self.outcome.record(problem, wrong=wrong)

    async def drive(self, script: list[Op], slo_s: float) -> None:
        """Send every op at its due time; wait for the stragglers.

        A timer thread sleeps until each due time and hands the op to the
        event loop: the loop's own timers round sleeps up to whole
        milliseconds, which would add up to a millisecond of generator lag
        to every request at the light rate.
        """
        loop = asyncio.get_running_loop()
        tasks: set[asyncio.Task] = set()
        finished = asyncio.Event()
        start = loop.time() + 0.05 - script[0].due_s

        def fire(op: Op, due: float) -> None:
            self.lags_s.append(max(0.0, loop.time() - due))
            stats = self.phases.setdefault(op.phase, PhaseStats())
            task = loop.create_task(self._send(op, due, stats, slo_s))
            tasks.add(task)
            task.add_done_callback(tasks.discard)

        def timer() -> None:
            try:
                for op in script:
                    due = start + op.due_s
                    delay = due - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                    loop.call_soon_threadsafe(fire, op, due)
            finally:
                loop.call_soon_threadsafe(finished.set)

        thread = threading.Thread(target=timer, name="load-timer", daemon=True)
        thread.start()
        await finished.wait()
        thread.join()
        if tasks:
            _done, pending = await asyncio.wait(set(tasks), timeout=DRAIN_TIMEOUT_S)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending)

    async def board_snapshot(self) -> list[dict[str, Any]]:
        """Every session's board channel stats (the pre-kill snapshot)."""
        return [
            (await client.call("snapshot", session=session))["board"]
            for client, session in zip(self.clients, self.sessions)
        ]

    def client_stats(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for client in self.clients:
            for key, value in client.stats.items():
                totals[key] = totals.get(key, 0) + int(value)
        return totals

    def max_probes(self) -> int:
        return max((max(seen.values(), default=0) for seen in self.probes_used), default=0)


def phase_plan(
    record: dict[str, Any], seconds: float
) -> list[tuple[tuple[str, int], float, float]]:
    """Alternate light and heavy phases over ``rounds`` rounds.

    Each round's quantiles are computed on their own and the run reports
    their median, so a burst of contention from outside the benchmark that
    spoils one round does not move the run's figures.
    """
    rates = record["rates_per_s"]
    rounds = int(record["rounds"])
    light_s = seconds * float(record["light_share"]) / rounds
    heavy_s = seconds / rounds - light_s
    plan = []
    for index in range(rounds):
        plan.append((("light", index), float(rates["light"]), light_s))
        plan.append((("heavy", index), float(rates["heavy"]), heavy_s))
    return plan


def session_seeds(record: dict[str, Any], run_seed: int) -> list[int]:
    """One ``(spec, seed)`` session per seed, all drawn from the run seed."""
    rng = random.Random(f"sessions-{run_seed}")
    return [rng.randrange(2**31) for _ in range(int(record["sessions"]))]


def check_recovery(
    outcome: Outcome,
    generator: LoadGenerator,
    boards: list[dict[str, Any]],
    recovered: dict[str, Any],
) -> None:
    """Recovered sessions must match the pre-kill snapshot exactly."""
    for index, name in enumerate(generator.sessions):
        state = recovered.get(name)
        if state is None:
            outcome.check(False, f"session {name} was not recovered")
            continue
        outcome.check(state["channel_stats"] == boards[index],
                      f"session {name}: recovered board differs from the pre-kill snapshot")
        seen = generator.probes_used[index]
        expected = [seen.get(player, 0) for player in range(len(state["probes_used"]))]
        outcome.check(state["probes_used"] == expected,
                      f"session {name}: recovered probes_used differs from the pre-kill snapshot")


def summarize(generator: LoadGenerator, slo_ms: float) -> dict[str, float]:
    """Per-phase latencies (median over rounds of each round's quantile),
    the heavy phases' SLO misses and the generator's lateness."""

    def rounds(name: str) -> list[PhaseStats]:
        return [stats for (phase, _), stats in sorted(generator.phases.items())
                if phase == name]

    def latency_ms(name: str, q: float) -> float:
        return median(
            quantile(s.latencies_s, q) for s in rounds(name) if s.latencies_s
        ) * 1e3

    heavy = rounds("heavy")
    values = {
        "light.p50_ms": latency_ms("light", 0.5),
        "light.p99_ms": latency_ms("light", 0.99),
        "heavy.p50_ms": latency_ms("heavy", 0.5),
        "heavy.p90_ms": latency_ms("heavy", 0.9),
        "heavy.p95_ms": latency_ms("heavy", 0.95),
        "heavy.p99_ms": latency_ms("heavy", 0.99),
        "slo_miss_frac": sum(s.failed + s.slow for s in heavy)
        / sum(s.attempted for s in heavy),
        "gen.lag_p99_ms": quantile(generator.lags_s, 0.99) * 1e3,
    }
    print(
        "serve-durable: "
        + "  ".join(f"{key} {value:.4f}" for key, value in values.items())
        + f"  requests light {sum(s.attempted for s in rounds('light'))}"
        f" heavy {sum(s.attempted for s in heavy)}  (slo limit {slo_ms:g} ms)",
        flush=True,
    )
    return values


# ----------------------------------------------------------------------
# Untraced run: server out of process
# ----------------------------------------------------------------------
async def _boot(
    record: dict[str, Any], truths: list[Any], seeds: list[int], outcome: Outcome
) -> tuple[float, ServerProcess, LoadGenerator, Path]:
    state_dir = fresh_work_dir("serve-state-")
    start = time.perf_counter()
    server = ServerProcess(state_dir, int(record["checkpoint_every"]))
    try:
        host, port = await asyncio.get_running_loop().run_in_executor(None, server.wait_ready)
        generator = LoadGenerator(record, truths, outcome)
        await generator.connect(host, port, seeds)
    except BaseException:
        server.stop(signal.SIGKILL)
        raise
    return time.perf_counter() - start, server, generator, state_dir


def recover_in_child(state_dir: Path) -> dict[str, Any]:
    """Time restarts over ``state_dir`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "recover_probe.py"), "--state-dir", str(state_dir)],
        capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S * 2,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"recovery probe failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


async def _run_untraced(record: dict[str, Any], run_seed: int, seconds: float,
                        outcome: Outcome) -> dict[str, float]:
    from repro.serve.session import build_spec

    seeds = session_seeds(record, run_seed)
    truths = offline_truths(build_spec(record["scenario"], record["overrides"]), seeds)
    script = make_script(run_seed, record, truths, phase_plan(record, seconds))
    slo_s = float(record["slo_ms"]) / 1e3

    # Every timed figure is normalised to the reference host speed by the
    # host-speed samples taken just before and after it (harness.HostSpeed).
    speed = HostSpeed()
    speed.sample(SPEED_REPEATS)
    setups: list[float] = []
    for _ in range(int(record["setup_boots"]) - 1):
        wall, server, generator, state_dir = await _boot(record, truths, seeds, outcome)
        speed.sample(SPEED_REPEATS)
        setups.append(speed.scaled(wall))
        try:
            await generator.close()
        finally:
            server.stop(signal.SIGTERM)
            remove_tree(state_dir)
    wall, server, generator, state_dir = await _boot(record, truths, seeds, outcome)
    speed.sample(SPEED_REPEATS)
    setups.append(speed.scaled(wall))
    light_p50: list[float] = []
    try:
        try:
            # One round at a time, so that each round's light-phase median
            # is scaled by the samples taken, with nothing in flight,
            # around that round.
            for index in sorted({op.phase[1] for op in script}):
                await generator.drive([op for op in script if op.phase[1] == index], slo_s)
                speed.sample(SPEED_REPEATS)
                latencies = generator.phases[("light", index)].latencies_s
                if latencies:
                    light_p50.append(speed.scaled(quantile(latencies, 0.5)))
            boards = await generator.board_snapshot()
            peak_rss = server.peak_rss_mb()
        finally:
            await generator.close()
            server.stop(signal.SIGKILL)
        recovered = recover_in_child(state_dir)
    finally:
        remove_tree(state_dir)
    for state in recovered["runs"]:
        check_recovery(outcome, generator, boards, state["sessions"])
    recovery = [state["recovery_s"] for state in recovered["runs"]]

    values = summarize(generator, float(record["slo_ms"]))
    print(
        f"serve-durable: normalised setup_s {median(setups):.4f}  normalised light.p50_ms "
        f"{median(light_p50) * 1e3:.4f}  recovery_s {median(recovery):.4f}"
        f"  ops_replayed {recovered['runs'][0]['ops_replayed']}"
        f"  peak_rss_mb {peak_rss:.1f}  sheds {generator.sheds}"
        f"  failed_frac {outcome.failed / outcome.attempted:.4f}",
        flush=True,
    )
    return {
        "setup_s": median(setups),
        "p50_ms": median(light_p50) * 1e3,
        "peak_rss_mb": peak_rss,
        "max_probes": float(generator.max_probes()),
        "ok_frac": outcome.ok_frac,
    }


# ----------------------------------------------------------------------
# Traced run: server in-process, serve layers wrapped
# ----------------------------------------------------------------------
def _start_inprocess(state_dir: Path, checkpoint_every: int) -> tuple[Any, threading.Thread]:
    from repro.serve.server import PreferenceServer

    server = PreferenceServer(port=0, state_dir=state_dir, checkpoint_every=checkpoint_every)
    thread = threading.Thread(target=server.run, name="bench-server", daemon=True)
    thread.start()
    if not server.ready.wait(timeout=PROCESS_TIMEOUT_S):
        raise RuntimeError("in-process server did not become ready")
    return server, thread


def _stop_inprocess(server: Any, thread: threading.Thread) -> None:
    server.request_shutdown()
    thread.join(timeout=PROCESS_TIMEOUT_S)
    if thread.is_alive():
        raise RuntimeError("in-process server did not shut down")


async def _run_traced(record: dict[str, Any], run_seed: int, seconds: float,
                      outcome: Outcome) -> dict[str, float]:
    import shutil

    from layers import ServeSpans, kernel_and_counter_metrics
    from recover_probe import recover_once
    from repro.obs.report import TraceReport
    from repro.serve.session import build_spec

    seeds = session_seeds(record, run_seed)
    truths = offline_truths(build_spec(record["scenario"], record["overrides"]), seeds)
    script = make_script(run_seed, record, truths, phase_plan(record, seconds))
    spans = ServeSpans()
    state_dir = fresh_work_dir("serve-traced-")
    crash_image = fresh_work_dir("serve-image-")
    checkpoint_every = int(record["checkpoint_every"])
    try:
        with spans.installed():
            server, thread = _start_inprocess(state_dir, checkpoint_every)
            generator = LoadGenerator(record, truths, outcome)
            try:
                _, host, port = server.address
                await generator.connect(host, port, seeds)
                await generator.drive(script, float(record["slo_ms"]) / 1e3)
                boards = await generator.board_snapshot()
                sessions = TraceReport.merged(
                    session.telemetry.snapshot() for session in server.sessions.values()
                ).as_payload()
                # Quiescent copy of the live state dir: what a SIGKILL
                # right now would leave behind.
                remove_tree(crash_image)
                shutil.copytree(state_dir, crash_image)
            finally:
                await generator.close()
                _stop_inprocess(server, thread)
            recovered = await asyncio.get_running_loop().run_in_executor(
                None, recover_once, crash_image
            )
        check_recovery(outcome, generator, boards, recovered["sessions"])
    finally:
        remove_tree(state_dir)
        remove_tree(crash_image)
    spans.dump(WORK_DIR / f"trace-serve-durable-{run_seed}.json")
    summarize(generator, float(record["slo_ms"]))
    metrics = spans.metrics()
    metrics.update(kernel_and_counter_metrics(sessions, 1.0))
    client = generator.client_stats()
    metrics.update({
        "serve.recovery.ops_replayed": float(recovered["ops_replayed"]),
        "serve.recovery.restart_s": recovered["recovery_s"],
        "gen.lag_p99_ms": quantile(generator.lags_s, 0.99) * 1e3,
        "client.reconnects": float(client.get("reconnects", 0)),
    })
    return metrics


def run(record: dict[str, Any], run_seed: int, seconds: float, trace: bool,
        outcome: Outcome) -> dict[str, float]:
    body = _run_traced if trace else _run_untraced
    return asyncio.run(body(record, run_seed, seconds, outcome))
