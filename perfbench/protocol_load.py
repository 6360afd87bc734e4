"""Protocol workloads: serial scenario executions through the engine.

One thread, the historical sequential diameter layout (``n_workers=None``,
the engine's default), inputs from a fixed pool of ``(spec, seed)`` pairs
whose rows and prediction digests are recorded in ``digests.json``.  The
benchmark's ``--seed`` only chooses the order in which the pool is visited.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from typing import Any

from harness import (
    DIGESTS_FILE,
    WORK_DIR,
    HostSpeed,
    Outcome,
    load_json,
    median,
    quantile,
    self_peak_rss_mb,
)


def seed_order(record: dict[str, Any], run_seed: int) -> list[int]:
    """The workload seeds of one run: the recorded pool in a seeded order."""
    pool = list(record["seed_pool"])
    random.Random(run_seed).shuffle(pool)
    return pool


def digest(run: Any) -> dict[str, Any]:
    """What the benchmark records per ``(spec, seed)``: the row as JSON
    plus a sha256 over the prediction matrix and active-player list."""
    hasher = hashlib.sha256()
    for array in (run.predictions, run.active_players):
        hasher.update(f"{array.dtype}{array.shape}".encode())
        hasher.update(array.tobytes())
    return {"row": json.loads(json.dumps(run.row)), "predictions_sha256": hasher.hexdigest()}


def probe_bound(run: Any) -> float:
    """Lemma 11's per-player probe bound for this run's protocol.

    The robust wrapper runs CalculatePreferences once per leader-election
    iteration plus a final RSelect, so its bound is the per-run bound times
    the iterations, plus one more.
    """
    from repro.analysis.bounds import calculate_preferences_probe_bound

    spec = run.spec
    per_run = calculate_preferences_probe_bound(
        run.instance.n_players, spec.protocol.budget, run.context.constants
    )
    if spec.protocol.name == "robust":
        iterations = spec.protocol.robust_iterations or run.context.constants.robust_iterations(
            run.instance.n_players
        )
        return per_run * (iterations + 1)
    return per_run


def check_run(run: Any, expected: dict[str, Any] | None) -> str:
    """Empty string when the execution's outputs are right, else why not."""
    if expected is None:
        return f"seed {run.seed}: no recorded digest"
    got = digest(run)
    if got["row"] != expected["row"]:
        return f"seed {run.seed}: row differs from the recorded row"
    if got["predictions_sha256"] != expected["predictions_sha256"]:
        return f"seed {run.seed}: predictions differ from the recorded digest"
    row = run.row
    if row["max_probes"] > probe_bound(run):
        return f"seed {run.seed}: max_probes {row['max_probes']} above the Lemma-11 bound"
    if row["honest_max_error"] > row["planted_D"]:
        return f"seed {run.seed}: honest_max_error above planted_D"
    return ""


class ProtocolWorkload:
    """One protocol workload: its spec, recorded digests and running tally."""

    def __init__(self, name: str, record: dict[str, Any], outcome: Outcome) -> None:
        from repro.serve.session import build_spec

        self.name = name
        self.record = record
        self.spec = build_spec(record["scenario"], record["overrides"])
        digests = load_json(DIGESTS_FILE) if DIGESTS_FILE.exists() else {}
        self.expected: dict[str, Any] = digests.get(name, {})
        self.outcome = outcome
        self.speed = HostSpeed()

    # ------------------------------------------------------------------
    def _execute(self, seed: int) -> tuple[float, Any]:
        from repro.scenarios.engine import execute

        start = time.perf_counter()
        run = execute(self.spec, seed)
        return time.perf_counter() - start, run

    def _checked(self, seed: int) -> tuple[float, Any]:
        wall, run = self._execute(seed)
        self.outcome.record(check_run(run, self.expected.get(str(seed))), wrong=True)
        return wall, run

    def setup(self, order: list[int]) -> tuple[float, float]:
        """Median over the pool of ``prepare`` plus one warm-up execution,
        as ``(wall, normalised)`` seconds.

        The warm-up executions are not timed as operations (first
        executions run up to a quarter slower), but their cost is part of
        set-up, not hidden; every one is checked like a measured one.
        """
        from repro.scenarios.engine import prepare

        walls, scaled = [], []
        self.speed.sample()
        for seed in order:
            start = time.perf_counter()
            prepare(self.spec, seed)
            wall = time.perf_counter() - start + self._checked(seed)[0]
            self.speed.sample()
            walls.append(wall)
            scaled.append(self.speed.scaled(wall))
        return median(walls), median(scaled)

    def measure(
        self, order: list[int], seconds: float
    ) -> tuple[list[float], list[float], list[Any]]:
        """Execute whole passes over the pool until ``seconds`` have passed.

        Whole passes keep every pool instance equally represented, so a
        run's median does not depend on which instances the clock cut off.
        Returns each execution's wall time, its time normalised to the
        reference host speed, and its row.
        """
        walls: list[float] = []
        scaled: list[float] = []
        rows: list[Any] = []
        deadline = time.perf_counter() + seconds
        self.speed.sample()
        while not walls or time.perf_counter() < deadline:
            for seed in order:
                wall, run = self._checked(seed)
                self.speed.sample()
                walls.append(wall)
                scaled.append(self.speed.scaled(wall))
                rows.append(run.row)
        return walls, scaled, rows

    # ------------------------------------------------------------------
    def run_untraced(self, run_seed: int, seconds: float) -> dict[str, float]:
        """End-to-end metrics; times are normalised to the reference host
        speed (:class:`harness.HostSpeed`), wall times are printed too."""
        order = seed_order(self.record, run_seed)
        setup_wall, setup_s = self.setup(order)
        walls, scaled, rows = self.measure(order, seconds)
        ratios = [row["honest_max_error"] / row["planted_D"] for row in rows]
        print(
            f"{self.name}: {len(walls)} executions  wall run_s median "
            f"{median(walls):.4f} (q1 {quantile(walls, 0.25):.4f}, "
            f"q3 {quantile(walls, 0.75):.4f}, p90 {quantile(walls, 0.9):.4f})  "
            f"normalised run_s median {median(scaled):.4f} (q1 {quantile(scaled, 0.25):.4f}, "
            f"q3 {quantile(scaled, 0.75):.4f}, p90 {quantile(scaled, 0.9):.4f})  "
            f"setup_s wall {setup_wall:.4f} normalised {setup_s:.4f}  "
            f"max_probes {median(r['max_probes'] for r in rows):g}  "
            f"honest_error_ratio {sum(ratios) / len(ratios):.4f}",
            flush=True,
        )
        return {
            "setup_s": setup_s,
            "p50_ms": median(scaled) * 1e3,
            "peak_rss_mb": self_peak_rss_mb(),
            "max_probes": median(row["max_probes"] for row in rows),
            "ok_frac": self.outcome.ok_frac,
        }

    def run_traced(self, run_seed: int, seconds: float) -> dict[str, float]:
        """Untraced and traced executions of each seed, alternating.

        Alternating keeps each pair in the same stretch of time, so
        ``obs.overhead_frac`` does not pick up drift in machine speed; the
        traced executions' span tree gives every layer's self time.
        """
        from repro.obs import Telemetry, collecting

        from layers import protocol_layer_metrics, protocol_stage_spans

        order = seed_order(self.record, run_seed)
        self.setup(order)
        telemetry = Telemetry()
        plain: list[float] = []
        traced: list[float] = []
        deadline = time.perf_counter() + seconds
        while not plain or time.perf_counter() < deadline:
            for seed in order:
                plain.append(self._checked(seed)[0])
                with protocol_stage_spans(), collecting(telemetry):
                    traced.append(self._checked(seed)[0])
        payload = telemetry.report().as_payload()
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        with open(WORK_DIR / f"trace-{self.name}-{run_seed}.json", "w") as handle:
            json.dump(payload, handle)
        metrics = protocol_layer_metrics(payload, len(traced), sum(traced))
        metrics["obs.overhead_frac"] = median(
            t / p for t, p in zip(traced, plain)
        ) - 1.0
        return metrics


def record_digests(record: dict[str, Any]) -> dict[str, Any]:
    """Execute every pool seed once and return its recorded digest."""
    from repro.scenarios.engine import execute
    from repro.serve.session import build_spec

    spec = build_spec(record["scenario"], record["overrides"])
    return {str(seed): digest(execute(spec, seed)) for seed in record["seed_pool"]}
