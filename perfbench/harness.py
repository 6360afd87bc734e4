"""Shared pieces of the benchmark: workload records, statistics, result line.

Importing this module loads only the standard library (NumPy is loaded when
a :class:`HostSpeed` is made), so the launcher can import it before it
knows whether the program under test is present.
"""

from __future__ import annotations

import json
import math
import resource
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Iterable

#: The benchmark's own directory (``perfbench/``) and the checkout root.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Working space for state dirs and span dumps; inside the checkout and
#: ignored by git.
WORK_DIR = ROOT / ".perfbench-work"

WORKLOADS_FILE = BENCH_DIR / "workloads.json"
DIGESTS_FILE = BENCH_DIR / "digests.json"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"


def load_json(path: Path) -> Any:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def workload_record(name: str) -> dict[str, Any]:
    """The recorded definition of workload ``name`` (spec, rates, seeds)."""
    records = load_json(WORKLOADS_FILE)["workloads"]
    if name not in records:
        raise SystemExit(
            f"unknown workload {name!r}; known: {', '.join(sorted(records))}"
        )
    return records[name]


def metric_units(kind: str) -> dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metric list."""
    return {m["name"]: m["unit"] for m in load_json(BENCHMARK_FILE)[kind]}


def quantile(values: Iterable[float], q: float) -> float:
    """Linear-interpolation quantile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Iterable[float]) -> float:
    return quantile(values, 0.5)


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live child process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def fresh_work_dir(prefix: str) -> Path:
    """A fresh directory under :data:`WORK_DIR` (caller removes it)."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=WORK_DIR))


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


#: Wall seconds of one :meth:`HostSpeed.sample` on the reference host
#: (2-vCPU shared VM, Python 3.11, NumPy 2.4, unloaded).  Normalised times
#: are expressed at that speed.
REFERENCE_S = 0.085


class HostSpeed:
    """Tracks how fast the host runs, to normalise timed operations.

    The benchmark runs on shared virtual machines whose speed drifts by up
    to 1.5x over minutes, longer than a run; a plain wall-clock median
    moves with it.  The run times a fixed reference computation that
    depends on nothing in ``src/`` between consecutive operations: an
    interpreter loop, many NumPy calls on small arrays and packed-bit
    kernels on large ones, the program's three kinds of work.  It scales
    each operation by ``REFERENCE_S`` over the mean of the two samples
    around it.  A change to the program moves the normalised times; a
    change in host speed mostly cancels.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._words = rng.integers(0, 2**63, size=(512, 64), dtype=np.uint64)
        self._bits = rng.integers(0, 2, size=(256, 2048), dtype=np.uint8)
        self._small = [rng.integers(0, 2, size=(16, 32), dtype=np.uint8) for _ in range(64)]
        self.samples: list[float] = []

    def _reference(self) -> int:
        np = self._np
        total, table = 0, {}
        for i in range(60_000):
            table[i & 1023] = total
            total += i * i
        for _ in range(2):
            diff = np.bitwise_xor(self._words[:, None, :], self._words[None, :64, :])
            total += int(np.bitwise_count(diff).sum())
            total += int(np.packbits(self._bits, axis=1).sum())
        for i in range(400):
            a, b = self._small[i & 63], self._small[(i * 7) & 63]
            total += int(np.count_nonzero(a != b)) + np.unique(a, axis=0).shape[0]
            total += int(np.argsort(a.sum(axis=1))[0])
        return total

    def sample(self, count: int = 1) -> None:
        """Time ``count`` reference computations; record their median."""
        walls = []
        for _ in range(count):
            start = time.perf_counter()
            self._reference()
            walls.append(time.perf_counter() - start)
        self.samples.append(median(walls))

    def scaled(self, wall_s: float) -> float:
        """``wall_s`` of an operation run between the last two samples,
        expressed at reference speed."""
        before, after = self.samples[-2:]
        return wall_s * 2.0 * REFERENCE_S / (before + after)


class Outcome:
    """Running tally of operations attempted and failed.

    A failed operation either did not complete (refused, shed, timed out,
    connection lost) or completed with a *wrong* output; only the latter
    makes the run incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []

    def record(self, problem: str = "", wrong: bool = False) -> None:
        """One operation: ``problem`` is empty when it succeeded."""
        self.attempted += 1
        if problem:
            self.failed += 1
            self.wrong += int(wrong)
            if len(self.problems) < 20:
                self.problems.append(problem)

    def check(self, ok: bool, problem: str) -> None:
        """An output check on the run as a whole, counted as one operation."""
        self.record("" if ok else problem, wrong=True)

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0


def result_line(
    outcome: Outcome, values: dict[str, float], kind: str
) -> dict[str, Any]:
    """The final JSON object: every metric of ``kind`` with its unit."""
    units = metric_units(kind)
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"workload did not measure {', '.join(missing)}")
    return {
        "correct": outcome.wrong == 0 and outcome.attempted > 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
