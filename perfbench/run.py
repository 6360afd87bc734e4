"""The repository benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload protocol-honest --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with telemetry off; ``--trace 1`` is a separate run of the same
workload that reports every per-layer metric instead.  Workload
definitions (scenario, overrides, seed pool, offered rates) live in
``perfbench/workloads.json``; metric names and units in ``BENCHMARK.json``.
The last line of standard output is the result object; lines before it
are a human-readable summary of the run.  The end-to-end times
(``setup_s``, ``p50_ms``) are normalised to a reference host speed
(``harness.HostSpeed``), so that drift in the speed of a shared machine
does not read as a change to the program; the summary lines print the
wall-clock figures beside them.

``--record-digests`` re-executes every protocol workload's seed pool and
rewrites ``perfbench/digests.json``, the recorded outputs every run is
checked against.
"""

from __future__ import annotations

import os

# Pin native thread pools before anything imports NumPy: protocol workloads
# use one core, the serve workload at most two (server + load generator).
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import json
import sys

from harness import (
    DIGESTS_FILE,
    ROOT,
    WORKLOADS_FILE,
    Outcome,
    load_json,
    metric_units,
    result_line,
    workload_record,
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_digests and not args.workload:
        parser.error("--workload is required")
    return args


def require_program() -> None:
    """Fail fast, with no result line, when the program is not here.

    Puts ``src/`` on the import path of this process and, through
    ``PYTHONPATH``, of every child it starts (server, recovery probe).
    """
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program under {ROOT / 'src'}; run from a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else ""
    )


def record_digests() -> None:
    from protocol_load import record_digests as record

    digests = {
        name: record(spec)
        for name, spec in load_json(WORKLOADS_FILE)["workloads"].items()
        if spec["kind"] == "protocol"
    }
    with open(DIGESTS_FILE, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {DIGESTS_FILE}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    require_program()
    if args.record_digests:
        record_digests()
        return 0
    record = workload_record(args.workload)
    outcome = Outcome()
    if record["kind"] == "protocol":
        from protocol_load import ProtocolWorkload

        workload = ProtocolWorkload(args.workload, record, outcome)
        body = workload.run_traced if args.trace else workload.run_untraced
        values = body(args.seed, args.seconds)
    else:
        import serve_load

        values = serve_load.run(record, args.seed, args.seconds, bool(args.trace), outcome)
    kind = "per_layer" if args.trace else "end_to_end"
    # Every layer metric is reported on every workload; a layer the
    # workload never reaches reads 0.
    if args.trace:
        units = metric_units(kind)
        unknown = sorted(set(values) - set(units))
        if unknown:
            raise RuntimeError(f"unlisted layer metrics: {', '.join(unknown)}")
        values = {name: values.get(name, 0.0) for name in units}
    for problem in outcome.problems:
        print(f"check failed: {problem}", flush=True)
    print(json.dumps(result_line(outcome, values, kind)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
