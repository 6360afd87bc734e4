#!/usr/bin/env bash
# Perf smoke gate: the E10 scaling experiment at fixed sizes, plus one
# hijack-coalition execution (a pool with dishonest players), vs the recorded
# JSON baseline (benchmarks/results/e10_smoke_baseline.json).  Exits non-zero
# if wall time regresses more than 2x.  Pass --update-baseline to re-record.
#
# The whole gate runs under a wall-clock timeout (SMOKE_TIMEOUT_S, default
# 900s) so a hung pool worker or stalled probe fails CI loudly instead of
# eating the job's time limit.  `timeout` exits 124 on expiry (137 if the
# KILL escalation fired).
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
exec timeout --kill-after=30 "${SMOKE_TIMEOUT_S:-900}" \
    python benchmarks/smoke_e10.py "$@"
