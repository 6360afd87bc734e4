"""E13 — microbenchmark of the bit-packed perf kernels (repro.perf).

Not a paper experiment: this table tracks the packed kernels against their
unpacked references so the perf trajectory of the hot building blocks is
recorded next to the protocol-level benchmarks.  Each row verifies the
packed result is bit-for-bit equal to the reference before timing anything.
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path

import numpy as np

from repro.analysis.reporting import ExperimentTable
from repro.core.clustering import build_neighbor_graph, cluster_players
from repro.obs import collecting
from repro.perf import (
    pack_bits,
    packed_hamming,
    packed_scatter_columns,
    packed_unique_rows,
    pairwise_hamming,
)
from repro.preferences.generators import planted_clusters_instance
from repro.protocols.context import make_context
from repro.protocols.rselect import rselect_collective
from repro.simulation.board import BulletinBoard
from repro.simulation.oracle import ProbeOracle

# The reference sides of the block-word, tournament and board-post rows live
# with the test references; the shift-or builder is private to SmallRadius
# (the package re-exports the function under the module's name).
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from reference_loops import (  # noqa: E402
    block_words_reduceat,
    board_reports,
    dense_slots,
    rselect_collective_serial,
)

_block_words = importlib.import_module("repro.protocols.small_radius")._block_words
_bitset = importlib.import_module("repro.perf.bitset")


#: Timed samples per side of a row, taken alternately.
SAMPLES = 9


def _alternating_samples(reference_fn, packed_fn) -> tuple[np.ndarray, np.ndarray]:
    """``SAMPLES`` wall times (s) of each side, reference and packed in
    turn, so drift in the host's speed reaches both sides alike."""
    times = np.empty((SAMPLES, 2))
    for sample in range(SAMPLES):
        for side, fn in enumerate((reference_fn, packed_fn)):
            start = time.perf_counter()
            fn()
            times[sample, side] = time.perf_counter() - start
    return times[:, 0], times[:, 1]


def _median_iqr_ms(times: np.ndarray) -> tuple[float, float]:
    q1, median, q3 = np.percentile(1e3 * times, [25, 50, 75])
    return float(median), float(q3 - q1)


def _unpacked_pairwise(matrix: np.ndarray) -> np.ndarray:
    signed = matrix.astype(np.int32) * 2 - 1
    inner = signed @ signed.T
    return ((matrix.shape[1] - inner) // 2).astype(np.int64)


def _unpacked_cross(rows: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    return (rows[:, None, :] != candidates[None, :, :]).sum(axis=2, dtype=np.int64)


def kernel_microbenchmark(
    n: int = 1000,
    width: int = 512,
    n_candidates: int = 16,
    seed: int = 0,
) -> ExperimentTable:
    """Time packed vs unpacked kernels on random instances (results verified equal).

    The whole run executes inside a telemetry window, so the results table
    carries the ``perf.*`` kernel-timer registry (calls + cumulative seconds
    per kernel, verification passes included) in its ``metrics`` block — the
    same counters ``python -m repro trace`` reports for protocol runs.
    """
    with collecting() as telemetry:
        table = _kernel_microbenchmark(n, width, n_candidates, seed)
    table.metrics["telemetry"] = telemetry.report().metrics_block()
    return table


def _kernel_microbenchmark(
    n: int, width: int, n_candidates: int, seed: int
) -> ExperimentTable:
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 2, size=(n, width), dtype=np.uint8)
    candidates = rng.integers(0, 2, size=(n_candidates, width), dtype=np.uint8)
    # A published matrix with heavy row duplication, as popular_vectors sees.
    published = rows[rng.integers(0, max(1, n // 16), size=n)]

    table = ExperimentTable(
        experiment_id="E13",
        title="Bit-packed kernels vs unpacked references (microbenchmark)",
        columns=[
            "kernel",
            "n",
            "width",
            "unpacked_ms",
            "unpacked_iqr_ms",
            "packed_ms",
            "packed_iqr_ms",
            "speedup",
        ],
        notes=[
            f"n={n}, width={width}, k={n_candidates}; packed results asserted "
            "bit-for-bit equal to the references before timing.",
            f"each row times {SAMPLES} alternating reference/packed samples; "
            "*_ms is a side's median, *_iqr_ms its interquartile range, and "
            "speedup the ratio of the medians.",
            f"pairwise row: the neighbour test at max_distance={width // 2}, "
            "against Gram-matrix distances compared with the same threshold.",
            "planted-clusters pairwise row: 1024 rows x 1386 bits, each about "
            "2.5 % flips off one of 8 uniform centres, at max_distance=104 "
            "(15 ln 1024, the honest workload's edge threshold); pivot bounds "
            "leave the pairs within a cluster to count.",
            "tournament-layer rows: 'unpacked' = serial/per-player reference, "
            "'packed' = collective path (probe memoisation reset per run).",
            "select-sample row: 138 subsets x 1024 players x 8 candidates, "
            "14-bit samples packed one 16-bit word per row; kernel call only.",
            "block-words row: 1024 players x 1363 bits in 207 blocks of <= 17 "
            "bits; 'unpacked' = np.add.reduceat over player-major rows, "
            "'packed' = shift-or over object-major rows.",
        ],
    )

    def add_row(
        kernel: str, reference_fn, packed_fn, equal_fn, n_value=None, width_value=None
    ) -> None:
        assert equal_fn(), f"packed kernel {kernel!r} diverged from the reference"
        reference_s, packed_s = _alternating_samples(reference_fn, packed_fn)
        unpacked_ms, unpacked_iqr_ms = _median_iqr_ms(reference_s)
        packed_ms, packed_iqr_ms = _median_iqr_ms(packed_s)
        table.add_row(
            kernel=kernel,
            n=n if n_value is None else n_value,
            width=width if width_value is None else width_value,
            unpacked_ms=unpacked_ms,
            unpacked_iqr_ms=unpacked_iqr_ms,
            packed_ms=packed_ms,
            packed_iqr_ms=packed_iqr_ms,
            speedup=unpacked_ms / max(1e-6, packed_ms),
        )

    max_distance = width // 2
    add_row(
        "pairwise-hamming",
        lambda: _unpacked_pairwise(rows) <= max_distance,
        lambda: pairwise_hamming(pack_bits(rows), max_distance),
        lambda: np.array_equal(
            pairwise_hamming(pack_bits(rows), max_distance),
            _unpacked_pairwise(rows) <= max_distance,
        ),
    )

    # What the uniform row pays for pivot bounds that rule nothing out.
    uniform_words = _bitset._as_words(pack_bits(rows).data)
    pivot_s = np.empty(SAMPLES)
    for sample in range(SAMPLES):
        start = time.perf_counter()
        assert _bitset._separated_groups(uniform_words, max_distance) is None
        pivot_s[sample] = time.perf_counter() - start
    pivot_ms, pivot_iqr_ms = _median_iqr_ms(pivot_s)
    table.add_note(
        f"pairwise row: its pivot pass rules out no pair of these uniform rows "
        f"and takes {pivot_ms:.3g} ms (IQR {pivot_iqr_ms:.2g}) of packed_ms."
    )

    # The neighbour graph's own regime: published estimates in planted
    # clusters far apart (Lemma 7), at the honest benchmark workload's size
    # and edge threshold, where pivot bounds leave only the pairs within a
    # cluster to count.  Its own generator leaves the other rows' inputs as
    # they were before it.
    cluster_rng = np.random.default_rng(seed + 2)
    cluster_n, cluster_bits, cluster_threshold = 1024, 1386, 104
    centres = cluster_rng.integers(0, 2, size=(8, cluster_bits), dtype=np.uint8)
    clustered = centres[cluster_rng.integers(0, 8, size=cluster_n)]
    clustered ^= (cluster_rng.random(clustered.shape) < 0.025).astype(np.uint8)
    add_row(
        "pairwise-hamming (planted clusters)",
        lambda: _unpacked_pairwise(clustered) <= cluster_threshold,
        lambda: pairwise_hamming(pack_bits(clustered), cluster_threshold),
        lambda: np.array_equal(
            pairwise_hamming(pack_bits(clustered), cluster_threshold),
            _unpacked_pairwise(clustered) <= cluster_threshold,
        ),
        n_value=cluster_n,
        width_value=cluster_bits,
    )

    def packed_cross():
        return packed_hamming(
            pack_bits(rows).data[:, None, :], pack_bits(candidates).data[None, :, :]
        )

    add_row(
        "cross-hamming (select)",
        lambda: _unpacked_cross(rows, candidates),
        packed_cross,
        lambda: np.array_equal(packed_cross(), _unpacked_cross(rows, candidates)),
    )

    # The deferred Select of one batched SmallRadius repetition on the
    # benchmark's honest workload: every base subset's 14-bit sample, one
    # 16-bit word per player row and candidate row, against its candidates.
    # "packed" times the kernel on the word operands the repetition builds.
    select_subsets, select_players, select_k, select_bits = 138, 1024, 8, 14
    sample_rows = rng.integers(
        0, 2, size=(select_players, select_subsets, select_bits), dtype=np.uint8
    )
    sample_candidates = rng.integers(
        0, 2, size=(select_k, select_subsets, select_bits), dtype=np.uint8
    )
    row_words = pack_bits(sample_rows).data[None]  # (1, P, S, 2 bytes)
    candidate_words = pack_bits(sample_candidates).data[:, None]  # (k, 1, S, 2 bytes)

    def unpacked_select():
        return (sample_candidates[:, None] != sample_rows[None]).sum(axis=-1, dtype=np.int64)

    add_row(
        "select-sample hamming (small_radius words)",
        unpacked_select,
        lambda: packed_hamming(candidate_words, row_words),
        lambda: np.array_equal(packed_hamming(candidate_words, row_words), unpacked_select()),
        n_value=select_players,
        width_value=select_bits,
    )

    # The base block of a top-level SmallRadius repetition on the honest
    # benchmark workload: 1,363 objects split over 207 base subsets, every
    # player's bits of each subset packed into one 16-bit word.  Its own
    # generator leaves the other rows' inputs as they were before it.
    block_rng = np.random.default_rng(seed + 1)
    block_players, block_bits, n_blocks = 1024, 1363, 207
    block_widths = 1 + np.bincount(
        block_rng.integers(0, n_blocks, size=block_bits - n_blocks), minlength=n_blocks
    )
    assert block_widths.max() <= 17
    player_rows = block_rng.integers(0, 2, size=(block_players, block_bits), dtype=np.uint8)
    object_rows = np.ascontiguousarray(player_rows.T)

    def block_words_equal() -> bool:
        want, want_starts = block_words_reduceat(player_rows, block_widths)
        got, got_starts = _block_words(object_rows, block_widths)
        return (
            got.dtype == want.dtype
            and np.array_equal(got, want.T)
            and np.array_equal(got_starts, want_starts)
        )

    add_row(
        "block words (small_radius base block)",
        lambda: block_words_reduceat(player_rows, block_widths),
        lambda: _block_words(object_rows, block_widths),
        block_words_equal,
        n_value=block_players,
        width_value=block_bits,
    )

    def unique_equal() -> bool:
        ref_rows, ref_counts = np.unique(published, axis=0, return_counts=True)
        got_rows, got_counts = packed_unique_rows(published)
        return np.array_equal(ref_rows, got_rows) and np.array_equal(
            ref_counts, got_counts
        )

    add_row(
        "unique-rows (popular_vectors)",
        lambda: np.unique(published, axis=0, return_counts=True),
        lambda: packed_unique_rows(published),
        unique_equal,
    )

    # End-to-end clustering phase at n=1000: packed neighbour graph plus the
    # incremental greedy clustering, against the unpacked Gram-matrix graph.
    threshold = float(width) / 8.0
    min_cluster_size = max(2, n // 8)

    def unpacked_clustering():
        graph = _unpacked_pairwise(rows) <= threshold
        np.fill_diagonal(graph, False)
        return cluster_players(graph, min_cluster_size=min_cluster_size)

    def packed_clustering():
        graph = build_neighbor_graph(rows, threshold)
        return cluster_players(graph, min_cluster_size=min_cluster_size)

    add_row(
        "neighbor-graph + clustering",
        unpacked_clustering,
        packed_clustering,
        lambda: np.array_equal(
            unpacked_clustering().assignment, packed_clustering().assignment
        ),
    )

    # --- Tournament layer (PR 3): serial vs vectorised, loop vs ragged ----
    # For these two rows "unpacked" means the serial/per-player reference and
    # "packed" the collective path; both sides rebuild their state per run
    # (the oracle memoises probes, so reuse would bias the second timing).
    tournament_n, tournament_width, tournament_k = 512, 1024, 5
    instance = planted_clusters_instance(
        tournament_n, tournament_width, n_clusters=8, diameter=16, seed=seed
    )
    stack = rng.integers(
        0, 2, size=(tournament_n, tournament_k, tournament_width), dtype=np.uint8
    )
    players = np.arange(tournament_n)
    objects = np.arange(tournament_width)

    slots = dense_slots(stack)

    def run_tournament(tournament, candidates) -> np.ndarray:
        ctx = make_context(instance, budget=8, seed=seed)
        return tournament(ctx, players, objects, candidates)

    add_row(
        "rselect tournament (serial vs collective)",
        lambda: run_tournament(rselect_collective_serial, stack),
        lambda: run_tournament(rselect_collective, slots),
        lambda: np.array_equal(
            run_tournament(rselect_collective_serial, stack),
            run_tournament(rselect_collective, slots),
        ),
        n_value=tournament_n,
        width_value=tournament_width,
    )

    # --- Board kernels (packed bulletin board) ---------------------------
    # "unpacked" = the pre-packed dense board semantics (two strided
    # (P, m) writes / masked dense reductions), "packed" = the object-major
    # packed storage.  E10 posts full-player blocks over ~m/2 column
    # subsets, which is the shape timed here.
    board_players, board_objects_total = 512, 1024
    board_objects = np.sort(
        rng.choice(board_objects_total, size=board_objects_total // 2, replace=False)
    )
    board_values = rng.integers(
        0, 2, size=(board_players, board_objects.size), dtype=np.uint8
    )
    dense_matrix = np.zeros((board_players, board_objects_total), dtype=np.uint8)
    dense_posted = np.zeros((board_players, board_objects_total), dtype=bool)
    packed_board = BulletinBoard(board_players, board_objects_total)
    all_players = np.arange(board_players, dtype=np.int64)

    def dense_scatter():
        dense_matrix[:, board_objects] = board_values
        dense_posted[:, board_objects] = True

    def packed_scatter():
        packed_board.post_report_block("bench", all_players, board_objects, board_values)

    def scatter_equal() -> bool:
        dense_scatter()
        packed_scatter()
        got_values, got_posted = board_reports(packed_board, "bench")
        return np.array_equal(got_values, dense_matrix) and np.array_equal(
            got_posted, dense_posted
        )

    add_row(
        "board post (dense scatter vs packed)",
        dense_scatter,
        packed_scatter,
        scatter_equal,
        n_value=board_players,
        width_value=board_objects.size,
    )

    def dense_masked_majority():
        likes = (dense_matrix * dense_posted).sum(axis=0, dtype=np.int64)
        votes = dense_posted.sum(axis=0, dtype=np.int64)
        return np.where(votes > 0, 2 * likes >= votes, 1).astype(np.uint8)

    add_row(
        "board masked majority (dense vs packed)",
        dense_masked_majority,
        lambda: packed_board.masked_majority("bench")[0],
        lambda: np.array_equal(
            packed_board.masked_majority("bench")[0], dense_masked_majority()
        ),
        n_value=board_players,
        width_value=board_objects_total,
    )

    # The raw column-scatter kernel against the maintenance it replaces:
    # keeping rows packed without it means unpack → dense write → repack,
    # whose cost scales with the full row width — the kernel's scales with
    # the touched columns only, so it is timed on a wide board (the regime
    # it exists for: sparse writes into large packed state).
    scatter_width = 16 * board_objects_total
    scatter_dest = np.zeros((board_players, scatter_width // 8), dtype=np.uint8)
    scatter_cols = np.sort(rng.choice(scatter_width, size=96, replace=False))
    scatter_bits = rng.integers(
        0, 2, size=(board_players, scatter_cols.size), dtype=np.uint8
    )

    def scatter_reference():
        full = np.unpackbits(scatter_dest, axis=1, count=scatter_width)
        full[:, scatter_cols] = scatter_bits
        return np.packbits(full, axis=1)

    def kernel_scatter_equal() -> bool:
        reference = scatter_reference()
        packed_scatter_columns(scatter_dest, scatter_cols, scatter_bits)
        return np.array_equal(scatter_dest, reference)

    add_row(
        "packed_scatter_columns (vs unpack+repack)",
        scatter_reference,
        lambda: packed_scatter_columns(scatter_dest, scatter_cols, scatter_bits),
        kernel_scatter_equal,
        n_value=board_players,
        width_value=scatter_cols.size,
    )

    ragged_lists = [
        rng.choice(tournament_width, size=18, replace=False) for _ in range(tournament_n)
    ]

    def probe_loop():
        oracle = ProbeOracle(instance.preferences)
        return np.concatenate(
            [oracle.probe_objects(p, objs) for p, objs in enumerate(ragged_lists)]
        )

    ragged_objects = np.concatenate(ragged_lists)
    ragged_lengths = np.full(tournament_n, 18)

    def probe_bulk():
        oracle = ProbeOracle(instance.preferences)
        return oracle.probe_ragged(players, ragged_objects, ragged_lengths)

    add_row(
        "oracle probe (loop vs ragged)",
        probe_loop,
        probe_bulk,
        lambda: np.array_equal(probe_loop(), probe_bulk()),
        n_value=tournament_n,
        width_value=tournament_width,
    )
    return table


def test_e13_kernels(benchmark, report_table):
    table = report_table(benchmark, kernel_microbenchmark, "e13_kernels")
    assert len(table.rows) == 12
    for row in table.rows:
        assert row["packed_ms"] > 0.0
    by_kernel = {row["kernel"]: row for row in table.rows}
    # The collective tournament is at least 2x the serial loop (a ratio of
    # medians).
    assert by_kernel["rselect tournament (serial vs collective)"]["speedup"] >= 2.0
    # Observability tie-in: the run's kernel-timer telemetry rides along.
    timers = table.metrics["telemetry"]["timers"]
    assert timers["perf.pairwise_hamming"]["calls"] > 0
    assert timers["perf.packed_scatter_columns"]["calls"] > 0
