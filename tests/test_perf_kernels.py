"""Property tests for the bit-packed perf core (repro.perf) and its consumers.

The packed kernels must be *bit-for-bit* equal to the unpacked references —
no tolerance, no approximation — on random instances including widths that
are not multiples of eight.  The trial engine must produce identical output
for any worker count.
"""

from __future__ import annotations

import importlib
from dataclasses import replace

import numpy as np
import pytest

from repro import ProtocolConstants
from repro.analysis.experiments import scaling_experiment
from repro.analysis.runner import default_worker_count, run_trials, spawn_seeds
from repro.core.clustering import build_neighbor_graph, cluster_players
from repro.core.work_sharing import share_work
from repro.errors import ConfigurationError, ProtocolError
from repro.perf import (
    PackedBits,
    pack_bits,
    packed_hamming,
    packed_unique_rows,
    pairwise_hamming,
    popcount,
)
from repro.perf.bitset import _transpose
from repro.players.base import ReportingStrategy
from repro.preferences.generators import planted_clusters_instance
from repro.protocols.context import make_context
from repro.protocols.small_radius import small_radius
from repro.simulation.board import BulletinBoard
from repro.simulation.oracle import ProbeOracle
from reference_loops import (
    assert_same_board,
    assert_same_execution,
    board_reports,
    small_radius_per_subset,
)

# Widths straddling byte boundaries, including non-multiples of 8.
WIDTHS = [1, 3, 7, 8, 9, 13, 16, 17, 31, 64, 65, 100, 130]


def _random_binary(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.integers(0, 2, size=shape, dtype=np.uint8)


# ---------------------------------------------------------------------------
# Packing round trip
# ---------------------------------------------------------------------------
def test_pack_bits_round_trip_all_widths():
    rng = np.random.default_rng(0)
    for width in WIDTHS:
        matrix = _random_binary(rng, (11, width))
        packed = pack_bits(matrix)
        assert isinstance(packed, PackedBits)
        assert packed.shape == matrix.shape
        assert packed.n_bytes == (width + 7) // 8
        assert np.array_equal(packed.unpack(), matrix)


def test_pack_bits_higher_rank_and_popcount():
    rng = np.random.default_rng(1)
    tensor = _random_binary(rng, (4, 5, 21))
    packed = pack_bits(tensor)
    assert np.array_equal(packed.unpack(), tensor)
    bytes_in = rng.integers(0, 256, size=257, dtype=np.uint8)
    expected = np.array([bin(int(b)).count("1") for b in bytes_in], dtype=np.uint8)
    assert np.array_equal(popcount(bytes_in), expected)


# ---------------------------------------------------------------------------
# Hamming kernels vs unpacked references
# ---------------------------------------------------------------------------
def test_packed_hamming_matches_unpacked_reference():
    rng = np.random.default_rng(2)
    for width in WIDTHS:
        rows = _random_binary(rng, (9, width))
        candidates = _random_binary(rng, (5, width))
        reference = (rows[:, None, :] != candidates[None, :, :]).sum(axis=2)
        got = packed_hamming(
            pack_bits(rows).data[:, None, :], pack_bits(candidates).data[None, :, :]
        )
        assert got.dtype == np.int64
        assert np.array_equal(got, reference)


def test_packed_hamming_per_player_stacks():
    rng = np.random.default_rng(3)
    for width in (5, 24, 33):
        stack = _random_binary(rng, (7, 4, width))  # (P, k, width)
        own = _random_binary(rng, (7, width))  # (P, width)
        reference = (stack != own[:, None, :]).sum(axis=2)
        got = packed_hamming(pack_bits(stack).data, pack_bits(own).data[:, None, :])
        assert np.array_equal(got, reference)


def test_packed_hamming_width_mismatch_raises():
    with pytest.raises(ProtocolError):
        packed_hamming(np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 4), dtype=np.uint8))


# Byte widths on both sides of every word size (1, 2, 4 and 8 bytes) and
# several 64-bit word counts.
HAMMING_BYTE_WIDTHS = [*range(1, 18), 24, 33, 65, 72, 130]


def _operand_pairs(rng, n_bits):
    """(a, b) dense operand pairs of one logical width: broadcast shapes,
    per-player stacks, a 1-D pair and an empty leading axis."""
    yield _random_binary(rng, (9, 1, n_bits)), _random_binary(rng, (1, 5, n_bits))
    yield _random_binary(rng, (3, 6, 1, n_bits)), _random_binary(rng, (3, 1, 4, n_bits))
    yield _random_binary(rng, (7, 4, n_bits)), _random_binary(rng, (7, 1, n_bits))
    yield _random_binary(rng, (n_bits,)), _random_binary(rng, (n_bits,))
    yield _random_binary(rng, (0, 1, n_bits)), _random_binary(rng, (1, 3, n_bits))


@pytest.mark.parametrize("lookup_table", [False, True], ids=["bitwise_count", "lut"])
@pytest.mark.parametrize("n_bytes", HAMMING_BYTE_WIDTHS)
def test_packed_hamming_word_widths_match_reference(n_bytes, lookup_table, monkeypatch):
    import repro.perf.bitset as bitset

    if lookup_table:
        monkeypatch.setattr(bitset, "_HAS_BITWISE_COUNT", False)
    rng = np.random.default_rng(n_bytes)
    n_bits = 8 * n_bytes - int(rng.integers(0, 8))  # pad bits in the last byte
    for a, b in _operand_pairs(rng, n_bits):
        reference = (a != b).sum(axis=-1)
        a_data, b_data = pack_bits(a).data, pack_bits(b).data
        got = packed_hamming(a_data, b_data)
        assert np.asarray(got).dtype == np.int64
        assert np.array_equal(got, reference)
        # Layouts the word view must not depend on: a Fortran-ordered
        # operand (row bytes not adjacent) and a broadcast one (stride 0).
        assert np.array_equal(packed_hamming(np.asfortranarray(a_data), b_data), reference)
        shape = np.broadcast_shapes(a_data.shape, b_data.shape)
        assert np.array_equal(packed_hamming(np.broadcast_to(a_data, shape), b_data), reference)


def test_packed_hamming_accepts_word_byte_views():
    # Words packed elsewhere (a uint16 key per row, say) compare as their
    # byte view; the XOR popcount does not depend on how bits are grouped.
    rng = np.random.default_rng(12)
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        a = rng.integers(0, np.iinfo(dtype).max, size=(6, 1, 3), dtype=dtype, endpoint=True)
        b = rng.integers(0, np.iinfo(dtype).max, size=(1, 5, 3), dtype=dtype, endpoint=True)
        bits_a = np.unpackbits(a.view(np.uint8), axis=-1)
        bits_b = np.unpackbits(b.view(np.uint8), axis=-1)
        reference = (bits_a != bits_b).sum(axis=-1)
        assert np.array_equal(packed_hamming(a.view(np.uint8), b.view(np.uint8)), reference)


def test_packed_hamming_zero_width_operands():
    got = packed_hamming(np.zeros((3, 1, 0), np.uint8), np.zeros((1, 2, 0), np.uint8))
    assert got.shape == (3, 2) and got.dtype == np.int64 and not got.any()


def _assert_pairwise_matches(rows: np.ndarray) -> None:
    """``pairwise_hamming`` equals the dense distance matrix compared with
    every threshold that can change an entry: each occurring distance and
    half a step below it, negative and NaN thresholds, and thresholds at
    and above the row width; and with one threshold inside the width,
    which counts even when there are no rows (and so no distances)."""
    reference = (rows[:, None, :] != rows[None, :, :]).sum(axis=2)
    packed = pack_bits(rows)
    distances = np.unique(reference)
    width = rows.shape[1]
    for threshold in (
        *distances, *(distances - 0.5), -1, -0.5, np.nan, width // 2, width, width + 3.5
    ):
        got = pairwise_hamming(packed, threshold)
        assert got.dtype == bool and got.shape == reference.shape
        assert np.array_equal(got, reference <= threshold), threshold


def test_pairwise_hamming_matches_reference():
    rng = np.random.default_rng(4)
    for width in WIDTHS:
        _assert_pairwise_matches(_random_binary(rng, (23, width)))


def test_pairwise_hamming_chunking_boundary(monkeypatch):
    import repro.perf.bitset as bitset

    rng = np.random.default_rng(5)
    rows = _random_binary(rng, (50, 40))
    monkeypatch.setattr(bitset, "_CHUNK_BYTES", 64)  # force many tiny chunks
    _assert_pairwise_matches(rows)


@pytest.mark.parametrize(
    "n_rows, width",
    [(1, 13), (1, 0), (6, 0), (0, 9), (40, 1), (40, 3), (40, 31), (40, 248), (40, 256),
     (40, 1001), (17, 4099), (3, 70001)],
)
def test_pairwise_hamming_is_exact_at_every_width(n_rows, width):
    # Widths that are not byte multiples leave pad bits in the last byte.
    # The all-zeros and all-ones rows reach the largest distance, the row
    # width, on both sides of each accumulator size (255 and 65535 bits).
    rng = np.random.default_rng(n_rows + width)
    rows = _random_binary(rng, (n_rows, width))
    rows[:2] = np.arange(2)[:n_rows, None]
    _assert_pairwise_matches(rows)


@pytest.mark.parametrize("lookup_table", [False, True], ids=["bitwise_count", "lut"])
def test_pairwise_hamming_under_both_popcounts(lookup_table, monkeypatch):
    import repro.perf.bitset as bitset

    if lookup_table:
        monkeypatch.setattr(bitset, "_HAS_BITWISE_COUNT", False)
    rng = np.random.default_rng(13)
    for width in (5, 16, 27, 64, 100, 130):
        _assert_pairwise_matches(_random_binary(rng, (37, width)))


# ---------------------------------------------------------------------------
# Unique rows
# ---------------------------------------------------------------------------
def test_packed_unique_rows_matches_np_unique():
    rng = np.random.default_rng(7)
    for width in WIDTHS:
        pool = _random_binary(rng, (6, width))
        matrix = pool[rng.integers(0, 6, size=40)]
        ref_rows, ref_counts = np.unique(matrix, axis=0, return_counts=True)
        got_rows, got_counts = packed_unique_rows(matrix)
        assert np.array_equal(got_rows, ref_rows)
        assert np.array_equal(got_counts, ref_counts)


def test_packed_unique_rows_edge_shapes():
    rows, counts = packed_unique_rows(np.zeros((0, 5), dtype=np.uint8))
    assert rows.shape == (0, 5) and counts.size == 0
    rows, counts = packed_unique_rows(np.zeros((4, 0), dtype=np.uint8))
    assert rows.shape == (1, 0) and counts.tolist() == [4]


# ---------------------------------------------------------------------------
# Consumers: neighbour graph and incremental clustering
# ---------------------------------------------------------------------------
def _reference_neighbor_graph(published: np.ndarray, threshold: float) -> np.ndarray:
    signed = published.astype(np.int32) * 2 - 1
    inner = signed @ signed.T
    distances = (published.shape[1] - inner) // 2
    adjacency = distances <= threshold
    np.fill_diagonal(adjacency, False)
    return adjacency


def _reference_cluster_players(adjacency, min_cluster_size, seed_degree=None):
    """The seed's O(n^3)-worst-case recompute-the-degrees greedy (phase 1)."""
    adjacency = np.asarray(adjacency, dtype=bool)
    n = adjacency.shape[0]
    if seed_degree is None:
        seed_degree = min_cluster_size - 1
    seed_degree = max(1, int(seed_degree))
    assignment = np.full(n, -1, dtype=np.int64)
    remaining = np.ones(n, dtype=bool)
    clusters = []
    while True:
        degrees = (adjacency & remaining[None, :]).sum(axis=1)
        degrees[~remaining] = -1
        eligible = np.flatnonzero(degrees >= seed_degree)
        if eligible.size == 0:
            break
        seed = int(eligible[int(np.argmax(degrees[eligible]))])
        neighbors = np.flatnonzero(adjacency[seed] & remaining)
        members = np.unique(np.concatenate([[seed], neighbors]))
        clusters.append(members.astype(np.int64))
        assignment[members] = len(clusters) - 1
        remaining[members] = False
    return assignment, clusters, remaining


def test_build_neighbor_graph_matches_gram_reference():
    rng = np.random.default_rng(8)
    for width in (9, 33, 64):
        published = _random_binary(rng, (30, width))
        threshold = width / 4
        assert np.array_equal(
            build_neighbor_graph(published, threshold),
            _reference_neighbor_graph(published, threshold),
        )


def test_build_neighbor_graph_threshold_on_an_integer_distance():
    # Row j holds ones[j] leading ones, so d(i, j) = |ones[i] - ones[j]|.
    ones = np.asarray([0, 4, 5, 6, 11, 39])
    published = (np.arange(40)[None, :] < ones[:, None]).astype(np.uint8)
    distances = np.abs(ones[:, None] - ones[None, :])
    off_diagonal = ~np.eye(ones.size, dtype=bool)
    # A distance equal to the threshold is an edge; the next double below
    # it is not, and neither is 5 - 1e-8, which float32 would round to 5.
    for threshold in (5.0, 5, np.nextafter(5.0, 0.0), 5 - 1e-8, np.nextafter(5.0, 6.0)):
        got = build_neighbor_graph(published, threshold)
        assert np.array_equal(got, (distances <= threshold) & off_diagonal), threshold
        assert np.array_equal(got, _reference_neighbor_graph(published, threshold))
    assert build_neighbor_graph(published, 5.0)[0, 2]
    assert not build_neighbor_graph(published, 5 - 1e-8)[0, 2]


def test_cluster_players_incremental_matches_recompute_reference():
    rng = np.random.default_rng(9)
    for n, p in ((20, 0.3), (50, 0.15), (64, 0.5)):
        upper = rng.random((n, n)) < p
        adjacency = np.triu(upper, 1)
        adjacency = adjacency | adjacency.T
        for min_size in (2, 4, n // 4):
            got = cluster_players(adjacency, min_cluster_size=min_size)
            ref_assignment, ref_clusters, _ = _reference_cluster_players(
                adjacency, min_size
            )
            # Full clustering is total and consistent.
            assert np.all(got.assignment >= 0)
            for cluster_id, members in enumerate(got.clusters):
                assert np.all(got.assignment[members] == cluster_id)
            # The seeded clusters (before leftover attachment) coincide: every
            # reference phase-1 member keeps the same cluster id.
            seeded = ref_assignment >= 0
            assert np.array_equal(got.assignment[seeded], ref_assignment[seeded])


# ---------------------------------------------------------------------------
# Blocked transpose
# ---------------------------------------------------------------------------
# Row and column counts below, at and beyond one block of 64 rows.
@pytest.mark.parametrize("shape", [(1, 1), (5, 130), (63, 2), (64, 64), (65, 7), (200, 129)])
@pytest.mark.parametrize("dtype", [np.uint8, bool, np.int64])
def test_blocked_transpose_equals_dot_t(shape, dtype):
    matrix = np.random.default_rng(shape[0]).integers(0, 2, size=shape).astype(dtype)
    got = _transpose(matrix)
    assert got.dtype == matrix.dtype and got.flags.c_contiguous
    np.testing.assert_array_equal(got, matrix.T)
    # Into a uint8 array, as the oracle stores its truth of any dtype.
    out = np.empty(shape[::-1], dtype=np.uint8)
    assert _transpose(matrix, out) is out
    np.testing.assert_array_equal(out, matrix.T)


def test_noisy_oracle_answers_the_transposed_truth_through_its_flips():
    # The noisy channel transposes its player-major flip draw with the
    # blocked helper; shapes that are not multiples of 64.
    truth = np.random.default_rng(2).integers(0, 2, size=(70, 131), dtype=np.uint8)
    oracle = ProbeOracle(truth, noise_rate=0.3, noise_seed=9)
    flips = np.random.default_rng(9).random(truth.shape) < 0.3
    block = oracle.probe_block(np.arange(70), np.arange(131))
    np.testing.assert_array_equal(block, truth ^ flips)
    np.testing.assert_array_equal(oracle.ground_truth(), truth)


# ---------------------------------------------------------------------------
# Board assignment post and oracle fast path
# ---------------------------------------------------------------------------
def test_post_report_assignment_matches_per_player_loop():
    rng = np.random.default_rng(10)
    n_players, n_objects = 12, 20
    # Players repeat within object rows (last wins) and across them.
    probers = rng.integers(0, n_players, size=(n_objects, 3))
    values = rng.integers(0, 2, size=(n_objects, 3))

    loop_board = BulletinBoard(n_players, n_objects)
    players = probers.reshape(-1)
    objects = np.repeat(np.arange(n_objects), 3)
    for player in np.unique(players):
        mask = players == player
        loop_board.post_reports("ch", int(player), objects[mask], values.reshape(-1)[mask])

    bulk_board = BulletinBoard(n_players, n_objects)
    bulk_board.post_report_assignment("ch", probers, values)

    assert_same_board(bulk_board, loop_board)


def test_post_report_assignment_validates():
    board = BulletinBoard(4, 4)
    ones = np.ones((4, 1), dtype=np.uint8)
    with pytest.raises(ConfigurationError):
        board.post_report_assignment("ch", np.full((4, 1), 5), ones)
    with pytest.raises(ConfigurationError):
        board.post_report_assignment("ch", np.zeros((9, 1), dtype=np.int64), np.ones((9, 1)))
    with pytest.raises(ConfigurationError):
        board.post_report_assignment("ch", np.zeros((4, 1), dtype=np.int64), 2 * ones)
    with pytest.raises(ConfigurationError):
        board.post_report_assignment("ch", np.zeros((4, 2), dtype=np.int64), ones)
    assert board.channels() == []


def test_probe_block_duplicate_and_unsorted_objects_charge_once():
    truth = np.arange(12).reshape(3, 4) % 2
    oracle = ProbeOracle(truth)
    players = np.asarray([0, 2])
    objects = np.asarray([3, 1, 3, 0])  # unsorted with a duplicate
    block = oracle.probe_block(players, objects)
    assert np.array_equal(block, truth[np.ix_(players, objects)])
    assert oracle.probes_used().tolist() == [3, 0, 3]  # 3 distinct objects
    # Re-probing the same objects (sorted fast path) charges nothing new.
    block2 = oracle.probe_block(players, np.asarray([0, 1, 3]))
    assert np.array_equal(block2, truth[np.ix_(players, [0, 1, 3])])
    assert oracle.probes_used().tolist() == [3, 0, 3]
    assert oracle.requests_used().tolist() == [7, 0, 7]


def test_share_work_bulk_posting_attribution():
    instance = planted_clusters_instance(24, 16, n_clusters=3, diameter=2, seed=5)
    ctx = make_context(instance, budget=4, seed=5)
    from repro.core.clustering import Clustering

    assignment = np.repeat(np.arange(3), 8).astype(np.int64)
    clustering = Clustering(
        assignment=assignment,
        clusters=[np.flatnonzero(assignment == c) for c in range(3)],
    )
    predictions = share_work(ctx, clustering, channel="ws")
    assert predictions.shape == (24, 16)
    # Every posted report cell is attributed to a member of the right cluster.
    for cluster_id in range(3):
        _, posted = board_reports(ctx.board, f"ws/c{cluster_id}")
        posters = np.flatnonzero(posted.any(axis=1))
        assert np.all(assignment[posters] == cluster_id)


# ---------------------------------------------------------------------------
# SmallRadius batched repetition == per-subset loop
# ---------------------------------------------------------------------------
class _HonestLiar(ReportingStrategy):
    """A 'dishonest' strategy that reports the truth: its pool takes the
    strategy branch of every report path while the execution stays honest."""

    def report(self, channel, player, objects, true_values, pool):
        return np.asarray(true_values, dtype=np.uint8)


# Select sample width classes of the batched path's word kernel.  At n = 32
# (ln 32 ≈ 3.47) a factor f samples min(ceil(f · ln n), subset size) bits,
# which the deferred Select packs into one uint8/16/32/64 word, or into two
# 64-bit words past 64 bits.  Subsets here hold about 80 objects.
SAMPLE_WIDTH_CLASSES = [
    pytest.param(2.0, 1, id="le8"),  # 7 bits
    pytest.param(4.0, 2, id="9to16"),  # 14 bits (the practical profile)
    pytest.param(8.0, 4, id="17to32"),  # 28 bits
    pytest.param(16.0, 8, id="33to64"),  # 56 bits
    pytest.param(32.0, 16, id="gt64"),  # about 80 bits
    # A low base factor at D=1 makes every subset recurse, so a repetition
    # has no base subsets and no deferred Select at all.
    pytest.param(None, 0, id="no-base"),
]


@pytest.mark.parametrize("sample_factor, word_bytes", SAMPLE_WIDTH_CLASSES)
def test_small_radius_batched_path_matches_per_subset_loop(
    sample_factor, word_bytes, monkeypatch
):
    # The package re-exports the function under the module's name.
    small_radius_module = importlib.import_module("repro.protocols.small_radius")
    instance = planted_clusters_instance(32, 320, n_clusters=4, diameter=4, seed=11)
    if sample_factor is None:
        constants = replace(ProtocolConstants.practical(), zero_radius_base_factor=0.2)
        diameter = 1
    else:
        # At D=4 every partition subset is a ZeroRadius base case.
        constants = ProtocolConstants.practical().with_overrides(
            rselect_sample_factor=sample_factor
        )
        diameter = 4

    operand_bytes: list[int] = []
    deferred_kernel = small_radius_module._sample_distances

    def spy(cand_block, true_block, max_distance):
        operand_bytes.append(cand_block.shape[-1] * cand_block.itemsize)
        return deferred_kernel(cand_block, true_block, max_distance)

    monkeypatch.setattr(small_radius_module, "_sample_distances", spy)

    def run(solver, strategies):
        ctx = make_context(
            instance, budget=4, constants=constants, strategies=strategies, seed=7
        )
        return solver(ctx, ctx.all_players(), ctx.all_objects(), diameter), ctx

    estimates = []
    for strategies in (None, {0: _HonestLiar()}):
        batched, batched_ctx = run(small_radius, strategies)
        looped, looped_ctx = run(small_radius_per_subset, strategies)
        np.testing.assert_array_equal(batched, looped)
        assert_same_execution(batched_ctx, looped_ctx)
        estimates.append(batched)
    np.testing.assert_array_equal(estimates[0], estimates[1])
    # The deferred Select ran on words of the intended width class.
    assert max(operand_bytes, default=0) == word_bytes


# ---------------------------------------------------------------------------
# Trial engine determinism
# ---------------------------------------------------------------------------
def test_spawn_seeds_deterministic_and_independent():
    assert spawn_seeds(42, 5) == spawn_seeds(42, 5)
    assert spawn_seeds(42, 5) != spawn_seeds(43, 5)
    assert len(set(spawn_seeds(0, 64))) == 64
    assert default_worker_count() >= 1


def test_run_trials_serial_matches_parallel_output():
    table_serial = scaling_experiment(sizes=(48, 64), budget=4, seed=3, n_workers=1)
    table_parallel = scaling_experiment(sizes=(48, 64), budget=4, seed=3, n_workers=4)
    assert table_serial.rows == table_parallel.rows
    assert table_serial.columns == table_parallel.columns


def test_run_trials_rejects_negative_workers():
    from repro.errors import ExperimentError

    with pytest.raises(ExperimentError):
        run_trials(int, [1, 2], n_workers=-1)
