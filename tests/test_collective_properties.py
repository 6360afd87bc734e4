"""Properties of the honest path's bulk kernels, on generated inputs.

Each bulk path must be *bit-for-bit* equal to the loop or dense reference it
replaces:

* ``rselect_collective`` against ``rselect_collective_serial`` (one
  ``rselect`` per player on its own substream): outputs, probe accounting,
  the oracle's memo masks and the shared randomness left behind, on stacks
  with a row per player or rows shared across players (1 to ``n`` distinct
  rows per slot, identical slots, pairs that do not differ) — also with
  the key prefilter forced to send every drawing row to its fallback, or to
  keep every key;
* the per-player substreams: ``_seed_states`` against
  ``SeedSequence.generate_state`` and ``_player_rngs`` streams against
  ``default_rng(int(seed))`` streams (the serial reference shares
  ``_player_rngs``, so the comparison above cannot catch a seeding bug);
* ``pairwise_hamming(packed, t)`` against the dense distance matrix
  compared with ``t``, at every occurring distance and between them,
  below zero, NaN, and at or above the row width, on uniform rows and on
  clustered rows whose pivot bounds rule out groups of pairs uncounted;
* ``ProbeOracle.probe_assignment`` against a ``probe_objects`` loop over
  its entries: object counts that leave the last mask byte partial, rows
  of 0 to ``3·n_players`` probers with repeats, already-probed cells,
  noisy answers, several batches and both popcounts;
* ``BulletinBoard.post_report_assignment`` against the dense reference
  board written entry by entry in row order (a player repeated within an
  object row, with conflicting values, keeps its last), with player counts
  that are not multiples of eight, probers crowded into one byte, and
  duplicated and dropped deliveries;
* batched ``small_radius`` against ``small_radius_per_subset`` (ZeroRadius,
  publish and Select one subset after another): outputs and the whole
  execution state, with Select samples on both sides of the subset widths
  so subsets take both Select routes (by word, and sampled), under four
  kinds of strategy pool; and one fixed input whose single repetition
  takes every route.

The RSelect, SmallRadius, assignment-probe and assignment-post properties
take their example count from the Hypothesis profile (``tests/hypothesis_profiles.py``):
``tier1`` by default, ten times deeper under ``HYPOTHESIS_PROFILE=ci``.  The
others fix theirs.
"""

from __future__ import annotations

import importlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.perf.bitset as bitset
from repro import (
    ProtocolConstants,
    make_context,
    planted_clusters_instance,
    small_radius,
    zero_radius_instance,
)
from repro.perf import pack_bits, pairwise_hamming
from repro.players.adversaries import InvertingStrategy, RandomReportStrategy, build_coalition
from repro.preferences.generators import PlantedInstance
from repro.faults import FaultInjector, FaultPlan, PlannedFault, installed
from repro.protocols.rselect import rselect_collective
from repro.simulation.board import BulletinBoard
from repro.simulation.oracle import ProbeOracle
from hypothesis_profiles import PROFILE
from reference_loops import (
    DenseReferenceBoard,
    assert_same_execution,
    board_reports,
    rselect_collective_serial,
    small_radius_per_subset,
)

# The package re-exports the functions under the modules' names.
_RSELECT_MODULE = importlib.import_module("repro.protocols.rselect")
_SMALL_RADIUS_MODULE = importlib.import_module("repro.protocols.small_radius")


def _instance(truth: np.ndarray) -> PlantedInstance:
    return PlantedInstance(
        preferences=truth,
        cluster_of=np.zeros(truth.shape[0], dtype=np.int64),
        planted_diameters=np.zeros(truth.shape[0], dtype=np.int64),
        metadata={"generator": "property"},
    )


# ---------------------------------------------------------------------------
# Collective RSelect == per-player serial RSelect
# ---------------------------------------------------------------------------
def _assert_collective_matches_serial(truth, players, stack, sample_size, noisy, seed):
    def context():
        return make_context(
            _instance(truth),
            budget=2,
            seed=seed,
            noise_rate=0.2 if noisy else 0.0,
            noise_seed=seed,
        )

    objects = np.arange(truth.shape[1])
    ctx_collective, ctx_serial = context(), context()
    got = rselect_collective(ctx_collective, players, objects, stack, sample_size)
    want = rselect_collective_serial(ctx_serial, players, objects, stack, sample_size)
    np.testing.assert_array_equal(got, want)
    oracle, reference = ctx_collective.oracle, ctx_serial.oracle
    np.testing.assert_array_equal(oracle.probes_used(), reference.probes_used())
    np.testing.assert_array_equal(oracle.requests_used(), reference.requests_used())
    np.testing.assert_array_equal(oracle.probe_state()[0], reference.probe_state()[0])
    next_draw = ctx_collective.randomness.generator.integers(0, 2**63)
    assert next_draw == ctx_serial.randomness.generator.integers(0, 2**63)


@settings(PROFILE)
@given(data=st.data())
def test_rselect_collective_matches_serial(data):
    n_players = data.draw(st.integers(1, 12), label="n_players")
    # Widths that are not multiples of 8 or of 64, and widths above 2,048.
    n_objects = data.draw(
        st.one_of(st.integers(1, 200), st.integers(2049, 2200)), label="n_objects"
    )
    k = data.draw(st.integers(2, 7), label="k")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    # Up to beyond the width, so some rounds take every differing position
    # and draw no key at all; None is the profile's default.
    sample_size = data.draw(st.none() | st.integers(1, n_objects + 2), label="sample_size")
    noisy = data.draw(st.booleans(), label="noisy")

    rng = np.random.default_rng(seed)
    truth = rng.integers(0, 2, size=(n_players, n_objects), dtype=np.uint8)
    # Candidates near each player's truth, so votes are not all one-sided.
    stack = (truth[:, None, :] ^ (rng.random((n_players, k, n_objects)) < 0.3)).astype(np.uint8)
    if data.draw(st.booleans(), label="cluster_shared"):
        # Shared rows, as CalculatePreferences hands every member of a
        # cluster its cluster's vector: per slot, 1 to n_players distinct
        # rows, each player holding a drawn one.  Every slot draws from one
        # pool, so some players' pairs do not differ at all.
        pool = stack[rng.integers(0, n_players, size=n_players + k), rng.integers(0, k)]
        for slot in range(k):
            n_distinct = data.draw(st.integers(1, n_players), label="n_distinct")
            rows = rng.choice(pool.shape[0], size=n_distinct, replace=False)
            stack[:, slot] = pool[rows[rng.integers(0, n_distinct, size=n_players)]]
    # Identical slots give (0, 0)-tie rounds: no draw, no probe.
    for source, target in data.draw(
        st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=3),
        label="duplicates",
    ):
        stack[:, target] = stack[:, source]
    # Players may repeat (the oracle's per-player fallback) and come unsorted.
    players = np.asarray(
        data.draw(
            st.lists(st.integers(0, n_players - 1), min_size=1, max_size=n_players + 2),
            label="players",
        ),
        dtype=np.int64,
    )
    _assert_collective_matches_serial(truth, players, stack[players], sample_size, noisy, seed)


@pytest.mark.parametrize(
    "prefilter", [1e-3, 1e3], ids=["every-row-falls-back", "every-key-passes"]
)
def test_rselect_collective_matches_serial_whatever_the_prefilter_keeps(
    prefilter, monkeypatch
):
    # A prefilter of 1e-3 keeps almost no key, so every drawing row selects
    # from all of its keys; 1e3 keeps every key, so the padded argsort sees
    # whole rows.  Either way the selection is exact.
    monkeypatch.setattr(_RSELECT_MODULE, "_PREFILTER", prefilter)
    rng = np.random.default_rng(3)
    truth = rng.integers(0, 2, size=(20, 300), dtype=np.uint8)
    stack = (truth[:, None, :] ^ (rng.random((20, 5, 300)) < 0.3)).astype(np.uint8)
    players = np.arange(20)
    for noisy in (False, True):
        _assert_collective_matches_serial(truth, players, stack, 6, noisy, seed=3)


# ---------------------------------------------------------------------------
# Per-player substreams == default_rng(int(seed)) streams
# ---------------------------------------------------------------------------
_SEED_EDGES = [0, 1, 2**32 - 1, 2**32, 2**63 - 2]


@settings(max_examples=30, deadline=None)
@given(
    seeds=st.lists(
        st.one_of(st.sampled_from(_SEED_EDGES), st.integers(0, 2**32), st.integers(0, 2**63 - 2)),
        min_size=1,
        max_size=12,
    )
)
@example(seeds=_SEED_EDGES)
def test_player_substreams_match_default_rng(seeds):
    # The seeds reach _player_rngs through the shared generator's one
    # batched draw; a stand-in generator hands over exactly these.
    seeds = np.asarray(seeds, dtype=np.int64)
    states = _RSELECT_MODULE._seed_states(seeds)
    want = [np.random.SeedSequence(int(seed)).generate_state(4, np.uint64) for seed in seeds]
    np.testing.assert_array_equal(states, np.stack(want))

    def integers(low, high, size):
        assert (low, high, size) == (0, 2**63 - 1, seeds.size)
        return seeds

    ctx = SimpleNamespace(randomness=SimpleNamespace(generator=SimpleNamespace(integers=integers)))
    for seed, rng in zip(seeds, _RSELECT_MODULE._player_rngs(ctx, seeds.size)):
        reference = np.random.default_rng(int(seed))
        np.testing.assert_array_equal(rng.random(5), reference.random(5))
        np.testing.assert_array_equal(rng.integers(0, 2**40, 5), reference.integers(0, 2**40, 5))
        assert rng.bit_generator.state == reference.bit_generator.state


# ---------------------------------------------------------------------------
# pairwise_hamming(packed, t) == dense distances <= t
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pairwise_hamming_matches_dense_distances(data):
    n_rows = data.draw(st.integers(0, 70), label="n_rows")
    width = data.draw(st.integers(0, 300), label="width")  # both accumulator sizes
    rows = data.draw(
        hnp.arrays(np.uint8, (n_rows, width), elements=st.integers(0, 1)), label="rows"
    )
    if n_rows >= 2 and data.draw(st.booleans(), label="extremes"):
        rows[0], rows[1] = 0, 1  # a pair at the largest distance, the width
    reference = (rows[:, None, :] != rows[None, :, :]).sum(axis=2)
    distances = np.unique(reference).tolist()
    kind = data.draw(
        st.sampled_from(["on", "half-below", "negative", "nan", "width", "above"]),
        label="kind",
    )
    if kind == "on" and distances:
        threshold = data.draw(st.sampled_from(distances), label="threshold")
    elif kind == "half-below" and distances:
        threshold = data.draw(st.sampled_from(distances), label="threshold") - 0.5
    elif kind == "negative":
        threshold = data.draw(
            st.one_of(st.integers(-10, -1), st.floats(-10.0, -0.01)), label="threshold"
        )
    elif kind == "nan":
        threshold = float("nan")
    elif kind == "above":
        threshold = width + data.draw(st.floats(0.5, 10.0), label="above")
    else:
        threshold = width
    got = pairwise_hamming(pack_bits(rows), threshold)
    assert got.dtype == bool and got.shape == (n_rows, n_rows)
    assert np.array_equal(got, reference <= threshold)


def _clustered_rows(n_rows, width, k, flips, far, seed):
    """``n_rows`` rows, each at most ``flips`` flips off one of ``k`` centres.

    Far-apart centres are independent uniform rows; close ones are a few
    flips off one base row.  Returns ``(rows, cluster, centres)``.
    """
    rng = np.random.default_rng(seed)
    if far:
        centres = rng.integers(0, 2, size=(k, width), dtype=np.uint8)
    else:
        centres = np.repeat(rng.integers(0, 2, size=(1, width), dtype=np.uint8), k, axis=0)
        for centre in centres[1:]:
            centre[rng.choice(width, size=int(rng.integers(1, 4 * flips + 3)), replace=False)] ^= 1
    cluster = rng.integers(0, k, size=n_rows)
    rows = centres[cluster]
    for row in rows:
        row[rng.choice(width, size=int(rng.integers(0, flips + 1)), replace=False)] ^= 1
    return rows, cluster, centres


@st.composite
def _clustered_cases(draw):
    """Clustered rows (see :func:`_clustered_rows`) with a threshold on a
    distance, half below one, or at the width.  Widths straddle one 64-bit
    word and the 255-bit limit of a uint8 count."""
    n_rows = draw(st.integers(0, 70), label="n_rows")
    width = draw(st.integers(40, 90) | st.integers(230, 280), label="width")
    k = draw(st.integers(1, 6), label="k")
    flips = draw(st.integers(0, 4), label="flips")
    far = draw(st.booleans(), label="far")
    seed = draw(st.integers(0, 2**16), label="seed")
    rows, cluster, centres = _clustered_rows(n_rows, width, k, flips, far, seed)
    distances = np.unique((rows[:, None, :] != rows[None, :, :]).sum(axis=2)).tolist()
    kind = draw(st.sampled_from(["on", "half-below", "width"]), label="kind")
    threshold = width
    if kind != "width" and distances:
        # Distances within a cluster are the neighbour graph's scale; drawing
        # from them half the time lets the bounds rule clusters apart.
        within = draw(st.booleans(), label="within")
        candidates = [d for d in distances if not within or d <= 2 * flips]
        threshold = draw(st.sampled_from(candidates), label="threshold")
        threshold -= 0.5 if kind == "half-below" else 0
    return rows, cluster, centres, flips, threshold


_FAR_CLUSTERS = (*_clustered_rows(64, 250, 4, 3, True, 0), 3, 6)


@settings(max_examples=80, deadline=None)
@given(
    case=_clustered_cases(),
    # Below the real budget, rows this few would never pivot; 0 sends every
    # input through the pivot bounds, in one-row chunks.
    chunk_bytes=st.sampled_from([0, 1024, 4096, bitset._CHUNK_BYTES]),
    lookup_table=st.booleans(),
)
@example(case=_FAR_CLUSTERS, chunk_bytes=4096, lookup_table=False)
def test_pairwise_hamming_matches_dense_distances_on_clustered_rows(
    case, chunk_bytes, lookup_table
):
    rows, cluster, centres, flips, threshold = case
    n_rows, width = rows.shape
    reference = (rows[:, None, :] != rows[None, :, :]).sum(axis=2)
    counted = []
    close_blocks = bitset._close_blocks

    def counting_blocks(words, n_head, bound):
        for start, stop, close in close_blocks(words, n_head, bound):
            counted.append(close.size)
            yield start, stop, close

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bitset, "_CHUNK_BYTES", chunk_bytes)
        patch.setattr(bitset, "_close_blocks", counting_blocks)
        if lookup_table:  # the popcount fallback for NumPy without bitwise_count
            patch.setattr(bitset, "_HAS_BITWISE_COUNT", False)
        got = pairwise_hamming(pack_bits(rows), threshold)
    assert got.dtype == bool and got.shape == (n_rows, n_rows)
    assert np.array_equal(got, reference <= threshold)

    # Not vacuous: when the clusters are provably apart at this threshold
    # and pivoting is allowed, only pairs within a cluster are counted.  (A
    # row outside every covered cluster is farther from each pivot than any
    # covered row, so farthest-first covers every cluster first, and each
    # pivot's own group lies within 2·flips of it.)
    k = centres.shape[0]
    sizes = np.bincount(cluster, minlength=k)
    limit = np.floor(threshold)
    centre_gaps = (centres[:, None, :] != centres[None, :, :]).sum(axis=2)
    apart = k > 1 and centre_gaps[~np.eye(k, dtype=bool)].min() - 4 * flips > limit
    if (
        apart
        and limit < width
        and 2 * int(sizes @ sizes) <= n_rows * n_rows
        and n_rows * n_rows * 8 > chunk_bytes
    ):
        event("clusters ruled out uncounted")
        assert sum(counted) <= int(sizes @ sizes) < n_rows * (n_rows + 1) // 2
    elif case is _FAR_CLUSTERS:
        pytest.fail("the explicit example must rule clusters out")


# ---------------------------------------------------------------------------
# probe_assignment == a probe_objects loop
# ---------------------------------------------------------------------------
@settings(PROFILE)
@given(data=st.data())
def test_probe_assignment_matches_probe_objects_loop(data):
    n_players = data.draw(st.integers(1, 20), label="n_players")
    # Widths that are not multiples of eight leave the last byte partial.
    n_objects = data.draw(st.integers(1, 40), label="n_objects")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    noisy = data.draw(st.booleans(), label="noisy")
    lookup_table = data.draw(st.booleans(), label="lookup_table")
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, 2, size=(n_players, n_objects), dtype=np.uint8)
    kwargs = dict(noise_rate=0.2 if noisy else 0.0, noise_seed=seed)
    bulk, looped = ProbeOracle(truth, **kwargs), ProbeOracle(truth, **kwargs)

    # Earlier probes leave memo bits that later entries must not charge again.
    for player in np.flatnonzero(rng.random(n_players) < 0.5):
        already = rng.integers(0, n_objects, size=int(rng.integers(1, n_objects + 1)))
        bulk.probe_objects(int(player), already)
        looped.probe_objects(int(player), already)

    # Rows of 0 to 3·n_players probers: players repeat within a row, and
    # cells repeat across batches.
    with pytest.MonkeyPatch.context() as patch:
        if lookup_table:  # the popcount fallback for NumPy without bitwise_count
            patch.setattr(bitset, "_HAS_BITWISE_COUNT", False)
        for _ in range(data.draw(st.integers(1, 3), label="batches")):
            k = data.draw(st.integers(0, 3 * n_players), label="k")
            probers = rng.integers(0, n_players, size=(n_objects, k))
            got = bulk.probe_assignment(probers)
            want = np.asarray(
                [
                    looped.probe_objects(int(player), np.asarray([obj]))[0]
                    for obj in range(n_objects)
                    for player in probers[obj]
                ],
                dtype=np.uint8,
            ).reshape(n_objects, k)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(bulk.probes_used(), looped.probes_used())
            np.testing.assert_array_equal(bulk.requests_used(), looped.requests_used())
            np.testing.assert_array_equal(bulk.probe_state()[0], looped.probe_state()[0])


# ---------------------------------------------------------------------------
# post_report_assignment == the dense board written entry by entry
# ---------------------------------------------------------------------------
@settings(PROFILE)
@given(data=st.data())
def test_post_report_assignment_matches_dense_reference(data):
    # Player counts that are not multiples of eight: the last byte of every
    # packed row is partial.
    n_players = 8 * data.draw(st.integers(0, 4), label="full_bytes") + data.draw(
        st.integers(1, 7), label="tail_bits"
    )
    n_objects = data.draw(st.integers(1, 20), label="n_objects")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    rng = np.random.default_rng(seed)
    board = BulletinBoard(n_players, n_objects)
    reference = DenseReferenceBoard(n_players, n_objects)
    for _ in range(data.draw(st.integers(1, 4), label="posts")):
        k = data.draw(st.integers(0, 2 * n_players), label="k")
        if data.draw(st.booleans(), label="crowded"):
            # Every prober comes from one byte of players, so object rows
            # repeat players and a column's cells share a bit position.
            byte = int(rng.integers(0, (n_players + 7) // 8))
            low, high = 8 * byte, min(8 * byte + 8, n_players)
            probers = rng.integers(low, high, size=(n_objects, k))
        else:
            probers = rng.integers(0, n_players, size=(n_objects, k))
        # A repeated player's entries may conflict; the last one wins.
        values = rng.integers(0, 2, size=(n_objects, k), dtype=np.uint8)
        action = data.draw(st.sampled_from([None, "duplicate", "drop"]), label="delivery")
        plan = FaultPlan(
            faults=(PlannedFault(site="board.post", point=0, action=action),)
            if action
            else ()
        )
        with installed(FaultInjector(plan, point=0, attempt=0)):
            board.post_report_assignment("ch", probers, values)
        if action != "drop":
            reference.post_assignment(probers, values)
        got_values, got_posted = board_reports(board, "ch")
        np.testing.assert_array_equal(got_values, reference.values)
        np.testing.assert_array_equal(got_posted, reference.posted)


# ---------------------------------------------------------------------------
# Batched SmallRadius == the per-subset loop, on both Select routes
# ---------------------------------------------------------------------------
def _strategy_pool(truth: np.ndarray, pool: str, size: int, seed: int) -> dict | None:
    """No strategies, ``size`` liars (inverters), a hijack coalition, or
    ``size`` random reporters."""
    if pool == "none":
        return None
    if pool == "hijack":
        return build_coalition(truth, size, "hijack", seed=seed)[0]
    members = np.random.default_rng(seed).choice(truth.shape[0], size=size, replace=False)
    if pool == "liar":
        return {int(player): InvertingStrategy() for player in members}
    return {int(player): RandomReportStrategy(seed=(seed, int(player))) for player in members}


@st.composite
def _small_radius_cases(draw):
    """A generated instance, SmallRadius inputs and a strategy pool.

    At 16-48 players a sample factor f samples ``max(4, ceil(f ln n))``
    objects, 4 to 124 of them, and 1 to 12 partition subsets hold 1 to 160
    objects, so a repetition's subsets fall on both sides of the sample:
    some draw it and take the sampled route, the others Select by word
    unless their keys are wider than 64 bits.  Every sampled pass then has
    two-word samples at most; a pass grouping two- and three-word samples
    is the fixed case ``two-and-three-words`` in ``test_small_radius.py``.
    Half the cases put the ZeroRadius base size at the mean subset width,
    so with more players than that the wider subsets recurse (mixed
    recursion).
    """
    n_players = draw(st.integers(16, 48), label="n_players")
    n_objects = draw(st.integers(8, 160), label="n_objects")
    n_clusters = draw(st.integers(1, 4), label="n_clusters")
    diameter = draw(st.sampled_from([1, 2, 4, 8]), label="diameter")
    budget = draw(st.integers(1, 4), label="budget")
    seed = draw(st.integers(0, 2**16), label="seed")
    if draw(st.booleans(), label="zero_radius"):
        instance = zero_radius_instance(n_players, n_objects, n_clusters, seed=seed)
    else:
        instance = planted_clusters_instance(
            n_players, n_objects, n_clusters, min(diameter, n_objects), seed=seed
        )
    practical = ProtocolConstants.practical()
    base_factor = practical.zero_radius_base_factor
    if draw(st.booleans(), label="mixed"):
        mean_width = n_objects / practical.small_radius_partitions(diameter, n_objects)
        zr_budget = practical.small_radius_budget_multiplier * budget
        base_factor = mean_width / (zr_budget * practical.log_n(n_players))
    constants = practical.with_overrides(
        rselect_sample_factor=draw(st.sampled_from([1.0, 2.0, 4.0, 8.0, 16.0, 32.0]), label="f"),
        zero_radius_base_factor=base_factor,
    )
    pool = draw(st.sampled_from(["none", "liar", "hijack", "random"]), label="pool")
    size = draw(st.integers(1, 4), label="pool_size")
    return instance, constants, diameter, budget, pool, size, seed


@settings(PROFILE)
@given(case=_small_radius_cases(), noisy=st.booleans(), lookup_table=st.booleans())
def test_small_radius_matches_per_subset_loop(case, noisy, lookup_table):
    instance, constants, diameter, budget, pool, size, seed = case
    routes = {"by word": 0, "sampled": 0}
    word_route = _SMALL_RADIUS_MODULE._select_by_word
    deferred_select = _SMALL_RADIUS_MODULE._deferred_select

    def counting_word_route(*args):
        routes["by word"] += 1
        return word_route(*args)

    def counting_select(ctx, players, merged, offsets, pending, sampled, *args):
        routes["sampled"] += int(sampled.sum())
        return deferred_select(ctx, players, merged, offsets, pending, sampled, *args)

    def run(solver):
        ctx = make_context(
            instance,
            budget=budget,
            constants=constants,
            strategies=_strategy_pool(instance.preferences, pool, size, seed),
            seed=seed,
            noise_rate=0.05 if noisy else 0.0,
            noise_seed=seed,
        )
        return solver(ctx, ctx.all_players(), ctx.all_objects(), diameter, budget), ctx

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_SMALL_RADIUS_MODULE, "_select_by_word", counting_word_route)
        patch.setattr(_SMALL_RADIUS_MODULE, "_deferred_select", counting_select)
        if lookup_table:  # the popcount fallback for NumPy without bitwise_count
            patch.setattr(bitset, "_HAS_BITWISE_COUNT", False)
        batched, batched_ctx = run(small_radius)
        looped, looped_ctx = run(small_radius_per_subset)
    np.testing.assert_array_equal(batched, looped)
    assert_same_execution(batched_ctx, looped_ctx)
    for route, count in routes.items():
        if count:
            event(f"selected {route}")


def test_one_repetition_takes_every_select_route(monkeypatch):
    # 32 players in 4 clusters of 8, a Select sample of 11 objects and a
    # popularity threshold of 6 players; one repetition over three base
    # subsets:
    # * A, 8 objects, its sample the whole subset: every cluster's centre is
    #   a key.  The first player of each cluster is one bit off its centre
    #   and takes the nearest key, its centre (a flip); the other 28 players'
    #   words are keys (own-word picks);
    # * B, 20 objects, draws its sample: the centres differ in at least 10
    #   places, so every 11-object sample tells them apart (sampled route);
    # * C, 10 objects: every player's word is its own, so no vector is
    #   popular and every player keeps its true rows (no candidate).
    cluster = np.repeat(np.arange(4), 8)
    a_centres = np.unpackbits(np.asarray([[0b00000000], [0b11110000], [0b00001111], [0b11111111]], dtype=np.uint8), axis=1)
    b_centres = np.repeat(np.asarray([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.uint8), 10, axis=1)
    c_words = np.unpackbits(np.arange(32, dtype=np.uint8)[:, None], axis=1)[:, 3:]
    truth = np.concatenate(
        [a_centres[cluster], b_centres[cluster], np.repeat(c_words, 2, axis=1)], axis=1
    )
    truth[::8, 0] ^= 1
    widths = (8, 20, 10)
    constants = ProtocolConstants.practical().with_overrides(
        rselect_sample_factor=3.0, small_radius_repetition_factor=0.01
    )
    seen: dict = {}
    word_route = _SMALL_RADIUS_MODULE._select_by_word
    deferred_select = _SMALL_RADIUS_MODULE._deferred_select

    def word_spy(true_words, keys, key_starts, counts, ends, *args):
        own = [np.isin(words, keys[start : start + count])
               for words, start, count in zip(true_words, key_starts, counts)]
        seen["by word"] = (ends.tolist(), int(np.sum(own)), int(np.sum(np.logical_not(own))))
        return word_route(true_words, keys, key_starts, counts, ends, *args)

    def select_spy(ctx, players, merged, offsets, pending, sampled, draws, *args):
        seen["sampled"] = (pending[sampled].tolist(), sorted(draws), args[-1].tolist())
        return deferred_select(ctx, players, merged, offsets, pending, sampled, draws, *args)

    monkeypatch.setattr(_SMALL_RADIUS_MODULE, "_select_by_word", word_spy)
    monkeypatch.setattr(_SMALL_RADIUS_MODULE, "_deferred_select", select_spy)

    def run(solver):
        ctx = make_context(_instance(truth), budget=1, constants=constants, seed=1)
        monkeypatch.setattr(
            ctx.randomness,
            "partition_objects",
            lambda objects, parts: np.split(np.asarray(objects), np.cumsum(widths)[:-1]),
        )
        return solver(ctx, ctx.all_players(), ctx.all_objects(), 2, 1), ctx

    batched, batched_ctx = run(small_radius)
    # Subset A (ending at object 8) by word: 28 own-word picks, 4 flips;
    # subset B (index 1) drew and took the sampled route; C had no candidate.
    assert seen == {"by word": ([8], 28, 4), "sampled": ([1], [1], [4, 4, 0])}
    looped, looped_ctx = run(small_radius_per_subset)
    np.testing.assert_array_equal(batched, looped)
    assert_same_execution(batched_ctx, looped_ctx)
    # Every player ends on its cluster's centre on A and B, and on its own
    # word on C.
    expected = truth.copy()
    expected[::8, 0] ^= 1
    np.testing.assert_array_equal(batched, expected)
