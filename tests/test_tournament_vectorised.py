"""Property tests for the vectorised tournament layer (PR 3).

Three bulk paths must be *bit-for-bit* equal to their serial references —
same outputs, same probe accounting, same shared-randomness consumption —
on random instances including dishonest reporters and the noisy oracle:

* ``rselect_collective`` vs the per-player serial tournaments
  (``rselect_collective_serial`` in ``tests/reference_loops.py``);
* ``ProbeOracle.probe_ragged`` vs a loop of ``probe_objects``;
* mixed base/recursive SmallRadius batching vs the per-subset loop
  (``tests/reference_loops.py``), for honest pools, every coalition
  strategy and a pool of two coalitions; a spy pins that the batched
  repetition asks every pool once per channel.

Plus the ``packed_pair_vote`` kernel against an unpacked reference, the
RSelect survivor-fallback regression, and the collective tournament's two
helpers: the exact smallest-key selection (including rows its prefilter
leaves short) and the labelling of each slot's distinct candidate rows
(also with every row forced to one hash).
"""

from __future__ import annotations

import sys
from dataclasses import replace

import numpy as np
import pytest

import repro.protocols.small_radius  # noqa: F401 - registers the submodule
from repro import ProtocolConstants, make_context
from repro.errors import ConfigurationError, ProtocolError
from repro.perf import pack_bits, packed_pair_vote
from repro.perf.bitset import _as_words, _popcount_words
from repro.players import PlayerPool
from repro.players.adversaries import (
    COALITION_STRATEGIES,
    RandomReportStrategy,
    build_coalition,
)
from repro.preferences.generators import PlantedInstance, planted_clusters_instance
from repro.protocols.rselect import (
    _slot_labels,
    _smallest_keys,
    rselect,
    rselect_collective,
)
from repro.protocols.small_radius import small_radius
from repro.simulation.oracle import ProbeOracle
from reference_loops import (
    assert_same_execution,
    rselect_collective_serial,
    small_radius_per_subset,
)

_SMALL_RADIUS_MODULE = sys.modules["repro.protocols.small_radius"]
_RSELECT_MODULE = sys.modules["repro.protocols.rselect"]


# ---------------------------------------------------------------------------
# Collective RSelect == per-player serial RSelect
# ---------------------------------------------------------------------------
def _paired_contexts(seed: int):
    rng = np.random.default_rng(seed)
    n_players = int(rng.integers(1, 40))
    n_objects = int(rng.integers(5, 130))
    k = int(rng.integers(2, 8))
    instance = planted_clusters_instance(
        n_players, n_objects, n_clusters=2, diameter=3, seed=seed
    )
    strategies = (
        {0: RandomReportStrategy(seed=1)} if seed % 2 and n_players > 1 else None
    )
    kwargs = dict(
        budget=4,
        strategies=strategies,
        seed=seed,
        noise_rate=0.1 if seed % 3 == 0 else 0.0,
        noise_seed=seed,
    )
    stack = rng.integers(0, 2, size=(n_players, k, n_objects), dtype=np.uint8)
    if seed % 2:  # exercise the identical-candidates (0, 0)-tie rounds
        stack[:, 1, :] = stack[:, 0, :]
    return make_context(instance, **kwargs), make_context(instance, **kwargs), stack


@pytest.mark.parametrize("seed", range(10))
def test_rselect_collective_vectorised_matches_serial(seed):
    ctx_vec, ctx_ser, stack = _paired_contexts(seed)
    players = ctx_vec.all_players()
    objects = ctx_vec.all_objects()
    vectorised = rselect_collective(ctx_vec, players, objects, stack)
    serial = rselect_collective_serial(ctx_ser, players, objects, stack)
    np.testing.assert_array_equal(vectorised, serial)
    np.testing.assert_array_equal(
        ctx_vec.oracle.probes_used(), ctx_ser.oracle.probes_used()
    )
    np.testing.assert_array_equal(
        ctx_vec.oracle.requests_used(), ctx_ser.oracle.requests_used()
    )
    # Both paths advanced the shared randomness identically (one batched
    # player-major seed draw), so the next draw coincides.
    assert ctx_vec.randomness.generator.integers(0, 2**63) == ctx_ser.randomness.generator.integers(0, 2**63)


def test_rselect_collective_validates_sample_size_and_shape(ctx_planted):
    players = ctx_planted.all_players()
    objects = ctx_planted.all_objects()
    stack = np.zeros((players.size, 2, objects.size), dtype=np.uint8)
    with pytest.raises(ProtocolError):
        rselect_collective(ctx_planted, players, objects, stack, sample_size=0)
    with pytest.raises(ProtocolError):
        rselect_collective(ctx_planted, players, objects, stack[:, :, :-1])


def test_rselect_survivor_fallback_keeps_last_eliminated():
    """Regression: mutual elimination (majority ≤ 1/2, reachable only by
    bypassing the constants validation) must fall back to the *most
    recently* eliminated candidate, not unconditionally ``candidates[0]``."""
    constants = ProtocolConstants.practical()
    object.__setattr__(constants, "rselect_majority", 0.5)
    truth = np.zeros((1, 8), dtype=np.uint8)
    instance = PlantedInstance(
        preferences=truth,
        cluster_of=np.zeros(1, dtype=np.int64),
        planted_diameters=np.zeros(1, dtype=np.int64),
        metadata={"generator": "fallback-regression"},
    )
    # Pair (0,1): candidate 1 wins 2:1 -> 0 eliminated.  Pair (1,2): exact
    # 1:1 tie at the 0.5 threshold -> mutual elimination empties the alive
    # set; 1 was eliminated after 2, so the survivor fallback must pick 1.
    candidates = np.asarray(
        [
            [1, 1, 0, 0, 0, 1, 0, 0],
            [0, 0, 1, 0, 0, 1, 0, 0],
            [0, 0, 1, 0, 0, 0, 1, 0],
        ],
        dtype=np.uint8,
    )
    ctx = make_context(instance, budget=4, constants=constants, seed=0)
    winner, vector = rselect(ctx, 0, np.arange(8), candidates, sample_size=8)
    assert winner == 1
    np.testing.assert_array_equal(vector, candidates[1])
    # The collective path and its serial reference apply the same tie-break.
    for tournament in (rselect_collective, rselect_collective_serial):
        ctx = make_context(instance, budget=4, constants=constants, seed=0)
        chosen = tournament(
            ctx, np.asarray([0]), np.arange(8), candidates[None, :, :], sample_size=8
        )
        np.testing.assert_array_equal(chosen[0], candidates[1])


def test_smallest_keys_matches_per_row_selection_when_the_prefilter_falls_short():
    # At sample size 4 the prefilter keeps a row's keys below 12 / width.
    # Row 0 (width 5) keeps every key; row 1 (width 40, limit 0.3) has only
    # two keys below its limit and row 2 (width 100, limit 0.12) three, so
    # both fall back to a selection over all of their keys; row 3 has
    # exactly four passing keys, the fewest the padded argsort accepts.
    sample_size = 4
    rng = np.random.default_rng(5)
    widths = np.asarray([5, 40, 100, 60])
    rows = [
        rng.random(5),
        np.r_[[0.05, 0.2], rng.uniform(0.3, 1.0, 38)],
        np.r_[[0.01, 0.11, 0.02], rng.uniform(0.12, 1.0, 97)],
        np.r_[[0.15, 0.03, 0.19, 0.07], rng.uniform(0.2, 1.0, 56)],
    ]
    rows = [rng.permutation(row) for row in rows]
    chosen = _smallest_keys(np.concatenate(rows), widths, sample_size)
    for row_keys, got in zip(rows, chosen):
        smallest = np.argpartition(row_keys, sample_size - 1)[:sample_size]
        np.testing.assert_array_equal(got, smallest[np.argsort(row_keys[smallest])])


@pytest.mark.parametrize("hashed", [True, False], ids=["row-hash", "one-hash"])
@pytest.mark.parametrize("n_bits", [1, 7, 64, 65, 200])
def test_slot_labels_name_equal_rows_alike_and_unequal_rows_apart(
    n_bits, hashed, monkeypatch
):
    # A zero multiplier hashes every row to 0, so the sort keeps the player
    # order and equal rows lie apart: the labels must still never join two
    # unequal rows, and each label's words must be its rows' words.
    if not hashed:
        monkeypatch.setattr(_RSELECT_MODULE, "_ROW_HASH_MULTIPLIER", 0)
    rng = np.random.default_rng(n_bits)
    n_players, k = 40, 4
    # Per slot a few distinct rows (slot 0: one; the last slot: every row
    # its own), drawn in a random order.
    stack = np.empty((n_players, k, n_bits), dtype=np.uint8)
    for slot, n_distinct in enumerate((1, 3, 7, n_players)):
        distinct = rng.integers(0, 2, size=(n_distinct, n_bits), dtype=np.uint8)
        stack[:, slot] = distinct[rng.integers(0, n_distinct, size=n_players)]
    words = _as_words(pack_bits(stack).data)
    labels, label_words = _slot_labels(words)
    assert labels.shape == (n_players, k)
    for slot in range(k):
        rows = stack[:, slot]
        same_label = labels[:, slot, None] == labels[None, :, slot]
        same_row = (rows[:, None, :] == rows[None, :, :]).all(axis=-1)
        # Equal labels mean equal rows: unequal rows never share a label.
        assert not (same_label & ~same_row).any()
        if hashed:
            # Without collisions every distinct row has exactly one label.
            np.testing.assert_array_equal(same_label, same_row)
        assert sorted(set(labels[:, slot].tolist())) == list(range(len(label_words[slot])))
        np.testing.assert_array_equal(label_words[slot][labels[:, slot]], words[:, slot])


# ---------------------------------------------------------------------------
# probe_ragged == looped probe_objects
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("noise_rate", [0.0, 0.2])
def test_probe_ragged_matches_probe_objects_loop(noise_rate):
    rng = np.random.default_rng(17)
    truth = rng.integers(0, 2, size=(9, 23))
    ragged = ProbeOracle(truth, noise_rate=noise_rate, noise_seed=5)
    looped = ProbeOracle(truth, noise_rate=noise_rate, noise_seed=5)
    for _ in range(8):
        n_listed = int(rng.integers(1, truth.shape[0] + 1))
        players = rng.choice(truth.shape[0], size=n_listed, replace=False)
        lists = [
            rng.integers(0, truth.shape[1], size=rng.integers(0, 9))
            for _ in range(n_listed)
        ]
        got = ragged.probe_ragged(
            players, np.concatenate(lists), [len(objs) for objs in lists]
        )
        expected = [looped.probe_objects(int(p), objs) for p, objs in zip(players, lists)]
        np.testing.assert_array_equal(
            got, np.concatenate(expected) if got.size else np.zeros(0, np.uint8)
        )
        np.testing.assert_array_equal(ragged.probes_used(), looped.probes_used())
        np.testing.assert_array_equal(ragged.requests_used(), looped.requests_used())


def test_probe_ragged_duplicate_players_and_validation():
    truth = np.arange(12).reshape(3, 4) % 2
    ragged = ProbeOracle(truth)
    looped = ProbeOracle(truth)
    got = ragged.probe_ragged(np.asarray([1, 1, 0]), np.asarray([0, 2, 2, 3, 1]), [2, 2, 1])
    expected = np.concatenate(
        [looped.probe_objects(1, [0, 2]), looped.probe_objects(1, [2, 3]), looped.probe_objects(0, [1])]
    )
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(ragged.probes_used(), looped.probes_used())
    with pytest.raises(ConfigurationError):
        ragged.probe_ragged(np.asarray([0]), np.asarray([0, 1]), [1, 1])
    with pytest.raises(ConfigurationError):
        ragged.probe_ragged(np.asarray([7]), np.asarray([0]), [1])
    with pytest.raises(ConfigurationError):
        ragged.probe_ragged(np.asarray([0]), np.asarray([99]), [1])
    assert ragged.probe_ragged(np.zeros(0, dtype=np.int64), np.zeros(0, np.int64), []).size == 0
    assert ragged.probe_ragged(np.asarray([0, 1]), np.zeros(0, np.int64), [0, 0]).size == 0


def test_probe_ragged_rejects_lengths_that_do_not_split_the_objects():
    oracle = ProbeOracle(np.arange(12).reshape(3, 4) % 2)
    with pytest.raises(ConfigurationError):
        oracle.probe_ragged(np.asarray([0, 1]), np.asarray([0, 1, 2]), [1, 1])
    with pytest.raises(ConfigurationError):
        oracle.probe_ragged(np.asarray([0, 1]), np.asarray([0]), [2, -1])
    # A bad index anywhere in the batch charges nobody, even on the
    # duplicate-player path that probes player by player.
    with pytest.raises(ConfigurationError):
        oracle.probe_ragged(np.asarray([1, 1]), np.asarray([0, 1, 9]), [2, 1])
    np.testing.assert_array_equal(oracle.probes_used(), [0, 0, 0])
    np.testing.assert_array_equal(oracle.requests_used(), [0, 0, 0])


# ---------------------------------------------------------------------------
# Mixed base/recursive SmallRadius batching == per-subset loop
# ---------------------------------------------------------------------------
def _coalitions(instance: PlantedInstance, strategy: str, seed: int) -> dict:
    """Five members per ``+``-joined strategy name, the coalitions disjoint."""
    strategies: dict = {}
    for name in strategy.split("+"):
        coalition, _ = build_coalition(
            instance.preferences,
            5,
            name,
            seed=seed,
            exclude=np.fromiter(strategies, dtype=np.int64),
        )
        strategies.update(coalition)
    return strategies


@pytest.mark.parametrize(
    ("strategy", "seed"),
    [pytest.param(None, seed, id=str(seed)) for seed in range(4)]
    + [
        pytest.param(strategy, seed, id=f"{strategy}-{seed}")
        for strategy in (*COALITION_STRATEGIES, "hijack+random")
        for seed in range(4)
    ],
)
def test_small_radius_mixed_recursion_matches_per_subset_loop(strategy, seed, monkeypatch):
    # A low base factor makes the random partition subsets straddle the
    # ZeroRadius base size, so each repetition genuinely mixes bulk base
    # blocks with inline recursion (asserted via the zero_radius call count).
    # With a coalition, the output must not depend on how the pool is asked.
    constants = replace(ProtocolConstants.practical(), zero_radius_base_factor=0.5)
    instance = planted_clusters_instance(48, 96, n_clusters=4, diameter=8, seed=seed)

    def context():
        strategies = None if strategy is None else _coalitions(instance, strategy, seed)
        return make_context(
            instance, budget=1, constants=constants, strategies=strategies, seed=seed
        )

    calls = {"batched": 0}
    real_zero_radius = _SMALL_RADIUS_MODULE.zero_radius

    def counting_zero_radius(*args, **kwargs):
        calls["batched"] += 1
        return real_zero_radius(*args, **kwargs)

    batched_ctx = context()
    monkeypatch.setattr(_SMALL_RADIUS_MODULE, "zero_radius", counting_zero_radius)
    batched = small_radius(
        batched_ctx, batched_ctx.all_players(), batched_ctx.all_objects(), diameter=8, budget=1
    )
    monkeypatch.setattr(_SMALL_RADIUS_MODULE, "zero_radius", real_zero_radius)

    loop_ctx = context()
    loop = small_radius_per_subset(
        loop_ctx, loop_ctx.all_players(), loop_ctx.all_objects(), diameter=8, budget=1
    )
    assert calls["batched"] > 0, "expected some subsets to recurse (mixed mode)"
    np.testing.assert_array_equal(batched, loop)
    assert_same_execution(batched_ctx, loop_ctx)


@pytest.mark.parametrize("strategy", ["hijack", "strange+invert", "random", "hijack+adaptive"])
def test_small_radius_asks_every_pool_once_per_channel(strategy, monkeypatch):
    # Every base subset's reports come from two calls per repetition: the
    # ZeroRadius base report, then the publish, each on its own channel.
    instance = planted_clusters_instance(48, 96, n_clusters=4, diameter=8, seed=2)
    ctx = make_context(
        instance, budget=1, strategies=_coalitions(instance, strategy, seed=2), seed=2
    )
    channels: list[str] = []
    asked: list[tuple[list[str], int]] = []
    real_reports_block = PlayerPool.reports_block
    real_repetition = _SMALL_RADIUS_MODULE._batched_base_repetition

    def recording_reports_block(self, channel, *args):
        channels.append(channel)
        return real_reports_block(self, channel, *args)

    def spying_repetition(ctx, players, partitions, is_base, *args):
        channels.clear()
        real_repetition(ctx, players, partitions, is_base, *args)
        assert all(is_base), "a recursive subset would add its own pool calls"
        asked.append((list(channels), len(is_base)))

    monkeypatch.setattr(PlayerPool, "reports_block", recording_reports_block)
    monkeypatch.setattr(_SMALL_RADIUS_MODULE, "_batched_base_repetition", spying_repetition)
    small_radius(ctx, ctx.all_players(), ctx.all_objects(), diameter=8, budget=1)
    assert asked
    for repetition_channels, base_subsets in asked:
        assert base_subsets > 1
        assert repetition_channels == ["small-radius/zr/base", "small-radius/pub"]


def _decode_block_keys(keys: np.ndarray, width: int) -> np.ndarray:
    """Rows of bits from ``(k, ceil(width / 64))`` block-word keys (first bit
    most significant, the last word of a wide key left-aligned)."""
    position = np.arange(width)
    shifts = (min(64, width) - 1 - (position & 63)).astype(np.uint64)
    words = keys[:, position >> 6].astype(np.uint64)
    return ((words >> shifts) & np.uint64(1)).astype(np.uint8)


def test_popular_vectors_blocks_matches_per_block_reference():
    from repro.protocols.zero_radius import popular_vectors

    rng = np.random.default_rng(23)
    for _ in range(20):
        n_players = int(rng.integers(2, 50))
        widths = rng.integers(1, 90, size=rng.integers(1, 10))
        published = rng.integers(0, 2, size=(n_players, widths.sum()), dtype=np.uint8)
        published = published[rng.integers(0, n_players, size=n_players)]
        min_support = int(rng.integers(1, max(2, n_players // 2)))
        # The builder takes object rows and their block words and returns
        # every block's popular vectors as flat word keys; decode each
        # block's keys back to rows.
        rows = np.ascontiguousarray(published.T)
        words, _ = _SMALL_RADIUS_MODULE._block_words(rows, widths)
        keys, counts = _SMALL_RADIUS_MODULE._popular_vectors_blocks(
            rows, words, widths, min_support
        )
        offsets = np.concatenate(([0], np.cumsum(widths)))
        key_words = (widths + 63) // 64
        key_starts = np.concatenate(([0], np.cumsum(counts * key_words)))
        assert key_starts[-1] == keys.size
        for index in range(widths.size):
            reference = popular_vectors(
                published[:, offsets[index] : offsets[index + 1]], min_support
            )
            block_keys = keys[key_starts[index] : key_starts[index + 1]].reshape(
                counts[index], key_words[index]
            )
            np.testing.assert_array_equal(
                _decode_block_keys(block_keys, int(widths[index])), reference
            )


# ---------------------------------------------------------------------------
# New perf kernels
# ---------------------------------------------------------------------------
def test_packed_pair_vote_matches_unpacked_reference():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n_rows = int(rng.integers(1, 9))
        max_len = int(rng.integers(1, 40))
        lengths = rng.integers(0, max_len + 1, size=n_rows)
        true_rows = np.zeros((n_rows, max_len), dtype=np.uint8)
        a_rows = np.zeros_like(true_rows)
        b_rows = np.zeros_like(true_rows)
        for i, length in enumerate(lengths):
            true_rows[i, :length] = rng.integers(0, 2, length)
            a_rows[i, :length] = rng.integers(0, 2, length)
            b_rows[i, :length] = rng.integers(0, 2, length)
        agree_a, agree_b = packed_pair_vote(true_rows, a_rows, b_rows, lengths)
        for i, length in enumerate(lengths):
            assert agree_a[i] == (true_rows[i, :length] == a_rows[i, :length]).sum()
            assert agree_b[i] == (true_rows[i, :length] == b_rows[i, :length]).sum()


def test_packed_pair_vote_validates():
    ones = np.ones((2, 4), dtype=np.uint8)
    with pytest.raises(ProtocolError):
        packed_pair_vote(ones, ones[:1], ones, np.asarray([4, 4]))
    with pytest.raises(ProtocolError):
        packed_pair_vote(ones, ones, ones, np.asarray([4]))
    with pytest.raises(ProtocolError):
        packed_pair_vote(ones, ones, ones, np.asarray([4, 5]))
