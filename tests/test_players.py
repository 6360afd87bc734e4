"""Tests for the player pool and the adversary strategy library."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.players.adversaries import (
    COALITION_STRATEGIES,
    ClusterHijackStrategy,
    InvertingStrategy,
    PromotionStrategy,
    RandomReportStrategy,
    StrangeObjectStrategy,
    build_coalition,
)
from repro.players.base import PlayerPool, ReportingStrategy
from repro.players.honest import HonestStrategy
from hypothesis_profiles import PROFILE


@pytest.fixture
def truth(rng):
    return rng.integers(0, 2, size=(12, 20), dtype=np.uint8)


class TestPlayerPool:
    def test_default_all_honest(self, truth):
        pool = PlayerPool(truth)
        assert pool.n_dishonest == 0
        assert pool.honest_mask.all()

    def test_honest_reports_pass_through(self, truth):
        pool = PlayerPool(truth, strategies={0: HonestStrategy()})
        objects = np.asarray([1, 5, 7])
        values = truth[0, objects]
        np.testing.assert_array_equal(pool.reports_for("ch", 0, objects, values), values)
        assert pool.n_dishonest == 0  # HonestStrategy is not counted as dishonest

    def test_dishonest_detection(self, truth):
        pool = PlayerPool(truth, strategies={3: InvertingStrategy()})
        np.testing.assert_array_equal(pool.dishonest_players, [3])
        assert not pool.honest_mask[3]
        assert pool.honest_mask.sum() == truth.shape[0] - 1

    def test_reports_block_rewrites_only_dishonest_rows(self, truth):
        pool = PlayerPool(truth, strategies={2: InvertingStrategy()})
        players = np.asarray([1, 2, 3])
        objects = np.asarray([0, 4, 9])
        block = truth[np.ix_(players, objects)]
        reports = pool.reports_block("ch", players, objects, block)
        np.testing.assert_array_equal(reports[0], block[0])
        np.testing.assert_array_equal(reports[1], 1 - block[1])
        np.testing.assert_array_equal(reports[2], block[2])

    def test_reports_pairs(self, truth):
        pool = PlayerPool(truth, strategies={0: InvertingStrategy()})
        players = np.asarray([0, 1, 0])
        objects = np.asarray([2, 2, 3])
        values = truth[players, objects]
        reports = pool.reports_pairs("ch", players, objects, values)
        assert reports[0] == 1 - values[0]
        assert reports[1] == values[1]
        assert reports[2] == 1 - values[2]

    def test_invalid_strategy_assignment(self, truth):
        with pytest.raises(ConfigurationError):
            PlayerPool(truth, strategies={99: InvertingStrategy()})
        with pytest.raises(ConfigurationError):
            PlayerPool(truth, strategies={0: "not a strategy"})  # type: ignore[dict-item]

    def test_misaligned_reports_rejected(self, truth):
        pool = PlayerPool(truth)
        with pytest.raises(ConfigurationError):
            pool.reports_for("ch", 0, np.asarray([0, 1]), np.asarray([1]))

    @pytest.mark.parametrize("value", [256, 0.5, 1.7, -255])
    def test_non_binary_reports_rejected_before_the_cast(self, truth, value):
        # A uint8 cast would turn these into 0/0/1/1 and let them through.
        class Constant(ReportingStrategy):
            def report(self, channel, player, objects, true_values, pool):
                return np.full(objects.shape, value)

        pool = PlayerPool(truth, strategies={1: Constant()})
        objects = np.asarray([0, 3])
        with pytest.raises(ConfigurationError, match="binary"):
            pool.reports_for("ch", 1, objects, truth[1, objects])
        with pytest.raises(ConfigurationError, match="binary"):
            pool.reports_block("ch", np.asarray([0, 1]), objects, truth[np.ix_([0, 1], objects)])

    def test_bulk_reports_visit_only_strategy_rows_in_loop_order(self, truth):
        calls = []

        class Recording(InvertingStrategy):
            def report(self, channel, player, objects, true_values, pool):
                calls.append((channel, player, objects.tolist()))
                return super().report(channel, player, objects, true_values, pool)

        pool = PlayerPool(truth, strategies={4: Recording(), 2: Recording()})
        objects = np.asarray([1, 6])
        players = np.asarray([0, 4, 3, 2, 4])
        pool.reports_block("ch", players, objects, truth[np.ix_(players, objects)])
        assert calls == [("ch", 4, [1, 6]), ("ch", 2, [1, 6]), ("ch", 4, [1, 6])]

        calls.clear()
        pair_players = np.asarray([4, 0, 2, 4, 2])
        pair_objects = np.asarray([7, 1, 5, 3, 0])
        reports = pool.reports_pairs(
            "ws", pair_players, pair_objects, truth[pair_players, pair_objects]
        )
        # One call per player, players ascending, pairs in their own order.
        assert calls == [("ws", 2, [5, 0]), ("ws", 4, [7, 3])]
        np.testing.assert_array_equal(
            reports, np.where(pair_players == 0, 0, 1) ^ truth[pair_players, pair_objects]
        )


class TestStrategies:
    def test_random_reporter_binary_and_deterministic(self, truth):
        pool = PlayerPool(truth)
        strategy = RandomReportStrategy(seed=5)
        objects = np.arange(10)
        out = strategy.report("ch", 0, objects, truth[0, objects], pool)
        assert set(np.unique(out)).issubset({0, 1})
        again = RandomReportStrategy(seed=5).report("ch", 0, objects, truth[0, objects], pool)
        np.testing.assert_array_equal(out, again)

    def test_inverting(self, truth):
        pool = PlayerPool(truth)
        objects = np.arange(6)
        out = InvertingStrategy().report("ch", 1, objects, truth[1, objects], pool)
        np.testing.assert_array_equal(out, 1 - truth[1, objects])

    def test_promotion_targets_only(self, truth):
        pool = PlayerPool(truth)
        targets = np.asarray([2, 4])
        strategy = PromotionStrategy(targets, promoted_value=1)
        objects = np.asarray([1, 2, 3, 4])
        out = strategy.report("ch", 0, objects, truth[0, objects], pool)
        assert out[1] == 1 and out[3] == 1
        assert out[0] == truth[0, 1] and out[2] == truth[0, 3]

    def test_target_lookup_matches_isin(self, rng):
        from repro.players.adversaries import _ObjectSet

        extremes = np.asarray([np.iinfo(np.int64).min, np.iinfo(np.int64).max])
        for trial in range(200):
            targets = rng.integers(-5, 40, size=rng.integers(0, 12))
            if trial % 50 == 0:
                # Too wide for a table: the lookup keeps np.isin.
                targets = np.append(targets, extremes[(trial // 50) % 2])
            queries = np.concatenate(
                (rng.integers(-50, 90, size=rng.integers(0, 30)), extremes)
            )
            lookup = _ObjectSet(targets)
            for probe in (queries, queries.astype(np.int32), queries + 0.5, queries[:, None]):
                np.testing.assert_array_equal(
                    lookup.contains(probe), np.isin(probe, targets)
                )

    def test_promotion_invalid_value(self):
        with pytest.raises(ConfigurationError):
            PromotionStrategy(np.asarray([0]), promoted_value=2)

    def test_hijack_mimics_victim_except_targets(self, truth):
        pool = PlayerPool(truth)
        victim = 5
        targets = np.asarray([0, 1])
        strategy = ClusterHijackStrategy(victim, targets)
        objects = np.asarray([0, 1, 2, 3])
        out = strategy.report("ch", 7, objects, truth[7, objects], pool)
        np.testing.assert_array_equal(out[2:], truth[victim, objects[2:]])
        np.testing.assert_array_equal(out[:2], 1 - truth[victim, objects[:2]])

    def test_strange_object_strategy_votes_majority_on_clear_objects(self, truth):
        # Build a cluster unanimous on object 0 and split on object 1.
        cluster_truth = truth.copy()
        cluster = np.arange(6)
        cluster_truth[cluster, 0] = 1
        cluster_truth[cluster[:3], 1] = 1
        cluster_truth[cluster[3:], 1] = 0
        pool = PlayerPool(cluster_truth)
        strategy = StrangeObjectStrategy(cluster)
        out = strategy.report("ch", 11, np.asarray([0, 1]), cluster_truth[11, [0, 1]], pool)
        assert out[0] == 1  # blends in on the unanimous object
        # On the perfectly split object it votes with (what it sees as) the minority.
        assert out[1] in (0, 1)

    def test_strange_requires_nonempty_cluster(self):
        with pytest.raises(ConfigurationError):
            StrangeObjectStrategy(np.asarray([], dtype=np.int64))


#: Every built-in strategy: honest, then each coalition strategy.
STRATEGIES = ("honest", *COALITION_STRATEGIES)

#: Channels of every phase a report is posted in, work sharing included.
CHANNELS = (
    "robust/i0/d0/sr/zr/base",
    "robust/i0/d0/sr/pub",
    "robust/i1/d2/z",
    "robust/i0/d0/work/c3",
    "work-sharing/c0",
    "baseline/global-majority",
)


class TestKeyContract:
    @pytest.mark.parametrize("name", STRATEGIES)
    @settings(PROFILE)
    @given(data=st.data())
    def test_report_is_a_function_of_its_key(self, name, data):
        # A report is a function of (channel, player, object, true value):
        # one call equals its pieces over any split into consecutive runs, a
        # repeated call answers the same, and no call changes the strategy.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        n_players = data.draw(st.integers(3, 40), label="n_players")
        n_objects = data.draw(st.integers(1, 40), label="n_objects")
        # Biased columns, so a victim cluster has clear-cut objects as well
        # as strange ones.
        like_rate = rng.random(n_objects)
        truth = (rng.random((n_players, n_objects)) < like_rate).astype(np.uint8)
        objects = np.asarray(
            data.draw(st.lists(st.integers(0, n_objects - 1), max_size=40), label="objects"),
            dtype=np.int64,
        )
        true_values = rng.integers(0, 2, size=objects.size, dtype=np.uint8)
        cuts = sorted(
            data.draw(st.lists(st.integers(0, objects.size), max_size=4), label="cuts")
        )
        channel = data.draw(st.sampled_from(CHANNELS) | st.text(max_size=12), label="channel")
        if name == "honest":
            player, strategy = 0, HonestStrategy()
        else:
            strategies, _ = build_coalition(
                truth, 1, name, victim_cluster=np.arange(n_players // 2), seed=rng
            )
            (player, strategy), = strategies.items()
        pool = PlayerPool(truth, strategies={player: strategy})
        state = pickle.dumps(strategy)

        whole = strategy.report(channel, player, objects, true_values, pool)
        pieces = [
            strategy.report(channel, player, part, values, pool)
            for part, values in zip(np.split(objects, cuts), np.split(true_values, cuts))
        ]
        np.testing.assert_array_equal(np.concatenate(pieces), whole)
        np.testing.assert_array_equal(
            strategy.report(channel, player, objects, true_values, pool), whole
        )
        assert pickle.dumps(strategy) == state

    def test_random_lies_differ_across_channels_and_seeds(self):
        pool = PlayerPool(np.zeros((2, 256), dtype=np.uint8))
        objects = np.arange(256)
        values = pool.truth[0]

        def lies(seed, channel):
            return RandomReportStrategy(seed=seed).report(channel, 0, objects, values, pool)

        base = lies(3, "sr/zr/base")
        # Each of 256 cells agrees by chance half the time.
        for other in (lies(3, "sr/pub"), lies(4, "sr/zr/base")):
            assert 64 < np.count_nonzero(other != base) < 192
        np.testing.assert_array_equal(lies(3, "sr/zr/base"), base)


class TestBuildCoalition:
    def test_members_outside_victim_cluster(self, truth):
        victim = np.arange(4)
        strategies, plan = build_coalition(
            truth, coalition_size=3, strategy="hijack", victim_cluster=victim, seed=0
        )
        assert len(strategies) == 3
        assert not np.isin(plan.members, victim).any()
        assert plan.strategy_name == "hijack"
        assert plan.hidden_objects.size > 0

    def test_zero_coalition(self, truth):
        strategies, plan = build_coalition(truth, 0, strategy="random", seed=0)
        assert strategies == {}
        assert plan.members.size == 0

    def test_all_strategy_names(self, truth):
        for name in ("random", "invert", "promote", "smear", "hijack", "strange"):
            strategies, plan = build_coalition(truth, 2, strategy=name, seed=1)
            assert len(strategies) == 2
            assert plan.strategy_name == name

    def test_unknown_strategy_rejected(self, truth):
        with pytest.raises(ConfigurationError):
            build_coalition(truth, 1, strategy="bogus")  # type: ignore[arg-type]

    def test_oversized_coalition_rejected(self, truth):
        with pytest.raises(ConfigurationError):
            build_coalition(truth, truth.shape[0], strategy="random")
