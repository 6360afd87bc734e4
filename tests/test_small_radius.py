"""Tests for the SmallRadius protocol (Theorem 5)."""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from reference_loops import assert_same_execution, block_words_reduceat, small_radius_per_subset
from repro import ProtocolConstants, make_context, planted_clusters_instance, zero_radius_instance
from repro.errors import ProtocolError
from repro.players.adversaries import RandomReportStrategy
from repro.preferences.metrics import prediction_errors
from repro.protocols.small_radius import small_radius

# The package re-exports the function under the module's name.
_small_radius_module = importlib.import_module("repro.protocols.small_radius")
_block_words = _small_radius_module._block_words


class TestSmallRadiusHonest:
    @pytest.mark.parametrize("diameter", [0, 2, 8])
    def test_error_within_5D_plus_slack(self, constants, diameter):
        instance = planted_clusters_instance(
            n_players=96, n_objects=96, n_clusters=4, diameter=diameter, seed=diameter
        )
        ctx = make_context(instance, budget=4, constants=constants, seed=diameter)
        estimates = small_radius(
            ctx, ctx.all_players(), ctx.all_objects(), diameter=diameter, budget=4
        )
        errors = prediction_errors(estimates, instance.preferences)
        # Theorem 5 promises 5D with high probability; allow a small additive
        # slack for the tiny test instances.
        assert errors.max() <= 5 * diameter + 3

    def test_zero_diameter_instance_recovered_exactly(self, constants):
        instance = zero_radius_instance(n_players=64, n_objects=64, n_clusters=4, seed=1)
        ctx = make_context(instance, budget=4, constants=constants, seed=1)
        estimates = small_radius(ctx, ctx.all_players(), ctx.all_objects(), diameter=0, budget=4)
        assert prediction_errors(estimates, instance.preferences).max() <= 1

    def test_subset_of_objects(self, constants):
        instance = planted_clusters_instance(48, 96, n_clusters=4, diameter=4, seed=2)
        ctx = make_context(instance, budget=4, constants=constants, seed=2)
        objects = np.arange(20, 60)
        estimates = small_radius(ctx, ctx.all_players(), objects, diameter=4, budget=4)
        assert estimates.shape == (48, objects.size)
        errors = (estimates != instance.preferences[:, objects]).sum(axis=1)
        assert errors.max() <= 5 * 4 + 3

    def test_empty_inputs(self, ctx_planted):
        out = small_radius(ctx_planted, np.asarray([], dtype=np.int64), np.arange(4), 2)
        assert out.shape == (0, 4)

    def test_invalid_parameters(self, ctx_planted):
        with pytest.raises(ProtocolError):
            small_radius(
                ctx_planted, ctx_planted.all_players(), ctx_planted.all_objects(), diameter=-1
            )
        with pytest.raises(ProtocolError):
            small_radius(
                ctx_planted,
                ctx_planted.all_players(),
                ctx_planted.all_objects(),
                diameter=2,
                budget=0,
            )

    def test_uses_default_budget_from_context(self, ctx_planted, planted_small):
        estimates = small_radius(
            ctx_planted, ctx_planted.all_players(), ctx_planted.all_objects(), diameter=8
        )
        errors = prediction_errors(estimates, planted_small.preferences)
        assert errors.max() <= 5 * 8 + 3


class TestSmallRadiusDishonest:
    def test_small_coalition_of_random_reporters(self, constants):
        instance = planted_clusters_instance(
            n_players=96, n_objects=96, n_clusters=4, diameter=6, seed=5
        )
        dishonest = list(range(0, 96, 16))  # 6 players < n/(3B) = 8
        strategies = {p: RandomReportStrategy(seed=p) for p in dishonest}
        ctx = make_context(instance, budget=4, constants=constants, strategies=strategies, seed=5)
        estimates = small_radius(ctx, ctx.all_players(), ctx.all_objects(), diameter=6, budget=4)
        honest_mask = np.ones(96, dtype=bool)
        honest_mask[dishonest] = False
        errors = prediction_errors(estimates, instance.preferences)[honest_mask]
        assert errors.max() <= 5 * 6 + 6


class TestBlockWords:
    """The shift-or builder on object rows packs exactly the words of the
    player-major ``reduceat`` reference: same values, dtype and starts."""

    @staticmethod
    def _check(bits, widths, order):
        want, want_starts = block_words_reduceat(bits, widths)
        rows = np.asarray(bits.T, order=order)
        got, got_starts = _block_words(rows, widths)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want.T)
        np.testing.assert_array_equal(got_starts, want_starts)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", ["blocks", "one-row", "one-block"])
    def test_matches_reduceat_reference_for_widths_1_to_130(self, order, shape):
        # Every widest-block width 1..130 crosses each dtype and word-count
        # boundary: 8/9, 16/17, 32/33, 64/65 and 128/129.
        rng = np.random.default_rng(41)
        for widest in range(1, 131):
            if shape == "one-block":
                widths = np.asarray([widest])
            else:
                widths = rng.integers(1, widest + 1, size=int(rng.integers(1, 7)))
                widths[rng.integers(0, widths.size)] = widest
            n_rows = 1 if shape == "one-row" else int(rng.integers(2, 9))
            bits = rng.integers(0, 2, size=(n_rows, int(widths.sum())), dtype=np.uint8)
            self._check(bits, widths, order)

    def test_all_ones_fill_every_word(self):
        for width in (8, 16, 32, 64, 65, 128, 129):
            self._check(np.ones((3, width), dtype=np.uint8), np.asarray([width]), "C")


@pytest.mark.parametrize(
    ("widths", "sample_factor", "operands"),
    [
        ((80, 130, 60), 32.0, [(16, 2)]),
        ((60, 130, 80), 32.0, [(16, 2)]),
        ((100, 200, 60), 48.0, [(16, 1), (24, 1)]),
    ],
    ids=["narrow-last", "wide-last", "two-and-three-words"],
)
def test_deferred_select_routes_mixed_width_subsets(widths, sample_factor, operands, monkeypatch):
    # At n = 32 a sample factor of 32 gives a 111-bit Select sample, and 48
    # a 167-bit one.  The 60-bit subset's sample is then the whole subset,
    # one word per player, so it Selects by word.  The other two take the
    # sampled route, in one deferred pass: at 111 bits the 80-bit subset's
    # keys and the drawn 130-bit subset's sample take two 64-bit words, one
    # group of 16-byte operands; at 167 bits the undrawn 100-bit subset's
    # sample takes two words and the drawn 200-bit subset's three, a group
    # of 16-byte and a group of 24-byte operands.  Every subset is a base
    # case with four candidates.
    instance = zero_radius_instance(32, sum(widths), n_clusters=4, seed=5)
    constants = ProtocolConstants.practical().with_overrides(rselect_sample_factor=sample_factor)
    stops = np.cumsum(widths)
    by_word: list[list[int]] = []
    sampled: list[tuple[int, int]] = []
    word_route = _small_radius_module._select_by_word
    sample_kernel = _small_radius_module._sample_distances

    def word_spy(true_words, keys, key_starts, counts, ends, *args):
        by_word.append(ends.tolist())
        return word_route(true_words, keys, key_starts, counts, ends, *args)

    def sample_spy(cand_block, true_block, max_distance):
        sampled.append((cand_block.shape[-1] * cand_block.itemsize, true_block.shape[0]))
        return sample_kernel(cand_block, true_block, max_distance)

    monkeypatch.setattr(_small_radius_module, "_select_by_word", word_spy)
    monkeypatch.setattr(_small_radius_module, "_sample_distances", sample_spy)

    def run(solver):
        ctx = make_context(instance, budget=4, constants=constants, seed=3)
        monkeypatch.setattr(
            ctx.randomness,
            "partition_objects",
            lambda objects, parts: np.split(np.asarray(objects), stops[:-1]),
        )
        return solver(ctx, ctx.all_players(), ctx.all_objects(), 4), ctx

    batched, batched_ctx = run(small_radius)
    looped, looped_ctx = run(small_radius_per_subset)
    np.testing.assert_array_equal(batched, looped)
    assert_same_execution(batched_ctx, looped_ctx)
    # Each repetition Selected the 60-bit subset (the one ending at its
    # stop) by word, and the other two in groups of (operand bytes, subsets).
    assert by_word and by_word == [[int(stops[widths.index(60)])]] * len(by_word)
    assert sampled == operands * len(by_word)
    np.testing.assert_array_equal(batched, instance.preferences)
