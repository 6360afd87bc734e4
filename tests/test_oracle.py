"""Tests for the probe oracle: values, accounting, memoisation, budgets."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BudgetExceededError, ConfigurationError
from repro.simulation.oracle import ProbeOracle


@pytest.fixture
def truth(rng):
    return rng.integers(0, 2, size=(8, 12), dtype=np.uint8)


@pytest.fixture
def oracle(truth):
    return ProbeOracle(truth)


class TestConstruction:
    def test_rejects_non_binary(self):
        for value in (3, -1, 0.5, np.nan):
            truth = np.zeros((2, 2))
            truth[1, 0] = value
            with pytest.raises(ConfigurationError, match="binary"):
                ProbeOracle(truth)

    @pytest.mark.parametrize("dtype", [bool, np.int64, np.uint8])
    def test_accepts_a_binary_truth_of_any_integer_dtype(self, truth, dtype):
        oracle = ProbeOracle(truth.astype(dtype))
        assert oracle.ground_truth().dtype == np.uint8
        np.testing.assert_array_equal(oracle.ground_truth(), truth)

    @pytest.mark.parametrize(
        "value,dtype", [(2, np.uint8), (-1, np.int64), (0.5, np.float64)]
    )
    def test_rejects_a_non_binary_cell_of_each_dtype(self, value, dtype):
        truth = np.zeros((3, 70), dtype=dtype)
        truth[2, 69] = value
        with pytest.raises(ConfigurationError, match="binary"):
            ProbeOracle(truth)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ConfigurationError):
            ProbeOracle(np.zeros(5))

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            ProbeOracle(np.zeros((0, 0)))

    def test_truth_is_copied_and_readonly(self, truth):
        # Either input layout: an F-ordered one transposes without a copy.
        for caller in (truth.copy(), np.asfortranarray(truth)):
            oracle = ProbeOracle(caller)
            caller[0, 0] ^= 1  # mutate the caller's array after construction
            np.testing.assert_array_equal(oracle.ground_truth(), truth)
            with pytest.raises(ValueError):
                oracle.ground_truth()[0, 0] = 1

    def test_noise_free_oracle_pickles_one_matrix(self):
        # Without noise the probes read the ground truth itself, so the
        # oracle holds (and a pickle carries) the n x m matrix once, not
        # twice.
        truth = np.random.default_rng(0).integers(0, 2, size=(64, 512), dtype=np.uint8)
        assert len(pickle.dumps(ProbeOracle(truth))) < 1.5 * truth.size
        assert len(pickle.dumps(ProbeOracle(truth, noise_rate=0.1, noise_seed=1))) > 2 * truth.size

    def test_enforce_budget_requires_budget(self, truth):
        with pytest.raises(ConfigurationError):
            ProbeOracle(truth, enforce_budget=True)


class TestProbing:
    def test_single_probe_returns_truth(self, oracle, truth):
        assert oracle.probe(3, 5) == int(truth[3, 5])

    def test_probe_objects_values(self, oracle, truth):
        objs = np.asarray([0, 3, 7])
        np.testing.assert_array_equal(oracle.probe_objects(2, objs), truth[2, objs])

    def test_probe_block_values(self, oracle, truth):
        players = np.asarray([1, 4])
        objs = np.asarray([2, 5, 9])
        np.testing.assert_array_equal(
            oracle.probe_block(players, objs), truth[np.ix_(players, objs)]
        )

    def test_probe_assignment_values(self, oracle, truth):
        # Row o lists the players probing object o; player 0 probes twice.
        probers = np.arange(36).reshape(12, 3) % 8
        probers[1] = 0
        np.testing.assert_array_equal(
            oracle.probe_assignment(probers), truth[probers, np.arange(12)[:, None]]
        )

    def test_out_of_range_rejected(self, oracle):
        with pytest.raises(ConfigurationError):
            oracle.probe(100, 0)
        with pytest.raises(ConfigurationError):
            oracle.probe_objects(0, np.asarray([999]))
        with pytest.raises(ConfigurationError):
            oracle.probe_block(np.asarray([0]), np.asarray([-1]))
        with pytest.raises(ConfigurationError):
            oracle.probe_assignment(np.full((12, 1), 8))

    def test_probe_assignment_needs_one_row_per_object(self, oracle):
        for shape in [(11, 2), (13, 2), (12,)]:
            with pytest.raises(ConfigurationError):
                oracle.probe_assignment(np.zeros(shape, dtype=np.int64))


class TestAccounting:
    def test_distinct_probes_counted_once(self, oracle):
        oracle.probe(0, 1)
        oracle.probe(0, 1)
        oracle.probe_objects(0, np.asarray([1, 1, 2]))
        assert oracle.probes_used()[0] == 2  # objects 1 and 2

    def test_requests_count_repeats(self, oracle):
        oracle.probe(0, 1)
        oracle.probe(0, 1)
        oracle.probe_objects(0, np.asarray([1, 2]))
        assert oracle.requests_used()[0] == 4

    def test_block_charges_per_player(self, oracle):
        oracle.probe_block(np.asarray([0, 1]), np.asarray([0, 1, 2]))
        counts = oracle.probes_used()
        assert counts[0] == 3 and counts[1] == 3 and counts[2] == 0

    def test_block_memoises_across_calls(self, oracle):
        oracle.probe_block(np.asarray([0]), np.asarray([0, 1, 2]))
        oracle.probe_block(np.asarray([0]), np.asarray([2, 3]))
        assert oracle.probes_used()[0] == 4

    def test_assignment_memoises(self, oracle):
        probers = np.ones((12, 2), dtype=np.int64)
        probers[5] = 0  # player 0 probes object 5 twice
        oracle.probe_assignment(probers)
        assert oracle.probes_used()[0] == 1
        assert oracle.requests_used()[0] == 2
        assert oracle.probes_used()[1] == 11
        assert oracle.requests_used()[1] == 22

    def test_summaries(self, oracle):
        oracle.probe_block(np.asarray([0, 1]), np.asarray([0, 1]))
        assert oracle.max_probes() == 2
        assert oracle.total_probes() == 4
        assert oracle.mean_probes() == pytest.approx(0.5)
        assert oracle.max_requests() == 2

    def test_installed_probe_state_reproduces_the_accounting(self, oracle, truth):
        # Every probe path, then a fresh oracle takes the snapshot: distinct
        # counts are rebuilt as the popcount of each memo row.
        oracle.probe_objects(0, np.asarray([1, 1, 11]))
        oracle.probe_block(np.asarray([1, 3]), np.asarray([0, 4, 9]))
        oracle.probe_assignment(np.arange(36).reshape(12, 3) % 8)
        oracle.probe_assignment(np.full((12, 2), 2))
        oracle.probe_ragged(np.asarray([4, 6]), np.asarray([2, 2, 8, 0]), np.asarray([3, 1]))
        restored = ProbeOracle(truth)
        restored.install_probe_state(*oracle.probe_state())
        for probed in (oracle, restored):
            probed.probe_block(np.arange(8), np.asarray([3, 4]))
        np.testing.assert_array_equal(restored.probes_used(), oracle.probes_used())
        np.testing.assert_array_equal(restored.requests_used(), oracle.requests_used())
        for got, want in zip(restored.probe_state(), oracle.probe_state()):
            np.testing.assert_array_equal(got, want)

    def test_install_rejects_a_state_of_another_shape(self, oracle):
        probed, requests = ProbeOracle(np.zeros((8, 20), dtype=np.uint8)).probe_state()
        with pytest.raises(ConfigurationError):
            oracle.install_probe_state(probed, requests)
        with pytest.raises(ConfigurationError):
            oracle.install_probe_state(oracle.probe_state()[0], np.zeros(7))


class TestBudgetEnforcement:
    def test_budget_exceeded_raises(self, truth):
        oracle = ProbeOracle(truth, budget=2, enforce_budget=True)
        oracle.probe_objects(0, np.asarray([0, 1]))
        with pytest.raises(BudgetExceededError) as excinfo:
            oracle.probe(0, 2)
        assert excinfo.value.player == 0
        assert excinfo.value.budget == 2

    def test_budget_not_enforced_by_default(self, truth):
        oracle = ProbeOracle(truth, budget=1)
        oracle.probe_objects(0, np.asarray([0, 1, 2]))
        assert oracle.probes_used()[0] == 3


class TestRepeatedPlayersInABlock:
    """A block that lists a player twice charges like the probe_objects
    loop: its distinct pairs once, every requested cell as a request."""

    def test_repeated_player_is_charged_like_the_loop(self):
        oracle = ProbeOracle(np.eye(4))
        oracle.probe_block([3, 3], [1, 2])
        assert oracle.probes_used()[3] == 2
        assert oracle.requests_used()[3] == 4

    def test_budget_sees_distinct_pairs_and_charges_nothing_on_failure(self):
        oracle = ProbeOracle(np.eye(4), budget=2, enforce_budget=True)
        oracle.probe_block([3, 3], [1, 2])
        assert oracle.probes_used()[3] == 2
        with pytest.raises(BudgetExceededError) as excinfo:
            oracle.probe_block([2, 3, 3], [0])
        assert excinfo.value.player == 3
        # The whole batch was checked first: player 2's new pair is not charged.
        assert oracle.probes_used().tolist() == [0, 0, 0, 2]
        assert oracle.requests_used().tolist() == [0, 0, 0, 4]


@st.composite
def _block_calls(draw):
    """A truth matrix and two probe_block calls over it: players all, a
    sorted subset, unsorted or repeated; objects a contiguous run (bytes
    next to each other) or scattered across the row with repeats."""
    n_players = draw(st.integers(1, 9))
    n_objects = draw(st.integers(1, 70))
    truth = np.asarray(
        draw(st.lists(st.integers(0, 1), min_size=n_players * n_objects,
                      max_size=n_players * n_objects)),
        dtype=np.uint8,
    ).reshape(n_players, n_objects)
    calls = []
    for _ in range(2):
        kind = draw(st.sampled_from(["all", "subset", "unsorted", "repeated"]))
        if kind == "all":
            players = list(range(n_players))
        elif kind == "subset":
            players = sorted(draw(st.sets(st.integers(0, n_players - 1), min_size=1)))
        elif kind == "unsorted":
            players = draw(st.permutations(range(n_players)))
        else:
            players = draw(st.lists(st.integers(0, n_players - 1), min_size=2, max_size=10))
        if draw(st.booleans()):
            start = draw(st.integers(0, n_objects - 1))
            stop = draw(st.integers(start + 1, min(n_objects, start + 12)))
            objects = list(range(start, stop))
        else:
            objects = draw(st.lists(st.integers(0, n_objects - 1), min_size=1, max_size=24))
        calls.append((np.asarray(players), np.asarray(objects)))
    return truth, calls


@settings(max_examples=60, deadline=None)
@given(batch=_block_calls(), noise=st.sampled_from([0.0, 0.3]), packed=st.booleans())
def test_probe_block_matches_probe_objects_loop(batch, noise, packed):
    """probe_block reads the object-major matrix and marks the memo on a
    byte span; a probe_objects loop reads one player at a time.  They agree
    on values, distinct probes, requests and the memo itself."""
    truth, calls = batch
    block_oracle = ProbeOracle(truth, noise_rate=noise, noise_seed=5)
    loop_oracle = ProbeOracle(truth, noise_rate=noise, noise_seed=5)
    for players, objects in calls:
        got = block_oracle.probe_block(players, objects, packed=packed)
        if packed:
            got = got.unpack()
        want = np.stack([loop_oracle.probe_objects(player, objects) for player in players])
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(block_oracle.probes_used(), loop_oracle.probes_used())
        np.testing.assert_array_equal(
            block_oracle.requests_used(), loop_oracle.requests_used()
        )
        np.testing.assert_array_equal(
            block_oracle.probe_state()[0], loop_oracle.probe_state()[0]
        )
