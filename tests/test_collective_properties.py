"""Properties of the honest path's bulk kernels, on generated inputs.

Each bulk path must be *bit-for-bit* equal to the loop or dense reference it
replaces:

* ``rselect_collective`` against ``rselect_collective_serial`` (one
  ``rselect`` per player on its own substream): outputs, probe accounting,
  the oracle's memo masks and the shared randomness left behind — also with
  the key prefilter forced to send every drawing row to its fallback, or to
  keep every key;
* ``pairwise_hamming(packed, t)`` against the dense distance matrix
  compared with ``t``, at every occurring distance and between them,
  below zero, NaN, and at or above the row width;
* ``ProbeOracle.probe_pairs`` against a ``probe_objects`` loop, with
  already-probed and repeated pairs, on both of its scratch branches.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import make_context
from repro.perf import pack_bits, pairwise_hamming
from repro.preferences.generators import PlantedInstance
from repro.protocols.rselect import rselect_collective
from repro.simulation.oracle import ProbeOracle
from reference_loops import rselect_collective_serial

# The package re-exports the function under the module's name.
_RSELECT_MODULE = importlib.import_module("repro.protocols.rselect")


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


@settings(max_examples=30, deadline=None)
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
    # Duplicated candidate rows give (0, 0)-tie rounds: no draw, no probe.
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


# ---------------------------------------------------------------------------
# probe_pairs == a probe_objects loop
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_probe_pairs_matches_probe_objects_loop(data):
    n_players = data.draw(st.integers(1, 20), label="n_players")
    n_objects = data.draw(st.integers(1, 40), label="n_objects")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    noisy = data.draw(st.booleans(), label="noisy")
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, 2, size=(n_players, n_objects), dtype=np.uint8)
    kwargs = dict(noise_rate=0.2 if noisy else 0.0, noise_seed=seed)
    bulk, looped = ProbeOracle(truth, **kwargs), ProbeOracle(truth, **kwargs)

    # Earlier probes leave memo bits that later pairs must not charge again.
    for player in np.flatnonzero(rng.random(n_players) < 0.5):
        already = rng.integers(0, n_objects, size=int(rng.integers(1, n_objects + 1)))
        bulk.probe_objects(int(player), already)
        looped.probe_objects(int(player), already)

    # Batches below n_players take the involved-rows scratch; batches of at
    # least n_players build the full mask.  Pairs repeat within a batch and
    # across batches.
    for _ in range(data.draw(st.integers(1, 3), label="batches")):
        n_pairs = data.draw(st.integers(1, 3 * n_players), label="n_pairs")
        players = rng.integers(0, n_players, size=n_pairs)
        objects = rng.integers(0, n_objects, size=n_pairs)
        got = bulk.probe_pairs(players, objects)
        want = [looped.probe_objects(int(p), np.asarray([o]))[0] for p, o in zip(players, objects)]
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(bulk.probes_used(), looped.probes_used())
        np.testing.assert_array_equal(bulk.requests_used(), looped.requests_used())
        np.testing.assert_array_equal(bulk.probe_state()[0], looped.probe_state()[0])
