"""Shared fixtures for the test suite.

Instances are deliberately small (tens of players/objects) so the whole
suite runs in seconds; the benchmark harness covers paper-scale settings.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    ProtocolConstants,
    make_context,
    planted_clusters_instance,
    zero_radius_instance,
)


def pytest_configure(config: pytest.Config) -> None:
    # A durability warning that no test asserts fails the test: recovery
    # and disk-fault degradation must warn exactly where a test expects it.
    config.addinivalue_line(
        "filterwarnings", "error::repro.serve.durability.DurabilityWarning"
    )


@pytest.fixture
def constants() -> ProtocolConstants:
    """The practical constant profile used throughout the tests."""
    return ProtocolConstants.practical()


@pytest.fixture
def zero_radius_small():
    """A small identical-preference-cluster instance (Theorem 4 setting)."""
    return zero_radius_instance(n_players=48, n_objects=48, n_clusters=4, seed=7)


@pytest.fixture
def planted_small():
    """A small bounded-diameter-cluster instance (general setting)."""
    return planted_clusters_instance(
        n_players=48, n_objects=96, n_clusters=4, diameter=8, seed=11
    )


@pytest.fixture
def ctx_zero_radius(zero_radius_small, constants):
    """Execution context over the identical-cluster instance."""
    return make_context(zero_radius_small, budget=4, constants=constants, seed=3)


@pytest.fixture
def ctx_planted(planted_small, constants):
    """Execution context over the bounded-diameter instance."""
    return make_context(planted_small, budget=4, constants=constants, seed=5)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for ad-hoc randomness in tests."""
    return np.random.default_rng(2024)
