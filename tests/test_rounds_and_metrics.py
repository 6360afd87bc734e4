"""Tests for the probe/error report dataclasses."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.simulation.metrics import (
    ErrorReport,
    ProbeReport,
    hamming_errors,
    protocol_report,
)
from repro.simulation.oracle import ProbeOracle


@pytest.fixture
def oracle(rng):
    return ProbeOracle(rng.integers(0, 2, size=(5, 16), dtype=np.uint8))


class TestProbeReport:
    def test_from_oracle(self, oracle):
        oracle.probe_block(np.asarray([0]), np.asarray([0, 1, 2, 3]))
        report = ProbeReport.from_oracle(oracle, budget=2)
        assert report.max_probes == 4
        assert report.total_probes == 4
        assert report.max_requests == 4
        assert report.augmentation_factor() == pytest.approx(2.0)

    def test_requests_fall_back_to_probes(self):
        report = ProbeReport(per_player=np.asarray([3, 1]), budget=1)
        assert report.max_requests == 3
        assert report.mean_requests == pytest.approx(2.0)

    def test_augmentation_requires_positive_budget(self):
        report = ProbeReport(per_player=np.asarray([1]), budget=0)
        with pytest.raises(ConfigurationError):
            report.augmentation_factor()


class TestErrorReport:
    def test_honest_only_statistics(self):
        report = ErrorReport(
            per_player=np.asarray([1, 100, 3]),
            optimal_per_player=np.asarray([2, 2, 2]),
            honest_mask=np.asarray([True, False, True]),
        )
        assert report.max_error == 3
        assert report.mean_error == pytest.approx(2.0)
        assert report.median_error == pytest.approx(2.0)
        assert report.max_approximation_ratio == pytest.approx(1.5)

    def test_ratio_guards_zero_optimal(self):
        report = ErrorReport(
            per_player=np.asarray([4]),
            optimal_per_player=np.asarray([0]),
            honest_mask=np.asarray([True]),
        )
        assert report.max_approximation_ratio == pytest.approx(4.0)


class TestProtocolReport:
    def test_hamming_errors_alignment(self):
        with pytest.raises(ConfigurationError):
            hamming_errors(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_protocol_report_summary(self, oracle):
        truth = oracle.ground_truth()
        predictions = truth.copy()
        predictions[0, :2] ^= 1
        report = protocol_report(
            "test",
            predictions,
            oracle,
            budget=4,
            optimal_per_player=np.full(truth.shape[0], 2),
        )
        summary = report.summary()
        assert summary["max_error"] == 2.0
        assert summary["max_ratio"] == pytest.approx(1.0)
        assert "max_requests" in summary

    def test_protocol_report_honest_mask_validation(self, oracle):
        truth = oracle.ground_truth()
        with pytest.raises(ConfigurationError):
            protocol_report(
                "bad",
                truth,
                oracle,
                budget=1,
                optimal_per_player=np.zeros(truth.shape[0]),
                honest_mask=np.asarray([True]),
            )
