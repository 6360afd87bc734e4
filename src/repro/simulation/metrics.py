"""Outcome metrics: probe reports and prediction-error reports.

Every experiment reduces to two questions the paper's theorems quantify:

* **How many probes did each player spend?** (Lemmas 10–11, the
  ``O(B polylog n)`` budget claims.)
* **How far is each player's prediction from its true preference vector?**
  (Definition 1, Lemma 12, Theorem 14 — error measured in Hamming distance
  and compared against the per-player optimal diameter ``D_opt(p)``.)

The dataclasses here package those answers in a form shared by tests,
benchmarks and the experiment tables under ``benchmarks/results/``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._typing import CountVector, PreferenceMatrix
from repro.errors import ConfigurationError
from repro.preferences.metrics import prediction_errors
from repro.simulation.oracle import ProbeOracle

__all__ = ["ProbeReport", "ErrorReport", "protocol_report", "ProtocolReport"]


@dataclass(frozen=True)
class ProbeReport:
    """Summary of probe usage for one protocol execution.

    ``per_player`` counts *distinct* probes (what a player can ever learn,
    capped at ``n_objects``); ``requests_per_player`` counts raw probe
    requests including repeats, which tracks the algorithmic probe complexity
    of the paper's lemmas even when a small instance saturates the distinct
    count.
    """

    per_player: CountVector
    budget: int
    requests_per_player: CountVector | None = None

    @classmethod
    def from_oracle(cls, oracle: ProbeOracle, budget: int) -> "ProbeReport":
        """Build a report from an oracle's counters."""
        return cls(
            per_player=oracle.probes_used(),
            budget=int(budget),
            requests_per_player=oracle.requests_used(),
        )

    @property
    def max_probes(self) -> int:
        """Maximum distinct probes used by any player."""
        return int(self.per_player.max(initial=0))

    @property
    def mean_probes(self) -> float:
        """Mean distinct probes per player."""
        return float(self.per_player.mean()) if self.per_player.size else 0.0

    @property
    def total_probes(self) -> int:
        """Total distinct probes across all players."""
        return int(self.per_player.sum())

    @property
    def max_requests(self) -> int:
        """Maximum probe requests issued by any player (repeats included)."""
        if self.requests_per_player is None:
            return self.max_probes
        return int(self.requests_per_player.max(initial=0))

    @property
    def mean_requests(self) -> float:
        """Mean probe requests per player (repeats included)."""
        if self.requests_per_player is None:
            return self.mean_probes
        if self.requests_per_player.size == 0:
            return 0.0
        return float(self.requests_per_player.mean())

    def augmentation_factor(self) -> float:
        """Measured probes relative to the raw budget ``B``.

        The paper's claim is that this stays ``O(polylog n)``; benchmarks plot
        it against ``log^c n`` curves.
        """
        if self.budget <= 0:
            raise ConfigurationError("budget must be positive to compute augmentation")
        return self.max_probes / self.budget


@dataclass(frozen=True)
class ErrorReport:
    """Summary of prediction error for one protocol execution."""

    per_player: CountVector
    optimal_per_player: np.ndarray
    honest_mask: np.ndarray

    @property
    def max_error(self) -> int:
        """Worst-case Hamming error over honest players (the paper's "rate of
        error"); dishonest players' own predictions are irrelevant."""
        honest_errors = self.per_player[self.honest_mask]
        return int(honest_errors.max(initial=0))

    @property
    def mean_error(self) -> float:
        """Mean Hamming error over honest players."""
        honest_errors = self.per_player[self.honest_mask]
        return float(honest_errors.mean()) if honest_errors.size else 0.0

    @property
    def median_error(self) -> float:
        """Median Hamming error over honest players."""
        honest_errors = self.per_player[self.honest_mask]
        return float(np.median(honest_errors)) if honest_errors.size else 0.0

    def approximation_ratios(self) -> np.ndarray:
        """Per-honest-player ratio ``error(p) / max(1, D_opt(p))``.

        Definition 1 asks for this to be bounded by a constant ``c``.
        """
        denom = np.maximum(1.0, self.optimal_per_player[self.honest_mask].astype(float))
        return self.per_player[self.honest_mask] / denom

    @property
    def max_approximation_ratio(self) -> float:
        """Worst approximation ratio over honest players."""
        ratios = self.approximation_ratios()
        return float(ratios.max(initial=0.0))

    @property
    def mean_approximation_ratio(self) -> float:
        """Average approximation ratio over honest players."""
        ratios = self.approximation_ratios()
        return float(ratios.mean()) if ratios.size else 0.0


@dataclass(frozen=True)
class ProtocolReport:
    """Probe + error report for one protocol execution, plus metadata."""

    label: str
    probes: ProbeReport
    errors: ErrorReport

    def summary(self) -> dict[str, float]:
        """A flat dict of headline numbers, convenient for table rows."""
        return {
            "max_probes": float(self.probes.max_probes),
            "mean_probes": float(self.probes.mean_probes),
            "max_requests": float(self.probes.max_requests),
            "augmentation": float(self.probes.augmentation_factor()),
            "max_error": float(self.errors.max_error),
            "mean_error": float(self.errors.mean_error),
            "max_ratio": float(self.errors.max_approximation_ratio),
            "mean_ratio": float(self.errors.mean_approximation_ratio),
        }


def protocol_report(
    label: str,
    predictions: PreferenceMatrix,
    oracle: ProbeOracle,
    budget: int,
    optimal_per_player: np.ndarray,
    honest_mask: np.ndarray | None = None,
) -> ProtocolReport:
    """Assemble a :class:`ProtocolReport` from a protocol's raw outputs.

    Parameters
    ----------
    label:
        Human-readable tag (algorithm name, experiment id).
    predictions:
        The protocol output ``W``.
    oracle:
        The probe oracle the protocol ran against (provides both counts and
        the ground truth used for scoring).  The ground truth is the
        oracle's transposed, Fortran-ordered view, several times slower to
        score against than a C-ordered matrix.  This function receives no
        other copy of the truth, so it scores against that view; callers
        that hold the instance score against ``instance.preferences``.
    budget:
        The nominal budget ``B``.
    optimal_per_player:
        ``D_opt(p)`` for each player (Definition 1 benchmark), usually from
        :func:`repro.preferences.metrics.optimal_diameters`.
    honest_mask:
        Boolean mask of honest players; defaults to all-honest.
    """
    truth = oracle.ground_truth()
    if honest_mask is None:
        honest_mask = np.ones(truth.shape[0], dtype=bool)
    honest_mask = np.asarray(honest_mask, dtype=bool)
    if honest_mask.shape[0] != truth.shape[0]:
        raise ConfigurationError("honest_mask length must equal the number of players")
    errors = ErrorReport(
        per_player=prediction_errors(predictions, truth),
        optimal_per_player=np.asarray(optimal_per_player),
        honest_mask=honest_mask,
    )
    probes = ProbeReport.from_oracle(oracle, budget)
    return ProtocolReport(label=label, probes=probes, errors=errors)
