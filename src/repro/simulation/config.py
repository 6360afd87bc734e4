"""Protocol constants: the paper's literal values and a practical profile.

The paper states every bound with explicit-but-asymptotic constants
(``10 ln n / D`` sampling probability, ``220 ln n`` neighbour threshold,
``Θ(log n)`` vote redundancy, ...).  Those literal constants only leave room
for non-trivial behaviour when ``n`` is astronomically large — e.g. the
neighbour-graph threshold ``220 ln n`` exceeds the number of sampled objects
for every ``n`` a laptop can simulate.  We therefore expose every constant in
:class:`ProtocolConstants` and ship two profiles:

* :meth:`ProtocolConstants.paper` — the literal constants from the paper,
  used by the unit tests that check formulas and by the asymptotic-bound
  calculators in :mod:`repro.analysis.bounds`;
* :meth:`ProtocolConstants.practical` — proportionally scaled constants that
  keep every *inequality relationship* from the proofs (sampling bound <
  edge threshold < separation threshold, vote redundancy logarithmic, ...)
  while remaining meaningful at ``n ∈ [64, 4096]``.  Benchmarks use this
  profile and record that fact.

Instance sizes, adversaries and the choice of profile belong to a workload,
not to the constants: a :class:`~repro.scenarios.spec.ScenarioSpec` names
them (its ``protocol.constants_profile`` and ``constants_overrides`` select
and adjust the profile).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

from repro.errors import ConfigurationError

__all__ = ["ProtocolConstants"]


@dataclass(frozen=True)
class ProtocolConstants:
    """Every tunable constant appearing in the paper's protocols.

    Attributes mirror the constants in the order they appear in the paper:

    ``sample_prob_factor``
        ``c`` in the sample-set inclusion probability ``c · ln(n) / D``
        (paper §6.3 uses 10).
    ``sample_agreement_factor``
        ``c`` in the Lemma 6 bound "players at distance < D differ on at most
        ``c · ln n`` sampled objects" (paper: 20).
    ``small_radius_error_factor``
        ``c`` in the Theorem 5 guarantee restricted to the sample:
        ``|v(p) − z(p)| ≤ c · ln n`` (paper: 100, i.e. 5 × the 20 ln n
        diameter passed to SmallRadius).
    ``edge_threshold_factor``
        ``c`` in the neighbour-graph edge rule ``|z(p) − z(q)| ≤ c · ln n``
        (paper: 220 = 2·100 + 20).
    ``separation_factor``
        the distance multiple at which Lemma 7 guarantees *no* edge
        (paper: 84 · D).
    ``cluster_diameter_factor``
        the Lemma 9 bound on a cluster's diameter as a multiple of ``D``
        (paper: 336 = 4 · 84).
    ``vote_redundancy_factor``
        ``c`` in the Step-4 rule "assign ``c · log n`` players per object"
        (paper: Θ(log n)).
    ``rselect_sample_factor``
        ``c`` in RSelect's per-pair sample size ``c · log n`` (paper: Θ(log n)).
    ``rselect_majority``
        the elimination threshold in RSelect (paper: 2/3).
    ``zero_radius_base_factor``
        ``c`` in ZeroRadius' recursion base case
        ``min(|P|, |O|) < c · B' · log n`` (paper: O(B' log n)).
    ``zero_radius_popularity_divisor``
        a vector must be output by at least ``|P''| / (d · B')`` players to be
        considered; paper: d = 2.  A larger ``d`` admits rarer vectors: at
        ``d = 6`` (the practical profile) every distinct vector published at
        ZeroRadius' lowest cross-learning steps is a candidate, so a cluster
        with a single member in the publishing half is not lost.  The
        trade-off: a dishonest publisher can then add a candidate of its
        own, and each extra candidate can cost a learner one more probe.
    ``small_radius_partition_factor``
        ``c`` in the number of SmallRadius partitions ``s = c · D^{3/2}``.
    ``small_radius_budget_multiplier``
        the budget multiplier handed to ZeroRadius inside SmallRadius
        (paper: 5 · B).
    ``small_radius_popularity_divisor``
        a ZeroRadius output joins ``U_i`` when produced by at least
        ``n / (d · B)`` players; paper: d = 5.
    ``small_radius_repetition_factor``
        ``c`` in the Θ(log n) outer repetitions of SmallRadius.
    ``robust_iteration_factor``
        ``c`` in the Θ(log n) leader-election iterations of the robust wrapper.
    ``dishonest_budget_divisor``
        tolerated dishonest players = ``n / (d · B)``; paper: d = 3.
    ``high_probability_exponent``
        "with high probability" means ``1 − n^{−c}``; used only by the
        analytical bound helpers.
    """

    sample_prob_factor: float = 10.0
    sample_agreement_factor: float = 20.0
    small_radius_error_factor: float = 100.0
    edge_threshold_factor: float = 220.0
    separation_factor: float = 84.0
    cluster_diameter_factor: float = 336.0
    vote_redundancy_factor: float = 3.0
    rselect_sample_factor: float = 4.0
    rselect_majority: float = 2.0 / 3.0
    zero_radius_base_factor: float = 2.0
    zero_radius_popularity_divisor: float = 2.0
    small_radius_partition_factor: float = 1.0
    small_radius_budget_multiplier: float = 5.0
    small_radius_popularity_divisor: float = 5.0
    small_radius_repetition_factor: float = 1.0
    robust_iteration_factor: float = 2.0
    dishonest_budget_divisor: float = 3.0
    high_probability_exponent: float = 1.0

    def __post_init__(self) -> None:
        positive_fields = (
            "sample_prob_factor",
            "sample_agreement_factor",
            "small_radius_error_factor",
            "edge_threshold_factor",
            "separation_factor",
            "cluster_diameter_factor",
            "vote_redundancy_factor",
            "rselect_sample_factor",
            "zero_radius_base_factor",
            "zero_radius_popularity_divisor",
            "small_radius_partition_factor",
            "small_radius_budget_multiplier",
            "small_radius_popularity_divisor",
            "small_radius_repetition_factor",
            "robust_iteration_factor",
            "dishonest_budget_divisor",
            "high_probability_exponent",
        )
        for name in positive_fields:
            value = getattr(self, name)
            if not (value > 0):
                raise ConfigurationError(f"{name} must be positive, got {value!r}")
        if not (0.5 < self.rselect_majority < 1.0):
            raise ConfigurationError(
                "rselect_majority must lie in (0.5, 1.0), got "
                f"{self.rselect_majority!r}"
            )

    # ------------------------------------------------------------------
    # Profiles
    # ------------------------------------------------------------------
    @classmethod
    def paper(cls) -> "ProtocolConstants":
        """The literal constants from the paper's statements."""
        return cls()

    @classmethod
    def practical(cls) -> "ProtocolConstants":
        """Constants scaled for laptop-sized instances (n ≤ a few thousand).

        The scaling preserves the inequalities the proofs rely on:

        * the in-cluster sample-disagreement bound stays at
          ``2 × sample_prob_factor`` (Lemma 6 part 1 uses a factor-2 Chernoff
          slack);
        * the edge threshold stays at
          ``2 × small_radius_error_factor + sample_agreement_factor``
          (Lemma 7 part 1);
        * the separation factor stays large enough that
          ``5 × separation_factor × (ln n scale) − 2 × error ≥ threshold``
          (Lemma 7 part 2).

        ``zero_radius_popularity_divisor`` is 6, which makes ZeroRadius exact
        on Theorem 4's inputs at ``n = 512`` (``zero_radius_instance(512,
        512, n_clusters=B')`` with ``B'`` of 4, 8 or 16): at 3, some context
        seeds left a cluster with one member in a 64-player publishing half
        below the popularity threshold, and its learners settled on a wrong
        survivor.  :meth:`paper` keeps the paper's divisor of 2, and
        Theorem 4's constants do not make ZeroRadius exact at that size:
        with ``B' = 8`` and context seed 9 it leaves 124 players wrong.
        """
        return cls(
            sample_prob_factor=6.0,
            sample_agreement_factor=8.0,
            small_radius_error_factor=3.5,
            edge_threshold_factor=15.0,
            separation_factor=4.0,
            cluster_diameter_factor=16.0,
            vote_redundancy_factor=2.0,
            rselect_sample_factor=2.0,
            rselect_majority=2.0 / 3.0,
            zero_radius_base_factor=2.0,
            zero_radius_popularity_divisor=6.0,
            small_radius_partition_factor=0.5,
            small_radius_budget_multiplier=5.0,
            small_radius_popularity_divisor=5.0,
            small_radius_repetition_factor=0.25,
            robust_iteration_factor=1.0,
            dishonest_budget_divisor=3.0,
            high_probability_exponent=1.0,
        )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def log_n(self, n: int) -> float:
        """Natural logarithm of ``n`` clamped below by 1 (avoids degenerate
        thresholds for tiny test instances)."""
        return max(1.0, math.log(max(2, int(n))))

    def sample_probability(self, n: int, diameter: float) -> float:
        """Inclusion probability of each object in the sample set S (§6.3)."""
        if diameter <= 0:
            raise ConfigurationError(f"diameter must be positive, got {diameter}")
        return min(1.0, self.sample_prob_factor * self.log_n(n) / diameter)

    def sample_agreement_bound(self, n: int) -> float:
        """Lemma 6 part 1: in-cluster disagreement bound on the sample."""
        return self.sample_agreement_factor * self.log_n(n)

    def edge_threshold(self, n: int) -> float:
        """Lemma 7 / Step 3: neighbour-graph edge threshold on the sample."""
        return self.edge_threshold_factor * self.log_n(n)

    def vote_redundancy(self, n: int) -> int:
        """Step 4: number of players assigned to probe each object."""
        return max(3, int(math.ceil(self.vote_redundancy_factor * self.log_n(n))))

    def rselect_sample_size(self, n: int) -> int:
        """RSelect per-pair probe sample size (Theorem 3)."""
        return max(4, int(math.ceil(self.rselect_sample_factor * self.log_n(n))))

    def zero_radius_base_size(self, n: int, budget: float) -> int:
        """ZeroRadius recursion base-case size ``O(B' log n)``."""
        return max(2, int(math.ceil(self.zero_radius_base_factor * budget * self.log_n(n))))

    def small_radius_partitions(self, diameter: float, n_objects: int) -> int:
        """Number of object partitions ``s = Θ(D^{3/2})`` used by SmallRadius."""
        raw = self.small_radius_partition_factor * max(1.0, diameter) ** 1.5
        return int(min(max(1, math.ceil(raw)), max(1, n_objects)))

    def small_radius_repetitions(self, n: int) -> int:
        """Outer repetitions of SmallRadius (Θ(log n))."""
        return max(1, int(math.ceil(self.small_radius_repetition_factor * math.log2(max(2, n)))))

    def robust_iterations(self, n: int) -> int:
        """Leader-election iterations of the robust wrapper (Θ(log n))."""
        return max(2, int(math.ceil(self.robust_iteration_factor * math.log2(max(2, n)))))

    def max_dishonest(self, n: int, budget: float) -> int:
        """Maximum tolerated number of dishonest players, ``n / (3B)``."""
        if budget <= 0:
            raise ConfigurationError(f"budget must be positive, got {budget}")
        return int(n / (self.dishonest_budget_divisor * budget))

    def with_overrides(self, **overrides: Any) -> "ProtocolConstants":
        """Return a copy with selected fields replaced (ablation helper)."""
        return replace(self, **overrides)
