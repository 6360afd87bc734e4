"""Analysis layer: bound formulas, experiment drivers, and reporting.

``bounds`` evaluates the paper's closed-form probe/error bounds so measured
numbers can be printed next to what the theory predicts.  ``lower_bound``
implements the Claim-2 experiment.  ``experiments`` contains one driver per
experiment E1–E12 (each run by its ``benchmarks/bench_eNN_*.py`` module);
each returns an :class:`~repro.analysis.reporting.ExperimentTable`, which
the benchmark harness records under ``benchmarks/results/`` (the committed
tables are ``benchmarks/results/eNN_*.md``).  ``reporting`` renders those
tables as plain text / Markdown.
"""

from repro.analysis.bounds import (
    calculate_preferences_probe_bound,
    rselect_probe_bound,
    small_radius_error_bound,
    small_radius_probe_bound,
    zero_radius_probe_bound,
)
from repro.analysis.experiments import (
    ablation_experiment,
    baseline_comparison_experiment,
    dishonest_sweep_experiment,
    heterogeneous_budget_experiment,
    honest_protocol_experiment,
    leader_election_experiment,
    rselect_experiment,
    sampling_concentration_experiment,
    scaling_experiment,
    small_radius_experiment,
    zero_radius_experiment,
)
from repro.analysis.lower_bound import lower_bound_experiment
from repro.analysis.runner import default_worker_count, run_trials, spawn_seeds
from repro.analysis.reporting import (
    ExperimentTable,
    render_markdown,
    render_many,
    render_text,
)

__all__ = [
    "ExperimentTable",
    "ablation_experiment",
    "baseline_comparison_experiment",
    "calculate_preferences_probe_bound",
    "default_worker_count",
    "dishonest_sweep_experiment",
    "heterogeneous_budget_experiment",
    "honest_protocol_experiment",
    "leader_election_experiment",
    "lower_bound_experiment",
    "render_markdown",
    "render_many",
    "render_text",
    "rselect_experiment",
    "rselect_probe_bound",
    "run_trials",
    "sampling_concentration_experiment",
    "scaling_experiment",
    "small_radius_error_bound",
    "small_radius_experiment",
    "small_radius_probe_bound",
    "spawn_seeds",
    "zero_radius_experiment",
    "zero_radius_probe_bound",
]
