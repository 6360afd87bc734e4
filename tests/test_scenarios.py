"""Tests for the declarative scenario engine (specs, registry, engine, sweep).

Covers the acceptance criteria of the scenario subsystem: registry
completeness (≥ 10 families, ≥ 4 novel), spec→trial determinism across
worker counts, the churn/noise dynamics hooks, and a pickle round-trip for
every registered spec.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.players.adversaries import AdaptiveStrategy, StrangeObjectStrategy, build_coalition
from repro.preferences.metrics import prediction_errors
from repro.scenarios import (
    CoalitionSpec,
    DynamicsSpec,
    PopulationSpec,
    ProtocolSpec,
    ScenarioSpec,
    apply_override,
    all_scenarios,
    execute,
    get_scenario,
    run_scenario,
    scenario_names,
    sweep_scenario,
)
from repro.scenarios.engine import RESULT_COLUMNS
from repro.scenarios.sweep import expand_grid
from repro.simulation.oracle import ProbeOracle
from repro.simulation.rounds import ChurnTimeline
from reference_loops import board_reports


def _small(spec: ScenarioSpec) -> ScenarioSpec:
    """Shrink a registered spec to test size (keep structure, cut runtime)."""
    spec = apply_override(spec, "population.n_players", 48)
    spec = apply_override(spec, "population.n_objects", 64)
    params = dict(spec.population.params)
    if "diameter" in params:
        params["diameter"] = 4
    if "cluster_sizes" in params:
        params["cluster_sizes"] = [24, 12, 6, 6]
        params["cluster_diameters"] = [4, 8, 16, 2]
    spec = apply_override(spec, "population.params", params)
    if spec.dynamics.initially_active is not None:
        spec = apply_override(spec, "dynamics.initially_active", 40)
        spec = apply_override(spec, "dynamics.arrivals", 4)
        spec = apply_override(spec, "dynamics.departures", 4)
    if spec.protocol.diameter is not None:
        spec = apply_override(spec, "protocol.diameter", 4.0)
    return spec


class TestSpecs:
    def test_validation_rejects_unknowns(self):
        with pytest.raises(ConfigurationError):
            PopulationSpec(generator="bogus")
        with pytest.raises(ConfigurationError):
            ProtocolSpec(name="bogus")
        with pytest.raises(ConfigurationError):
            CoalitionSpec(strategy="bogus", size=2)

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: PopulationSpec(n_players=0), id="no-players"),
            pytest.param(lambda: PopulationSpec(n_objects=0), id="no-objects"),
            pytest.param(lambda: ProtocolSpec(budget=0), id="zero-budget"),
            pytest.param(lambda: ProtocolSpec(constants_profile="bogus"), id="profile"),
            pytest.param(lambda: ProtocolSpec(robust_iterations=0), id="robust-iterations"),
            pytest.param(lambda: CoalitionSpec(size=-1), id="negative-size"),
            pytest.param(
                lambda: CoalitionSpec(fraction_of_tolerance=-0.5), id="negative-fraction"
            ),
            pytest.param(lambda: CoalitionSpec(size=2, target_fraction=0.0), id="no-targets"),
            pytest.param(
                lambda: CoalitionSpec(size=2, target_fraction=1.5), id="targets-over-one"
            ),
            pytest.param(lambda: DynamicsSpec(repetitions=0), id="no-repetitions"),
            pytest.param(lambda: DynamicsSpec(departures=-1), id="negative-departures"),
            pytest.param(lambda: ScenarioSpec(name="", description="x"), id="unnamed"),
            pytest.param(
                lambda: ScenarioSpec(
                    name="bad",
                    description="oracle clustering with liars",
                    protocol=ProtocolSpec(name="oracle-clustering"),
                    coalitions=(CoalitionSpec(size=2),),
                ),
                id="oracle-clustering-with-coalition",
            ),
        ],
    )
    def test_invalid_values_rejected(self, build):
        with pytest.raises(ConfigurationError):
            build()

    def test_coalition_needs_exactly_one_sizing(self):
        with pytest.raises(ConfigurationError):
            CoalitionSpec(strategy="random")
        with pytest.raises(ConfigurationError):
            CoalitionSpec(strategy="random", size=2, fraction_of_tolerance=1.0)
        assert CoalitionSpec(strategy="random", size=2).resolve_size(100, 8) == 2
        assert (
            CoalitionSpec(strategy="random", fraction_of_tolerance=0.5).resolve_size(
                100, 8
            )
            == 4
        )
        assert (
            CoalitionSpec(strategy="random", fraction_of_players=0.25).resolve_size(
                100, 8
            )
            == 25
        )

    def test_majority_coalition_rejected_at_spec_level(self):
        with pytest.raises(ConfigurationError):
            CoalitionSpec(strategy="invert", fraction_of_players=0.5)

    def test_churn_requires_subset_protocol(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                name="bad",
                description="churn under a full-population protocol",
                protocol=ProtocolSpec(name="calculate-preferences"),
                dynamics=DynamicsSpec(repetitions=2, departures=2, arrivals=2),
            )

    def test_apply_override_nested_and_tuple_paths(self):
        spec = get_scenario("mixed-coalitions")
        changed = apply_override(spec, "population.n_players", 99)
        assert changed.population.n_players == 99
        changed = apply_override(spec, "coalitions.1.strategy", "random")
        assert changed.coalitions[1].strategy == "random"
        assert spec.coalitions[1].strategy == "hijack"  # original untouched
        with pytest.raises(ConfigurationError):
            apply_override(spec, "population.bogus", 1)
        with pytest.raises(ConfigurationError):
            apply_override(spec, "coalitions.9.size", 1)


class TestRegistry:
    def test_catalog_is_complete(self):
        names = scenario_names()
        assert len(names) >= 10
        novel = [spec for spec in all_scenarios() if spec.novel]
        assert len(novel) >= 4
        # The novel families the issue calls out by name must be present.
        for required in (
            "mixed-coalitions",
            "adaptive-switch",
            "churn-small-radius",
            "noisy-oracle",
            "adversarial-majority",
        ):
            assert required in names
        assert get_scenario("mixed-coalitions").novel

    def test_unknown_scenario_is_a_clear_error(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            get_scenario("does-not-exist")

    def test_every_spec_pickle_round_trips(self):
        for spec in all_scenarios():
            clone = pickle.loads(pickle.dumps(spec))
            assert clone == spec
            # The round-tripped spec must also drive the engine: re-validate
            # by applying a no-op override (rebuilds every dataclass).
            rebuilt = apply_override(clone, "population.n_players", clone.population.n_players)
            assert rebuilt == spec

    def test_mixed_coalitions_are_disjoint_and_multi_strategy(self):
        spec = _small(get_scenario("mixed-coalitions"))
        run = execute(spec, seed=11)
        assert run.row["n_coalitions"] == 3
        assert run.row["n_dishonest"] >= 3
        # merged plan members are unique (disjoint coalitions)
        assert np.unique(run.plan.members).size == run.plan.members.size
        assert "+" in run.plan.strategy_name


class TestEngine:
    def test_rows_have_declared_columns(self):
        row = run_scenario(_small(get_scenario("honest-planted")), seed=0)
        assert set(row) == set(RESULT_COLUMNS)

    def test_same_seed_same_row(self):
        spec = _small(get_scenario("noisy-oracle"))
        assert run_scenario(spec, seed=5) == run_scenario(spec, seed=5)

    def test_different_seed_different_instance(self):
        spec = _small(get_scenario("honest-planted"))
        a = execute(spec, seed=0)
        b = execute(spec, seed=1)
        assert not np.array_equal(a.instance.preferences, b.instance.preferences)

    def test_protocol_change_keeps_instance_and_coalition(self):
        # The engine derives instance/coalition streams independently of the
        # protocol field — the property E6 relies on to compare robust vs alon
        # under an identical attack.
        spec = _small(get_scenario("strange-coalition"))
        robust = execute(spec, seed=3)
        baseline = execute(
            apply_override(spec, "protocol.name", "alon"), seed=3
        )
        assert np.array_equal(
            robust.instance.preferences, baseline.instance.preferences
        )
        assert np.array_equal(robust.plan.members, baseline.plan.members)

    def test_every_family_scores_against_the_oracles_truth(self):
        # execute() scores predictions against instance.preferences, the
        # matrix the oracle copied; it must still be the oracle's truth after
        # the run, and the row's errors those against the oracle's view.
        for spec in all_scenarios():
            run = execute(_small(spec), seed=2)
            truth = run.context.oracle.ground_truth()
            np.testing.assert_array_equal(run.instance.preferences, truth, err_msg=spec.name)
            errors = prediction_errors(run.predictions, truth[run.active_players])
            assert run.row["max_error"] == int(errors.max(initial=0)), spec.name

    def test_adversarial_majority_runs_beyond_tolerance(self):
        spec = _small(get_scenario("adversarial-majority"))
        row = run_scenario(spec, seed=2)
        tolerance = 48 // (3 * spec.protocol.budget)
        assert row["n_dishonest"] > tolerance
        assert 2 * row["n_dishonest"] < 48  # still a strict minority

    def test_adaptive_switch_scenario_runs(self):
        spec = _small(get_scenario("adaptive-switch"))
        row = run_scenario(spec, seed=4)
        assert row["n_dishonest"] >= 1
        assert row["honest_leader_iterations"] is not None


class TestDynamicsHooks:
    def test_noise_flips_observed_but_not_ground_truth(self):
        truth = np.zeros((8, 200), dtype=np.uint8)
        oracle = ProbeOracle(truth, noise_rate=0.2, noise_seed=7)
        observed = oracle.probe_block(
            np.arange(8), np.arange(200, dtype=np.int64)
        )
        assert observed.sum() > 0  # some answers flipped
        assert oracle.ground_truth().sum() == 0  # scoring matrix untouched
        # Re-probing returns the identical (noisy) answers: the channel is a
        # fixed corruption, not fresh randomness per request.
        again = oracle.probe_block(np.arange(8), np.arange(200, dtype=np.int64))
        assert np.array_equal(observed, again)

    def test_noise_is_deterministic_in_seed(self):
        truth = np.zeros((4, 100), dtype=np.uint8)
        a = ProbeOracle(truth, noise_rate=0.1, noise_seed=3)
        b = ProbeOracle(truth, noise_rate=0.1, noise_seed=3)
        objs = np.arange(100, dtype=np.int64)
        assert np.array_equal(a.probe_objects(0, objs), b.probe_objects(0, objs))

    def test_noise_rate_validation(self):
        truth = np.zeros((2, 4), dtype=np.uint8)
        with pytest.raises(ConfigurationError):
            ProbeOracle(truth, noise_rate=0.5)
        with pytest.raises(ConfigurationError):
            ProbeOracle(truth, noise_rate=-0.1)

    def test_churn_timeline_is_deterministic_and_bounded(self):
        a = ChurnTimeline(32, departures=4, arrivals=4, seed=9, initially_active=24)
        b = ChurnTimeline(32, departures=4, arrivals=4, seed=9, initially_active=24)
        assert np.array_equal(a.active_players(), b.active_players())
        for _ in range(5):
            assert np.array_equal(a.step(), b.step())
            assert a.n_active == 24
        # departures capped so the population never collapses
        tiny = ChurnTimeline(4, departures=10, arrivals=0, seed=0)
        tiny.step()
        assert tiny.n_active >= 2

    def test_churn_timeline_validation(self):
        with pytest.raises(ConfigurationError):
            ChurnTimeline(8, departures=-1)
        with pytest.raises(ConfigurationError):
            ChurnTimeline(8, initially_active=0)
        with pytest.raises(ConfigurationError):
            ChurnTimeline(8, initially_active=9)

    def test_churn_scenario_rotates_population(self):
        spec = _small(get_scenario("churn-small-radius"))
        first = execute(spec, seed=1)
        assert first.row["repetitions"] == 3
        assert first.active_players.size == spec.dynamics.initially_active
        # final active set differs from the initial one with overwhelming
        # probability (8 swaps over 2 steps of a 48-player universe)
        no_churn = apply_override(
            apply_override(spec, "dynamics.departures", 0), "dynamics.arrivals", 0
        )
        second = execute(no_churn, seed=1)
        assert not np.array_equal(first.active_players, second.active_players)


class TestAdaptiveStrategy:
    def test_blends_then_attacks(self):
        # Honest on every channel but the work-sharing posts, where the
        # (default, inverting) attack answers.
        truth = np.random.default_rng(0).integers(0, 2, size=(6, 32), dtype=np.uint8)
        from repro.players.base import PlayerPool

        pool = PlayerPool(truth)
        strategy = AdaptiveStrategy(seed=1)
        objects = np.arange(32, dtype=np.int64)
        for channel in ("robust/i0/d0/sr/zr/base", "robust/i0/d0/sr/pub", "robust/i1/d0/z"):
            blending = strategy.report(channel, 0, objects, truth[0], pool)
            assert np.array_equal(blending, truth[0]), channel
        for channel in ("robust/i0/d0/work/c2", "work-sharing/c0", "baseline/oracle-work/c1"):
            attacking = strategy.report(channel, 0, objects, truth[0], pool)
            assert np.array_equal(attacking, 1 - truth[0]), channel

    def test_adaptive_switch_blends_through_clustering(self):
        # The sleeper coalition posts its true values on every SmallRadius
        # base report, the clustering phase's input, and the strange-object
        # attack on every work-sharing post.
        run = execute(_small(get_scenario("adaptive-switch")), seed=0)
        ctx, plan = run.context, run.plan
        members = plan.members
        attack = StrangeObjectStrategy(plan.victim_cluster)
        channels = ctx.board.export_channels("")["reports"]
        base = [channel for channel in channels if channel.endswith("/sr/zr/base")]
        work = [channel for channel in channels if "/work/" in channel]
        assert base and work
        for channel in base:
            values, posted = board_reports(ctx.board, channel)
            cells = posted[members]
            assert cells.any()
            np.testing.assert_array_equal(
                values[members][cells], ctx.pool.truth[members][cells], err_msg=channel
            )
        attacked = 0
        for channel in work:
            values, posted = board_reports(ctx.board, channel)
            for member in members:
                objects = np.flatnonzero(posted[member])
                expected = attack.report(
                    channel, int(member), objects, ctx.pool.truth[member, objects], ctx.pool
                )
                np.testing.assert_array_equal(values[member, objects], expected, err_msg=channel)
                attacked += objects.size
        assert attacked


class TestCoalitionValidation:
    def test_majority_coalition_raises(self):
        truth = np.zeros((10, 16), dtype=np.uint8)
        truth[:, 0] = 1
        with pytest.raises(ConfigurationError, match="strict minority"):
            build_coalition(truth, 5, strategy="random", seed=0)
        strategies, plan = build_coalition(truth, 4, strategy="random", seed=0)
        assert len(strategies) == 4

    def test_exclude_keeps_coalitions_disjoint(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 2, size=(40, 32), dtype=np.uint8)
        _, first = build_coalition(truth, 6, strategy="random", seed=1)
        _, second = build_coalition(
            truth, 6, strategy="invert", seed=2, exclude=first.members
        )
        assert np.intersect1d(first.members, second.members).size == 0

    def test_generator_seeds_accepted_uniformly(self):
        truth = np.random.default_rng(3).integers(0, 2, size=(24, 32), dtype=np.uint8)
        for strategy in ("random", "invert", "promote", "smear", "hijack", "strange", "adaptive"):
            gen = np.random.default_rng(42)
            strategies, plan = build_coalition(truth, 3, strategy=strategy, seed=gen)
            assert len(strategies) == 3


class TestSweep:
    def test_expand_grid_order_and_product(self):
        base = get_scenario("honest-planted")
        points = expand_grid(
            base,
            {"population.n_players": [48, 64], "protocol.budget": [2, 4]},
        )
        assert len(points) == 4
        labels = [p[0] for p in points]
        assert labels[0] == {"population.n_players": 48, "protocol.budget": 2}
        assert labels[1] == {"population.n_players": 48, "protocol.budget": 4}
        assert points[0][1].population.n_players == 48
        assert points[3][1].protocol.budget == 4

    def test_sweep_is_deterministic_across_worker_counts(self):
        base = _small(get_scenario("small-radius-planted"))
        grid = {"dynamics.noise_rate": [0.0, 0.1]}
        serial = sweep_scenario(base, grid, trials=2, seed=9, n_workers=1)
        parallel = sweep_scenario(base, grid, trials=2, seed=9, n_workers=3)
        assert serial.rows == parallel.rows
        assert len(serial.rows) == 4

    def test_sweep_grid_validation(self):
        base = _small(get_scenario("honest-planted"))
        with pytest.raises(ConfigurationError):
            sweep_scenario(base, {"population.n_players": []})
        with pytest.raises(ConfigurationError):
            sweep_scenario(base, {}, trials=0)


class TestCliDeterminism:
    def test_run_command_rows_identical_across_workers(self, capsys):
        from repro.scenarios.cli import main

        argv = ["run", "zero-radius-exact", "--seed", "3", "--trials", "2"]
        assert main(argv + ["--workers", "1"]) == 0
        out_serial = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        out_parallel = capsys.readouterr().out
        assert out_serial == out_parallel

    def test_list_and_describe(self, capsys):
        from repro.scenarios.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mixed-coalitions" in out
        assert main(["describe", "noisy-oracle"]) == 0
        out = capsys.readouterr().out
        assert "noise_rate = 0.02" in out

    def test_describe_surfaces_faults_and_probe_limits(self, capsys):
        from repro.scenarios.cli import main

        assert main(["describe", "zero-radius-exact"]) == 0
        out = capsys.readouterr().out
        # The fault envelope is part of the spec; describe must print it.
        assert "faults:" in out
        assert "worker_crashes = 0" in out
        assert "degrade = False" in out
        # Hard probe caps surface alongside the rest of the protocol block.
        assert "probe_limit = None" in out
        assert "probe_limit_factors = ()" in out

    def test_sweep_command_writes_results_json(self, tmp_path, capsys):
        import json

        from repro.scenarios.cli import main

        code = main([
            "sweep", "zero-radius-exact",
            "--set", "population.n_players=32,48",
            "--seed", "1", "--workers", "1",
            "--json", str(tmp_path), "--slug", "mini",
        ])
        assert code == 0
        payload = json.loads((tmp_path / "mini.json").read_text())
        # Same results-JSON shape the benchmark harness writes (PR 7 added
        # the structured metrics block to the single shared writer).
        assert set(payload) == {
            "slug", "experiment_id", "title", "wall_time_s", "n_rows",
            "columns", "rows", "notes", "recorded_unix_time", "metrics",
        }
        assert payload["n_rows"] == 2

    def test_unknown_scenario_exits_nonzero(self, capsys):
        from repro.scenarios.cli import main

        assert main(["run", "nope"]) == 2

    def test_sweep_grid_file_and_set_merge(self, tmp_path, capsys):
        import json

        from repro.scenarios.cli import main

        grid_path = tmp_path / "grid.json"
        # --set overrides the file's entry for the same dotted path.
        grid_path.write_text(json.dumps({"population.n_players": [64, 96]}))
        code = main([
            "sweep", "zero-radius-exact",
            "--grid", str(grid_path),
            "--set", "population.n_players=32",
            "--seed", "1", "--workers", "1",
            "--json", str(tmp_path), "--slug", "merged",
        ])
        assert code == 0
        payload = json.loads((tmp_path / "merged.json").read_text())
        assert payload["n_rows"] == 1  # the --set value won
        assert any(
            note.startswith("grid: ") and '"population.n_players": [32]' in note
            for note in payload["notes"]
        )

    def test_sweep_without_any_grid_exits(self, tmp_path):
        from repro.scenarios.cli import main

        with pytest.raises(SystemExit):
            main(["sweep", "zero-radius-exact"])
        with pytest.raises(SystemExit):
            main(["sweep", "zero-radius-exact", "--grid", str(tmp_path / "missing.json")])

    def test_compare_scenarios_shares_trial_seeds(self, capsys):
        from repro.scenarios.cli import main

        code = main([
            "compare", "zero-radius-exact", "noisy-oracle",
            "--trials", "2", "--seed", "3", "--workers", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[COMPARE] zero-radius-exact vs noisy-oracle" in out
        # Identical per-trial seeds -> the trial_seed rows diff to zero.
        seed_lines = [l for l in out.splitlines() if "trial_seed" in l]
        assert len(seed_lines) == 2
        assert all(line.rstrip().endswith("0") for line in seed_lines)

    def test_compare_results_json_files(self, tmp_path, capsys):
        import json

        from repro.scenarios.cli import main

        assert main([
            "run", "zero-radius-exact", "--seed", "1", "--workers", "1",
            "--json", str(tmp_path), "--slug", "lhs",
        ]) == 0
        capsys.readouterr()
        code = main([
            "compare", str(tmp_path / "lhs.json"), str(tmp_path / "lhs.json"),
            "--json", str(tmp_path), "--slug", "diff", "--workers", "1",
        ])
        assert code == 0
        payload = json.loads((tmp_path / "diff.json").read_text())
        assert payload["columns"] == ["row", "column", "a", "b", "delta"]
        deltas = {row["delta"] for row in payload["rows"]}
        assert deltas <= {0, 0.0, ""}  # a file diffed against itself
