"""Tests for the unified experiment API: registry, ParamSpecs, result contract.

Every registered experiment is run once at a small scale (module-scoped
fixture) and its result is checked against the uniform
:class:`~repro.experiments.api.ExperimentResult` contract: ``rows()`` match
``columns()``, ``to_json()`` round-trips through :func:`json.loads` and
validates against the checked-in schema, ``to_csv()`` carries the matching
header row, and ``write()`` refuses to overwrite without ``force``.
"""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.experiments.api import (
    RESULT_FORMATS,
    Experiment,
    ExperimentResult,
    ParamSpec,
    RowTable,
    resolve_trial_seeds,
)
from repro.experiments.registry import experiment_names, get_experiment, iter_experiments
from repro.experiments.schema import SchemaError, validate_payload

#: Small parameterisations, one per registered experiment, fast enough for CI.
SMALL_PARAMS = {
    "figure4": dict(
        n_nodes=9, distillation_values=(1.0,), topologies=("cycle",), n_requests=6, n_consumer_pairs=4
    ),
    "figure5": dict(network_sizes=(9,), topologies=("cycle",), n_requests=6, n_consumer_pairs=4),
    "lp": dict(topologies=("cycle",), n_nodes=9, demand_pairs=4, demand_rate=0.1),
    "comparison": dict(topology="cycle", n_nodes=9, n_requests=6, n_consumer_pairs=4),
    "ablations": dict(
        axes=("swap-rate", "recurrence"),
        topology="cycle",
        n_nodes=9,
        distillation=1.0,
        n_requests=6,
        n_consumer_pairs=4,
    ),
    "classical": dict(topology_name="cycle", n_nodes=9, rounds=8, gossip_fanouts=(2,)),
    "scaling": dict(sizes=(36,), balancer="incremental", topologies=("grid",)),
    "resilience": dict(smoke=True, n_requests=10, balancer="naive"),
    "traffic": dict(smoke=True, n_requests=10),
    "multicast": dict(smoke=True, n_requests=10),
}


@pytest.fixture(scope="module")
def small_results():
    return {name: get_experiment(name).run(**SMALL_PARAMS[name]) for name in experiment_names()}


class TestRegistry:
    def test_all_ten_experiments_registered(self):
        assert experiment_names() == (
            "ablations",
            "classical",
            "comparison",
            "figure4",
            "figure5",
            "lp",
            "multicast",
            "resilience",
            "scaling",
            "traffic",
        )

    def test_every_small_param_set_has_an_experiment(self):
        assert set(SMALL_PARAMS) == set(experiment_names())

    def test_unknown_name_raises_with_menu(self):
        with pytest.raises(KeyError, match="figure4"):
            get_experiment("figure42")

    def test_instances_expose_name_summary_params(self):
        for experiment in iter_experiments():
            assert isinstance(experiment, Experiment)
            assert experiment.name and experiment.summary
            assert all(isinstance(spec, ParamSpec) for spec in experiment.params)

    def test_cli_flags_are_unique_per_experiment(self):
        for experiment in iter_experiments():
            flags = [spec.cli_flag for spec in experiment.cli_specs()]
            assert len(flags) == len(set(flags))


class TestParamResolution:
    def test_unknown_parameter_rejected(self):
        with pytest.raises(TypeError, match="unknown parameter"):
            get_experiment("figure4").run(quantum_teleporter=True)

    def test_choices_enforced(self):
        with pytest.raises(ValueError, match="balancer"):
            get_experiment("figure4").resolve_params({"balancer": "telepathy"})

    def test_defaults_fill_in(self):
        params = get_experiment("comparison").resolve_params({})
        assert params["topology"] == "cycle"
        assert params["n_nodes"] == 25

    def test_resolve_trial_seeds(self):
        assert resolve_trial_seeds(3, None) == (1, 2, 3)
        assert resolve_trial_seeds((7, 9), None) == (7, 9)
        derived = resolve_trial_seeds(2, 42)
        assert len(derived) == 2 and all(seed > 3 for seed in derived)
        with pytest.raises(ValueError):
            resolve_trial_seeds(0, None)


class TestSmokePreset:
    """``smoke=True`` never silently overrides an explicit value."""

    @pytest.mark.parametrize(
        "name, overrides, named",
        [
            ("figure4", {"n_nodes": 16, "n_requests": 30}, "n_requests=30"),
            ("figure4", {"n_nodes": 10}, "n_nodes=10"),
            ("figure4", {"distillation_values": (2.0,)}, "distillation_values"),
            ("resilience", {"sizes": (9,)}, "sizes"),
            ("resilience", {"seeds": (1, 2)}, "seeds"),
            ("resilience", {"n_requests": 30}, "n_requests=30"),
            ("resilience", {"max_rounds": 20_000}, "max_rounds"),
            ("traffic", {"workload": "bursty"}, "workload="),
            ("traffic", {"workloads": ("poisson",)}, "workloads"),
            ("traffic", {"n_nodes": 16}, "n_nodes=16"),
            ("traffic", {"protocols": ("path-oblivious",)}, "protocols"),
            ("multicast", {"group_sizes": (2, 3)}, "group_sizes"),
            ("multicast", {"n_requests": 40}, "n_requests=40"),
        ],
    )
    def test_explicit_value_smoke_would_change_is_rejected(self, name, overrides, named):
        with pytest.raises(ValueError, match="smoke") as excinfo:
            get_experiment(name).plan({"smoke": True, **overrides})
        assert named in str(excinfo.value)

    @pytest.mark.parametrize(
        "name, overrides, expected",
        [
            ("figure4", {"n_nodes": 9, "n_requests": 6}, {"n_nodes": 9, "n_requests": 6}),
            ("figure4", {"distillation_values": [1.0]}, {"distillation_values": (1.0,)}),
            ("resilience", {"n_requests": 10, "seeds": (7,)}, {"n_requests": 10, "seeds": (7,)}),
            ("resilience", {"sizes": [25]}, {"sizes": (25,)}),
            ("traffic", {"n_nodes": 9, "n_requests": 10}, {"n_nodes": 9, "n_requests": 10}),
            ("multicast", {"group_sizes": [3], "n_requests": 12}, {"group_sizes": (3,), "n_requests": 12}),
        ],
    )
    def test_value_smoke_would_keep_passes(self, name, overrides, expected):
        params, _ = get_experiment(name).plan({"smoke": True, **overrides})
        for key, value in expected.items():
            assert params[key] == value

    def test_defaults_are_replaced_and_capped(self):
        params, _ = get_experiment("traffic").plan({"smoke": True})
        assert (params["n_nodes"], params["n_requests"], params["max_rounds"]) == (9, 12, 3000)
        params, _ = get_experiment("resilience").plan({"smoke": True, "master_seed": 4})
        assert params["sizes"] == (25,) and len(params["seeds"]) == 1

    def test_without_smoke_the_preset_is_inert(self):
        params, _ = get_experiment("figure4").plan({"n_nodes": 16, "n_requests": 30})
        assert (params["n_nodes"], params["n_requests"]) == (16, 30)

    def test_every_preset_names_a_parameter_of_a_smoke_experiment(self):
        for experiment in iter_experiments():
            names = {spec.name for spec in experiment.params}
            if experiment.smoke_preset:
                assert "smoke" in names, experiment.name
            assert set(experiment.smoke_preset) <= names, experiment.name


class TestPlan:
    """``plan`` runs every input check before any trial: the grid too."""

    @pytest.mark.parametrize("name", ["figure4", "comparison", "resilience", "traffic"])
    def test_config_errors_surface_in_plan(self, name):
        overrides = {"n_requests": 0}
        if name in ("figure4", "comparison"):
            overrides["n_nodes"] = 9
        with pytest.raises(ValueError, match="n_requests must be positive"):
            get_experiment(name).plan(overrides)

    def test_scaling_rejects_sizes_it_cannot_build(self):
        with pytest.raises(ValueError, match="at least 3 nodes"):
            get_experiment("scaling").plan({"sizes": (0,)})

    def test_plan_returns_the_grid_run_executes(self):
        params, grid = get_experiment("figure4").plan(SMALL_PARAMS["figure4"])
        assert params["n_nodes"] == 9
        assert [config.topology for config in grid] == ["cycle"]


class TestExecutionPath:
    """``supports_runtime`` is derived: the class keeps the default ``execute``."""

    def test_runtime_flags_follow_the_execute_override(self, monkeypatch):
        sweeps = {"ablations", "comparison", "figure4", "figure5", "multicast", "resilience", "traffic"}
        assert {e.name for e in iter_experiments() if e.supports_runtime} == sweeps
        # lp overrides execute but fans its solves out over the workers.
        assert {e.name for e in iter_experiments() if e.supports_workers} == sweeps | {"lp"}
        # Wrapping one instance's execute (as perfbench does) changes nothing.
        figure4 = get_experiment("figure4")
        monkeypatch.setitem(vars(figure4), "execute", figure4.execute)
        assert figure4.supports_runtime


class TestResultContract:
    def test_results_are_experiment_results(self, small_results):
        for name, result in small_results.items():
            assert isinstance(result, ExperimentResult), name
            assert result.experiment == name

    def test_rows_match_columns(self, small_results):
        for name, result in small_results.items():
            rows = result.rows()
            assert rows, f"{name} produced no rows"
            for row in rows:
                assert len(row) == len(result.columns()), name

    def test_to_json_round_trips_and_validates(self, small_results):
        for name, result in small_results.items():
            payload = json.loads(result.to_json())
            validate_payload(payload)
            assert payload["experiment"] == name
            assert payload["columns"] == list(result.columns())
            assert len(payload["rows"]) == len(result.rows())

    def test_to_csv_header_matches_rows(self, small_results):
        for name, result in small_results.items():
            parsed = list(csv.reader(io.StringIO(result.to_csv())))
            assert parsed[0] == list(result.columns()), name
            assert len(parsed) == 1 + len(result.rows()), name

    def test_series_is_a_mapping(self, small_results):
        for name, result in small_results.items():
            series = result.series()
            assert isinstance(series, dict), name
        # The figure experiments expose their plotted lines.
        assert "cycle" in small_results["figure4"].series()
        assert "cycle" in small_results["figure5"].series()

    def test_format_report_still_renders(self, small_results):
        for name, result in small_results.items():
            report = result.format_report()
            assert isinstance(report, str) and report.strip(), name

    def test_write_refuses_overwrite_without_force(self, tmp_path, small_results):
        result = small_results["classical"]
        for format in RESULT_FORMATS:
            target = tmp_path / f"result.{format}"
            written = result.write(target, format=format)
            assert written == target and target.exists()
            with pytest.raises(FileExistsError):
                result.write(target, format=format)
            result.write(target, format=format, force=True)
        assert json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
        with pytest.raises(ValueError):
            result.write(tmp_path / "result.xml", format="xml")

    def test_row_table_bridges_attribute_and_method_access(self, small_results):
        result = small_results["lp"]
        assert isinstance(result.rows, RowTable)
        # Attribute access iterates structured records...
        assert all(hasattr(row, "objective") for row in result.rows)
        # ...while calling yields the contract's flat tuples.
        assert result.rows()[0][0] == result.rows[0].topology


class TestApiEdges:
    def test_paramspec_rejects_bad_name_and_flag(self):
        with pytest.raises(ValueError, match="identifier"):
            ParamSpec("not an identifier", int, 0, "x")
        with pytest.raises(ValueError, match="--"):
            ParamSpec("ok", int, 0, "x", flag="-short")

    def test_paramspec_non_cli_cannot_be_added_to_parser(self):
        import argparse

        spec = ParamSpec("hidden", int, 0, "x", cli=False)
        with pytest.raises(ValueError, match="not CLI-exposed"):
            spec.add_to_parser(argparse.ArgumentParser())

    def test_experiment_hooks_are_abstract(self):
        class Bare(Experiment):
            name = "bare"
            summary = "x"

        with pytest.raises(NotImplementedError):
            Bare().build_grid({})
        with pytest.raises(NotImplementedError):
            Bare().reduce([], {})

    def test_render_rejects_unknown_format(self, small_results):
        with pytest.raises(ValueError, match="unknown result format"):
            small_results["lp"].render("yaml")

    def test_row_table_accepts_plain_tuples(self):
        table = RowTable([(1, 2), (3, 4)])
        assert table() == [(1, 2), (3, 4)]


class TestSchemaValidator:
    def test_rejects_missing_keys(self):
        with pytest.raises(SchemaError, match="missing required key"):
            validate_payload({"schema_version": 1})

    def test_rejects_wrong_types(self):
        with pytest.raises(SchemaError, match="columns"):
            validate_payload(
                {
                    "schema_version": 1,
                    "experiment": "x",
                    "columns": "not-a-list",
                    "rows": [],
                    "series": {},
                }
            )

    def test_rejects_wrong_schema_version(self):
        with pytest.raises(SchemaError, match="schema_version"):
            validate_payload(
                {
                    "schema_version": 999,
                    "experiment": "x",
                    "columns": [],
                    "rows": [],
                    "series": {},
                }
            )


class TestSchemaCLIEntry:
    """python -m repro.experiments.schema, the CI pipe validator."""

    def test_validates_a_written_result(self, tmp_path, capsys, small_results):
        from repro.experiments import schema

        target = tmp_path / "result.json"
        small_results["classical"].write(target, format="json")
        assert schema.main([str(target)]) == 0
        assert "valid result payload" in capsys.readouterr().out

    def test_rejects_invalid_payload(self, tmp_path, capsys):
        from repro.experiments import schema

        target = tmp_path / "bad.json"
        target.write_text("{}", encoding="utf-8")
        assert schema.main([str(target)]) == 1
        assert "schema violation" in capsys.readouterr().err

    def test_usage_error_without_arguments(self, capsys):
        from repro.experiments import schema

        assert schema.main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_reads_stdin_dash(self, monkeypatch, capsys, small_results):
        import io as io_module

        from repro.experiments import schema

        monkeypatch.setattr(
            "sys.stdin", io_module.StringIO(small_results["figure4"].to_json())
        )
        assert schema.main(["-"]) == 0
