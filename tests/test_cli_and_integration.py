"""CLI tests and cross-module integration tests."""

from __future__ import annotations

import json

import pytest

from repro.analysis.overhead import swap_overhead_from_result
from repro.cli import build_parser, main
from repro.core.lp.extensions import PairOverheads
from repro.core.lp.formulation import PathObliviousFlowProgram
from repro.core.lp.objectives import Objective
from repro.core.lp.solver import solve_flow_program
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import experiment_names, get_experiment
from repro.experiments.runner import run_trial
from repro.network.demand import RequestSequence, uniform_demand
from repro.network.topologies import random_connected_grid_topology
from repro.protocols import ConnectionOrientedProtocol, PathObliviousProtocol
from repro.runtime.seeding import RandomStreams


class TestCLI:
    def test_list_mode(self, capsys):
        assert main(["--list"]) == 0
        output = capsys.readouterr().out
        for name in experiment_names():
            assert name in output

    def test_no_arguments_lists(self, capsys):
        assert main([]) == 0
        assert "figure4" in capsys.readouterr().out

    def test_parser_defaults(self):
        args = build_parser().parse_args(["figure4"])
        assert args.nodes == 25
        assert args.experiment == "figure4"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure42"])

    def test_classical_experiment_end_to_end(self, capsys):
        assert main(["classical", "--nodes", "9"]) == 0
        assert "E6" in capsys.readouterr().out

    def test_lp_experiment_end_to_end(self, capsys):
        assert main(["lp", "--nodes", "9"]) == 0
        assert "E3" in capsys.readouterr().out

    def test_balancer_flag_parses_and_rejects_unknown(self):
        args = build_parser().parse_args(["figure4", "--balancer", "incremental"])
        assert args.balancer == "incremental"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure4", "--balancer", "telepathy"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure4", "--nodes", "10"],
            ["lp", "--nodes", "10"],
            ["figure5", "--sizes", "9", "10"],
        ],
    )
    def test_non_square_grid_size_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        error = capsys.readouterr().err
        assert f"{argv[0]}: topology " in error
        assert "perfect-square node count, got 10" in error
        assert "Traceback" not in error

    def test_cycle_accepts_a_non_square_size(self):
        experiment = get_experiment("figure4")
        params = experiment.normalize(
            experiment.resolve_params({"topologies": ("cycle",), "n_nodes": 10})
        )
        assert params["n_nodes"] == 10

    def test_balancer_flag_does_not_change_figure4_numbers(self, capsys):
        """--balancer incremental must report the exact same series."""
        base = ["figure4", "--nodes", "9", "--requests", "6", "--distillation", "1"]
        assert main(base) == 0
        naive_output = capsys.readouterr().out
        assert main(base + ["--balancer", "incremental"]) == 0
        incremental_output = capsys.readouterr().out
        assert naive_output == incremental_output

    def test_scaling_experiment_end_to_end(self, capsys):
        assert main(["scaling", "--sizes", "100", "--balancer", "incremental"]) == 0
        output = capsys.readouterr().out
        assert "Scaling" in output
        assert "incremental" in output


class TestSubcommandRedesign:
    """Regression tests for the registry-generated subparser CLI."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["scaling", "--smoke"], "--smoke"),
            (["lp", "--seeds", "5"], "--seeds"),
            (["figure5", "--nodes", "9"], "--nodes"),
            (["classical", "--scenario", "link-churn"], "--scenario"),
        ],
    )
    def test_irrelevant_flag_is_a_hard_error(self, argv, flag, capsys):
        """The flat-namespace bug: flags from other experiments used to be
        silently swallowed; now they exit non-zero with a clear error."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code != 0
        stderr = capsys.readouterr().err
        assert "unknown flag" in stderr
        assert flag in stderr
        assert argv[0] in stderr  # names the experiment the flag is wrong for

    def test_list_prints_registry_summaries(self, capsys):
        from repro.experiments.registry import iter_experiments

        assert main(["--list"]) == 0
        output = capsys.readouterr().out
        for experiment in iter_experiments():
            assert experiment.name in output
            assert experiment.summary in output

    def test_list_combined_with_experiment_exits_zero(self, capsys):
        assert main(["figure4", "--list"]) == 0
        output = capsys.readouterr().out
        assert "available experiments" in output
        assert "figure4" in output

    def test_format_json_emits_valid_payload(self, capsys):
        from repro.experiments.schema import validate_payload

        assert main(["lp", "--nodes", "9", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        validate_payload(payload)
        assert payload["experiment"] == "lp"

    def test_format_csv_header_matches_columns(self, capsys):
        from repro.experiments.classical_overhead import ClassicalOverheadResult

        assert main(["classical", "--nodes", "9", "--format", "csv"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == ",".join(ClassicalOverheadResult.COLUMNS)

    def test_output_refuses_overwrite_without_force(self, tmp_path, capsys):
        target = tmp_path / "lp.json"
        base = ["lp", "--nodes", "9", "--format", "json", "--output", str(target)]
        assert main(base) == 0
        assert json.loads(target.read_text(encoding="utf-8"))["experiment"] == "lp"
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(base)
        assert excinfo.value.code != 0
        assert "overwrite" in capsys.readouterr().err
        assert main(base + ["--force"]) == 0

    def test_bad_scenario_value_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["resilience", "--smoke", "--scenario", "quantum-tornado"])
        assert excinfo.value.code != 0

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["figure4", "--smoke", "--nodes", "16", "--requests", "30"], "n_nodes=16"),
            (["figure4", "--smoke", "--nodes", "10"], "n_nodes=10"),
            (["resilience", "--smoke", "--sizes", "9"], "sizes"),
            (["resilience", "--smoke", "--seeds", "2"], "seeds=2"),
            (["traffic", "--smoke", "--workload", "bursty"], "workload="),
            (["traffic", "--smoke", "--nodes", "16"], "n_nodes=16"),
            (["multicast", "--smoke", "--requests", "40"], "n_requests=40"),
        ],
    )
    def test_smoke_conflict_is_a_usage_error(self, argv, named, capsys):
        """--smoke used to overwrite these values silently; even a value
        equal to the parameter's default counts once it is typed."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--format", "json"])
        assert excinfo.value.code == 2
        error = capsys.readouterr().err
        assert "repro: error:" in error and "smoke" in error and named in error
        assert "Traceback" not in error

    def test_smoke_accepts_the_values_it_keeps(self, capsys):
        assert main(["figure4", "--smoke", "--format", "json"]) == 0
        plain = capsys.readouterr().out
        assert main(["figure4", "--smoke", "--nodes", "9", "--requests", "6", "--format", "json"]) == 0
        assert capsys.readouterr().out == plain

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["figure4", "--nodes", "9", "--requests", "0"], "n_requests must be positive"),
            (["comparison", "--nodes", "9", "--requests", "0"], "n_requests must be positive"),
            (["resilience", "--requests", "0"], "n_requests must be positive"),
            (["traffic", "--requests", "0"], "n_requests must be positive"),
            (["scaling", "--sizes", "0"], "at least 3 nodes"),
        ],
    )
    def test_grid_build_error_is_a_usage_error(self, argv, message, capsys):
        """ExperimentConfig's checks run in the pre-flight, not mid-run."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        error = capsys.readouterr().err
        assert f"repro: error: {argv[0]}: " in error and message in error
        assert "Traceback" not in error

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure4", "--cache"],
            ["figure4", "--cache-dir", "somewhere"],
            ["--clear-cache"],
            ["--cache", "figure4"],
            ["serve", "--socket", "unused.sock", "--cache"],
        ],
    )
    def test_removed_cache_flags_are_usage_errors(self, argv, capsys):
        """The on-disk result cache is gone: its flags are rejected with a
        usage error (exit 2), never silently ignored."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        flag = next(arg for arg in argv if "cache" in arg)
        error = capsys.readouterr().err
        assert "repro: error:" in error and flag in error

    def test_no_prefix_abbreviation_of_flags(self, capsys):
        """A prefix of a real flag is not that flag: `--work` must not
        abbreviation-match `--workers`."""
        with pytest.raises(SystemExit) as excinfo:
            main(["figure4", "--work", "1"])
        assert excinfo.value.code == 2
        assert "--work" in capsys.readouterr().err

    def test_internal_errors_are_not_usage_errors(self, monkeypatch):
        """Only parameter validation maps to exit-2 usage errors; a failure
        inside the run itself must traceback (not be swallowed)."""
        from repro.experiments.registry import experiment_names, get_experiment

        experiment = get_experiment("lp")
        monkeypatch.setattr(
            type(experiment), "execute", lambda self, grid, runtime: (_ for _ in ()).throw(
                ValueError("simulated internal bug")
            )
        )
        with pytest.raises(ValueError, match="simulated internal bug"):
            main(["lp", "--nodes", "9"])


class TestIntegrationPaperWorkload:
    """End-to-end runs exercising the paper's exact experimental recipe (scaled down)."""

    def test_paper_recipe_on_random_grid(self):
        # 16-node random connected wraparound grid, 10 consumer pairs, ordered
        # requests, D = 2 -- the full Section 5 recipe at reduced scale.
        outcome = run_trial(
            ExperimentConfig(
                topology="random-grid",
                n_nodes=16,
                distillation=2.0,
                n_consumer_pairs=10,
                n_requests=15,
                seed=8,
            )
        )
        assert outcome.all_satisfied
        assert outcome.overhead_exact >= 1.0
        assert outcome.pairs_generated > outcome.pairs_consumed

    def test_oblivious_vs_planned_tradeoff(self):
        """The central trade-off: oblivious pays swaps, planned pays latency."""
        topology = random_connected_grid_topology(16, rng=RandomStreams(4).get("topology"))
        pairs = [(0, 10), (3, 13), (5, 15)]

        def run(protocol_class):
            requests = RequestSequence.round_robin(pairs, 9)
            protocol = protocol_class(topology, requests, overheads=1.0, streams=RandomStreams(4))
            return protocol.run()

        oblivious = run(PathObliviousProtocol)
        planned = run(ConnectionOrientedProtocol)
        assert oblivious.all_requests_satisfied and planned.all_requests_satisfied
        oblivious_overhead = swap_overhead_from_result(topology, oblivious).overhead
        planned_overhead = swap_overhead_from_result(topology, planned).overhead
        # Planned-path achieves the minimum swap count; oblivious pays more.
        assert planned_overhead == pytest.approx(1.0)
        assert oblivious_overhead >= planned_overhead

    def test_lp_predicts_simulation_feasibility(self):
        """If the LP says the demand is infeasible, the simulation should also
        fail to keep up (and vice versa for comfortably feasible demand)."""
        topology = random_connected_grid_topology(9, rng=RandomStreams(2).get("topology"))
        pairs = [(0, 4), (2, 8)]
        demand = uniform_demand(pairs, rate=0.2)
        program = PathObliviousFlowProgram(topology, demand, overheads=PairOverheads.uniform())
        solution = solve_flow_program(program, Objective.MAX_PROPORTIONAL_ALPHA)
        assert solution.alpha is not None and solution.alpha >= 1.0
        # The simulated protocol should be able to serve this demand stream.
        requests = RequestSequence.round_robin(pairs, 10)
        protocol = PathObliviousProtocol(topology, requests, streams=RandomStreams(2), max_rounds=5000)
        result = protocol.run()
        assert result.all_requests_satisfied

    def test_balancing_conserves_and_spreads_pairs(self):
        """Integration of generation + balancing without consumption: total pair
        count grows by generation minus swap losses, and entanglement spreads to
        node pairs that cannot generate directly."""
        topology = random_connected_grid_topology(9, rng=RandomStreams(11).get("topology"))
        requests = RequestSequence.round_robin([(0, 8)], 1)
        protocol = PathObliviousProtocol(topology, requests, streams=RandomStreams(11), max_rounds=30)
        result = protocol.run()
        ledger_pairs = protocol.ledger.nonzero_pairs()
        non_edge_pairs = [pair for pair in ledger_pairs if not topology.has_edge(*pair)]
        assert non_edge_pairs, "balancing should create entanglement beyond generation edges"
        # Conservation: generated = consumed + remaining + swap losses (D=1 -> 1 pair per swap).
        assert result.pairs_generated == (
            result.pairs_consumed + result.pairs_remaining + result.swaps_performed
        )
