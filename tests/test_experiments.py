"""Tests for the experiment harness (configs, runner, figure/ablation experiments)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.maxmin.policy import DistanceWeightedPolicy
from repro.experiments.config import ExperimentConfig, full_mode_enabled
from repro.experiments.figure4 import figure4_configs
from repro.experiments.figure5 import figure5_configs
from repro.experiments.registry import experiment_names, get_experiment
from repro.experiments.runner import (
    build_protocol,
    build_topology,
    build_workload_requests,
    run_trial,
)
from repro.protocols.oblivious import PathObliviousProtocol
from repro.protocols.planned import ConnectionOrientedProtocol
from repro.runtime.seeding import RandomStreams


class TestExperimentConfig:
    def test_defaults_match_paper(self):
        config = ExperimentConfig()
        assert config.n_nodes == 25
        assert config.n_consumer_pairs == 35
        assert config.protocol == "path-oblivious"

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_nodes=2)
        with pytest.raises(ValueError):
            ExperimentConfig(distillation=0.5)
        with pytest.raises(ValueError):
            ExperimentConfig(n_requests=0)

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("generation_process", "poisson"),
            ("consumptions_per_round", 1),
            ("qec_overhead", 2.0),
            ("loss_factor", 0.5),
            ("window", 2),
            ("overhead_variant", "paper"),
        ],
    )
    def test_removed_knobs_are_rejected(self, knob, value):
        with pytest.raises(TypeError):
            ExperimentConfig(**{knob: value})

    def test_every_field_takes_two_values_across_the_default_grids(self, monkeypatch):
        """A field no registered experiment varies is a knob nobody sets:
        it either goes, or some experiment's default grid moves it."""
        monkeypatch.delenv("REPRO_FULL", raising=False)
        configs = []
        for name in experiment_names():
            _, grid = get_experiment(name).plan({})
            configs.extend(unit for unit in grid if isinstance(unit, ExperimentConfig))
        single = [
            field.name
            for field in dataclasses.fields(ExperimentConfig)
            if len({getattr(config, field.name) for config in configs}) < 2
        ]
        assert configs and single == []

    def test_with_override(self):
        config = ExperimentConfig().with_(distillation=3.0)
        assert config.distillation == 3.0
        assert config.n_nodes == 25

    def test_label_contains_key_facts(self):
        label = ExperimentConfig(topology="cycle", distillation=2.0, seed=4).label()
        assert "cycle" in label and "D=2" in label and "seed=4" in label

    def test_full_mode_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert not full_mode_enabled()
        monkeypatch.setenv("REPRO_FULL", "1")
        assert full_mode_enabled()
        monkeypatch.setenv("REPRO_FULL", "0")
        assert not full_mode_enabled()


class TestRunnerBuilders:
    def test_build_requests_count(self):
        streams = RandomStreams(0)
        config = ExperimentConfig(topology="cycle", n_nodes=9, n_requests=12, n_consumer_pairs=5)
        topology = build_topology(config, streams)
        requests = build_workload_requests(config, topology, streams).requests
        assert len(requests) == 12

    def test_build_protocol_types(self):
        streams = RandomStreams(0)
        config = ExperimentConfig(topology="cycle", n_nodes=9, n_requests=5, n_consumer_pairs=4)
        topology = build_topology(config, streams)
        requests = build_workload_requests(config, topology, streams).requests
        assert isinstance(build_protocol(config, topology, requests, streams), PathObliviousProtocol)
        planned = config.with_(protocol="planned-connection-oriented")
        assert isinstance(
            build_protocol(
                planned,
                topology,
                build_workload_requests(planned, topology, streams).requests,
                streams,
            ),
            ConnectionOrientedProtocol,
        )

    def test_distance_weighted_policy_reads_the_protocols_own_topology(self):
        # A scenario mutates the protocol's copy of the topology; the policy
        # must measure distances on that copy, not on the caller's.
        streams = RandomStreams(0)
        config = ExperimentConfig(
            topology="cycle", n_nodes=9, policy="distance-weighted", scenario="link-churn"
        )
        topology = build_topology(config, streams)
        requests = build_workload_requests(config, topology, streams).requests
        protocol = build_protocol(config, topology, requests, streams)
        assert protocol.topology is not topology
        assert isinstance(protocol.balancer.policy, DistanceWeightedPolicy)
        assert protocol.balancer.policy.topology is protocol.topology

    def test_build_protocol_unknown_name(self):
        streams = RandomStreams(0)
        config = ExperimentConfig(topology="cycle", n_nodes=9)
        topology = build_topology(config, streams)
        requests = build_workload_requests(config, topology, streams).requests
        with pytest.raises(ValueError):
            build_protocol(config.with_(protocol="quantum-bgp"), topology, requests, streams)

    def test_build_protocol_unknown_policy_or_knowledge(self):
        streams = RandomStreams(0)
        config = ExperimentConfig(topology="cycle", n_nodes=9, policy="psychic")
        topology = build_topology(config, streams)
        requests = build_workload_requests(config, topology, streams).requests
        with pytest.raises(ValueError):
            build_protocol(config, topology, requests, streams)
        config2 = ExperimentConfig(topology="cycle", n_nodes=9, knowledge="telepathy")
        with pytest.raises(ValueError):
            build_protocol(
                config2,
                topology,
                build_workload_requests(config2, topology, streams).requests,
                streams,
            )


class TestRunTrial:
    def test_trial_outcome_fields(self):
        config = ExperimentConfig(
            topology="cycle", n_nodes=9, n_requests=8, n_consumer_pairs=5, seed=1
        )
        outcome = run_trial(config)
        assert outcome.all_satisfied
        assert outcome.overhead_exact >= 1.0
        assert outcome.swaps_performed > 0
        assert outcome.rounds > 0
        assert outcome.requests_total == 8
        assert sum(outcome.consumption_by_pair.values()) == outcome.requests_satisfied

    def test_trial_deterministic_for_seed(self):
        config = ExperimentConfig(topology="cycle", n_nodes=9, n_requests=6, n_consumer_pairs=4, seed=3)
        first = run_trial(config)
        second = run_trial(config)
        assert first.swaps_performed == second.swaps_performed
        assert first.rounds == second.rounds
        assert first.overhead_exact == pytest.approx(second.overhead_exact)


class TestFigureSweeps:
    def test_figure4_config_grid(self):
        configs = figure4_configs(distillation_values=(1.0, 2.0), topologies=("cycle",), seeds=(1, 2))
        assert len(configs) == 4
        assert all(config.n_nodes == 25 for config in configs)

    def test_figure4_small_run(self):
        result = get_experiment("figure4").run(
            n_nodes=9,
            distillation_values=(1.0,),
            topologies=("cycle", "grid"),
            n_requests=8,
            n_consumer_pairs=5,
        )
        series = result.series()
        assert set(series) == {"cycle", "grid"}
        assert all(1.0 in points for points in series.values())
        assert all(value >= 1.0 for points in series.values() for value in points.values())
        assert "Figure 4" in result.format_report()
        assert len(result.rows()) == 2

    def test_figure5_config_grid(self):
        configs = figure5_configs(network_sizes=(9, 16), topologies=("cycle",))
        assert [config.n_nodes for config in configs] == [9, 16]

    def test_figure5_small_run(self):
        result = get_experiment("figure5").run(
            network_sizes=(9,),
            topologies=("cycle",),
            n_requests=8,
            n_consumer_pairs=5,
        )
        assert 9 in result.series()["cycle"]
        assert "Figure 5" in result.format_report()


class TestOtherExperiments:
    def test_lp_validation_runs_and_checks_steady_state(self):
        result = get_experiment("lp").run(
            topologies=("cycle",), n_nodes=9, demand_pairs=4, demand_rate=0.1
        )
        assert result.rows
        feasible_rows = [row for row in result.rows if row.feasible]
        assert feasible_rows
        assert all(row.steady_state_ok for row in feasible_rows)
        assert "E3" in result.format_report()

    def test_comparison_covers_all_protocols(self):
        result = get_experiment("comparison").run(
            topology="cycle", n_nodes=9, n_requests=10, n_consumer_pairs=5
        )
        assert len(result.outcomes) == 4
        by_protocol = result.by_protocol()
        assert by_protocol["planned-connection-oriented"].overhead_exact == pytest.approx(1.0)
        assert by_protocol["path-oblivious"].overhead_exact >= 1.0
        assert "E4" in result.format_report()

    def test_ablations_selected_axes(self):
        result = get_experiment("ablations").run(
            axes=("swap-rate", "recurrence"),
            topology="cycle",
            n_nodes=9,
            distillation=1.0,
            n_requests=6,
            n_consumer_pairs=4,
        )
        assert {row.axis for row in result.rows} == {"swap-rate", "recurrence"}
        assert len(result.rows_for("swap-rate")) == 3
        assert "E5" in result.format_report()

    def test_ablations_unknown_axis(self):
        with pytest.raises(ValueError):
            get_experiment("ablations").run(axes=("coffee",), n_nodes=9, n_requests=30)

    def test_ablations_balancer_axis_reports_identical_physics(self):
        """The naive/incremental axis is an end-to-end equivalence check."""
        result = get_experiment("ablations").run(
            axes=("balancer",),
            topology="cycle",
            n_nodes=9,
            distillation=1.0,
            n_requests=6,
            n_consumer_pairs=4,
        )
        rows = {row.variant: row for row in result.rows_for("balancer")}
        assert set(rows) == {"naive", "incremental"}
        naive, incremental = rows["naive"], rows["incremental"]
        assert naive.swaps == incremental.swaps
        assert naive.rounds == incremental.rounds
        assert naive.overhead_exact == incremental.overhead_exact
        assert naive.satisfied == incremental.satisfied

    def test_ablations_hybrid_fallback_acts_when_d_exceeds_one(self):
        """At D=2 a consumer pair holding one pair is topped up over a
        longer path, so the fallback row is not a copy of pure balancing."""
        result = get_experiment("ablations").run(
            axes=("hybrid",), n_nodes=9, n_requests=6, distillation=2.0
        )
        rows = {row.variant: row for row in result.rows_for("hybrid")}
        pure, fallback = rows["pure-oblivious"], rows["with-fallback"]
        assert pure.satisfied == fallback.satisfied == "6/6"
        assert (fallback.swaps, fallback.rounds) != (pure.swaps, pure.rounds)

    def test_classical_overhead_gossip_cheaper(self):
        result = get_experiment("classical").run(
            topology_name="cycle", n_nodes=9, rounds=10, gossip_fanouts=(2,)
        )
        strategies = {row.strategy: row for row in result.rows}
        assert strategies["gossip-fanout2"].bits < strategies["flooding"].bits
        assert strategies["flooding"].mean_coverage == 1.0
        assert "E6" in result.format_report()

    def test_classical_overhead_validation(self):
        with pytest.raises(ValueError):
            get_experiment("classical").run(n_nodes=16, rounds=0)


class TestMulticastExperiment:
    def _small(self, **overrides):
        params = dict(
            group_sizes=(2, 3),
            topology="cycle",
            n_nodes=9,
            n_requests=10,
            n_consumer_pairs=5,
            max_rounds=3000,
        )
        params.update(overrides)
        return get_experiment("multicast").run(**params)

    def test_size2_rows_identical_across_strategies(self):
        """Group size 2 is the degenerate sanity row: both strategies spend
        exactly one Bell-pair session per request, so every measured number
        must coincide."""
        result = self._small()
        rows = {row.strategy: row for row in result.rows if row.group_size == 2}
        assert set(rows) == {"shared", "independent-sessions"}
        shared, independent = rows["shared"], rows["independent-sessions"]
        assert shared.satisfied == independent.satisfied
        assert shared.rounds == independent.rounds
        assert shared.swaps == independent.swaps
        assert shared.pairs_consumed == independent.pairs_consumed
        assert shared.fusions == independent.fusions == 0
        assert shared.jain_fairness == pytest.approx(independent.jain_fairness)

    def test_shared_strategy_fuses_and_spends_fewer_pairs(self):
        result = self._small()
        rows = {row.strategy: row for row in result.rows if row.group_size == 3}
        shared, independent = rows["shared"], rows["independent-sessions"]
        assert shared.fusions > 0
        assert independent.fusions == 0
        assert shared.pairs_consumed < independent.pairs_consumed

    def test_smoke_shrinks_the_sweep(self):
        result = get_experiment("multicast").run(smoke=True)
        assert result.group_sizes == (3,)
        assert len(result.rows) == 2
        assert all(row.effective_groups > 0 for row in result.rows)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            self._small(group_sizes=(1, 3))
        with pytest.raises(ValueError):
            self._small(strategies=("telepathy",))
        with pytest.raises(ValueError):
            self._small(group_fraction=1.5)

    def test_config_identity_separates_group_specs(self):
        """Regression: group workload parameters enter the config's equality
        and hash, which the sweep's dedupe keys on, so a multicast cell can
        never merge with a pair cell or with another group size/strategy."""
        base = ExperimentConfig(topology="cycle", n_nodes=9, seed=1)
        variants = [
            base,
            base.with_(workload="poisson:rate=2"),
            base.with_(workload="multicast:rate=2"),
            base.with_(workload="multicast:group_size=3,rate=2"),
            base.with_(workload="multicast:group_size=4,rate=2"),
            base.with_(workload="multicast:group_size=4,group_strategy=independent-sessions,rate=2"),
            base.with_(workload="poisson:group_fraction=0.5,rate=2"),
        ]
        assert len(set(variants)) == len(variants)
        for index, config in enumerate(variants):
            assert config == config.with_() and hash(config) == hash(config.with_())
            assert all(config != other for other in variants[index + 1 :])
