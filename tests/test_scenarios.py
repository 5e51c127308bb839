"""Tests for the dynamic-scenario layer (repro.scenarios)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.classical.control_plane import FloodingControlPlane
from repro.classical.gossip import ChokeUnchokeGossip
from repro.core.maxmin.incremental import IncrementalMaxMinBalancer
from repro.core.maxmin.ledger import PairCountLedger
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import get_experiment
from repro.experiments.runner import run_trial
from repro.network.demand import DemandMatrix, RequestSequence
from repro.network.topologies import cycle_topology, grid_topology
from repro.protocols.oblivious import PathObliviousProtocol
from repro.runtime.seeding import RandomStreams
from repro.scenarios import (
    Conditional,
    DemandShift,
    LinkFailure,
    LinkRepair,
    NodeLeave,
    Scenario,
    ScenarioContext,
    ScenarioDriver,
    build_scenario,
    merge_scenarios,
    parse_scenario_spec,
    validate_scenario_spec,
)
from repro.scenarios.schedules import (
    deterministic_link_churn,
    node_churn,
    poisson_link_churn,
)

from balancer_oracle import OracleBalancer
from trace_recorder import TraceRecorder


# ---------------------------------------------------------------------- #
# Spec mini-language and registry
# ---------------------------------------------------------------------- #
class TestScenarioSpecs:
    def test_parse_name_only(self):
        assert parse_scenario_spec("link-churn") == ("link-churn", {})

    def test_parse_with_params(self):
        name, params = parse_scenario_spec("flaky-links:rate=0.05,span=100,drop_pairs=true")
        assert name == "flaky-links"
        assert params == {"rate": 0.05, "span": 100, "drop_pairs": True}

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "no-such-scenario",
            "link-churn:rate=0.5",  # not a link-churn parameter
            "link-churn:period",  # missing value
            "link-churn:period=abc",  # not a number
            "link-churn:period=5,period=6",  # repeated
        ],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_scenario_spec(bad)

    def test_validate_normalises_parameter_order(self):
        assert validate_scenario_spec("link-churn:period=5,start=2") == validate_scenario_spec(
            "link-churn:start=2,period=5"
        )

    def test_config_rejects_bad_scenario(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scenario="no-such-scenario")

    def test_config_accepts_known_scenarios(self):
        config = ExperimentConfig(scenario="node-churn:period=10")
        assert "node-churn" in config.label()

    def test_build_none_returns_none(self, small_cycle, streams):
        assert build_scenario("none", small_cycle, streams) is None


class TestScenarioObject:
    def test_perturbations_sorted_by_trigger(self, small_cycle):
        edge = small_cycle.edges()[0]
        scenario = Scenario(
            "s", [LinkRepair(9.0, edge), LinkFailure(3.0, edge)]
        )
        assert [p.trigger for p in scenario] == [3.0, 9.0]
        assert scenario.last_trigger() == 9.0

    def test_negative_trigger_rejected(self, small_cycle):
        edge = small_cycle.edges()[0]
        with pytest.raises(ValueError):
            Scenario("s", [LinkFailure(-1.0, edge)])

    def test_merge_interleaves(self, small_cycle):
        edge_a, edge_b = small_cycle.edges()[:2]
        merged = merge_scenarios(
            "merged",
            [
                Scenario("a", [LinkFailure(5.0, edge_a)]),
                Scenario("b", [LinkFailure(2.0, edge_b)]),
            ],
        )
        assert [p.trigger for p in merged] == [2.0, 5.0]


# ---------------------------------------------------------------------- #
# Schedules
# ---------------------------------------------------------------------- #
class TestSchedules:
    def test_deterministic_link_churn_pairs_failures_with_repairs(self, small_cycle):
        perturbations = deterministic_link_churn(small_cycle, start=4, period=10, downtime=3, count=3)
        failures = [p for p in perturbations if isinstance(p, LinkFailure)]
        repairs = [p for p in perturbations if isinstance(p, LinkRepair)]
        assert len(failures) == len(repairs) == 3
        for failure, repair in zip(failures, repairs):
            assert repair.edge == failure.edge
            assert repair.trigger == failure.trigger + 3

    def test_poisson_schedule_is_seed_deterministic(self, small_cycle):
        first = poisson_link_churn(small_cycle, np.random.default_rng(5), rate=0.05, span=200)
        second = poisson_link_churn(small_cycle, np.random.default_rng(5), rate=0.05, span=200)
        assert [p.describe() for p in first] == [p.describe() for p in second]
        assert first, "a 0.05 rate over 200 rounds should produce events"

    def test_poisson_outages_do_not_overlap_per_edge(self, small_cycle):
        perturbations = poisson_link_churn(
            small_cycle, np.random.default_rng(11), rate=0.2, span=300
        )
        by_edge = {}
        for p in perturbations:
            by_edge.setdefault(p.edge, []).append(p)
        for events in by_edge.values():
            for failure, repair in zip(events[::2], events[1::2]):
                assert isinstance(failure, LinkFailure) and isinstance(repair, LinkRepair)
                assert repair.trigger > failure.trigger
            for repair, next_failure in zip(events[1::2], events[2::2]):
                assert next_failure.trigger >= repair.trigger

    def test_node_churn_spares_the_anchor_node(self, small_cycle):
        nodes = {p.node for p in node_churn(small_cycle, count=10) if isinstance(p, NodeLeave)}
        anchor = sorted(small_cycle.nodes, key=repr)[0]
        assert anchor not in nodes


# ---------------------------------------------------------------------- #
# Context + driver semantics
# ---------------------------------------------------------------------- #
class TestScenarioContext:
    def test_link_failure_stops_generation_and_repair_restores(self, small_cycle):
        edge = small_cycle.edges()[0]
        original_rate = small_cycle.generation_rate(*edge)
        context = ScenarioContext(topology=small_cycle)
        assert context.fail_link(*edge)
        assert not small_cycle.has_edge(*edge)
        assert context.is_failed(*edge)
        assert not context.fail_link(*edge), "failing a failed link is a no-op"
        assert context.repair_link(*edge)
        assert not context.is_failed(*edge)
        assert small_cycle.generation_rate(*edge) == original_rate
        assert not context.repair_link(*edge), "repairing a healthy link is a no-op"

    def test_link_failure_can_drop_ledger_pairs(self, small_cycle):
        edge = small_cycle.edges()[0]
        ledger = PairCountLedger(small_cycle.nodes)
        ledger.add(edge[0], edge[1], 4)
        context = ScenarioContext(topology=small_cycle, ledger=ledger)
        context.fail_link(*edge, drop_pairs=True)
        assert ledger.count(*edge) == 0

    def test_node_leave_invalidates_every_ledger_entry(self, small_cycle):
        ledger = PairCountLedger(small_cycle.nodes)
        for node_a, node_b in small_cycle.edges():
            ledger.add(node_a, node_b, 2)
        victim = small_cycle.nodes[2]
        # Also give the victim a long-distance (non-edge) pair.
        far = small_cycle.nodes[0]
        ledger.add(victim, far, 3)
        degree = small_cycle.degree(victim)
        context = ScenarioContext(topology=small_cycle, ledger=ledger)
        assert context.fail_node(victim)
        assert ledger.partners(victim) == {}
        assert small_cycle.degree(victim) == 0
        severed = context.failed_edges()
        assert len(severed) == degree and all(victim in key for key in severed)
        assert context.rejoin_node(victim)
        assert small_cycle.degree(victim) == degree
        assert context.failed_edges() == []

    def test_demand_shift_touches_only_pending_requests(self, small_cycle, streams):
        pairs = [(0, 2), (1, 4)]
        requests = RequestSequence.round_robin(pairs, 6)
        requests.note_head_issued(0)
        requests.mark_head_satisfied(0)
        served_pair = requests.satisfied_requests()[0].pair
        context = ScenarioContext(requests=requests, streams=streams)
        moved = context.shift_demand(hotspot=5, fraction=1.0)
        assert moved == 5
        assert requests.satisfied_requests()[0].pair == served_pair
        for request in requests.requests()[1:]:
            assert 5 in request.pair

    def test_demand_shift_migrates_demand_matrix_rates(self, small_cycle, streams):
        demand = DemandMatrix()
        demand.set_rate(0, 2, 1.0)
        context = ScenarioContext(demand=demand, streams=streams)
        context.shift_demand(hotspot=4, fraction=0.5)
        assert demand.rate(0, 2) == pytest.approx(0.5)
        assert demand.rate(2, 4) == pytest.approx(0.5)
        assert sum(demand.rates.values()) == pytest.approx(1.0)

    def test_decoherence_ramp_thins_generation_rates(self, small_cycle):
        context = ScenarioContext(topology=small_cycle)
        context.scale_decoherence(2.0)
        assert all(
            rate == pytest.approx(0.5) for rate in small_cycle.generation_rates().values()
        )

    def test_driver_fires_at_trigger_and_respects_predicates(self, small_cycle):
        edge = small_cycle.edges()[0]
        fired_when_ready = Conditional(
            trigger=1.0,
            inner=LinkRepair(0.0, edge),
            predicate=lambda context: not context.topology.has_edge(*edge),
            label="repair-once-failed",
        )
        scenario = Scenario("s", [fired_when_ready, LinkFailure(3.0, edge)])
        context = ScenarioContext(topology=small_cycle)
        driver = ScenarioDriver(scenario, context)
        driver.on_round(0)
        driver.on_round(1)
        driver.on_round(2)
        assert small_cycle.has_edge(*edge), "predicate held the conditional back"
        driver.on_round(3)
        assert not small_cycle.has_edge(*edge)
        driver.on_round(4)
        assert small_cycle.has_edge(*edge), "conditional repaired once the predicate held"
        assert driver.exhausted

    def test_applied_log_and_trace_records(self, small_cycle):
        edge = small_cycle.edges()[0]
        trace = TraceRecorder()
        context = ScenarioContext(topology=small_cycle, trace=trace)
        driver = ScenarioDriver(Scenario("s", [LinkFailure(2.0, edge)]), context)
        for round_index in range(4):
            driver.on_round(round_index)
        assert [entry["kind"] for entry in context.applied] == ["link-failure"]
        [record] = trace.events("scenario.link-failure")
        assert record.time == 2.0
        assert record.payload["edge"] == list(edge)


# ---------------------------------------------------------------------- #
# Incremental engine under churn
# ---------------------------------------------------------------------- #
class TestIncrementalUnderChurn:
    def test_skip_mode_matches_oracle_under_churn(self, small_grid):
        """A full churn run: after every failure the incremental engine's
        candidate lists and swaps match the per-pair reference enumeration
        exactly."""
        runs = []
        for engine in (IncrementalMaxMinBalancer, OracleBalancer):
            streams = RandomStreams(3)
            ledger = PairCountLedger(small_grid.nodes)
            for node_a, node_b in small_grid.edges():
                ledger.add(node_a, node_b, 5)
            balancer = engine(ledger, rng=streams.get("balancer"))
            context = ScenarioContext(topology=small_grid, ledger=ledger)
            scenario = Scenario(
                "churn",
                deterministic_link_churn(
                    small_grid, start=1, period=3, downtime=2, count=4, drop_pairs=True
                ),
            )
            driver = ScenarioDriver(scenario, context)
            trajectory = []
            for round_index in range(15):
                driver.on_round(round_index)
                trajectory.append(
                    [balancer.preferable_candidates(node) for node in ledger.nodes]
                )
                trajectory.append(balancer.run_round(round_index))
            runs.append(
                (trajectory, balancer.records, ledger.nonzero_pairs(), balancer.swaps_performed)
            )
        assert runs[0] == runs[1]
        assert runs[0][3] > 0


# ---------------------------------------------------------------------- #
# Failure announcements through the control plane
# ---------------------------------------------------------------------- #
class TestFailureAnnouncements:
    def test_flooding_announcement_reaches_everyone(self, small_cycle):
        ledger = PairCountLedger(small_cycle.nodes)
        plane = FloodingControlPlane(small_cycle, ledger)
        sent = plane.announce_failure(small_cycle.nodes[0], failed_node=small_cycle.nodes[3])
        assert sent == small_cycle.n_nodes - 1
        assert plane.total_messages == sent
        assert plane.total_bits > 0

    def test_gossip_announcement_reaches_only_unchoked_peers(self, small_cycle, rng):
        ledger = PairCountLedger(small_cycle.nodes)
        gossip = ChokeUnchokeGossip(small_cycle, ledger, unchoked_slots=2, rng=rng)
        gossip.run_round(0)  # establishes peer sets and views
        source = small_cycle.nodes[0]
        before = gossip.total_messages
        sent = gossip.announce_failure(source, failed_node=small_cycle.nodes[2])
        assert sent == len(gossip.unchoked_peers(source)) == 2
        assert gossip.total_messages == before + sent

    def test_gossip_node_failure_invalidates_views(self, small_cycle, rng):
        ledger = PairCountLedger(small_cycle.nodes)
        for node_a, node_b in small_cycle.edges():
            ledger.add(node_a, node_b, 2)
        gossip = ChokeUnchokeGossip(
            small_cycle, ledger, unchoked_slots=small_cycle.n_nodes - 1, rng=rng
        )
        gossip.run_round(0)
        failed = small_cycle.nodes[1]
        recipient = gossip.unchoked_peers(failed)[0]
        assert failed in gossip.views[recipient]
        gossip.announce_failure(failed, failed_node=failed)
        assert failed not in gossip.views[recipient]
        for cached in gossip.views[recipient].values():
            assert failed not in cached

    def test_gossip_link_failure_invalidates_only_that_edge(self, small_cycle, rng):
        ledger = PairCountLedger(small_cycle.nodes)
        for node_a, node_b in small_cycle.edges():
            ledger.add(node_a, node_b, 2)
        gossip = ChokeUnchokeGossip(
            small_cycle, ledger, unchoked_slots=small_cycle.n_nodes - 1, rng=rng
        )
        gossip.run_round(0)
        edge = small_cycle.edges()[0]
        observer = [node for node in small_cycle.nodes if node not in edge][0]
        assert gossip.views[observer][edge[0]].get(edge[1]) == 2
        gossip.announce_failure(edge[0], failed_edge=edge)
        assert edge[1] not in gossip.views[observer][edge[0]]
        assert gossip.views[observer][edge[0]], "unrelated counts survive"

    def test_context_announces_on_failure(self, small_cycle):
        ledger = PairCountLedger(small_cycle.nodes)
        plane = FloodingControlPlane(small_cycle, ledger)
        context = ScenarioContext(topology=small_cycle, ledger=ledger, control_plane=plane)
        edge = small_cycle.edges()[0]
        context.fail_link(*edge)
        # Both endpoints flood their notice.
        assert plane.total_messages == 2 * (small_cycle.n_nodes - 1)


# ---------------------------------------------------------------------- #
# Tracing exercised end to end by scenarios
# ---------------------------------------------------------------------- #
class TestScenarioTracing:
    def _traced_run(self, capacity=None):
        streams = RandomStreams(9)
        topology = cycle_topology(6)
        requests = RequestSequence.round_robin([(0, 3), (1, 4)], 12)
        scenario = build_scenario(
            "link-churn:start=1,period=3,downtime=2,count=3", topology, streams
        )
        trace = TraceRecorder(capacity=capacity)
        protocol = PathObliviousProtocol(
            topology=topology.copy(),
            requests=requests,
            streams=streams,
            max_rounds=200,
            scenario=scenario,
            trace=trace,
        )
        protocol.run()
        return protocol, trace

    def test_trace_captures_phases_scenario_and_summaries(self):
        protocol, trace = self._traced_run()
        kinds = trace.kinds()
        applied = protocol.scenario_driver.applied
        assert len(applied) >= 2, "the run must outlive at least one failure+repair"
        assert kinds["scenario.link-failure"] == sum(
            1 for p in applied if isinstance(p, LinkFailure)
        )
        assert kinds["scenario.link-repair"] == sum(
            1 for p in applied if isinstance(p, LinkRepair)
        )
        assert kinds["phase.generation"] == kinds["round.summary"]
        scenario_events = [e for e in trace.events() if e.kind.startswith("scenario.")]
        assert len(scenario_events) == len(applied)
        parsed = [json.loads(line) for line in trace.to_jsonl().splitlines()]
        assert len(parsed) == len(trace)

    def test_trace_capacity_drops_oldest_records(self):
        _, trace = self._traced_run(capacity=10)
        assert len(trace) == 10
        assert trace.dropped > 0


# ---------------------------------------------------------------------- #
# The resilience experiment
# ---------------------------------------------------------------------- #
class TestResilienceExperiment:
    def test_smoke_runs_and_cross_checks_engines(self):
        result = get_experiment("resilience").run(smoke=True, seeds=(1,))
        assert result.sizes == (25,)
        assert {row.scenario for row in result.rows} == {"none", "link-churn"}
        assert {row.balancer for row in result.rows} == {"naive", "incremental"}
        ratio = result.recovery_ratio(25, "naive", 1)
        assert ratio is not None and ratio > 0
        assert all(0.0 < row.fairness <= 1.0 for row in result.rows)
        assert "Resilience under scenario" in result.format_report()

    def test_rejects_the_none_scenario(self):
        with pytest.raises(ValueError):
            get_experiment("resilience").run(scenario="none", smoke=True)

    def test_scenario_changes_the_outcome(self):
        static = run_trial(
            ExperimentConfig(n_nodes=12, n_consumer_pairs=8, n_requests=15, seed=2, max_rounds=3000)
        )
        churned = run_trial(
            ExperimentConfig(
                n_nodes=12,
                n_consumer_pairs=8,
                n_requests=15,
                seed=2,
                max_rounds=3000,
                scenario="link-churn:start=1,period=4,downtime=3,count=6,drop_pairs=true",
            )
        )
        assert (static.rounds, static.swaps_performed) != (
            churned.rounds,
            churned.swaps_performed,
        )
