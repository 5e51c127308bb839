"""Tests for the round-trace recorder the golden-trace suite writes through."""

from __future__ import annotations

import json

from repro.network.demand import RequestSequence, select_consumer_pairs
from repro.network.topologies import cycle_topology
from repro.protocols.oblivious import PathObliviousProtocol
from repro.runtime.seeding import RandomStreams
from repro.scenarios import build_scenario
from repro.scenarios.perturbations import ScenarioContext

from trace_recorder import TraceRecorder


class TestTraceRecorder:
    def test_records_and_filters_by_kind(self):
        trace = TraceRecorder()
        trace.record(0.0, "swap", {"repeater": 1})
        trace.record(1.0, "consume", {"pair": (0, 2)})
        assert len(trace) == 2
        assert [event.time for event in trace.events("swap")] == [0.0]
        assert trace.kinds() == {"swap": 1, "consume": 1}

    def test_events_without_kind_are_every_record_in_order(self):
        trace = TraceRecorder()
        for index, kind in enumerate(("swap", "consume", "swap")):
            trace.record(float(index), kind)
        assert [(event.time, event.kind) for event in trace.events()] == [
            (0.0, "swap"),
            (1.0, "consume"),
            (2.0, "swap"),
        ]

    def test_record_copies_the_payload(self):
        trace = TraceRecorder()
        payload = {"round": 1}
        trace.record(1.0, "phase.generation", payload)
        payload["round"] = 2
        assert trace.events()[0].payload == {"round": 1}

    def test_capacity_drops_oldest(self):
        trace = TraceRecorder(capacity=2)
        for index in range(5):
            trace.record(float(index), "swap", {"index": index})
        assert len(trace) == 2
        assert trace.dropped == 3
        assert trace.events("swap")[0].payload["index"] == 3

    def test_jsonl_lines_have_sorted_keys(self):
        trace = TraceRecorder()
        trace.record(0.5, "swap", {"repeater": 2})
        trace.record(1.0, "round.summary")
        lines = trace.to_jsonl().splitlines()
        assert lines[0] == '{"kind": "swap", "repeater": 2, "time": 0.5}'
        assert json.loads(lines[1]) == {"kind": "round.summary", "time": 1.0}


def test_protocol_trace_seam_takes_any_object_with_record():
    """``trace=`` is a duck-typed seam: a bare ``record`` method receives the
    same records, in the same order, as the recorder the goldens use."""

    class ListSink:
        def __init__(self):
            self.lines = []

        def record(self, time, kind, payload):
            self.lines.append(json.dumps({"time": time, "kind": kind, **payload}, sort_keys=True))

    def run(trace):
        streams = RandomStreams(3)
        topology = cycle_topology(6)
        scenario = build_scenario("link-churn:start=1,period=3,downtime=2,count=2", topology, streams)
        PathObliviousProtocol(
            topology=topology.copy(),
            requests=RequestSequence.round_robin([(0, 3), (1, 4)], 6),
            streams=streams,
            max_rounds=200,
            scenario=scenario,
            trace=trace,
        ).run()

    sink, recorder = ListSink(), TraceRecorder()
    run(sink)
    run(recorder)
    assert sink.lines == recorder.to_jsonl().splitlines()
    assert any('"scenario.link-failure"' in line for line in sink.lines)


def test_capped_recorder_holds_its_drop_count_after_a_protocol_run():
    """A truncated trace never presents itself as complete: the caller that
    passed a capped recorder reads how many records it dropped."""
    streams = RandomStreams(11)
    topology = cycle_topology(8)
    pairs = select_consumer_pairs(topology, 4, streams.get("consumers"))
    requests = RequestSequence.generate(pairs, 10, streams.get("requests"))
    trace = TraceRecorder(capacity=5)
    PathObliviousProtocol(
        topology=topology, requests=requests, streams=streams, max_rounds=400, trace=trace
    ).run()
    assert trace.dropped > 0
    assert len(trace) == 5


def test_scenario_context_traces_each_applied_perturbation():
    trace = TraceRecorder()
    context = ScenarioContext(trace=trace)
    context.now = 3.0
    context.record("link-failure", {"edge": [0, 1]})
    assert context.applied == [{"kind": "link-failure", "time": 3.0, "edge": [0, 1]}]
    assert [(event.time, event.kind, event.payload) for event in trace.events()] == [
        (3.0, "scenario.link-failure", {"edge": [0, 1]})
    ]
