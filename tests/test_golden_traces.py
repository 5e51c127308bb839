"""Golden-trace regression suite.

Two canonical seeded runs -- one static, one under link churn -- are
recorded as JSONL event traces (``tests/trace_recorder.py``) in
``tests/golden/``.  Each test replays its run and diffs the fresh trace
against the stored one line by line, so *any* silent behavioural change
to the simulation (event ordering, balancing decisions, scenario timing,
consumption order) fails loudly instead of shifting results under
reviewers' feet.

Traces are deterministic by construction: every random draw derives from
the root seed via named streams, tie-breaks sort by ``repr``, and the trace
serialisation sorts its JSON keys.

To refresh the goldens after an *intentional* behaviour change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_traces.py

and commit the diff together with an explanation of why behaviour moved.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.network.demand import (
    ConsumptionRequest,
    RequestSequence,
    select_consumer_groups,
    select_consumer_pairs,
)
from repro.network.topologies import cycle_topology
from repro.protocols.oblivious import PathObliviousProtocol
from repro.runtime.seeding import RandomStreams
from repro.scenarios import build_scenario

from trace_recorder import TraceRecorder

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: The one seed + workload both canonical runs share.
GOLDEN_SEED = 7
GOLDEN_NODES = 8
GOLDEN_CONSUMER_PAIRS = 5
GOLDEN_REQUESTS = 12

#: The churn run's scenario spec (also exercised by the scenario tests).
CHURN_SPEC = "link-churn:start=3,period=8,downtime=5,count=3,drop_pairs=true"

CASES = {
    "static_cycle.jsonl": "none",
    "churn_cycle.jsonl": CHURN_SPEC,
}

#: Multicast goldens: the same static topology serving a mixed pair/group
#: request stream, one golden per balancer engine.
MULTICAST_CASES = {
    "multicast_naive.jsonl": "naive",
    "multicast_incremental.jsonl": "incremental",
}


def record_canonical_trace(scenario_spec: str) -> str:
    """Run the canonical workload under ``scenario_spec`` and return its JSONL trace."""
    streams = RandomStreams(GOLDEN_SEED)
    topology = cycle_topology(GOLDEN_NODES)
    pairs = select_consumer_pairs(topology, GOLDEN_CONSUMER_PAIRS, streams.get("consumers"))
    requests = RequestSequence.generate(pairs, GOLDEN_REQUESTS, streams.get("requests"))
    scenario = build_scenario(scenario_spec, topology, streams=streams, horizon=400)
    trace = TraceRecorder()
    protocol = PathObliviousProtocol(
        topology=topology.copy() if scenario is not None else topology,
        requests=requests,
        streams=streams,
        max_rounds=400,
        balancer_engine="incremental",
        scenario=scenario,
        trace=trace,
    )
    protocol.run()
    return trace.to_jsonl() + "\n"


def record_multicast_trace(engine: str) -> str:
    """Run the canonical multicast workload under ``engine`` and return its trace.

    The stream deliberately mixes plain pairs with GHZ groups of sizes 3 and
    4 under both serving strategies, so the golden pins down the group
    consumption phase, the fusion accounting, and the group-keyed ledger for
    each balancer engine.
    """
    streams = RandomStreams(GOLDEN_SEED)
    topology = cycle_topology(GOLDEN_NODES)
    rng = streams.get("consumers")
    pairs = select_consumer_pairs(topology, 3, rng)
    triples = select_consumer_groups(topology, 2, rng, group_size=3)
    quads = select_consumer_groups(topology, 1, rng, group_size=4)
    targets = [
        (pairs[0], None),
        (triples[0], "shared"),
        (pairs[1], None),
        (triples[1], "independent-sessions"),
        (quads[0], "shared"),
        (pairs[2], None),
        (triples[0], "independent-sessions"),
        (quads[0], "independent-sessions"),
        (pairs[0], None),
        (triples[1], "shared"),
    ]
    requests = RequestSequence(
        [
            ConsumptionRequest(index=index, pair=group, strategy=strategy)
            for index, (group, strategy) in enumerate(targets)
        ]
    )
    trace = TraceRecorder()
    protocol = PathObliviousProtocol(
        topology=topology,
        requests=requests,
        streams=streams,
        max_rounds=400,
        balancer_engine=engine,
        trace=trace,
    )
    protocol.run()
    return trace.to_jsonl() + "\n"


def _record_for(filename: str) -> str:
    """Record the trace a golden file pins, for either case table."""
    if filename in MULTICAST_CASES:
        return record_multicast_trace(MULTICAST_CASES[filename])
    return record_canonical_trace(CASES[filename])


ALL_GOLDEN_FILES = sorted(CASES) + sorted(MULTICAST_CASES)


@pytest.mark.parametrize("filename", ALL_GOLDEN_FILES)
def test_replay_matches_golden_trace(filename):
    fresh = _record_for(filename)
    path = GOLDEN_DIR / filename
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(fresh, encoding="utf-8")
        pytest.skip(f"golden trace {filename} rewritten (REPRO_UPDATE_GOLDEN set)")
    assert path.is_file(), (
        f"golden trace {filename} missing; record it with "
        "REPRO_UPDATE_GOLDEN=1 python -m pytest tests/test_golden_traces.py"
    )
    golden = path.read_text(encoding="utf-8")
    if fresh != golden:
        fresh_lines = fresh.splitlines()
        golden_lines = golden.splitlines()
        for index, (new, old) in enumerate(zip(fresh_lines, golden_lines)):
            assert new == old, (
                f"{filename} diverges at line {index + 1}:\n"
                f"  golden: {old}\n  replay: {new}"
            )
        pytest.fail(
            f"{filename} length changed: golden {len(golden_lines)} lines, "
            f"replay {len(fresh_lines)} lines"
        )


@pytest.mark.parametrize("filename", ALL_GOLDEN_FILES)
def test_golden_traces_are_valid_jsonl(filename):
    """Every golden line must parse as JSON with a time and a kind."""
    path = GOLDEN_DIR / filename
    if not path.is_file():
        pytest.skip("golden trace not recorded yet")
    for line_number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        record = json.loads(line)
        assert "time" in record and "kind" in record, f"{filename}:{line_number}: {record}"


def test_replay_is_deterministic():
    """The recorder itself is reproducible: two replays agree bit for bit."""
    assert record_canonical_trace(CHURN_SPEC) == record_canonical_trace(CHURN_SPEC)


def test_churn_trace_contains_scenario_events():
    """The churn golden actually exercises the scenario layer."""
    trace = record_canonical_trace(CHURN_SPEC)
    kinds = {json.loads(line)["kind"] for line in trace.splitlines()}
    assert "scenario.link-failure" in kinds
    assert "scenario.link-repair" in kinds
    assert "round.summary" in kinds


def test_multicast_replay_is_deterministic():
    """The multicast recorder is reproducible under both balancer engines."""
    for engine in sorted(set(MULTICAST_CASES.values())):
        assert record_multicast_trace(engine) == record_multicast_trace(engine)


def test_multicast_engines_agree():
    """Naive and incremental engines serve the mixed group stream identically."""
    assert record_multicast_trace("naive") == record_multicast_trace("incremental")
