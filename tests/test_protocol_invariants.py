"""Laws every protocol run keeps, over a protocol x topology x D grid.

Every protocol serves its requests through the one ordered consumption loop
of :class:`~repro.protocols.base.SwappingProtocol`, so a handful of laws
must hold for each of them on every workload.  Each configuration below runs
once per module (the runs are memoised) and each test checks one law:

- requests are delivered in sequence order, and a protocol that builds only
  for the head issues each request in the round its predecessor was served;
- every raw pair that left the ledger was spent by a swap or a consumption;
- every swap is attributed to the node that performed it;
- a second run from the same seed reproduces the first exactly.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, NamedTuple, Tuple

import pytest

from repro.network.demand import RequestSequence
from repro.network.topologies import cycle_topology, grid_topology, line_topology
from repro.network.topology import Topology
from repro.protocols import (
    ConnectionOrientedProtocol,
    ConnectionlessProtocol,
    OnDemandProtocol,
    PathObliviousProtocol,
)
from repro.protocols.base import ProtocolResult, SwappingProtocol
from repro.protocols.nested import required_link_pairs
from repro.runtime.seeding import RandomStreams

N_REQUESTS = 9
SEED = 11

#: Topology name -> (builder, consumer pairs the requests cycle through).
TOPOLOGIES: Dict[str, Tuple[Callable[[], Topology], List[Tuple[int, int]]]] = {
    "cycle8": (lambda: cycle_topology(8), [(0, 4), (1, 5), (2, 3)]),
    "line6": (lambda: line_topology(6), [(0, 5), (1, 3)]),
    "grid9": (lambda: grid_topology(9), [(0, 8), (1, 5), (3, 4)]),
}

#: Protocol name -> constructor taking (topology, requests, D, streams).
PROTOCOLS: Dict[str, Callable[..., SwappingProtocol]] = {
    "oblivious-naive": functools.partial(PathObliviousProtocol, balancer_engine="naive"),
    "oblivious-incremental": functools.partial(
        PathObliviousProtocol, balancer_engine="incremental"
    ),
    "oblivious-hybrid": functools.partial(PathObliviousProtocol, use_hybrid_fallback=True),
    "connection-oriented": ConnectionOrientedProtocol,
    "connectionless": ConnectionlessProtocol,
    "on-demand": OnDemandProtocol,
}

#: Protocols that swap by max-min balancing (the rest plan paths).
OBLIVIOUS = {"oblivious-naive", "oblivious-incremental", "oblivious-hybrid"}

#: Protocols that may complete requests behind the head (a window of them).
WINDOWED = {"connectionless"}

DISTILLATIONS = (1, 2)

CONFIGS = [
    pytest.param(protocol, topology, d, id=f"{protocol}-{topology}-D{d}")
    for protocol in PROTOCOLS
    for topology in TOPOLOGIES
    for d in DISTILLATIONS
]


class Run(NamedTuple):
    protocol: SwappingProtocol
    result: ProtocolResult


def _run(protocol_name: str, topology_name: str, distillation: int) -> Run:
    build_topology, pairs = TOPOLOGIES[topology_name]
    protocol = PROTOCOLS[protocol_name](
        build_topology(),
        RequestSequence.round_robin(pairs, N_REQUESTS),
        overheads=float(distillation),
        streams=RandomStreams(SEED),
        max_rounds=2_000,
    )
    return Run(protocol, protocol.run())


_memoised_run = functools.lru_cache(maxsize=None)(_run)


def _signature(result: ProtocolResult) -> tuple:
    """Everything a run reports, in a comparable form."""
    return (
        result.rounds,
        result.swaps_performed,
        result.pairs_generated,
        result.pairs_consumed,
        result.pairs_remaining,
        sorted(result.swaps_by_node.items()),
        sorted(result.classical_overhead.items()),
        [
            (request.index, request.issued_round, request.satisfied_round)
            for request in result.satisfied_requests
        ],
    )


@pytest.mark.parametrize("protocol_name, topology_name, distillation", CONFIGS)
class TestProtocolLaws:
    def test_requests_are_delivered_in_sequence_order(
        self, protocol_name, topology_name, distillation
    ):
        result = _memoised_run(protocol_name, topology_name, distillation).result
        assert result.all_requests_satisfied
        served = result.satisfied_requests
        assert [request.index for request in served] == list(range(N_REQUESTS))
        satisfied_rounds = [request.satisfied_round for request in served]
        assert satisfied_rounds == sorted(satisfied_rounds)
        assert satisfied_rounds[-1] < result.rounds
        for request in served:
            assert 0 <= request.issued_round <= request.satisfied_round
        if protocol_name not in WINDOWED:
            assert served[0].issued_round == 0
            for previous, request in zip(served, served[1:]):
                assert request.issued_round == previous.satisfied_round

    def test_every_raw_pair_that_left_the_ledger_was_spent(
        self, protocol_name, topology_name, distillation
    ):
        protocol, result = _memoised_run(protocol_name, topology_name, distillation)
        spent = result.pairs_generated - result.pairs_remaining
        if protocol_name in OBLIVIOUS:
            # A swap spends D pairs on each side and yields one; a request
            # spends D pairs between its endpoints.
            assert result.pairs_consumed == distillation * result.requests_satisfied
            swap_loss = (2 * distillation - 1) * result.swaps_performed
            assert spent == result.pairs_consumed + swap_loss
        else:
            # A planned request spends the nested build's raw link pairs on
            # its shortest path, swaps included, nothing else is spent, and
            # the protocol counts every one of them as consumed.
            per_request = [
                sum(
                    required_link_pairs(
                        protocol.topology.shortest_path(*request.pair), distillation
                    ).values()
                )
                for request in result.satisfied_requests
            ]
            assert spent == sum(per_request)
            assert result.pairs_consumed == spent

    def test_every_swap_is_attributed_to_its_node(
        self, protocol_name, topology_name, distillation
    ):
        protocol, result = _memoised_run(protocol_name, topology_name, distillation)
        assert set(result.swaps_by_node) <= set(protocol.topology.nodes)
        assert all(count > 0 for count in result.swaps_by_node.values())
        # The hybrid fallback's own swap chains are counted by its planner,
        # not per node.
        fallback_swaps = 0
        if protocol_name == "oblivious-hybrid":
            fallback_swaps = protocol.hybrid.swaps_performed
        assert sum(result.swaps_by_node.values()) + fallback_swaps == result.swaps_performed

    def test_a_rerun_from_the_same_seed_is_identical(
        self, protocol_name, topology_name, distillation
    ):
        first = _memoised_run(protocol_name, topology_name, distillation).result
        second = _run(protocol_name, topology_name, distillation).result
        assert _signature(second) == _signature(first)
