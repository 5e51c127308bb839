"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.maxmin.ledger import PairCountLedger
from repro.network.demand import RequestSequence, select_consumer_pairs
from repro.network.topologies import cycle_topology, grid_topology, line_topology
from repro.runtime.seeding import RandomStreams


@pytest.fixture
def rng() -> np.random.Generator:
    """A seeded numpy generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def streams() -> RandomStreams:
    """A seeded named-stream registry."""
    return RandomStreams(root_seed=12345)


@pytest.fixture
def small_cycle():
    """A 6-node cycle generation graph."""
    return cycle_topology(6)


@pytest.fixture
def small_line():
    """A 5-node line generation graph."""
    return line_topology(5)


@pytest.fixture
def small_grid():
    """A 3x3 wraparound grid generation graph."""
    return grid_topology(9)


@pytest.fixture
def empty_ledger(small_cycle) -> PairCountLedger:
    """An empty ledger over the 6-node cycle's nodes."""
    return PairCountLedger(small_cycle.nodes)


@pytest.fixture
def seeded_ledger(small_cycle) -> PairCountLedger:
    """A ledger with a few pairs pre-placed on the 6-node cycle's edges."""
    ledger = PairCountLedger(small_cycle.nodes)
    for node_a, node_b in small_cycle.edges():
        ledger.add(node_a, node_b, 3)
    return ledger


@pytest.fixture
def small_workload(small_cycle, streams):
    """A small consumer-pair set and request sequence on the 6-node cycle."""
    pairs = select_consumer_pairs(small_cycle, 5, streams.get("consumers"))
    requests = RequestSequence.generate(pairs, 10, streams.get("requests"))
    return pairs, requests
