"""Property suite: the dense balancer against the per-pair reference oracle.

Both engine modes (``naive`` evaluates every turn, ``incremental`` skips
idle nodes) must agree with :class:`balancer_oracle.OracleBalancer` on
everything observable: the candidate list of every node (order included),
the swaps each round executes, the final ledger and the state of the random
stream.  The generated runs cover every policy configuration, global and
gossip knowledge, one and several swaps per turn, non-uniform overheads,
node ids whose ``repr`` order differs from their natural order, and nodes
that join the ledger mid-run.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lp.extensions import PairOverheads
from repro.core.maxmin import (
    DistanceWeightedPolicy,
    GossipKnowledge,
    MaxMinBalancer,
    MinRecipientCountPolicy,
    PairCountLedger,
    RandomPreferablePolicy,
    make_balancer,
)
from repro.network.topology import Topology

from balancer_oracle import OracleBalancer

#: Node-id families; the integers and strings sort differently by repr.
ID_FAMILIES = {
    "ints": [2, 10, 100, 1, 3, 25, 7, 11],
    "tuples": [(0, 1), (1, 0), (0, 10), (2, 2), (10, 0), (1, 1), (0, 2), (3, 0)],
    "strings": ["a", "ab", "b", "B", "a b", "10", "9", "x"],
}
POLICIES = ("min-recipient", "randomize-ties", "random", "distance-weighted")
ENGINES = ("naive", "incremental", "oracle")


@st.composite
def scenarios(draw):
    ids = ID_FAMILIES[draw(st.sampled_from(sorted(ID_FAMILIES)))]
    n_initial = draw(st.integers(min_value=3, max_value=6))
    initial, late = ids[:n_initial], ids[n_initial : n_initial + 2]
    pairs = list(combinations(initial, 2))
    counts = draw(
        st.dictionaries(
            st.sampled_from(pairs), st.integers(min_value=1, max_value=12), max_size=len(pairs)
        )
    )
    everyone = initial + late
    operations = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("add", "remove")),
                st.lists(st.sampled_from(everyone), min_size=2, max_size=2, unique=True),
                st.integers(min_value=1, max_value=6),
            ),
            max_size=30,
        )
    )
    overrides = draw(
        st.dictionaries(
            st.sampled_from(list(combinations(everyone, 2))),
            st.sampled_from((1.0, 1.5, 2.0, 3.0)),
            max_size=4,
        )
    )
    return dict(
        initial=initial,
        counts=counts,
        operations=operations,
        policy=draw(st.sampled_from(POLICIES)),
        gossip=draw(st.booleans()),
        swaps_per_turn=draw(st.sampled_from((1, 3))),
        default_distillation=draw(st.sampled_from((1.0, 2.0, 2.5))),
        overrides=overrides,
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )


def _policy(name, nodes):
    if name == "min-recipient":
        return MinRecipientCountPolicy()
    if name == "randomize-ties":
        return MinRecipientCountPolicy(randomize_ties=True)
    if name == "random":
        return RandomPreferablePolicy()
    ring = Topology("ring", nodes=nodes)
    for node_a, node_b in zip(nodes, nodes[1:] + nodes[:1]):
        ring.add_edge(node_a, node_b)
    return DistanceWeightedPolicy(ring, max_detour=1)


def _build(engine, scenario):
    ledger = PairCountLedger(scenario["initial"])
    for (node_a, node_b), count in scenario["counts"].items():
        ledger.add(node_a, node_b, count)
    overheads = PairOverheads(default_distillation=scenario["default_distillation"])
    for (node_a, node_b), value in scenario["overrides"].items():
        overheads.set_distillation(node_a, node_b, value)
    kwargs = dict(
        overheads=overheads,
        policy=_policy(scenario["policy"], scenario["initial"]),
        knowledge=GossipKnowledge(ledger, fanout=2) if scenario["gossip"] else None,
        swaps_per_node_per_round=scenario["swaps_per_turn"],
        rng=np.random.default_rng(scenario["seed"]),
    )
    if engine == "oracle":
        return OracleBalancer(ledger, **kwargs)
    return make_balancer(engine, ledger, **kwargs)


def _apply(ledger, operation):
    """One external mutation: generation or consumption."""
    kind, (node_a, node_b), amount = operation
    if kind == "add":
        ledger.add(node_a, node_b, amount)  # may introduce a node mid-run
    else:
        held = ledger.count(node_a, node_b)
        if held:
            ledger.remove(node_a, node_b, min(held, amount))


@settings(deadline=None, max_examples=120)
@given(scenarios())
def test_both_modes_match_the_oracle(scenario):
    balancers = {engine: _build(engine, scenario) for engine in ENGINES}
    operations = list(scenario["operations"])
    for round_index in range(10):
        for operation in operations[round_index * 3 : round_index * 3 + 3]:
            for balancer in balancers.values():
                _apply(balancer.ledger, operation)
        nodes = balancers["oracle"].ledger.nodes
        expected = [balancers["oracle"].preferable_candidates(node) for node in nodes]
        for engine in ("naive", "incremental"):
            assert [balancers[engine].preferable_candidates(node) for node in nodes] == expected
        performed = {
            engine: balancer.run_round(round_index) for engine, balancer in balancers.items()
        }
        assert performed["naive"] == performed["oracle"]
        assert performed["incremental"] == performed["oracle"]
    reference = balancers["oracle"]
    for engine in ("naive", "incremental"):
        balancer = balancers[engine]
        assert balancer.ledger.nonzero_pairs() == reference.ledger.nonzero_pairs()
        assert balancer.records == reference.records
        assert balancer.rng.bit_generator.state == reference.rng.bit_generator.state
        assert balancer.knowledge.classical_overhead() == reference.knowledge.classical_overhead()
        assert balancer.has_preferable_swap() == reference.has_preferable_swap()


@settings(deadline=None, max_examples=60)
@given(scenarios())
def test_convergence_matches_the_oracle(scenario):
    """Frozen ledgers: same round count, fixed point and random stream."""
    scenario = dict(scenario, gossip=False)
    balancers = {engine: _build(engine, scenario) for engine in ENGINES}
    rounds = {engine: b.balance_to_convergence(max_rounds=5000) for engine, b in balancers.items()}
    assert rounds["naive"] == rounds["incremental"] == rounds["oracle"]
    reference = balancers["oracle"]
    for engine in ("naive", "incremental"):
        assert balancers[engine].ledger.nonzero_pairs() == reference.ledger.nonzero_pairs()
        assert balancers[engine].records == reference.records
        assert balancers[engine].rng.bit_generator.state == reference.rng.bit_generator.state


def test_argmin_tie_break_is_the_repr_order_of_the_produced_pair():
    """Equal recipient counts: the pair whose repr sorts first wins, even where
    numeric order disagrees (10 before 2, 100 before 11)."""
    ledger = PairCountLedger([1, 2, 10, 11, 100])
    for partner in (2, 10, 11, 100):
        ledger.add(1, partner, 6)
    balancer = MaxMinBalancer(ledger, rng=np.random.default_rng(0))
    oracle = OracleBalancer(ledger.copy(), rng=np.random.default_rng(0))
    assert balancer.run_node(1) == oracle.run_node(1) == 1
    assert balancer.records == oracle.records
    assert balancer.records[0].produced_pair == (10, 100)
    assert [(c.left, c.right) for c in balancer.preferable_candidates(1)][:2] == [
        (10, 100),
        (10, 11),
    ]


def test_candidates_agree_with_is_preferable():
    ledger = PairCountLedger(range(5))
    for (node_a, node_b), count in {(0, 1): 7, (0, 2): 5, (0, 3): 2, (1, 2): 1, (2, 3): 4}.items():
        ledger.add(node_a, node_b, count)
    balancer = MaxMinBalancer(ledger, overheads=1.0)
    for repeater in range(5):
        listed = {(c.left, c.right) for c in balancer.preferable_candidates(repeater)}
        for left, right in combinations(range(5), 2):
            assert ((left, right) in listed) == balancer.is_preferable(repeater, left, right)


def test_oracle_has_no_skip_mode():
    with pytest.raises(ValueError):
        OracleBalancer(PairCountLedger(range(3)), skip_idle=True)
