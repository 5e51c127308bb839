"""Property suite: the count-matrix ledger against the nested-dict oracle.

The same random operation sequences drive :class:`PairCountLedger` and
:class:`ledger_oracle.DictPairCountLedger`; after every operation the two
must agree on every count, every partner map, the non-zero pairs and the
total.  The sequences mix single-pair mutations, batched adds, removals
that fail, and nodes that join the ledger mid-run (which re-lays the matrix
out).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.maxmin.ledger import PairCountLedger
from ledger_oracle import DictPairCountLedger

#: Ids whose repr order differs from insertion and natural order; the last
#: three are not registered up front, so an operation on them is a join.
IDS = [2, 10, 100, 1, "a", (0, 1), 3, 25, "B"]
INITIAL = IDS[:6]

operations = st.lists(
    st.tuples(
        st.sampled_from(("add", "remove", "pairs")),
        st.lists(st.sampled_from(IDS), min_size=3, max_size=3, unique=True),
        st.integers(min_value=1, max_value=5),
    ),
    max_size=40,
)


def _apply(ledger, operation):
    """Run one operation; returns its result or the type of error it raised."""
    kind, members, amount = operation
    try:
        if kind == "add":
            return ledger.add(members[0], members[1], amount)
        if kind == "remove":
            return ledger.remove(members[0], members[1], amount)
    except ValueError as error:
        return type(error)
    # "pairs": a generation-style batch over two distinct pairs.
    pairs = [tuple(sorted(members[:2], key=repr)), tuple(sorted(members[1:], key=repr))]
    if isinstance(ledger, PairCountLedger):
        return ledger.add_pairs(pairs, np.array([amount, 0], dtype=np.int64))
    for pair in pairs:
        for node in pair:
            ledger.ensure_node(node)
    ledger.add(*pairs[0], amount)
    return amount


def _assert_same(store, oracle):
    assert store.nodes == oracle.nodes
    for node_a in IDS:
        assert store.partners(node_a) == oracle.partners(node_a)
        for node_b in IDS:
            assert store.count(node_a, node_b) == oracle.count(node_a, node_b)
    assert store.nonzero_pairs() == oracle.nonzero_pairs()
    assert store.total_pairs() == oracle.total_pairs()


@settings(deadline=None, max_examples=150)
@given(operations)
def test_store_matches_the_dict_oracle_after_every_operation(sequence):
    store, oracle = PairCountLedger(INITIAL), DictPairCountLedger(INITIAL)
    for operation in sequence:
        assert _apply(store, operation) == _apply(oracle, operation)
        _assert_same(store, oracle)
    clone = store.copy()
    _assert_same(clone, oracle)
    assert clone.counts is not store.counts


@settings(deadline=None, max_examples=60)
@given(operations)
def test_matrix_stays_symmetric_with_a_zero_diagonal(sequence):
    store = PairCountLedger(INITIAL)
    for operation in sequence:
        _apply(store, operation)
    assert (store.counts == store.counts.T).all()
    assert not store.counts.diagonal().any()
    assert (store.counts >= 0).all()
    assert [store.order[store.index[node]] for node in store.nodes] == store.nodes
    assert store.order == sorted(store.nodes, key=repr)


def test_views_iterate_in_repr_order():
    store = PairCountLedger([2, 10, 1])
    store.add(2, 1, 3)
    store.add(2, 10, 4)
    assert list(store.partners(2)) == [1, 10]
    assert list(store.nonzero_pairs()) == [(1, 2), (10, 2)]


def test_a_join_relays_the_matrix_out_and_keeps_the_counts():
    store = PairCountLedger([2, 10])
    store.add(2, 10, 5)
    before = store.counts
    store.add(1, 10, 2)
    assert store.counts is not before
    assert store.order == [1, 10, 2]
    assert store.nodes == [2, 10, 1]
    assert store.nonzero_pairs() == {(10, 2): 5, (1, 10): 2}


def test_add_pairs_logs_only_the_pairs_it_changed():
    store = PairCountLedger([0, 1, 2])
    store.mutated = []
    pairs = ((0, 1), (1, 2))
    assert store.add_pairs(pairs, np.array([0, 3], dtype=np.int64)) == 3
    assert store.mutated == [1, 2]
    assert store.add_pairs(pairs, np.array([2, 0], dtype=np.int64)) == 2
    assert store.mutated == [1, 2, 0, 1]
    assert store.nonzero_pairs() == {(0, 1): 2, (1, 2): 3}
