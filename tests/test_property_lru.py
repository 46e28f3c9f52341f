"""Property-based tests: LRUDict and LRUList against model implementations."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.cache import LRUDict, LRUList, LRUNode
from repro.errors import SimInvariantError

keys = st.integers(min_value=0, max_value=20)
values = st.integers()
picks = st.integers(min_value=0, max_value=1 << 16)
list_keys = st.integers(min_value=0, max_value=4).map(float)


class LRUDictMachine(RuleBasedStateMachine):
    """Drive LRUDict and an OrderedDict model with the same ops."""

    def __init__(self):
        super().__init__()
        self.dut = LRUDict()
        self.model = OrderedDict()  # most-recent last

    @rule(key=keys, value=values)
    def put(self, key, value):
        self.dut.put(key, value)
        self.model.pop(key, None)
        self.model[key] = value

    @rule(key=keys)
    def get(self, key):
        expected = self.model.get(key)
        assert self.dut.get(key) == expected
        if key in self.model:
            self.model.move_to_end(key)

    @rule(key=keys)
    def peek(self, key):
        assert self.dut.get(key, touch=False) == self.model.get(key)

    @rule(key=keys)
    def remove(self, key):
        if key in self.model:
            assert self.dut.remove(key) == self.model.pop(key)
        else:
            with pytest.raises(KeyError):
                self.dut.remove(key)

    @rule()
    def pop_lru(self):
        if self.model:
            expected_key = next(iter(self.model))
            assert self.dut.pop_lru() == (expected_key,
                                          self.model.pop(expected_key))
        else:
            assert self.dut.pop_lru() is None

    @invariant()
    def same_size(self):
        assert len(self.dut) == len(self.model)

    @invariant()
    def same_order(self):
        assert (list(self.dut.keys_mru_to_lru())
                == list(reversed(self.model)))
        assert (list(self.dut.items_mru_to_lru())
                == list(reversed(self.model.items())))
        assert list(self.dut.keys_lru_to_mru()) == list(self.model)
        assert self.dut.lru_key() == next(iter(self.model), None)


TestLRUDictMachine = LRUDictMachine.TestCase
TestLRUDictMachine.settings = settings(max_examples=40,
                                       stateful_step_count=60,
                                       deadline=None)


def settle_model(model, node):
    """``LRUList.settle`` on a plain list (index 0 = MRU)."""
    at, key = model.index(node), node.hotness
    to = at
    if at > 0 and model[at - 1].hotness < key:
        while to > 0 and model[to - 1].hotness < key:
            to -= 1
    else:
        while to + 1 < len(model) and model[to + 1].hotness > key:
            to += 1
    model.insert(to, model.pop(at))


class LRUListMachine(RuleBasedStateMachine):
    """Drive LRUList and a plain list (index 0 = MRU) with the same ops.

    Removed nodes go back to a free pool and are re-inserted later, so
    ``settle`` splices nodes with a history.  Keys come from a handful
    of values so ties are common, and ``drift`` changes a key without
    settling — what a TPFTL eviction does — so the list is sorted only
    locally and ``settle`` has to move nodes toward either end.
    """

    def __init__(self):
        super().__init__()
        self.dut = LRUList()
        self.model = []
        self.free = [LRUNode() for _ in range(6)]

    @precondition(lambda self: self.free)
    @rule(pick=picks, key=list_keys)
    def push_mru(self, pick, key):
        node = self.free.pop(pick % len(self.free))
        node.hotness = key
        self.dut.push_mru(node)
        self.model.insert(0, node)

    @precondition(lambda self: self.model)
    @rule(at=picks, key=list_keys)
    def settle(self, at, key):
        node = self.model[at % len(self.model)]
        node.hotness = key
        self.dut.settle(node)
        settle_model(self.model, node)

    @precondition(lambda self: self.model)
    @rule(at=picks, key=list_keys)
    def drift(self, at, key):
        self.model[at % len(self.model)].hotness = key

    @precondition(lambda self: self.model)
    @rule(at=picks)
    def remove(self, at):
        node = self.model.pop(at % len(self.model))
        self.dut.remove(node)
        self.free.append(node)

    @precondition(lambda self: self.model)
    @rule(at=picks)
    def inserting_a_linked_node_is_rejected(self, at):
        with pytest.raises(SimInvariantError):
            self.dut.push_mru(self.model[at % len(self.model)])

    @precondition(lambda self: self.free)
    @rule()
    def unlinked_nodes_are_rejected(self):
        for misuse in (self.dut.remove, self.dut.settle):
            with pytest.raises(SimInvariantError):
                misuse(self.free[0])

    @invariant()
    def same_order_and_size(self):
        assert list(self.dut) == self.model
        assert len(self.dut) == len(self.model)
        assert self.dut.mru is (self.model[0] if self.model else None)
        assert self.dut.lru is (self.model[-1] if self.model else None)

    @invariant()
    def same_neighbours(self):
        """Both pointers of every node, the sentinels' keys at the ends."""
        for before, node in zip(self.model, self.model[1:]):
            assert before.next is node and node.prev is before
        if self.model:
            assert self.model[0].prev.hotness == float("inf")
            assert self.model[-1].next.hotness == float("-inf")

    @invariant()
    def linked_iff_listed(self):
        assert all(node.linked for node in self.model)
        assert not any(node.linked for node in self.free)


TestLRUListMachine = LRUListMachine.TestCase
TestLRUListMachine.settings = settings(max_examples=40,
                                       stateful_step_count=60,
                                       deadline=None)


@given(st.lists(st.tuples(keys, values), min_size=1, max_size=100))
@settings(max_examples=60, deadline=None)
def test_lru_eviction_order_matches_insertion_recency(ops):
    """Popping everything yields keys in recency order."""
    cache = LRUDict()
    model = OrderedDict()
    for key, value in ops:
        cache.put(key, value)
        model.pop(key, None)
        model[key] = value
    popped = []
    while True:
        item = cache.pop_lru()
        if item is None:
            break
        popped.append(item[0])
    assert popped == list(model)
