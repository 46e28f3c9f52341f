"""Property-based tests: LRUList against a plain-list model."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.cache import LRUList, LRUNode
from repro.errors import SimInvariantError

picks = st.integers(min_value=0, max_value=1 << 16)
list_keys = st.integers(min_value=0, max_value=4).map(float)


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

