"""Unit tests for the LRU list and keyed LRU map primitives."""

import pytest

from repro.cache import LRUList, LRUNode
from repro.errors import SimInvariantError


class Node(LRUNode):
    __slots__ = ("tag",)

    def __init__(self, tag, hotness=0.0):
        super().__init__()
        self.tag = tag
        self.hotness = hotness


def keyed_list(*hotness):
    """A list whose nodes, MRU first, carry these keys as tag and key."""
    lst = LRUList()
    nodes = [Node(key, key) for key in hotness]
    for node in reversed(nodes):
        lst.push_mru(node)
    return lst, nodes


def tags(lst):
    return [node.tag for node in lst]


class TestLRUList:
    def test_empty(self):
        lst = LRUList()
        assert len(lst) == 0
        assert not lst
        assert lst.mru is None
        assert lst.lru is None

    def test_push_mru_order(self):
        lst = LRUList()
        for tag in "abc":
            lst.push_mru(Node(tag))
        assert tags(lst) == ["c", "b", "a"]
        assert lst.mru.tag == "c"
        assert lst.lru.tag == "a"

    def test_remove_middle(self):
        lst = LRUList()
        nodes = [Node(i) for i in range(3)]
        for node in nodes:
            lst.push_mru(node)
        lst.remove(nodes[1])
        assert tags(lst) == [2, 0]
        assert not nodes[1].linked

    def test_settle_in_order_node_stays(self):
        lst, nodes = keyed_list(9.0, 5.0, 5.0, 1.0)
        for node in nodes:
            lst.settle(node)
        assert tags(lst) == [9.0, 5.0, 5.0, 1.0]

    def test_settle_moves_past_strictly_colder_neighbours(self):
        lst, nodes = keyed_list(9.0, 5.0, 5.0, 1.0)
        nodes[3].hotness = 5.0  # ties do not yield: stops below the 5s
        lst.settle(nodes[3])
        assert tags(lst) == [9.0, 5.0, 5.0, 1.0]
        nodes[3].hotness = 7.0
        lst.settle(nodes[3])
        assert tags(lst) == [9.0, 1.0, 5.0, 5.0]
        nodes[3].hotness = 99.0  # stops at the head sentinel
        lst.settle(nodes[3])
        assert lst.mru is nodes[3]

    def test_settle_moves_past_strictly_hotter_neighbours(self):
        lst, nodes = keyed_list(9.0, 5.0, 5.0, 1.0)
        nodes[0].hotness = 5.0
        lst.settle(nodes[0])
        assert lst.mru is nodes[0]
        nodes[0].hotness = 3.0
        lst.settle(nodes[0])
        assert tags(lst) == [5.0, 5.0, 9.0, 1.0]
        nodes[0].hotness = -99.0  # stops at the tail sentinel
        lst.settle(nodes[0])
        assert lst.lru is nodes[0]
        assert len(lst) == 4

    def test_settle_prefers_the_hot_end_when_both_sides_disagree(self):
        """Keys may drift unsettled, so the order is only local."""
        lst, nodes = keyed_list(1.0, 5.0, 9.0)
        lst.settle(nodes[1])
        assert tags(lst) == [5.0, 1.0, 9.0]

    def test_misuse_raises(self):
        lst, nodes = keyed_list(2.0, 1.0)
        loose = Node("loose")
        with pytest.raises(SimInvariantError):
            lst.push_mru(nodes[0])
        for misuse in (lst.remove, lst.settle):
            with pytest.raises(SimInvariantError):
                misuse(loose)
        assert tags(lst) == [2.0, 1.0]

