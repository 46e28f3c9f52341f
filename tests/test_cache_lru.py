"""Unit tests for the LRU list and keyed LRU map primitives."""

import pytest

from repro.cache import LRUDict, LRUList, LRUNode


class Node(LRUNode):
    __slots__ = ("tag",)

    def __init__(self, tag):
        super().__init__()
        self.tag = tag


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

    def test_push_lru(self):
        lst = LRUList()
        lst.push_mru(Node("a"))
        lst.push_lru(Node("z"))
        assert tags(lst) == ["a", "z"]

    def test_remove_middle(self):
        lst = LRUList()
        nodes = [Node(i) for i in range(3)]
        for node in nodes:
            lst.push_mru(node)
        lst.remove(nodes[1])
        assert tags(lst) == [2, 0]
        assert not nodes[1].linked

    def test_insert_before(self):
        lst = LRUList()
        a, c = Node("a"), Node("c")
        lst.push_mru(a)
        lst.push_lru(c)
        lst.insert_before(c, Node("b"))
        assert tags(lst) == ["a", "b", "c"]

    def test_neighbours(self):
        lst = LRUList()
        a, b = Node("a"), Node("b")
        lst.push_mru(a)
        lst.push_lru(b)
        assert lst.prev_of(a) is None
        assert lst.next_of(a) is b
        assert lst.prev_of(b) is a
        assert lst.next_of(b) is None


class TestLRUDict:
    def test_put_get(self):
        cache = LRUDict()
        cache.put("k", 1)
        assert cache.get("k") == 1
        assert "k" in cache
        assert len(cache) == 1

    def test_get_missing_returns_none(self):
        assert LRUDict().get("nope") is None

    def test_get_touch_promotes(self):
        cache = LRUDict()
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        assert cache.lru_key() == "b"

    def test_get_without_touch_keeps_order(self):
        cache = LRUDict()
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a", touch=False)
        assert cache.lru_key() == "a"

    def test_put_existing_updates_and_promotes(self):
        cache = LRUDict()
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert cache.get("a", touch=False) == 10
        assert cache.lru_key() == "b"

    def test_pop_lru_order(self):
        cache = LRUDict()
        for i in range(3):
            cache.put(i, i * 10)
        assert cache.pop_lru() == (0, 0)
        assert cache.pop_lru() == (1, 10)
        assert len(cache) == 1

    def test_pop_lru_empty(self):
        assert LRUDict().pop_lru() is None

    def test_remove(self):
        cache = LRUDict()
        cache.put("a", 1)
        assert cache.remove("a") == 1
        assert "a" not in cache
        with pytest.raises(KeyError):
            cache.remove("a")

    def test_key_iteration_orders(self):
        cache = LRUDict()
        for i in range(4):
            cache.put(i, i)
        cache.get(0)  # promote
        assert list(cache.keys_mru_to_lru()) == [0, 3, 2, 1]
        assert list(cache.keys_lru_to_mru()) == [1, 2, 3, 0]

    def test_touch(self):
        cache = LRUDict()
        cache.put("a", 1)
        cache.put("b", 2)
        cache.touch("a")
        assert list(cache.keys_mru_to_lru()) == ["a", "b"]
