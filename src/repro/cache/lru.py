"""The two ordered containers under the mapping caches.

``LRUDict`` is a keyed LRU map: a thin class over one
:class:`collections.OrderedDict` whose *last* item is the MRU one, so a
hit is ``move_to_end`` and an eviction is ``popitem(last=False)``.  It
backs DFTL's CMT and S-FTL's page cache; TPFTL's TP nodes keep their
entries in a bare ``OrderedDict`` with the same orientation.

``LRUList`` is the one hand-written structure left: an intrusive doubly
linked list of :class:`LRUNode` objects, head = MRU, matching the
paper's figures, which draw the hottest node leftmost.  It exists for
TPFTL's page-level list, which is ordered by a float key each node
carries (``hotness``) and re-seats a node a few slots up or down from
where it already sits — an operation an ``OrderedDict`` cannot express —
and it offers only what that list uses.  The list owns the walk
(:meth:`LRUList.settle`): its sentinels are keyed ``+inf`` and ``-inf``
and an unlinked node's pointers rest on a marker node, not ``None``, so
the walk compares keys and nothing else.  The order is *local*: the
owner may change a key without settling the node (TPFTL does on every
eviction), so a settled node can have to move either way — colder-ward
past a neighbour that grew hotter unsettled — and any in-order shortcut
taken before ``settle`` must look at both neighbours.  Misuse
(double-insert, removing or settling an unlinked node) raises
:class:`~repro.errors.SimInvariantError`, which survives ``python -O``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (Generic, Hashable, Iterator, Optional, Tuple, TypeVar,
                    cast)

from ..errors import SimInvariantError


class LRUNode:
    """A list node; subclass and add payload fields via ``__slots__``.

    ``hotness`` is the key :meth:`LRUList.settle` orders by; whoever
    changes it decides when the node is settled.
    """

    __slots__ = ("prev", "next", "hotness")

    def __init__(self) -> None:
        self.prev: LRUNode = _UNLINKED
        self.next: LRUNode = _UNLINKED
        self.hotness = 0.0

    @property
    def linked(self) -> bool:
        """True when the node is currently in a list."""
        return self.prev is not _UNLINKED


#: where an unlinked node's pointers rest; keyed ``-inf``, colder than
#: any key, so an unlinked node never passes for one sitting in order
_UNLINKED = LRUNode.__new__(LRUNode)
_UNLINKED.prev = _UNLINKED.next = _UNLINKED
_UNLINKED.hotness = float("-inf")

N = TypeVar("N", bound=LRUNode)


class LRUList(Generic[N]):
    """Doubly linked list with sentinels; head = MRU, tail = LRU."""

    __slots__ = ("_head", "_tail", "_size")

    def __init__(self) -> None:
        self._head = LRUNode()  # sentinel before MRU, hotter than any node
        self._tail = LRUNode()  # sentinel after LRU, colder than any node
        self._head.hotness = float("inf")
        self._tail.hotness = float("-inf")
        self._head.next = self._tail
        self._tail.prev = self._head
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def mru(self) -> Optional[N]:
        """The most-recently-used node, or None when empty."""
        node = self._head.next
        return cast(N, node) if node is not self._tail else None

    @property
    def lru(self) -> Optional[N]:
        """The least-recently-used node, or None when empty."""
        node = self._tail.prev
        return cast(N, node) if node is not self._head else None

    def push_mru(self, node: N) -> None:
        """Insert an unlinked node at the MRU end."""
        if node.prev is not _UNLINKED:
            raise SimInvariantError("node is already in a list")
        head = self._head
        self._link(head, node, head.next)
        self._size += 1

    def remove(self, node: N) -> None:
        """Unlink a node from the list."""
        if node.prev is _UNLINKED:
            raise SimInvariantError("cannot remove an unlinked node")
        node.prev.next = node.next
        node.next.prev = node.prev
        node.prev = node.next = _UNLINKED
        self._size -= 1

    def settle(self, node: N) -> None:
        """Re-seat a linked node whose ``hotness`` changed.

        The node moves toward the MRU end past every neighbour strictly
        colder than it; failing that, toward the LRU end past every
        neighbour strictly hotter; it stays put when neither neighbour
        is out of order.  Key changes move a node only a few slots in
        practice, so the walk is O(distance).
        """
        hotness = node.hotness
        prev, nxt = node.prev, node.next
        if prev is _UNLINKED:
            raise SimInvariantError("cannot settle an unlinked node")
        if prev.hotness < hotness:
            after = prev
            before = after.prev
            while before.hotness < hotness:
                after = before
                before = after.prev
        elif nxt.hotness > hotness:
            before = nxt
            after = before.next
            while after.hotness > hotness:
                before = after
                after = before.next
        else:
            return
        prev.next = nxt
        nxt.prev = prev
        self._link(before, node, after)

    def __iter__(self) -> Iterator[N]:
        """Iterate from MRU to LRU; do not mutate while iterating."""
        node = self._head.next
        while node is not self._tail:
            yield cast(N, node)
            node = node.next

    @staticmethod
    def _link(before: LRUNode, node: LRUNode, after: LRUNode) -> None:
        """Splice ``node`` between two adjacent nodes."""
        node.prev = before
        node.next = after
        before.next = node
        after.prev = node


K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LRUDict(Generic[K, V]):
    """Dictionary with LRU ordering: O(1) get/put/evict.

    This is the classic CMT shape (DFTL) and also serves S-FTL's
    page-granularity cache; capacity enforcement is left to the caller
    because eviction cost is policy (writebacks, batching, ...).
    """

    __slots__ = ("_od",)

    def __init__(self) -> None:
        self._od: OrderedDict[K, V] = OrderedDict()  # last = MRU

    def __len__(self) -> int:
        return len(self._od)

    def __contains__(self, key: K) -> bool:
        return key in self._od

    def get(self, key: K, touch: bool = True) -> Optional[V]:
        """Return the value for ``key`` (or None); bump recency if asked."""
        od = self._od
        if key not in od:
            return None
        if touch:
            od.move_to_end(key)
        return od[key]

    def put(self, key: K, value: V) -> None:
        """Insert or update ``key`` at the MRU position."""
        od = self._od
        od[key] = value  # a new key lands last; an old one keeps its slot
        od.move_to_end(key)

    def touch(self, key: K) -> None:
        """Promote ``key`` to the MRU position (KeyError if absent)."""
        self._od.move_to_end(key)

    def remove(self, key: K) -> V:
        """Remove and return the value for ``key`` (KeyError if absent)."""
        return self._od.pop(key)

    def lru_key(self) -> Optional[K]:
        """The key at the LRU end, or None when empty."""
        return next(iter(self._od), None)

    def pop_lru(self) -> Optional[Tuple[K, V]]:
        """Remove and return the ``(key, value)`` at the LRU end."""
        od = self._od
        return od.popitem(last=False) if od else None

    def keys_mru_to_lru(self) -> Iterator[K]:
        """Iterate keys from most to least recent."""
        return reversed(self._od)

    def items_mru_to_lru(self) -> Iterator[Tuple[K, V]]:
        """Iterate ``(key, value)`` pairs from most to least recent."""
        return reversed(self._od.items())

    def keys_lru_to_mru(self) -> Iterator[K]:
        """Iterate keys from least to most recent."""
        return iter(self._od)
