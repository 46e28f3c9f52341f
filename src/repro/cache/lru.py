"""The two ordered containers under the mapping caches.

``LRUDict`` is a keyed LRU map: a thin class over one
:class:`collections.OrderedDict` whose *last* item is the MRU one, so a
hit is ``move_to_end`` and an eviction is ``popitem(last=False)``.  It
backs DFTL's CMT, CDFTL's CMT and CTP and S-FTL's page cache; TPFTL's
TP nodes keep their entries in a bare ``OrderedDict`` with the same
orientation.

``LRUList`` is the one hand-written structure left: an intrusive doubly
linked list of :class:`LRUNode` objects between two sentinels, head =
MRU, matching the paper's figures, which draw the hottest node
leftmost.  It exists for TPFTL's hotness-ordered page-level list, which
splices a node a few slots up or down from where it already sits — an
operation an ``OrderedDict`` cannot express — and it offers only what
that list uses.  Misuse (double-insert, removing an unlinked node)
raises :class:`~repro.errors.SimInvariantError`, which survives
``python -O``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (Generic, Hashable, Iterator, Optional, Tuple, TypeVar,
                    cast)

from ..errors import SimInvariantError


class LRUNode:
    """A list node; subclass and add payload fields via ``__slots__``."""

    __slots__ = ("prev", "next")

    def __init__(self) -> None:
        self.prev: Optional["LRUNode"] = None
        self.next: Optional["LRUNode"] = None

    @property
    def linked(self) -> bool:
        """True when the node is currently in a list."""
        return self.prev is not None


N = TypeVar("N", bound=LRUNode)


class LRUList(Generic[N]):
    """Doubly linked list with sentinels; head = MRU, tail = LRU."""

    __slots__ = ("_head", "_tail", "_size")

    def __init__(self) -> None:
        self._head = LRUNode()  # sentinel before MRU
        self._tail = LRUNode()  # sentinel after LRU
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

    def prev_of(self, node: N) -> Optional[N]:
        """Neighbour toward the MRU end, or None at the head."""
        prev = node.prev
        return cast(N, prev) if prev is not self._head else None

    def next_of(self, node: N) -> Optional[N]:
        """Neighbour toward the LRU end, or None at the tail."""
        nxt = node.next
        return cast(N, nxt) if nxt is not self._tail else None

    def push_mru(self, node: N) -> None:
        """Insert an unlinked node at the MRU end."""
        self._require_unlinked(node)
        self._insert_after(self._head, node)

    def push_lru(self, node: N) -> None:
        """Insert an unlinked node at the LRU end."""
        self._require_unlinked(node)
        self._insert_after(cast(LRUNode, self._tail.prev), node)

    def insert_before(self, anchor: N, node: N) -> None:
        """Insert ``node`` immediately toward-MRU of ``anchor``."""
        self._require_unlinked(node)
        if not anchor.linked and anchor is not self._tail:
            raise SimInvariantError(
                "insert_before anchor is not in the list")
        self._insert_after(cast(LRUNode, anchor.prev), node)

    def remove(self, node: N) -> None:
        """Unlink a node from the list."""
        if not node.linked:
            raise SimInvariantError("cannot remove an unlinked node")
        prev = cast(LRUNode, node.prev)
        nxt = cast(LRUNode, node.next)
        prev.next = nxt
        nxt.prev = prev
        node.prev = node.next = None
        self._size -= 1

    def __iter__(self) -> Iterator[N]:
        """Iterate from MRU to LRU; do not mutate while iterating."""
        node = cast(LRUNode, self._head.next)
        while node is not self._tail:
            yield cast(N, node)
            node = cast(LRUNode, node.next)

    @staticmethod
    def _require_unlinked(node: LRUNode) -> None:
        if node.linked:
            raise SimInvariantError("node is already in a list")

    def _insert_after(self, anchor: LRUNode, node: N) -> None:
        nxt = cast(LRUNode, anchor.next)
        node.prev = anchor
        node.next = nxt
        anchor.next = node
        nxt.prev = node
        self._size += 1


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
