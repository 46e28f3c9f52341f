"""The ordered container under TPFTL's page-level list.

Keyed LRU maps need no class here: DFTL's CMT, S-FTL's page cache and
TPFTL's TP nodes keep their entries in a bare
:class:`collections.OrderedDict` whose *last* item is the MRU one, so a
hit is ``move_to_end`` and an eviction takes the first key.

``LRUList`` is the one hand-written structure: an intrusive doubly
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

from typing import Generic, Iterator, Optional, TypeVar, cast

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
    """Doubly linked list between sentinels: ``head`` before the MRU
    node, ``tail`` after the LRU one (``tail.prev`` skips ``lru``'s frame)."""

    __slots__ = ("head", "tail", "_size")

    def __init__(self) -> None:
        self.head = LRUNode()  # sentinel before MRU, hotter than any node
        self.tail = LRUNode()  # sentinel after LRU, colder than any node
        self.head.hotness = float("inf")
        self.tail.hotness = float("-inf")
        self.head.next = self.tail
        self.tail.prev = self.head
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def mru(self) -> Optional[N]:
        """The most-recently-used node, or None when empty."""
        node = self.head.next
        return cast(N, node) if node is not self.tail else None

    @property
    def lru(self) -> Optional[N]:
        """The least-recently-used node, or None when empty."""
        node = self.tail.prev
        return cast(N, node) if node is not self.head else None

    def push_mru(self, node: N) -> None:
        """Insert an unlinked node at the MRU end."""
        if node.prev is not _UNLINKED:
            raise SimInvariantError("node is already in a list")
        head = self.head
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
        # ``_link(before, node, after)``, inline
        node.prev = before
        node.next = after
        before.next = node
        after.prev = node

    def __iter__(self) -> Iterator[N]:
        """Iterate from MRU to LRU; do not mutate while iterating."""
        node = self.head.next
        while node is not self.tail:
            yield cast(N, node)
            node = node.next

    @staticmethod
    def _link(before: LRUNode, node: LRUNode, after: LRUNode) -> None:
        """Splice ``node`` between two adjacent nodes."""
        node.prev = before
        node.next = after
        before.next = node
        after.prev = node
