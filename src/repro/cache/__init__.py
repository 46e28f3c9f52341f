"""Cache substrates shared by every FTL's mapping cache.

The primitives here are policy-free: an intrusive doubly linked list
with O(1) splices (:class:`LRUList`) for TPFTL's hotness-ordered
page-level list, and a byte budget tracker (:class:`ByteBudget`).  The
keyed LRU maps (DFTL's CMT, S-FTL's page cache) are bare
``OrderedDict`` instances, first = LRU, last = MRU.
"""

from .budget import ByteBudget
from .lru import LRUList, LRUNode

__all__ = ["ByteBudget", "LRUList", "LRUNode"]
