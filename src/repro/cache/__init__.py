"""Cache substrates shared by every FTL's mapping cache.

The primitives here are policy-free containers: a keyed LRU map over one
``OrderedDict`` (:class:`LRUDict`) for S-FTL's page cache (DFTL's CMT
is a bare ``OrderedDict``), an intrusive doubly linked list with O(1)
splices (:class:`LRUList`) for TPFTL's hotness-ordered page-level list,
and a byte budget tracker (:class:`ByteBudget`).
"""

from .budget import ByteBudget
from .lru import LRUDict, LRUList, LRUNode

__all__ = ["ByteBudget", "LRUDict", "LRUList", "LRUNode"]
