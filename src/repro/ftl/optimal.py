"""The optimal page-level FTL: the entire mapping table in RAM.

This is the paper's lower bound on translation overhead (§5.1): every
translation is a cache hit, nothing is ever written back, and flash holds
no translation pages at all, so GC only ever touches data blocks.  Any
demand-based FTL's deviation from this FTL is the cost of address
translation — exactly what Table 2 quantifies for DFTL.

That behaviour is :class:`~repro.ftl.base.BaseFTL`'s own: with no
translation pages there is nothing for a cached entry to diverge from,
so ``flash_table`` doubles as the in-RAM mapping and every policy hook
keeps its default.
"""

from __future__ import annotations

from .base import BaseFTL


class OptimalFTL(BaseFTL):
    """Page-level mapping with the full table cached in RAM."""

    name = "optimal"
    uses_translation_pages = False
