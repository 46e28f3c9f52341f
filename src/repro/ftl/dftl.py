"""DFTL: demand-based selective caching of page-level mappings.

Re-implementation of Gupta et al. (ASPLOS'09) as modelled by the paper's
§3: a Cached Mapping Table (CMT) of individual 8-byte entries managed by
LRU.  A cache miss reads the entry's translation page; when the cache is
full, the LRU entry is evicted and — if dirty — written back with a
read-modify-write of its translation page, *one entry at a time* (the
inefficiency Fig 1(b) documents).  During GC, DFTL batches the mapping
updates of migrated data pages that share a translation page (its original
"batch update" optimisation), which :class:`~repro.ftl.base.BaseFTL`
implements for everyone.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..cache import LRUDict
from ..config import SimulationConfig
from ..errors import CacheCapacityError, FTLError, SimInvariantError
from ..types import AccessResult, Request
from .base import BaseFTL

#: index of the PPN / dirty flag in a CMT value cell
_PPN, _DIRTY = 0, 1


class DFTL(BaseFTL):
    """Baseline demand-based page-level FTL with an entry-grained CMT."""

    name = "dftl"

    def __init__(self, config: SimulationConfig,
                 prefill: bool = True) -> None:
        super().__init__(config, prefill=prefill)
        cache_cfg = config.resolved_cache()
        entry_bytes = cache_cfg.dftl_entry_bytes
        budget = cache_cfg.entry_budget_bytes(self.gtd.size_bytes)
        self.capacity_entries = budget // entry_bytes
        if self.capacity_entries < 1:
            raise CacheCapacityError(
                f"cache budget leaves room for "
                f"{self.capacity_entries} CMT entries")
        #: CMT: LPN -> [ppn, dirty]
        self.cmt: LRUDict[int, List[int]] = LRUDict()

    # ------------------------------------------------------------------
    # Mapping-cache policy
    # ------------------------------------------------------------------
    def _translate(self, lpn: int, request: Request,
                   result: AccessResult) -> int:
        self.metrics.lookups += 1
        cell = self.cmt.get(lpn)
        if cell is not None:
            self.metrics.hits += 1
            return cell[_PPN]
        # Miss: make room, then demand-load the entry from flash.
        self._evict_until(self.capacity_entries - 1, result)
        self.read_translation_page(self.geometry.vtpn_of(lpn), "load",
                                   result)
        ppn = self.flash_table[lpn]
        self.cmt.put(lpn, [ppn, False])
        return ppn

    def _evict_until(self, max_entries: int, result: AccessResult) -> None:
        """Evict LRU entries until the CMT holds at most ``max_entries``."""
        while len(self.cmt) > max_entries:
            popped = self.cmt.pop_lru()
            if popped is None:  # pragma: no cover - loop guard
                raise SimInvariantError("CMT emptied during eviction")
            victim_lpn, cell = popped
            self.metrics.replacements += 1
            if cell[_DIRTY]:
                self.metrics.dirty_replacements += 1
                vtpn = self.geometry.vtpn_of(victim_lpn)
                # Partial overwrite: read the page, merge one entry, write.
                self.read_translation_page(vtpn, "writeback", result)
                self.write_translation_page(
                    vtpn, {victim_lpn: cell[_PPN]}, result)

    def _record_mapping(self, lpn: int, ppn: int,
                        result: AccessResult) -> None:
        cell = self.cmt.get(lpn, touch=True)
        if cell is None:  # pragma: no cover - translate always installs
            raise FTLError(f"write to LPN {lpn} without a cached entry")
        cell[_PPN] = ppn
        cell[_DIRTY] = True

    def _gc_update_cached(self, lpns: List[int],
                          ppns: List[int]) -> Dict[int, int]:
        missed: Dict[int, int] = {}
        get = self.cmt.get
        for lpn, ppn in zip(lpns, ppns):
            cell = get(lpn, touch=False)
            if cell is None:
                missed[lpn] = ppn
            else:
                cell[_PPN] = ppn
                cell[_DIRTY] = True
        return missed

    def cache_peek(self, lpn: int) -> Optional[int]:
        """Cached PPN for ``lpn`` without touching recency."""
        cell = self.cmt.get(lpn, touch=False)
        return cell[_PPN] if cell is not None else None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cache_snapshot(self) -> List[Tuple[int, int]]:
        """(entries, dirty) per cached translation page."""
        per_page: Dict[int, List[int]] = {}
        for lpn, cell in self.cmt.items_mru_to_lru():
            vtpn = self.geometry.vtpn_of(lpn)
            bucket = per_page.setdefault(vtpn, [0, 0])
            bucket[0] += 1
            if cell[_DIRTY]:
                bucket[1] += 1
        return [(entries, dirty) for entries, dirty in per_page.values()]

    def _take_dirty_entries(self) -> Dict[int, Dict[int, int]]:
        grouped: Dict[int, Dict[int, int]] = {}
        for lpn, cell in self.cmt.items_mru_to_lru():
            if cell[_DIRTY]:
                vtpn = self.geometry.vtpn_of(lpn)
                grouped.setdefault(vtpn, {})[lpn] = cell[_PPN]
                cell[_DIRTY] = False
        return grouped

    @property
    def cached_entry_count(self) -> int:
        """Mapping entries currently cached."""
        return len(self.cmt)
