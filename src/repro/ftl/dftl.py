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

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..config import DFTL_ENTRY_BYTES, SimulationConfig
from ..errors import CacheCapacityError, FTLError
from ..types import TRANSLATION_PAGE, AccessResult, Request
from .base import BaseFTL

#: index of the PPN / dirty flag in a CMT value cell
_PPN, _DIRTY = 0, 1


class DFTL(BaseFTL):
    """Baseline demand-based page-level FTL with an entry-grained CMT."""

    name = "dftl"

    def __init__(self, config: SimulationConfig,
                 prefill: bool = True) -> None:
        super().__init__(config, prefill=prefill)
        budget = config.resolved_cache().entry_budget_bytes(
            self.ssd.gtd_bytes)
        self.capacity_entries = budget // DFTL_ENTRY_BYTES
        if self.capacity_entries < 1:
            raise CacheCapacityError(
                f"cache budget leaves room for "
                f"{self.capacity_entries} CMT entries")
        #: CMT: LPN -> [ppn, dirty]; first = LRU, last = MRU
        self.cmt: OrderedDict[int, List[int]] = OrderedDict()

    # ------------------------------------------------------------------
    # Mapping-cache policy
    # ------------------------------------------------------------------
    def _translate(self, lpn: int, request: Request,
                   result: AccessResult) -> int:
        metrics, cmt = self.metrics, self.cmt
        metrics.lookups += 1
        cell = cmt.get(lpn)
        if cell is not None:
            metrics.hits += 1
            cmt.move_to_end(lpn)
            return cell[_PPN]
        # Miss: evict LRU entries until one slot is free, then load the
        # entry; both ``read_translation_page`` calls are inlined.
        flash = self.flash
        per_page = self.entries_per_page
        while len(cmt) >= self.capacity_entries:
            victim_lpn, victim = cmt.popitem(last=False)
            metrics.replacements += 1
            if victim[_DIRTY]:
                metrics.dirty_replacements += 1
                # Partial overwrite: read the page, merge one entry, write.
                vtpn = victim_lpn // per_page
                flash.read(self.ptpn_of(vtpn), TRANSLATION_PAGE)
                result.translation_reads += 1
                metrics.trans_reads_writeback += 1
                self.write_translation_page(
                    vtpn, {victim_lpn: victim[_PPN]}, result)
        # ``serve_request`` bounds-checked the LPN
        flash.read(self.ptpn_of(lpn // per_page), TRANSLATION_PAGE)
        result.translation_reads += 1
        metrics.trans_reads_load += 1
        ppn = self.flash_table[lpn]
        cmt[lpn] = [ppn, False]
        return ppn

    def _record_mapping(self, lpn: int, ppn: int,
                        result: AccessResult) -> None:
        # no touch: ``_translate`` has just put ``lpn`` at the MRU end,
        # and ``serve_request`` only programs and invalidates in between
        cell = self.cmt.get(lpn)
        if cell is None:  # pragma: no cover - translate always installs
            raise FTLError(f"write to LPN {lpn} without a cached entry")
        cell[_PPN] = ppn
        cell[_DIRTY] = True

    def _gc_update_cached(self, lpns: List[int],
                          ppns: List[int]) -> Dict[int, int]:
        missed: Dict[int, int] = {}
        get = self.cmt.get
        for lpn, ppn in zip(lpns, ppns):
            cell = get(lpn)
            if cell is None:
                missed[lpn] = ppn
            else:
                cell[_PPN] = ppn
                cell[_DIRTY] = True
        return missed

    def cache_peek(self, lpn: int) -> Optional[int]:
        """Cached PPN for ``lpn`` without touching recency."""
        cell = self.cmt.get(lpn)
        return cell[_PPN] if cell is not None else None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cache_snapshot(self) -> List[Tuple[int, int]]:
        """(entries, dirty) per cached translation page."""
        per_vtpn: Dict[int, List[int]] = {}
        per_page = self.entries_per_page
        for lpn, cell in reversed(self.cmt.items()):
            bucket = per_vtpn.setdefault(lpn // per_page, [0, 0])
            bucket[0] += 1
            if cell[_DIRTY]:
                bucket[1] += 1
        return [(entries, dirty) for entries, dirty in per_vtpn.values()]

    def _take_dirty_entries(self) -> Dict[int, Dict[int, int]]:
        grouped: Dict[int, Dict[int, int]] = {}
        per_page = self.entries_per_page
        for lpn, cell in reversed(self.cmt.items()):
            if cell[_DIRTY]:
                grouped.setdefault(lpn // per_page, {})[lpn] = cell[_PPN]
                cell[_DIRTY] = False
        return grouped

    @property
    def cached_entry_count(self) -> int:
        """Mapping entries currently cached."""
        return len(self.cmt)
