"""CDFTL: two-level caching with a CMT and a cached-translation-page tier.

Re-implementation of Qin et al. (RTAS'11) as described in the paper's
§2.2: the first-level CMT holds a small number of active entries; the
second-level CTP selectively caches a few whole (uncompressed)
translation pages and serves as the CMT's kick-out buffer.  Dirty entries
leave the CMT only when their page is present in the CTP (they fold into
it); writebacks to flash happen only at CTP-page granularity, so cold
dirty entries accumulate in the CMT.

The paper measured CDFTL to be dominated by S-FTL and excluded it from
the headline figures; it is implemented here for completeness and for the
extended comparisons in the benches.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..cache import LRUDict
from ..config import SimulationConfig
from ..errors import CacheCapacityError, FTLError, SimInvariantError
from ..gc import VictimPolicy, WearLeveler
from ..types import AccessResult, Request
from .base import BaseFTL

#: indexes into a CMT cell
_PPN, _DIRTY = 0, 1
#: fraction of the cache budget given to the CMT (rest feeds the CTP)
CMT_FRACTION = 0.2
#: fixed RAM cost of one CTP page (uncompressed content + header)
CTP_PAGE_OVERHEAD = 8


class CTPPage:
    """A second-tier cached translation page with dirty overrides."""

    __slots__ = ("vtpn", "overrides")

    def __init__(self, vtpn: int) -> None:
        self.vtpn = vtpn
        self.overrides: Dict[int, int] = {}

    @property
    def dirty(self) -> bool:
        """True if the cached page holds un-flushed updates."""
        return bool(self.overrides)


class CDFTL(BaseFTL):
    """Two-tier CMT + CTP demand-based page-level FTL."""

    name = "cdftl"

    def __init__(self, config: SimulationConfig,
                 victim_policy: Optional[VictimPolicy] = None,
                 wear_leveler: Optional[WearLeveler] = None,
                 prefill: bool = True) -> None:
        super().__init__(config, victim_policy=victim_policy,
                         wear_leveler=wear_leveler, prefill=prefill)
        cache_cfg = config.resolved_cache()
        total = cache_cfg.entry_budget_bytes(self.gtd.size_bytes)
        cmt_bytes = int(total * CMT_FRACTION)
        self.cmt_capacity = max(1, cmt_bytes // cache_cfg.dftl_entry_bytes)
        ctp_bytes = total - cmt_bytes
        page_cost = self.ssd.page_size + CTP_PAGE_OVERHEAD
        self.ctp_capacity = ctp_bytes // page_cost
        if self.ctp_capacity < 1:
            raise CacheCapacityError(
                f"CTP area of {ctp_bytes}B cannot hold one translation "
                f"page ({page_cost}B)")
        self.cmt: LRUDict[int, List[int]] = LRUDict()  # LPN -> [ppn, dirty]
        self.ctp: LRUDict[int, CTPPage] = LRUDict()  # VTPN -> CTPPage

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
        vtpn = self.geometry.vtpn_of(lpn)
        page = self.ctp.get(vtpn)  # touch CTP recency
        if page is not None:
            # second-tier hit: no flash access, promote entry to the CMT
            self.metrics.hits += 1
            ppn = page.overrides.get(lpn, self.flash_table[lpn])
            self._install_cmt(lpn, ppn, result)
            return ppn
        page = self._load_ctp(vtpn, result)
        ppn = page.overrides.get(lpn, self.flash_table[lpn])
        self._install_cmt(lpn, ppn, result)
        return ppn

    def _load_ctp(self, vtpn: int, result: AccessResult) -> CTPPage:
        self.read_translation_page(vtpn, "load", result)
        while len(self.ctp) >= self.ctp_capacity:
            popped = self.ctp.pop_lru()
            if popped is None:  # pragma: no cover - loop guard
                raise SimInvariantError("CTP emptied during eviction")
            _, victim = popped
            self.metrics.replacements += 1
            if victim.dirty:
                self.metrics.dirty_replacements += 1
                # whole page cached: single full-page program
                self.write_translation_page(
                    victim.vtpn, dict(victim.overrides), result)
        page = CTPPage(vtpn)
        self.ctp.put(vtpn, page)
        return page

    def _install_cmt(self, lpn: int, ppn: int,
                     result: AccessResult) -> None:
        while len(self.cmt) >= self.cmt_capacity:
            if not self._evict_cmt_entry(result):
                break  # every entry is pinned dirty; over-fill one slot
        self.cmt.put(lpn, [ppn, False])

    def _evict_cmt_entry(self, result: AccessResult) -> bool:
        """Evict one CMT entry under CDFTL's rule.

        Preferred victim (scanning from the LRU end): a clean entry, or a
        dirty entry whose page is in the CTP (folds into it, no flash
        traffic).  If all entries are dirty with uncached pages, fall
        back to an explicit read-modify-write of the LRU entry so the
        cache cannot deadlock.
        """
        fallback_lpn: Optional[int] = None
        for lpn in list(self.cmt.keys_lru_to_mru()):
            cell = self.cmt.get(lpn, touch=False)
            if cell is None:  # pragma: no cover - keys are live
                continue
            if not cell[_DIRTY]:
                self.cmt.remove(lpn)
                self.metrics.replacements += 1
                return True
            vtpn = self.geometry.vtpn_of(lpn)
            page = self.ctp.get(vtpn, touch=False)
            if page is not None:
                page.overrides[lpn] = cell[_PPN]
                self.cmt.remove(lpn)
                self.metrics.replacements += 1
                return True
            if fallback_lpn is None:
                fallback_lpn = lpn
        if fallback_lpn is None:
            return False
        cell = self.cmt.get(fallback_lpn, touch=False)
        if cell is None:  # pragma: no cover - chosen from live keys
            raise SimInvariantError("CMT fallback victim vanished")
        vtpn = self.geometry.vtpn_of(fallback_lpn)
        self.metrics.replacements += 1
        self.metrics.dirty_replacements += 1
        self.read_translation_page(vtpn, "writeback", result)
        self.write_translation_page(vtpn, {fallback_lpn: cell[_PPN]},
                                    result)
        self.cmt.remove(fallback_lpn)
        return True

    def _record_mapping(self, lpn: int, ppn: int,
                        result: AccessResult) -> None:
        cell = self.cmt.get(lpn, touch=True)
        if cell is None:  # pragma: no cover - translate installs
            raise FTLError(f"write to LPN {lpn} without a cached entry")
        cell[_PPN] = ppn
        cell[_DIRTY] = True

    def _cache_update_if_present(self, lpn: int, ppn: int) -> bool:
        cell = self.cmt.get(lpn, touch=False)
        if cell is not None:
            cell[_PPN] = ppn
            cell[_DIRTY] = True
            return True
        page = self.ctp.get(self.geometry.vtpn_of(lpn), touch=False)
        if page is not None:
            page.overrides[lpn] = ppn
            return True
        return False

    def cache_peek(self, lpn: int) -> Optional[int]:
        """Cached PPN for ``lpn`` without touching recency."""
        cell = self.cmt.get(lpn, touch=False)
        if cell is not None:
            return cell[_PPN]
        page = self.ctp.get(self.geometry.vtpn_of(lpn), touch=False)
        if page is not None and lpn in page.overrides:
            return page.overrides[lpn]
        return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cache_snapshot(self) -> List[Tuple[int, int]]:
        """(entries, dirty) per cached translation page."""
        per_page: Dict[int, List[int]] = {}
        for lpn, cell in self.cmt.items_mru_to_lru():
            bucket = per_page.setdefault(self.geometry.vtpn_of(lpn),
                                         [0, 0])
            bucket[0] += 1
            if cell[_DIRTY]:
                bucket[1] += 1
        for vtpn, page in self.ctp.items_mru_to_lru():
            bucket = per_page.setdefault(vtpn, [0, 0])
            bucket[0] = self.geometry.entries_in(vtpn)
            bucket[1] += len(page.overrides)
        return [(entries, dirty) for entries, dirty in per_page.values()]

    def _take_dirty_entries(self) -> Dict[int, Dict[int, int]]:
        grouped: Dict[int, Dict[int, int]] = {}
        for vtpn, page in self.ctp.items_mru_to_lru():
            if page.overrides:
                grouped[vtpn] = page.overrides
                page.overrides = {}
        for lpn, cell in self.cmt.items_mru_to_lru():
            if cell[_DIRTY]:
                vtpn = self.geometry.vtpn_of(lpn)
                grouped.setdefault(vtpn, {})[lpn] = cell[_PPN]
                cell[_DIRTY] = False
        return grouped
