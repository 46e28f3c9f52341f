"""ZFTL: zone-based mapping cache with two-tier caching (§2.2).

Re-implementation of Mingbang et al. (ICCT'11) as the paper sketches
it: flash is divided into *zones*, and the cache holds the complete
mapping information of only the most recently active zone (the
second tier), plus a small first-tier area that buffers updates to
other zones and evicts them in per-translation-page batches.

The zone is sized so its slice of the mapping table fills the cache
budget, which gives ZFTL a perfect hit ratio *inside* the active zone
— and makes *zone switches* the dominant cost: a switch flushes every
dirty entry of the outgoing zone and reads in every translation page
of the incoming one.  Workloads whose working set straddles zones
ping-pong and collapse, the weakness the paper calls "cumbersome" and
the reason it evaluates against S-FTL instead.

A switch happens after ``switch_threshold`` consecutive out-of-zone
accesses (hysteresis, so single strays only pay a first-tier lookup).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..config import SimulationConfig
from ..errors import CacheCapacityError
from ..gc import VictimPolicy, WearLeveler
from ..types import AccessResult, Request
from .base import BaseFTL

#: bytes per entry buffered in the first tier (LPN + PPN)
TIER1_ENTRY_BYTES = 8
#: fraction of the cache budget reserved for the first tier
TIER1_FRACTION = 0.125
#: consecutive out-of-zone accesses before the active zone switches
DEFAULT_SWITCH_THRESHOLD = 16


class ZFTL(BaseFTL):
    """Zone-granular mapping cache with first-tier update buffering."""

    name = "zftl"

    def __init__(self, config: SimulationConfig,
                 victim_policy: Optional[VictimPolicy] = None,
                 wear_leveler: Optional[WearLeveler] = None,
                 prefill: bool = True,
                 switch_threshold: int = DEFAULT_SWITCH_THRESHOLD) -> None:
        super().__init__(config, victim_policy=victim_policy,
                         wear_leveler=wear_leveler, prefill=prefill)
        cache_cfg = config.resolved_cache()
        total = cache_cfg.entry_budget_bytes(self.gtd.size_bytes)
        tier1_bytes = int(total * TIER1_FRACTION)
        self.tier1_capacity = max(1, tier1_bytes // TIER1_ENTRY_BYTES)
        zone_bytes = total - tier1_bytes
        # the active zone is held as whole translation pages (PPNs only)
        page_bytes = (self.ssd.entries_per_translation_page
                      * 4)  # 4B PPN per entry, LPNs implicit
        self.zone_tpages = max(1, zone_bytes // page_bytes)
        if self.zone_tpages < 1:  # pragma: no cover - max(1, ...) above
            raise CacheCapacityError("zone cannot hold one page")
        if switch_threshold < 1:
            raise CacheCapacityError("switch_threshold must be >= 1")
        self.switch_threshold = switch_threshold
        #: id of the active zone (zone = zone_tpages translation pages)
        self.active_zone: Optional[int] = None
        #: dirty LPN->PPN updates within the active zone
        self.zone_dirty: Dict[int, int] = {}
        #: first tier: out-of-zone updates, LPN -> PPN
        self.tier1: Dict[int, int] = {}
        #: consecutive out-of-zone accesses (switch hysteresis)
        self._stray_streak = 0
        self._stray_zone: Optional[int] = None
        #: zone switches performed (the "cumbersome" cost, observable)
        self.zone_switches = 0

    # ------------------------------------------------------------------
    # Zone arithmetic
    # ------------------------------------------------------------------
    def zone_of(self, lpn: int) -> int:
        """Zone id owning ``lpn``."""
        return self.geometry.vtpn_of(lpn) // self.zone_tpages

    def _zone_vtpns(self, zone: int) -> range:
        first = zone * self.zone_tpages
        last = min(first + self.zone_tpages,
                   self.geometry.translation_pages)
        return range(first, last)

    # ------------------------------------------------------------------
    # Mapping-cache policy
    # ------------------------------------------------------------------
    def _translate(self, lpn: int, request: Request,
                   result: AccessResult) -> int:
        self.metrics.lookups += 1
        zone = self.zone_of(lpn)
        if zone == self.active_zone:
            self._stray_streak = 0
            self.metrics.hits += 1
            return self.zone_dirty.get(lpn, self.flash_table[lpn])
        if lpn in self.tier1:
            # buffered out-of-zone update: resident mapping info (read
            # before the stray is noted: a switch moves the entry)
            ppn = self.tier1[lpn]
            self._note_stray(zone, result)
            self.metrics.hits += 1
            return ppn
        self._note_stray(zone, result)
        if zone == self.active_zone:
            # _note_stray switched to this zone; everything is resident
            self.metrics.hits += 1
            return self.zone_dirty.get(lpn, self.flash_table[lpn])
        # out-of-zone miss: read the single translation page needed
        self.read_translation_page(self.geometry.vtpn_of(lpn), "load",
                                   result)
        return self.flash_table[lpn]

    def _note_stray(self, zone: int, result: AccessResult) -> None:
        """Track out-of-zone accesses; switch zones past the threshold."""
        if zone == self._stray_zone:
            self._stray_streak += 1
        else:
            self._stray_zone = zone
            self._stray_streak = 1
        if (self.active_zone is None
                or self._stray_streak >= self.switch_threshold):
            self._switch_zone(zone, result)

    def _switch_zone(self, zone: int, result: AccessResult) -> None:
        """Flush the outgoing zone and load the incoming one wholesale."""
        if self.active_zone is not None:
            self._flush_zone(result)
        # load every translation page of the incoming zone
        for vtpn in self._zone_vtpns(zone):
            self.read_translation_page(vtpn, "load", result)
        self.active_zone = zone
        self.zone_dirty.clear()
        # the zone's buffered first-tier updates are its newest mappings;
        # inside the active zone only zone_dirty is consulted
        for lpn in [lpn for lpn in self.tier1 if self.zone_of(lpn) == zone]:
            self.zone_dirty[lpn] = self.tier1.pop(lpn)
        self._stray_streak = 0
        self._stray_zone = None
        self.zone_switches += 1

    def _flush_zone(self, result: AccessResult) -> None:
        """Write back the active zone's dirty entries, batched by page."""
        grouped: Dict[int, Dict[int, int]] = {}
        for lpn, ppn in self.zone_dirty.items():
            grouped.setdefault(self.geometry.vtpn_of(lpn), {})[lpn] = ppn
        for vtpn in sorted(grouped):
            self.metrics.replacements += 1
            self.metrics.dirty_replacements += 1
            # whole page resident: single program, no read-modify-write
            self.write_translation_page(vtpn, grouped[vtpn], result)
        self.zone_dirty.clear()

    def _record_mapping(self, lpn: int, ppn: int,
                        result: AccessResult) -> None:
        if self.zone_of(lpn) == self.active_zone:
            self.zone_dirty[lpn] = ppn
            return
        self.tier1[lpn] = ppn
        if len(self.tier1) > self.tier1_capacity:
            self._evict_tier1(result)

    def _evict_tier1(self, result: AccessResult) -> None:
        """Batch-evict the first tier's largest per-page group."""
        grouped: Dict[int, List[int]] = {}
        for lpn in self.tier1:
            grouped.setdefault(self.geometry.vtpn_of(lpn),
                               []).append(lpn)
        vtpn = max(grouped, key=lambda v: len(grouped[v]))
        updates = {lpn: self.tier1.pop(lpn) for lpn in grouped[vtpn]}
        self.metrics.replacements += 1
        self.metrics.dirty_replacements += 1
        self.metrics.batch_cleaned_entries += len(updates) - 1
        self.read_translation_page(vtpn, "writeback", result)
        self.write_translation_page(vtpn, updates, result)

    def _cache_update_if_present(self, lpn: int, ppn: int) -> bool:
        if self.zone_of(lpn) == self.active_zone:
            self.zone_dirty[lpn] = ppn
            return True
        if lpn in self.tier1:
            self.tier1[lpn] = ppn
            return True
        return False

    def _gc_flush_extras(self, vtpn: int) -> Dict[int, int]:
        """Fold resident dirty entries of ``vtpn`` into a GC update."""
        extras: Dict[int, int] = {}
        for lpn in list(self.tier1):
            if self.geometry.vtpn_of(lpn) == vtpn:
                extras[lpn] = self.tier1.pop(lpn)
        if (self.active_zone is not None
                and vtpn // self.zone_tpages == self.active_zone):
            for lpn in [l for l in self.zone_dirty
                        if self.geometry.vtpn_of(l) == vtpn]:
                extras[lpn] = self.zone_dirty.pop(lpn)
        return extras

    def cache_peek(self, lpn: int) -> Optional[int]:
        """Cached PPN for ``lpn`` without touching recency."""
        if self.zone_of(lpn) == self.active_zone:
            return self.zone_dirty.get(lpn, self.flash_table[lpn])
        return self.tier1.get(lpn)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cache_snapshot(self) -> List[Tuple[int, int]]:
        """(entries, dirty) per cached translation page."""
        snapshot: List[Tuple[int, int]] = []
        if self.active_zone is not None:
            dirty_per_page: Dict[int, int] = {}
            for lpn in self.zone_dirty:
                vtpn = self.geometry.vtpn_of(lpn)
                dirty_per_page[vtpn] = dirty_per_page.get(vtpn, 0) + 1
            for vtpn in self._zone_vtpns(self.active_zone):
                snapshot.append((self.geometry.entries_in(vtpn),
                                 dirty_per_page.get(vtpn, 0)))
        tier1_pages: Dict[int, int] = {}
        for lpn in self.tier1:
            vtpn = self.geometry.vtpn_of(lpn)
            tier1_pages[vtpn] = tier1_pages.get(vtpn, 0) + 1
        snapshot.extend((count, count)
                        for count in tier1_pages.values())
        return snapshot

    def _take_dirty_entries(self) -> Dict[int, Dict[int, int]]:
        grouped: Dict[int, Dict[int, int]] = {}
        for dirty in (self.zone_dirty, self.tier1):
            for lpn, ppn in dirty.items():
                grouped.setdefault(self.geometry.vtpn_of(lpn), {})[lpn] = ppn
            dirty.clear()
        return grouped
