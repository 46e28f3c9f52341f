"""S-FTL: page-granularity caching with sequentiality compression.

Re-implementation of Jiang et al. (MSST'11) as the paper describes it in
§2.2: the caching object is an *entire translation page*, shrunk in the
cache according to the sequentiality of the PPNs it holds (consecutive
LPNs mapped to consecutive PPNs collapse into one run), plus a small
*dirty buffer* that postpones the writeback of sparsely dispersed dirty
entries when their page is evicted.

Replacement is page-granular: an evicted dirty page is written back with
a single full-page program (no read-modify-write, since the whole content
is cached) — the Eq. 1 footnote case.  This makes S-FTL shine on
sequential workloads (tiny compressed pages, huge effective capacity) and
suffer on random ones (each page compresses poorly, so only a couple fit).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..cache import ByteBudget, LRUDict
from ..config import SimulationConfig
from ..errors import CacheCapacityError, FTLError
from ..types import AccessResult, Request, UNMAPPED
from .base import BaseFTL

#: bytes per cached run: (start offset, start PPN, length)
RUN_BYTES = 8
#: fixed bytes per cached page object (VTPN + list header)
PAGE_HEADER_BYTES = 8
#: bytes per entry parked in the dirty buffer (LPN + PPN)
BUFFER_ENTRY_BYTES = 8
#: dirty pages with at most this many dirty entries are "sparse" and may
#: park their entries in the dirty buffer instead of being written back
SPARSE_DIRTY_LIMIT = 4


class CachedPage:
    """One cached translation page: overrides plus a compressed-size tag."""

    __slots__ = ("vtpn", "overrides", "charged_bytes", "runs",
                 "_last_lpn", "_last_ppn")

    def __init__(self, vtpn: int, runs: int, charged_bytes: int) -> None:
        self.vtpn = vtpn
        #: dirty entries not yet on flash: LPN -> PPN
        self.overrides: Dict[int, int] = {}
        self.charged_bytes = charged_bytes
        self.runs = runs
        self._last_lpn = -2
        self._last_ppn = -2

    @property
    def dirty(self) -> bool:
        """True if the cached page holds un-flushed updates."""
        return bool(self.overrides)

    def note_update(self, lpn: int, ppn: int, max_runs: int) -> None:
        """Track run growth on an in-place update.

        A write that extends the previous update sequentially (next LPN,
        next PPN) stays within the same new run; anything else is assumed
        to split/extend runs pessimistically by one.
        """
        if not (lpn == self._last_lpn + 1 and ppn == self._last_ppn + 1):
            self.runs = min(self.runs + 1, max_runs)
        self._last_lpn = lpn
        self._last_ppn = ppn


class SFTL(BaseFTL):
    """Page-granularity compressed mapping cache with a dirty buffer."""

    name = "sftl"

    def __init__(self, config: SimulationConfig,
                 prefill: bool = True) -> None:
        super().__init__(config, prefill=prefill)
        cache_cfg = config.resolved_cache()
        total = cache_cfg.entry_budget_bytes(self.gtd.size_bytes)
        buffer_bytes = int(total * cache_cfg.sftl_dirty_buffer_fraction)
        page_bytes = total - buffer_bytes
        min_page = PAGE_HEADER_BYTES + RUN_BYTES
        if page_bytes < min_page:
            raise CacheCapacityError(
                f"S-FTL page area of {page_bytes}B cannot hold one "
                f"compressed page ({min_page}B)")
        self.page_budget = ByteBudget(page_bytes)
        self.buffer_budget = (ByteBudget(buffer_bytes)
                              if buffer_bytes >= BUFFER_ENTRY_BYTES
                              else None)
        #: page cache: VTPN -> CachedPage, LRU-ordered
        self.pages: LRUDict[int, CachedPage] = LRUDict()
        #: dirty buffer: VTPN -> {LPN -> PPN}
        self.buffer: Dict[int, Dict[int, int]] = {}

    # ------------------------------------------------------------------
    # Compressed size model
    # ------------------------------------------------------------------
    def _count_runs(self, vtpn: int) -> int:
        """Sequential runs in the page's current content."""
        first = self.geometry.first_lpn(vtpn)
        # one slice, not a boxed read per entry: flash_table is an array
        ppns = self.flash_table[
            first:self.geometry.last_lpn(vtpn) + 1].tolist()
        for lpn, ppn in self.buffer.get(vtpn, {}).items():
            ppns[lpn - first] = ppn
        runs = 0
        prev_ppn = UNMAPPED
        for ppn in ppns:
            # nothing follows an unmapped entry sequentially, PPN 0 included
            if ppn != prev_ppn + 1 or prev_ppn == UNMAPPED:
                runs += 1
            prev_ppn = ppn
        return max(1, runs)

    def _size_for_runs(self, runs: int) -> int:
        # a cached page never costs more than its uncompressed form, nor
        # more than the whole page area (so one incompressible page can
        # still be cached when the budget is very small)
        raw = PAGE_HEADER_BYTES + runs * RUN_BYTES
        cap = PAGE_HEADER_BYTES + self.ssd.page_size
        return min(raw, cap, self.page_budget.capacity)

    # ------------------------------------------------------------------
    # Mapping-cache policy
    # ------------------------------------------------------------------
    def _translate(self, lpn: int, request: Request,
                   result: AccessResult) -> int:
        self.metrics.lookups += 1
        vtpn = self.geometry.vtpn_of(lpn)
        page = self.pages.get(vtpn)  # touches recency
        if page is not None:
            self.metrics.hits += 1
            return page.overrides.get(lpn, self.flash_table[lpn])
        buffered = self.buffer.get(vtpn)
        if buffered is not None and lpn in buffered:
            # the individual entry is resident in the dirty buffer
            self.metrics.hits += 1
            return buffered[lpn]
        page = self._load_page(vtpn, result)
        return page.overrides.get(lpn, self.flash_table[lpn])

    def _load_page(self, vtpn: int, result: AccessResult) -> CachedPage:
        self.read_translation_page(vtpn, "load", result)
        runs = self._count_runs(vtpn)
        size = self._size_for_runs(runs)
        if not self._make_room(size, result, exclude=vtpn):
            raise CacheCapacityError(  # pragma: no cover - size is capped
                "S-FTL page area cannot hold the loaded page")
        page = CachedPage(vtpn, runs, size)
        # absorb buffered dirty entries of this page
        parked = self.buffer.pop(vtpn, None)
        if parked:
            page.overrides.update(parked)
            if self.buffer_budget is not None:
                self.buffer_budget.release(
                    len(parked) * BUFFER_ENTRY_BYTES)
        self.page_budget.charge(size)
        self.pages.put(vtpn, page)
        return page

    def _make_room(self, need: int, result: AccessResult,
                   exclude: Optional[int] = None) -> bool:
        """Evict pages (except ``exclude``) until ``need`` bytes fit.

        Returns False when only the excluded page remains and the space
        still does not suffice — the caller then evicts that page itself.
        """
        self.page_budget.require(need)
        while not self.page_budget.fits(need):
            victim_vtpn = None
            for key in self.pages.keys_lru_to_mru():
                if key != exclude:
                    victim_vtpn = key
                    break
            if victim_vtpn is None:
                return False
            self._evict_page(victim_vtpn, result)
        return True

    def _evict_page(self, vtpn: int, result: AccessResult) -> None:
        page: CachedPage = self.pages.remove(vtpn)
        self.page_budget.release(page.charged_bytes)
        self.metrics.replacements += 1
        if not page.dirty:
            return
        # Sparsely dirty pages park their entries in the dirty buffer to
        # postpone the writeback (the S-FTL dirty-buffer optimisation).
        if (self.buffer_budget is not None
                and len(page.overrides) <= SPARSE_DIRTY_LIMIT):
            need = len(page.overrides) * BUFFER_ENTRY_BYTES
            if not self.buffer_budget.fits(need):
                self._flush_buffer_group(result)
            if self.buffer_budget.fits(need):
                self.buffer.setdefault(vtpn, {}).update(page.overrides)
                self.buffer_budget.charge(need)
                return
        self.metrics.dirty_replacements += 1
        # whole page is cached: a single full-page program suffices
        self.write_translation_page(vtpn, dict(page.overrides), result)

    def _flush_buffer_group(self, result: AccessResult) -> None:
        """Write back the buffer's largest per-page group of entries."""
        if not self.buffer:
            return
        vtpn = max(self.buffer, key=lambda v: len(self.buffer[v]))
        entries = self.buffer.pop(vtpn)
        if self.buffer_budget is not None:
            self.buffer_budget.release(len(entries) * BUFFER_ENTRY_BYTES)
        self.metrics.dirty_replacements += 1
        self.metrics.replacements += 1
        # partial update: read-modify-write
        self.read_translation_page(vtpn, "writeback", result)
        self.write_translation_page(vtpn, entries, result)

    def _record_mapping(self, lpn: int, ppn: int,
                        result: AccessResult) -> None:
        vtpn = self.geometry.vtpn_of(lpn)
        page = self.pages.get(vtpn, touch=True)
        if page is not None:
            self._apply_update(page, lpn, ppn, result)
            return
        buffered = self.buffer.get(vtpn)
        if buffered is None or lpn not in buffered:  # pragma: no cover
            # translate always installs the page or finds the entry parked
            raise FTLError(f"write to LPN {lpn} without a cached entry")
        buffered[lpn] = ppn

    def _apply_update(self, page: CachedPage, lpn: int, ppn: int,
                      result: AccessResult) -> None:
        page.overrides[lpn] = ppn
        page.note_update(lpn, ppn, self.geometry.entries_in(page.vtpn))
        new_size = self._size_for_runs(page.runs)
        if new_size > page.charged_bytes:
            grow = new_size - page.charged_bytes
            if (self.page_budget.fits(grow)
                    or self._make_room(grow, result, exclude=page.vtpn)):
                self.page_budget.charge(grow)
                page.charged_bytes = new_size
            else:
                # the growing page alone no longer fits: write it back
                # and drop it (the next access reloads it compact)
                self._evict_page(page.vtpn, result)

    def _cache_update_if_present(self, lpn: int, ppn: int) -> bool:
        vtpn = self.geometry.vtpn_of(lpn)
        page = self.pages.get(vtpn, touch=False)
        if page is not None:
            # GC updates bypass the size heuristic; sizes refresh on the
            # next load.  Content correctness is unaffected.
            page.overrides[lpn] = ppn
            return True
        buffered = self.buffer.get(vtpn)
        if buffered is not None and lpn in buffered:
            buffered[lpn] = ppn
            return True
        return False

    def _gc_flush_extras(self, vtpn: int) -> Dict[int, int]:
        """Fold buffered entries of ``vtpn`` into a forced GC update."""
        entries = self.buffer.pop(vtpn, None)
        if not entries:
            return {}
        if self.buffer_budget is not None:
            self.buffer_budget.release(len(entries) * BUFFER_ENTRY_BYTES)
        return entries

    def cache_peek(self, lpn: int) -> Optional[int]:
        """Cached PPN for ``lpn`` without touching recency."""
        vtpn = self.geometry.vtpn_of(lpn)
        page = self.pages.get(vtpn, touch=False)
        if page is not None and lpn in page.overrides:
            return page.overrides[lpn]
        buffered = self.buffer.get(vtpn)
        if buffered is not None and lpn in buffered:
            return buffered[lpn]
        return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cache_snapshot(self) -> List[Tuple[int, int]]:
        """(entries, dirty) per cached translation page."""
        snapshot: List[Tuple[int, int]] = []
        for vtpn, page in self.pages.items_mru_to_lru():
            snapshot.append((self.geometry.entries_in(vtpn),
                             len(page.overrides)))
        for vtpn, entries in self.buffer.items():
            snapshot.append((len(entries), len(entries)))
        return snapshot

    def _take_dirty_entries(self) -> Dict[int, Dict[int, int]]:
        grouped: Dict[int, Dict[int, int]] = {}
        for vtpn, page in self.pages.items_mru_to_lru():
            if page.overrides:
                grouped[vtpn] = page.overrides
                page.overrides = {}
        for vtpn in list(self.buffer):
            grouped.setdefault(vtpn, {}).update(self._gc_flush_extras(vtpn))
        return grouped
