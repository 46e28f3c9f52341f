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

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..cache import ByteBudget
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
    """One cached translation page: overrides plus a compressed-size tag.

    ``runs`` grows on in-place updates: a write that extends the previous
    update sequentially (next LPN at ``last_lpn + 1``, next PPN at
    ``last_ppn + 1``) stays within the same new run; anything else is
    assumed to split/extend runs pessimistically by one.
    """

    __slots__ = ("overrides", "charged_bytes", "runs",
                 "last_lpn", "last_ppn")

    def __init__(self, runs: int, charged_bytes: int) -> None:
        #: dirty entries not yet on flash: LPN -> PPN
        self.overrides: Dict[int, int] = {}
        self.charged_bytes = charged_bytes
        self.runs = runs
        self.last_lpn = -2
        self.last_ppn = -2


class SFTL(BaseFTL):
    """Page-granularity compressed mapping cache with a dirty buffer."""

    name = "sftl"

    def __init__(self, config: SimulationConfig,
                 prefill: bool = True) -> None:
        super().__init__(config, prefill=prefill)
        cache_cfg = config.resolved_cache()
        total = cache_cfg.entry_budget_bytes(self.ssd.gtd_bytes)
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
        #: a cached page never costs more than its uncompressed form, nor
        #: more than the whole page area (so one incompressible page can
        #: still be cached when the budget is very small)
        self.max_page_bytes = min(PAGE_HEADER_BYTES + self.ssd.page_size,
                                  page_bytes)
        #: page cache: VTPN -> CachedPage; first = LRU, last = MRU
        self.pages: OrderedDict[int, CachedPage] = OrderedDict()
        #: dirty buffer: VTPN -> {LPN -> PPN}
        self.buffer: Dict[int, Dict[int, int]] = {}

    # ------------------------------------------------------------------
    # Compressed size model
    # ------------------------------------------------------------------
    def _count_runs(self, vtpn: int) -> int:
        """Sequential runs in the page's current content."""
        first = vtpn * self.entries_per_page
        # one slice, not a boxed read per entry: flash_table is an array
        # (a short last page's slice stops at the table's end)
        ppns = self.flash_table[first:first + self.entries_per_page].tolist()
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

    # ------------------------------------------------------------------
    # Mapping-cache policy
    # ------------------------------------------------------------------
    def _translate(self, lpn: int, request: Request,
                   result: AccessResult) -> int:
        metrics, pages = self.metrics, self.pages
        metrics.lookups += 1
        # ``serve_request`` bounds-checked the LPN
        vtpn = lpn // self.entries_per_page
        page = pages.get(vtpn)
        if page is not None:
            metrics.hits += 1
            pages.move_to_end(vtpn)
            return page.overrides.get(lpn, self.flash_table[lpn])
        buffered = self.buffer.get(vtpn)
        if buffered is not None and lpn in buffered:
            # the individual entry is resident in the dirty buffer
            metrics.hits += 1
            return buffered[lpn]
        # Miss: load the whole page at its compressed size, evicting LRU
        # pages until it fits.
        self.read_translation_page(vtpn, "load", result)
        runs = self._count_runs(vtpn)
        size = min(PAGE_HEADER_BYTES + runs * RUN_BYTES, self.max_page_bytes)
        budget = self.page_budget
        while budget.used + size > budget.capacity:
            victim = next(iter(pages), None)
            if victim is None:  # pragma: no cover - size is capped
                raise CacheCapacityError(
                    "S-FTL page area cannot hold the loaded page")
            self._evict_page(victim, result)
        page = CachedPage(runs, size)
        if vtpn in self.buffer:
            # absorb the page's parked dirty entries
            page.overrides.update(self._pop_parked(vtpn))
        budget.used += size  # the loop above made room
        pages[vtpn] = page
        return page.overrides.get(lpn, self.flash_table[lpn])

    def _evict_page(self, vtpn: int, result: AccessResult) -> None:
        page = self.pages.pop(vtpn)
        budget, charged = self.page_budget, page.charged_bytes
        if charged > budget.used:
            budget.release(charged)  # raises the underflow CacheError
        budget.used -= charged
        self.metrics.replacements += 1
        overrides = page.overrides
        if not overrides:
            return
        # Sparsely dirty pages park their entries in the dirty buffer to
        # postpone the writeback (the S-FTL dirty-buffer optimisation).
        buffer_budget = self.buffer_budget
        if (buffer_budget is not None
                and len(overrides) <= SPARSE_DIRTY_LIMIT):
            need = len(overrides) * BUFFER_ENTRY_BYTES
            if buffer_budget.used + need > buffer_budget.capacity:
                self._flush_buffer_group(result)
            if buffer_budget.used + need <= buffer_budget.capacity:
                self.buffer.setdefault(vtpn, {}).update(overrides)
                buffer_budget.used += need
                return
        self.metrics.dirty_replacements += 1
        # whole page is cached: a single full-page program suffices
        self.write_translation_page(vtpn, dict(overrides), result)

    def _flush_buffer_group(self, result: AccessResult) -> None:
        """Write back the buffer's largest per-page group of entries."""
        buffer = self.buffer
        if not buffer:
            return
        vtpn = max(buffer, key=lambda v: len(buffer[v]))
        entries = self._pop_parked(vtpn)
        self.metrics.dirty_replacements += 1
        self.metrics.replacements += 1
        # partial update: read-modify-write
        self.read_translation_page(vtpn, "writeback", result)
        self.write_translation_page(vtpn, entries, result)

    def _record_mapping(self, lpn: int, ppn: int,
                        result: AccessResult) -> None:
        # no touch: ``_translate`` has just put the page at the MRU end,
        # and ``serve_request`` only programs and invalidates in between
        per_page = self.entries_per_page
        vtpn = lpn // per_page
        page = self.pages.get(vtpn)
        if page is None:
            buffered = self.buffer.get(vtpn)
            if buffered is None or lpn not in buffered:  # pragma: no cover
                # translate always installs the page or finds it parked
                raise FTLError(f"write to LPN {lpn} without a cached entry")
            buffered[lpn] = ppn
            return
        page.overrides[lpn] = ppn
        if not (lpn == page.last_lpn + 1 and ppn == page.last_ppn + 1):
            # capped at the page's entry count: a short last
            # translation page holds fewer entries
            page.runs = min(page.runs + 1, per_page,
                            self.ssd.logical_pages - vtpn * per_page)
        page.last_lpn = lpn
        page.last_ppn = ppn
        size = min(PAGE_HEADER_BYTES + page.runs * RUN_BYTES,
                   self.max_page_bytes)
        grow = size - page.charged_bytes
        if grow <= 0:
            return
        budget, pages = self.page_budget, self.pages
        while budget.used + grow > budget.capacity:
            for victim in pages:  # LRU first, never the growing page
                if victim != vtpn:
                    break
            else:
                # the growing page alone no longer fits: write it back
                # and drop it (the next access reloads it compact)
                self._evict_page(vtpn, result)
                return
            self._evict_page(victim, result)
        budget.used += grow  # the loop above made room
        page.charged_bytes = size

    def _gc_update_cached(self, lpns: List[int],
                          ppns: List[int]) -> Dict[int, int]:
        missed: Dict[int, int] = {}
        per_page = self.entries_per_page
        get_page, buffer = self.pages.get, self.buffer
        for lpn, ppn in zip(lpns, ppns):
            vtpn = lpn // per_page
            page = get_page(vtpn)
            if page is not None:
                # GC updates bypass the size heuristic; sizes refresh on
                # the next load.  Content correctness is unaffected.
                page.overrides[lpn] = ppn
            elif lpn in buffer.get(vtpn, ()):
                buffer[vtpn][lpn] = ppn
            else:
                missed[lpn] = ppn
        return missed

    def _gc_flush_extras(self, vtpns: List[int]) -> Dict[int, int]:
        """GC folds the parked entries of ``vtpns`` into their forced
        updates."""
        extras: Dict[int, int] = {}
        buffer = self.buffer
        for vtpn in vtpns:
            if vtpn in buffer:
                extras.update(self._pop_parked(vtpn))
        return extras

    def _pop_parked(self, vtpn: int) -> Dict[int, int]:
        """Pop ``vtpn``'s parked entries and free their buffer bytes.

        GC folds them into a forced update; a load absorbs them and a
        buffer-group flush writes them back.
        """
        entries = self.buffer.pop(vtpn, None)
        if not entries:
            return {}
        buffer_budget = self.buffer_budget
        if buffer_budget is not None:
            freed = len(entries) * BUFFER_ENTRY_BYTES
            if freed > buffer_budget.used:
                buffer_budget.release(freed)  # raises the underflow CacheError
            buffer_budget.used -= freed
        return entries

    def cache_peek(self, lpn: int) -> Optional[int]:
        """Cached PPN for ``lpn`` without touching recency."""
        self._check_lpn(lpn)
        vtpn = lpn // self.entries_per_page
        page = self.pages.get(vtpn)
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
        per_page, pages = self.entries_per_page, self.ssd.logical_pages
        for vtpn, page in reversed(self.pages.items()):
            # a short last translation page holds fewer entries
            snapshot.append((min(per_page, pages - vtpn * per_page),
                             len(page.overrides)))
        for vtpn, entries in self.buffer.items():
            snapshot.append((len(entries), len(entries)))
        return snapshot

    def _take_dirty_entries(self) -> Dict[int, Dict[int, int]]:
        grouped: Dict[int, Dict[int, int]] = {}
        for vtpn, page in reversed(self.pages.items()):
            if page.overrides:
                grouped[vtpn] = page.overrides
                page.overrides = {}
        for vtpn in list(self.buffer):
            grouped.setdefault(vtpn, {}).update(self._pop_parked(vtpn))
        return grouped
