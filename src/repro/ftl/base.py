"""Shared FTL machinery: translation pages, prefill, and garbage collection.

``BaseFTL`` implements everything the paper's FTLs have in common —

* the on-flash mapping table packed into translation pages, located via
  the RAM-resident Global Translation Directory (``gtd``, a list of one
  PTPN per VTPN; an entry lives in page ``lpn // entries_per_page``);
* the write path (out-of-place program, invalidate, mapping update);
* garbage collection of both data and translation blocks, with DFTL-style
  batch updates of translation pages for migrated data pages;
* the cost/metric accounting of §3's models.

Subclasses provide only the *mapping-cache policy*: how a translation is
served (:meth:`_translate`), how a fresh mapping is recorded
(:meth:`_record_mapping`), and how GC probes/flushes the cache.  Every
policy hook has a default, and the defaults together are the FTL with no
cache to manage — the whole table in RAM (§5.1's optimal FTL).

A key representation choice: ``flash_table[lpn]`` always holds what the
on-flash translation pages currently say.  Cached dirty entries diverge
from it until a translation-page write folds them back in.  This gives a
ground truth for consistency tests and makes translation-page content
implicit (no byte arrays to maintain).  The table is an array of 32-bit
words (``WORD_TYPECODE``), 4 B per logical page; reading an entry boxes
an int, so a loop over a whole translation page should slice
(``flash_table[a:b].tolist()``).
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, TYPE_CHECKING, Tuple

from ..config import (GC_MAX_COLLECTIONS_PER_ACCESS, GC_RESERVE_BLOCKS,
                      SimulationConfig)
from ..errors import (DeviceWornOutError, FTLError, OutOfSpaceError,
                      TranslationError)
from ..flash import FlashMemory
from ..flash.block import Block
from ..metrics import FTLMetrics
from ..types import (AccessResult, DATA_BLOCK, DATA_PAGE, Op, READ,
                     RETIRED_BLOCK, Request, TRANSLATION_BLOCK,
                     TRANSLATION_PAGE, UNMAPPED, WORD_TYPECODE, WRITE)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..analysis.sanitizer import FTLSan

#: what the mapping cache reads a translation page for (GC counts its own)
_READ_CAUSES = ("load", "writeback")
#: logical pages :meth:`BaseFTL.prefill` programs per batch, which bounds
#: the transient list of boxed PPNs a batch hands back
_PREFILL_CHUNK = 4096


def _page_request(op: Op, lpn: int) -> Request:
    """The one-page request ``read_page`` / ``write_page`` stand for.

    ``Request`` refuses a negative LPN with a bare ``ValueError``; at an
    FTL entry point it is as untranslatable as an LPN past the end.
    """
    try:
        return Request(0.0, op, lpn, 1)
    except ValueError as exc:
        raise TranslationError(str(exc)) from None


class BaseFTL:
    """Page-level FTL over a flash array, minus the mapping-cache policy."""

    #: short identifier used by the factory and reports
    name: str = "base"
    #: False for FTLs that keep the whole table in RAM (no translation
    #: pages on flash at all); flips off prefill/GC of translation blocks.
    uses_translation_pages: bool = True

    def __init__(self, config: SimulationConfig,
                 prefill: bool = True) -> None:
        self.config = config
        self.ssd = config.ssd
        self.flash = FlashMemory(config.ssd)
        #: mapping entries per translation page: ``lpn`` lives in page
        #: ``lpn // entries_per_page`` (§4.1)
        self.entries_per_page = config.ssd.entries_per_translation_page
        #: the GTD, VTPN -> PTPN (``UNMAPPED`` until the page is written);
        #: read and written in place, checked by :meth:`ptpn_of`
        self.gtd: List[int] = [UNMAPPED] * config.ssd.translation_pages
        #: authoritative on-flash mapping: LPN -> PPN as the translation
        #: pages currently record it.
        self.flash_table: "array[int]" = (
            array(WORD_TYPECODE, [UNMAPPED]) * config.ssd.logical_pages)
        self.metrics = FTLMetrics()
        #: FTLSan runtime checker, or None when config.sanitizer is off.
        #: Imported lazily: repro.analysis imports FTL types for checks.
        self.sanitizer: Optional["FTLSan"] = None
        if config.sanitizer.enabled:
            from ..analysis.sanitizer import FTLSan
            self.sanitizer = FTLSan(self, config.sanitizer)
        if prefill:
            self.prefill()

    # ------------------------------------------------------------------
    # Policy hooks (the mapping cache) — what subclasses override.  The
    # defaults are the table-in-RAM FTL: with nothing cached apart from
    # it, ``flash_table`` doubles as the RAM table, so every lookup
    # hits, GC updates it in place and nothing is ever dirty.
    # ------------------------------------------------------------------
    def _translate(self, lpn: int, request: Request,
                   result: AccessResult) -> int:
        """Resolve ``lpn`` to its current PPN, managing the cache.

        Must count exactly one lookup (and hit, if served from cache) in
        ``self.metrics`` and charge any flash traffic to ``result`` via
        the ``read_translation_page``/``write_translation_page`` helpers.
        ``request`` is the host request being served, so request-aware
        policies can prefetch.
        """
        metrics = self.metrics
        metrics.lookups += 1
        metrics.hits += 1
        return self.flash_table[lpn]

    def _record_mapping(self, lpn: int, ppn: int,
                        result: AccessResult) -> None:
        """Record a fresh LPN->PPN mapping after a user write.

        Called immediately after :meth:`_translate` for the same LPN, so
        demand-based caches are guaranteed to hold the entry; marking it
        dirty must not incur flash traffic here.
        """
        self.flash_table[lpn] = ppn

    def _gc_update_cached(self, lpns: List[int],
                          ppns: List[int]) -> Dict[int, int]:
        """GC hook: a data victim's pages moved, ``lpns[i]`` to
        ``ppns[i]``.  Update the cached entries among them in place
        (making them dirty) and return the rest, the GC misses, as
        {lpn: ppn}.  Must not touch flash."""
        table = self.flash_table
        for lpn, ppn in zip(lpns, ppns):
            table[lpn] = ppn
        return {}

    def _gc_flush_extras(self, vtpns: List[int]) -> Dict[int, int]:
        """GC hook, called once per collection: extra cached dirty
        entries of the translation pages ``vtpns`` to fold into their
        forced update (TPFTL's piggyback), as {lpn: ppn}.  The
        implementation must mark those entries clean."""
        return {}

    def _take_dirty_entries(self) -> Dict[int, Dict[int, int]]:
        """:meth:`flush` hook, the whole-cache form of the one above:
        hand over every cached dirty entry as {vtpn: {lpn: ppn}} and
        mark them all clean."""
        return {}

    def cache_snapshot(self) -> List[Tuple[int, int]]:
        """Describe the cache as (entries, dirty) per cached translation
        page, for the Fig 1/2 sampler."""
        return []

    def _peek(self, lpn: int) -> Optional[int]:
        """:meth:`cache_peek` hook: the cached PPN of an in-range
        ``lpn`` without touching recency, or None."""
        return None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def serve_request(self, request: Request) -> AccessResult:
        """Serve one host request; returns its flash-operation costs.

        The one way into the per-page data path.  The request's LPN
        range is checked first, so a request that leaves the device is
        refused before any of its pages is served or counted.  Each page,
        in LPN order, is translated, read, programmed or trimmed on
        flash, its mapping recorded and GC run if the free pool is low;
        FTLSan (when attached) then sees it, the point where every
        invariant should hold.
        """
        first = request.lpn
        stop = first + request.npages
        if first < 0 or stop > self.ssd.logical_pages:
            raise TranslationError(
                f"LPNs [{first}, {stop}) outside device "
                f"({self.ssd.logical_pages} pages)")
        result = AccessResult()
        op = request.op
        translate = self._translate
        record_mapping = self._record_mapping
        flash = self.flash
        free = flash._free
        gc_trigger = flash._gc_trigger
        metrics = self.metrics
        sanitizer = self.sanitizer
        for lpn in range(first, stop):
            ppn_old = translate(lpn, request, result)
            if op is READ:
                metrics.user_page_reads += 1
                if ppn_old == UNMAPPED:
                    # trimmed/never-written page: real SSDs return
                    # zeroes without touching flash
                    metrics.unmapped_reads += 1
                else:
                    flash.read(ppn_old, DATA_PAGE)
                    result.data_reads += 1
            elif op is WRITE:
                metrics.user_page_writes += 1
                # out of place: the old copy, if any, is invalidated by
                # the program that supersedes it
                ppn_new = flash.program(DATA_PAGE, lpn, ppn_old)
                result.data_writes += 1
                record_mapping(lpn, ppn_new, result)
            else:  # TRIM: unmap without writing new data
                metrics.user_page_trims += 1
                if ppn_old != UNMAPPED:
                    flash.invalidate(ppn_old)
                    record_mapping(lpn, UNMAPPED, result)
            # ``flash.gc_needed`` inlined (one len() compare) so pages
            # that trigger no GC skip the ``_run_gc`` call frame
            if len(free) <= gc_trigger:
                self._run_gc(result)
            if sanitizer is not None:
                sanitizer.after_op(lpn, op)
        return result

    def read_page(self, lpn: int) -> AccessResult:
        """Serve a single-page read: a one-page request."""
        return self.serve_request(_page_request(READ, lpn))

    def write_page(self, lpn: int) -> AccessResult:
        """Serve a single-page write: a one-page request."""
        return self.serve_request(_page_request(WRITE, lpn))

    def _check_lpn(self, lpn: int) -> None:
        """Refuse an LPN outside the device: ``lookup_current`` and
        ``cache_peek`` take caller input, not a served page (a negative
        LPN would index ``flash_table`` from its end)."""
        if not 0 <= lpn < self.ssd.logical_pages:
            raise ValueError(
                f"LPN {lpn} outside logical space "
                f"[0, {self.ssd.logical_pages})")

    def ptpn_of(self, vtpn: int) -> int:
        """PTPN of translation page ``vtpn``: the one checked GTD read,
        which raises if the page was never written."""
        ptpn = self.gtd[vtpn]
        if ptpn == UNMAPPED:
            raise TranslationError(
                f"translation page {vtpn} has no physical location")
        return ptpn

    def cache_peek(self, lpn: int) -> Optional[int]:
        """The cached PPN for ``lpn`` without touching recency, or None;
        raises ``ValueError`` for an LPN outside the device.

        Only used by tests and debugging.
        """
        self._check_lpn(lpn)
        return self._peek(lpn)

    def lookup_current(self, lpn: int) -> int:
        """The authoritative current PPN for ``lpn`` (cache wins)."""
        self._check_lpn(lpn)
        cached = self._peek(lpn)
        if cached is not None:
            return cached
        return self.flash_table[lpn]

    def flush(self) -> AccessResult:
        """Write every cached dirty entry back to flash.

        Not part of the paper's experiments (they never flush); exposed
        for tests and for users who want a consistent shutdown.
        """
        result = AccessResult()
        for vtpn, updates in sorted(self._take_dirty_entries().items()):
            self.read_translation_page(vtpn, "writeback", result)
            self.write_translation_page(vtpn, updates, result)
        self._run_gc(result)
        return result

    def check_consistency(self) -> None:
        """Raise :class:`FTLError` if internal invariants are broken.

        Verifies that every mapped LPN points at a valid data page whose
        recorded metadata is that LPN, and that every translation page in
        the GTD is valid flash.  Intended for tests; O(logical pages).
        """
        for lpn, ppn in enumerate(self.flash_table):
            current = self.lookup_current(lpn)
            if current == UNMAPPED:
                continue
            block = self.flash.block_of(current)
            offset = self.flash.offset_of(current)
            meta = block.meta(offset)
            if meta != lpn:
                raise FTLError(
                    f"LPN {lpn} maps to PPN {current} which holds "
                    f"meta {meta}")
        if self.uses_translation_pages:
            for vtpn in range(len(self.gtd)):
                ptpn = self.ptpn_of(vtpn)
                block = self.flash.block_of(ptpn)
                if block.meta(self.flash.offset_of(ptpn)) != vtpn:
                    raise FTLError(
                        f"GTD points VTPN {vtpn} at PPN {ptpn} holding "
                        f"{block.meta(self.flash.offset_of(ptpn))}")

    # ------------------------------------------------------------------
    # Prefill
    # ------------------------------------------------------------------
    def prefill(self) -> None:
        """Bring the device to the paper's "in full use" steady state.

        Writes every logical page once (sequentially) and materialises
        all translation pages, then zeroes the statistics so experiments
        measure only the trace.  The fill is purely mechanical, so it
        goes through :meth:`~repro.flash.FlashMemory.program_batch`:
        chunk-filled unless the fault plan is ordered (a program can
        fail or a cut is armed), one injector-consulted program per page
        when it is.
        """
        flash = self.flash
        pages = self.ssd.logical_pages
        for first in range(0, pages, _PREFILL_CHUNK):
            lpns = range(first, min(first + _PREFILL_CHUNK, pages))
            self.flash_table[first:lpns.stop] = array(
                WORD_TYPECODE, flash.program_batch(DATA_PAGE, lpns))
        if self.uses_translation_pages:
            self.gtd[:] = flash.program_batch(TRANSLATION_PAGE,
                                              range(len(self.gtd)))
        flash.stats.reset()
        self.metrics = FTLMetrics()

    # ------------------------------------------------------------------
    # Translation-page flash traffic (helpers for subclasses)
    # ------------------------------------------------------------------
    def read_translation_page(self, vtpn: int, cause: str,
                              result: AccessResult) -> None:
        """Read translation page ``vtpn``, charging to ``cause``."""
        if cause not in _READ_CAUSES:
            raise FTLError(f"unknown translation-read cause {cause!r}")
        self.flash.read(self.ptpn_of(vtpn), TRANSLATION_PAGE)
        result.translation_reads += 1
        if cause == "load":
            self.metrics.trans_reads_load += 1
        else:
            self.metrics.trans_reads_writeback += 1

    def write_translation_page(self, vtpn: int, updates: Dict[int, int],
                               result: AccessResult) -> None:
        """Write back translation page ``vtpn`` applying ``updates``.

        ``updates`` maps LPN -> new PPN for the entries changing in this
        update; unchanged entries are carried over implicitly (the
        flash_table already holds them).
        """
        self._fold(vtpn, updates)
        # the GTD slot names the copy this program supersedes
        gtd = self.gtd
        gtd[vtpn] = self.flash.program(TRANSLATION_PAGE, vtpn, gtd[vtpn])
        result.translation_writes += 1
        self.metrics.trans_writes_writeback += 1

    def _fold(self, vtpn: int, updates: Dict[int, int]) -> None:
        """Fold ``updates`` (LPN -> PPN) into ``flash_table``; every LPN
        must be one of translation page ``vtpn``'s."""
        flash_table = self.flash_table
        entries = self.entries_per_page
        first = vtpn * entries
        stop = min(first + entries, len(flash_table))
        for lpn, ppn in updates.items():
            if not first <= lpn < stop:
                raise FTLError(
                    f"update for LPN {lpn} does not belong to VTPN {vtpn}")
            flash_table[lpn] = ppn

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def _run_gc(self, result: AccessResult) -> None:
        """Collect victim blocks while the free pool is low.

        At most ``GC_MAX_COLLECTIONS_PER_ACCESS`` victims are collected
        per invocation so GC cost is amortised across requests (as in
        FlashSim) rather than served in multi-millisecond bursts; the
        limit is ignored while the pool sits at the emergency reserve.
        """
        flash = self.flash
        # the pool level read off the deque, as in ``serve_request``
        free, gc_trigger = flash._free, flash._gc_trigger
        collected = 0
        while len(free) <= gc_trigger:
            if (collected >= GC_MAX_COLLECTIONS_PER_ACCESS
                    and len(free) > GC_RESERVE_BLOCKS):
                break
            victim = self._select_victim()
            if victim is None:
                if len(free) <= GC_RESERVE_BLOCKS:
                    if flash.is_worn:
                        raise DeviceWornOutError(
                            "free pool exhausted with "
                            f"{flash.retired_block_count} blocks "
                            f"retired and {flash.bad_page_count} "
                            "bad pages; media wear has consumed the "
                            "over-provisioned capacity")
                    raise OutOfSpaceError(
                        "free pool exhausted and no collectible blocks")
                break
            self._collect(victim, result)
            collected += 1
            if collected > len(flash.blocks):
                raise FTLError("GC did not converge")  # pragma: no cover

    def _gc_candidates(self) -> List[Block]:
        """The in-service, non-free blocks minus the write frontiers."""
        active = {
            block for block in (
                self.flash.active_block(DATA_BLOCK),
                self.flash.active_block(TRANSLATION_BLOCK),
            ) if block is not None
        }
        return [block for block in self.flash.blocks
                if not block.is_free
                and block.kind is not RETIRED_BLOCK
                and block not in active]

    def _select_victim(self) -> Optional[Block]:
        """Greedy selection off the flash array's counting victim index.

        Walking the non-empty buckets (``filter`` skips the rest in C)
        from the highest invalid count down, the first one holding a
        block that is not a write frontier holds
        exactly the blocks :class:`~repro.gc.GreedyPolicy` would rank
        top in a full scan of :meth:`_gc_candidates`; among them it takes
        the min erase count, then the min block id — the first-encountered
        block in scan order.  Frontier blocks stay indexed: they become
        candidates as soon as the frontier moves past them.
        """
        flash = self.flash
        blocks = flash.blocks
        active_data, active_trans = flash._active_data, flash._active_trans
        for bucket in filter(None, reversed(flash.victim_index)):
            victim: Optional[Block] = None
            for block_id in bucket:
                block = blocks[block_id]
                if block is active_data or block is active_trans:
                    continue
                if (victim is None
                        or block.erase_count < victim.erase_count
                        or (block.erase_count == victim.erase_count
                            and block_id < victim.block_id)):
                    victim = block
            if victim is not None:
                return victim
        return None

    def _collect(self, victim: Block, result: AccessResult) -> None:
        kind = victim.kind
        if kind is DATA_BLOCK:
            self._collect_data_block(victim, result)
        elif kind is TRANSLATION_BLOCK:
            self._collect_translation_block(victim, result)
        else:  # pragma: no cover - selection excludes free blocks
            raise FTLError(f"cannot collect free block {victim.block_id}")
        # valid pages are migrated either way; a failed erase just means
        # the victim retires instead of rejoining the free pool.
        if self.flash.erase(victim.block_id):
            result.erases += 1
            if kind is DATA_BLOCK:
                self.metrics.erases_data += 1
            else:
                self.metrics.erases_translation += 1

    def _collect_data_block(self, victim: Block,
                            result: AccessResult) -> None:
        """Migrate a data victim's valid pages, then fix their mappings.

        The mechanical slice — reading the valid pages, programming
        their copies at the frontier, invalidating the originals — is
        the flash array's :meth:`~repro.flash.FlashMemory.migrate_valid`;
        the policy slice is :meth:`_gc_update_cached` (the cache hits),
        then :meth:`_gc_update_mappings` (the misses, if any).
        """
        metrics = self.metrics
        metrics.gc_data_collections += 1
        lpns, new_ppns = self.flash.migrate_valid(victim, DATA_PAGE)
        moved = len(lpns)
        metrics.gc_data_valid_migrated += moved
        if not moved:
            return
        result.data_reads += moved
        result.gc_data_reads += moved
        result.data_writes += moved
        result.gc_data_writes += moved
        metrics.data_reads_migration += moved
        metrics.data_writes_migration += moved
        missed = self._gc_update_cached(lpns, new_ppns)
        metrics.gc_update_lookups += moved
        metrics.gc_update_hits += moved - len(missed)
        if missed:
            self._gc_update_mappings(missed, result)

    def _gc_update_mappings(self, missed: Dict[int, int],
                            result: AccessResult) -> None:
        """Rewrite each translation page holding a GC miss once (DFTL's
        batch update), piggybacking :meth:`_gc_flush_extras` onto it.

        The hits are already applied, and the extras hook, called once
        for all the forced pages, still sees them as dirty.  The misses
        and the extras are folded into ``flash_table`` (one LPN is never
        both: a miss is uncached, an extra cached), then one
        ``relocate`` call moves the pages the GTD holds for the forced
        VTPNs, in ascending VTPN order: the cache hooks never touch
        flash and the rewrites never touch the cache.
        """
        per_page = self.entries_per_page
        # each miss's VTPN (``lpn // per_page``, mapped in C), first-miss
        # order deduplicated, then sorted
        forced_vtpns = sorted(dict.fromkeys(
            map(per_page.__rfloordiv__, missed)))
        table = self.flash_table
        for lpn, ppn in missed.items():
            table[lpn] = ppn
        for lpn, ppn in self._gc_flush_extras(forced_vtpns).items():
            table[lpn] = ppn
        gtd = self.gtd
        ptpns = [gtd[vtpn] for vtpn in forced_vtpns]
        if UNMAPPED in ptpns:
            self.ptpn_of(forced_vtpns[ptpns.index(UNMAPPED)])  # raises
        vtpns, new_ptpns = self.flash.relocate(ptpns, TRANSLATION_PAGE)
        if vtpns != forced_vtpns:
            raise FTLError(
                f"GTD slots of VTPNs {forced_vtpns} hold pages {vtpns}")
        self._translation_pages_moved(vtpns, new_ptpns, result)
        self.metrics.trans_reads_gc += len(vtpns)
        self.metrics.trans_writes_gc_update += len(vtpns)

    def _translation_pages_moved(self, vtpns: List[int], ptpns: List[int],
                                 result: AccessResult) -> None:
        """GC moved translation pages: repoint their GTD slots and
        charge one read and one write each to GC."""
        gtd = self.gtd
        for vtpn, ptpn in zip(vtpns, ptpns):
            gtd[vtpn] = ptpn
        moved = len(vtpns)
        result.translation_reads += moved
        result.gc_translation_reads += moved
        result.translation_writes += moved
        result.gc_translation_writes += moved

    def _collect_translation_block(self, victim: Block,
                                   result: AccessResult) -> None:
        metrics = self.metrics
        metrics.gc_translation_collections += 1
        vtpns, new_ptpns = self.flash.migrate_valid(
            victim, TRANSLATION_PAGE)
        moved = len(vtpns)
        metrics.gc_trans_valid_migrated += moved
        metrics.trans_reads_migration += moved
        metrics.trans_writes_migration += moved
        self._translation_pages_moved(vtpns, new_ptpns, result)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(pages={self.ssd.logical_pages})"
