"""TPFTL: the paper's translation-page-level caching FTL (§4).

The mapping cache is organised as **two-level LRU lists**: a page-level
list of TP nodes, one per translation page with at least one cached
entry, each holding its cached entries in LRU order.  A TP node's
position in the page-level list is decided by its *page-level hotness* —
the mean hotness (global access sequence number) of its entry nodes — so
a node containing the hottest entry can still age toward the cold end if
it also shelters many cold entries (§4.2).

Entries are stored compressed: the LPN is implied by the node's VTPN plus
the in-page offset, so an entry costs 6 bytes instead of DFTL's 8
(§4.1) — more entries fit in the same byte budget (Fig 10).

Four techniques are individually switchable via
:class:`~repro.config.TPFTLConfig`, matching the ablation monograms of
Fig 7/8:

* ``r`` request-level prefetching (§4.3),
* ``s`` selective prefetching with the TP-node counter (§4.3),
* ``b`` batch-update replacement (§4.4),
* ``c`` clean-first replacement (§4.4),

with the §4.5 integration rules: prefetching never crosses a
translation-page boundary, and prefetch-induced replacement is confined
to a single cached TP node, so one address translation costs at most one
translation-page read plus one translation-page update.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple

from ..cache import ByteBudget, LRUList, LRUNode
from ..config import (TPFTL_ENTRY_BYTES, TPFTL_NODE_BYTES,
                      SimulationConfig, TPFTLConfig)
from ..errors import (CacheCapacityError, FTLError, SanitizerError,
                      SimInvariantError)
from ..types import TRANSLATION_PAGE, UNMAPPED, AccessResult, Request
from .base import BaseFTL


class EntryNode:
    """One cached mapping entry (offset-compressed LPN -> PPN)."""

    __slots__ = ("lpn", "ppn", "dirty", "hot_seq", "prefetched")

    def __init__(self, lpn: int, ppn: int, hot_seq: int,
                 prefetched: bool = False) -> None:
        self.lpn = lpn
        self.ppn = ppn
        self.dirty = False
        self.hot_seq = hot_seq
        self.prefetched = prefetched


class TPNode(LRUNode):
    """A translation-page node: the cluster of cached entries of one
    translation page, keyed by LPN in entry-level LRU order."""

    __slots__ = ("vtpn", "entries", "hot_sum", "dirty_count")

    def __init__(self, vtpn: int) -> None:
        super().__init__()
        self.vtpn = vtpn
        #: LPN -> entry node; first = LRU, last = MRU
        self.entries: OrderedDict[int, EntryNode] = OrderedDict()
        #: sum of the entries' ``hot_seq``; the inherited ``hotness``
        #: slot is the page-level hotness (§4.2), ``hot_sum /
        #: len(entries)``, refreshed wherever either changes:
        #: ``TPFTL._insert_entry``, ``TPFTL._evict_one`` and the
        #: touch on a hit or a write.  It stays that float quotient:
        #: cross-multiplied integers break float ties differently.
        self.hot_sum = 0
        #: how many of ``entries`` are dirty
        self.dirty_count = 0

    def __len__(self) -> int:
        return len(self.entries)


def _take_dirty(nodes: Iterable[Optional[TPNode]],
                updates: Dict[int, int]) -> int:
    """The one dirty walk (batch update, GC piggyback, flush): move
    each node's dirty entries into ``updates``, MRU to LRU, marking them
    clean, until its ``dirty_count`` are taken; skips a None node.
    Returns how many it took."""
    taken = 0
    for node in nodes:
        if node is None or not node.dirty_count:
            continue
        left = node.dirty_count
        for entry in reversed(node.entries.values()):  # MRU to LRU
            if entry.dirty:
                updates[entry.lpn] = entry.ppn
                entry.dirty = False
                left -= 1
                if not left:
                    break
        taken += node.dirty_count
        node.dirty_count = 0
    return taken


class TPFTL(BaseFTL):
    """The paper's FTL: two-level LRU lists plus the r/s/b/c techniques."""

    name = "tpftl"

    def __init__(self, config: SimulationConfig,
                 prefill: bool = True) -> None:
        super().__init__(config, prefill=prefill)
        cache_cfg = config.resolved_cache()
        self.techniques: TPFTLConfig = config.tpftl
        budget_bytes = cache_cfg.entry_budget_bytes(self.ssd.gtd_bytes)
        if budget_bytes < TPFTL_NODE_BYTES + TPFTL_ENTRY_BYTES:
            raise CacheCapacityError(
                f"budget {budget_bytes}B cannot hold one TP node + entry")
        self.budget = ByteBudget(budget_bytes)
        self.page_list: LRUList[TPNode] = LRUList()  # hotness-ordered: head = hottest
        self.by_vtpn: Dict[int, TPNode] = {}
        #: §4.3 counter of TP-node count changes (+1 load, -1 evict)
        self.node_counter = 0
        #: whether selective prefetching is currently active
        self.selective_active = False
        #: global access sequence used as entry hotness
        self._hot_seq = 0

    # ==================================================================
    # Mapping-cache policy
    # ==================================================================
    def _translate(self, lpn: int, request: Request,
                   result: AccessResult) -> int:
        self.metrics.lookups += 1
        # ``serve_request`` bounds-checked the LPN: plain arithmetic here,
        # in ``_record_mapping`` and in ``_insert_entry``
        vtpn = lpn // self.entries_per_page
        node = self.by_vtpn.get(vtpn)
        if node is not None:
            entries = node.entries
            entry = entries.get(lpn)
            if entry is not None:
                self.metrics.hits += 1
                if entry.prefetched:
                    self.metrics.prefetch_hits += 1
                    entry.prefetched = False
                # §4.2 touch: re-seat the node only if it is now out of
                # order.  Evictions heat a node without re-sorting it (see
                # :meth:`_evict_one`), so it may move down as well as up.
                seq = self._hot_seq = self._hot_seq + 1
                node.hot_sum += seq - entry.hot_seq
                entry.hot_seq = seq
                entries.move_to_end(lpn)
                hotness = node.hotness = node.hot_sum / len(entries)
                if node.prev.hotness < hotness or node.next.hotness > hotness:
                    self.page_list.settle(node)
                return entry.ppn
        # ---- miss: one translation-page read serves the demanded entry
        # plus any prefetched ones (all within this translation page).
        prefetch_lpns = self._plan_prefetch(lpn, node, request)
        if self.sanitizer is not None:
            self.sanitizer.note_prefetch_plan(self, lpn, prefetch_lpns)
        # ``read_translation_page(vtpn, "load", result)``, inlined
        ptpn = self.gtd[vtpn]
        if ptpn == UNMAPPED:
            self.ptpn_of(vtpn)  # raises the unmapped slot's error
        self.flash.read(ptpn, TRANSLATION_PAGE)
        result.translation_reads += 1
        self.metrics.trans_reads_load += 1
        # priced once: draining the entry's own node frees its bytes too
        need = TPFTL_ENTRY_BYTES + (TPFTL_NODE_BYTES if node is None else 0)
        budget = self.budget
        if budget.used + need > budget.capacity:
            self._make_room(need, result)
        demanded = self._insert_entry(lpn, self.flash_table[lpn], False)
        if prefetch_lpns:
            self._prefetch(prefetch_lpns, result, demanded)
        return demanded.ppn

    def _record_mapping(self, lpn: int, ppn: int,
                        result: AccessResult) -> None:
        node = self.by_vtpn.get(lpn // self.entries_per_page)
        entry = node.entries.get(lpn) if node is not None else None
        if node is None or entry is None:  # pragma: no cover - installed
            raise FTLError(f"write to LPN {lpn} without a cached entry")
        entry.ppn = ppn
        if not entry.dirty:  # exact: ``_take_dirty`` stops at the count
            entry.dirty = True
            node.dirty_count += 1
        # the §4.2 touch, as on a hit in ``_translate``
        seq = self._hot_seq = self._hot_seq + 1
        node.hot_sum += seq - entry.hot_seq
        entry.hot_seq = seq
        entries = node.entries
        entries.move_to_end(lpn)
        hotness = node.hotness = node.hot_sum / len(entries)
        if node.prev.hotness < hotness or node.next.hotness > hotness:
            self.page_list.settle(node)

    def _gc_update_cached(self, lpns: List[int],
                          ppns: List[int]) -> Dict[int, int]:
        missed: Dict[int, int] = {}
        per_page = self.entries_per_page
        by_vtpn = self.by_vtpn
        # the LPNs are valid pages' metadata: in range, as in _translate
        for lpn, ppn in zip(lpns, ppns):
            node = by_vtpn.get(lpn // per_page)
            entry = node.entries.get(lpn) if node is not None else None
            if entry is None:
                missed[lpn] = ppn
                continue
            entry.ppn = ppn
            if not entry.dirty:  # exact: ``_take_dirty`` stops at the count
                entry.dirty = True
                node.dirty_count += 1
        return missed

    def _gc_flush_extras(self, vtpns: List[int]) -> Dict[int, int]:
        """Piggyback cached dirty entries onto GC's forced updates of
        ``vtpns`` (§4.4): every page's, MRU to LRU, in one call."""
        extras: Dict[int, int] = {}
        if self.techniques.batch_update:
            self.metrics.batch_cleaned_entries += _take_dirty(
                map(self.by_vtpn.get, vtpns), extras)
        return extras

    def cache_peek(self, lpn: int) -> Optional[int]:
        """Cached PPN for ``lpn`` without touching recency."""
        self._check_lpn(lpn)
        node = self.by_vtpn.get(lpn // self.entries_per_page)
        if node is None:
            return None
        entry = node.entries.get(lpn)
        return entry.ppn if entry is not None else None

    # ==================================================================
    # Loading policy (§4.3)
    # ==================================================================
    def _plan_prefetch(self, lpn: int, node: Optional[TPNode],
                       request: Request) -> List[int]:
        """LPNs to prefetch alongside a missed ``lpn`` (page-bounded);
        ``node`` is its translation page's TP node, None if uncached.

        Both techniques ask for a run that starts right after ``lpn``,
        so the plan is one range up to the farther of the two ends.
        """
        techniques = self.techniques
        stop = lpn  # last LPN wanted; ``lpn`` itself means none
        if techniques.request_prefetch and request.npages > 1:
            # Translate the whole request at once: load every entry the
            # request still needs from this translation page.
            stop = request.end_lpn - 1
        per_page = self.entries_per_page
        first_in_page = lpn // per_page * per_page
        if (techniques.selective_prefetch and self.selective_active
                and node is not None):
            # Length = number of cached predecessors consecutive to the
            # demanded entry within the same translation page.
            probe = lpn - 1
            while probe >= first_in_page and probe in node.entries:
                probe -= 1
            length = lpn - 1 - probe
            stop = max(stop, lpn + length)
        if stop <= lpn:
            return []
        return list(range(lpn + 1, min(stop, first_in_page + per_page - 1,
                                       self.ssd.logical_pages - 1) + 1))

    def _prefetch(self, lpns: Iterable[int], result: AccessResult,
                  protect: EntryNode) -> None:
        """Insert prefetched entries under the §4.5 replacement rule.

        Evictions on behalf of prefetched entries are confined to the
        single TP node that was coldest when prefetching began; when it
        runs out of entries the remaining prefetch length is dropped.
        The just-demanded entry (``protect``) is never a victim, so its
        node, every planned LPN's, stays: an entry costs its own bytes.
        """
        allowed_victim: Optional[TPNode] = None
        sanitizer = self.sanitizer
        if sanitizer is not None:
            sanitizer.note_prefetch_begin()
        entries = self.by_vtpn[
            protect.lpn // self.entries_per_page].entries
        budget, flash_table = self.budget, self.flash_table
        inserted = 0
        for lpn in lpns:  # the plan stays in range, as in _translate
            if lpn in entries:
                continue  # already cached; nothing to load
            if budget.used + TPFTL_ENTRY_BYTES > budget.capacity:
                if allowed_victim is None:  # ``page_list.lru``, never empty
                    allowed_victim = self.page_list.tail.prev  # type: ignore[assignment]
                if not self._make_room(TPFTL_ENTRY_BYTES, result,
                                       only_node=allowed_victim,
                                       protect=protect):
                    break  # §4.5: reduce the prefetching length
            self._insert_entry(lpn, flash_table[lpn], True)
            inserted += 1
        self.metrics.prefetched_entries += inserted
        if sanitizer is not None:
            sanitizer.note_prefetch_end()

    # ==================================================================
    # Insertion and replacement (§4.4)
    # ==================================================================
    def _insert_entry(self, lpn: int, ppn: int,
                      prefetched: bool) -> EntryNode:
        """Create an entry node (and TP node if needed) in the cache;
        the caller made room (past the budget raises ``CacheError``)."""
        vtpn = lpn // self.entries_per_page
        by_vtpn, budget = self.by_vtpn, self.budget
        node = by_vtpn.get(vtpn)
        if node is None:
            node = by_vtpn[vtpn] = TPNode(vtpn)
            # A new node carries the newest (hottest) entry, so it starts
            # at the hot end; settle then seats it exactly.
            self.page_list.push_mru(node)
            budget.charge(TPFTL_NODE_BYTES)
            self._bump_counter(+1)
        entries = node.entries
        if lpn in entries:
            raise SimInvariantError(
                f"LPN {lpn} is already cached in TP node {vtpn}")
        seq = self._hot_seq = self._hot_seq + 1
        entry = entries[lpn] = EntryNode(lpn, ppn, seq, prefetched)
        node.hot_sum += seq
        hotness = node.hotness = node.hot_sum / len(entries)
        if budget.used + TPFTL_ENTRY_BYTES > budget.capacity:
            budget.charge(TPFTL_ENTRY_BYTES)  # raises the overflow CacheError
        budget.used += TPFTL_ENTRY_BYTES
        if node.prev.hotness < hotness or node.next.hotness > hotness:
            self.page_list.settle(node)
        return entry

    def _make_room(self, need: int, result: AccessResult,
                   only_node: Optional[TPNode] = None,
                   protect: Optional[EntryNode] = None) -> bool:
        """Evict entries until ``need`` bytes fit; True on success.

        ``only_node`` confines evictions to one TP node (§4.5 rule 2 for
        prefetching); demanded loads pass None and may drain any number
        of nodes, coldest first.  ``protect`` is never chosen as victim.
        """
        budget, page_list = self.budget, self.page_list
        while budget.used + need > budget.capacity:
            victim_node: TPNode = page_list.tail.prev  # type: ignore[assignment]
            if only_node is not None:
                victim_node = only_node
            if victim_node is page_list.head or not victim_node.entries:
                return False
            if not self._evict_one(victim_node, result, protect=protect):
                return False
        return True

    def _evict_one(self, node: TPNode, result: AccessResult,
                   protect: Optional[EntryNode] = None) -> bool:
        """Evict one entry from ``node`` per the §4.4 replacement policy.

        Returns False when nothing in the node is evictable (only the
        protected entry remains).
        """
        victim = self._choose_victim(node, protect=protect)
        if victim is None:
            return False
        if self.sanitizer is not None:
            self.sanitizer.note_eviction(self, node, victim, protect)
        self.metrics.replacements += 1
        if victim.dirty:  # written back here, so it leaves clean
            self.metrics.dirty_replacements += 1
            self._writeback(node, victim, result)
        entries = node.entries
        if entries.pop(victim.lpn, None) is not victim:
            raise SimInvariantError(
                f"LPN {victim.lpn} is not cached in TP node {node.vtpn}")
        node.hot_sum -= victim.hot_seq
        count = len(entries)
        node.hotness = node.hot_sum / count if count else 0.0
        budget = self.budget
        if TPFTL_ENTRY_BYTES > budget.used:
            # raises the underflow CacheError
            budget.release(TPFTL_ENTRY_BYTES)
        budget.used -= TPFTL_ENTRY_BYTES
        if not count:
            self.page_list.remove(node)
            del self.by_vtpn[node.vtpn]
            budget.release(TPFTL_NODE_BYTES)
            self._bump_counter(-1)
        # NOTE: no repositioning on eviction.  Dropping a cold entry
        # raises the node's mean hotness; promoting it here would rotate
        # victims across every node so no node ever fully drains — and
        # the §4.3 TP-node counter would never move.  The node keeps its
        # cold slot until one of its entries is actually accessed.
        return True

    def _choose_victim(self, node: TPNode,
                       protect: Optional[EntryNode] = None
                       ) -> Optional[EntryNode]:
        """Clean-first (if enabled): LRU clean entry, else LRU entry."""
        if (self.techniques.clean_first
                and node.dirty_count < len(node.entries)):
            for entry in node.entries.values():
                if not entry.dirty and entry is not protect:
                    return entry
        for entry in node.entries.values():
            if entry is not protect:
                return entry
        return None

    def _writeback(self, node: TPNode, victim: EntryNode,
                   result: AccessResult) -> None:
        """Write back a dirty victim; with 'b', its whole TP node's dirty
        set rides along in the same translation-page update."""
        # the victim heads the update; the walk retakes it in place
        updates: Dict[int, int] = {victim.lpn: victim.ppn}
        if self.techniques.batch_update:
            self.metrics.batch_cleaned_entries += _take_dirty(
                (node,), updates) - 1
        else:
            victim.dirty = False
            node.dirty_count -= 1
        self.read_translation_page(node.vtpn, "writeback", result)
        self.write_translation_page(node.vtpn, updates, result)
        if self.sanitizer is not None:
            self.sanitizer.note_writeback(self, node, victim)

    # ==================================================================
    # Selective-prefetch counter (§4.3)
    # ==================================================================
    def _bump_counter(self, delta: int) -> None:
        if not self.techniques.selective_prefetch:
            return
        self.node_counter += delta
        threshold = self.techniques.selective_threshold
        if self.node_counter <= -threshold:
            self.selective_active = True
            self.node_counter = 0
        elif self.node_counter >= threshold:
            self.selective_active = False
            self.node_counter = 0

    # ==================================================================
    # Introspection
    # ==================================================================
    def cache_snapshot(self) -> List[Tuple[int, int]]:
        """(entries, dirty) per cached translation page."""
        return [(len(node), node.dirty_count)
                for node in self.by_vtpn.values()]

    def _take_dirty_entries(self) -> Dict[int, Dict[int, int]]:
        grouped: Dict[int, Dict[int, int]] = {}
        for vtpn, node in self.by_vtpn.items():
            updates: Dict[int, int] = {}
            if _take_dirty((node,), updates):
                grouped[vtpn] = updates
        return grouped

    @property
    def cached_entry_count(self) -> int:
        """Mapping entries currently cached."""
        return sum(len(node) for node in self.by_vtpn.values())

    @property
    def cached_node_count(self) -> int:
        """TP nodes currently cached."""
        return len(self.by_vtpn)

    def assert_invariants(self) -> None:
        """Check structural invariants; used by property-based tests.

        Delegates to the shared :mod:`repro.analysis.checkers` rules
        (SAN002 structure, SAN003 hotness, SAN004 budget) so the tests
        and FTLSan enforce the same definitions.  The page list is
        hotness-ordered at insertion/access time but evictions
        deliberately do not re-sort (see :meth:`_evict_one`), so
        ordering is not globally asserted here.
        """
        from ..analysis.checkers import (check_budget, check_hotness,
                                         check_two_level_lru)

        def fail(code: str, message: str) -> None:
            raise SanitizerError(code, message)

        check_two_level_lru(self, fail)
        check_hotness(self, fail)
        check_budget(self, fail)
