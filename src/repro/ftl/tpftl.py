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
from ..config import SimulationConfig, TPFTLConfig
from ..errors import (CacheCapacityError, FTLError, SanitizerError,
                      SimInvariantError)
from ..types import AccessResult, Request
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
        #: len(entries)``, refreshed wherever either changes: ``add``,
        #: ``drop`` and ``TPFTL._touch``.  It stays that float quotient:
        #: cross-multiplied integers break float ties differently.
        self.hot_sum = 0
        self.dirty_count = 0

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, entry: EntryNode) -> None:
        """Insert an entry node at the MRU end of this TP node."""
        if entry.lpn in self.entries:
            raise SimInvariantError(
                f"LPN {entry.lpn} is already cached in TP node {self.vtpn}")
        self.entries[entry.lpn] = entry
        self.hot_sum += entry.hot_seq
        self.hotness = self.hot_sum / len(self.entries)

    def drop(self, entry: EntryNode) -> None:
        """Remove an entry node from this TP node."""
        if self.entries.pop(entry.lpn, None) is not entry:
            raise SimInvariantError(
                f"LPN {entry.lpn} is not cached in TP node {self.vtpn}")
        self.hot_sum -= entry.hot_seq
        count = len(self.entries)
        self.hotness = self.hot_sum / count if count else 0.0
        if entry.dirty:
            self.dirty_count -= 1

    def set_dirty(self, entry: EntryNode, dirty: bool) -> None:
        """Flip an entry's dirty flag, keeping counts in sync."""
        if entry.dirty != dirty:
            entry.dirty = dirty
            self.dirty_count += 1 if dirty else -1

    def dirty_entries(self) -> List[EntryNode]:
        """The node's dirty entry nodes, MRU to LRU."""
        return [e for e in reversed(self.entries.values()) if e.dirty]


class TPFTL(BaseFTL):
    """The paper's FTL: two-level LRU lists plus the r/s/b/c techniques."""

    name = "tpftl"

    def __init__(self, config: SimulationConfig,
                 prefill: bool = True) -> None:
        super().__init__(config, prefill=prefill)
        cache_cfg = config.resolved_cache()
        self.techniques: TPFTLConfig = config.tpftl
        self.entry_bytes = cache_cfg.tpftl_entry_bytes
        self.node_bytes = cache_cfg.tpftl_node_bytes
        budget_bytes = cache_cfg.entry_budget_bytes(self.gtd.size_bytes)
        if budget_bytes < self.node_bytes + self.entry_bytes:
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
        vtpn = lpn // self.geometry.entries_per_page
        node = self.by_vtpn.get(vtpn)
        if node is not None:
            entry = node.entries.get(lpn)
            if entry is not None:
                self.metrics.hits += 1
                if entry.prefetched:
                    self.metrics.prefetch_hits += 1
                    entry.prefetched = False
                self._touch(node, entry)
                return entry.ppn
        # ---- miss: one translation-page read serves the demanded entry
        # plus any prefetched ones (all within this translation page).
        prefetch_lpns = self._plan_prefetch(lpn, vtpn, request)
        if self.sanitizer is not None:
            self.sanitizer.note_prefetch_plan(self, lpn, prefetch_lpns)
        self.read_translation_page(vtpn, "load", result)
        demanded = self._insert_entry(lpn, self.flash_table[lpn],
                                      prefetched=False, result=result)
        if demanded is None:  # pragma: no cover - budget checked in init
            raise FTLError("could not make room for the demanded entry")
        self._prefetch(prefetch_lpns, result, protect=demanded)
        return demanded.ppn

    def _record_mapping(self, lpn: int, ppn: int,
                        result: AccessResult) -> None:
        node = self.by_vtpn.get(lpn // self.geometry.entries_per_page)
        entry = node.entries.get(lpn) if node is not None else None
        if node is None or entry is None:  # pragma: no cover - installed
            raise FTLError(f"write to LPN {lpn} without a cached entry")
        entry.ppn = ppn
        if not entry.dirty:  # ``node.set_dirty(entry, True)``, inlined
            entry.dirty = True
            node.dirty_count += 1
        self._touch(node, entry)

    def _gc_update_cached(self, lpns: List[int],
                          ppns: List[int]) -> Dict[int, int]:
        missed: Dict[int, int] = {}
        per_page = self.geometry.entries_per_page
        by_vtpn = self.by_vtpn
        # the LPNs are valid pages' metadata: in range, as in _translate
        for lpn, ppn in zip(lpns, ppns):
            node = by_vtpn.get(lpn // per_page)
            entry = node.entries.get(lpn) if node is not None else None
            if entry is None:
                missed[lpn] = ppn
                continue
            entry.ppn = ppn
            if not entry.dirty:  # ``node.set_dirty(entry, True)``, inlined
                entry.dirty = True
                node.dirty_count += 1
        return missed

    def _gc_flush_extras(self, vtpn: int) -> Dict[int, int]:
        """Piggyback cached dirty entries onto a forced GC update (§4.4)."""
        if not self.techniques.batch_update:
            return {}
        node = self.by_vtpn.get(vtpn)
        if node is None or not node.dirty_count:
            return {}
        extras: Dict[int, int] = {}
        for entry in node.dirty_entries():
            extras[entry.lpn] = entry.ppn
            node.set_dirty(entry, False)
        self.metrics.batch_cleaned_entries += len(extras)
        return extras

    def cache_peek(self, lpn: int) -> Optional[int]:
        """Cached PPN for ``lpn`` without touching recency."""
        node = self.by_vtpn.get(self.geometry.vtpn_of(lpn))
        if node is None:
            return None
        entry = node.entries.get(lpn)
        return entry.ppn if entry is not None else None

    # ==================================================================
    # Hotness maintenance (§4.2)
    # ==================================================================
    def _touch(self, node: TPNode, entry: EntryNode) -> None:
        """Bump an entry's hotness; re-seat its TP node if that put it
        out of order with a neighbour.

        Most touches leave the node where it is, and those end at the
        two compares.  Both are needed although a touch only heats the
        node: evictions raise a node's hotness without re-sorting (see
        :meth:`_drop_entry`), so the colder neighbour may have overtaken
        it since it was last settled, and it then moves *down*.
        """
        seq = self._hot_seq = self._hot_seq + 1
        node.hot_sum += seq - entry.hot_seq
        entry.hot_seq = seq
        entries = node.entries
        entries.move_to_end(entry.lpn)
        hotness = node.hotness = node.hot_sum / len(entries)
        if node.prev.hotness < hotness or node.next.hotness > hotness:
            self.page_list.settle(node)

    # ==================================================================
    # Loading policy (§4.3)
    # ==================================================================
    def _plan_prefetch(self, lpn: int, vtpn: int,
                       request: Request) -> List[int]:
        """LPNs to prefetch alongside a missed ``lpn`` (page-bounded).

        Both techniques ask for a run that starts right after ``lpn``,
        so the plan is one range up to the farther of the two ends.
        """
        techniques = self.techniques
        stop = lpn  # last LPN wanted; ``lpn`` itself means none
        if techniques.request_prefetch and request.npages > 1:
            # Translate the whole request at once: load every entry the
            # request still needs from this translation page.
            stop = request.end_lpn - 1
        if techniques.selective_prefetch and self.selective_active:
            # Length = number of cached predecessors consecutive to the
            # demanded entry within the same translation page.
            node = self.by_vtpn.get(vtpn)
            if node is not None:
                probe = lpn - 1
                first_in_page = self.geometry.first_lpn(vtpn)
                while probe >= first_in_page and probe in node.entries:
                    probe -= 1
                length = lpn - 1 - probe
                stop = max(stop, lpn + length)
        if stop <= lpn:
            return []
        return list(range(
            lpn + 1, min(stop, self.geometry.last_lpn(vtpn)) + 1))

    def _prefetch(self, lpns: Iterable[int], result: AccessResult,
                  protect: Optional[EntryNode] = None) -> None:
        """Insert prefetched entries under the §4.5 replacement rule.

        Evictions on behalf of prefetched entries are confined to the
        single TP node that was coldest when prefetching began; when it
        runs out of entries the remaining prefetch length is dropped.
        The just-demanded entry (``protect``) is never a victim.
        """
        allowed_victim: Optional[TPNode] = None
        restricted = False
        if self.sanitizer is not None:
            self.sanitizer.note_prefetch_begin()
        for lpn in lpns:
            vtpn = self.geometry.vtpn_of(lpn)
            node = self.by_vtpn.get(vtpn)
            if node is not None and lpn in node.entries:
                continue  # already cached; nothing to load
            need = self.entry_bytes + (self.node_bytes if node is None
                                       else 0)
            if not self.budget.fits(need):
                if not restricted:
                    allowed_victim = self.page_list.lru
                    restricted = True
                if not self._make_room(need, result,
                                       only_node=allowed_victim,
                                       protect=protect):
                    break  # §4.5: reduce the prefetching length
            inserted = self._insert_entry(lpn, self.flash_table[lpn],
                                          prefetched=True, result=result,
                                          make_room=False)
            if inserted is None:
                break
            self.metrics.prefetched_entries += 1
        if self.sanitizer is not None:
            self.sanitizer.note_prefetch_end()

    # ==================================================================
    # Insertion and replacement (§4.4)
    # ==================================================================
    def _insert_entry(self, lpn: int, ppn: int, prefetched: bool,
                      result: AccessResult,
                      make_room: bool = True) -> Optional[EntryNode]:
        """Create an entry node (and TP node if needed) in the cache."""
        vtpn = lpn // self.geometry.entries_per_page
        node = self.by_vtpn.get(vtpn)
        need = self.entry_bytes + (self.node_bytes if node is None else 0)
        if not self.budget.fits(need):
            if not make_room or not self._make_room(need, result):
                return None
            # The node may have been evicted while making room (it can
            # be the coldest); re-check and re-price.
            node = self.by_vtpn.get(vtpn)
            need = self.entry_bytes + (self.node_bytes if node is None
                                       else 0)
            if not self.budget.fits(need):  # pragma: no cover - defensive
                return None
        if node is None:
            node = TPNode(vtpn)
            self.by_vtpn[vtpn] = node
            # A new node carries the newest (hottest) entry, so it starts
            # at the hot end; settle then seats it exactly.
            self.page_list.push_mru(node)
            self.budget.charge(self.node_bytes)
            self._bump_counter(+1)
        self._hot_seq += 1
        entry = EntryNode(lpn, ppn, self._hot_seq, prefetched=prefetched)
        node.add(entry)
        self.budget.charge(self.entry_bytes)
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
        while not self.budget.fits(need):
            victim_node = (only_node if only_node is not None
                           else self.page_list.lru)
            if victim_node is None or not victim_node.entries:
                return False
            if not self._evict_one(victim_node, result, protect=protect):
                return False
            if only_node is not None and not only_node.linked:
                # the allowed node was fully drained and removed
                if not self.budget.fits(need):
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
        if victim.dirty:
            self.metrics.dirty_replacements += 1
            self._writeback(node, victim, result)
        self._drop_entry(node, victim)
        return True

    def _choose_victim(self, node: TPNode,
                       protect: Optional[EntryNode] = None
                       ) -> Optional[EntryNode]:
        """Clean-first (if enabled): LRU clean entry, else LRU entry."""
        if self.techniques.clean_first and node.dirty_count < len(node):
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
        updates: Dict[int, int] = {victim.lpn: victim.ppn}
        if self.techniques.batch_update:
            batched = 0
            for entry in node.dirty_entries():
                if entry is victim:
                    continue
                updates[entry.lpn] = entry.ppn
                node.set_dirty(entry, False)
                batched += 1
            self.metrics.batch_cleaned_entries += batched
        node.set_dirty(victim, False)
        self.read_translation_page(node.vtpn, "writeback", result)
        self.write_translation_page(node.vtpn, updates, result)
        if self.sanitizer is not None:
            self.sanitizer.note_writeback(self, node, victim)

    def _drop_entry(self, node: TPNode, entry: EntryNode) -> None:
        node.drop(entry)
        self.budget.release(self.entry_bytes)
        if not node.entries:
            self.page_list.remove(node)
            del self.by_vtpn[node.vtpn]
            self.budget.release(self.node_bytes)
            self._bump_counter(-1)
        # NOTE: no repositioning on eviction.  Dropping a cold entry
        # raises the node's mean hotness; promoting it here would rotate
        # victims across every node so no node ever fully drains — and
        # the §4.3 TP-node counter would never move.  The node keeps its
        # cold slot until one of its entries is actually accessed.

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
            for entry in node.dirty_entries():
                grouped.setdefault(vtpn, {})[entry.lpn] = entry.ppn
                node.set_dirty(entry, False)
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
        deliberately do not re-sort (see :meth:`_drop_entry`), so
        ordering is not globally asserted here.
        """
        from ..analysis.checkers import (check_budget, check_hotness,
                                         check_two_level_lru)

        def fail(code: str, message: str) -> None:
            raise SanitizerError(code, message)

        check_two_level_lru(self, fail)
        check_hotness(self, fail)
        check_budget(self, fail)
