"""TPFTL behaviour: two-level lists, r/s/b/c techniques, §4.5 rules."""

import tracemalloc

import pytest

from repro.config import (CacheConfig, SimulationConfig, SSDConfig,
                          TPFTLConfig)
from repro.errors import SimInvariantError
from repro.ftl import TPFTL, make_ftl
from repro.ftl.tpftl import EntryNode, TPNode
from repro.types import AccessResult, Op, Request


def make_tpftl(monogram: str = "rsbc", entry_slots: int = 8,
               logical_pages: int = 512,
               selective_threshold: int = 3) -> TPFTL:
    """A TPFTL with room for roughly ``entry_slots`` entries."""
    ssd = SSDConfig(logical_pages=logical_pages, page_size=256,
                    pages_per_block=8)
    base = TPFTLConfig.from_monogram(monogram)
    tp_config = TPFTLConfig(
        request_prefetch=base.request_prefetch,
        selective_prefetch=base.selective_prefetch,
        batch_update=base.batch_update,
        clean_first=base.clean_first,
        selective_threshold=selective_threshold,
    )
    # budget: GTD + slots * (entry + half a node of slack)
    budget = ssd.gtd_bytes + entry_slots * 6 + (entry_slots // 2) * 8
    config = SimulationConfig(ssd=ssd,
                              cache=CacheConfig(budget_bytes=budget),
                              tpftl=tp_config)
    return TPFTL(config)


class TestTwoLevelStructure:
    def test_entries_cluster_by_translation_page(self):
        ftl = make_tpftl("-")
        epp = ftl.geometry.entries_per_page
        ftl.read_page(0)
        ftl.read_page(1)
        ftl.read_page(epp)
        assert ftl.cached_node_count == 2
        assert ftl.cached_entry_count == 3
        snapshot = sorted(ftl.cache_snapshot())
        assert snapshot == [(1, 0), (2, 0)]

    def test_hit_and_miss_accounting(self):
        ftl = make_tpftl("-")
        ftl.read_page(5)
        ftl.read_page(5)
        assert ftl.metrics.lookups == 2
        assert ftl.metrics.hits == 1
        assert ftl.metrics.trans_reads_load == 1

    def test_invariants_after_mixed_ops(self):
        ftl = make_tpftl("rsbc", entry_slots=12)
        for lpn in (0, 1, 64, 65, 3, 128, 0, 200, 64):
            ftl.write_page(lpn)
            ftl.assert_invariants()
        for lpn in (5, 70, 130, 0):
            ftl.read_page(lpn)
            ftl.assert_invariants()

    def test_empty_nodes_removed(self):
        ftl = make_tpftl("-", entry_slots=2)
        ftl.read_page(0)
        ftl.read_page(100)
        ftl.read_page(200)  # evictions drain the oldest node
        ftl.assert_invariants()
        for node in ftl.by_vtpn.values():
            assert len(node) > 0

    def test_nodes_carry_no_instance_dict(self):
        # the byte-budget model prices entry and TP nodes as fixed-size
        assert not hasattr(EntryNode(0, 0, 1), "__dict__")
        assert not hasattr(TPNode(0), "__dict__")

    def test_device_and_trace_footprint(self):
        """What a cell holds per item: a request without an instance
        dict, and a prefilled device in flat arrays — one state byte
        and one metadata word per physical page, one table word per
        logical page (per-block lists of boxed values were 96 B
        retained and 113 B at the peak of the prefill)."""
        assert not hasattr(Request(0.0, Op.READ, 0, 1), "__dict__")
        pages = 16_384
        tracemalloc.start()
        try:
            ftl = make_ftl("optimal", SimulationConfig(
                ssd=SSDConfig(logical_pages=pages)))
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ftl.flash_table) == pages
        assert retained <= 32 * pages
        assert peak <= 48 * pages

    def test_add_of_cached_lpn_is_an_invariant_error(self):
        ftl = make_tpftl("-")
        ftl._insert_entry(3, 30, prefetched=False)
        node, used = ftl.by_vtpn[0], ftl.budget.used
        with pytest.raises(SimInvariantError):
            ftl._insert_entry(3, 31, prefetched=False)
        assert node.hot_sum == 1 and node.entries[3].ppn == 30
        assert ftl.budget.used == used

    def test_drop_of_uncached_entry_is_an_invariant_error(self):
        ftl = make_tpftl("-")
        ftl._insert_entry(3, 30, prefetched=False)
        node, used = ftl.by_vtpn[0], ftl.budget.used
        ftl._choose_victim = lambda node, protect=None: EntryNode(
            4, 40, hot_seq=2)
        with pytest.raises(SimInvariantError):
            ftl._evict_one(node, AccessResult())
        assert node.hot_sum == 1 and len(node) == 1
        assert ftl.budget.used == used


class TestPageLevelHotness:
    def test_node_with_recent_entry_is_hotter(self):
        ftl = make_tpftl("-", entry_slots=8)
        ftl.read_page(0)     # node A
        ftl.read_page(64)    # node B more recent
        hot = ftl.page_list.mru
        assert hot.vtpn == ftl.geometry.vtpn_of(64)

    def test_cold_entries_drag_node_down(self):
        """A node holding the MRU entry can still rank colder on average
        (§4.2): many cold entries outweigh one hot one."""
        ftl = make_tpftl("-", entry_slots=12)
        epp = ftl.geometry.entries_per_page
        # node A: three old entries
        for lpn in (0, 1, 2):
            ftl.read_page(lpn)
        # node B: three fresh entries
        for lpn in (epp, epp + 1, epp + 2):
            ftl.read_page(epp)
        # touch one entry of A: A's mean stays below B's
        ftl.read_page(0)
        assert ftl.page_list.mru.vtpn == ftl.geometry.vtpn_of(epp)
        ftl.assert_invariants()

    def test_touch_that_keeps_the_order_moves_nothing(self):
        ftl = make_tpftl("-", entry_slots=12)
        epp = ftl.geometry.entries_per_page
        for lpn in (2 * epp, epp, epp + 1, epp + 2, 0):
            ftl.read_page(lpn)
        order = [node.vtpn for node in ftl.page_list]
        assert order == [0, 1, 2]
        middle = ftl.by_vtpn[1]
        neighbours = (middle.prev, middle.next)
        ftl.read_page(epp)  # mean (3 + 4 + 6) / 3 stays under node 0's 5
        assert (middle.prev, middle.next) == neighbours
        assert [node.vtpn for node in ftl.page_list] == order
        assert middle.hotness == middle.hot_sum / len(middle) == 13 / 3
        ftl.assert_invariants()

    def test_touched_node_moves_down_past_a_neighbour_evictions_heated(
            self):
        """Evictions heat a node without re-sorting it, so a touch can
        find the *colder* neighbour hotter than the touched node; looking
        hotter-ward only would leave the two out of order for good."""
        ftl = make_tpftl("-", entry_slots=12)
        epp = ftl.geometry.entries_per_page
        for lpn in (epp, epp + 1, 0, 1, 2, 2 * epp, epp + 2):
            ftl.read_page(lpn)
        assert [node.vtpn for node in ftl.page_list] == [2, 0, 1]
        heated = ftl.by_vtpn[1]
        for _ in range(2):  # drop its two cold entries: mean 10/3 -> 7
            assert ftl._evict_one(heated, AccessResult())
        assert [node.vtpn for node in ftl.page_list] == [2, 0, 1]
        assert heated.hotness == 7.0 > heated.prev.hotness
        ftl.read_page(0)  # node 0: 4 -> 17/3, under node 2's 6
        assert [node.vtpn for node in ftl.page_list] == [2, 1, 0]
        ftl.assert_invariants()

    def test_eviction_comes_from_coldest_node(self):
        # budget fits two singleton nodes (14B each), not three
        ftl = make_tpftl("-", entry_slots=4)
        ftl.read_page(0)      # node A (older)
        ftl.read_page(64)     # node B
        ftl.read_page(128)    # must evict from A, the coldest
        assert ftl.cache_peek(0) is None
        assert ftl.cache_peek(64) is not None


class TestCleanFirst:
    def test_clean_evicted_before_dirty(self):
        ftl = make_tpftl("c", entry_slots=2)
        ftl.write_page(0)    # dirty, and LRU within its node
        ftl.read_page(1)     # clean, MRU
        before = ftl.metrics.translation_page_writes
        ftl.read_page(2)     # eviction: clean-first picks LPN 1
        assert ftl.cache_peek(1) is None
        assert ftl.cache_peek(0) is not None
        assert ftl.metrics.translation_page_writes == before
        assert ftl.metrics.dirty_replacements == 0

    def test_without_clean_first_lru_entry_evicted(self):
        ftl = make_tpftl("-", entry_slots=2)
        ftl.write_page(0)    # dirty, LRU
        ftl.read_page(1)     # clean, MRU
        ftl.read_page(2)     # eviction: plain LRU picks dirty LPN 0
        assert ftl.cache_peek(0) is None
        assert ftl.metrics.dirty_replacements == 1

    def test_all_dirty_falls_back_to_lru_dirty(self):
        ftl = make_tpftl("c", entry_slots=2)
        ftl.write_page(0)
        ftl.write_page(1)
        ftl.read_page(2)
        assert ftl.metrics.dirty_replacements == 1
        assert ftl.cache_peek(0) is None


class TestBatchUpdate:
    def test_batch_writes_all_dirty_of_node_in_one_update(self):
        ftl = make_tpftl("b", entry_slots=3)
        for lpn in (0, 1, 2):
            ftl.write_page(lpn)  # three dirty entries, same node
        before_writes = ftl.metrics.trans_writes_writeback
        ftl.read_page(100)       # evict one dirty entry
        assert ftl.metrics.trans_writes_writeback == before_writes + 1
        assert ftl.metrics.batch_cleaned_entries == 2
        # survivors are now clean: the next eviction costs nothing
        before_writes = ftl.metrics.trans_writes_writeback
        ftl.read_page(101)
        assert ftl.metrics.trans_writes_writeback == before_writes

    def test_batch_update_persists_all_values(self):
        ftl = make_tpftl("b", entry_slots=3)
        for lpn in (0, 1, 2):
            ftl.write_page(lpn)
        expected = {lpn: ftl.cache_peek(lpn) for lpn in (0, 1, 2)}
        ftl.read_page(100)  # triggers the batch writeback
        for lpn, ppn in expected.items():
            assert ftl.flash_table[lpn] == ppn

    def test_without_batch_each_dirty_eviction_writes(self):
        ftl = make_tpftl("-", entry_slots=3)
        for lpn in (0, 1, 2):
            ftl.write_page(lpn)
        before = ftl.metrics.trans_writes_writeback
        ftl.read_page(100)
        ftl.read_page(101)
        ftl.read_page(102)
        assert ftl.metrics.trans_writes_writeback - before == 3

    def test_gc_piggyback_cleans_cached_dirty_entries(self):
        ftl = make_tpftl("b", entry_slots=6)
        ftl.write_page(0)
        vtpn = ftl.geometry.vtpn_of(0)
        extras = ftl._gc_flush_extras([vtpn])
        assert 0 in extras
        assert ftl.by_vtpn[vtpn].dirty_count == 0

    def test_gc_hit_rides_its_pages_forced_rewrite(self):
        """GC applies a victim's cache hits before any forced rewrite:
        a hit on a translation page where another moved LPN missed is
        piggybacked onto that page's rewrite and left clean."""
        ftl = make_tpftl("b", entry_slots=6)
        ftl.read_page(0)  # cached clean; LPNs 1-7 of its block are not
        flash = ftl.flash
        victim = flash.block_of(ftl.flash_table[0])
        assert {flash.block_of(ftl.flash_table[lpn])
                for lpn in range(8)} == {victim}
        node = ftl.by_vtpn[ftl.geometry.vtpn_of(0)]
        ftl._collect(victim, AccessResult())
        assert ftl.metrics.gc_update_hits == 1
        assert ftl.metrics.trans_writes_gc_update == 1
        assert ftl.metrics.batch_cleaned_entries == 1
        assert not node.entries[0].dirty and node.dirty_count == 0
        assert ftl.flash_table[0] == node.entries[0].ppn
        assert flash.block_of(ftl.flash_table[0]) is not victim
        ftl.check_consistency()

    def test_no_piggyback_without_b(self):
        ftl = make_tpftl("-", entry_slots=6)
        ftl.write_page(0)
        assert ftl._gc_flush_extras([ftl.geometry.vtpn_of(0)]) == {}


class TestRequestPrefetch:
    def test_whole_request_loaded_with_one_read(self):
        ftl = make_tpftl("r", entry_slots=8)
        request = Request(arrival=0.0, op=Op.READ, lpn=8, npages=4)
        result = ftl.serve_request(request)
        # one miss (the first page), then hits for the prefetched rest
        assert ftl.metrics.trans_reads_load == 1
        assert ftl.metrics.hits == 3
        assert result.translation_reads == 1
        assert ftl.metrics.prefetched_entries == 3

    def test_prefetch_clipped_at_page_boundary(self):
        ftl = make_tpftl("r", entry_slots=16)
        epp = ftl.geometry.entries_per_page
        request = Request(arrival=0.0, op=Op.READ, lpn=epp - 2, npages=4)
        ftl.serve_request(request)
        # pages epp-2, epp-1 from page 0; epp, epp+1 need page 1
        assert ftl.metrics.trans_reads_load == 2

    def test_without_r_each_page_misses(self):
        ftl = make_tpftl("-", entry_slots=8)
        request = Request(arrival=0.0, op=Op.READ, lpn=8, npages=4)
        ftl.serve_request(request)
        assert ftl.metrics.trans_reads_load == 4
        assert ftl.metrics.hits == 0

    def test_prefetch_hits_tracked(self):
        ftl = make_tpftl("r", entry_slots=8)
        ftl.serve_request(Request(arrival=0.0, op=Op.READ, lpn=8,
                                  npages=3))
        assert ftl.metrics.prefetch_hits == 2


class TestSelectivePrefetch:
    def test_counter_activates_after_sequential_burst(self):
        """§4.3: a sequential burst concentrates entries on one node and
        drains dispersed singleton nodes, driving the counter negative
        until selective prefetching turns on."""
        ftl = make_tpftl("s", entry_slots=12, selective_threshold=3)
        assert not ftl.selective_active
        # random phase: dispersed singleton nodes fill the cache
        for lpn in (64, 128, 192, 256, 320, 384, 448, 100):
            ftl.read_page(lpn)
        # sequential burst within one translation page drains them
        for lpn in range(0, 20):
            ftl.read_page(lpn)
        assert ftl.selective_active

    def test_selective_prefetches_successors_of_cached_run(self):
        # huge threshold: the counter never toggles the manual setting
        ftl = make_tpftl("s", entry_slots=16, selective_threshold=100)
        ftl.selective_active = True
        ftl.read_page(10)   # no predecessor: nothing prefetched
        assert ftl.metrics.prefetched_entries == 0
        ftl.read_page(11)   # one predecessor (10): prefetches 12
        assert ftl.metrics.prefetched_entries == 1
        assert ftl.cache_peek(12) is not None
        ftl.read_page(12)   # prefetch pays off as a hit
        assert ftl.metrics.prefetch_hits == 1
        before = ftl.metrics.prefetched_entries
        ftl.read_page(13)   # three predecessors: prefetches 14, 15, 16
        assert ftl.metrics.prefetched_entries - before == 3
        for lpn in (14, 15, 16):
            assert ftl.cache_peek(lpn) is not None

    def test_no_predecessors_no_prefetch(self):
        ftl = make_tpftl("s", entry_slots=16, selective_threshold=100)
        ftl.selective_active = True
        ftl.read_page(40)
        assert ftl.metrics.prefetched_entries == 0

    def test_inactive_selective_does_not_prefetch(self):
        ftl = make_tpftl("s", entry_slots=16, selective_threshold=3)
        ftl.read_page(10)
        ftl.read_page(11)
        assert not ftl.selective_active
        ftl.read_page(12)
        assert ftl.metrics.prefetched_entries == 0


class TestIntegrationRules:
    def test_read_translation_cost_bounded(self):
        """§4.5: each address translation costs at most one page read
        for loading plus one read-modify-write for a writeback."""
        ftl = make_tpftl("rsbc", entry_slots=6)
        for lpn in (0, 1, 64, 65, 128, 129, 192, 3, 66, 130):
            result = ftl.read_page(lpn)
            assert result.translation_reads <= 2
            assert result.translation_writes <= 1

    def test_demanded_entry_survives_prefetch_evictions(self):
        ftl = make_tpftl("rs", entry_slots=2, selective_threshold=100)
        ftl.selective_active = True
        request = Request(arrival=0.0, op=Op.WRITE, lpn=8, npages=2)
        ftl.serve_request(request)  # must not evict LPN 8 mid-request
        ftl.assert_invariants()


class TestCompression:
    def test_tpftl_fits_more_entries_than_dftl_budget(self):
        """6B entries beat 8B entries once entries share nodes."""
        ftl = make_tpftl("-", entry_slots=12)
        budget = ftl.budget.capacity
        # fill with entries from one translation page: one node header
        filled = 0
        lpn = 0
        while True:
            before = ftl.cached_entry_count
            ftl.read_page(lpn)
            if ftl.cached_entry_count <= before:
                break
            filled = ftl.cached_entry_count
            lpn += 1
            if lpn >= 64:
                break
        dftl_equivalent = budget // 8
        assert filled > dftl_equivalent
