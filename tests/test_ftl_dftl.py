"""DFTL behaviour: demand loading, LRU eviction, one-entry writebacks."""

import pytest

from repro.config import CacheConfig, SimulationConfig, SSDConfig
from repro.errors import CacheCapacityError
from repro.ftl import DFTL


def small_dftl(capacity_entries: int, logical_pages: int = 512) -> DFTL:
    """A DFTL whose CMT holds exactly ``capacity_entries`` entries."""
    ssd = SSDConfig(logical_pages=logical_pages, page_size=256,
                    pages_per_block=8)
    budget = ssd.gtd_bytes + capacity_entries * 8
    config = SimulationConfig(ssd=ssd,
                              cache=CacheConfig(budget_bytes=budget))
    ftl = DFTL(config)
    assert ftl.capacity_entries == capacity_entries
    return ftl


class TestDemandLoading:
    def test_first_access_misses_and_loads(self):
        ftl = small_dftl(4)
        result = ftl.read_page(10)
        assert ftl.metrics.lookups == 1
        assert ftl.metrics.hits == 0
        assert ftl.metrics.trans_reads_load == 1
        assert result.translation_reads == 1

    def test_second_access_hits(self):
        ftl = small_dftl(4)
        ftl.read_page(10)
        result = ftl.read_page(10)
        assert ftl.metrics.hits == 1
        assert result.translation_reads == 0

    def test_miss_loads_only_one_entry(self):
        ftl = small_dftl(4)
        ftl.read_page(10)
        assert ftl.cached_entry_count == 1
        assert ftl.cache_peek(11) is None


class TestEviction:
    def test_lru_entry_evicted_at_capacity(self):
        ftl = small_dftl(2)
        ftl.read_page(1)
        ftl.read_page(2)
        ftl.read_page(3)  # evicts 1
        assert ftl.cache_peek(1) is None
        assert ftl.cache_peek(2) is not None
        assert ftl.metrics.replacements == 1

    def test_clean_eviction_costs_nothing(self):
        ftl = small_dftl(2)
        ftl.read_page(1)
        ftl.read_page(2)
        before = ftl.metrics.translation_page_writes
        ftl.read_page(3)
        assert ftl.metrics.translation_page_writes == before
        assert ftl.metrics.dirty_replacements == 0

    def test_dirty_eviction_reads_and_writes_translation_page(self):
        ftl = small_dftl(2)
        ftl.write_page(1)   # dirty entry
        ftl.read_page(2)
        ftl.read_page(3)    # evicts dirty 1: read-modify-write
        assert ftl.metrics.dirty_replacements == 1
        assert ftl.metrics.trans_reads_writeback == 1
        assert ftl.metrics.trans_writes_writeback == 1

    def test_dirty_eviction_updates_flash_table(self):
        ftl = small_dftl(2)
        ftl.write_page(1)
        new_ppn = ftl.cache_peek(1)
        assert ftl.flash_table[1] != new_ppn  # divergent while dirty
        ftl.read_page(2)
        ftl.read_page(3)  # evict dirty entry for 1
        assert ftl.flash_table[1] == new_ppn

    def test_one_writeback_per_dirty_eviction(self):
        """The §3.2 inefficiency: co-dirty entries are NOT batched."""
        ftl = small_dftl(3)
        ftl.write_page(1)
        ftl.write_page(2)  # same translation page, both dirty
        ftl.write_page(3)
        before = ftl.metrics.trans_writes_writeback
        ftl.read_page(10)
        ftl.read_page(11)
        ftl.read_page(12)  # evict all three dirty entries, one by one
        assert ftl.metrics.trans_writes_writeback - before == 3


class TestCMTOrder:
    """The CMT is a bare ``OrderedDict``: first = LRU, last = MRU."""

    def test_hit_moves_entry_to_mru_end(self):
        ftl = small_dftl(4)
        for lpn in (1, 2, 3):
            ftl.read_page(lpn)
        ftl.read_page(1)
        assert list(ftl.cmt) == [2, 3, 1]

    def test_miss_on_full_cmt_evicts_exactly_the_lru_entry(self):
        ftl = small_dftl(3)
        for lpn in (1, 2, 3, 1):  # 2 is now the LRU entry
            ftl.read_page(lpn)
        ftl.read_page(4)
        assert list(ftl.cmt) == [3, 1, 4]
        assert ftl.metrics.replacements == 1

    def test_clean_victim_costs_no_translation_write(self):
        ftl = small_dftl(2)
        ftl.read_page(1)
        ftl.read_page(2)
        result = ftl.read_page(3)
        assert result.translation_reads == 1  # the load alone
        assert result.translation_writes == 0
        assert ftl.metrics.trans_reads_writeback == 0

    def test_dirty_victim_folds_only_its_own_entry(self):
        ftl = small_dftl(3)
        ftl.write_page(1)
        ftl.write_page(2)  # same translation page, dirty too
        ftl.read_page(3)
        new_1, new_2 = ftl.cache_peek(1), ftl.cache_peek(2)
        result = ftl.read_page(4)  # evicts dirty 1
        assert result.translation_reads == 2  # write-back read + load
        assert result.translation_writes == 1
        assert ftl.metrics.trans_reads_writeback == 1
        assert ftl.flash_table[1] == new_1
        assert ftl.flash_table[2] != new_2  # still dirty in the CMT
        assert list(ftl.cmt) == [2, 3, 4]

    def test_write_leaves_the_order_translate_set(self):
        ftl = small_dftl(4)
        for lpn in (1, 2, 3):
            ftl.read_page(lpn)
        ftl.write_page(1)  # a hit, then the record
        ftl.write_page(5)  # a miss, then the record
        assert list(ftl.cmt) == [2, 3, 1, 5]
        assert [cell[1] for cell in ftl.cmt.values()] == [
            False, False, True, True]


class TestWriteSemantics:
    def test_write_marks_entry_dirty(self):
        ftl = small_dftl(4)
        ftl.write_page(5)
        assert ftl.cmt[5][1]  # the dirty flag
        new_ppn = ftl.cache_peek(5)
        # the flush hook hands the dirty set over and cleans it
        assert ftl._take_dirty_entries() == {
            ftl.geometry.vtpn_of(5): {5: new_ppn}}
        assert not ftl.cmt[5][1]

    def test_write_then_read_hits_cache(self):
        ftl = small_dftl(4)
        ftl.write_page(5)
        ftl.read_page(5)
        assert ftl.metrics.hits == 1

    def test_lookup_current_prefers_cache(self):
        ftl = small_dftl(4)
        ftl.write_page(5)
        assert ftl.lookup_current(5) == ftl.cache_peek(5)


class TestSnapshot:
    def test_snapshot_groups_by_translation_page(self):
        ftl = small_dftl(8)
        epp = ftl.geometry.entries_per_page
        ftl.read_page(0)
        ftl.read_page(1)        # same page
        ftl.write_page(epp)     # next page, dirty
        snapshot = sorted(ftl.cache_snapshot())
        assert snapshot == [(1, 1), (2, 0)]


class TestCapacityValidation:
    def test_budget_below_one_entry_rejected(self):
        ssd = SSDConfig(logical_pages=512, page_size=256,
                        pages_per_block=8)
        config = SimulationConfig(
            ssd=ssd, cache=CacheConfig(budget_bytes=ssd.gtd_bytes + 4))
        with pytest.raises(CacheCapacityError):
            DFTL(config)
