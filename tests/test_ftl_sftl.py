"""S-FTL behaviour: page-granular caching, compression, dirty buffer."""

import random

import pytest

from repro.config import CacheConfig, SimulationConfig, SSDConfig
from repro.ftl import SFTL
from repro.ftl.sftl import (BUFFER_ENTRY_BYTES, PAGE_HEADER_BYTES,
                            RUN_BYTES, SPARSE_DIRTY_LIMIT)
from repro.types import UNMAPPED


def make_sftl(budget: int = 1024, buffer_fraction: float = 0.1,
              logical_pages: int = 512) -> SFTL:
    ssd = SSDConfig(logical_pages=logical_pages, page_size=256,
                    pages_per_block=8)
    config = SimulationConfig(
        ssd=ssd,
        cache=CacheConfig(budget_bytes=ssd.gtd_bytes + budget,
                          sftl_dirty_buffer_fraction=buffer_fraction))
    return SFTL(config)


class TestPageGranularCaching:
    def test_miss_loads_whole_page(self):
        ftl = make_sftl()
        ftl.read_page(0)
        assert ftl.metrics.trans_reads_load == 1
        # any entry of the same translation page now hits
        ftl.read_page(63)
        assert ftl.metrics.hits == 1
        assert ftl.metrics.trans_reads_load == 1

    def test_sequential_prefilled_page_compresses_to_one_run(self):
        ftl = make_sftl()
        ftl.read_page(0)
        page = ftl.pages.get(0)
        assert page.runs == 1
        assert page.charged_bytes == PAGE_HEADER_BYTES + RUN_BYTES

    def test_fragmented_page_costs_more(self):
        ftl = make_sftl(budget=2048)
        # fragment page 0's mappings with scattered rewrites
        for lpn in (0, 5, 9, 20, 33):
            ftl.write_page(lpn)
        ftl.flush()
        ftl.pages = type(ftl.pages)()  # drop cache state
        ftl.page_budget.used = 0
        ftl.read_page(0)
        page = ftl.pages.get(0)
        assert page.runs > 1
        assert page.charged_bytes > PAGE_HEADER_BYTES + RUN_BYTES


def count_runs_reference(ftl: SFTL, vtpn: int) -> int:
    """``SFTL._count_runs`` as it was before it sliced the table: one
    table read and one override probe per entry."""
    runs = 0
    prev_ppn = None
    overrides = ftl.buffer.get(vtpn, {})
    epp = ftl.entries_per_page
    for lpn in range(vtpn * epp,
                     min((vtpn + 1) * epp, ftl.ssd.logical_pages)):
        ppn = overrides.get(lpn, ftl.flash_table[lpn])
        if ppn == UNMAPPED:
            ppn = -10  # never-sequential sentinel
        if prev_ppn is None or ppn != prev_ppn + 1:
            runs += 1
        prev_ppn = ppn
    return max(1, runs)


class TestCountRuns:
    """The compressed size S-FTL charges must not move by a byte."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_tables_with_parked_overrides(self, seed):
        ftl = make_sftl(logical_pages=500)  # last page: 52 entries
        rng = random.Random(seed)
        ppn = 0
        for lpn in range(500):
            roll = rng.random()
            if roll < 0.15:
                ppn = UNMAPPED
            elif roll < 0.5 or ppn == UNMAPPED:
                ppn = rng.randrange(4096)
            else:
                ppn += 1
            ftl.flash_table[lpn] = ppn
        for lpn in rng.sample(range(500), 40):
            ftl.buffer.setdefault(lpn // ftl.entries_per_page, {})[lpn] = (
                rng.choice([UNMAPPED, 0, ftl.flash_table[lpn - 1] + 1,
                            rng.randrange(4096)]))
        # eight translation pages, the last one short
        assert 500 % ftl.entries_per_page == 52
        for vtpn in range(ftl.ssd.translation_pages):
            assert ftl._count_runs(vtpn) == count_runs_reference(ftl, vtpn)

    def test_ppn_zero_after_an_unmapped_entry_starts_a_run(self):
        ftl = make_sftl()
        ftl.flash_table[10] = UNMAPPED
        ftl.flash_table[11] = 0
        ftl.flash_table[12] = 1
        # [0..9], [10], [11, 12], [13..63]
        assert ftl._count_runs(0) == count_runs_reference(ftl, 0) == 4

    def test_all_unmapped_page_is_one_run_per_entry(self):
        ftl = make_sftl()
        epp = ftl.entries_per_page
        for lpn in range(epp):
            ftl.flash_table[lpn] = UNMAPPED
        assert ftl._count_runs(0) == count_runs_reference(ftl, 0) == epp


class TestReplacement:
    def test_page_evicted_when_budget_full(self):
        # room for two compressed pages (16B each) only
        ftl = make_sftl(budget=40, buffer_fraction=0.0)
        epp = ftl.entries_per_page
        for vtpn in range(4):
            ftl.read_page(vtpn * epp)
        assert ftl.metrics.replacements > 0

    def test_clean_page_eviction_free(self):
        ftl = make_sftl(budget=40, buffer_fraction=0.0)
        epp = ftl.entries_per_page
        for vtpn in range(4):
            ftl.read_page(vtpn * epp)
        assert ftl.metrics.translation_page_writes == 0
        assert ftl.metrics.dirty_replacements == 0

    def test_dirty_page_writeback_is_single_program(self):
        """Eq. 1 footnote: S-FTL victims are whole pages, written back
        in Tfw without a read-modify-write read."""
        ftl = make_sftl(budget=40, buffer_fraction=0.0)
        epp = ftl.entries_per_page
        ftl.write_page(0)
        reads_before = ftl.metrics.trans_reads_writeback
        for vtpn in range(1, 4):
            ftl.read_page(vtpn * epp)
        assert ftl.metrics.dirty_replacements >= 1
        assert ftl.metrics.trans_writes_writeback >= 1
        assert ftl.metrics.trans_reads_writeback == reads_before

    def test_dirty_eviction_persists_values(self):
        ftl = make_sftl(budget=40, buffer_fraction=0.0)
        epp = ftl.entries_per_page
        ftl.write_page(0)
        new_ppn = ftl.cache_peek(0)
        for vtpn in range(1, 4):
            ftl.read_page(vtpn * epp)
        assert ftl.flash_table[0] == new_ppn


class TestDirtyBuffer:
    def test_sparse_dirty_page_parks_in_buffer(self):
        ftl = make_sftl(budget=256, buffer_fraction=0.5)
        epp = ftl.entries_per_page
        ftl.write_page(0)  # one dirty entry: sparse
        writes_before = ftl.metrics.trans_writes_writeback
        # seven more pages overflow the page area and evict page 0
        for vtpn in range(1, 8):
            ftl.read_page(vtpn * epp)
        # the sparse page avoided a writeback via the buffer
        assert 0 not in ftl.pages
        assert 0 in ftl.buffer
        assert ftl.metrics.trans_writes_writeback == writes_before

    def test_buffered_entry_still_hits(self):
        ftl = make_sftl(budget=256, buffer_fraction=0.5)
        epp = ftl.entries_per_page
        ftl.write_page(0)
        for vtpn in range(1, 8):
            ftl.read_page(vtpn * epp)
        assert 0 not in ftl.pages
        assert 0 in ftl.buffer
        hits_before = ftl.metrics.hits
        ftl.read_page(0)
        assert ftl.metrics.hits == hits_before + 1

    def test_densely_dirty_page_not_buffered(self):
        ftl = make_sftl(budget=256, buffer_fraction=0.5)
        epp = ftl.entries_per_page
        for lpn in range(SPARSE_DIRTY_LIMIT + 2):
            ftl.write_page(lpn)
        for vtpn in range(1, 6):
            ftl.read_page(vtpn * epp)
        assert 0 not in ftl.buffer

    def test_zero_buffer_fraction_disables_buffer(self):
        ftl = make_sftl(budget=256, buffer_fraction=0.0)
        assert ftl.buffer_budget is None


class TestGCIntegration:
    def test_gc_update_hits_cached_page(self):
        ftl = make_sftl(budget=2048)
        ftl.read_page(0)
        assert ftl._gc_update_cached([0], [12345]) == {}
        assert ftl.cache_peek(0) == 12345

    def test_gc_update_misses_uncached_page(self):
        ftl = make_sftl()
        assert ftl._gc_update_cached([0], [12345]) == {0: 12345}

    def test_flush_extras_drains_buffer_group(self):
        ftl = make_sftl(budget=256, buffer_fraction=0.5)
        ftl.buffer[0] = {3: 99}
        ftl.buffer_budget.charge(BUFFER_ENTRY_BYTES)
        extras = ftl._gc_flush_extras([0])
        assert extras == {3: 99}
        assert 0 not in ftl.buffer


class TestEndToEnd:
    def test_mixed_workload_consistency(self, ):
        ftl = make_sftl(budget=128)
        import random
        rng = random.Random(7)
        for _ in range(300):
            lpn = rng.randrange(512)
            if rng.random() < 0.6:
                ftl.write_page(lpn)
            else:
                ftl.read_page(lpn)
        ftl.flush()
        ftl.check_consistency()
