"""ZFTL behaviour: zone residency, switches, first-tier buffering."""

import random

import pytest

from repro.config import (CacheConfig, SanitizerConfig, SimulationConfig,
                          SSDConfig)
from repro.ftl import ZFTL
from repro.recovery import verify_recovery
from repro.types import Op, Request


def make_zftl(budget: int = 600, switch_threshold: int = 4,
              logical_pages: int = 512) -> ZFTL:
    """A ZFTL whose zone spans a controllable number of pages."""
    ssd = SSDConfig(logical_pages=logical_pages, page_size=256,
                    pages_per_block=8)
    config = SimulationConfig(
        ssd=ssd, cache=CacheConfig(budget_bytes=ssd.gtd_bytes + budget))
    return ZFTL(config, switch_threshold=switch_threshold)


class TestZoneResidency:
    def test_first_access_activates_a_zone(self):
        ftl = make_zftl()
        ftl.read_page(10)
        assert ftl.active_zone == ftl.zone_of(10)
        assert ftl.zone_switches == 1

    def test_in_zone_accesses_always_hit(self):
        ftl = make_zftl()
        ftl.read_page(0)   # activates zone 0
        hits_before = ftl.metrics.hits
        reads_before = ftl.metrics.translation_page_reads
        span = ftl.zone_tpages * ftl.geometry.entries_per_page
        for lpn in range(0, min(span, 64), 3):
            ftl.read_page(lpn)
        assert ftl.metrics.hits > hits_before
        assert ftl.metrics.translation_page_reads == reads_before

    def test_zone_sized_from_budget(self):
        small = make_zftl(budget=300)
        large = make_zftl(budget=1200)
        assert large.zone_tpages >= small.zone_tpages


class TestZoneSwitching:
    def test_single_stray_does_not_switch(self):
        ftl = make_zftl(switch_threshold=4)
        ftl.read_page(0)
        zone0 = ftl.active_zone
        far = ftl.zone_tpages * ftl.geometry.entries_per_page * 2
        ftl.read_page(far % 512)
        assert ftl.active_zone == zone0

    def test_sustained_strays_switch(self):
        ftl = make_zftl(switch_threshold=3)
        ftl.read_page(0)
        far = (ftl.zone_tpages * ftl.geometry.entries_per_page) % 512
        if ftl.zone_of(far) == ftl.active_zone:
            pytest.skip("zone covers the whole device at this budget")
        for _ in range(3):
            ftl.read_page(far)
        assert ftl.active_zone == ftl.zone_of(far)
        assert ftl.zone_switches == 2

    def test_switch_flushes_dirty_zone(self):
        ftl = make_zftl(switch_threshold=2)
        ftl.write_page(0)
        new_ppn = ftl.cache_peek(0)
        far = (ftl.zone_tpages * ftl.geometry.entries_per_page) % 512
        if ftl.zone_of(far) == ftl.active_zone:
            pytest.skip("zone covers the whole device at this budget")
        for _ in range(2):
            ftl.read_page(far)
        assert ftl.flash_table[0] == new_ppn  # persisted by the flush
        assert not ftl.zone_dirty

    def test_switch_cost_visible_in_translation_reads(self):
        ftl = make_zftl(switch_threshold=1)
        ftl.read_page(0)
        reads_after_first = ftl.metrics.trans_reads_load
        assert reads_after_first >= ftl.zone_tpages


class TestFirstTier:
    def test_out_of_zone_write_lands_in_tier1(self):
        ftl = make_zftl(switch_threshold=100)  # effectively pinned zone
        ftl.read_page(0)
        far = (ftl.zone_tpages * ftl.geometry.entries_per_page) % 512
        if ftl.zone_of(far) == ftl.active_zone:
            pytest.skip("zone covers the whole device at this budget")
        ftl.write_page(far)
        assert far in ftl.tier1

    def test_tier1_overflow_batch_evicts(self):
        ftl = make_zftl(budget=300, switch_threshold=10_000)
        ftl.read_page(0)
        span = ftl.zone_tpages * ftl.geometry.entries_per_page
        writes_before = ftl.metrics.trans_writes_writeback
        lpn = span
        wrote = 0
        while wrote <= ftl.tier1_capacity:
            if ftl.zone_of(lpn % 512) != ftl.active_zone:
                ftl.write_page(lpn % 512)
                wrote += 1
            lpn += 1
        assert ftl.metrics.trans_writes_writeback > writes_before

    def test_tier1_entry_is_a_hit(self):
        ftl = make_zftl(switch_threshold=10_000)
        ftl.read_page(0)
        far = (ftl.zone_tpages * ftl.geometry.entries_per_page) % 512
        if ftl.zone_of(far) == ftl.active_zone:
            pytest.skip("zone covers the whole device at this budget")
        ftl.write_page(far)
        hits = ftl.metrics.hits
        ftl.read_page(far)
        assert ftl.metrics.hits == hits + 1


#: ``golden_cells.gc_heavy_trace()`` shrunk to the six requests that
#: break a ZFTL which forgets the first tier on a zone switch: the first
#: activates the last zone, the next fifteen pages stray into zone 0 and
#: buffer LPN 1's new mapping in the first tier, and the sixteenth
#: (LPN 4) switches to zone 0 — where only ``zone_dirty`` is consulted.
SWITCH_INTO_BUFFERED_ZONE = [
    (Op.WRITE, 506, 2), (Op.WRITE, 186, 3), (Op.READ, 162, 4),
    (Op.READ, 136, 4), (Op.WRITE, 81, 1), (Op.WRITE, 1, 4)]


class TestSwitchIntoBufferedZone:
    """A zone switch must carry the incoming zone's first-tier updates
    into ``zone_dirty``; left behind, the stale on-flash mapping is
    served (SAN001, then a ``ProgramError`` on the next overwrite)."""

    @pytest.mark.parametrize("budget", [1024, 1536, 2048])
    def test_shrunk_trace_is_clean_under_full_rate_ftlsan(self, budget):
        ssd = SSDConfig(logical_pages=512, page_size=256, pages_per_block=8)
        ftl = ZFTL(SimulationConfig(
            ssd=ssd, cache=CacheConfig(budget_bytes=budget),
            sanitizer=SanitizerConfig(enabled=True, interval=1,
                                      full_every=1)))
        for op, lpn, npages in SWITCH_INTO_BUFFERED_ZONE:
            ftl.serve_request(Request(0.0, op, lpn, npages))
        assert ftl.zone_switches == 2
        ftl.check_consistency()

    def test_first_tier_hit_that_switches_returns_buffered_ppn(self):
        ftl = make_zftl(switch_threshold=2)
        ftl.read_page(0)
        far = (ftl.zone_tpages * ftl.geometry.entries_per_page) % 512
        if ftl.zone_of(far) == ftl.active_zone:
            pytest.skip("zone covers the whole device at this budget")
        ftl.write_page(far)  # stray 1: buffered in the first tier
        buffered = ftl.tier1[far]
        # stray 2 hits the first tier and crosses the threshold; a stale
        # PPN would make the data read raise (the old page is INVALID)
        result = ftl.read_page(far)
        assert result.data_reads == 1
        assert ftl.active_zone == ftl.zone_of(far)
        assert far not in ftl.tier1
        assert ftl.cache_peek(far) == buffered


class TestEndToEnd:
    def test_consistency_and_recovery_after_stress(self):
        ftl = make_zftl(switch_threshold=4)
        rng = random.Random(19)
        for _ in range(700):
            lpn = rng.randrange(512)
            if rng.random() < 0.7:
                ftl.write_page(lpn)
            else:
                ftl.read_page(lpn)
        ftl.flush()
        ftl.check_consistency()
        verify_recovery(ftl)

    def test_zoned_locality_wins_over_scattered(self):
        """ZFTL's signature: great when the working set fits one zone,
        poor when accesses ping-pong across zones."""
        rng = random.Random(23)
        zoned = make_zftl(switch_threshold=4)
        span = zoned.zone_tpages * zoned.geometry.entries_per_page
        for _ in range(500):
            zoned.read_page(rng.randrange(min(span, 512)))
        scattered = make_zftl(switch_threshold=4)
        for _ in range(500):
            scattered.read_page(rng.randrange(512))
        assert (zoned.metrics.hit_ratio
                > scattered.metrics.hit_ratio)
