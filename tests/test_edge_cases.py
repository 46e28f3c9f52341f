"""Cross-cutting edge cases not covered by the per-module suites."""

import pytest

from repro.config import (DFTL_ENTRY_BYTES, TPFTL_ENTRY_BYTES,
                          TPFTL_NODE_BYTES, CacheConfig, SimulationConfig,
                          SSDConfig)
from repro.errors import CacheCapacityError
from repro.ftl import make_ftl
from repro.ftl.sftl import PAGE_HEADER_BYTES, RUN_BYTES
from repro.ssd import simulate
from repro.types import Op, Request, Trace

from conftest import make_trace


class TestSingleTranslationPageDevice:
    """A device whose whole table fits one translation page: every
    geometry special case (vtpn always 0, short last page) at once."""

    @pytest.fixture
    def config(self):
        # 40 pages of 256B -> one 64-entry translation page, short
        return SimulationConfig(ssd=SSDConfig(
            logical_pages=40, page_size=256, pages_per_block=8))

    @pytest.mark.parametrize("name", ["dftl", "tpftl"])
    def test_runs_and_stays_consistent(self, config, name):
        ftl = make_ftl(name, config)
        for lpn in list(range(40)) * 3:
            ftl.write_page(lpn)
        ftl.flush()
        ftl.check_consistency()

    def test_tpftl_prefetch_clipped_at_short_page_end(self, config):
        from repro.config import TPFTLConfig
        import dataclasses
        cfg = dataclasses.replace(
            config, tpftl=TPFTLConfig.from_monogram("r"))
        ftl = make_ftl("tpftl", cfg)
        # request runs past the end of the (short) translation page
        request = Request(arrival=0.0, op=Op.READ, lpn=36, npages=4)
        ftl.serve_request(request)
        ftl.assert_invariants()


class TestMinimalBlockGeometry:
    def test_two_page_blocks(self):
        config = SimulationConfig(ssd=SSDConfig(
            logical_pages=64, page_size=256, pages_per_block=2))
        ftl = make_ftl("optimal", config)
        for lpn in list(range(64)) * 4:
            ftl.write_page(lpn)
        ftl.check_consistency()


class TestEmptyAndDegenerateTraces:
    def test_empty_trace(self, tiny_config):
        ftl = make_ftl("tpftl", tiny_config)
        result = simulate(ftl, Trace(logical_pages=512))
        assert result.requests == 0
        assert result.response.count == 0
        assert result.metrics.user_page_accesses == 0

    def test_warmup_longer_than_trace(self, tiny_config):
        ftl = make_ftl("dftl", tiny_config)
        trace = make_trace([(Op.READ, 0, 1)])
        result = simulate(ftl, trace, warmup_requests=10)
        assert result.requests == 0

    def test_single_request_trace(self, tiny_config):
        ftl = make_ftl("sftl", SimulationConfig(
            ssd=tiny_config.ssd, cache=CacheConfig(budget_bytes=2048)))
        result = simulate(ftl, make_trace([(Op.WRITE, 100, 1)]))
        assert result.metrics.user_page_writes == 1

    def test_whole_device_request(self, tiny_config):
        ftl = make_ftl("optimal", tiny_config)
        trace = make_trace([(Op.READ, 0, 512)])
        result = simulate(ftl, trace)
        assert result.metrics.user_page_reads == 512


class TestRepeatedHammering:
    """One LPN rewritten thousands of times: the degenerate hot page."""

    @pytest.mark.parametrize("name", ["dftl", "tpftl"])
    def test_single_page_hammer(self, tiny_config, name):
        ftl = make_ftl(name, tiny_config)
        for _ in range(2000):
            ftl.write_page(7)
        # one hot entry: everything after the first access hits
        assert ftl.metrics.hit_ratio > 0.99
        ftl.check_consistency()

    def test_hammer_gc_reclaims_everything(self, tiny_config):
        ftl = make_ftl("optimal", tiny_config)
        for _ in range(2000):
            ftl.write_page(7)
        # hammered blocks are fully invalid at collection: no migration
        m = ftl.metrics
        assert m.gc_data_collections > 0
        assert m.mean_valid_in_data_victims < 2.0


#: each cached FTL's documented minimum entry budget (bytes after the
#: GTD): one DFTL entry, one TP node with one entry, one S-FTL page of
#: one run.  S-FTL runs without its dirty buffer here, so its whole
#: entry budget is its page area.
MINIMUM_ENTRY_BYTES = {
    "dftl": DFTL_ENTRY_BYTES,
    "tpftl": TPFTL_NODE_BYTES + TPFTL_ENTRY_BYTES,
    "sftl": PAGE_HEADER_BYTES + RUN_BYTES,
}


def minimum_cache_config(name, extra_bytes=0):
    ssd = SSDConfig(logical_pages=512, page_size=256, pages_per_block=8)
    budget = ssd.gtd_bytes + MINIMUM_ENTRY_BYTES[name] + extra_bytes
    return SimulationConfig(ssd=ssd, cache=CacheConfig(
        budget_bytes=budget, sftl_dirty_buffer_fraction=0.0))


@pytest.mark.parametrize("name", sorted(MINIMUM_ENTRY_BYTES))
def test_budget_below_minimum_refused_at_construction(name):
    make_ftl(name, minimum_cache_config(name))  # the minimum itself builds
    with pytest.raises(CacheCapacityError):
        make_ftl(name, minimum_cache_config(name, extra_bytes=-1))


class TestCacheExactlyOneUnit:
    def test_dftl_single_entry_cache(self):
        ssd = SSDConfig(logical_pages=512, page_size=256,
                        pages_per_block=8)
        config = SimulationConfig(
            ssd=ssd, cache=CacheConfig(budget_bytes=ssd.gtd_bytes + 8))
        ftl = make_ftl("dftl", config)
        assert ftl.capacity_entries == 1
        ftl.write_page(0)
        ftl.write_page(100)  # evicts the only (dirty) entry
        assert ftl.metrics.dirty_replacements == 1
        ftl.flush()
        ftl.check_consistency()

    def test_tpftl_single_entry_cache(self):
        ssd = SSDConfig(logical_pages=512, page_size=256,
                        pages_per_block=8)
        config = SimulationConfig(
            ssd=ssd, cache=CacheConfig(budget_bytes=ssd.gtd_bytes + 14))
        ftl = make_ftl("tpftl", config)
        ftl.write_page(0)
        ftl.write_page(100)
        ftl.read_page(200)
        ftl.assert_invariants()
        ftl.flush()
        ftl.check_consistency()

    def test_sftl_single_page_cache(self):
        ftl = make_ftl("sftl", minimum_cache_config("sftl"))
        assert ftl.page_budget.capacity == PAGE_HEADER_BYTES + RUN_BYTES
        ftl.write_page(0)
        ftl.write_page(100)  # another translation page: evicts the first
        assert ftl.metrics.dirty_replacements == 1
        ftl.read_page(200)
        ftl.flush()
        ftl.check_consistency()


class TestArrivalEdgeCases:
    def test_all_simultaneous_arrivals(self, tiny_config):
        ftl = make_ftl("optimal", tiny_config)
        requests = [Request(arrival=0.0, op=Op.READ, lpn=i, npages=1)
                    for i in range(20)]
        result = simulate(ftl, Trace(requests=requests,
                                     logical_pages=512))
        # pure serialisation: mean response = (n+1)/2 * service
        assert result.response.mean == pytest.approx(
            (20 + 1) / 2 * 25.0)

    def test_far_future_arrivals_never_queue(self, tiny_config):
        ftl = make_ftl("optimal", tiny_config)
        requests = [Request(arrival=i * 1e9, op=Op.WRITE, lpn=i,
                            npages=1) for i in range(10)]
        result = simulate(ftl, Trace(requests=requests,
                                     logical_pages=512))
        assert result.response.mean_queue_delay == 0.0
