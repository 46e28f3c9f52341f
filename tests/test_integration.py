"""Cross-FTL integration tests: every FTL must be a correct block
device, with self-consistent accounting, whatever the cache policy."""

import random

import pytest

from repro.config import CacheConfig, SimulationConfig, SSDConfig
from repro.ftl import make_ftl
from repro.ssd import simulate
from repro.types import Op, Request, Trace

from conftest import make_trace, random_ops

DEMAND_FTLS = ("dftl", "tpftl", "sftl")
ALL_FTLS = DEMAND_FTLS + ("optimal",)


def config_for(name: str) -> SimulationConfig:
    ssd = SSDConfig(logical_pages=512, page_size=256, pages_per_block=8)
    if name == "sftl":
        return SimulationConfig(ssd=ssd,
                                cache=CacheConfig(budget_bytes=2048))
    return SimulationConfig(ssd=ssd)


class TestMappingCorrectness:
    """Replay random ops against a reference dict; all reads must land
    on a flash page whose recorded identity is the right LPN."""

    @pytest.mark.parametrize("name", ALL_FTLS)
    def test_reads_always_see_latest_write(self, name):
        ftl = make_ftl(name, config_for(name))
        rng = random.Random(101)
        for step in range(800):
            lpn = rng.randrange(512)
            if rng.random() < 0.6:
                ftl.write_page(lpn)
            else:
                ftl.read_page(lpn)
            if step % 100 == 0:
                current = ftl.lookup_current(lpn)
                block = ftl.flash.block_of(current)
                assert block.meta(ftl.flash.offset_of(current)) == lpn

    @pytest.mark.parametrize("name", ALL_FTLS)
    def test_consistency_check_passes_after_stress(self, name):
        ftl = make_ftl(name, config_for(name))
        rng = random.Random(55)
        for _ in range(600):
            lpn = rng.randrange(512)
            if rng.random() < 0.7:
                ftl.write_page(lpn)
            else:
                ftl.read_page(lpn)
        if hasattr(ftl, "flush"):
            ftl.flush()
        ftl.check_consistency()

    @pytest.mark.parametrize("name", DEMAND_FTLS)
    def test_every_lpn_readable_after_stress(self, name):
        ftl = make_ftl(name, config_for(name))
        rng = random.Random(77)
        for _ in range(500):
            ftl.write_page(rng.randrange(512))
        for lpn in range(0, 512, 17):
            ftl.read_page(lpn)  # must not raise


class TestAccountingAgreement:
    """FTL-level cause attribution must sum to the flash ground truth."""

    @pytest.mark.parametrize("name", DEMAND_FTLS)
    def test_translation_write_attribution_sums(self, name):
        ftl = make_ftl(name, config_for(name))
        rng = random.Random(31)
        for _ in range(700):
            lpn = rng.randrange(512)
            if rng.random() < 0.75:
                ftl.write_page(lpn)
            else:
                ftl.read_page(lpn)
        assert (ftl.metrics.translation_page_writes
                == ftl.flash.stats.translation_writes)
        assert (ftl.metrics.translation_page_reads
                == ftl.flash.stats.translation_reads)

    @pytest.mark.parametrize("name", DEMAND_FTLS + ("optimal",))
    def test_data_write_attribution_sums(self, name):
        ftl = make_ftl(name, config_for(name))
        rng = random.Random(32)
        writes = 0
        for _ in range(600):
            lpn = rng.randrange(512)
            if rng.random() < 0.75:
                ftl.write_page(lpn)
                writes += 1
            else:
                ftl.read_page(lpn)
        assert (ftl.flash.stats.data_writes
                == writes + ftl.metrics.data_writes_migration)

    @pytest.mark.parametrize("name", DEMAND_FTLS)
    def test_erase_attribution_sums(self, name):
        ftl = make_ftl(name, config_for(name))
        rng = random.Random(33)
        for _ in range(800):
            ftl.write_page(rng.randrange(512))
        assert (ftl.metrics.total_erases
                == ftl.flash.stats.total_erases)


class TestDeviceEndToEnd:
    @pytest.mark.parametrize("name", ALL_FTLS)
    def test_full_trace_replay(self, name):
        trace = make_trace(random_ops(400, 512, seed=9))
        result = simulate(make_ftl(name, config_for(name)), trace)
        assert result.requests == 400
        assert result.response.mean > 0.0
        assert result.metrics.user_page_accesses >= 400

    def test_identical_trace_identical_results(self):
        trace = make_trace(random_ops(300, 512, seed=10))
        a = simulate(make_ftl("tpftl", config_for("tpftl")), trace)
        b = simulate(make_ftl("tpftl", config_for("tpftl")), trace)
        assert a.summary() == b.summary()


class TestPaperOrderings:
    """Directional claims of the paper at integration-test scale."""

    @pytest.fixture(scope="class")
    def runs(self):
        rng = random.Random(42)
        requests = []
        clock = 0.0
        # random-dominant write-heavy workload with a hot set
        for _ in range(3000):
            clock += rng.expovariate(1 / 400.0)
            hot = rng.random() < 0.8
            lpn = (rng.randrange(64) * 7) % 512 if hot \
                else rng.randrange(512)
            op = Op.WRITE if rng.random() < 0.8 else Op.READ
            requests.append(Request(arrival=clock, op=op, lpn=lpn,
                                    npages=1))
        trace = Trace(requests=requests, logical_pages=512)
        return {
            name: simulate(make_ftl(name, config_for(name)), trace)
            for name in ("dftl", "tpftl", "optimal")
        }

    def test_tpftl_prd_below_dftl(self, runs):
        assert (runs["tpftl"].metrics.p_replace_dirty
                < runs["dftl"].metrics.p_replace_dirty)

    def test_tpftl_translation_writes_below_dftl(self, runs):
        assert (runs["tpftl"].metrics.translation_page_writes
                < runs["dftl"].metrics.translation_page_writes)

    def test_optimal_bounds_everyone(self, runs):
        for name in ("dftl", "tpftl"):
            assert (runs["optimal"].response.mean
                    <= runs[name].response.mean)
            assert (runs["optimal"].metrics.write_amplification
                    <= runs[name].metrics.write_amplification + 1e-9)

    def test_tpftl_response_not_worse_than_dftl(self, runs):
        assert (runs["tpftl"].response.mean
                <= runs["dftl"].response.mean)
