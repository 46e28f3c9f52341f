"""Background (idle-time) GC and GC-time accounting extensions."""

import random

import pytest

from repro.config import SimulationConfig, SSDConfig
from repro.ftl import OptimalFTL, make_ftl
from repro.ssd import DeviceModel
from repro.types import Op, Request, Trace
from repro.workloads import financial1


def bursty_write_trace(pages=512, bursts=40, burst_len=20,
                       gap_us=50_000.0, seed=3) -> Trace:
    """Write bursts separated by long idle gaps."""
    rng = random.Random(seed)
    requests = []
    clock = 0.0
    for _ in range(bursts):
        for _ in range(burst_len):
            clock += 50.0
            requests.append(Request(arrival=clock, op=Op.WRITE,
                                    lpn=rng.randrange(pages), npages=1))
        clock += gap_us
    return Trace(requests=requests, logical_pages=pages)


class TestGCTimeAccounting:
    def test_gc_time_fraction_in_range(self, tiny_config):
        ftl = OptimalFTL(tiny_config)
        result = DeviceModel(ftl).run(bursty_write_trace())
        assert 0.0 <= result.gc_time_fraction <= 1.0
        assert result.service_time_us > 0.0

    def test_no_gc_no_gc_time(self, tiny_config):
        ftl = OptimalFTL(tiny_config)
        trace = Trace(requests=[Request(arrival=0.0, op=Op.READ, lpn=0,
                                        npages=1)], logical_pages=512)
        result = DeviceModel(ftl).run(trace)
        assert result.gc_time_us == 0.0
        assert result.gc_time_fraction == 0.0

    def test_write_heavy_runs_accrue_gc_time(self, tiny_config):
        ftl = OptimalFTL(tiny_config)
        result = DeviceModel(ftl).run(bursty_write_trace(bursts=80))
        assert result.gc_time_us > 0.0


class TestBackgroundGC:
    def test_disabled_by_default(self, tiny_config):
        ftl = OptimalFTL(tiny_config)
        result = DeviceModel(ftl).run(bursty_write_trace())
        assert result.background_collections == 0

    def test_idle_gaps_absorb_collections(self, tiny_config):
        ftl = OptimalFTL(tiny_config)
        device = DeviceModel(ftl, background_gc=True)
        result = device.run(bursty_write_trace(bursts=80))
        assert result.background_collections > 0

    def test_background_gc_reduces_foreground_stalls(self, tiny_config):
        """With idle gaps available, background GC should cut the mean
        response time of the foreground writes."""
        trace = bursty_write_trace(bursts=100, burst_len=25)
        plain = DeviceModel(OptimalFTL(tiny_config)).run(trace)
        ftl = OptimalFTL(tiny_config)
        assisted = DeviceModel(ftl, background_gc=True).run(trace)
        assert assisted.response.mean <= plain.response.mean

    def test_background_gc_does_not_slow_tpftl_on_financial1(self):
        """The translation-block side of idle GC: on an OLTP trace with
        real idle gaps TPFTL's foreground response must not pay for
        it."""
        pages = 16_384
        config = SimulationConfig(ssd=SSDConfig(logical_pages=pages))
        trace = financial1(logical_pages=pages, num_requests=10_000)
        means = {}
        for enabled in (False, True):
            device = DeviceModel(make_ftl("tpftl", config),
                                 background_gc=enabled)
            means[enabled] = device.run(
                trace, warmup_requests=2_500).response.mean
        assert means[True] <= means[False] * 1.05

    def test_background_gc_preserves_consistency(self, tiny_config):
        ftl = make_ftl("tpftl", tiny_config)
        device = DeviceModel(ftl, background_gc=True)
        device.run(bursty_write_trace(bursts=60))
        ftl.flush()
        ftl.check_consistency()

    def test_background_collect_respects_pool_headroom(self, tiny_config):
        """Right after prefill the pool is deep: idle GC must not churn."""
        ftl = OptimalFTL(tiny_config)
        cost = ftl.background_collect(max_blocks=4)
        assert cost.erases == 0

    def test_background_collect_zero_budget(self, tiny_config):
        ftl = OptimalFTL(tiny_config)
        assert ftl.background_collect(max_blocks=0).erases == 0
