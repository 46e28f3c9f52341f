"""GC-time accounting: the share of flash service time spent on GC."""

import random

from repro.ftl import OptimalFTL
from repro.ssd import DeviceModel
from repro.types import Op, Request, Trace


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
