"""The device model: FIFO queueing, response times, warmup."""

import random

import pytest

from repro.errors import WorkloadError
from repro.ftl import OptimalFTL, make_ftl
from repro.ssd import simulate
from repro.types import Op, Request, Trace

from conftest import make_trace, random_ops


class TestQueueing:
    def test_idle_device_response_equals_service(self, tiny_config):
        ftl = OptimalFTL(tiny_config)
        trace = make_trace([(Op.READ, 0, 1)], spacing_us=10_000)
        result = simulate(ftl, trace)
        # one page read: 25us service, no queueing
        assert result.response.mean == pytest.approx(25.0)
        assert result.response.mean_queue_delay == 0.0

    def test_back_to_back_requests_queue(self, tiny_config):
        ftl = OptimalFTL(tiny_config)
        trace = Trace(requests=[
            Request(arrival=0.0, op=Op.READ, lpn=0, npages=1),
            Request(arrival=0.0, op=Op.READ, lpn=1, npages=1),
            Request(arrival=0.0, op=Op.READ, lpn=2, npages=1),
        ], logical_pages=512)
        result = simulate(ftl, trace)
        # services serialize: responses 25, 50, 75 -> mean 50
        assert result.response.mean == pytest.approx(50.0)
        assert result.response.max == pytest.approx(75.0)
        assert result.makespan == pytest.approx(75.0)

    def test_write_service_time(self, tiny_config):
        ftl = OptimalFTL(tiny_config)
        trace = make_trace([(Op.WRITE, 0, 1)], spacing_us=10_000)
        result = simulate(ftl, trace)
        assert result.response.mean == pytest.approx(200.0)

    def test_multi_page_request_sums_service(self, tiny_config):
        ftl = OptimalFTL(tiny_config)
        trace = make_trace([(Op.READ, 0, 4)])
        result = simulate(ftl, trace)
        assert result.response.mean == pytest.approx(100.0)


class TestSingleServerOracle:
    """``channels=1`` against the textbook FIFO recurrence.

    The oracle shares no code with the device: a twin FTL serves the
    same requests to obtain each one's operation counts, and the
    timings are recomputed here from the recurrence alone.
    """

    @pytest.mark.parametrize("seed", (0, 1))
    @pytest.mark.parametrize("ftl_name", ("optimal", "dftl", "tpftl"))
    def test_random_trace_matches_the_recurrence(self, tiny_config,
                                                 ftl_name, seed):
        rng = random.Random(seed)
        arrival, requests = 0.0, []
        for op, lpn, npages in random_ops(400, 512, seed=seed):
            # bursts (gap 0) and idle gaps both occur
            arrival += rng.choice((0.0, 40.0, 300.0, 2_500.0))
            requests.append(Request(arrival=arrival, op=op, lpn=lpn,
                                    npages=npages))
        trace = Trace(requests=requests, logical_pages=512)
        warmup = 100
        result = simulate(make_ftl(ftl_name, tiny_config), trace,
                          warmup_requests=warmup,
                          keep_response_samples=True)

        twin = make_ftl(ftl_name, tiny_config)
        ssd = twin.ssd
        expected, queue_delay, prev_finish, makespan = [], 0.0, 0.0, 0.0
        for index, request in enumerate(requests):
            cost = twin.serve_request(request)
            if index < warmup:
                continue
            service = (cost.total_reads * ssd.read_us
                       + cost.total_writes * ssd.write_us
                       + cost.erases * ssd.erase_us)
            if service == 0.0:
                # no flash touched: completes at arrival, never queues
                start = finish = request.arrival
            else:
                start = max(request.arrival, prev_finish)
                prev_finish = finish = start + service
            expected.append(finish - request.arrival)
            queue_delay += start - request.arrival
            makespan = max(makespan, finish)
        assert result.response.samples == expected
        assert result.response.total_queue_delay == queue_delay
        assert result.makespan == makespan
        assert queue_delay > 0.0  # the trace does contend


class TestValidation:
    def test_trace_bigger_than_device_rejected(self, tiny_config):
        ftl = OptimalFTL(tiny_config)
        trace = make_trace([(Op.READ, 511, 2)])  # touches LPN 512
        with pytest.raises(WorkloadError):
            simulate(ftl, trace)


class TestWarmup:
    def test_warmup_excluded_from_metrics(self, tiny_config):
        ftl = OptimalFTL(tiny_config)
        ops = [(Op.WRITE, i % 64, 1) for i in range(20)]
        result = simulate(ftl, make_trace(ops), warmup_requests=15)
        assert result.requests == 5
        assert result.metrics.user_page_writes == 5
        assert result.response.count == 5

    def test_warmup_state_persists(self, tiny_config):
        """Warmup must age the device even though stats reset."""
        ftl = OptimalFTL(tiny_config)
        ops = [(Op.WRITE, i % 16, 1) for i in range(600)]
        result = simulate(ftl, make_trace(ops), warmup_requests=500)
        # GC steady state reached during warmup: erase counts nonzero
        assert ftl.flash.total_erase_count() > 0
        # measured stats cover only the tail
        assert result.metrics.user_page_writes == 100


class TestRunResult:
    def test_summary_fields(self, tiny_config):
        ftl = OptimalFTL(tiny_config)
        result = simulate(ftl, make_trace([(Op.READ, 0, 1)],
                                          name="wl"))
        summary = result.summary()
        assert summary["ftl"] == "optimal"
        assert summary["trace"] == "wl"
        assert summary["requests"] == 1
        assert "hit_ratio" in summary
        assert "write_amplification" in summary

    def test_sampler_attached_when_interval_set(self, tiny_config):
        from repro.ftl import DFTL
        ftl = DFTL(tiny_config)
        ops = [(Op.READ, i, 1) for i in range(30)]
        result = simulate(ftl, make_trace(ops), sample_interval=10)
        assert result.sampler is not None
        assert len(result.sampler.samples) == 3

    def test_response_samples_kept_on_request(self, tiny_config):
        ftl = OptimalFTL(tiny_config)
        ops = [(Op.READ, i, 1) for i in range(10)]
        result = simulate(ftl, make_trace(ops),
                          keep_response_samples=True)
        assert len(result.response.samples) == 10
        assert result.response.percentile(50) is not None
