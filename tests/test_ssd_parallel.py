"""The device model at ``channels > 1`` and its shared queueing rules.

The hand-computed scenarios use the Table 3 latencies scaled to the
tiny fixture geometry: 25us reads, 200us writes, 1.5ms erases.
"""

import pytest

from repro.errors import ConfigError, WorkloadError
from repro.ftl import DFTL, OptimalFTL
from repro.ssd import DeviceModel
from repro.types import Op, Request, Trace

from conftest import make_trace, random_ops


def burst(ops, arrival=0.0, logical_pages=512):
    """All requests arrive at the same instant (maximum contention)."""
    return Trace(requests=[Request(arrival=arrival, op=op, lpn=lpn,
                                   npages=npages)
                           for op, lpn, npages in ops],
                 logical_pages=logical_pages)


class TestChannelDevice:
    def test_single_channel_matches_serial_service(self, tiny_config):
        ftl = OptimalFTL(tiny_config)
        device = DeviceModel(ftl, channels=1)
        trace = make_trace([(Op.READ, 0, 4)], spacing_us=100_000)
        result = device.run(trace)
        assert result.response.mean == pytest.approx(4 * 25.0)

    def test_channels_overlap_operations(self, tiny_config):
        ftl = OptimalFTL(tiny_config)
        device = DeviceModel(ftl, channels=4)
        trace = make_trace([(Op.READ, 0, 4)], spacing_us=100_000)
        result = device.run(trace)
        # four reads across four channels complete in one read time
        assert result.response.mean == pytest.approx(25.0)

    def test_more_channels_never_slower(self, tiny_config):
        import random
        rng = random.Random(2)
        ops = [(Op.WRITE if rng.random() < 0.7 else Op.READ,
                rng.randrange(512 - 4), rng.randint(1, 4))
               for _ in range(400)]
        means = []
        for channels in (1, 2, 8):
            ftl = OptimalFTL(tiny_config)
            device = DeviceModel(ftl, channels=channels)
            result = device.run(make_trace(ops))
            means.append(result.response.mean)
        assert means[0] >= means[1] >= means[2]

    def test_warmup_supported(self, tiny_config):
        ftl = OptimalFTL(tiny_config)
        device = DeviceModel(ftl, channels=2)
        ops = [(Op.WRITE, i % 32, 1) for i in range(50)]
        result = device.run(make_trace(ops), warmup_requests=30)
        assert result.requests == 20
        assert result.metrics.user_page_writes == 20

    def test_channel_count_validated(self, tiny_config):
        with pytest.raises(ConfigError):
            DeviceModel(OptimalFTL(tiny_config), channels=0)

    def test_channel_count_reported(self, tiny_config):
        ftl = OptimalFTL(tiny_config)
        result = DeviceModel(ftl, channels=4).run(
            make_trace([(Op.READ, 0, 1)]))
        assert result.channels == 4
        assert result.summary()["channels"] == 4


class TestQueueDelayAttribution:
    """Hand-computed micro-traces: start = first dispatch, not arrival."""

    def test_contended_request_records_queue_delay(self, tiny_config):
        # channels=2: R0 (2 reads) fills both channels until t=25;
        # R1 (2 reads, same arrival) starts at 25, finishes at 50.
        ftl = OptimalFTL(tiny_config)
        device = DeviceModel(ftl, channels=2,
                             keep_response_samples=True)
        result = device.run(burst([(Op.READ, 0, 2), (Op.READ, 4, 2)]))
        assert result.response.samples == [25.0, 50.0]
        assert result.response.total_queue_delay == pytest.approx(25.0)
        assert result.response.mean_queue_delay == pytest.approx(12.5)
        assert result.makespan == pytest.approx(50.0)

    def test_uncontended_requests_have_zero_delay(self, tiny_config):
        ftl = OptimalFTL(tiny_config)
        device = DeviceModel(ftl, channels=2)
        result = device.run(make_trace([(Op.READ, 0, 2),
                                        (Op.READ, 4, 2)],
                                       spacing_us=10_000))
        assert result.response.mean_queue_delay == 0.0

    def test_striping_cursor_persists_across_requests(self, tiny_config):
        # 3 reads on 2 channels: ch0 until 50, ch1 until 25.  The next
        # 1-read request continues on ch1 (cursor), starting at 25.
        ftl = OptimalFTL(tiny_config)
        device = DeviceModel(ftl, channels=2,
                             keep_response_samples=True)
        result = device.run(burst([(Op.READ, 0, 3), (Op.READ, 4, 1)]))
        assert result.response.samples == [50.0, 50.0]
        assert result.response.total_queue_delay == pytest.approx(25.0)

    def test_bursty_trace_on_four_channels_queues(self, tiny_config):
        # acceptance: channels=4 under a burst reports strictly
        # positive mean queueing delay
        ftl = OptimalFTL(tiny_config)
        device = DeviceModel(ftl, channels=4)
        result = device.run(burst([(Op.READ, i * 4, 1)
                                   for i in range(8)]))
        assert result.response.mean_queue_delay > 0.0
        assert result.response.mean_queue_delay == pytest.approx(12.5)

    def test_queue_plus_service_equals_response(self, tiny_config):
        ftl = OptimalFTL(tiny_config)
        device = DeviceModel(ftl, channels=2)
        result = device.run(burst([(Op.READ, 0, 2), (Op.READ, 4, 2),
                                   (Op.WRITE, 8, 3)]))
        response = result.response
        assert (response.mean_queue_delay + response.mean_service_time
                == pytest.approx(response.mean))


class TestZeroOpRequests:
    """A request that touches no flash completes at its arrival."""

    def trim_after_reads(self, device):
        # the 4-page read occupies the device; the cached TRIM issues
        # no flash operation and must not queue behind it
        trace = Trace(requests=[
            Request(arrival=0.0, op=Op.READ, lpn=0, npages=4),
            Request(arrival=0.0, op=Op.TRIM, lpn=8, npages=1),
        ], logical_pages=512)
        return device.run(trace)

    def test_channel_model_trim_finishes_at_arrival(self, tiny_config):
        device = DeviceModel(OptimalFTL(tiny_config), channels=2,
                             keep_response_samples=True)
        result = self.trim_after_reads(device)
        assert result.response.samples == [50.0, 0.0]
        assert result.response.total_queue_delay == 0.0

    def test_single_server_trim_finishes_at_arrival(self, tiny_config):
        device = DeviceModel(OptimalFTL(tiny_config),
                             keep_response_samples=True)
        result = self.trim_after_reads(device)
        assert result.response.samples == [100.0, 0.0]
        assert result.response.total_queue_delay == 0.0

    def test_zero_op_does_not_extend_makespan(self, tiny_config):
        device = DeviceModel(OptimalFTL(tiny_config), channels=2)
        trace = Trace(requests=[
            Request(arrival=0.0, op=Op.READ, lpn=0, npages=2),
            Request(arrival=9_999.0, op=Op.TRIM, lpn=8, npages=1),
        ], logical_pages=512)
        result = device.run(trace)
        assert result.makespan == pytest.approx(9_999.0)


class TestGCAccounting:
    def test_gc_time_accrues_on_channel_device(self, tiny_config):
        ftl = OptimalFTL(tiny_config)
        device = DeviceModel(ftl, channels=4)
        result = device.run(make_trace(random_ops(700, 512, seed=5,
                                                  write_ratio=0.9)))
        assert result.gc_time_us > 0.0
        assert 0.0 < result.gc_time_fraction < 1.0
        assert result.service_time_us > result.gc_time_us

    def test_gc_accounting_is_model_independent(self, tiny_config):
        # flash-busy time is the same no matter how it is queued
        ops = random_ops(500, 512, seed=7, write_ratio=0.9)
        single = DeviceModel(OptimalFTL(tiny_config)).run(
            make_trace(ops))
        multi = DeviceModel(OptimalFTL(tiny_config),
                            channels=4).run(make_trace(ops))
        assert multi.gc_time_us == single.gc_time_us
        assert multi.service_time_us == single.service_time_us


class TestQueueStateReset:
    """Queues reset per run(); a reused device inherits no makespan."""

    def test_channel_queues_reset_between_runs(self, tiny_config):
        ftl = OptimalFTL(tiny_config)
        device = DeviceModel(ftl, channels=2,
                             keep_response_samples=True)
        trace = make_trace([(Op.READ, i * 4, 2) for i in range(40)])
        first = device.run(trace)
        second = device.run(trace)
        # reads leave the FTL untouched: identical timings both runs
        assert second.response.samples == first.response.samples
        assert second.makespan == first.makespan

    def test_single_server_resets_between_runs(self, tiny_config):
        ftl = OptimalFTL(tiny_config)
        device = DeviceModel(ftl, keep_response_samples=True)
        trace = make_trace([(Op.READ, i * 4, 2) for i in range(40)])
        first = device.run(trace)
        second = device.run(trace)
        assert second.response.samples == first.response.samples
        assert second.makespan == first.makespan


class TestValidation:
    def test_channel_model_rejects_oversized_trace(self, tiny_config):
        ftl = OptimalFTL(tiny_config)
        device = DeviceModel(ftl, channels=4)
        trace = make_trace([(Op.READ, 511, 2)])  # touches LPN 512
        with pytest.raises(WorkloadError):
            device.run(trace)


class TestFeatureParity:
    """The sampler works on channels."""

    def test_sampler_attached(self, tiny_config):
        ftl = DFTL(tiny_config)
        device = DeviceModel(ftl, channels=2, sample_interval=10)
        ops = [(Op.READ, i, 1) for i in range(30)]
        result = device.run(make_trace(ops))
        assert result.sampler is not None
        assert len(result.sampler.samples) == 3
