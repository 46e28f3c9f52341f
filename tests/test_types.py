"""Unit tests for the shared value types."""

import pytest

from repro.metrics import ResponseStats
from repro.types import AccessResult, Op, Request, Trace, UNMAPPED


class TestOp:
    def test_write_flag(self):
        assert Op.WRITE.is_write
        assert not Op.READ.is_write

    def test_values_distinct(self):
        assert Op.READ is not Op.WRITE


class TestRequest:
    def test_pages_iterates_span(self):
        request = Request(arrival=0.0, op=Op.READ, lpn=10, npages=3)
        assert list(request.pages()) == [10, 11, 12]

    def test_end_lpn(self):
        request = Request(arrival=0.0, op=Op.WRITE, lpn=5, npages=2)
        assert request.end_lpn == 7

    def test_is_write(self):
        assert Request(arrival=0, op=Op.WRITE, lpn=0, npages=1).is_write
        assert not Request(arrival=0, op=Op.READ, lpn=0,
                           npages=1).is_write

    def test_rejects_zero_pages(self):
        with pytest.raises(ValueError):
            Request(arrival=0.0, op=Op.READ, lpn=0, npages=0)

    def test_rejects_negative_lpn(self):
        with pytest.raises(ValueError):
            Request(arrival=0.0, op=Op.READ, lpn=-1, npages=1)

    def test_frozen(self):
        request = Request(arrival=0.0, op=Op.READ, lpn=0, npages=1)
        with pytest.raises(AttributeError):
            request.lpn = 5


class TestAccessResult:
    def test_merge_accumulates_all_fields(self):
        a = AccessResult(data_reads=1, data_writes=2,
                         translation_reads=3, translation_writes=4,
                         erases=5, gc_data_reads=1, gc_data_writes=1,
                         gc_translation_reads=1, gc_translation_writes=1)
        b = AccessResult(data_reads=10, data_writes=20,
                         translation_reads=30, translation_writes=40,
                         erases=50, gc_data_reads=2, gc_data_writes=2,
                         gc_translation_reads=2, gc_translation_writes=2)
        a.merge(b)
        assert a.data_reads == 11
        assert a.data_writes == 22
        assert a.translation_reads == 33
        assert a.translation_writes == 44
        assert a.erases == 55
        assert a.gc_data_reads == 3
        assert a.gc_translation_writes == 3

    def test_totals(self):
        result = AccessResult(data_reads=2, translation_reads=3,
                              data_writes=4, translation_writes=5)
        assert result.total_reads == 5
        assert result.total_writes == 9

    def test_service_time_weights_latencies(self):
        result = AccessResult(data_reads=2, translation_reads=1,
                              data_writes=1, translation_writes=1,
                              erases=1)
        time = result.service_time(read_us=25.0, write_us=200.0,
                                   erase_us=1500.0)
        assert time == pytest.approx(3 * 25.0 + 2 * 200.0 + 1500.0)

    def test_empty_service_time_is_zero(self):
        assert AccessResult().service_time(25, 200, 1500) == 0.0


class TestRequestTiming:
    """One request's (arrival, start, finish) folded by
    ``ResponseStats.record_timing``."""

    def test_response_and_queue_delay(self):
        stats = ResponseStats()
        stats.record_timing(100.0, 150.0, 400.0)
        assert stats.mean == pytest.approx(300.0)
        assert stats.total_queue_delay == pytest.approx(50.0)

    def test_no_queueing(self):
        stats = ResponseStats()
        stats.record_timing(10.0, 10.0, 35.0)
        assert stats.total_queue_delay == 0.0
        assert stats.mean == pytest.approx(25.0)


class TestTrace:
    def test_len_iter_getitem(self):
        requests = [Request(arrival=float(i), op=Op.READ, lpn=i,
                            npages=1) for i in range(3)]
        trace = Trace(requests=requests, logical_pages=10)
        assert len(trace) == 3
        assert trace[1].lpn == 1
        assert [r.lpn for r in trace] == [0, 1, 2]

    def test_max_lpn(self):
        trace = Trace(requests=[
            Request(arrival=0.0, op=Op.READ, lpn=3, npages=4),
            Request(arrival=1.0, op=Op.WRITE, lpn=0, npages=1),
        ], logical_pages=10)
        assert trace.max_lpn() == 6

    def test_max_lpn_empty(self):
        assert Trace().max_lpn() is None


def test_unmapped_sentinel_is_negative():
    assert UNMAPPED < 0
