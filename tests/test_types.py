"""Unit tests for the shared value types."""

import random
from array import array

import pytest

from repro.errors import WorkloadError
from repro.metrics import ResponseStats
from repro.types import (MAX_TENANTS, OPS, AccessResult, Op, Request, Trace,
                         UNMAPPED, WORD_LIMIT, WORD_TYPECODE)


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
        with pytest.raises(AttributeError):
            request.extra = 5

    def test_equal_fields_are_equal(self):
        first = Request(1.5, Op.TRIM, 7, 2, tenant="a")
        second = Request(arrival=1.5, op=Op.TRIM, lpn=7, npages=2,
                         tenant="a")
        assert first == second and hash(first) == hash(second)
        assert first != second._replace(tenant=None)
        assert isinstance(second._replace(lpn=9), Request)


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


def _mixed_requests():
    """Every op, two tenants and unattributed requests, ties in time."""
    rng = random.Random(3)
    tenants = (None, "oltp", "batch")
    requests, clock = [], 0.0
    for _ in range(300):
        clock += rng.choice((0.0, 0.5, 120.0))
        requests.append(Request(clock, rng.choice(list(Op)),
                                rng.randrange(1_000), rng.randint(1, 9),
                                rng.choice(tenants)))
    return requests


class TestColumnarTrace:
    """A trace is five columns; its rows must be the requests it got."""

    def test_rows_round_trip(self):
        requests = _mixed_requests()
        trace = Trace(requests=requests, logical_pages=1_024, name="mix")
        assert list(trace) == requests
        assert trace.requests == requests
        assert all(type(row) is Request for row in trace)
        assert len(trace) == len(requests)
        assert trace.max_lpn() == max(r.end_lpn - 1 for r in requests)
        assert trace.end_lpn == max(r.end_lpn for r in requests)
        assert trace.name == "mix" and trace.logical_pages == 1_024

    def test_indexing_and_row_windows(self):
        requests = _mixed_requests()
        trace = Trace(requests=requests)
        for index in (0, 1, 150, len(requests) - 1, -1):
            assert trace[index] == requests[index]
        assert [r.tenant for r in trace] == [r.tenant for r in requests]
        for start, stop in ((0, 10), (10, None), (290, 400), (5, 5),
                            (0, None), (300, None)):
            assert list(trace.rows(start, stop)) == requests[start:stop]

    def test_layout_is_one_column_per_field(self):
        trace = Trace(requests=_mixed_requests())
        assert (trace.arrivals.typecode, trace.ops.typecode,
                trace.lpns.typecode, trace.npages.typecode,
                trace.tenants.typecode) == ("d", "B", "i", "i", "B")
        assert WORD_TYPECODE == "i" and trace.lpns.itemsize == 4
        assert trace.tenant_names[0] is None
        assert set(trace.tenant_names) == {None, "oltp", "batch"}
        assert [OPS[code] for code in trace.ops] \
            == [r.op for r in _mixed_requests()]

    def test_words_refuse_a_request_wider_than_32_bits(self):
        fits = Trace(requests=[Request(0.0, Op.READ, WORD_LIMIT - 2, 1)])
        assert fits.end_lpn == WORD_LIMIT - 1
        for lpn, npages in ((WORD_LIMIT, 1), (0, WORD_LIMIT)):
            with pytest.raises(WorkloadError, match="request 1 .*32-bit"):
                Trace(requests=[Request(0.0, Op.READ, 0, 1),
                                Request(0.0, Op.WRITE, lpn, npages)])

    def test_from_columns_trusts_but_checks_lengths(self):
        trace = Trace.from_columns(
            array("d", [0.0, 2.0]), array("B", [1, 0]), array("q", [4, 5]),
            array("q", [1, 3]), logical_pages=16, name="cols")
        assert list(trace) == [Request(0.0, Op.WRITE, 4, 1),
                               Request(2.0, Op.READ, 5, 3)]
        assert trace.end_lpn == 8 and trace.unordered is None
        with pytest.raises(ValueError, match="length"):
            Trace.from_columns(array("d", [0.0]), array("B"), array("q"),
                               array("q"))

    def test_unordered_fact_is_the_first_late_arrival(self):
        def trace_of(*arrivals):
            return Trace(requests=[Request(a, Op.READ, 0, 1)
                                   for a in arrivals])
        assert trace_of(0.0, 1.0, 1.0).unordered is None
        assert trace_of(5.0, 9.0, 7.0, 3.0).unordered == (2, 7.0, 9.0)
        # the first request is compared against time zero
        assert trace_of(-1.0, 2.0).unordered == (0, -1.0, 0.0)
        assert Trace().unordered is None and Trace().end_lpn == 0

    def test_tenant_names_fit_one_byte(self):
        requests = [Request(0.0, Op.READ, 0, 1, tenant=f"t{index}")
                    for index in range(MAX_TENANTS)]
        names = Trace(requests=requests).tenant_names
        assert len(names) == MAX_TENANTS + 1
        with pytest.raises(ValueError, match="at most 255 tenants"):
            Trace(requests=requests + [Request(0.0, Op.READ, 0, 1,
                                               tenant="one-too-many")])


def test_unmapped_sentinel_is_negative():
    assert UNMAPPED < 0
