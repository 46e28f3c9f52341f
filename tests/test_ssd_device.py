"""The device model: FIFO queueing, response times, warmup."""

import dataclasses
import os
import random
import sys
from collections import Counter

import pytest

from repro.cache import ByteBudget, LRUList
from repro.config import CacheConfig, SimulationConfig, SSDConfig, TPFTLConfig
from repro.errors import ConfigError, WorkloadError
from repro.faults import FaultInjector
from repro.flash import FlashMemory
from repro.ftl import FTL_NAMES, SFTL, TPFTL, BaseFTL, OptimalFTL, make_ftl
from repro.ftl.tpftl import EntryNode, TPNode
from repro.metrics import ResponseStats
from repro.ssd import DeviceModel, simulate
from repro.types import BlockKind, Op, PageKind, PageState, Request, Trace
from repro.workloads import ArrivalModel, compose, uniform_mix

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
    """Both checks read facts the trace computed when it was built."""

    def test_trace_bigger_than_device_rejected(self, tiny_config):
        ftl = OptimalFTL(tiny_config)
        trace = make_trace([(Op.READ, 511, 2)])  # touches LPN 512
        with pytest.raises(WorkloadError):
            simulate(ftl, trace)

    def test_oversized_trace_message_and_nothing_served(self, tiny_config):
        ftl = OptimalFTL(tiny_config)
        programs = ftl.flash.stats.total_writes
        trace = make_trace([(Op.WRITE, 3, 1), (Op.READ, 600, 2),
                            (Op.READ, 0, 1)])
        with pytest.raises(WorkloadError) as raised:
            simulate(ftl, trace)
        assert str(raised.value) == ("trace touches LPN 601 but the device "
                                     "has only 512 logical pages")
        assert ftl.flash.stats.total_writes == programs

    def test_unordered_trace_message_names_the_first_late_request(
            self, tiny_config):
        trace = Trace(requests=[
            Request(arrival=arrival, op=Op.READ, lpn=0, npages=1)
            for arrival in (10.0, 30.0, 20.0, 5.0)], logical_pages=512)
        with pytest.raises(WorkloadError) as raised:
            simulate(OptimalFTL(tiny_config), trace)
        assert str(raised.value) == (
            "trace arrivals are not non-decreasing: request 2 arrives at "
            "20.0 after 30.0; sort the trace (the parsers do) or fix the "
            "generator")


class TestWarmup:
    def test_warmup_excluded_from_metrics(self, tiny_config):
        ftl = OptimalFTL(tiny_config)
        ops = [(Op.WRITE, i % 64, 1) for i in range(20)]
        result = simulate(ftl, make_trace(ops), warmup_requests=15)
        assert result.requests == 5
        assert result.metrics.user_page_writes == 5
        assert result.response.count == 5

    def test_warmup_longer_than_the_trace(self, tiny_config):
        ftl = OptimalFTL(tiny_config)
        before = ftl.flash_table[:10].tolist()
        ops = [(Op.WRITE, i, 1) for i in range(10)]
        with pytest.raises(ConfigError, match="warmup"):
            simulate(ftl, make_trace(ops), warmup_requests=25)
        # refused before any warmup write was served
        assert ftl.flash_table[:10].tolist() == before

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


class TestResponseFold:
    def test_inline_fold_equals_record_timing(self, tiny_config):
        """The aggregate statistics are folded inline in the replay
        loop, a tenant's through ``record_timing``: on a trace whose
        every request is one tenant's the two agree bit for bit."""
        requests = [Request(arrival=index * 150.0, op=op, lpn=lpn,
                            npages=npages, tenant="solo")
                    for index, (op, lpn, npages)
                    in enumerate(random_ops(400, 512, seed=5))]
        trace = Trace(requests=requests, logical_pages=512)
        result = simulate(make_ftl("tpftl", tiny_config), trace,
                          warmup_requests=50, keep_response_samples=True)
        solo = result.tenants["solo"]
        assert solo.count == result.response.count == 350
        assert solo.total_queue_delay > 0.0  # requests did queue
        # every field, the Welford accumulator and the samples included
        assert dataclasses.asdict(solo) == dataclasses.asdict(
            result.response)


#: ``repro/cache/``: a frame from a file under it is a substrate call
_CACHE_DIR = os.path.dirname(ByteBudget.charge.__code__.co_filename) + os.sep


def _gc_heavy_trace() -> Trace:
    """Random 1-4 page reads and writes over the tiny device, with
    trims mixed in: every branch of the page loop, and GC throughout."""
    ops = random_ops(600, 512, seed=11)
    ops[::25] = [(Op.TRIM, lpn, npages) for _, lpn, npages in ops[::25]]
    return make_trace(ops)


def _hot_path_case(case: str):
    """``(device, trace)`` for one replay the enum guard watches."""
    ssd = SSDConfig(logical_pages=512, page_size=256, pages_per_block=8)
    if case in FTL_NAMES:
        return (DeviceModel(make_ftl(case, SimulationConfig(ssd=ssd))),
                _gc_heavy_trace())
    if case == "read-faults":
        ssd = SSDConfig(logical_pages=512, page_size=256,
                        pages_per_block=8, read_error_rate=0.05,
                        fault_seed=3)
        return (DeviceModel(make_ftl("tpftl", SimulationConfig(ssd=ssd))),
                _gc_heavy_trace())
    spec = uniform_mix("mix", "financial1", 3, 150, 128,
                       arrival=ArrivalModel(mean_interarrival_us=250.0),
                       weights=(1.0, 2.0, 3.0), seed=5)
    trace = compose(spec)
    ssd = SSDConfig(logical_pages=trace.logical_pages, page_size=256,
                    pages_per_block=8)
    return (DeviceModel(make_ftl("dftl", SimulationConfig(ssd=ssd)),
                        channels=4, qos="fair",
                        tenant_weights=spec.weights()), trace)


class TestHotPath:
    @pytest.mark.parametrize(
        "case", FTL_NAMES + ("fair-mix-4ch", "read-faults"))
    def test_replay_reads_no_enum_member_through_its_class(self, case):
        """Per-op code compares against the members ``repro.types``
        binds once: ``Op.READ`` runs the enum metaclass's attribute
        slot, several times a module global's cost on CPython <= 3.11,
        and no profiler call count shows it."""
        device, trace = _hot_path_case(case)
        watched = (Op, PageKind, BlockKind, PageState)
        meta = type(Op)
        reads = []

        def counting(cls, name):
            if cls in watched and not (name.startswith("__")
                                       and name.endswith("__")):
                reads.append(f"{cls.__name__}.{name}")
            return type.__getattribute__(cls, name)

        meta.__getattribute__ = counting
        try:
            assert Op.WRITE is not None  # the counter is live
            probe = reads.copy()
            reads.clear()
            result = device.run(trace)
        finally:
            delattr(meta, "__getattribute__")
        assert probe == ["Op.WRITE"]
        assert reads == []
        assert device.ftl.sanitizer is None
        assert result.metrics.gc_data_collections > 0
        if case == "read-faults":
            assert result.faults["read_retries"] > 0

    @pytest.mark.parametrize("case", FTL_NAMES + ("read-faults",))
    def test_replay_folds_and_consults_without_helper_frames(self, case):
        """An untenanted replay folds its response statistics inline
        (no ``record_timing`` frame), a user write's program invalidates
        the page it supersedes (``invalidate`` is TRIM's alone), and a
        live read-error plan is consulted without a frame for the
        injector's bookkeeping or for a program that cannot fail: an
        unordered injector counts every operation, retries included,
        without ``on_operation`` or a per-read oracle frame."""
        device, trace = _hot_path_case(case)
        injector = device.ftl.flash.injector
        ops_before = injector.ops_seen
        calls = Counter()

        def counting(frame, event, arg):
            if event == "call":
                calls[frame.f_code] += 1

        sys.setprofile(counting)
        try:
            result = device.run(trace)
        finally:
            sys.setprofile(None)
        metrics = result.metrics
        assert metrics.gc_data_collections > 0
        assert result.response.count == len(trace)
        assert calls[ResponseStats.record_timing.__code__] == 0
        # every trimmed page was mapped at most once since the prefill
        invalidated = calls[FlashMemory.invalidate.__code__]
        assert 0 < invalidated <= metrics.user_page_trims
        assert metrics.user_page_writes > 10 * invalidated
        injector_file = FaultInjector.on_operation.__code__.co_filename
        assert not [code.co_name for code in calls
                    if code.co_filename == injector_file
                    and code.co_name in ("__setattr__", "_program_fails")]
        if case == "read-faults":
            assert not [code.co_name for code in calls
                        if code.co_filename == injector_file
                        and code.co_name in ("on_operation",
                                             "_read_attempt_fails")]
            assert result.faults["read_retries"] > 0
            stats = device.ftl.flash.stats
            assert injector.ops_seen - ops_before == (
                stats.total_reads + stats.total_writes
                + stats.total_erases + stats.read_retries)

    def test_data_collection_enters_extras_hook_and_gtd_once(self):
        """GC's mapping update folds a data victim's misses in bulk: one
        extras-hook call and one GTD call (the repointing) per
        collection that forces rewrites, however many translation pages
        it forces."""
        ssd = SSDConfig(logical_pages=512, page_size=256, pages_per_block=8)
        ftl = make_ftl("tpftl", SimulationConfig(
            ssd=ssd, cache=CacheConfig(budget_bytes=1024)))
        gtd_file = type(ftl.gtd).lookup.__code__.co_filename
        collect = BaseFTL._collect_data_block.__code__
        inside, calls = [0], Counter()

        def counting(frame, event, arg):
            code = frame.f_code
            if event == "call":
                if code is collect:
                    inside[0] += 1
                elif inside[0]:
                    calls[code] += 1
            elif event == "return" and code is collect:
                inside[0] -= 1

        sys.setprofile(counting)
        try:
            result = DeviceModel(ftl).run(_gc_heavy_trace())
        finally:
            sys.setprofile(None)
        metrics = result.metrics
        updates = calls[BaseFTL._gc_update_mappings.__code__]
        assert 0 < updates <= metrics.gc_data_collections
        # more forced translation pages than updates
        assert metrics.trans_writes_gc_update > updates
        assert calls[TPFTL._gc_flush_extras.__code__] == updates
        assert metrics.batch_cleaned_entries > 0
        gtd = {code.co_name: count for code, count in calls.items()
               if code.co_filename == gtd_file}
        assert gtd == {"update_all": updates}

    @pytest.mark.parametrize("monogram", ("rsbc", "-"))
    def test_tpftl_cache_events_cross_no_helper_frame(self, monogram):
        """A TPFTL miss loads, prefetches and evicts each entry in one
        method body: the budget test, the entry's add and drop and the
        settle pre-check are inline, and ``ByteBudget.charge`` /
        ``release`` run once per TP node loaded or drained, never once
        per entry."""
        ssd = SSDConfig(logical_pages=512, page_size=256, pages_per_block=8)
        ftl = make_ftl("tpftl", SimulationConfig(
            ssd=ssd, cache=CacheConfig(budget_bytes=1024),
            tpftl=TPFTLConfig.from_monogram(monogram)))
        calls = Counter()

        def counting(frame, event, arg):
            if event == "call":
                calls[frame.f_code] += 1

        sys.setprofile(counting)
        try:
            result = DeviceModel(ftl).run(_gc_heavy_trace())
        finally:
            sys.setprofile(None)
        assert ftl.sanitizer is None
        assert result.metrics.gc_data_collections > 0
        assert calls[TPNode.__len__.__code__] == 0
        tpftl_file = TPNode.__len__.__code__.co_filename
        removed = {"_drop_entry", "_touch", "add", "drop", "set_dirty"}
        assert not [code.co_name for code in calls
                    if code.co_filename == tpftl_file
                    and code.co_name in removed]
        loads = calls[TPNode.__init__.__code__]
        drains = calls[LRUList.remove.__code__]
        assert calls[ByteBudget.charge.__code__] <= loads
        assert calls[ByteBudget.release.__code__] <= drains
        # entries come and go far more often than whole nodes do
        assert calls[EntryNode.__init__.__code__] > 10 * loads
        assert result.metrics.replacements > 10 * drains

    def test_dftl_cache_events_cross_no_helper_frame(self):
        """A DFTL cache event runs in ``_translate``'s body: the CMT is
        a bare ``OrderedDict`` and the load and the write-back's read
        are inline.  A dirty victim still calls
        ``write_translation_page``, so ``_fold`` stays the one writer
        of ``flash_table``."""
        ssd = SSDConfig(logical_pages=512, page_size=256, pages_per_block=8)
        ftl = make_ftl("dftl", SimulationConfig(
            ssd=ssd, cache=CacheConfig(budget_bytes=1024)))
        calls = Counter()

        def counting(frame, event, arg):
            if event == "call":
                calls[frame.f_code] += 1

        sys.setprofile(counting)
        try:
            result = DeviceModel(ftl).run(_gc_heavy_trace())
        finally:
            sys.setprofile(None)
        assert ftl.sanitizer is None
        assert result.metrics.gc_data_collections > 0
        assert not [code.co_name for code in calls
                    if code.co_filename.startswith(_CACHE_DIR)]
        assert not [code for code in calls if code.co_name == "_evict_until"]
        assert calls[BaseFTL.read_translation_page.__code__] == 0
        assert result.metrics.dirty_replacements > 0
        assert (calls[BaseFTL.write_translation_page.__code__]
                == result.metrics.dirty_replacements)

    def test_sftl_cache_events_cross_no_helper_frame(self):
        """An S-FTL hit or miss runs in ``_translate``'s body and an
        update, with the page's growth, in ``_record_mapping``'s: the
        page cache is a bare ``OrderedDict`` and both byte budgets are
        compared inline, so a replay enters no ``repro/cache`` frame.
        ``_evict_page`` and ``_flush_buffer_group`` stay the eviction
        bodies, and an update's run cap costs no geometry frame."""
        ssd = SSDConfig(logical_pages=512, page_size=256, pages_per_block=8)
        ftl = make_ftl("sftl", SimulationConfig(
            ssd=ssd, cache=CacheConfig(budget_bytes=1024)))
        assert ftl.buffer_budget is not None
        calls = Counter()

        def counting(frame, event, arg):
            if event == "call":
                calls[frame.f_code] += 1

        sys.setprofile(counting)
        try:
            result = DeviceModel(ftl).run(_gc_heavy_trace())
        finally:
            sys.setprofile(None)
        assert ftl.sanitizer is None
        assert result.metrics.gc_data_collections > 0
        assert not [code.co_name for code in calls
                    if code.co_filename.startswith(_CACHE_DIR)]
        sftl_file = SFTL._translate.__code__.co_filename
        folded = {"_load_page", "_make_room", "_size_for_runs",
                  "_apply_update", "note_update", "dirty"}
        assert not [code.co_name for code in calls
                    if code.co_filename == sftl_file
                    and code.co_name in folded]
        # an update that breaks a run caps the count inline
        assert calls[ftl.geometry.entries_in.__code__] == 0
        # a sparse dirty victim parked: a full buffer is flushed a group
        # at a time, and only parks fill it
        assert calls[SFTL._flush_buffer_group.__code__] > 0
        assert calls[SFTL._evict_page.__code__] > 0
