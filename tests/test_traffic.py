"""The open-loop multi-tenant traffic frontend and QoS dispatch.

Covers the composition layer (arrival models, namespace slicing, merge
determinism), tenant threading through the device models (per-tenant
response statistics, fair-share lanes, single-tenant degeneration to
the paper's FIFO arithmetic bit-for-bit), parity with the frozen
reference digests on traffic workloads, and the runner's
digest-neutral spec extension.
"""

from __future__ import annotations

import dataclasses
import json
import random
import tracemalloc
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SimulationConfig, SSDConfig
from repro.errors import ConfigError, WorkloadError
from repro.experiments import ExperimentScale
from repro.experiments.runner import (RunSpec, clear_run_caches,
                                      decode_result, encode_result,
                                      execute_spec)
from repro.ftl import make_ftl
from repro.ssd import DeviceModel, FairShare, simulate
from repro.types import Op, Request, Trace
from repro.workloads import (ARRIVAL_KINDS, ArrivalModel, TenantSpec,
                             TrafficSpec, compose, make_preset)
from repro.workloads import traffic

from conftest import golden_digests, result_digest
from golden_cells import ledger_mix

TINY = ExperimentScale(
    name="tiny", num_requests=900, warmup_requests=200,
    financial_pages=2048, msr_pages=4096,
    cache_fractions=(1 / 32, 1.0), sample_interval=0)


def tiny_mix(tenants=2, kind="poisson", requests=400, pages=1024,
             weights=None, seed=3, interarrival=500.0) -> TrafficSpec:
    """A small homogeneous mix for device-level tests: every tenant
    runs Financial1 with its own seed over an equal namespace."""
    arrival = ArrivalModel(kind=kind, mean_interarrival_us=interarrival)
    return TrafficSpec(name="mix", seed=seed, tenants=tuple(
        TenantSpec(name=f"financial1-{index}", workload="financial1",
                   num_requests=requests, pages=pages, arrival=arrival,
                   weight=1.0 if weights is None else weights[index],
                   seed=seed + index)
        for index in range(tenants)))


def sim_config(trace: Trace) -> SimulationConfig:
    """A small geometry sized to the composed trace."""
    return SimulationConfig(ssd=SSDConfig(
        logical_pages=trace.logical_pages, page_size=256,
        pages_per_block=8))


def mix_digest(qos, channels=1, weights=None):
    """Three tenants on DFTL under one dispatch policy."""
    spec = tiny_mix(tenants=3, requests=200, interarrival=250.0,
                    weights=weights)
    trace = compose(spec)
    result = simulate(
        make_ftl("dftl", sim_config(trace)), trace, channels=channels,
        qos=qos, keep_response_samples=True,
        tenant_weights=spec.weights() if qos == "fair" else None)
    assert result.tenants
    return result_digest(result)


#: tenant-mix cells of ``tests/golden_digests.json`` (frozen from the
#: reference core; ``golden_cells.write_golden`` regenerates them)
GOLDEN_CELLS = {
    "traffic/fifo": lambda: mix_digest("fifo"),
    "traffic/fair": lambda: mix_digest("fair", weights=(4.0, 2.0, 1.0)),
    "traffic/fair-ch2": lambda: mix_digest("fair", channels=2,
                                           weights=(4.0, 2.0, 1.0)),
    "traffic/fifo-ch4": lambda: mix_digest("fifo", channels=4),
}


class TestArrivalModel:
    def test_rejects_unknown_kind(self):
        with pytest.raises(WorkloadError, match="arrival kind"):
            ArrivalModel(kind="constant")

    def test_rejects_bad_parameters(self):
        with pytest.raises(WorkloadError):
            ArrivalModel(mean_interarrival_us=0.0)
        with pytest.raises(WorkloadError):
            ArrivalModel(kind="bursty", burst_factor=1.0)
        with pytest.raises(WorkloadError):
            ArrivalModel(kind="diurnal", amplitude=1.0)

    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_arrivals_non_decreasing(self, kind):
        model = ArrivalModel(kind=kind, mean_interarrival_us=100.0)
        times = model.arrivals(2_000, random.Random(7))
        assert len(times) == 2_000
        assert all(a <= b for a, b in zip(times, times[1:]))

    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_long_run_rate_matches_mean(self, kind):
        """Every kind preserves the configured long-run offered rate."""
        model = ArrivalModel(kind=kind, mean_interarrival_us=100.0)
        times = model.arrivals(20_000, random.Random(11))
        mean = times[-1] / len(times)
        assert mean == pytest.approx(100.0, rel=0.15)

    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_deterministic_for_seeded_rng(self, kind):
        model = ArrivalModel(kind=kind)
        assert (model.arrivals(500, random.Random(3))
                == model.arrivals(500, random.Random(3)))

    def test_bursty_clusters_more_than_poisson(self):
        rng = random.Random(5)
        bursty = ArrivalModel(kind="bursty", mean_interarrival_us=100.0,
                              burst_factor=20.0)
        times = bursty.arrivals(5_000, rng)
        gaps = [b - a for a, b in zip(times, times[1:])]
        short = sum(1 for g in gaps if g < 100.0 / 4)
        # a burst-dominated stream has far more sub-quarter-mean gaps
        # than the memoryless process (which has ~22%)
        assert short / len(gaps) > 0.5


class TestTrafficSpec:
    def test_rejects_duplicate_tenant_names(self):
        tenant = TenantSpec(name="a", workload="financial1",
                            num_requests=10, pages=64)
        with pytest.raises(WorkloadError, match="unique"):
            TrafficSpec(name="dup", tenants=(tenant, tenant))

    def test_rejects_namespaces_past_32_bit_words(self):
        halves = tuple(TenantSpec(name=name, workload="financial1",
                                  num_requests=10, pages=2 ** 30)
                       for name in "ab")
        with pytest.raises(WorkloadError, match="32-bit"):
            TrafficSpec(name="wide", tenants=halves)

    def test_rejects_unknown_workload_and_bad_weight(self):
        with pytest.raises(WorkloadError, match="workload"):
            TenantSpec(name="a", workload="nope", num_requests=1,
                       pages=64)
        for weight in (0.0, float("nan"), float("inf")):
            with pytest.raises(WorkloadError, match="weight"):
                TenantSpec(name="a", workload="financial1",
                           num_requests=1, pages=64, weight=weight)
        # json reads NaN and Infinity, so a payload can carry them
        for field in ("mean_interarrival_us", "period_us"):
            for value in (float("nan"), float("inf")):
                with pytest.raises(WorkloadError, match=field):
                    ArrivalModel(**{field: value})

    def test_namespaces_are_disjoint_slices_in_order(self):
        spec = tiny_mix(tenants=3, pages=128)
        spaces = spec.namespaces()
        assert spaces["financial1-0"] == (0, 128)
        assert spaces["financial1-1"] == (128, 128)
        assert spaces["financial1-2"] == (256, 128)
        assert spec.logical_pages == 384

    def test_canonical_round_trip(self):
        spec = tiny_mix(tenants=2, kind="bursty",
                        weights=(3.0, 1.0))
        rebuilt = TrafficSpec.from_payload(
            json.loads(json.dumps(spec.canonical())))
        assert rebuilt == spec


class TestCompose:
    def test_deterministic(self):
        spec = tiny_mix()
        assert compose(spec).requests == compose(spec).requests

    def test_merged_schedule_sorted_and_bounded(self):
        spec = tiny_mix(tenants=3, pages=256, requests=200)
        trace = compose(spec)
        assert len(trace) == 600
        assert trace.logical_pages == spec.logical_pages
        arrivals = [r.arrival for r in trace.requests]
        assert all(a <= b for a, b in zip(arrivals, arrivals[1:]))
        spaces = spec.namespaces()
        for request in trace.requests:
            base, pages = spaces[request.tenant]
            assert base <= request.lpn
            assert request.end_lpn <= base + pages

    def test_every_tenant_contributes_its_budget(self):
        spec = tiny_mix(tenants=2, requests=150)
        trace = compose(spec)
        counts = {}
        for request in trace.requests:
            counts[request.tenant] = counts.get(request.tenant, 0) + 1
        assert counts == {"financial1-0": 150, "financial1-1": 150}

    def test_single_tenant_keeps_preset_requests(self):
        """N=1 composition only relabels arrivals/tenant, not the ops."""
        from repro.workloads import make_preset
        spec = tiny_mix(tenants=1, requests=300, pages=1024)
        trace = compose(spec)
        preset = make_preset("financial1", logical_pages=1024,
                             num_requests=300, seed=spec.tenants[0].seed)
        assert [(r.op, r.lpn, r.npages) for r in trace.requests] \
            == [(r.op, r.lpn, r.npages) for r in preset.requests]
        assert all(r.tenant == "financial1-0" for r in trace.requests)

    def test_merge_is_the_arrival_index_sequence_sort(self):
        """The arg-sort merge against a tuple sort built from scratch."""
        spec = tiny_mix(tenants=3, requests=250, kind="bursty")
        keyed, base = [], 0
        for index, tenant in enumerate(spec.tenants):
            stream = make_preset(tenant.workload, logical_pages=tenant.pages,
                                 num_requests=tenant.num_requests,
                                 seed=tenant.seed)
            rng = random.Random(f"{spec.seed}:{index}:{tenant.seed}")
            arrivals = tenant.arrival.arrivals(len(stream), rng)
            for seq, (request, arrival) in enumerate(zip(stream, arrivals)):
                keyed.append(((arrival, index, seq), Request(
                    arrival, request.op, request.lpn + base,
                    request.npages, tenant.name)))
            base += tenant.pages
        keyed.sort(key=lambda item: item[0])
        assert compose(spec).requests == [item[1] for item in keyed]

    def test_arg_sort_is_stable_on_ties(self):
        rng = random.Random(9)
        arrivals = array("d", [rng.choice((0.0, 0.5, 7.25, 1e9))
                               for _ in range(2_000)])
        assert traffic._arrival_order(arrivals).tolist() \
            == sorted(range(len(arrivals)), key=arrivals.__getitem__)
        assert traffic._arrival_order(array("d")).tolist() == []

    def test_stream_escaping_its_namespace_rejected(self, monkeypatch):
        spec = tiny_mix(tenants=2, requests=50, pages=256)
        monkeypatch.setattr(
            traffic, "make_preset",
            lambda name, **kwargs: make_preset(
                name, **dict(kwargs, logical_pages=512)))
        with pytest.raises(WorkloadError, match="escapes its 256-page"):
            compose(spec)

    def test_tenant_count_fits_the_tenant_column(self):
        tenants = tuple(TenantSpec(name=f"t{index}", workload="financial1",
                                   num_requests=1, pages=64)
                        for index in range(256))
        with pytest.raises(WorkloadError, match="at most 255 tenants"):
            TrafficSpec(name="crowd", tenants=tenants)
        trace = compose(TrafficSpec(name="full", tenants=tenants[:255]))
        assert trace.tenant_names == (None, *(t.name for t in tenants[:255]))

    def test_ledger_mix_peaks_under_64_bytes_per_request(self):
        """The sort's keys sit beside one column, and each column is
        replaced by its sorted copy in turn (a tuple sort over a list of
        requests peaked at 290 B).  A quarter of the ledger's mix keeps
        the traced allocations quick."""
        tracemalloc.start()
        try:
            trace = ledger_mix(requests_per_tenant=5_000)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace) == 15_000
        assert retained <= 32 * len(trace)
        assert peak <= 64 * len(trace)


class TestDeviceTenancy:
    def _run(self, trace, qos="fifo", weights=None, channels=1,
             keep_samples=False):
        ftl = make_ftl("dftl", sim_config(trace))
        return simulate(ftl, trace, channels=channels,
                        qos=qos, tenant_weights=weights,
                        keep_response_samples=keep_samples)

    def test_per_tenant_stats_partition_the_aggregate(self):
        trace = compose(tiny_mix(tenants=3, requests=150))
        result = self._run(trace)
        assert set(result.tenants) == {"financial1-0", "financial1-1",
                                       "financial1-2"}
        assert sum(s.count for s in result.tenants.values()) \
            == result.response.count

    def test_merged_tenant_stats_reproduce_aggregate(self):
        """ResponseStats.merge over tenants == one whole-trace stream."""
        from repro.metrics import ResponseStats
        trace = compose(tiny_mix(tenants=3, requests=150))
        result = self._run(trace, keep_samples=True)
        merged = ResponseStats(keep_samples=True)
        for name in sorted(result.tenants):
            merged.merge(result.tenants[name])
        aggregate = result.response
        assert merged.count == aggregate.count
        assert merged.max == aggregate.max
        assert merged.mean == pytest.approx(aggregate.mean, rel=1e-12)
        assert merged.variance == pytest.approx(aggregate.variance,
                                                rel=1e-9)
        assert merged.total_queue_delay == pytest.approx(
            aggregate.total_queue_delay, rel=1e-12)
        assert sorted(merged.samples) == sorted(aggregate.samples)
        assert merged.percentile(99.0) == aggregate.percentile(99.0)

    def test_single_tenant_fifo_matches_unattributed_trace(self):
        """Tenant labels must not perturb the paper's timing at all."""
        trace = compose(tiny_mix(tenants=1, requests=400))
        stripped = Trace(
            requests=[r._replace(tenant=None) for r in trace],
            logical_pages=trace.logical_pages, name=trace.name)
        labelled = self._run(trace)
        plain = self._run(stripped)
        assert labelled.response == plain.response
        assert labelled.makespan == plain.makespan
        assert plain.tenants == {}
        assert labelled.tenants["financial1-0"].count \
            == labelled.response.count

    def test_lone_tenant_fair_equals_fifo_bit_for_bit(self):
        """share=1 division must not change a single float."""
        trace = compose(tiny_mix(tenants=1, requests=400))
        fifo = self._run(trace, qos="fifo")
        fair = self._run(trace, qos="fair")
        assert fair.qos == "fair" and fifo.qos == "fifo"
        assert fair.response == fifo.response
        assert fair.makespan == fifo.makespan
        assert fair.tenants == fifo.tenants

    def test_fair_isolates_the_heavier_weight(self):
        trace = compose(tiny_mix(tenants=2, requests=400,
                                 interarrival=120.0,
                                 weights=(8.0, 1.0)))
        result = self._run(trace, qos="fair",
                           weights={"financial1-0": 8.0,
                                    "financial1-1": 1.0})
        heavy = result.tenants["financial1-0"]
        light = result.tenants["financial1-1"]
        assert heavy.mean_queue_delay < light.mean_queue_delay

    def test_weights_without_fair_rejected(self, tiny_config):
        # FIFO used to drop the weights silently (and unvalidated)
        with pytest.raises(ConfigError, match="tenant_weights"):
            DeviceModel(make_ftl("dftl", tiny_config),
                        tenant_weights={"a": 1.0})

    def test_non_finite_fair_share_weight_rejected(self):
        # a NaN weight used to be accepted, and every finish time it
        # touched came out NaN
        for weight in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="weight"):
                FairShare({"a": weight})

    def test_unknown_qos_rejected(self, tiny_config):
        with pytest.raises(ConfigError, match="qos"):
            DeviceModel(make_ftl("dftl", tiny_config), qos="wfq")

    def test_non_positive_weight_rejected(self, tiny_config):
        with pytest.raises(ConfigError, match="weight"):
            DeviceModel(make_ftl("dftl", tiny_config), qos="fair",
                        tenant_weights={"a": 0.0})

    def test_out_of_order_arrivals_rejected(self, tiny_config):
        trace = Trace(requests=[
            Request(arrival=100.0, op=Op.READ, lpn=0, npages=1),
            Request(arrival=50.0, op=Op.READ, lpn=1, npages=1),
        ], logical_pages=512)
        device = DeviceModel(make_ftl("dftl", tiny_config))
        with pytest.raises(WorkloadError, match="non-decreasing"):
            device.run(trace)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(channels=st.sampled_from((2, 3, 4, 8)),
           shapes=st.lists(st.tuples(st.integers(0, 12),
                                     st.integers(0, 12),
                                     st.integers(0, 3)),
                           min_size=1, max_size=12))
    def test_channel_parallel_service_stripes_from_cursor_zero(
            self, tiny_config, channels, shapes):
        device = DeviceModel(make_ftl("dftl", tiny_config), channels=2)
        ssd = device.ftl.ssd
        # r,r,r,w round-robined over 2 channels: ch0 = 2 reads,
        # ch1 = 1 read + 1 write -> the makespan is ch1
        expected = max(2 * ssd.read_us, ssd.read_us + ssd.write_us)
        assert device._parallel_service_us(3, 1, 0, 0.0) == expected
        single = DeviceModel(make_ftl("dftl", tiny_config), channels=1)
        assert single._parallel_service_us(3, 1, 0, 123.0) == 123.0
        # the stripe is memoised per (reads, writes, erases); with
        # non-integer latencies the rounding order matters, so the
        # stored value must be the striping loop's own sum, both on
        # the first call and on every repeat
        ssd = dataclasses.replace(tiny_config.ssd, read_us=25.1,
                                  write_us=200.3, erase_us=1500.7)
        device = DeviceModel(make_ftl("dftl", SimulationConfig(ssd=ssd)),
                             channels=channels)
        for reads, writes, erases in shapes + shapes:
            fresh = device._stripe([0.0] * channels, 0, 0.0,
                                   reads, writes, erases)[1]
            assert device._parallel_service_us(
                reads, writes, erases, -1.0) == fresh


class TestFastpathTrafficParity:
    """Tenant mixes against the reference core's frozen digests."""

    def _parity(self, name):
        assert GOLDEN_CELLS[name]() == golden_digests()["cells"][name]

    def test_fifo_multi_tenant_parity(self):
        self._parity("traffic/fifo")

    def test_fair_multi_tenant_parity(self):
        self._parity("traffic/fair")

    def test_fair_multi_channel_parity(self):
        self._parity("traffic/fair-ch2")

    def test_fifo_multi_channel_parity(self):
        self._parity("traffic/fifo-ch4")


class TestRunnerTrafficSpecs:
    LEGACY_KEYS = {"workload", "ftl", "scale", "cache_fraction",
                   "tpftl", "seed", "sample_interval", "channels"}

    def base(self, **overrides) -> RunSpec:
        params = dict(workload="financial1", ftl="dftl", scale=TINY)
        params.update(overrides)
        return RunSpec(**params)

    def test_default_spec_canonical_form_unchanged(self):
        """Pre-existing digests (cache addresses) must not move."""
        assert set(self.base().canonical()) == self.LEGACY_KEYS

    def test_new_fields_change_the_digest(self):
        base = self.base()
        variants = [
            self.base(traffic=tiny_mix()),
            self.base(qos="fair"),
            self.base(keep_response_samples=True),
        ]
        digests = {base.digest} | {v.digest for v in variants}
        assert len(digests) == len(variants) + 1

    def test_label_marks_mix_and_policy(self):
        spec = self.base(traffic=tiny_mix(tenants=3), qos="fair")
        assert "mix=3t" in spec.label()
        assert "fair" in spec.label()
        assert "mix=" not in self.base().label()

    def test_execute_traffic_spec(self):
        spec = self.base(traffic=tiny_mix(tenants=2, requests=300,
                                          interarrival=400.0),
                         qos="fair", keep_response_samples=True)
        result = execute_spec(spec)
        clear_run_caches()
        # 600 composed requests minus the tiny scale's 200 warmup
        assert result.requests == 400
        assert result.qos == "fair"
        assert set(result.tenants) == {"financial1-0", "financial1-1"}
        assert result.response.percentile(99.0) is not None

    def test_codec_round_trips_tenants_and_qos(self):
        spec = self.base(traffic=tiny_mix(tenants=2, requests=300),
                         qos="fair", keep_response_samples=True)
        fresh = execute_spec(spec)
        clear_run_caches()
        decoded = decode_result(
            json.loads(json.dumps(encode_result(fresh))))
        assert decoded == fresh
        assert decoded.tenants == fresh.tenants
        assert decoded.qos == "fair"
        assert decoded.summary() == fresh.summary()
