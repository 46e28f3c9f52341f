"""Multi-tenant traffic: per-tenant tail latency vs load [extension].

The paper replays closed-loop single-stream traces; this experiment
drives the device with the open-loop multi-tenant frontend
(:mod:`repro.workloads.traffic`): three tenants with distinct Table 4
characters, arrival processes and fair-share weights, composed into one
schedule and swept from underload to 2x overload under both dispatch
policies (paper FIFO vs weighted fair-share).

The sweep is *calibrated*: a probe cell measures the mix's mean flash
service time per request — service work is arrival-independent, so the
probe is exact — and each load point sets the tenants' mean
inter-arrival so the aggregate offered rate is ``load x capacity``.
``load=1.0`` is therefore the knee of the single-server queue
regardless of scale, workload mix or FTL configuration.

Every cell routes through the supervised
:class:`~repro.experiments.runner.ParallelRunner` (content-addressed
cache, watchdog/retry, ``--jobs`` fan-out).  ``python -m
repro.experiments traffic --json DIR`` runs the sweep; the ``data`` of
``DIR/traffic_small.json`` is the trajectory ``BENCH_traffic.json``
records::

    {"bench": "traffic", "schema": 1, "load_sweep": [0.5, ...],
     "cells": [{"load": 2.0, "qos": "fair",
                "aggregate": {"p99_us": ..., ...},
                "tenants": {"oltp": {"p99_us": ..., ...}, ...}}, ...]}
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..errors import ExperimentError
from ..metrics import ResponseStats
from ..workloads import ArrivalModel, TenantSpec, TrafficSpec
from .common import ExperimentResult, ExperimentScale

#: offered load as a fraction of measured device capacity; the sweep
#: crosses the knee (1.0) into sustained overload
LOAD_SWEEP = (0.5, 0.9, 1.4, 2.0)
#: dispatch policies compared at every load point
QOS_SWEEP = ("fifo", "fair")
#: the mix: (tenant, preset, fair-share weight, arrival kind) — three
#: Table 4 characters under three different arrival processes
MIX_TENANTS = (
    ("oltp", "financial1", 4.0, "poisson"),
    ("read", "financial2", 2.0, "bursty"),
    ("batch", "msr-src", 1.0, "diurnal"),
)
#: FTL under test (the paper's proposal)
MIX_FTL = "tpftl"
#: composition seed of the mix (tenant seeds derive from it)
MIX_SEED = 7
#: probe interarrival (us); any value works — service work per request
#: is arrival-independent, the probe only reads the service-time total
PROBE_INTERARRIVAL_US = 10_000.0


def base_mix(scale: ExperimentScale,
             mean_interarrival_us: float) -> TrafficSpec:
    """The three-tenant mix at one per-tenant offered rate.

    Requests split evenly across tenants (total = the scale's request
    count, so warmup budgets carry over); every tenant gets an
    equally-sized namespace slice.
    """
    per_tenant = max(1, scale.num_requests // len(MIX_TENANTS))
    pages = max(1024, scale.financial_pages // 2)
    tenants = tuple(
        TenantSpec(
            name=name, workload=workload, num_requests=per_tenant,
            pages=pages,
            arrival=ArrivalModel(
                kind=kind, mean_interarrival_us=mean_interarrival_us),
            weight=weight, seed=MIX_SEED + index)
        for index, (name, workload, weight, kind)
        in enumerate(MIX_TENANTS))
    return TrafficSpec(name="mix3", tenants=tenants, seed=MIX_SEED)


def _percentiles(stats: ResponseStats) -> Dict[str, Any]:
    """The bench record of one statistics stream (tails included)."""
    return {
        "requests": stats.count,
        "mean_response_us": stats.mean,
        "mean_queue_delay_us": stats.mean_queue_delay,
        "max_response_us": stats.max,
        "p99_us": stats.percentile(99.0),
        "p999_us": stats.percentile(99.9),
    }


def run(scale: ExperimentScale) -> ExperimentResult:
    """Sweep offered load x dispatch policy for the three-tenant mix."""
    from .runner import RunSpec, get_runner
    runner = get_runner()
    probe_spec = RunSpec(workload="traffic-probe", ftl=MIX_FTL,
                         scale=scale,
                         traffic=base_mix(scale, PROBE_INTERARRIVAL_US))
    probe = runner.run_specs([probe_spec])[0]
    if not probe.requests or not probe.service_time_us:
        raise ExperimentError(
            "traffic probe produced no measurable service time; "
            "increase the scale's request count past its warmup")
    mean_service_us = probe.service_time_us / probe.requests
    # aggregate offered rate (requests/us) of N tenants with per-tenant
    # mean inter-arrival T is N/T; capacity of the single-server device
    # is 1/mean_service — so T = N * mean_service / load hits the target
    interarrivals = {
        load: len(MIX_TENANTS) * mean_service_us / load
        for load in LOAD_SWEEP}
    specs = [RunSpec(workload="traffic-mix", ftl=MIX_FTL, scale=scale,
                     traffic=base_mix(scale, interarrivals[load]),
                     qos=qos, keep_response_samples=True)
             for load in LOAD_SWEEP for qos in QOS_SWEEP]
    results = runner.run_specs(specs)
    by_cell = dict(zip([(load, qos) for load in LOAD_SWEEP
                        for qos in QOS_SWEEP], results))

    rows: List[List[object]] = []
    cells: List[Dict[str, Any]] = []
    for load in LOAD_SWEEP:
        for qos in QOS_SWEEP:
            result = by_cell[(load, qos)]
            streams = [("*", result.response)]
            streams += sorted(result.tenants.items())
            for name, stats in streams:
                rows.append([
                    f"{load:g}x", qos, name, stats.count, stats.mean,
                    stats.mean_queue_delay, stats.percentile(99.0),
                    stats.percentile(99.9),
                ])
            cells.append({
                "load": load,
                "qos": qos,
                "mean_interarrival_us": interarrivals[load],
                "digest": RunSpec(
                    workload="traffic-mix", ftl=MIX_FTL, scale=scale,
                    traffic=base_mix(scale, interarrivals[load]),
                    qos=qos, keep_response_samples=True).digest,
                "makespan_us": result.makespan,
                "gc_time_fraction": result.gc_time_fraction,
                "aggregate": _percentiles(result.response),
                "tenants": {name: _percentiles(stats)
                            for name, stats
                            in sorted(result.tenants.items())},
            })
    return ExperimentResult(
        experiment_id="traffic",
        title="Per-tenant tail latency vs offered load [extension]",
        headers=["Load", "QoS", "Tenant", "Reqs", "Resp us",
                 "Queue us", "p99 us", "p99.9 us"],
        rows=rows,
        notes=("load is the aggregate offered rate as a fraction of "
               "measured device capacity; '*' rows aggregate all "
               "tenants; fair-share weights oltp:read:batch = 4:2:1"),
        data={
            "bench": "traffic",
            "schema": 1,
            "scale": scale.name,
            "ftl": MIX_FTL,
            "load_sweep": list(LOAD_SWEEP),
            "qos_sweep": list(QOS_SWEEP),
            "probe": {
                "mean_service_us": mean_service_us,
                "capacity_requests_per_us": 1.0 / mean_service_us,
            },
            "tenants": [
                {"name": name, "workload": workload, "weight": weight,
                 "arrival": kind}
                for name, workload, weight, kind in MIX_TENANTS],
            "cells": cells,
        },
    )
