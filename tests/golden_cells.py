"""The cells of ``tests/golden_digests.json`` and the way to re-freeze them.

Every cell below (plus the tenant mixes of ``tests/test_traffic.py``)
was run through the per-operation reference core at the last commit that
had it, and the sha256 of the run cache's JSON encoding — for fault
cells, of the result together with the injector counters and the
block-for-block flash end state — was frozen.  ``tests/test_fastpath.py``
holds the one core to each byte.  Not a test module: regenerate the
table, only when a PR changes results on purpose, with::

    PYTHONPATH=src:tests python tests/golden_cells.py
"""

import dataclasses
import hashlib
import json

import pytest

from repro.config import (CacheConfig, SanitizerConfig, SimulationConfig,
                          SSDConfig)
from repro.errors import DeviceWornOutError, PowerLossError
from repro.experiments.common import ExperimentScale, build_workload
from repro.experiments.faults import _config_for as media_fault_config
from repro.experiments.runner import RunSpec, encode_result, execute_spec
from repro.ftl import FTL_NAMES, OptimalFTL, make_ftl
from repro.ssd import DeviceModel
from repro.workloads import (ArrivalModel, SyntheticSpec, TenantSpec,
                             TrafficSpec, compose, generate, make_preset)

from conftest import (GOLDEN_PATH, golden_digests, make_trace, random_ops,
                      result_digest)

#: the tier-1 cells at CI size (the cell set the old parity matrix ran)
PARITY_SCALE = ExperimentScale(num_requests=2_500, warmup_requests=500)
#: a device small enough that every FTL collects data blocks, and the
#: demand-based ones translation blocks too, within the run
ZOO_SCALE = ExperimentScale(num_requests=6_000, warmup_requests=1_000,
                            financial_pages=4_096)
TIER1_WORKLOADS = ("financial1", "financial2", "msr-src", "msr-ts")
FTLS = ("dftl", "tpftl", "optimal")

TINY_SSD = SSDConfig(logical_pages=512, page_size=256, pages_per_block=8)
TINY = SimulationConfig(ssd=TINY_SSD)
ROOMY = SimulationConfig(ssd=TINY_SSD, cache=CacheConfig(budget_bytes=2048))
GC_HEAVY = SimulationConfig(ssd=TINY_SSD,
                            cache=CacheConfig(budget_bytes=1024))
GC_HEAVY_UNBUFFERED = dataclasses.replace(GC_HEAVY, cache=CacheConfig(
    budget_bytes=1024, sftl_dirty_buffer_fraction=0.0))
SANITIZED = dataclasses.replace(ROOMY, sanitizer=SanitizerConfig(
    enabled=True, interval=1, full_every=32))
#: the power cut fires on flash operation 778 of the replay, after GC
#: of both block kinds has started
POWER_CUT_AFTER = 777


def small_trace(count=1_500, seed=11):
    return make_trace(random_ops(count, 512, seed=seed))


def gc_heavy_trace():
    return make_trace(random_ops(2_000, 512, seed=21, write_ratio=0.9))


# ----------------------------------------------------------------------
# The cells
# ----------------------------------------------------------------------
#: runner cells: tier-1 matrix, every FTL, 4 channels, and the eight
#: cells of the retired BENCH_fastpath.json at its committed scale
SPEC_CELLS = {f"tier1/{workload}:{ftl}": RunSpec(
    workload=workload, ftl=ftl, scale=PARITY_SCALE, sample_interval=400)
    for workload in TIER1_WORKLOADS for ftl in FTLS}
SPEC_CELLS.update({f"zoo/financial1:{ftl}": RunSpec(
    workload="financial1", ftl=ftl, scale=ZOO_SCALE, cache_fraction=1 / 4)
    for ftl in FTL_NAMES})
SPEC_CELLS.update({f"bench/{workload}:{ftl}": RunSpec(
    workload=workload, ftl=ftl, scale=ExperimentScale())
    for workload in TIER1_WORKLOADS for ftl in ("dftl", "optimal")})
SPEC_CELLS["channels4/financial2:dftl"] = RunSpec(
    workload="financial2", ftl="dftl", scale=PARITY_SCALE, channels=4)
#: TPFTL with each technique switch on and off: the seven ablation
#: monograms of Fig 7/8 on one Financial and one MSR workload
SPEC_CELLS.update({f"ablation/{workload}:{monogram}": RunSpec.for_ablation(
    monogram, PARITY_SCALE, workload)
    for workload in ("financial1", "msr-ts")
    for monogram in ("-", "b", "c", "bc", "r", "s", "rs")})
#: S-FTL at a cache small enough to evict (at 1/8 neither workload does)
SPEC_CELLS.update({f"small-cache/{workload}:sftl": RunSpec(
    workload=workload, ftl="sftl", scale=PARITY_SCALE,
    cache_fraction=1 / 128)
    for workload in ("financial1", "msr-ts")})


def sanitized_run():
    """-> (result, ftl, pages served)"""
    ops = random_ops(800, 512, seed=5)
    ftl = make_ftl("tpftl", SANITIZED)
    return (DeviceModel(ftl).run(make_trace(ops)), ftl,
            sum(n for _, _, n in ops))


def follow_up_after_abort_run():
    """A replay on a device whose previous replay died mid-loop."""
    ftl = make_ftl("dftl", ROOMY)
    device = DeviceModel(ftl)
    original, served = ftl.serve_request, [0]

    def exploding(request):
        served[0] += 1
        if served[0] == 151:
            raise RuntimeError("injected mid-run fault")
        return original(request)

    ftl.serve_request = exploding
    with pytest.raises(RuntimeError, match="injected"):
        device.run(small_trace(count=400))
    ftl.serve_request = original
    return device.run(small_trace(count=120, seed=21))


#: hand-built devices (FTLSan, warmup, heavy GC, reuse)
RUN_CELLS = {
    "device/warmup-dftl": lambda: DeviceModel(
        make_ftl("dftl", ROOMY), sample_interval=200).run(
            small_trace(), warmup_requests=300),
    "device/sanitized-tpftl": lambda: sanitized_run()[0],
    "device/gc-heavy-dftl": lambda: DeviceModel(
        make_ftl("dftl", GC_HEAVY)).run(gc_heavy_trace()),
    # S-FTL evicts, parks sparse pages, flushes buffer groups and
    # collects translation blocks here; without a buffer every dirty
    # victim is written back
    "device/gc-heavy-sftl": lambda: DeviceModel(
        make_ftl("sftl", GC_HEAVY)).run(gc_heavy_trace()),
    "device/gc-heavy-sftl-unbuffered": lambda: DeviceModel(
        make_ftl("sftl", GC_HEAVY_UNBUFFERED)).run(gc_heavy_trace()),
    "device/follow-up-after-abort": follow_up_after_abort_run,
}


def flash_state(flash):
    """The array block for block, as JSON-safe rows."""
    return [[block.kind.value, block.erase_count, block.valid_count,
             block.invalid_count, block.bad_count, block._write_ptr,
             block.last_program_seq,
             [block.meta(offset) for offset in range(block.pages_per_block)]]
            for block in flash.blocks]


def fault_outcome(ftl, trace, arm_cut_after=None):
    """Digest of a run under faults: result (or the typed failure),
    injector counters and the flash end state."""
    flash = ftl.flash
    injector = flash.injector
    if arm_cut_after is not None:
        injector.arm_power_loss(arm_cut_after)
    try:
        outcome = encode_result(DeviceModel(ftl).run(trace))
    except (PowerLossError, DeviceWornOutError) as exc:
        outcome = f"{type(exc).__name__}: {exc}"
    stats = flash.stats
    payload = json.dumps({
        "outcome": outcome,
        "ops_seen": injector.ops_seen,
        "injected": [injector.injected_read_errors,
                     injector.injected_program_failures,
                     injector.injected_erase_failures,
                     injector.power_cuts],
        "op_seq": flash.op_seq,
        "counts": [stats.data_reads, stats.translation_reads,
                   stats.data_writes, stats.translation_writes,
                   stats.total_erases],
        "faults": stats.fault_summary(),
        "retired": flash.retired_block_ids,
        "flash": flash_state(flash),
    }, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def media_fault_cell(ftl_name, program_faults=True):
    """Read + erase (+ program) faults as in ``experiments/faults.py``."""
    config = media_fault_config(ftl_name)
    if not program_faults:
        config = dataclasses.replace(config, ssd=dataclasses.replace(
            config.ssd, program_fail_rate=0.0))
    trace = make_preset("financial1", num_requests=2_000,
                        logical_pages=config.ssd.logical_pages)
    return fault_outcome(make_ftl(ftl_name, config), trace)


#: four fault plans: read-only, read+erase, read+program+erase, an
#: armed power cut; the first two batch GC moves, the last two go page
#: by page
FAULT_CELLS = {
    "faults/read-only-optimal": lambda: fault_outcome(
        OptimalFTL(SimulationConfig(ssd=dataclasses.replace(
            TINY_SSD, read_error_rate=0.01))), small_trace(count=600)),
    "faults/read-erase-dftl": lambda: media_fault_cell("dftl", False),
    "faults/read-erase-tpftl": lambda: media_fault_cell("tpftl", False),
    "faults/media-dftl": lambda: media_fault_cell("dftl"),
    "faults/media-tpftl": lambda: media_fault_cell("tpftl"),
    "faults/power-cut-dftl": lambda: fault_outcome(
        make_ftl("dftl", TINY), small_trace(count=600),
        arm_cut_after=POWER_CUT_AFTER),
}


def trace_digest(trace):
    """sha256 over every request of a trace, field by field."""
    digest = hashlib.sha256()
    for request in trace:
        digest.update(repr((request.arrival, request.op.value, request.lpn,
                            request.npages, request.tenant)).encode("utf-8"))
    return digest.hexdigest()


def synthetic(name, **fields):
    """A small mixed read/write stream, one branch of ``generate`` bent."""
    params = dict(name=name, logical_pages=4_096, num_requests=4_000,
                  write_ratio=0.6, seq_read_fraction=0.2,
                  seq_write_fraction=0.3, mean_read_pages=2.0,
                  mean_write_pages=1.5, zipf_alpha=4.0, stream_align=8,
                  stream_start_alpha=3.0, seed=5)
    params.update(fields)
    return generate(SyntheticSpec(**params))


def ledger_mix(requests_per_tenant=20_000):
    """``tenants-fair`` of ``benchmarks/perf/perf_cells.py`` at seed 0."""
    tenants = tuple(
        TenantSpec(name=name, workload=preset,
                   num_requests=requests_per_tenant,
                   pages=32_768, weight=weight, seed=7 + index,
                   arrival=ArrivalModel(kind=kind,
                                        mean_interarrival_us=2_500.0))
        for index, (name, preset, weight, kind) in enumerate((
            ("oltp", "financial1", 4.0, "poisson"),
            ("read", "financial2", 2.0, "bursty"),
            ("batch", "msr-src", 1.0, "diurnal"))))
    return compose(TrafficSpec(name="mix3", tenants=tenants, seed=7))


#: trace synthesis request for request: the Table 4 presets at the small
#: scale, the branches of ``generate`` no preset takes (TRIMs, a frozen
#: clock, the no-draw request length, streams wrapping to LPN 0) and the
#: ledger's tenant mix
TRACE_CELLS = {f"traces/{workload}": (
    lambda workload=workload: build_workload(workload,
                                             ExperimentScale.small()))
    for workload in TIER1_WORKLOADS}
TRACE_CELLS.update({
    "traces/trim": lambda: synthetic("trim", trim_fraction=0.1),
    "traces/zero-interarrival": lambda: synthetic(
        "zero-interarrival", mean_interarrival_us=0.0),
    "traces/one-page": lambda: synthetic(
        "one-page", mean_read_pages=1.0, mean_write_pages=1.0),
    "traces/wrapping-streams": lambda: synthetic(
        "wrapping-streams", logical_pages=256, seq_read_fraction=0.9,
        seq_write_fraction=0.9, mean_read_pages=4.0, mean_write_pages=4.0,
        streams=2, stream_align=1, stream_start_alpha=1.0),
    "traces/ledger-mix": ledger_mix,
})


def cell(name):
    """Compute one cell's frozen string from scratch."""
    if name in SPEC_CELLS:
        return result_digest(execute_spec(SPEC_CELLS[name]))
    if name in RUN_CELLS:
        return result_digest(RUN_CELLS[name]())
    if name in TRACE_CELLS:
        return trace_digest(TRACE_CELLS[name]())
    return FAULT_CELLS[name]()


def all_cells():
    import test_traffic
    return {**{name: (lambda name=name: cell(name))
               for name in (*SPEC_CELLS, *RUN_CELLS, *FAULT_CELLS,
                            *TRACE_CELLS)},
            **test_traffic.GOLDEN_CELLS}


def write_golden():
    """Recompute every cell and rewrite ``golden_digests.json``."""
    table = {
        "cells": {name: run() for name, run in sorted(all_cells().items())},
        "specs": {name[len("bench/"):]: spec.digest
                  for name, spec in SPEC_CELLS.items()
                  if name.startswith("bench/")},
    }
    GOLDEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True)
                           + "\n", encoding="utf-8")


def check(name):
    assert cell(name) == golden_digests()["cells"][name]


if __name__ == "__main__":
    write_golden()
