"""The seven named cells the perf ledger times.

Names are fixed: later issues cite them.  Every cell is described to the
simulator the way the experiment runner describes it — a
:class:`~repro.experiments.runner.RunSpec` — plus, for ``faults-tpftl``
only, the fault rates a ``RunSpec`` cannot carry.  ``seed`` is added to
the preset, tenant, composition and fault seeds; ``seed=0`` reproduces
the presets' own seeds, which is what ``golden.json`` pins.
"""

from __future__ import annotations

import dataclasses
import inspect
from typing import Dict, NamedTuple, Optional

from repro import workloads
from repro.config import SimulationConfig
from repro.experiments.common import ExperimentScale, simulation_config
from repro.experiments.runner import RunSpec
from repro.types import Trace
from repro.workloads import ArrivalModel, TenantSpec, TrafficSpec


class Cell(NamedTuple):
    """One workload: a Table 4 preset (``None`` = the tenant mix), an
    FTL, and the one-line reason the workload exists."""

    preset: Optional[str]
    ftl: str
    why: str


#: every workload, in report order
CELLS: Dict[str, Cell] = {
    "oltp-tpftl": Cell(
        "financial1", "tpftl",
        "random 78% writes, hit ratio 0.72: two-level mapping cache and "
        "write-back-driven GC do most of the work"),
    "seq-tpftl": Cell(
        "msr-ts", "tpftl",
        "multi-page sequential requests with prefetching on, hit ratio "
        "0.92: cheap policy slice, flash and ssd folds dominate"),
    "read-tpftl": Cell(
        "financial2", "tpftl",
        "82% reads, almost no GC: the mapping cache used through clean "
        "evictions and lookups instead of dirty write-back"),
    "oltp-optimal": Cell(
        "financial1", "optimal",
        "whole table in RAM, hit ratio 1.0: bypasses the mapping cache, "
        "so a cache change must not move it"),
    "oltp-dftl": Cell(
        "financial1", "dftl",
        "the paper's baseline on LRUDict, hit ratio 0.68: most "
        "translation write-backs and translation-block GC"),
    "tenants-fair": Cell(
        None, "tpftl",
        "three-tenant open-loop mix on 4 channels with fair-share "
        "dispatch: compose, the dispatch hook and per-tenant "
        "ResponseStats do the work"),
    "faults-tpftl": Cell(
        "financial1", "tpftl",
        "live read-error plan (ECC retries only) forces the reference "
        "per-op core: the one workload the one-core item can move"),
}

#: (tenant, preset, fair-share weight, arrival kind) of ``tenants-fair``
MIX_TENANTS = (("oltp", "financial1", 4.0, "poisson"),
               ("read", "financial2", 2.0, "bursty"),
               ("batch", "msr-src", 1.0, "diurnal"))
MIX_SEED = 7
MIX_INTERARRIVAL_US = 2_500.0
MIX_CHANNELS = 4
#: ``faults-tpftl``: transient read errors only — every one is recovered
#: by an ECC retry, so no page goes bad and no block wears out
FAULT_READ_ERROR_RATE = 0.001
FAULT_SEED = 17


def preset_seed(preset: str) -> int:
    """The default seed of a Table 4 preset generator."""
    builder = getattr(workloads, preset.replace("-", "_"))
    return inspect.signature(builder).parameters["seed"].default


def tenants_mix(scale: ExperimentScale, seed: int) -> TrafficSpec:
    """The three-tenant mix: equal request and namespace shares."""
    per_tenant = max(1, scale.num_requests // len(MIX_TENANTS))
    pages = scale.financial_pages // 2
    tenants = tuple(
        TenantSpec(name=name, workload=preset, num_requests=per_tenant,
                   pages=pages,
                   arrival=ArrivalModel(
                       kind=kind,
                       mean_interarrival_us=MIX_INTERARRIVAL_US),
                   weight=weight, seed=MIX_SEED + index + seed)
        for index, (name, preset, weight, kind) in enumerate(MIX_TENANTS))
    return TrafficSpec(name="mix3", tenants=tenants, seed=MIX_SEED + seed)


def cell_spec(name: str, scale: ExperimentScale, seed: int) -> RunSpec:
    """The runner's description of one named workload."""
    cell = CELLS[name]
    if cell.preset is None:
        return RunSpec(workload="traffic-mix", ftl=cell.ftl, scale=scale,
                       channels=MIX_CHANNELS,
                       traffic=tenants_mix(scale, seed), qos="fair",
                       keep_response_samples=True)
    return RunSpec(workload=cell.preset, ftl=cell.ftl, scale=scale,
                   seed=preset_seed(cell.preset) + seed)


def cell_config(name: str, spec: RunSpec, trace: Trace,
                seed: int) -> SimulationConfig:
    """The paper's §5.1 configuration, plus the cell's fault plan."""
    config = simulation_config(trace, cache_fraction=spec.cache_fraction,
                               tpftl=spec.tpftl, channels=spec.channels)
    if name == "faults-tpftl":
        ssd = dataclasses.replace(
            config.ssd, read_error_rate=FAULT_READ_ERROR_RATE,
            fault_seed=FAULT_SEED + seed)
        config = dataclasses.replace(config, ssd=ssd)
    return config
